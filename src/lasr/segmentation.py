"""Intensity segmentation via 1-D Gaussian mixtures.

A frame's intensity histogram is modeled as a mixture whose components,
sorted by mean, split at an adjacent cut ``k`` into background (components
``0..k``) and contact (``k+1..m-1``).  For a cut, the background/contact
threshold ``T`` is placed where the pooled background density equals the
pooled contact density,

    sum_{i <= k} alpha_i * phi((T - mu_i)/sigma_i) / sigma_i
        = sum_{i > k} alpha_i * phi((T - mu_i)/sigma_i) / sigma_i,

which minimizes that two-class probability of misclassification (PMC) for
the fitted model.  The cut is the one whose threshold has the smallest PMC,
the lowest ``k`` among equals; with two components it is ``k = 0``, the
paper's rule.  Three components arise where the clipped background of a
raw mean frame splits in two: the cut then falls between the background
pair and the contact, not inside the background.  Segmentation keeps
values strictly above ``T`` and zeroes the rest.

``T`` is found on ``(mu_k, mu_{k+1})`` by Brent's method (Brent 1973,
ch. 4) in ``_brentq``, a
port of scipy's C ``brentq`` that follows its iterates exactly, so every
threshold is the one ``scipy.optimize.brentq`` gives, bit for bit.  The
port replaces that one call because importing ``scipy.optimize`` pulled in
``scipy.linalg``, ``scipy.spatial`` and ``scipy.fft`` besides: 21.6 MB of
resident memory and about 0.3 s of start-up for every ``lasr`` command.
Where the search runs out of iterations (a gap that is subnormal over most
of the bracket can do that), the cut comes from the PMC grid instead.

Exact zeros are always background: they are excluded from the EM sample
and can never exceed a positive threshold.

EM is accelerated by SQUAREM (Varadhan & Roland 2008, *Scand. J. Stat.*
35:335-353), scheme SqS3: each cycle takes two EM maps, extrapolates along
them in ``theta = (log w, mu, log sd)`` with the step ``alpha = -|r|/|v|``
held at ``alpha <= -1``, and takes one stabilising EM map from the
extrapolated point, or from the second map's point for a start whose
log-likelihood at the extrapolated point is lower; so every start's
log-likelihood never decreases.  ``max_iter`` (300) counts EM maps, three
a cycle, and a fit's ``n_iter`` is the number of maps it took.  An m = 3
fit whose likelihood climbs a slow ridge, which plain EM left at the cap,
converges in a few dozen cycles.

EM runs the quantile start and its jittered restarts as one batch: one
``(m, restarts, n)`` array, with a start dropped from it at the end of the
cycle where it converges or reaches ``max_iter``; the batch is copied only
then, and otherwise lives in four buffers that every cycle reuses.  Each
EM map evaluates the mixture density once, since the E-step normaliser at
the new parameters is the log-likelihood at them.  Each start's sums over
the samples run along a contiguous row of the batch, in numpy's pairwise
order, which is the order of the same sum over that start alone, and its
norms and sums over the parameters add them one after another; so each
start's steps are the same as a run of its own, bit for bit.  The
normaliser is ``scipy.special.logsumexp``'s value, bit for bit.  For two
and three components it is computed in closed form, ``log1p`` of the
summed exponentials of the terms below the maximum, plus the maximum,
with the components ordered by ``np.minimum``/``np.maximum``; a batch in
which some sample has two components tied at the maximum, or a
non-finite maximum, and any m >= 4, call scipy's ``logsumexp``.

EM keeps two numpy costs that are not arithmetic out of the batch, bit for
bit.  It runs under a ufunc buffer no longer than a sample row, set for the
batch alone because a small buffer slows other code (``_em_batch``).  And
its exps skip the lanes whose result rounds to zero, which cost over ten
times a normal lane; on the pipeline's phantom frames 17-19% of them do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp, ndtr

from .errors import DataError, NumericError
from .frames import Frame

__all__ = [
    "InitSpec",
    "Candidate",
    "MixtureModel",
    "SegmentationResult",
    "positive_samples",
    "fit_mixture",
    "select_model",
    "pmc_oracle",
    "optimal_threshold",
    "segment_frame",
]

_VAR_FLOOR_SCALE = 1e-3  # sd floor relative to the sample sd
_TOL = 1e-8  # EM stops when the log-likelihood gain is at most this, relative
_PMC_GRID = 100001  # points of the PMC fallback grid
_SQRT_2PI = np.sqrt(2 * np.pi)  # scipy.stats.norm's pdf constant
_BRENT_MAXITER = 100  # iteration cap of the root search, scipy.optimize.brentq's default
# ufunc buffer of the batched EM, a multiple of 16 as numpy requires: no
# longer than a sample row, so no broadcast of one value per row is buffered across rows
_EM_BUFSIZE = 16
# exp rounds to +0.0 below ln(2**-1075) = -745.1332...; below this, with margin, it is skipped
_EXP_ZERO_BELOW = -746.0


@dataclass(frozen=True)
class InitSpec:
    """EM initialization policy: deterministic quantile start plus jittered restarts."""

    n_restarts: int = 5
    jitter: float = 0.25
    seed: int = 0


class Candidate(NamedTuple):
    """One mixture size that ``select_model`` fitted, and how its fit ended."""

    m: int
    loglik: float
    bic: float
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class MixtureModel:
    """A fitted 1-D Gaussian mixture, components sorted by mean.

    A model chosen by ``select_model`` lists every size fitted for the
    choice in ``candidates``, in order of m; a model from ``fit_mixture``
    lists none.
    """

    m: int
    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    loglik: float
    converged: bool
    n_iter: int
    loglik_trace: np.ndarray
    candidates: Tuple[Candidate, ...] = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        sd = np.asarray(self.sds, dtype=np.float64)
        if not (len(w) == len(mu) == len(sd) == self.m):
            raise DataError("mixture parameter arrays must all have length m")
        if abs(w.sum() - 1.0) > 1e-10 or (w <= 0).any():
            raise DataError("mixture weights must be positive and sum to 1")
        if (sd <= 0).any():
            raise DataError("mixture sds must be positive")
        if (np.diff(mu) < 0).any():
            raise DataError("mixture means must be sorted ascending")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "sds", sd)


@dataclass(frozen=True)
class SegmentationResult:
    """Threshold ``t`` for a fitted model, the cut it is for and how it was obtained.

    Components ``0..cut`` of the model are background, the rest contact.
    """

    t: float
    model: MixtureModel
    method: str  # "root" | "grid-fallback"
    cut: int = 0

    def __post_init__(self):
        if self.method == "root":
            mu = self.model.means
            if not (mu[self.cut] < self.t < mu[self.cut + 1]):
                raise NumericError("root threshold escaped (mu_k, mu_k+1) of its cut k")


def positive_samples(frame: Frame) -> np.ndarray:
    """Strictly positive values of a frame, flattened (the EM sample)."""
    v = frame.values
    return v[v > 0]


# ---------------------------------------------------------------------------
# EM fit
# ---------------------------------------------------------------------------


_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _sum_columns(cols):
    """Elementwise sum of equal-shape arrays, in numpy's order for a short axis.

    numpy adds fewer than 8 terms left to right and switches to its blocked
    pairwise order from 8 on, so longer lists go through ``np.sum``.
    """
    if len(cols) >= 8:
        return np.sum(np.stack(cols, axis=-1), axis=-1)
    total = cols[0]
    for c in cols[1:]:
        total = total + c
    return total


def _exp_inplace(a):
    """``np.exp(a, out=a)``, bit for bit, skipping the lanes below ``_EXP_ZERO_BELOW``.

    Those lanes keep their value through the masked exp and become +0.0
    in ``np.maximum``, which every exp result passes unchanged; nan stays
    nan, -inf gives 0 and +inf gives inf.
    """
    np.exp(a, out=a, where=a >= _EXP_ZERO_BELOW)
    return np.maximum(a, 0.0, out=a)


def _logsumexp(a):
    """``log(sum_k exp(a[k]))`` over the leading (component) axis.

    The value of ``scipy.special.logsumexp`` over the components, bit for
    bit.  With two or three components (``_logsumexp_closed``) that is
    ``log1p(s) + top``, with ``s`` the sum of the shifted exponentials of
    the terms below the maximum ``top``.  Any other input goes to scipy
    itself.  numpy adds fewer than 8 terms left to right along any axis,
    but 8 or more in its pairwise order, the order of scipy's sum over one
    sample's terms, only along a contiguous axis; so from 8 components on
    they are first copied to a contiguous last axis.  Fewer stay where they
    are, since a reduction over a short contiguous axis is slow.
    """
    if len(a) in (2, 3) and a[0].size:
        out = _logsumexp_closed(a)
        if out is not None:
            return out
    axis = 0
    if len(a) >= 8:
        a, axis = np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1
    # scipy's own shift overflows near 1e308, and warns without this
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return logsumexp(a, axis=axis)


def _logsumexp_closed(a):
    """``_logsumexp`` of two or three components, or None where it does not apply.

    A min/max network orders the components: ``top`` is the maximum and
    ``rest`` the one or two terms below it.  Where every column has exactly
    one finite maximum, scipy's tie count is 1, so its ``/ count`` and ``+
    log(count)`` leave the value as it is, and its sum over the components,
    with the maximum's term zeroed, is the sum of the other one or two
    terms, in either order.  Where some column has a tied or non-finite
    maximum, this returns None and the caller takes scipy's.
    """
    rest = [np.minimum(a[0], a[1])]
    top = np.maximum(a[0], a[1])
    if len(a) == 3:
        rest.append(np.minimum(top, a[2]))
        np.maximum(top, a[2], out=top)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; near 1e308
        for r in rest:
            r -= top
    # fails on a tie (difference 0), a nan, a maximum of -inf (difference nan) or of inf
    if not (all(r.max() < 0 for r in rest) and top.max() < np.inf):
        return None
    s = _exp_inplace(rest[0])
    for r in rest[1:]:
        s += _exp_inplace(r)
    np.log1p(s, out=s)
    s += top
    return s


def _log_terms(x, w, mu, sd, out=None, z=None, centred=False):
    """``log w_k + log phi((x - mu_k) / sd_k) - log sd_k`` for ``(m, ...)`` parameters.

    The samples run along the last axis of the C-contiguous result, which
    is built in place: the operations of ``-0.5 * z * z - log(sd) - log(2
    pi)/2 + log(w)`` in that order, without a temporary per step.  ``out``
    and ``z``, if given, are C-contiguous buffers of the result's shape
    for the result and for ``z``.  With ``centred``, ``z`` already holds
    ``x - mu``, which the M-step computed, and is divided by ``sd`` in
    place.
    """
    w, mu, sd = (np.asarray(p)[..., None] for p in (w, mu, sd))
    if not centred:
        z = np.subtract(x, mu, out=z, order="C")
    z /= sd
    out = np.multiply(z, -0.5, out=out)
    out *= z
    out -= np.log(sd)
    out -= _HALF_LOG_2PI
    out += np.log(w)
    return out


def _em_map(x, logp, lse, floor, work, dev):
    """One EM map of every start in the batch, from the density pass at the
    current parameters: ``logp``, the ``(m, R, n)`` log terms, and ``lse``,
    their normaliser.

    The E-step turns ``logp`` into the responsibilities in place; the
    M-step writes ``r * x`` and ``r * (x - mu)**2`` into ``work`` and ``x -
    mu`` at the new means into ``dev``, which the density pass at the new
    parameters then divides into its ``z``, writing its log terms over the
    spent responsibilities.  Each sum over the samples is a
    ``.sum(axis=-1)`` over a C-contiguous ``(m, R, n)`` array, so every
    ``(component, start)`` row is added in numpy's pairwise order, as the
    1-D sum of that row alone is.  Returns the new ``(w, mu, sd)``, their
    log terms and normaliser, and each start's log-likelihood at them.
    """
    r = _exp_inplace(np.subtract(logp, lse, out=logp))
    nk = np.maximum(r.sum(axis=-1), 1e-12)
    w = nk / x.size
    w = w / _sum_columns(w)
    mu = np.multiply(r, x, out=work).sum(axis=-1) / nk
    np.subtract(x, mu[..., None], out=dev)
    sq = np.multiply(dev, dev, out=work)
    sq *= r
    sd = np.maximum(np.sqrt(sq.sum(axis=-1) / nk), floor)
    logp = _log_terms(x, w, mu, sd, out=r, z=dev, centred=True)
    lse = _logsumexp(logp)
    return w, mu, sd, logp, lse, lse.sum(axis=1)


def _sq_norm(parts):
    """Each start's sum of squares over the rows of the ``(m, R)`` arrays
    ``parts``, added one row after another."""
    total = 0.0
    for part in parts:
        for row in part:
            total = total + row * row
    return total


def _extrapolate(p0, p1, p2, floor):
    """The SqS3 point of each start from three successive EM iterates.

    Each ``p`` is ``(w, mu, sd)`` with one start per column, taken as
    ``theta = (log w, mu, log sd)``.  With ``r = theta1 - theta0`` and ``v
    = theta2 - theta1 - r``, the step is ``alpha = -|r| / |v|``, held at
    ``alpha <= -1`` (-1 also where it is not finite, as where ``v = 0``),
    and the point is ``theta0 - 2 alpha r + alpha**2 v``, with its weights
    renormalised and its sds floored (Varadhan & Roland 2008).
    """
    t0, t1, t2 = ((np.log(w), mu, np.log(sd)) for w, mu, sd in (p0, p1, p2))
    r = [b - a for a, b in zip(t0, t1)]
    v = [(c - b) - d for b, c, d in zip(t1, t2, r)]
    alpha = -np.sqrt(_sq_norm(r) / _sq_norm(v))
    alpha = np.where(np.isfinite(alpha), np.minimum(alpha, -1.0), -1.0)
    lw, mu, lsd = ((a - (2.0 * alpha) * d) + (alpha * alpha) * e for a, d, e in zip(t0, r, v))
    w = np.exp(lw)
    return w / _sum_columns(w), mu, np.maximum(np.exp(lsd), floor)


def _em_batch(x, w, mu, sd, floor, max_iter):
    """SQUAREM-accelerated EM from R starts at once; ``w``, ``mu``, ``sd`` are ``(m, R)`` arrays.

    Start ``j`` is column ``j``.  Each cycle takes two EM maps (``_em_map``)
    from ``theta0`` to ``theta1`` and ``theta2``, the SqS3 extrapolation
    ``theta'`` from them (``_extrapolate``), and one stabilising EM map
    from ``theta'``, or from ``theta2`` for a start whose log-likelihood at
    ``theta'`` is below that at ``theta2`` (or nan), so every start's
    log-likelihood never decreases.  A cycle evaluates three EM maps and
    four densities; ``max_iter`` counts EM maps, so where fewer than three
    are left, the remaining ones are plain EM maps.  The trace holds the
    log-likelihood after each map, and ``n_iter`` is the number of maps.

    A start leaves the batch only at the end of the cycle (or plain map)
    where it converges, that is its log-likelihood rose by at most
    ``_TOL`` relative over the last map, or where it reaches ``max_iter``.
    Every step of it is the same arithmetic as a run of its own: each sum
    over the samples runs along one contiguous row (``_em_map``), and each
    norm and sum over the parameters adds them one after another.  The sd
    floor is kept in force throughout.

    The batch lives in four ``(m, R, n)`` buffers: the log terms at the
    current parameters, the log terms at ``theta'``, and ``_em_map``'s two
    work buffers.  A start whose extrapolation is refused has its rows of
    ``theta2``'s log terms copied over those of ``theta'``.  The buffers
    are copied, narrower, only at the end of a cycle where a start leaves.
    The normaliser is ``_logsumexp``, in closed form for m = 2 and 3 unless
    a sample ties two components exactly at their maximum, and scipy's
    ``logsumexp`` otherwise.  The closed form's shifted terms and the
    responsibilities go through ``_exp_inplace``, which zeroes the lanes
    that round to zero without computing exp there.

    The batch runs under a ufunc buffer of ``_EM_BUFSIZE`` elements, and
    the caller's is restored on return or on an exception.  At numpy's
    default buffer, the broadcasts of one value per ``(component, start)``
    row along the samples are buffered across rows and cost about three
    times as much.  Elementwise results do not depend on the buffer, and a
    sum along a contiguous row is never buffered.  The buffer is not set
    process-wide because a small one slows operations that do need it.

    Returns one ``(w, mu, sd, loglik, converged, n_iter, trace)`` per
    start, in order.
    """
    bufsize = np.setbufsize(_EM_BUFSIZE)
    try:
        return _em_cycles(x, w, mu, sd, floor, max_iter)
    finally:
        np.setbufsize(bufsize)


def _em_cycles(x, w, mu, sd, floor, max_iter):
    """``_em_batch``'s cycles, run under its ufunc buffer."""
    logp = _log_terms(x, w, mu, sd)
    work, dev, spare = (np.empty_like(logp) for _ in range(3))
    lse = _logsumexp(logp)
    ll = lse.sum(axis=1)
    trace = np.empty((ll.size, max_iter + 1))
    trace[:, 0] = ll
    rows = np.arange(ll.size)
    runs = [None] * ll.size
    k = 0
    while k < max_iter:
        if max_iter - k >= 3:
            p0 = w, mu, sd
            *p1, logp, lse, ll = _em_map(x, logp, lse, floor, work, dev)
            trace[rows, k + 1] = ll
            w, mu, sd, logp, lse, ll = _em_map(x, logp, lse, floor, work, dev)
            trace[rows, k + 2] = ll
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                ext = _extrapolate(p0, p1, (w, mu, sd), floor)
                ext_logp = _log_terms(x, *ext, out=spare, z=work)
                ext_lse = _logsumexp(ext_logp)
            take = ext_lse.sum(axis=1) >= ll
            if take.any():
                back = ~take
                if back.any():
                    ext_logp[:, back], ext_lse[back] = logp[:, back], lse[back]
                    for e, p in zip(ext, (w, mu, sd)):
                        e[:, back] = p[:, back]
                spare, logp, lse, (w, mu, sd) = logp, ext_logp, ext_lse, ext
            k += 3
        else:
            k += 1
        ll = trace[rows, k - 1]
        w, mu, sd, logp, lse, ll_new = _em_map(x, logp, lse, floor, work, dev)
        trace[rows, k] = ll_new
        converged = np.abs(ll_new - ll) <= _TOL * (1.0 + np.abs(ll_new))
        done = converged | (k == max_iter)
        if not done.any():
            continue
        for j in np.flatnonzero(done):
            runs[rows[j]] = (w[:, j], mu[:, j], sd[:, j], ll_new[j], bool(converged[j]), k,
                             trace[rows[j], :k + 1].copy())
        if done.all():
            return runs
        keep = ~done
        rows, w, mu, sd = rows[keep], w[:, keep], mu[:, keep], sd[:, keep]
        # compress, not logp[:, keep], which is not C-contiguous: the next
        # E-step's r is logp, and its rows must stay contiguous
        logp, lse = logp.compress(keep, axis=1), lse[keep]
        work, dev, spare = (np.empty_like(logp) for _ in range(3))
    # max_iter < 1: every start is returned as it began
    return [(w[:, j], mu[:, j], sd[:, j], ll[j], False, 0, trace[j, :1].copy())
            for j in range(ll.size)]


def fit_mixture(samples, m: int, init: InitSpec = InitSpec(), max_iter: int = 300) -> MixtureModel:
    """Fit an m-component 1-D Gaussian mixture by SQUAREM-accelerated EM.

    Initialization places component means at the (2k-1)/(2m) sample
    quantiles with equal weights and sds = pooled sd / m, then adds
    ``init.n_restarts - 1`` restarts with jittered means; the best final
    log-likelihood wins (the first start among equals).  Each start runs
    SQUAREM cycles (two EM maps, an SqS3 extrapolation kept only where it
    does not lower the log-likelihood, and one stabilising EM map; see
    ``_em_batch``) until the log-likelihood rises by at most 1e-8
    relative over a cycle's last map, or ``max_iter`` EM maps are spent;
    ``n_iter`` counts the EM maps, and ``loglik_trace`` holds the
    log-likelihood after each.  All starts run as one batch, with the same
    results as running them one by one: each start's sums over the samples
    are numpy's pairwise sums of one contiguous row, as over that start
    alone.  Deterministic given ``init.seed``.
    Component sds are floored at 1e-3 times the sample sd, so the floor is
    part of the maximization and the log-likelihood trace stays
    nondecreasing.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise DataError("empty sample")
    if not np.isfinite(x).all():
        raise DataError("samples must be finite")
    if m < 1:
        raise DataError("m must be >= 1")
    if np.unique(x).size < m:
        raise DataError(f"need at least {m} distinct sample values for m={m}")

    sd_all = float(x.std())
    floor = max(_VAR_FLOOR_SCALE * sd_all, 1e-300)

    if m == 1:
        mu = float(x.mean())
        sd = max(sd_all, floor)
        if sd_all == 0.0:
            raise DataError("degenerate sample: all values identical")
        ll = float(_logsumexp(_log_terms(x, [1.0], [mu], [sd])).sum())
        return MixtureModel(1, np.array([1.0]), np.array([mu]), np.array([sd]),
                            ll, True, 0, np.array([ll]))

    if sd_all == 0.0:
        raise DataError("degenerate sample: all values identical")

    q = (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)
    mu0 = np.quantile(x, q)
    n_starts = max(1, init.n_restarts)
    rng = np.random.default_rng(init.seed)
    starts = [mu0] + [np.sort(mu0 + init.jitter * sd_all * rng.standard_normal(m))
                      for _ in range(n_starts - 1)]
    best = None
    for out in _em_batch(x, np.full((m, n_starts), 1.0 / m), np.stack(starts, axis=1),
                         np.full((m, n_starts), max(sd_all / m, floor)), floor, max_iter):
        if best is None or out[3] > best[3]:
            best = out
    w, mu, sd, ll, converged, it, trace = best

    order = np.argsort(mu, kind="stable")
    return MixtureModel(m, w[order] / w[order].sum(), mu[order], sd[order],
                        float(ll), bool(converged), int(it), trace)


def select_model(samples, candidate_ms: Sequence[int] = (1, 2, 3),
                 init: InitSpec = InitSpec()) -> MixtureModel:
    """Fit each candidate size and keep the best BIC.

    BIC here is loglik - (3m - 1)/2 * ln(n), to be maximized; ties go to
    the smaller model.  A size above the number of distinct sample values
    cannot be fitted and is skipped; when that leaves no size, DataError.
    The chosen model's ``candidates`` hold every size fitted, with its
    log-likelihood, BIC, convergence and EM map count.
    """
    ms = sorted(set(int(m) for m in candidate_ms))
    if not ms:
        raise DataError("no candidate component counts")
    x = np.asarray(samples, dtype=np.float64).ravel()
    n = x.size
    distinct = np.unique(x).size
    feasible = [m for m in ms if m <= distinct]
    if not feasible:
        raise DataError(f"need at least {ms[0]} distinct sample values for m={ms[0]}, "
                        f"the smallest candidate; the sample has {distinct}")
    best_model, best_bic, fitted = None, -np.inf, []
    for m in feasible:
        model = fit_mixture(x, m, init=init)
        bic = model.loglik - (3 * m - 1) / 2.0 * np.log(n)
        fitted.append(Candidate(m, model.loglik, float(bic), model.converged, model.n_iter))
        if bic > best_bic:
            best_model, best_bic = model, bic
    return replace(best_model, candidates=tuple(fitted))


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def _pdf(t, mu, sd):
    """The N(mu, sd^2) density at ``t``.

    ``scipy.stats.norm.pdf(t, loc=mu, scale=sd)``'s own formula, bit for
    bit, without its argument checks and dispatch, which cost about ten
    times the formula and were most of the root search's time.  Its cdf
    and sf are ``ndtr(z)`` and ``ndtr(-z)`` with the same ``z = (t - mu) /
    sd``.  ``z`` is an array even for a scalar ``t``, as in scipy: numpy's
    scalar ``exp`` can differ from its array loop in the last bit.
    """
    z = np.asarray((t - mu) / sd)
    return np.exp(-z**2 / 2.0) / _SQRT_2PI / sd


def _density_gap(model: MixtureModel, t, cut: int = 0):
    """Pooled background density minus pooled contact density at ``t``,
    components ``0..cut`` being background."""
    w, mu, sd = model.weights, model.means, model.sds
    bg = w[0] * _pdf(t, mu[0], sd[0])
    for i in range(1, cut + 1):
        bg = bg + w[i] * _pdf(t, mu[i], sd[i])
    sig = sum(w[i] * _pdf(t, mu[i], sd[i]) for i in range(cut + 1, model.m))
    return bg - sig


def pmc_oracle(model: MixtureModel, cut: int = 0) -> float:
    """Grid minimizer of the two-class misclassification probability.

    PMC_k(T) = sum_{i<=k} alpha_i P(Z_i > T) + sum_{i>k} alpha_i P(Z_i <=
    T) for the cut ``k = cut``.  The grid spans (mu_1, max mu_i) with step
    (max mu_i - mu_1)/1e5.
    """
    if model.m < 2:
        raise DataError("threshold needs at least 2 components")
    grid = np.linspace(model.means[0], model.means.max(), _PMC_GRID)
    return float(grid[int(np.argmin(_pmc(model, grid, cut)))])


def _pmc(model: MixtureModel, t, cut: int = 0):
    """PMC of the cut ``cut`` at ``t`` (a scalar or an array of thresholds)."""
    w, mu, sd = model.weights, model.means, model.sds
    pmc = w[0] * ndtr(-((t - mu[0]) / sd[0]))
    for i in range(1, model.m):
        z = (t - mu[i]) / sd[i]
        pmc = pmc + w[i] * ndtr(-z if i <= cut else z)
    return pmc


class _IterationCap(NumericError):
    """``_brentq`` used up its ``_BRENT_MAXITER`` iterations."""


def _brentq(f, xpre, xcur, fpre, fcur, xtol, rtol):
    """Root of ``f`` between ``xpre`` and ``xcur`` by Brent's method.

    A line-for-line port of scipy's ``Zeros/brentq.c`` (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 4), so every
    iterate is bit for bit the one ``scipy.optimize.brentq(f, xpre, xcur,
    xtol=xtol, rtol=rtol)`` takes.  ``fpre`` and ``fcur`` are ``f`` at the
    two ends, nonzero and of opposite signs.  Where C divides by zero and
    gets inf or nan, the step test fails and C bisects; Python raises
    ``ZeroDivisionError`` there, and the port bisects too.  A nan value of
    ``f``, on which scipy raises, raises NumericError, and
    ``_BRENT_MAXITER`` iterations without convergence its subclass
    ``_IterationCap``.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C's inf or nan, which fails the test below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NumericError(f"threshold root search: the density gap at {xcur!r} is nan")
    raise _IterationCap(f"threshold root search did not converge after {_BRENT_MAXITER} "
                        f"iterations, value is {xcur!r}")


def optimal_threshold(model: MixtureModel) -> SegmentationResult:
    """Background/contact threshold for a fitted mixture (m >= 2).

    Each adjacent cut ``k`` gets its threshold (``_cut_threshold``), and the
    one whose threshold misclassifies least, by that cut's two-class PMC,
    wins; the lowest ``k`` among equals.  With two components there is one
    cut, ``k = 0``.
    """
    if model.m < 2:
        raise DataError("threshold needs at least 2 components")
    best = best_pmc = None
    for cut in range(model.m - 1):
        res = _cut_threshold(model, cut)
        pmc = _pmc(model, res.t, cut)
        if best is None or pmc < best_pmc:
            best, best_pmc = res, pmc
    return best


def _cut_threshold(model: MixtureModel, cut: int) -> SegmentationResult:
    """The threshold of one cut: components ``0..cut`` against the rest.

    Solves the equal-density equation by Brent's method on (mu_k,
    mu_{k+1}); when no sign change exists there, the search runs out of
    iterations, or the root is not a local PMC minimum, falls back to the
    PMC grid minimizer.  The root search is ``_brentq``, a port of scipy's
    C ``brentq`` that takes the same iterates bit for bit: importing
    ``scipy.optimize`` for that one call cost 21.6 MB of resident memory
    and about 0.3 s of start-up.
    """
    lo, hi = float(model.means[cut]), float(model.means[cut + 1])
    gap = lambda s: _density_gap(model, s, cut)
    glo, ghi = gap(lo), gap(hi)
    if np.isfinite(glo) and np.isfinite(ghi) and glo > 0 > ghi:
        try:
            t = _brentq(gap, lo, hi, float(glo), float(ghi), xtol=1e-14, rtol=8.9e-16)
        except _IterationCap:
            pass  # no root within the cap: the grid gives the cut
        else:
            # accept the root only if it is a local PMC minimum
            eps = 1e-6 * max(1.0, hi - lo)
            if _pmc(model, t, cut) <= min(_pmc(model, t - eps, cut), _pmc(model, t + eps, cut)) + 1e-15:
                return SegmentationResult(t, model, "root", cut)
    return SegmentationResult(pmc_oracle(model, cut), model, "grid-fallback", cut)


# ---------------------------------------------------------------------------
# applying the threshold
# ---------------------------------------------------------------------------


def segment_frame(frame: Frame, t: float) -> Frame:
    """Zero everything at or below ``t``; support mask = values > t."""
    keep = frame.values > t
    out = np.where(keep, frame.values, 0.0)
    return Frame(out, support_mask=keep)

