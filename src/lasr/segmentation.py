"""Intensity segmentation via 1-D Gaussian mixtures.

A frame's intensity histogram is modeled as a mixture whose first
(lowest-mean) component is background.  The background/signal cut ``T`` is
placed where the background density equals the pooled signal density,

    alpha_1 * phi((T - mu_1)/sigma_1) / sigma_1
        = sum_{i >= 2} alpha_i * phi((T - mu_i)/sigma_i) / sigma_i,

which minimizes the probability of misclassification for the fitted model.
Segmentation keeps values strictly above ``T`` and zeroes the rest.

Exact zeros are always background: they are excluded from the EM sample
and can never exceed a positive threshold.

EM runs the quantile start and its jittered restarts as one batch: one
``(m, restarts, n)`` array, with a start dropped from it in the iteration
where it converges or reaches ``max_iter``.  Each iteration evaluates the
mixture density once, since the E-step normaliser at the new parameters is
the log-likelihood at them.  Each start's sums over the samples run along
a contiguous row of the batch, in numpy's pairwise order, which is the
order of the same sum over that start alone; so each start's steps are the
same as a run of its own, bit for bit.

A start is also dropped once it cannot win: when even twice its current
per-iteration gain, kept up to ``max_iter``, would leave its log-likelihood
below that of a start that has already converged.  A cut start is below
that converged start, so the winner is always a start that converged or
reached ``max_iter``.  The factor 2 is a margin for a start whose gain
picks up again, not a guarantee: at a factor of 1 the winner changed on 2
of 100 m = 3 fits of the BIC test battery, at 2 on none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import DataError, NumericError
from .frames import Frame

__all__ = [
    "InitSpec",
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
_CUT_RATE = 2.0  # a start is cut when even this multiple of its gain cannot reach the lead
_TOL = 1e-8  # EM stops when the log-likelihood gain is at most this, relative
_PMC_GRID = 100001  # points of the PMC fallback grid
_SQRT_2PI = np.sqrt(2 * np.pi)  # scipy.stats.norm's pdf constant


@dataclass(frozen=True)
class InitSpec:
    """EM initialization policy: deterministic quantile start plus jittered restarts."""

    n_restarts: int = 5
    jitter: float = 0.25
    seed: int = 0


@dataclass(frozen=True)
class MixtureModel:
    """A fitted 1-D Gaussian mixture, components sorted by mean."""

    m: int
    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    loglik: float
    converged: bool
    n_iter: int
    loglik_trace: np.ndarray

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
    """Threshold ``t`` for a fitted model and how it was obtained."""

    t: float
    model: MixtureModel
    method: str  # "root" | "grid-fallback"

    def __post_init__(self):
        if self.method == "root":
            mu = self.model.means
            if not (mu[0] < self.t < mu.max()):
                raise NumericError("root threshold escaped (mu_1, max mu_i)")


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


def _logsumexp(a):
    """``log(sum_k exp(a[k]))`` over the leading (component) axis.

    The arithmetic of ``scipy.special.logsumexp(a, axis=0)``, bit for bit:
    the maxima are split off, the sum of the other terms is divided by the
    number of tied maxima, and the result is ``log1p(s) + log(count) + max``.
    The tied terms are zeroed instead of shifted from -inf, so a row whose
    maximum is infinite already gives the +-inf that scipy's non-finite
    fallback ``log(sum(exp(a)))`` puts there.  Every reduction runs column
    by column over the few components, which is far cheaper than a numpy
    reduction over a short axis.
    """
    top = a[0]
    for c in a[1:]:
        top = np.maximum(top, c)
    count = np.zeros_like(top)
    terms = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c in a:
            tied = c == top
            count += tied
            e = np.subtract(c, top)
            np.exp(e, out=e)
            e[tied] = 0.0
            terms.append(e)
        return np.log1p(_sum_columns(terms) / count) + np.log(count) + top


def _log_terms(x, w, mu, sd):
    """``log w_k + log phi((x - mu_k) / sd_k) - log sd_k`` for ``(m, ...)`` parameters.

    The samples run along the last axis of the C-contiguous result, which
    is built in place: the operations of ``-0.5 * z * z - log(sd) - log(2
    pi)/2 + log(w)`` in that order, without a temporary per step.
    """
    w, mu, sd = (np.asarray(p)[..., None] for p in (w, mu, sd))
    z = np.subtract(x, mu, order="C")
    z /= sd
    out = z * -0.5
    out *= z
    out -= np.log(sd)
    out -= _HALF_LOG_2PI
    out += np.log(w)
    return out


def _em_batch(x, w, mu, sd, floor, max_iter):
    """EM from R starts at once; ``w``, ``mu``, ``sd`` are ``(m, R)`` arrays.

    Start ``j`` is column ``j``.  It leaves the batch in the iteration where
    it converges or reaches ``max_iter``, and every step of it is the same
    arithmetic as a run of its own: each sum over the samples is a
    ``.sum(axis=-1)`` over C-contiguous ``(m, R, n)`` arrays, so every
    ``(component, start)`` row is added in numpy's pairwise order, as the
    1-D sum of that row alone is.  The sd floor is kept in force throughout.

    A start is also cut when it cannot win: ``lead`` is the best final
    log-likelihood of the starts converged so far, and after iteration ``k``
    an unconverged start leaves when ``ll_k + _CUT_RATE * (max_iter - k) *
    (ll_k - ll_{k-1}) < lead``, i.e. even climbing at twice its current rate
    to the cap it would end below a converged start.  A cut start is
    returned as it stood, unconverged and below ``lead``, so the best start
    is always one that converged or reached ``max_iter``.  Returns one
    ``(w, mu, sd, loglik, converged, n_iter, trace)`` per start, in order.
    """
    n = x.size
    logp = _log_terms(x, w, mu, sd)
    lse = _logsumexp(logp)
    ll = lse.sum(axis=1)
    trace = np.empty((ll.size, max_iter + 1))
    trace[:, 0] = ll
    rows = np.arange(ll.size)
    runs = [None] * ll.size
    lead = -np.inf
    for it in range(1, max_iter + 1):
        # E-step from the last density pass (in place: logp is rebuilt below),
        # then the M-step
        r = np.subtract(logp, lse, out=logp)
        np.exp(r, out=r)
        nk = np.maximum(r.sum(axis=-1), 1e-12)
        w = nk / n
        w = w / _sum_columns(w)
        mu = (r * x).sum(axis=-1) / nk
        dev = np.subtract(x, mu[..., None], order="C")
        dev *= dev
        dev *= r
        var = dev.sum(axis=-1) / nk
        sd = np.maximum(np.sqrt(var), floor)
        # one density pass: the log-likelihood now and the next E-step
        logp = _log_terms(x, w, mu, sd)
        lse = _logsumexp(logp)
        ll_new = lse.sum(axis=1)
        trace[rows, it] = ll_new
        converged = np.abs(ll_new - ll) <= _TOL * (1.0 + np.abs(ll_new))
        if converged.any():
            lead = max(lead, float(ll_new[converged].max()))
        done = converged | (it == max_iter)
        done |= ll_new + _CUT_RATE * (max_iter - it) * (ll_new - ll) < lead
        for j in np.flatnonzero(done):
            runs[rows[j]] = (w[:, j], mu[:, j], sd[:, j], ll_new[j], bool(converged[j]), it,
                             trace[rows[j], :it + 1].copy())
        if done.all():
            return runs
        keep = ~done
        rows, w, mu, sd = rows[keep], w[:, keep], mu[:, keep], sd[:, keep]
        # compress, not logp[:, keep], which is not C-contiguous: the next
        # E-step's r is logp, and its rows must stay contiguous
        ll, logp, lse = ll_new[keep], logp.compress(keep, axis=1), lse[keep]
    # max_iter < 1: every start is returned as it began
    return [(w[:, j], mu[:, j], sd[:, j], ll[j], False, 0, trace[j, :1].copy())
            for j in range(ll.size)]


def fit_mixture(samples, m: int, init: InitSpec = InitSpec(), max_iter: int = 300) -> MixtureModel:
    """Fit an m-component 1-D Gaussian mixture by EM.

    Initialization places component means at the (2k-1)/(2m) sample
    quantiles with equal weights and sds = pooled sd / m, then adds
    ``init.n_restarts - 1`` restarts with jittered means; the best final
    log-likelihood wins (the first start among equals).  All starts run as
    one batch, with the same results as running them one by one: each
    start's sums over the samples are numpy's pairwise sums of one
    contiguous row, as over that start alone.  A start that could not catch
    an already converged one even at twice its current rate of gain leaves
    early (see ``_em_batch``), so the winner has always converged or
    reached ``max_iter``.  Deterministic given ``init.seed``.
    Component sds are floored at 1e-3 times the sample sd, so the floor is
    part of the maximization and the per-iteration log-likelihood trace
    stays nondecreasing.
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
    best_model, best_bic = None, -np.inf
    for m in feasible:
        model = fit_mixture(x, m, init=init)
        bic = model.loglik - (3 * m - 1) / 2.0 * np.log(n)
        if bic > best_bic:
            best_model, best_bic = model, bic
    return best_model


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


def _density_gap(model: MixtureModel, t):
    """Background density minus pooled signal density at t."""
    w, mu, sd = model.weights, model.means, model.sds
    bg = w[0] * _pdf(t, mu[0], sd[0])
    sig = sum(w[i] * _pdf(t, mu[i], sd[i]) for i in range(1, model.m))
    return bg - sig


def pmc_oracle(model: MixtureModel) -> float:
    """Grid minimizer of the misclassification probability.

    PMC(T) = alpha_1 P(Z_1 > T) + sum_{i>=2} alpha_i P(Z_i <= T).  The
    grid spans (mu_1, max mu_i) with step (max mu_i - mu_1)/1e5.
    """
    if model.m < 2:
        raise DataError("threshold needs at least 2 components")
    grid = np.linspace(model.means[0], model.means.max(), _PMC_GRID)
    return float(grid[int(np.argmin(_pmc(model, grid)))])


def _pmc(model: MixtureModel, t):
    """PMC at ``t`` (a scalar or an array of thresholds)."""
    w, mu, sd = model.weights, model.means, model.sds
    pmc = w[0] * ndtr(-((t - mu[0]) / sd[0]))
    for i in range(1, model.m):
        pmc = pmc + w[i] * ndtr((t - mu[i]) / sd[i])
    return pmc


def optimal_threshold(model: MixtureModel) -> SegmentationResult:
    """Background/signal threshold for a fitted mixture (m >= 2).

    Solves the equal-density equation by root bracketing on
    (mu_1, mu_2); when no sign change exists there, or the root is not a
    local PMC minimum, falls back to the PMC grid minimizer.
    """
    if model.m < 2:
        raise DataError("threshold needs at least 2 components")
    mu = model.means
    lo, hi = float(mu[0]), float(mu[1])
    glo = _density_gap(model, lo)
    ghi = _density_gap(model, hi)
    if np.isfinite(glo) and np.isfinite(ghi) and glo > 0 > ghi:
        t = float(brentq(lambda s: _density_gap(model, s), lo, hi, xtol=1e-14, rtol=8.9e-16))
        # accept the root only if it is a local PMC minimum
        eps = 1e-6 * max(1.0, hi - lo)
        if _pmc(model, t) <= min(_pmc(model, t - eps), _pmc(model, t + eps)) + 1e-15:
            return SegmentationResult(t, model, "root")
    return SegmentationResult(pmc_oracle(model), model, "grid-fallback")


# ---------------------------------------------------------------------------
# applying the threshold
# ---------------------------------------------------------------------------


def segment_frame(frame: Frame, t: float) -> Frame:
    """Zero everything at or below ``t``; support mask = values > t."""
    keep = frame.values > t
    out = np.where(keep, frame.values, 0.0)
    return Frame(out, support_mask=keep)

