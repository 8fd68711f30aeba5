"""Slow, independent reference implementations used to check the library.

Everything here favors clarity over speed: plain loops, dense matrices,
and mpmath for the distribution functions.  Tests compare library output
against these, so none of them may import computational code from the
package under test.  The one exception is the last section: helpers that
only tests call (a PRDS probe, dense residual traces, a frame correlation
and a misaligned phantom pair), kept here rather than in the package.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
from scipy.special import erfc, logsumexp

from lasr import DataError, Frame, GroundTruth, NumericError, blob_field, gen_frame
from lasr import registration as reg

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def normal_pdf(x, mu, sd):
    z = (x - mu) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def normal_cdf(x, mu, sd):
    return 0.5 * math.erfc(-(x - mu) / (sd * math.sqrt(2.0)))


def pmc_value(t, weights, means, sds, cut=0):
    """Misclassified mass when everything above t is called contact, with
    components 0..cut (sorted by mean) as background."""
    total = 0.0
    for k, (w, m, s) in enumerate(zip(weights, means, sds)):
        total += w * (1.0 - normal_cdf(t, m, s) if k <= cut else normal_cdf(t, m, s))
    return total


def pmc_minimum(weights, means, sds, n_grid=200_001, cut=0):
    """Grid minimizer of the misclassification mass on (mu_1, mu_max).

    Vectorized so a 2e5-point grid stays cheap; the objective itself is
    the same one pmc_value computes pointwise.
    """
    lo, hi = float(means[0]), float(max(means))
    ts = np.linspace(lo, hi, n_grid)[1:-1]
    vals = np.zeros_like(ts)
    for k, (w, m, s) in enumerate(zip(weights, means, sds)):
        z = (ts - m) / (s * math.sqrt(2.0))
        vals += w * 0.5 * erfc(z if k <= cut else -z)
    k = int(np.argmin(vals))
    return float(ts[k]), float(vals[k])


def mixture_loglik(x, weights, means, sds):
    out = mpmath.mpf(0)
    for xi in x:
        dens = mpmath.mpf(0)
        for w, m, s in zip(weights, means, sds):
            z = (mpmath.mpf(float(xi)) - m) / s
            dens += w * mpmath.exp(-z * z / 2) / (s * mpmath.sqrt(2 * mpmath.pi))
        out += mpmath.log(dens)
    return float(out)


def _column_sums(a):
    """Sum of each column of an ``(n, m)`` array, one contiguous 1-D sum per
    column: numpy's pairwise order over the samples.  (``a.sum(axis=0)``
    would add the rows one after another.)"""
    return np.array([np.ascontiguousarray(a[:, k]).sum() for k in range(a.shape[1])])


def _em_point(x, w, mu, sd):
    """``(params, logp, lse)`` at ``(w, mu, sd)``: the ``(n, m)`` log terms
    ``log w + log phi(z) - log sd`` and their logsumexp per sample, whose
    sum is the log-likelihood there and which the E-step from there uses."""
    z = (x[:, None] - mu[None, :]) / sd[None, :]
    logp = -0.5 * z * z - np.log(sd)[None, :] - 0.5 * np.log(2.0 * np.pi) + np.log(w)[None, :]
    return (w, mu, sd), logp, logsumexp(logp, axis=1)


def _loglik(point):
    return point[2].sum()


def _em_map(x, point, floor):
    """One EM map from an ``_em_point``: the E-step there, then the M-step;
    returns the ``_em_point`` at the new parameters."""
    _, logp, lse = point
    r = np.exp(logp - lse[:, None])
    nk = np.maximum(_column_sums(r), 1e-12)
    w = nk / x.size
    w = w / w.sum()
    mu = _column_sums(r * x[:, None]) / nk
    var = _column_sums(r * (x[:, None] - mu[None, :]) ** 2) / nk
    return _em_point(x, w, mu, np.maximum(np.sqrt(var), floor))


def _squarem_point(p0, p1, p2, floor):
    """SqS3 (Varadhan & Roland 2008) from three successive EM iterates of
    ``theta = (log w, mu, log sd)``: ``r = theta1 - theta0``, ``v = theta2
    - theta1 - r``, ``alpha = -|r|/|v|`` held at ``alpha <= -1`` (-1 where
    it is not finite), and ``theta0 - 2 alpha r + alpha^2 v`` with its
    weights renormalised and its sds floored.  The squared norms add the
    coordinates one after another, log weights first, then means, then log
    sds."""
    t0, t1, t2 = [[np.log(w), mu, np.log(sd)] for w, mu, sd in (p0, p1, p2)]
    r = [b - a for a, b in zip(t0, t1)]
    v = [(c - b) - d for b, c, d in zip(t1, t2, r)]
    rr = vv = 0.0
    for dr, dv in zip(np.concatenate(r), np.concatenate(v)):
        rr, vv = rr + dr * dr, vv + dv * dv
    alpha = -np.sqrt(rr / vv)
    alpha = min(alpha, -1.0) if np.isfinite(alpha) else -1.0
    lw, mu, lsd = [(a - (2.0 * alpha) * d) + (alpha * alpha) * e for a, d, e in zip(t0, r, v)]
    w = np.exp(lw)
    return w / w.sum(), mu, np.maximum(np.exp(lsd), floor)


def _em_single_start(x, w, mu, sd, floor, tol, max_iter):
    """SQUAREM cycles from one start: two EM maps, the SqS3 point, and one
    EM map from it, or from the second map's point where the SqS3 point's
    log-likelihood is lower or nan; plain EM maps where fewer than three
    of ``max_iter`` are left.  The stop is tested after each cycle (or
    plain map) on the log-likelihood gain over its last map.  Each point's
    density is evaluated once, for its log-likelihood and the E-step from it."""
    point = _em_point(x, w, mu, sd)
    trace = [_loglik(point)]
    converged = False
    it = 0
    while it < max_iter and not converged:
        if max_iter - it >= 3:
            p1 = _em_map(x, point, floor)
            p2 = _em_map(x, p1, floor)
            trace += [_loglik(p1), _loglik(p2)]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                ext = _em_point(x, *_squarem_point(point[0], p1[0], p2[0], floor))
                keep = _loglik(ext) >= trace[-1]
            point = _em_map(x, ext if keep else p2, floor)
            it += 3
        else:
            point = _em_map(x, point, floor)
            it += 1
        trace.append(_loglik(point))
        converged = abs(trace[-1] - trace[-2]) <= tol * (1.0 + abs(trace[-1]))
    return (*point[0], trace[-1], converged, it, np.array(trace))


def em_starts(x, m, n_restarts=5, jitter=0.25, seed=0, tol=1e-8, max_iter=300):
    """Every start of an m >= 2 component 1-D mixture fit, run on its own.

    The quantile start plus ``n_restarts - 1`` jittered ones, each run to its
    own stop by SQUAREM cycles (``_em_single_start``), with each density
    evaluated once, for its log-likelihood and the EM map from it, through
    ``scipy.special.logsumexp``.  Every sum over the samples is numpy's
    pairwise sum of one contiguous 1-D array.  One ``(w, mu, sd, loglik,
    converged, n_iter, trace)`` per start, in order.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    sd_all = float(x.std())
    floor = max(1e-3 * sd_all, 1e-300)
    mu0 = np.quantile(x, (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m))
    rng = np.random.default_rng(seed)
    runs = []
    for rep in range(max(1, n_restarts)):
        start = mu0 if rep == 0 else np.sort(mu0 + jitter * sd_all * rng.standard_normal(m))
        runs.append(_em_single_start(x, np.full(m, 1.0 / m), start, np.full(m, max(sd_all / m, floor)),
                                     floor, tol, max_iter))
    return runs


def em_best(runs):
    """The winning fit among ``em_starts`` runs: the first start with the
    strictly largest final log-likelihood.  Returns ``(weights, means, sds,
    loglik, converged, n_iter, trace)`` with the components sorted by mean.
    """
    best = None
    for out in runs:
        if best is None or out[3] > best[3]:
            best = out
    w, mu, sd, ll, converged, it, trace = best
    order = np.argsort(mu, kind="stable")
    return w[order] / w[order].sum(), mu[order], sd[order], float(ll), converged, it, trace


def em_reference(x, m, n_restarts=5, jitter=0.25, seed=0, tol=1e-8, max_iter=300):
    """``em_best`` of ``em_starts``: the fit the library must return, one start after another."""
    return em_best(em_starts(x, m, n_restarts, jitter, seed, tol, max_iter))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def rigid_apply_point(theta, u, v, point):
    r, c = point
    cr = math.cos(theta) * r - math.sin(theta) * c + u
    cc = math.sin(theta) * r + math.cos(theta) * c + v
    return cr, cc


def registration_error_loop(pairs, theta, u, v):
    total = 0.0
    for (a, b) in pairs:
        ta = rigid_apply_point(theta, u, v, a)
        total += (ta[0] - b[0]) ** 2 + (ta[1] - b[1]) ** 2
    return total / len(pairs)


def midpoints_loop(mask):
    """Column midpoints by direct per-column scanning."""
    rows, cols = mask.shape
    half = rows / 2.0
    out = []
    for c in range(cols):
        rr = [r for r in range(rows) if mask[r, c]]
        if not rr:
            continue
        rowcount = len(rr)
        r_min = min(rr)
        c1 = sum(1 for r in rr if r < half)
        c2 = rowcount - c1
        out.append((float(c), r_min + rowcount / 2.0 + (c1 - c2) / 2.0))
    return np.array(out)


def ols_line(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.column_stack([x, np.ones_like(x)])
    slope, intercept = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope), float(intercept)


def pearson_union(va, ma, vb, mb):
    """Correlation over the union support with off-support values as zero."""
    union = ma | mb
    if union.sum() < 2:
        return float("nan")
    x = np.where(ma, va, 0.0)[union]
    y = np.where(mb, vb, 0.0)[union]
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return float("nan")
    xm, ym = x - x.mean(), y - y.mean()
    denom = math.sqrt((xm * xm).sum() * (ym * ym).sum())
    if denom == 0.0:
        return float("nan")
    return float((xm * ym).sum() / denom)


def register_reference(frames, srlp_register, apply_rigid):
    """Self-registration of one segment: ``srlp_register``'s transform of the
    mean frame over the union of the frame masks, then ``apply_rigid`` of
    that transform to each frame on the union.  The package functions are
    passed in; returns the registered frames and the one transform."""
    region = np.any([f.support_mask for f in frames], axis=0)
    mean = Frame(np.mean([f.values for f in frames], axis=0), support_mask=region)
    t = srlp_register(mean)[1]
    return [apply_rigid(Frame(f.values, support_mask=region, signed=f.signed), t) for f in frames], t


def quarter_turns_reference(values, mask):
    """SRLP's quarter turns of one frame: 1 if the support is taller than
    wide, plus 2 if the intensity centroid (the mean column where the values
    sum to zero or less) lies right of the middle supported column."""
    rr, cc = np.nonzero(mask)
    k = 1 if (rr.max() - rr.min()) > (cc.max() - cc.min()) else 0
    vals, m = np.rot90(values, k), np.rot90(mask, k)
    _, c = np.nonzero(m)
    w = vals[m]
    total = w.sum()
    centroid = (w * c).sum() / total if total > 0 else c.mean()
    return k + 2 if centroid > 0.5 * (c.min() + c.max()) else k


def resample_dense(stack, mask, t, interp="bilinear"):
    """A (frames, rows, cols) stack resampled under the rigid transform ``t``
    by the dense formula: at every output pixel, the inverse-mapped source
    point's four bilinear terms (or its nearest sample) over whole frames,
    summed left to right, then zeroed off the new mask (source point inside
    the grid, to 1e-9, and its nearest source pixel on ``mask``)."""
    n, rows, cols = stack.shape
    flat = stack.reshape(n, -1)
    inv = t.inverse()
    c, s = math.cos(inv.theta), math.sin(inv.theta)
    rr, cc = np.meshgrid(np.arange(rows, dtype=np.float64),
                         np.arange(cols, dtype=np.float64), indexing="ij")
    sr = c * rr - s * cc + inv.u
    sc = s * rr + c * cc + inv.v
    eps = 1e-9
    in_dom = (sr >= -eps) & (sr <= rows - 1 + eps) & (sc >= -eps) & (sc <= cols - 1 + eps)
    sr, sc = np.clip(sr, 0, rows - 1), np.clip(sc, 0, cols - 1)
    rn = np.clip(np.rint(sr).astype(np.intp), 0, rows - 1)
    cn = np.clip(np.rint(sc).astype(np.intp), 0, cols - 1)
    if interp == "bilinear":
        r0 = np.clip(np.floor(sr).astype(np.intp), 0, max(rows - 2, 0))
        c0 = np.clip(np.floor(sc).astype(np.intp), 0, max(cols - 2, 0))
        r1, c1 = np.minimum(r0 + 1, rows - 1), np.minimum(c0 + 1, cols - 1)
        fr, fc = sr - r0, sc - c0
        out = ((1 - fr) * (1 - fc) * flat[:, r0 * cols + c0]
               + (1 - fr) * fc * flat[:, r0 * cols + c1]
               + fr * (1 - fc) * flat[:, r1 * cols + c0]
               + fr * fc * flat[:, r1 * cols + c1])
    else:
        out = flat[:, rn * cols + cn]
    out_mask = in_dom & mask[rn, cn] if mask is not None else in_dom
    return np.where(out_mask, out, 0.0), out_mask


def lag_profile_loop(frames_a, masks_a, frames_b, masks_b, m0, max_lag):
    """CorAvg_j for j in [-max_lag, max_lag] by direct looping."""
    fa, ma = frames_a[m0:], masks_a[m0:]
    fb, mb = frames_b[m0:], masks_b[m0:]
    na, nb = len(fa), len(fb)
    cap = min(max_lag, na - 1, nb - 1)
    prof = {}
    for j in range(-cap, cap + 1):
        cors = []
        for i in range(max(0, -j), min(na, nb - j)):
            cors.append(pearson_union(fa[i], ma[i], fb[i + j], mb[i + j]))
        vals = [c for c in cors if not math.isnan(c)]
        prof[j] = float(np.mean(vals)) if vals else float("nan")
    return prof


def best_lag_loop(profile):
    """First maximizer scanning |j| ascending, positive before negative."""
    best = None
    for j in sorted(profile, key=lambda q: (abs(q), q < 0)):
        v = profile[j]
        if math.isnan(v):
            continue
        if best is None or v > profile[best]:
            best = j
    return best


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


def kernel_weight(name, d):
    if name == "tgauss":
        return math.exp(-4.5 * d * d) if d <= 1.0 else 0.0
    if name == "tricube":
        return (1.0 - d ** 3) ** 3 if d <= 1.0 else 0.0
    raise ValueError(name)


def dense_smooth(values, mask, h, kernel="tgauss"):
    """Loop-built hat matrix for the bivariate local quadratic fit.

    Returns (pixels, L, m_hat, stats) where pixels lists (row, col) in
    row-major order, L is the dense hat matrix over those pixels, and
    stats carries rss/sigma2/delta1/delta2/df and the per-pixel t values.
    """
    pix = [(r, c) for r in range(mask.shape[0]) for c in range(mask.shape[1]) if mask[r, c]]
    n = len(pix)
    index = {p: i for i, p in enumerate(pix)}
    y = np.array([values[p] for p in pix])
    cutoff = 3.0 if kernel == "tgauss" else 1.0
    L = np.zeros((n, n))
    for i, (r, c) in enumerate(pix):
        rows_x, w, cols_j = [], [], []
        for (r2, c2) in pix:
            d = math.hypot(r2 - r, c2 - c) / h
            if d > cutoff:
                continue
            wk = kernel_weight(kernel, d)
            if wk <= 0.0:
                continue
            dr, dc = r2 - r, c2 - c
            rows_x.append([1.0, dr, dc, dr * dr / 2.0, dc * dc / 2.0, dr * dc])
            w.append(wk)
            cols_j.append(index[(r2, c2)])
        X = np.array(rows_x)
        W = np.diag(w)
        A = X.T @ W @ X
        beta_row = np.linalg.solve(A, X.T @ W)  # (6, k); first row -> hat weights
        L[i, cols_j] = beta_row[0]
    m_hat = L @ y
    resid = y - m_hat
    rss = float(resid @ resid)
    delta1 = n - 2.0 * np.trace(L) + (L * L).sum()
    B = (np.eye(n) - L).T @ (np.eye(n) - L)
    delta2 = float((B * B).sum())
    sigma2 = rss / delta1
    norms = np.sqrt((L * L).sum(axis=1))
    tvals = m_hat / (math.sqrt(sigma2) * norms)
    df = delta1 * delta1 / delta2
    stats = dict(rss=rss, sigma2=sigma2, delta1=float(delta1), delta2=delta2,
                 df=float(df), t=tvals, hat_norm=norms)
    return pix, L, m_hat, stats


def nearest_padding_loop(values, mask, rim):
    """Chebyshev rim filled with the Euclidean-nearest supported value."""
    rows, cols = mask.shape
    src = [(r, c) for r in range(rows) for c in range(cols) if mask[r, c]]
    out_vals = values.copy()
    out_mask = mask.copy()
    for r in range(rows):
        for c in range(cols):
            if mask[r, c]:
                continue
            cheb = min(max(abs(r - sr), abs(c - sc)) for sr, sc in src)
            if cheb > rim:
                continue
            best = min(src, key=lambda s: ((s[0] - r) ** 2 + (s[1] - c) ** 2, s[0], s[1]))
            out_vals[r, c] = values[best]
            out_mask[r, c] = True
    return out_vals, out_mask


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def t_sf_mp(t, df):
    """Upper tail of Student's t via the regularized incomplete beta."""
    t = mpmath.mpf(float(t))
    df = mpmath.mpf(float(df))
    x = df / (df + t * t)
    half = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
    return float(half if t >= 0 else 1 - half)


def bh_oracle(pvals, q, mode="bh"):
    """Step-up rule by the book: largest k with p_(k) <= k q / (m c)."""
    p = np.asarray(pvals, dtype=float)
    m = p.size
    c = 1.0 if mode == "bh" else math.fsum(1.0 / i for i in range(1, m + 1))
    order = np.argsort(p, kind="stable")
    k = 0
    for i in range(1, m + 1):
        if p[order[i - 1]] <= i * q / (m * c):
            k = i
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:k]] = True
    critical = k * q / (m * c) if k else 0.0
    return rejected, float(critical)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def save_movie_reference(stack, fps, path):
    """Movie text writer, one ``%`` format per value; ``stack`` is (n, rows, cols)."""
    nframes, rows, cols = stack.shape
    out = ["%s %d %d %d %s" % ("LASR1", rows, cols, nframes, "%g" % fps)]
    for k in range(nframes):
        if k > 0:
            out.append("")
        for r in range(rows):
            out.append(" ".join("%.6g" % v for v in stack[k, r]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")


def save_map_csv_reference(values, path):
    with open(path, "w", encoding="ascii") as fh:
        for r in range(values.shape[0]):
            fh.write(",".join("%.10g" % x for x in values[r]) + "\n")


def save_map_image_reference(values, path):
    """Plain PGM writer for values in [0, 1], one ``str`` per pixel."""
    pix = np.floor(255.0 * values + 0.5).astype(np.int64)
    rows, cols = values.shape
    out = ["P2", f"{cols} {rows}", "255"]
    for r in range(rows):
        out.append(" ".join(str(p) for p in pix[r]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")


class ParseError(Exception):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_reference(text):
    """Line walker for the movie text format: ``(stack, fps)`` or ParseError."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty file", 1)
    tok = lines[0].split()
    if len(tok) != 5 or tok[0] != "LASR1":
        raise ParseError("expected 'LASR1 <rows> <cols> <nframes> <fps>'", 1)
    try:
        rows, cols, nframes = int(tok[1]), int(tok[2]), int(tok[3])
        fps = float(tok[4])
    except ValueError:
        raise ParseError("header fields must be numeric", 1) from None
    if rows <= 0 or cols <= 0 or nframes <= 0:
        raise ParseError("rows, cols and nframes must be positive", 1)
    if not (math.isfinite(fps) and fps > 0):
        raise ParseError("fps must be a positive finite number", 1)
    stack = np.empty((nframes, rows, cols))
    ln = 1
    for k in range(nframes):
        if k > 0:
            ln += 1
            if ln > len(lines) or lines[ln - 1].strip() != "":
                raise ParseError("expected blank line between frames", min(ln, len(lines) + 1))
        for r in range(rows):
            ln += 1
            if ln > len(lines):
                raise ParseError(f"unexpected end of file in frame {k}", len(lines) + 1)
            tok = lines[ln - 1].split()
            if len(tok) != cols:
                raise ParseError(f"expected {cols} values, got {len(tok)}", ln)
            try:
                row = [float(t) for t in tok]
            except ValueError:
                raise ParseError("non-numeric value", ln) from None
            if not all(math.isfinite(x) for x in row):
                raise ParseError("non-finite value", ln)
            if any(x < 0 for x in row):
                raise ParseError("negative value", ln)
            stack[k, r] = row
    if ln < len(lines):
        raise ParseError("trailing content after last frame", ln + 1)
    return stack, fps


# ---------------------------------------------------------------------------
# container equality
# ---------------------------------------------------------------------------


def frames_equal(a, b):
    """Exact equality of values and masks (both-missing masks are equal)."""
    if a.shape != b.shape or not np.array_equal(a.values, b.values):
        return False
    if (a.support_mask is None) != (b.support_mask is None):
        return False
    return a.support_mask is None or np.array_equal(a.support_mask, b.support_mask)


def movies_equal(a, b):
    return (len(a) == len(b) and a.fps == b.fps
            and all(frames_equal(x, y) for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# test-only helpers (these drive the package; they are not references)
# ---------------------------------------------------------------------------


def residual_traces(L):
    """delta1 = tr((I-L)'(I-L)) and delta2 = tr([(I-L)'(I-L)]^2) for a dense hat matrix."""
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DataError("hat matrix must be square")
    m = np.eye(L.shape[0]) - L
    lam = m.T @ m
    return float(np.trace(lam)), float((lam * lam).sum())


def prds_covariance_check(fit, pairs):
    """Minimum normalized hat-row inner product over sampled pixel pairs.

    The covariance of the smoothed field at two pixels is proportional to
    p(x_i) . p(x_j) / (||p(x_i)|| ||p(x_j)||); nonnegative values support
    the positive-dependence premise of the BH screen.  ``pairs`` is a
    sequence of ((r1, c1), (r2, c2)) masked pixel coordinates.
    """
    idx = np.full(fit.mask.shape, -1, dtype=np.int64)
    idx[fit.pixels[:, 0], fit.pixels[:, 1]] = np.arange(fit.pixels.shape[0])
    lo = np.inf
    L = fit.hat
    for (r1, c1), (r2, c2) in pairs:
        i, j = int(idx[r1, c1]), int(idx[r2, c2])
        if i < 0 or j < 0:
            raise DataError(f"pair (({r1},{c1}),({r2},{c2})) not inside the fitted mask")
        ri = L.getrow(i)
        rj = L.getrow(j)
        num = float(ri.multiply(rj).sum())
        den = float(np.sqrt((ri.multiply(ri)).sum() * (rj.multiply(rj)).sum()))
        val = num / den if den > 0 else 0.0
        lo = min(lo, val)
    if not np.isfinite(lo):
        raise DataError("no pairs supplied")
    return float(lo)


def frame_correlation(a, b):
    """Pearson correlation of two frames over the union of their supports
    (a frame without a mask counts as supported everywhere), through the
    band correlation the lag search uses, at lag 0.  Raises if the
    correlation is undefined (either side constant over the domain).
    """
    if a.shape != b.shape:
        raise DataError("frames must have equal shape")
    c = reg._band_correlation(a.values[None], a.support_mask, b.values[None], b.support_mask, 0)[0, 0]
    if not np.isfinite(c):
        raise NumericError("correlation undefined (zero variance over the domain)")
    return float(c)


def gen_misaligned_pair(spec, pose):
    """A canonical frame and a rigidly moved copy, independent noise each."""
    canonical, _ = gen_frame(replace(spec, pose=None), stream=0)
    moved, _ = gen_frame(replace(spec, pose=pose), stream=1)
    base, _, _ = blob_field(spec)
    return canonical, moved, GroundTruth(base > 0, pose, 0, None, 0.0)
