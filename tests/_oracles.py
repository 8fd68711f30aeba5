"""Slow, independent reference implementations used to check the library.

Everything here favors clarity over speed: plain loops, dense matrices,
and mpmath for the distribution functions.  Tests compare library output
against these, so none of them may import computational code from the
package under test.
"""

import math

import mpmath
import numpy as np
from scipy.special import erfc, logsumexp

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def normal_pdf(x, mu, sd):
    z = (x - mu) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def normal_cdf(x, mu, sd):
    return 0.5 * math.erfc(-(x - mu) / (sd * math.sqrt(2.0)))


def pmc_value(t, weights, means, sds):
    """Misclassified mass when everything above t is called signal."""
    total = weights[0] * (1.0 - normal_cdf(t, means[0], sds[0]))
    for w, m, s in zip(weights[1:], means[1:], sds[1:]):
        total += w * normal_cdf(t, m, s)
    return total


def pmc_minimum(weights, means, sds, n_grid=200_001):
    """Grid minimizer of the misclassification mass on (mu_1, mu_max).

    Vectorized so a 2e5-point grid stays cheap; the objective itself is
    the same one pmc_value computes pointwise.
    """
    lo, hi = float(means[0]), float(max(means))
    ts = np.linspace(lo, hi, n_grid)[1:-1]
    z0 = (ts - means[0]) / (sds[0] * math.sqrt(2.0))
    vals = weights[0] * 0.5 * erfc(z0)
    for w, m, s in zip(weights[1:], means[1:], sds[1:]):
        vals += w * 0.5 * erfc(-(ts - m) / (s * math.sqrt(2.0)))
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


def _em_log_density(x, w, mu, sd):
    z = (x[:, None] - mu[None, :]) / sd[None, :]
    comp = -0.5 * z * z - np.log(sd)[None, :] - 0.5 * np.log(2.0 * np.pi)
    return logsumexp(comp + np.log(w)[None, :], axis=1)


def _column_sums(a):
    """Sum of each column of an ``(n, m)`` array, one contiguous 1-D sum per
    column: numpy's pairwise order over the samples.  (``a.sum(axis=0)``
    would add the rows one after another.)"""
    return np.array([np.ascontiguousarray(a[:, k]).sum() for k in range(a.shape[1])])


def _em_single_start(x, w, mu, sd, floor, tol, max_iter):
    n = x.size
    trace = []
    ll = _em_log_density(x, w, mu, sd).sum()
    trace.append(ll)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        z = (x[:, None] - mu[None, :]) / sd[None, :]
        logp = -0.5 * z * z - np.log(sd)[None, :] - 0.5 * np.log(2.0 * np.pi) + np.log(w)[None, :]
        logp -= logsumexp(logp, axis=1, keepdims=True)
        r = np.exp(logp)
        nk = np.maximum(_column_sums(r), 1e-12)
        w = nk / n
        w = w / w.sum()
        mu = _column_sums(r * x[:, None]) / nk
        var = _column_sums(r * (x[:, None] - mu[None, :]) ** 2) / nk
        sd = np.maximum(np.sqrt(var), floor)
        ll_new = _em_log_density(x, w, mu, sd).sum()
        trace.append(ll_new)
        if abs(ll_new - ll) <= tol * (1.0 + abs(ll_new)):
            ll = ll_new
            converged = True
            break
        ll = ll_new
    return w, mu, sd, ll, converged, it, np.array(trace)


def em_starts(x, m, n_restarts=5, jitter=0.25, seed=0, tol=1e-8, max_iter=300):
    """Every start of an m >= 2 component 1-D mixture fit, run on its own.

    The quantile start plus ``n_restarts - 1`` jittered ones, each run to its
    own stop with two density evaluations per iteration through
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


def em_best(runs, max_iter=300, cut=True):
    """The winning fit among ``em_starts`` runs, and every start's iteration count.

    With ``cut``, the starts the library drops as hopeless are first cut
    after the fact (``_cut_points``).  The first start not cut with
    the strictly largest final log-likelihood wins.  Returns ``(weights,
    means, sds, loglik, converged, n_iter, trace)`` with the components
    sorted by mean, and each start's cut point or its own stop.
    """
    iters = _cut_points(runs, max_iter) if cut else [out[5] for out in runs]
    best = None
    for out, stop in zip(runs, iters):
        if stop == out[5] and (best is None or out[3] > best[3]):
            best = out
    w, mu, sd, ll, converged, it, trace = best
    order = np.argsort(mu, kind="stable")
    fit = (w[order] / w[order].sum(), mu[order], sd[order], float(ll), converged, it, trace)
    return fit, iters


def _cut_points(runs, max_iter):
    """The iteration at which each start stops once hopeless starts are cut.

    Walks k = 1, 2, ...: ``lead`` is the best final log-likelihood of the
    starts that converged by k and were not cut, and a start still running
    after k is cut there when ``ll_k + 2 * (max_iter - k) * (ll_k -
    ll_{k-1}) < lead``.
    """
    stops = [out[5] for out in runs]
    for k in range(1, max(stops) + 1):
        lead = max((out[3] for out, stop in zip(runs, stops) if out[4] and stop == out[5] <= k),
                   default=-np.inf)
        for j, out in enumerate(runs):
            trace = out[6]
            if stops[j] == out[5] > k and trace[k] + 2.0 * (max_iter - k) * (trace[k] - trace[k - 1]) < lead:
                stops[j] = k
    return stops


def em_reference(x, m, n_restarts=5, jitter=0.25, seed=0, tol=1e-8, max_iter=300):
    """``em_best`` of ``em_starts``: the fit the library must return, one start after another."""
    return em_best(em_starts(x, m, n_restarts, jitter, seed, tol, max_iter), max_iter)


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


def register_reference(frames, srlp_register):
    """Self-registration one frame at a time: ``srlp_register`` on every frame
    in order, so the first failing frame raises.  The per-frame function is
    passed in; returns the registered frames and their transforms."""
    out, transforms = [], []
    for f in frames:
        g, t = srlp_register(f)
        out.append(g)
        transforms.append(t)
    return out, transforms


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


def mask_overlaps(ma, mb):
    """Overlap counts of every pair of 0/1 mask rows: ``ma @ mb.T``."""
    return ma @ mb.T


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
            and all(frames_equal(x, y) for x, y in zip(a.frames, b.frames)))
