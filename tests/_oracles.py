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
        nk = np.maximum(r.sum(axis=0), 1e-12)
        w = nk / n
        w = w / w.sum()
        mu = (r * x[:, None]).sum(axis=0) / nk
        var = (r * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / nk
        sd = np.maximum(np.sqrt(var), floor)
        ll_new = _em_log_density(x, w, mu, sd).sum()
        trace.append(ll_new)
        if abs(ll_new - ll) <= tol * (1.0 + abs(ll_new)):
            ll = ll_new
            converged = True
            break
        ll = ll_new
    return w, mu, sd, ll, converged, it, np.array(trace)


def em_reference(x, m, n_restarts=5, jitter=0.25, seed=0, tol=1e-8, max_iter=300):
    """EM for an m >= 2 component 1-D mixture, one start after another.

    The quantile start plus ``n_restarts - 1`` jittered ones, each run on its
    own with two density evaluations per iteration through
    ``scipy.special.logsumexp``; the first start with the strictly largest
    final log-likelihood wins.  Returns ``(weights, means, sds, loglik,
    converged, n_iter, trace)`` with the components sorted by mean, and the
    iteration count of every start.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    sd_all = float(x.std())
    floor = max(1e-3 * sd_all, 1e-300)
    mu0 = np.quantile(x, (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m))
    rng = np.random.default_rng(seed)
    best, iters = None, []
    for rep in range(max(1, n_restarts)):
        start = mu0 if rep == 0 else np.sort(mu0 + jitter * sd_all * rng.standard_normal(m))
        out = _em_single_start(x, np.full(m, 1.0 / m), start, np.full(m, max(sd_all / m, floor)),
                               floor, tol, max_iter)
        iters.append(out[5])
        if best is None or out[3] > best[3]:
            best = out
    w, mu, sd, ll, converged, it, trace = best
    order = np.argsort(mu, kind="stable")
    fit = (w[order] / w[order].sum(), mu[order], sd[order], float(ll), converged, it, trace)
    return fit, iters


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
