"""Smoothed significance maps for paired pressure frames.

The difference of two registered frames is smoothed by a bivariate local
quadratic fit: at each analysis pixel x, the values y_i at neighboring
pixels x_i are fit by weighted least squares to

    a0 + a1*d1 + a2*d2 + (a3/2)*d1^2 + (a4/2)*d2^2 + a5*d1*d2,

(d1, d2) = x_i - x, with weights w_i = W(||x_i - x|| / h).  The smoothed
value is a0, a linear combination p(x)' y of the data, so the fit has an
explicit hat matrix L.  With residual quadratic-form traces

    delta1 = tr((I-L)'(I-L)),   delta2 = tr([(I-L)'(I-L)]^2),

the residual variance estimate is sigma^2 = RSS/delta1 and the statistic
t(x) = a0 / (sigma * ||p(x)||) is referred to a t distribution with
delta1^2/delta2 degrees of freedom (two-moment approximation).  L, ||p(x)||
and both traces (exact sparse products) depend only on the analysis mask,
so maps on one mask share them: ``refit`` redoes only the data part.  The
pipeline tests a stack of maps on one mask in one pass through the code
``refit``, ``t_map`` and ``p_map`` run for one map.  P-values are screened
by Benjamini-Hochberg (or Benjamini-Yekutieli) step-up FDR control; the
positive-dependence condition backing BH can be probed via hat-row inner
products, which drive the covariance of the smoothed field.

Fits near the support's edge also draw on a rim of background pixels, each
standing for its nearest supported pixel.  The rim is a column map inside L
(support -> support, duplicate columns summed), not a copy of the data, so
residuals, traces and ||p(x)|| count only the independent support values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import binary_dilation
from scipy.stats import t as student_t

from .errors import ConfigError, DataError, NumericError
from .frames import Frame

__all__ = [
    "KERNELS",
    "SmoothFit",
    "TMap",
    "PMap",
    "FdrConfig",
    "difference_map",
    "pad_rim",
    "local_quadratic_smooth",
    "refit",
    "degrees_of_freedom",
    "t_map",
    "restrict_tmap",
    "p_map",
    "bh_adjust",
    "fdr_map",
]

# kernel id -> (cutoff in units of h, profile W(u) for u = d/h <= cutoff).
# Both kernels vanish beyond one bandwidth, so a rim of ceil(h) padded
# pixels covers the smoother's full reach at the support boundary.
KERNELS = {
    "tgauss": (1.0, lambda u: np.exp(-4.5 * u * u)),
    "tricube": (1.0, lambda u: (1.0 - u ** 3) ** 3),
}

@dataclass(frozen=True)
class SmoothFit:
    """A fitted local quadratic smoother on one difference map.

    Every field but m_hat, sigma_hat and rss depends only on the mask and rim.
    """

    m_hat: np.ndarray       # smoothed estimate, NaN off the mask
    hat_norm: np.ndarray    # ||p(x)||_2 per pixel (a row norm of hat), NaN off the mask
    sigma_hat: float
    delta1: float
    delta2: float
    rss: float
    bandwidth: float
    kernel: str
    mask: np.ndarray        # the analysis region: the support, without the rim
    hat: sp.csr_matrix      # support -> support, rim folded in; indexed like pixels
    pixels: np.ndarray      # (n, 2) masked pixel coordinates, row-major


@dataclass(frozen=True)
class TMap:
    values: np.ndarray      # t statistics, NaN off the mask
    df: float
    mask: np.ndarray

    def __post_init__(self):
        if self.df <= 0 or not np.isfinite(self.df):
            raise NumericError("degrees of freedom must be positive and finite")


@dataclass(frozen=True)
class PMap:
    """Screened significance map: 1 - p at rejected pixels, 0 elsewhere."""

    values: np.ndarray
    critical_p: float
    n_rejected: int
    mask: np.ndarray

    def __post_init__(self):
        v = self.values
        if ((v < 0) | (v > 1)).any():
            raise DataError("P-map values must lie in [0, 1]")


@dataclass(frozen=True)
class FdrConfig:
    q: float = 0.05
    mode: str = "bh"  # "bh" | "by"

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ConfigError(f"q must be in (0, 1), got {self.q}")
        if self.mode not in ("bh", "by"):
            raise ConfigError(f"unknown FDR mode {self.mode!r}")


# ---------------------------------------------------------------------------
# difference + rim padding
# ---------------------------------------------------------------------------


def difference_map(after: Frame, before: Frame) -> Frame:
    """after - before, on the intersection of their supports."""
    if after.shape != before.shape:
        raise DataError("frames must have equal shape")
    ma = after.support_mask if after.support_mask is not None else np.ones(after.shape, bool)
    mb = before.support_mask if before.support_mask is not None else np.ones(before.shape, bool)
    mask = ma & mb
    diff = np.where(mask, after.values - before.values, 0.0)
    return Frame(diff, support_mask=mask, signed=True)


def pad_rim(diff: Frame, rim: int) -> Frame:
    """Fill background pixels within ``rim`` (Chebyshev) of the support.

    Each such pixel receives the value of its nearest supported pixel
    (Euclidean distance; ties broken by smallest row, then column), and
    the mask is extended accordingly.  Pixels beyond the rim are untouched.
    """
    if rim < 0:
        raise ConfigError("rim must be >= 0")
    if diff.support_mask is None:
        raise DataError("difference map has no support mask")
    if rim == 0 or diff.support_mask.all():
        return diff
    mask = diff.support_mask
    if not mask.any():
        raise DataError("empty support")
    band = binary_dilation(mask, structure=np.ones((3, 3), bool), iterations=rim) & ~mask
    br, bc = np.nonzero(band)
    srcs, scols = np.nonzero(mask)
    order = np.lexsort((scols, srcs))  # ties resolve to smallest row, then col
    srcs, scols = srcs[order], scols[order]
    values = diff.values.copy()
    chunk = 2048
    for lo in range(0, br.size, chunk):
        r = br[lo:lo + chunk, None].astype(np.int64)
        c = bc[lo:lo + chunk, None].astype(np.int64)
        d2 = (r - srcs[None, :]) ** 2 + (c - scols[None, :]) ** 2
        pick = np.argmin(d2, axis=1)  # first minimum = smallest (row, col) source
        values[br[lo:lo + chunk], bc[lo:lo + chunk]] = diff.values[srcs[pick], scols[pick]]
    return Frame(values, support_mask=mask | band, signed=diff.signed)


# ---------------------------------------------------------------------------
# local quadratic smoothing
# ---------------------------------------------------------------------------


def _kernel_offsets(h: float, kernel: str, shape: tuple):
    """The kernel's (row, col) offsets and weights; none reaches past a
    ``shape`` grid, where no neighbor can lie."""
    try:
        cutoff, profile = KERNELS[kernel]
    except KeyError:
        raise ConfigError(f"unknown kernel {kernel!r}") from None
    radius = cutoff * h
    r = min(int(np.floor(radius)), max(shape) - 1)
    dr, dc = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    dist = np.hypot(dr, dc)
    keep = dist <= radius
    dr, dc, dist = dr[keep], dc[keep], dist[keep]
    w = profile(dist / h)
    return dr.astype(np.int64), dc.astype(np.int64), w


def local_quadratic_smooth(diff: Frame, h: float = 3.0, kernel: str = "tgauss",
                           rim: int = 0) -> SmoothFit:
    """Fit the local quadratic smoother over the masked pixels of ``diff``.

    Parameters
    ----------
    diff : Frame
        Signed difference map; its support mask is the analysis region.
    h : float
        Kernel bandwidth in pixels.
    kernel : str
        "tgauss" (Gaussian with scale h/3, truncated at h) or "tricube"
        (support h).  At h = 3 the weight covers the 28 neighbors within
        three pixels of the target.
    rim : int
        Background pixels within ``rim`` of the support enter the local fits
        as their nearest supported pixel (as ``pad_rim`` fills them).
    """
    mask = diff.support_mask if diff.support_mask is not None else np.ones(diff.shape, bool)
    return refit(_hat_fit(mask, h, kernel, rim), diff)


def _hat_fit(mask: np.ndarray, h: float, kernel: str, rim: int) -> SmoothFit:
    """The mask-only part of a fit; m_hat, rss and sigma_hat are left for ``refit``."""
    if not (np.isfinite(h) and h > 0):
        raise ConfigError(f"bandwidth must be positive and finite, got {h}")
    n = int(mask.sum())
    if n == 0:
        raise DataError("empty analysis region")
    rows, cols = mask.shape
    pr, pc = np.nonzero(mask)                      # row-major masked pixels
    own = np.cumsum(mask).reshape(mask.shape) - 1.0  # row-major index of each support pixel
    # pad the index map, not the data: a rim pixel points at its source column
    padded = pad_rim(Frame(own, support_mask=mask, signed=True), rim)
    flat_index = np.where(padded.support_mask, padded.values, -1).astype(np.int64)

    dr, dc, w = _kernel_offsets(h, kernel, mask.shape)
    k = dr.size
    # design over offsets is shared by every pixel
    X = np.column_stack([np.ones(k), dr, dc, 0.5 * dr ** 2, 0.5 * dc ** 2, dr * dc])

    nr = pr[:, None] + dr[None, :]
    nc = pc[:, None] + dc[None, :]
    inside = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
    nidx = np.where(inside, flat_index[np.clip(nr, 0, rows - 1), np.clip(nc, 0, cols - 1)], -1)
    valid = nidx >= 0
    wts = np.where(valid, w[None, :], 0.0)         # (n, k)

    n_pos = (wts > 0).sum(axis=1)
    if (n_pos < 6).any():
        bad = [(int(pr[i]), int(pc[i])) for i in np.nonzero(n_pos < 6)[0][:8]]
        raise NumericError(f"fewer than 6 weighted neighbors at pixels {bad}")

    A = np.einsum("pk,ki,kj->pij", wts, X, X, optimize=True)
    # per-pixel conditioning check, reported with coordinates
    ev = np.linalg.eigvalsh(A)
    bad = ev[:, 0] <= 1e-10 * np.maximum(ev[:, -1], 1e-300)
    if bad.any():
        where = [(int(pr[i]), int(pc[i])) for i in np.nonzero(bad)[0][:8]]
        raise NumericError(f"rank-deficient local design at pixels {where}")
    e1 = np.zeros((n, 6))
    e1[:, 0] = 1.0
    coef = np.linalg.solve(A, e1[..., None])[..., 0]      # rows of A^{-1} e1
    hat_w = wts * (coef @ X.T)                            # (n, k) hat weights

    rows_idx = np.repeat(np.arange(n), k)[valid.ravel()]
    cols_idx = nidx.ravel()[valid.ravel()]
    data = hat_w.ravel()[valid.ravel()]
    L = sp.csr_matrix((data, (rows_idx, cols_idx)), shape=(n, n))  # sums rim duplicates

    tr_l = float(L.diagonal().sum())
    fro_l2 = float((L.data * L.data).sum())
    delta1 = n - 2.0 * tr_l + fro_l2
    if delta1 <= 1e-9:
        raise NumericError("no residual degrees of freedom (interpolating fit)")
    M = sp.identity(n, format="csr") - L
    lam = (M.T @ M).tocsr()
    delta2 = float((lam.data * lam.data).sum())

    hat_norm = np.full(mask.shape, np.nan)
    hat_norm[pr, pc] = np.sqrt(np.asarray(L.multiply(L).sum(axis=1)).ravel())
    return SmoothFit(None, hat_norm, math.nan, float(delta1), delta2, math.nan,
                     float(h), kernel, mask.copy(), L, np.column_stack([pr, pc]))


def refit(fit: SmoothFit, diff: Frame) -> SmoothFit:
    """Apply ``fit``'s smoother to another map on the same mask.

    Only m_hat, rss and sigma_hat depend on the data; the hat matrix, hat
    norms and traces are shared with ``fit``.  Raises DataError when the
    support mask of ``diff`` is not the mask ``fit`` was built on.
    """
    mask = diff.support_mask if diff.support_mask is not None else np.ones(diff.shape, bool)
    if not np.array_equal(mask, fit.mask):
        raise DataError("difference map mask differs from the fitted mask")
    m_hat, rss, sigma = _smooth(fit, diff.values[fit.mask][None])
    return replace(fit, m_hat=_on_mask(fit.mask, m_hat[0]), rss=float(rss[0]), sigma_hat=float(sigma[0]))


def _smooth(fit: SmoothFit, Y: np.ndarray):
    """m_hat = L y, the RSS and sigma_hat per row y of ``Y`` (values at ``fit.pixels``)."""
    m_hat = (fit.hat @ Y.T).T
    rss = np.array([r @ r for r in Y - m_hat])  # contiguous rows, one dot each
    return m_hat, rss, np.sqrt(rss / fit.delta1)


def _on_mask(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Grids holding ``values[..., i]`` at the i-th pixel of ``mask``, NaN off it."""
    grid = np.full(values.shape[:-1] + mask.shape, np.nan)
    grid[..., mask] = values
    return grid


def degrees_of_freedom(fit: SmoothFit) -> Tuple[float, float]:
    """The residual traces of a fit; errors if no residual df remain."""
    if fit.delta1 <= 1e-9 or fit.delta2 <= 0:
        raise NumericError("no residual degrees of freedom (interpolating fit)")
    return fit.delta1, fit.delta2


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def t_map(fit: SmoothFit) -> TMap:
    """Per-pixel t = m_hat / (sigma_hat ||p||), df = delta1^2/delta2."""
    return TMap(*_t_grids(fit, fit.m_hat[fit.mask], np.asarray(fit.sigma_hat)), fit.mask.copy())


def _t_grids(fit: SmoothFit, m_hat: np.ndarray, sigma: np.ndarray) -> Tuple[np.ndarray, float]:
    """t grids from the rows of ``m_hat`` and their ``sigma``, and the df they share."""
    d1, d2 = degrees_of_freedom(fit)
    if (sigma == 0.0).any():
        raise NumericError("sigma_hat is zero (noiseless data); no t-map produced")
    return _on_mask(fit.mask, m_hat / (sigma[..., None] * fit.hat_norm[fit.mask])), float(d1 * d1 / d2)


def _stacked_tests(fit: SmoothFit, Y: np.ndarray,
                   two_sided: bool = False) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """``refit`` -> ``t_map`` -> ``p_map`` for a stack of maps on ``fit.mask``.

    Row j of ``Y`` holds map j's values at ``fit.pixels``.  Returns each
    map's sigma_hat, their one df, and the t and p grid stacks, bit for bit
    the one-map chain's, which runs the same code."""
    m_hat, _, sigma = _smooth(fit, Y)
    t, df = _t_grids(fit, m_hat, sigma)
    del m_hat  # frees its room for the p pass, the peak of the stack
    return sigma, df, t, p_map(TMap(t, df, fit.mask), two_sided)


def restrict_tmap(tmap: TMap, mask: np.ndarray) -> TMap:
    """Chop a t-map to a sub-mask (drops padded rim estimates)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != tmap.mask.shape:
        raise DataError("mask shape mismatch")
    if (mask & ~tmap.mask).any():
        raise DataError("restriction mask extends outside the fitted region")
    vals = np.where(mask, tmap.values, np.nan)
    return TMap(vals, tmap.df, mask)


def p_map(tmap: TMap, two_sided: bool = False) -> np.ndarray:
    """Upper-tail (or two-sided) t-distribution p-values, NaN off the mask,
    of one grid or a stack of grids on ``tmap.mask``."""
    v = tmap.values  # compress keeps a stack's t in C order, which sf takes without a copy
    t = np.compress(tmap.mask.ravel(), v.reshape(v.shape[:-2] + (-1,)), axis=-1)
    return _on_mask(tmap.mask, 2.0 * student_t.sf(np.abs(t), df=tmap.df) if two_sided
                    else student_t.sf(t, df=tmap.df))


@functools.lru_cache(maxsize=64)
def _by_constant(m: int) -> float:
    """The Benjamini-Yekutieli constant sum_{i=1}^m 1/i, summed once per m."""
    return math.fsum(1.0 / i for i in range(1, m + 1))


def bh_adjust(pvalues, config: FdrConfig = FdrConfig()) -> Tuple[np.ndarray, float]:
    """Step-up FDR screen; returns (rejected mask, critical p).

    Finds k = max{ i : p_(i) <= i*q/(m*c) } with c = 1 ("bh") or
    c = sum_{i=1}^m 1/i ("by") and rejects the k smallest p-values;
    critical_p is k*q/(m*c), or 0 when nothing is rejected.
    """
    p = np.asarray(pvalues, dtype=np.float64).ravel()
    if p.size == 0:
        raise DataError("empty p-value list")
    if np.isnan(p).any() or (p < 0).any() or (p > 1).any():
        raise DataError("p-values must lie in [0, 1]")
    m = p.size
    c = 1.0 if config.mode == "bh" else _by_constant(m)
    ps = np.sort(p)
    thresh = np.arange(1, m + 1) * config.q / (m * c)
    ok = np.nonzero(ps <= thresh)[0]
    if ok.size == 0:
        return np.zeros(m, dtype=bool), 0.0
    k = int(ok[-1]) + 1
    critical = float(k * config.q / (m * c))
    return p <= critical, critical


def fdr_map(pvalues: np.ndarray, rejections: np.ndarray, critical_p: float = 0.0) -> PMap:
    """Assemble the P-map: 1 - p where rejected, 0 elsewhere."""
    p = np.asarray(pvalues, dtype=np.float64)
    rej = np.asarray(rejections, dtype=bool)
    if p.shape != rej.shape:
        raise DataError("p-value grid and rejection grid differ in shape")
    if rej.any() and np.isnan(p[rej]).any():
        raise DataError("rejected pixel without a p-value")
    vals = np.zeros(p.shape)
    vals[rej] = 1.0 - p[rej]
    mask = ~np.isnan(p)
    return PMap(vals, float(critical_p), int(rej.sum()), mask)
