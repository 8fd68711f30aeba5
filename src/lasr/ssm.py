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
``refit`` and ``t_map`` run for one map.  P-values are screened by
Benjamini-Hochberg (or Benjamini-Yekutieli) step-up FDR control; the
positive-dependence condition backing BH can be probed via hat-row inner
products, which drive the covariance of the smoothed field.

The step-up over m tests rejects no p-value above its last threshold
m q/(m c) (c = 1 for BH, sum 1/i for BY), so the stacked pass computes p
only where the statistic reaches the t quantile of that threshold, and
runs the step-up on those p-values with the full count m
(``_screened_pmaps``): on a null map most pixels are never evaluated, and
no p grid is held.  Every p-value, rejection and P-map is the unscreened
chain's, bit for bit.

Fits near the support's edge also draw on a rim of background pixels, each
standing for its nearest supported pixel.  The rim is a column map inside L
(support -> support, duplicate columns summed), not a copy of the data, so
residuals, traces and ||p(x)|| count only the independent support values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import binary_dilation
from scipy.special import stdtr, stdtrit

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

# Relative margin (at least this much absolute) below the statistic at which
# p reaches the step-up's last threshold; p at the margin's cut exceeds that
# threshold by about 1e-6 * t relatively, far beyond the rounding of stdtr.
_SCREEN_MARGIN = 1e-6

# (pixel, kernel offset) pairs per block of the hat build: 2 MB per float
# array.  The default bandwidth's 29 offsets take any mask below 9000 pixels
# in one block; a kernel as wide as a 38x41 grid (6561 offsets) takes 39
# pixels a block.
_HAT_BLOCK = 1 << 18

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
    # past max(shape) steps the band covers the grid and stops growing
    steps = min(rim, max(mask.shape))
    band = binary_dilation(mask, structure=np.ones((3, 3), bool), iterations=steps) & ~mask
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

    def neighbours(lo, hi):
        """Support index (-1: none) and kernel weight of each pixel's offsets."""
        nr = pr[lo:hi, None] + dr[None, :]
        nc = pc[lo:hi, None] + dc[None, :]
        inside = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
        nidx = np.where(inside, flat_index[np.clip(nr, 0, rows - 1), np.clip(nc, 0, cols - 1)], -1)
        return nidx, np.where(nidx >= 0, w[None, :], 0.0)

    # the (pixel, offset) arrays are built a block of pixels at a time, so a
    # kernel as wide as the grid costs memory in proportion to the block
    step = max(1, _HAT_BLOCK // k)
    spans = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    n_pos = np.empty(n, dtype=np.int64)
    A = np.empty((n, 6, 6))
    for lo, hi in spans:
        nidx, wts = block = neighbours(lo, hi)
        n_pos[lo:hi] = (wts > 0).sum(axis=1)
        A[lo:hi] = np.einsum("pk,ki,kj->pij", wts, X, X, optimize=True)
    if (n_pos < 6).any():
        bad = [(int(pr[i]), int(pc[i])) for i in np.nonzero(n_pos < 6)[0][:8]]
        raise NumericError(f"fewer than 6 weighted neighbors at pixels {bad}")

    # per-pixel conditioning check, reported with coordinates
    ev = np.linalg.eigvalsh(A)
    bad = ev[:, 0] <= 1e-10 * np.maximum(ev[:, -1], 1e-300)
    if bad.any():
        where = [(int(pr[i]), int(pc[i])) for i in np.nonzero(bad)[0][:8]]
        raise NumericError(f"rank-deficient local design at pixels {where}")
    e1 = np.zeros((n, 6))
    e1[:, 0] = 1.0
    coef = np.linalg.solve(A, e1[..., None])[..., 0]      # rows of A^{-1} e1

    parts = []
    for lo, hi in spans:
        nidx, wts = block if len(spans) == 1 else neighbours(lo, hi)
        valid = (nidx >= 0).ravel()
        hat_w = wts * (coef[lo:hi] @ X.T)                 # (pixels, k) hat weights
        rows_idx = np.repeat(np.arange(hi - lo), k)[valid]
        # sums rim duplicates
        parts.append(sp.csr_matrix((hat_w.ravel()[valid], (rows_idx, nidx.ravel()[valid])),
                                   shape=(hi - lo, n)))
    L = parts[0] if len(parts) == 1 else sp.vstack(parts, format="csr")

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


def _stacked_tests(fit: SmoothFit, Y: np.ndarray, fdr: FdrConfig,
                   two_sided: bool = False) -> Tuple[np.ndarray, float, np.ndarray, Iterator[PMap]]:
    """``refit`` -> ``t_map`` -> ``p_map`` -> ``bh_adjust`` -> ``fdr_map`` for
    a stack of maps on ``fit.mask``.

    Row j of ``Y`` holds map j's values at ``fit.pixels``.  Returns each
    map's sigma_hat, their one df, the t grid stack and an iterator over
    the maps' P-maps (``_screened_pmaps``), bit for bit the one-map chain's.
    """
    m_hat, _, sigma = _smooth(fit, Y)
    t, df = _t_grids(fit, m_hat, sigma)
    return sigma, df, t, _screened_pmaps(t, df, fit.mask, fdr, two_sided)


def _screened_pmaps(t: np.ndarray, df: float, mask: np.ndarray, fdr: FdrConfig,
                    two_sided: bool = False) -> Iterator[PMap]:
    """``p_map`` -> ``bh_adjust`` -> ``fdr_map`` for each grid of the stack
    ``t``, computing p only where the step-up can reject.

    The step-up rejects no p-value above its last threshold m q/(m c), so
    p is computed only where the statistic (|t| two-sided) reaches
    ``_screen``'s cut, and the step-up runs on those values with the full
    count m.  The p-values, critical p, rejections and P-map are the
    unscreened chain's, bit for bit; no p grid is made.
    """
    pixels = np.flatnonzero(mask)
    m = pixels.size
    cut = _screen(df, m * fdr.q / (m * _fdr_constant(fdr, m)), two_sided)
    for grid in t:
        stat = grid.ravel()[pixels]
        hit = np.flatnonzero((np.abs(stat) if two_sided else stat) >= cut)
        p = _p_values(stat[hit], df, two_sided)
        rejected, critical = bh_adjust(p, fdr, m)
        values = np.zeros(mask.shape)
        values.flat[pixels[hit[rejected]]] = 1.0 - p[rejected]
        yield PMap(values, critical, int(rejected.sum()), mask)


def _screen(df: float, bound: float, two_sided: bool) -> float:
    """The least statistic (|t| two-sided) whose p-value can be <= ``bound``,
    less a margin: -stdtrit at ``bound`` (or ``bound``/2).

    Every statistic below the cut has p above ``bound``, as the guard
    checks at the cut itself (p is monotone in t, to far less than the
    margin), so the screened set does not rest on the last digits of
    ``stdtrit``; where the guard fails, nothing is screened out.
    """
    cut = -float(stdtrit(df, bound / 2.0 if two_sided else bound))
    cut -= _SCREEN_MARGIN * (1.0 + abs(cut))
    return cut if _p_values(np.array([cut]), df, two_sided)[0] > bound else -math.inf


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
    v = tmap.values
    t = np.compress(tmap.mask.ravel(), v.reshape(v.shape[:-2] + (-1,)), axis=-1)
    return _on_mask(tmap.mask, _p_values(t, tmap.df, two_sided))


def _p_values(t: np.ndarray, df: float, two_sided: bool) -> np.ndarray:
    """The p-value of each statistic in ``t``.

    ``stdtr(df, -t)`` is the t distribution's upper tail, the value
    scipy.stats' t.sf computes without that wrapper's argument checks and
    temporaries."""
    return 2.0 * stdtr(df, -np.abs(t)) if two_sided else stdtr(df, -t)


@functools.lru_cache(maxsize=64)
def _by_constant(m: int) -> float:
    """The Benjamini-Yekutieli constant sum_{i=1}^m 1/i, summed once per m."""
    return math.fsum(1.0 / i for i in range(1, m + 1))


def _fdr_constant(config: FdrConfig, m: int) -> float:
    """c of the step-up over m tests: 1 ("bh") or sum_{i=1}^m 1/i ("by")."""
    return 1.0 if config.mode == "bh" else _by_constant(m)


def bh_adjust(pvalues, config: FdrConfig = FdrConfig(),
              m: Optional[int] = None) -> Tuple[np.ndarray, float]:
    """Step-up FDR screen; returns (rejected mask, critical p).

    Finds k = max{ i : p_(i) <= i*q/(m*c) } with c = 1 ("bh") or
    c = sum_{i=1}^m 1/i ("by") and rejects the k smallest p-values;
    critical_p is k*q/(m*c), or 0 when nothing is rejected.  ``m`` is the
    number of tests, by default len(pvalues).  With a larger m, ``pvalues``
    may leave out tests whose p exceeds m*q/(m*c), the last threshold: none
    of them can be rejected, so the result is the one over all m tests.
    """
    p = np.asarray(pvalues, dtype=np.float64).ravel()
    if p.size == 0 and m is None:
        raise DataError("empty p-value list")
    if np.isnan(p).any() or (p < 0).any() or (p > 1).any():
        raise DataError("p-values must lie in [0, 1]")
    m = p.size if m is None else int(m)
    if m < max(p.size, 1):
        raise DataError(f"{p.size} p-values for {m} tests")
    c = _fdr_constant(config, m)
    ps = np.sort(p)
    thresh = np.arange(1, p.size + 1) * config.q / (m * c)
    ok = np.nonzero(ps <= thresh)[0]
    if ok.size == 0:
        return np.zeros(p.size, dtype=bool), 0.0
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
