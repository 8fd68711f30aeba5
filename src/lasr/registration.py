"""Spatial self-registration (SRLP) and temporal alignment (ICR).

SRLP registers a segmented frame from its own geometry, no reference image
needed.  Per column of the support, a midpoint estimate is

    midpt = r_min + rowcount/2 + (c1 - c2)/2

where ``r_min`` is the lowest supported row index in the column,
``rowcount`` the number of supported pixels in it, and ``c1``/``c2`` the
supported counts falling in the lower/upper image halves (rows below vs.
at-or-above rows/2).  An OLS line through the midpoints is the midline;
the frame is rotated by the midline angle and translated so the midline
becomes horizontal through row rows/2 with its last supported point
placed at the last image column; the anchor target is fixed, so two
poses of one object land in the same place.  Frames whose support is
taller than wide, or whose intensity
mass sits toward high columns, are first brought to the canonical
orientation by an exact quarter-turn, so 90/180-degree posture changes
register to the same pose.  The sitting region cannot move within a
segment, so the pipeline registers a segment with one transform, found
on its mean frame over the segment's one support mask, and resamples
all its frames in one stacked pass (``_resample``).

ICR aligns two movies in time by the average frame correlation

    CorAvg_j = (1/(n-j)) * sum_i cor(A_i, B_{i+j})

after discarding the first ``m0`` frames of each movie; the maximizing
lag j0 is searched over signed lags (negative lags swap the roles of the
movies).  Correlations are Pearson over the union of the two movies'
masks.  Only the band of frame pairs the averages use is computed: with
lag cap J, (2J+1) rows of frames x pixels products rather than the full
frames x frames correlation matrix, worked through in blocks of frames of
A that stay in cache, with no matrix product (and so no threaded BLAS
call).

Transforms act on (row, col) points: p' = R(theta) p + (u, v) with
R(theta) = [[cos, -sin], [sin, cos]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericError
from .frames import Frame, Movie

__all__ = [
    "RigidTransform",
    "MidlineFit",
    "LagAlignment",
    "identity_transform",
    "compose",
    "transform_points",
    "column_midpoints",
    "fit_midline",
    "srlp_params",
    "apply_rigid",
    "srlp_register",
    "registration_error",
    "icr_lag",
    "align_movies",
]


def _wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


@dataclass(frozen=True)
class RigidTransform:
    """Rotation by ``theta`` plus translation ``(u, v)`` in (row, col) space."""

    theta: float
    u: float
    v: float

    def __post_init__(self):
        for name in ("theta", "u", "v"):
            if not np.isfinite(getattr(self, name)):
                raise DataError("transform parameters must be finite")
        object.__setattr__(self, "theta", _wrap_angle(float(self.theta)))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))

    def matrix(self) -> np.ndarray:
        """Homogeneous 3x3 form [[cos, -sin, u], [sin, cos, v], [0, 0, 1]]."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s, self.u], [s, c, self.v], [0.0, 0.0, 1.0]])

    def inverse(self) -> "RigidTransform":
        c, s = math.cos(self.theta), math.sin(self.theta)
        # p = R(-theta) (p' - t)
        u = -(c * self.u + s * self.v)
        v = -(-s * self.u + c * self.v)
        return RigidTransform(-self.theta, u, v)


def identity_transform() -> RigidTransform:
    return RigidTransform(0.0, 0.0, 0.0)


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """The transform applying ``inner`` first, then ``outer``."""
    c, s = math.cos(outer.theta), math.sin(outer.theta)
    u = c * inner.u - s * inner.v + outer.u
    v = s * inner.u + c * inner.v + outer.v
    return RigidTransform(outer.theta + inner.theta, u, v)


def transform_points(t: RigidTransform, points) -> np.ndarray:
    """Apply a transform to an (n, 2) array of (row, col) points."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.ndim != 2 or p.shape[1] != 2:
        raise DataError(f"expected an (n, 2) point array, got shape {p.shape}")
    c, s = math.cos(t.theta), math.sin(t.theta)
    out = np.empty_like(p)
    out[:, 0] = c * p[:, 0] - s * p[:, 1] + t.u
    out[:, 1] = s * p[:, 0] + c * p[:, 1] + t.v
    return out


# ---------------------------------------------------------------------------
# midline estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MidlineFit:
    """OLS line through per-column support midpoints."""

    slope: float
    intercept: float
    n_used: int
    midpoints: np.ndarray  # (n, 2) of (col, midpt)


def _mask_midpoints(mask: np.ndarray) -> np.ndarray:
    rows = mask.shape[0]
    half = rows / 2.0
    rowcount = mask.sum(axis=0)
    cols = np.nonzero(rowcount)[0]
    if cols.size == 0:
        raise DataError("empty support")
    r_idx = np.arange(rows)[:, None]
    r_min = np.where(mask[:, cols], r_idx, rows).min(axis=0).astype(np.float64)
    c1 = (mask[:, cols] & (r_idx < half)).sum(axis=0)
    c2 = rowcount[cols] - c1
    midpt = r_min + rowcount[cols] / 2.0 + (c1 - c2) / 2.0
    return np.column_stack([cols.astype(np.float64), midpt])


def column_midpoints(frame: Frame) -> np.ndarray:
    """Per-column (col, midpt) estimates over the support; needs >= 2 columns."""
    if frame.support_mask is None:
        raise DataError("frame has no support mask; segment it first")
    pts = _mask_midpoints(frame.support_mask)
    if pts.shape[0] < 2:
        raise DataError("support spans fewer than 2 columns")
    return pts


def fit_midline(midpoints) -> MidlineFit:
    """Least-squares line through (col, midpt) points."""
    pts = np.asarray(midpoints, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DataError("need at least 2 midpoints of shape (n, 2)")
    x, y = pts[:, 0], pts[:, 1]
    if np.unique(x).size < 2:
        raise DataError("midpoints lie on a single column; midline is vertical")
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    slope = ((x - xm) * (y - ym)).sum() / sxx
    intercept = ym - slope * xm
    return MidlineFit(float(slope), float(intercept), int(pts.shape[0]), pts)


# ---------------------------------------------------------------------------
# SRLP
# ---------------------------------------------------------------------------


def _quarter_turn(values: np.ndarray, mask: Optional[np.ndarray]) -> int:
    """How many exact 90-degree turns bring a frame to canonical orientation.

    The long axis of the support goes horizontal (0 or 1 turns), then the
    intensity mass is put toward low columns (possibly 2 more turns).
    """
    if mask is None:
        raise DataError("frame has no support mask; segment it first")
    if not mask.any():
        raise DataError("empty support")
    rr, cc = np.nonzero(mask)
    k = 1 if (rr.max() - rr.min()) > (cc.max() - cc.min()) else 0
    vals, m = np.rot90(values, k), np.rot90(mask, k)
    _, c = np.nonzero(m)
    w = vals[m]
    total = w.sum()
    centroid = (w * c).sum() / total if total > 0 else c.mean()
    return k + 2 if centroid > 0.5 * (c.min() + c.max()) else k


def _turn_transform(shape: Tuple[int, int], k: int) -> Tuple[RigidTransform, Tuple[int, int]]:
    """Coordinate map from an array onto np.rot90(array, k), plus the new shape."""
    t = identity_transform()
    rows, cols = shape
    for _ in range(k % 4):
        t = compose(RigidTransform(math.pi / 2.0, cols - 1.0, 0.0), t)
        rows, cols = cols, rows
    return t, (rows, cols)


def srlp_params(frame: Frame) -> RigidTransform:
    """Transform registering a segmented frame to the canonical pose.

    The canonical pose has the fitted midline horizontal through row
    rows/2, with the midline's endpoint (its value at the last supported
    column) moved to the last image column.  A frame whose midline is
    already horizontal at rows/2 and ends at the image edge gets the
    identity transform.  It depends on the frame's values only through the
    quarter turn, so frames sharing a support mask and a turn share it.
    """
    k = _quarter_turn(frame.values, frame.support_mask)
    if k:
        turn, _ = _turn_transform(frame.shape, k)
        mask = np.rot90(frame.support_mask, k)
    else:
        turn = None
        mask = frame.support_mask

    pts = _mask_midpoints(mask)
    if pts.shape[0] < 2:
        raise DataError("support spans fewer than 2 columns")
    line = fit_midline(pts)
    theta = math.atan(line.slope)

    c_last = float(pts[:, 0].max())
    anchor = np.array([line.slope * c_last + line.intercept, c_last])
    target = np.array([frame.rows / 2.0, frame.cols - 1.0])
    c, s = math.cos(theta), math.sin(theta)
    rot_anchor = np.array([c * anchor[0] - s * anchor[1], s * anchor[0] + c * anchor[1]])
    reg = RigidTransform(theta, target[0] - rot_anchor[0], target[1] - rot_anchor[1])
    return compose(reg, turn) if turn is not None else reg


def _resample(stack: np.ndarray, mask: Optional[np.ndarray], t: RigidTransform,
              interp: str = "bilinear") -> Tuple[np.ndarray, np.ndarray]:
    """Resample a (frames, rows, cols) stack sharing one support mask (or
    none) under one rigid transform; returns the stack and its new mask.

    The resampling is one sparse operator, built once and applied to the
    whole stack: a CSR row per output pixel in the new mask, holding that
    pixel's interpolation weights at its source pixels, (r0,c0), (r0,c1),
    (r1,c0), (r1,c1) in that order (bilinear) or its nearest pixel
    (weight 1); zero weights are left out.  Each weight is the product
    ``(1-fr)*(1-fc)`` etc. of the dense formula, and each row sums its
    terms in that formula's order from +0.0, so every value is the dense
    formula's bit for bit: a zero term changes no nonzero sum, and a zero
    sum takes the formula's sign below.  Off the new mask values are 0.
    The stack comes back in C order, as a stack read from a file is.
    """
    if interp not in ("bilinear", "nearest"):
        raise DataError(f"unknown interpolation {interp!r}")
    n, rows, cols = stack.shape
    flat = stack.reshape(n, -1)
    inv = t.inverse()
    rr, cc = np.meshgrid(np.arange(rows, dtype=np.float64),
                         np.arange(cols, dtype=np.float64), indexing="ij")
    src = transform_points(inv, np.column_stack([rr.ravel(), cc.ravel()]))
    sr = src[:, 0].reshape(rows, cols)
    sc = src[:, 1].reshape(rows, cols)
    # tolerate float rounding at the domain edge (composed quarter turns
    # land exactly on the boundary up to ~1e-15)
    eps = 1e-9
    in_dom = (sr >= -eps) & (sr <= rows - 1 + eps) & (sc >= -eps) & (sc <= cols - 1 + eps)
    sr_c = np.clip(sr, 0, rows - 1)
    sc_c = np.clip(sc, 0, cols - 1)
    rn = np.clip(np.rint(sr_c).astype(np.intp), 0, rows - 1)
    cn = np.clip(np.rint(sc_c).astype(np.intp), 0, cols - 1)
    out_mask = in_dom & mask[rn, cn] if mask is not None else in_dom

    if interp == "bilinear":
        sr_k, sc_k = sr_c[out_mask], sc_c[out_mask]
        r0 = np.clip(np.floor(sr_k).astype(np.intp), 0, max(rows - 2, 0))
        c0 = np.clip(np.floor(sc_k).astype(np.intp), 0, max(cols - 2, 0))
        r1 = np.minimum(r0 + 1, rows - 1)
        c1 = np.minimum(c0 + 1, cols - 1)
        fr = sr_k - r0
        fc = sc_k - c0
        src = np.column_stack([r0 * cols + c0, r0 * cols + c1, r1 * cols + c0, r1 * cols + c1])
        w = np.column_stack([(1 - fr) * (1 - fc), (1 - fr) * fc, fr * (1 - fc), fr * fc])
    else:
        src = (rn * cols + cn)[out_mask][:, None]
        w = np.ones(src.shape)
    nz = w != 0
    indptr = np.concatenate([[0], np.cumsum(nz.sum(axis=1))])
    op = sp.csr_matrix((w[nz], src[nz], indptr), shape=(len(src), rows * cols))
    sampled = op @ flat.T  # (pixels, frames)
    # a row whose terms are all -0.0 sums to +0.0, where the formula gives -0.0
    i, f = np.nonzero(sampled == 0.0)
    neg = np.signbit(w[i] * flat[f[:, None], src[i]]).all(axis=1)
    sampled[i[neg], f[neg]] = -0.0
    out = np.zeros((n, rows * cols))
    out[:, out_mask.ravel()] = sampled.T
    return out.reshape(n, rows, cols), out_mask


def apply_rigid(frame: Frame, t: RigidTransform, interp: str = "bilinear") -> Frame:
    """Resample a frame under a rigid transform (inverse mapping).

    Output pixels whose source coordinate falls outside the input domain
    are zero and excluded from the support mask; regions leaving the
    canvas are chopped.  ``interp`` is "bilinear" or "nearest".
    """
    out, mask = _resample(frame.values[None], frame.support_mask, t, interp)
    return Frame(out[0], support_mask=mask, signed=frame.signed)


def srlp_register(frame: Frame) -> Tuple[Frame, RigidTransform]:
    """Estimate the canonical-pose transform and apply it (bilinear)."""
    t = srlp_params(frame)
    return apply_rigid(frame, t), t


def registration_error(t: RigidTransform, pairs) -> float:
    """Mean squared distance ||t(a) - b||^2 over correspondence pairs."""
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1:] != (2, 2) or arr.shape[0] == 0:
        raise DataError("pairs must be a nonempty sequence of ((r,c),(r,c))")
    moved = transform_points(t, arr[:, 0])
    d = moved - arr[:, 1]
    return float((d * d).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# temporal alignment
# ---------------------------------------------------------------------------


# Frames of A per block of the band.  A block and its window of B (the
# block plus lag_cap frames on each side) stay in cache across the lags'
# passes over it: about 0.7 MB on the ~550 union pixels of a 38x41 phantom
# at lag_cap 12, 2.1 MB on 1558 pixels at lag_cap 20.  One pass per lag over
# whole movies is bound by memory: on two 390-frame movies of 1558 pixels
# it took 22 ms against 12 ms in blocks of 64 (lag_cap 20), and blocks of
# 16 or 32 were no faster than 64.
_BAND_BLOCK = 64


def _band_correlation(va: np.ndarray, ma: Optional[np.ndarray],
                      vb: np.ndarray, mb: Optional[np.ndarray], lag_cap: int) -> np.ndarray:
    """Pearson correlation of every frame pair (A_i, B_{i+j}) with
    |j| <= ``lag_cap``, over the union of the two masks (None counts as
    supported everywhere): entry [lag_cap + j, i] of the result.  Entries
    whose B_{i+j} does not exist, or whose correlation is undefined, are NaN.

    ``va`` and ``vb`` are (frames, rows, cols) stacks.  Values are zeroed
    off their own mask, so plain sums over the union pixels are
    union-domain sums.  Each cross product is one ``np.vecdot`` row over a
    block of ``_BAND_BLOCK`` frames of A; no matrix product is formed.
    """
    full = np.ones(va.shape[1:], dtype=bool)
    ma = full if ma is None else ma
    mb = full if mb is None else mb
    union = (ma | mb).ravel()
    n = int(union.sum())
    # compress keeps each frame's pixels contiguous, as the row products need
    x = np.compress(union, va.reshape(len(va), -1), axis=1)
    y = np.compress(union, vb.reshape(len(vb), -1), axis=1)
    x *= ma.ravel()[union]
    y *= mb.ravel()[union]
    na, nb = len(x), len(y)
    lags = np.arange(-lag_cap, lag_cap + 1)

    dots = np.full((lags.size, na), np.nan)
    for s in range(0, na, _BAND_BLOCK):
        e = min(s + _BAND_BLOCK, na)
        for k, j in enumerate(lags.tolist()):
            lo, hi = max(s, -j), min(e, nb - j)
            if lo < hi:
                dots[k, lo:hi] = np.vecdot(x[lo:hi], y[lo + j:hi + j])

    sx, sy = x.sum(axis=1), y.sum(axis=1)
    sxx, syy = np.vecdot(x, x), np.vecdot(y, y)
    ib = np.clip(np.arange(na) + lags[:, None], 0, nb - 1)  # B_{i+j}; off-band cells are NaN already
    sy, syy = sy[ib], syy[ib]
    with np.errstate(invalid="ignore", divide="ignore"):
        cov = dots - sx * sy / n
        vx = sxx - sx ** 2 / n
        vy = syy - sy ** 2 / n
        cor = cov / np.sqrt(vx * vy)
    scale = np.sqrt(np.maximum(sxx, 1e-300) * np.maximum(syy, 1e-300))
    bad = (n < 2) | (vx <= 1e-12 * scale) | (vy <= 1e-12 * scale)
    cor[bad] = np.nan
    return cor


@dataclass(frozen=True)
class LagAlignment:
    """Result of the lag search: best signed lag and the correlation profile."""

    j0: int
    m0: int
    lags: np.ndarray          # ascending signed lags
    cor_avg: np.ndarray       # CorAvg_j aligned with lags (NaN if undefined)
    direction: str            # "b-delayed" (j0 >= 0) or "a-delayed" (j0 < 0)
    n_used: Tuple[int, int]   # frames of each movie after the m0 discard


def icr_lag(a: Movie, b: Movie, m0: int = 10, max_lag: int = 50) -> LagAlignment:
    """Find the lag maximizing the average inter-movie frame correlation,
    each correlation taken over the union of the two movies' masks.

    The first ``m0`` (unstable) frames of each movie are discarded.  Only
    the pairs (A_i, B_{i+j}) with |j| <= min(max_lag, frames left - 1) are
    correlated (``_band_correlation``); undefined correlations are left out
    of a lag's average.  Lags are scanned in the order 0, 1, -1, 2, -2, ...;
    the first maximum of the computed averages wins ties, and lags tied in
    exact arithmetic can differ in the last bit.  A positive j0 pairs A_i
    with B_{i+j0}.
    """
    if a.shape != b.shape:
        raise DataError("movies must have equal frame shape")
    if m0 < 0:
        raise DataError("m0 must be >= 0")
    na, nb = len(a) - m0, len(b) - m0
    if na < 2 or nb < 2:
        raise DataError("movie too short after discarding the first m0 frames")
    if max_lag < 0:
        raise DataError("max_lag must be >= 0")
    lag_cap = min(max_lag, min(na, nb) - 1)

    cor = _band_correlation(a.values[m0:], a.mask, b.values[m0:], b.mask, lag_cap)

    lags = np.arange(-lag_cap, lag_cap + 1)
    cor_avg = np.full(lags.size, np.nan)
    for idx, j in enumerate(lags.tolist()):
        pairs = cor[idx, max(0, -j):min(na, nb - j)]
        if not np.all(np.isnan(pairs)):
            cor_avg[idx] = np.nanmean(pairs)

    best_j, best_c = None, -np.inf
    for j in sorted(lags.tolist(), key=lambda q: (abs(q), q < 0)):
        c = cor_avg[j + lag_cap]
        if np.isfinite(c) and c > best_c:
            best_j, best_c = int(j), float(c)
    if best_j is None:
        raise NumericError("all frame correlations undefined")
    return LagAlignment(best_j, int(m0), lags, cor_avg,
                        "b-delayed" if best_j >= 0 else "a-delayed", (na, nb))


def align_movies(a: Movie, b: Movie, lag: LagAlignment) -> Tuple[Movie, Movie]:
    """Trim two movies to the frame pairs (A_i, B_{i+j0}); overhang is dropped."""
    j0 = lag.j0
    if j0 >= 0:
        n = min(len(a), len(b) - j0)
        if n <= 0:
            raise DataError("no overlapping frames at the requested lag")
        return a[:n], b[j0:j0 + n]
    k = -j0
    n = min(len(b), len(a) - k)
    if n <= 0:
        raise DataError("no overlapping frames at the requested lag")
    return a[k:k + n], b[:n]
