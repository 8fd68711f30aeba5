"""Synthetic seated-pressure phantoms with known ground truth.

A phantom is an elliptical sitting region containing a smooth dome plus a
pair of high-pressure bumps toward the rear (low columns), mimicking the
two bony prominences; independent Gaussian noise is added and the result
clipped at zero.  Generators are deterministic given the seed, with the
noise stream separated from geometry so the same seed yields the same
geometry under different noise scales.  Sessions follow the
no-stim / stim / no-stim block structure; during the stim block the two
bumps are boosted alternately (square-wave on/off with a configurable
period, per-side amplitudes, and phase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DataError
from .frames import Frame, Movie, SessionLayout
from .registration import RigidTransform, apply_rigid

__all__ = [
    "StimSpec",
    "EffectSpec",
    "PhantomSpec",
    "PoseSpec",
    "GroundTruth",
    "blob_field",
    "seat_blob",
    "gen_frame",
    "gen_session",
    "gen_pose_pair",
    "gen_lagged_pair",
]


@dataclass(frozen=True)
class StimSpec:
    """Square-wave bump stimulation: period (frames), side amplitudes, phase lag."""

    period: int = 20
    left_amp: float = 0.5
    right_amp: float = 0.5
    phase_lag: int = 0

    def __post_init__(self):
        if self.period < 2:
            raise DataError("stim period must be >= 2 frames")


@dataclass(frozen=True)
class EffectSpec:
    """A planted between-session change: ``delta`` added inside ``mask``."""

    mask: np.ndarray
    delta: float

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "mask", m)


@dataclass(frozen=True)
class PhantomSpec:
    rows: int = 38
    cols: int = 41
    center: Tuple[float, float] = (18.5, 20.0)
    radii: Tuple[float, float] = (11.0, 16.0)   # (row, col) semi-axes
    peak: float = 60.0
    noise_sd: Tuple[float, float] = (1.0, 2.0)  # (background, signal)
    n_frames: int = 20
    fps: float = 2.0
    pose: Optional[RigidTransform] = None
    stim: Optional[StimSpec] = None
    effect: Optional[EffectSpec] = None
    seed: int = 0


@dataclass(frozen=True)
class GroundTruth:
    support: np.ndarray                 # noiseless sitting region
    pose: RigidTransform
    lag: int
    effect_mask: Optional[np.ndarray]
    effect_delta: float


def _noise_rng(seed: int, stream: int = 0):
    return np.random.default_rng(np.random.SeedSequence((int(seed), 7, int(stream))))


def blob_field(spec: PhantomSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless intensity field, plus the separate left/right bump fields."""
    r = np.arange(spec.rows, dtype=np.float64)[:, None]
    c = np.arange(spec.cols, dtype=np.float64)[None, :]
    cr, cc = spec.center
    ar, ac = spec.radii
    rho2 = ((r - cr) / ar) ** 2 + ((c - cc) / ac) ** 2
    inside = rho2 <= 1.0
    # dome over a flat contact floor: real mats read a pressure step at the
    # contact boundary, not a smooth taper to zero, and the step keeps the
    # outline of every noisy frame (hence the registration anchor) stable
    dome = spec.peak * (0.15 + 0.4 * np.sqrt(np.clip(1.0 - rho2, 0.0, None)))

    sep = 0.45 * ar
    back = cc - 0.33 * ac
    sd_r, sd_c = 0.30 * ar, 0.28 * ac

    def bump(row0):
        return spec.peak * np.exp(-0.5 * (((r - row0) / sd_r) ** 2 + ((c - back) / sd_c) ** 2))

    left = np.where(inside, bump(cr - sep), 0.0)
    right = np.where(inside, bump(cr + sep), 0.0)
    base = np.where(inside, dome, 0.0) + left + right
    return base, left, right


def _noisy(clean: np.ndarray, support: np.ndarray, spec: PhantomSpec, rng) -> np.ndarray:
    """``clean`` plus one draw of the spec's noise, clipped at zero."""
    bg_sd, sig_sd = spec.noise_sd
    noise = rng.standard_normal(clean.shape)
    noise *= np.where(support, sig_sd, bg_sd)
    return np.clip(clean + noise, 0.0, None)


def _posed_field(spec: PhantomSpec):
    """``blob_field`` moved by the spec's pose: (base, left, right, support, pose)."""
    base, left, right = blob_field(spec)
    support = base > 0
    if spec.pose is None:
        return base, left, right, support, RigidTransform(0.0, 0.0, 0.0)
    posed = apply_rigid(Frame(base, support_mask=support), spec.pose)
    if posed.support_mask.sum() < 0.5 * support.sum():
        raise DataError("pose moves more than half of the blob out of bounds")
    left = apply_rigid(Frame(left), spec.pose).values
    right = apply_rigid(Frame(right), spec.pose).values
    return posed.values, left, right, posed.support_mask, spec.pose


def gen_frame(spec: PhantomSpec, stream: int = 0) -> Tuple[Frame, GroundTruth]:
    """One noisy frame under the spec's pose (identity when pose is None)."""
    base, _, _, support, pose = _posed_field(spec)
    frame = Frame(_noisy(base, support, spec, _noise_rng(spec.seed, stream)))
    truth = GroundTruth(support, pose, 0, None, 0.0)
    return frame, truth


def _stim_clean(st: StimSpec, t: int, base, left, right) -> np.ndarray:
    left_on = ((t + st.phase_lag) % st.period) < st.period // 2
    if left_on:
        return base + st.left_amp * left
    return base + st.right_amp * right


def gen_session(spec: PhantomSpec, session_id: str = "s1",
                subject_id: str = "phantom") -> Tuple[SessionLayout, GroundTruth]:
    """A no-stim / stim / no-stim session of ``n_frames`` frames per segment.

    ``spec.effect`` (if any) is added to every frame, so a pair of specs
    differing only in ``effect`` and ``seed`` forms a before/after pair
    with independent noise.
    """
    base, left, right, support, pose = _posed_field(spec)
    effect_mask = None
    delta = 0.0
    if spec.effect is not None:
        effect_mask = spec.effect.mask
        if effect_mask.shape != (spec.rows, spec.cols):
            raise DataError("effect mask shape must match the phantom grid")
        delta = float(spec.effect.delta)
        base = base + np.where(effect_mask, delta, 0.0)

    stim = spec.stim if spec.stim is not None else StimSpec()
    segments = []
    for seg, tag in enumerate(("NoStim", "Stim", "NoStim")):
        rng = _noise_rng(spec.seed, seg)
        grids = [_noisy(base if tag == "NoStim" else _stim_clean(stim, t, base, left, right), support, spec, rng)
                 for t in range(spec.n_frames)]
        segments.append((tag, Movie(np.stack(grids), fps=spec.fps)))
    layout = SessionLayout(tuple(segments), session_id=session_id, subject_id=subject_id)
    truth = GroundTruth(support, pose, stim.phase_lag, effect_mask, delta)
    return layout, truth


# ---------------------------------------------------------------------------
# pose-recovery phantoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoseSpec:
    """A rotated/shifted copy of a flat-edged sitting blob.

    The blob sits in the upper image half with its flat lower contour as
    the midline, so the per-column midpoint estimator has a straight
    regression target.  Rotation is about the blob's rightmost point and
    the offset is whole pixels; both frames get independent value noise
    on the true support.
    """

    size: int = 64
    theta: float = 0.1
    offset: Tuple[int, int] = (0, 0)
    noise_sd: float = 1.0
    peak: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.size < 16:
            raise DataError("pose phantoms need size >= 16")
        if abs(self.theta) > 0.2:
            raise DataError("pose rotation limited to 0.2 rad to keep the blob one-sided")
        if any(int(o) != o for o in self.offset):
            raise DataError("pose offset must be whole pixels")


def seat_blob(rows: int, cols: int, peak: float = 60.0):
    """Flat-bottomed sitting region: straight lower edge, rounded top.

    Returns (values, mask, anchor) where anchor = (edge row, tip column)
    is the right end of the flat edge.  A heavy rear bump toward low
    columns fixes the orientation.
    """
    edge = int(round(0.30 * rows))
    c0, c1 = int(round(0.12 * cols)), int(round(0.85 * cols))
    depth = max(2, int(round(0.22 * rows)))
    r = np.arange(rows, dtype=np.float64)[:, None]
    c = np.arange(cols, dtype=np.float64)[None, :]
    rel = 2.0 * (c - c0) / (c1 - c0) - 1.0  # -1 at rear, +1 at tip
    cap = np.sqrt(np.clip(1.0 - rel * rel, 0.0, None))
    top = edge - depth * cap
    mask = (c >= c0) & (c <= c1) & (r <= edge) & (r >= top) & (cap > 0)
    dome = 0.3 + 0.7 * np.clip((edge - r) / depth, 0.0, 1.0) * cap
    rear = np.exp(-0.5 * (((r - (edge - 0.4 * depth)) / (0.5 * depth)) ** 2
                          + ((c - (c0 + 0.2 * (c1 - c0))) / (0.15 * (c1 - c0))) ** 2))
    vals = np.where(mask, peak * (0.4 * dome + 1.2 * rear) + 1.0, 0.0)
    return vals, mask, (float(edge), float(c1))


def gen_pose_pair(spec: PoseSpec) -> Tuple[Frame, Frame, RigidTransform, np.ndarray]:
    """Canonical and posed noisy frames, the true pose, and reference points.

    The returned points are canonical support coordinates (every seventh
    supported pixel); the pose maps them onto the moved frame.
    """
    n = spec.size
    vals, mask, (ar, ac) = seat_blob(n, n, peak=spec.peak)
    cth, sth = np.cos(spec.theta), np.sin(spec.theta)
    pose = RigidTransform(
        spec.theta,
        ar - (cth * ar - sth * ac) + spec.offset[0],
        ac - (sth * ar + cth * ac) + spec.offset[1],
    )
    clean = Frame(vals, support_mask=mask)
    posed = apply_rigid(clean, pose)
    if posed.support_mask.sum() < 0.9 * mask.sum():
        raise DataError("pose moves too much of the blob out of bounds")

    rng_a = _noise_rng(spec.seed, 0)
    rng_b = _noise_rng(spec.seed, 1)

    def noisy(f: Frame, rng) -> Frame:
        v = f.values + np.where(f.support_mask, spec.noise_sd * rng.standard_normal(f.shape), 0.0)
        return Frame(np.clip(v, 0.0, None), support_mask=f.support_mask)

    rr, cc = np.nonzero(mask)
    pts = np.column_stack([rr, cc]).astype(np.float64)[::7]
    return noisy(clean, rng_a), noisy(posed, rng_b), pose, pts


def gen_lagged_pair(spec: PhantomSpec, lag: int) -> Tuple[Movie, Movie, GroundTruth]:
    """Two stim movies where B is A delayed by exactly ``lag`` frames.

    Both movies are windows of one master recording (shared noise), so
    cor(A_i, B_{i+lag}) = 1 identically and the planted lag is the unique
    maximizer even for periodic stimulation.
    """
    if lag < 0:
        raise DataError("lag must be >= 0")
    stim = spec.stim if spec.stim is not None else StimSpec()
    base, left, right = blob_field(spec)
    support = base > 0
    rng = _noise_rng(spec.seed, 101)
    grids = [_noisy(_stim_clean(stim, t, base, left, right), support, spec, rng)
             for t in range(spec.n_frames + lag)]
    master = Movie(np.stack(grids), fps=spec.fps)
    a, b = master[lag:], master[:spec.n_frames]  # A starts `lag` frames in
    truth = GroundTruth(support, RigidTransform(0.0, 0.0, 0.0), lag, None, 0.0)
    return a, b, truth
