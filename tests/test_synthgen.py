"""Phantom generators: geometry, noise streams, stimulation, and ground truth."""

import numpy as np
import pytest

from lasr import (
    DataError,
    EffectSpec,
    Frame,
    PhantomSpec,
    PoseSpec,
    RigidTransform,
    StimSpec,
    blob_field,
    gen_frame,
    gen_lagged_pair,
    gen_pose_pair,
    gen_session,
    icr_lag,
    seat_blob,
    transform_points,
)
from _oracles import frame_correlation, gen_misaligned_pair


SMALL = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                    n_frames=6, seed=42)


# ---------------------------------------------------------------------------
# static fields
# ---------------------------------------------------------------------------


class TestBlobField:
    def test_support_is_the_ellipse(self):
        base, left, right = blob_field(SMALL)
        r = np.arange(24, dtype=float)[:, None]
        c = np.arange(26, dtype=float)[None, :]
        rho2 = ((r - 11.5) / 7.0) ** 2 + ((c - 12.5) / 9.0) ** 2
        assert np.array_equal(base > 0, rho2 <= 1.0)
        assert np.all(left[rho2 > 1.0] == 0.0) and np.all(right[rho2 > 1.0] == 0.0)

    def test_bumps_sit_at_mirrored_rows(self):
        base, left, right = blob_field(SMALL)
        lr, lc = np.unravel_index(np.argmax(left), left.shape)
        rr, rc = np.unravel_index(np.argmax(right), right.shape)
        assert lc == rc
        assert lr < 11.5 < rr
        assert abs((11.5 - lr) - (rr - 11.5)) <= 1.0
        # rear bumps live toward low columns
        assert lc < 12.5

    def test_peak_scales_field(self):
        hi = blob_field(PhantomSpec(peak=120.0))[0]
        lo = blob_field(PhantomSpec(peak=60.0))[0]
        assert np.allclose(hi, 2.0 * lo)

    def test_pure_function(self):
        a = blob_field(SMALL)[0]
        b = blob_field(SMALL)[0]
        assert np.array_equal(a, b)


class TestGenFrame:
    def test_deterministic_per_seed_and_stream(self):
        f1, _ = gen_frame(SMALL, stream=0)
        f2, _ = gen_frame(SMALL, stream=0)
        f3, _ = gen_frame(SMALL, stream=1)
        assert np.array_equal(f1.values, f2.values)
        assert not np.array_equal(f1.values, f3.values)

    def test_noise_scales_with_sd_not_geometry(self):
        clean = blob_field(SMALL)[0]
        exact, _ = gen_frame(replace_noise(SMALL, (0.0, 0.0)))
        assert np.array_equal(exact.values, clean)
        one, _ = gen_frame(replace_noise(SMALL, (1.0, 1.0)))
        two, _ = gen_frame(replace_noise(SMALL, (2.0, 2.0)))
        safe = clean > 10.0  # far from the clip at zero
        assert np.allclose((two.values - clean)[safe], 2.0 * (one.values - clean)[safe])

    def test_values_clipped_at_zero(self):
        f, _ = gen_frame(PhantomSpec(noise_sd=(5.0, 5.0), seed=3))
        assert f.values.min() == 0.0

    def test_integer_pose_shifts_support(self):
        truth0 = gen_frame(SMALL)[1]
        moved, truth = gen_frame(
            PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                        n_frames=6, seed=42, pose=RigidTransform(0.0, 2.0, 3.0)))[0:2]
        assert np.array_equal(truth.support[2:, 3:], truth0.support[:-2, :-3])
        assert truth.pose == RigidTransform(0.0, 2.0, 3.0)

    def test_pose_out_of_bounds_rejected(self):
        with pytest.raises(DataError):
            gen_frame(PhantomSpec(pose=RigidTransform(0.0, 100.0, 0.0)))


def replace_noise(spec, sd):
    from dataclasses import replace
    return replace(spec, noise_sd=sd)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


class TestGenSession:
    def test_layout_structure(self):
        layout, truth = gen_session(SMALL, session_id="s9", subject_id="p1")
        assert [tag for tag, _ in layout.segments] == ["NoStim", "Stim", "NoStim"]
        assert all(len(m) == 6 for _, m in layout.segments)
        assert all(m.fps == 2.0 for _, m in layout.segments)
        assert layout.session_id == "s9" and layout.subject_id == "p1"
        assert truth.support.sum() > 0

    def test_deterministic(self):
        a, _ = gen_session(SMALL)
        b, _ = gen_session(SMALL)
        for (_, ma), (_, mb) in zip(a.segments, b.segments):
            for fa, fb in zip(ma, mb):
                assert np.array_equal(fa.values, fb.values)

    def test_segments_use_independent_noise(self):
        layout, _ = gen_session(SMALL)
        first = layout.segments[0][1].values[0]
        last = layout.segments[2][1].values[0]
        assert not np.array_equal(first, last)

    def test_stim_square_wave_timing(self):
        spec = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                           n_frames=12, seed=0, noise_sd=(0.0, 0.0),
                           stim=StimSpec(period=6, left_amp=0.7, right_amp=0.3, phase_lag=2))
        base, left, right = blob_field(spec)
        layout, truth = gen_session(spec)
        stim_movie = layout.segments[1][1]
        for t, frame in enumerate(stim_movie):
            if ((t + 2) % 6) < 3:
                want = base + 0.7 * left
            else:
                want = base + 0.3 * right
            assert np.array_equal(frame.values, want), f"frame {t}"
        assert truth.lag == 2
        # no-stim segments carry the bare field
        assert np.array_equal(layout.segments[0][1].values[0], base)

    def test_effect_added_everywhere(self):
        mask = np.zeros((24, 26), dtype=bool)
        mask[10:13, 11:15] = True
        spec = replace_noise(SMALL, (0.0, 0.0))
        from dataclasses import replace
        spec = replace(spec, effect=EffectSpec(mask, 4.5))
        layout, truth = gen_session(spec)
        base = blob_field(SMALL)[0]
        got = layout.segments[0][1].values[0]
        assert np.array_equal(got, base + np.where(mask, 4.5, 0.0))
        assert truth.effect_delta == 4.5
        assert np.array_equal(truth.effect_mask, mask)

    def test_effect_mask_shape_checked(self):
        from dataclasses import replace
        bad = replace(SMALL, effect=EffectSpec(np.ones((3, 3), bool), 1.0))
        with pytest.raises(DataError):
            gen_session(bad)

    def test_stim_period_validated(self):
        with pytest.raises(DataError):
            StimSpec(period=1)


class TestMisalignedPair:
    def test_pair_and_truth(self):
        pose = RigidTransform(0.05, 1.0, -2.0)
        canon, moved, truth = gen_misaligned_pair(SMALL, pose)
        canon2, moved2, _ = gen_misaligned_pair(SMALL, pose)
        assert np.array_equal(canon.values, canon2.values)
        assert np.array_equal(moved.values, moved2.values)
        assert not np.array_equal(canon.values, moved.values)
        assert truth.pose == pose


# ---------------------------------------------------------------------------
# pose-recovery phantoms
# ---------------------------------------------------------------------------


class TestSeatBlob:
    def test_flat_bottom_edge(self):
        vals, mask, (edge, tip) = seat_blob(40, 44)
        assert edge == round(0.30 * 40) and tip == round(0.85 * 44)
        rr, cc = np.nonzero(mask)
        assert rr.max() == edge
        # every supported column touches the flat edge exactly
        for c in np.unique(cc):
            assert mask[int(edge), c]
        # one-sided: whole blob above the image centre row
        assert rr.max() < 20
        assert np.all(vals[mask] > 0) and np.all(vals[~mask] == 0)

    def test_rear_heavy_orientation(self):
        vals, mask, _ = seat_blob(40, 44)
        w = vals[mask]
        cc = np.nonzero(mask)[1]
        centroid = (w * cc).sum() / w.sum()
        assert centroid < 0.5 * (cc.min() + cc.max())


class TestGenPosePair:
    def test_pose_fixes_the_tip_up_to_offset(self):
        spec = PoseSpec(size=48, theta=0.15, offset=(3.0, -2.0), seed=1)
        _, _, pose, _ = gen_pose_pair(spec)
        _, _, (ar, ac) = seat_blob(48, 48)
        got = transform_points(pose, [(ar, ac)])[0]
        assert np.allclose(got, (ar + 3.0, ac - 2.0), atol=1e-12)
        assert pose.theta == 0.15

    def test_deterministic_and_noise_independent(self):
        spec = PoseSpec(size=48, theta=0.1, seed=9)
        a1, b1, _, _ = gen_pose_pair(spec)
        a2, b2, _, _ = gen_pose_pair(spec)
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(b1.values, b2.values)
        # same stream split as elsewhere: the two frames draw different noise
        assert not np.array_equal(a1.values[a1.support_mask][:50],
                                  b1.values[b1.support_mask][:50])

    def test_reference_points_land_in_posed_support(self):
        spec = PoseSpec(size=64, theta=0.12, offset=(1.0, -1.0), seed=2)
        canon, posed, pose, pts = gen_pose_pair(spec)
        assert canon.support_mask[tuple(pts[0].astype(int))]
        moved = transform_points(pose, pts)
        ir = np.clip(np.rint(moved[:, 0]).astype(int), 0, 63)
        ic = np.clip(np.rint(moved[:, 1]).astype(int), 0, 63)
        inside = posed.support_mask[ir, ic]
        assert inside.mean() > 0.95

    def test_spec_validation(self):
        with pytest.raises(DataError):
            PoseSpec(size=8)
        with pytest.raises(DataError):
            PoseSpec(theta=0.5)
        with pytest.raises(DataError):
            PoseSpec(offset=(0.5, 0.0))
        with pytest.raises(DataError):
            gen_pose_pair(PoseSpec(size=64, theta=0.0, offset=(0.0, 40.0)))


# ---------------------------------------------------------------------------
# lagged pairs
# ---------------------------------------------------------------------------


class TestGenLaggedPair:
    def test_b_is_a_delayed_exactly(self):
        a, b, truth = gen_lagged_pair(SMALL, lag=4)
        assert len(a) == len(b) == 6
        for i in range(len(a) - 4):
            assert np.array_equal(a.values[i], b.values[i + 4])
        assert truth.lag == 4

    def test_zero_lag_is_identical(self):
        a, b, _ = gen_lagged_pair(SMALL, lag=0)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_correlation_is_one_at_planted_lag(self):
        a, b, _ = gen_lagged_pair(SMALL, lag=3)
        assert frame_correlation(a[0], b[3]) == pytest.approx(1.0, abs=1e-12)

    def test_icr_recovers_planted_lag(self):
        from dataclasses import replace
        spec = replace(SMALL, n_frames=40, stim=StimSpec(period=8))
        a, b, _ = gen_lagged_pair(spec, lag=5)
        got = icr_lag(a, b, m0=2, max_lag=10)
        assert got.j0 == 5
        assert got.direction == "b-delayed"
        assert got.cor_avg[list(got.lags).index(5)] > 0.999999

    def test_negative_lag_rejected(self):
        with pytest.raises(DataError):
            gen_lagged_pair(SMALL, lag=-1)
