"""Rigid transforms, midline self-registration, and temporal alignment."""

import math

import numpy as np
import pytest
from scipy.ndimage import binary_erosion

from lasr import (
    DataError,
    Frame,
    Movie,
    NumericError,
    PoseSpec,
    RigidTransform,
    align_movies,
    apply_rigid,
    column_midpoints,
    compose,
    fit_midline,
    gen_pose_pair,
    icr_lag,
    identity_transform,
    registration_error,
    srlp_params,
    srlp_register,
    transform_points,
)

import _oracles as orc
from _oracles import frame_correlation
from lasr import registration as reg


def band_frame(rows=10, cols=14, r0=3, r1=7, value=6.0, heavy_low=False):
    """Horizontal slab supported on rows r0..r1-1, optionally front-loaded."""
    vals = np.zeros((rows, cols))
    vals[r0:r1, :] = value
    if heavy_low:
        vals[r0:r1, : cols // 3] = 3.0 * value
    mask = vals > 0
    return Frame(vals, support_mask=mask)


# ---------------------------------------------------------------------------
# rigid transforms
# ---------------------------------------------------------------------------


class TestRigidTransform:
    def test_matrix_layout(self):
        t = RigidTransform(math.pi / 2.0, 3.0, -1.0)
        m = t.matrix()
        assert np.allclose(m, [[0.0, -1.0, 3.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]], atol=1e-15)

    def test_point_action_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = RigidTransform(rng.uniform(-3, 3), rng.uniform(-5, 5), rng.uniform(-5, 5))
            pts = rng.uniform(-10, 10, (7, 2))
            got = transform_points(t, pts)
            for p, g in zip(pts, got):
                assert np.allclose(g, orc.rigid_apply_point(t.theta, t.u, t.v, p), atol=1e-12)

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = RigidTransform(rng.uniform(-3, 3), rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = RigidTransform(rng.uniform(-3, 3), rng.uniform(-4, 4), rng.uniform(-4, 4))
            ab = compose(a, b)
            assert np.allclose(ab.matrix(), a.matrix() @ b.matrix(), atol=1e-12)

    def test_inverse_round_trip_is_identity(self):
        t = RigidTransform(0.7, 2.5, -1.25)
        r = compose(t, t.inverse())
        assert abs(r.theta) < 1e-12 and abs(r.u) < 1e-12 and abs(r.v) < 1e-12

    def test_angle_wraps_into_half_open_interval(self):
        quarter = RigidTransform(math.pi / 2.0, 0.0, 0.0)
        t = compose(quarter, quarter)
        assert abs(t.theta - math.pi) < 1e-12
        t = compose(t, quarter)
        assert abs(t.theta + math.pi / 2.0) < 1e-12

    def test_identity_transform(self):
        t = identity_transform()
        assert (t.theta, t.u, t.v) == (0.0, 0.0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            RigidTransform(float("nan"), 0.0, 0.0)

    def test_points_shape_validated(self):
        with pytest.raises(DataError):
            transform_points(identity_transform(), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# midline estimation
# ---------------------------------------------------------------------------


class TestMidpoints:
    def test_hand_worked_column(self):
        # 10 supported rows from 14, seven below the midline: midpt 21
        rows = 42
        mask = np.zeros((rows, 2), dtype=bool)
        mask[14:24, :] = True
        f = Frame(np.where(mask, 1.0, 0.0), support_mask=mask)
        pts = column_midpoints(f)
        assert pts.shape == (2, 2)
        for col, midpt in pts:
            assert midpt == 14 + 10 / 2.0 + (7 - 3) / 2.0 == 21.0

    def test_symmetric_support_centers_on_half_rows(self):
        f = band_frame(rows=10, r0=3, r1=7)
        pts = column_midpoints(f)
        assert (pts[:, 1] == 5.0).all()

    def test_matches_loop_reference_on_random_masks(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mask = rng.random((9, 12)) < 0.45
            if mask.any(axis=0).sum() < 2:
                continue
            f = Frame(np.where(mask, 1.0, 0.0), support_mask=mask)
            got = column_midpoints(f)
            ref = orc.midpoints_loop(mask)
            assert np.array_equal(got, ref)

    def test_empty_columns_are_skipped(self):
        mask = np.zeros((6, 5), dtype=bool)
        mask[2:4, 1] = True
        mask[2:4, 3] = True
        f = Frame(np.where(mask, 1.0, 0.0), support_mask=mask)
        pts = column_midpoints(f)
        assert pts[:, 0].tolist() == [1.0, 3.0]

    def test_needs_mask_and_two_columns(self):
        with pytest.raises(DataError):
            column_midpoints(Frame(np.ones((4, 4))))
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 2] = True
        with pytest.raises(DataError):
            column_midpoints(Frame(np.where(mask, 1.0, 0.0), support_mask=mask))


class TestMidline:
    def test_exact_on_collinear_points(self):
        pts = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]])
        line = fit_midline(pts)
        assert abs(line.slope - 2.0) < 1e-14
        assert abs(line.intercept - 1.0) < 1e-14
        assert line.n_used == 3

    def test_matches_least_squares_reference(self):
        rng = np.random.default_rng(8)
        x = np.arange(12.0)
        y = 0.3 * x + 2.0 + rng.normal(0, 0.4, 12)
        line = fit_midline(np.column_stack([x, y]))
        s, b = orc.ols_line(x, y)
        assert abs(line.slope - s) < 1e-10 and abs(line.intercept - b) < 1e-10

    def test_vertical_arrangement_rejected(self):
        with pytest.raises(DataError):
            fit_midline(np.array([[2.0, 1.0], [2.0, 5.0]]))


# ---------------------------------------------------------------------------
# SRLP
# ---------------------------------------------------------------------------


class TestSrlpParams:
    def test_canonical_pose_maps_to_exact_identity(self):
        f = band_frame(rows=10, cols=14, r0=3, r1=7)
        t = srlp_params(f)
        assert (t.theta, t.u, t.v) == (0.0, 0.0, 0.0)

    def test_unit_slope_gives_exact_quarter_pi(self):
        # one-pixel diagonal strictly below the midline: midpoints stay collinear
        n = 16
        vals = np.zeros((2 * n, n))
        for c in range(n - 1):
            vals[c + 1, c] = 5.0
        # equalize extents so no quarter-turn fires (rows span n-1, cols span n-1)
        f = Frame(vals, support_mask=vals > 0)
        t = srlp_params(f)
        assert t.theta == math.pi / 4.0

    def test_registration_levels_a_tilted_slab(self):
        # Slab sits wholly between the top edge and the centre row, so its
        # centre-facing edge is the feature the midline estimator tracks.
        vals = np.zeros((26, 30))
        vals[4:9, 2:28] = 6.0
        base = Frame(vals, support_mask=vals > 0)
        moved = apply_rigid(base, RigidTransform(0.15, 2.0, -0.5))
        out, t = srlp_register(moved)
        pts = column_midpoints(out)
        line = fit_midline(pts)
        assert abs(line.slope) < 0.02
        assert abs(np.median(pts[:, 1]) - 13.0) < 0.6
        # trailing edge of the slab lands at the last image column
        assert pts[:, 0].max() >= 27

    def test_two_poses_of_one_object_land_together(self):
        spec = PoseSpec(size=64, theta=0.12, offset=(2.0, -3.0), seed=5)
        canon, posed, _, _ = gen_pose_pair(spec)
        ra, _ = srlp_register(canon)
        rb, _ = srlp_register(posed)
        inter = ra.support_mask & rb.support_mask
        union = ra.support_mask | rb.support_mask
        assert inter.sum() / union.sum() > 0.8

    def test_quarter_turned_object_recovers_horizontal_pose(self):
        base = band_frame(rows=24, cols=24, r0=4, r1=9, heavy_low=True)
        turned = Frame(np.ascontiguousarray(np.rot90(base.values, -1)),
                       support_mask=np.ascontiguousarray(np.rot90(base.support_mask, -1)))
        out, t = srlp_register(turned)
        # the slab is undone exactly: one quarter turn plus a 3-row drop
        assert np.array_equal(out.support_mask[7:12], base.support_mask[4:9])
        assert np.allclose(out.values[7:12], base.values[4:9], atol=1e-9)
        pts = column_midpoints(out)
        assert abs(fit_midline(pts).slope) < 1e-12
        assert np.all(pts[:, 1] == 12.0)
        # heavy third ends up at low columns again
        w = out.values[out.support_mask]
        cc = np.nonzero(out.support_mask)[1]
        centroid = (w * cc).sum() / w.sum()
        assert centroid < 0.5 * (cc.min() + cc.max())

    def test_upside_down_mass_is_flipped_back(self):
        base = band_frame(rows=24, cols=24, r0=4, r1=9, heavy_low=True)
        flipped = Frame(np.ascontiguousarray(base.values[::-1, ::-1]),
                        support_mask=np.ascontiguousarray(base.support_mask[::-1, ::-1]))
        out, _ = srlp_register(flipped)
        assert np.array_equal(out.support_mask[7:12], base.support_mask[4:9])
        assert np.allclose(out.values[7:12], base.values[4:9], atol=1e-9)
        w = out.values[out.support_mask]
        cc = np.nonzero(out.support_mask)[1]
        centroid = (w * cc).sum() / w.sum()
        assert centroid < 0.5 * (cc.min() + cc.max())

    def test_requires_segmented_nonempty_support(self):
        with pytest.raises(DataError):
            srlp_params(Frame(np.ones((4, 4))))
        empty = Frame(np.zeros((4, 4)), support_mask=np.zeros((4, 4), dtype=bool))
        with pytest.raises(DataError):
            srlp_params(empty)


class TestQuarterTurn:
    """A frame's quarter turns, as the oracle counts them."""

    @staticmethod
    def frames(rng, mask, n):
        """Mass toward low or high columns (and rows) at random, plus an
        all-zero frame and a signed frame summing to zero."""
        rr, cc = np.indices(mask.shape)
        out = []
        for _ in range(n):
            ramp = cc if rng.random() < 0.5 else cc[:, ::-1]
            ramp = ramp + (rr if rng.random() < 0.5 else rr[::-1])
            out.append(np.where(mask, 1.0 + ramp * rng.uniform(0.5, 2.0) + rng.uniform(0, 1, mask.shape), 0.0))
        out.append(np.zeros(mask.shape))
        signed = np.zeros(mask.shape)
        r, c = np.nonzero(mask)
        signed[r[0], c[0]], signed[r[-1], c[-1]] = 2.5, -2.5
        out.append(signed)
        return np.stack(out)

    def test_matches_the_per_frame_turns(self):
        rng = np.random.default_rng(21)
        wide = np.zeros((12, 17), dtype=bool)
        wide[3:8, 1:16] = True
        wide[2, 4:9] = True
        seen = set()
        for mask in (wide, np.ascontiguousarray(wide.T), np.ascontiguousarray(wide[::-1, ::-1])):
            stack = self.frames(rng, mask, 12)
            got = [reg._quarter_turn(v, mask) for v in stack]
            assert got == [orc.quarter_turns_reference(v, mask) for v in stack]
            seen.update(got)
        assert seen == {0, 1, 2, 3}

    def test_needs_a_nonempty_mask(self):
        values = np.ones((3, 4))
        with pytest.raises(DataError, match="no support mask"):
            reg._quarter_turn(values, None)
        with pytest.raises(DataError, match="empty support"):
            reg._quarter_turn(values, np.zeros((3, 4), dtype=bool))


class TestApplyRigid:
    def test_integer_translation_moves_pixels_exactly(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(1.0, 9.0, (8, 9))
        f = Frame(vals, support_mask=np.ones((8, 9), dtype=bool))
        out = apply_rigid(f, RigidTransform(0.0, 2.0, 3.0))
        assert np.array_equal(out.values[2:, 3:], vals[:-2, :-3])
        assert not out.support_mask[:2, :].any() and not out.support_mask[:, :3].any()
        assert (out.values[:2, :] == 0.0).all()

    def test_bilinear_reproduces_affine_fields(self):
        rows, cols = 12, 15
        rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        vals = 2.0 + 3.0 * rr + 0.5 * cc
        f = Frame(vals.astype(float))
        t = RigidTransform(0.3, 1.2, -0.7)
        out = apply_rigid(f, t)
        inv = t.inverse()
        src = transform_points(inv, np.column_stack([rr.ravel() * 1.0, cc.ravel() * 1.0]))
        expect = 2.0 + 3.0 * src[:, 0] + 0.5 * src[:, 1]
        m = out.support_mask.ravel()
        assert np.allclose(out.values.ravel()[m], expect[m], atol=1e-10)

    def test_round_trip_preserves_values_on_overlap(self):
        # Smooth field: bilinear error is curvature-limited, so the round
        # trip must come back within a few percent away from the rim where
        # interpolation mixes in off-support zeros.
        base = band_frame(rows=20, cols=26, r0=6, r1=15)
        r, c = np.mgrid[:20, :26].astype(float)
        vals = np.where(base.support_mask, 5.0 + 0.1 * r + 0.2 * c + 1.5 * np.sin(r / 3.0) * np.cos(c / 4.0), 0.0)
        f = Frame(vals, support_mask=base.support_mask)
        t = RigidTransform(0.25, 1.0, -1.5)
        back = apply_rigid(apply_rigid(f, t), t.inverse())
        core = binary_erosion(back.support_mask & f.support_mask, np.ones((5, 5), dtype=bool))
        assert core.sum() > 50
        err = np.abs(back.values - f.values)[core].max()
        assert err <= 0.05 * f.values.max()

    def test_mask_holes_propagate_by_nearest_sample(self):
        vals = np.full((7, 7), 4.0)
        mask = np.ones((7, 7), dtype=bool)
        mask[3, 3] = False
        f = Frame(np.where(mask, vals, 0.0), support_mask=mask)
        out = apply_rigid(f, RigidTransform(0.0, 1.0, 0.0))
        assert not out.support_mask[4, 3]
        assert out.values[4, 3] == 0.0

    def test_nearest_interpolation_on_integer_shift(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(1, 5, (6, 6))
        f = Frame(vals)
        out = apply_rigid(f, RigidTransform(0.0, 1.0, 0.0), interp="nearest")
        assert np.array_equal(out.values[1:, :], vals[:-1, :])

    def test_signed_frames_stay_signed(self):
        vals = np.array([[1.0, -2.0], [0.5, 3.0]])
        f = Frame(vals, signed=True, support_mask=np.ones((2, 2), dtype=bool))
        out = apply_rigid(f, RigidTransform(0.0, 0.0, 0.0))
        assert np.array_equal(out.values, vals)

    def test_unknown_interp_rejected(self):
        with pytest.raises(DataError):
            apply_rigid(band_frame(), identity_transform(), interp="cubic")


class TestResampleOperator:
    """``_resample``'s sparse operator gives the dense formula's bytes.

    Random values make every bilinear row's products round, so a sparse
    product that fused a multiply and an add (FMA) would differ in the
    last bit somewhere; exact zeros and -0.0 samples check the sign of a
    row whose terms are all zero."""

    @staticmethod
    def transforms(rng, shape):
        yield RigidTransform(rng.uniform(-math.pi, math.pi), rng.uniform(-4, 4), rng.uniform(-4, 4))
        yield RigidTransform(0.0, float(rng.integers(-3, 4)), float(rng.integers(-3, 4)))
        yield reg._turn_transform(shape, int(rng.integers(1, 4)))[0]

    @staticmethod
    def stack(rng, n, shape):
        values = rng.standard_normal((n,) + shape) * 10.0 ** rng.uniform(-3, 3)
        values[rng.random(values.shape) < 0.2] = 0.0
        values[rng.random(values.shape) < 0.2] = -0.0
        return values

    def test_stacks_equal_the_dense_formula(self):
        rng = np.random.default_rng(5)
        for trial in range(80):
            shape = tuple(int(x) for x in rng.integers(1, 16, 2))
            values = self.stack(rng, int(rng.integers(1, 5)), shape)
            mask = rng.random(shape) < rng.uniform(0.3, 1.0) if trial % 4 else None
            for t in self.transforms(rng, shape):
                for interp in ("bilinear", "nearest"):
                    got, got_mask = reg._resample(values, mask, t, interp)
                    want, want_mask = orc.resample_dense(values, mask, t, interp)
                    assert got.tobytes() == want.tobytes()
                    assert np.array_equal(got_mask, want_mask)
                    assert got.flags.c_contiguous

    def test_signed_frames_through_apply_rigid(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            shape = tuple(int(x) for x in rng.integers(2, 14, 2))
            values = self.stack(rng, 1, shape)[0]
            f = Frame(values, support_mask=rng.random(shape) < 0.8, signed=True)
            for t in self.transforms(rng, shape):
                for interp in ("bilinear", "nearest"):
                    out = apply_rigid(f, t, interp)
                    want, want_mask = orc.resample_dense(values[None], f.support_mask, t, interp)
                    assert out.values.tobytes() == want[0].tobytes()
                    assert np.array_equal(out.support_mask, want_mask)
                    assert out.signed

    def test_a_row_of_negative_zero_terms_keeps_its_sign(self):
        values = np.full((1, 3, 4), -0.0)
        values[0, 0, 1] = -2.0  # zero-weight term of output pixel (1, 1): 0 * -2.0 is -0.0
        out, mask = reg._resample(values, None, RigidTransform(0.0, 1.0, 1.0))
        want, _ = orc.resample_dense(values, None, RigidTransform(0.0, 1.0, 1.0))
        assert out.tobytes() == want.tobytes()
        assert out[0, 1, 1] == 0.0 and np.signbit(out[0, 1, 1]) and out[0, 1, 2] == -2.0


class TestRegistrationError:
    def test_single_pair_displacement(self):
        pairs = np.array([[(0.0, 0.0), (5.0, -3.0)]])
        assert registration_error(identity_transform(), pairs) == 34.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(6)
        pairs = rng.uniform(-5, 5, (11, 2, 2))
        t = RigidTransform(0.4, 1.0, -2.0)
        got = registration_error(t, pairs)
        ref = orc.registration_error_loop(pairs, 0.4, 1.0, -2.0)
        assert abs(got - ref) < 1e-10

    def test_perfect_correspondence_is_zero(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-4, 4, (9, 2))
        t = RigidTransform(0.9, 2.0, 0.5)
        b = transform_points(t, a)
        pairs = np.stack([a, b], axis=1)
        assert registration_error(t, pairs) < 1e-20

    def test_shape_validated(self):
        with pytest.raises(DataError):
            registration_error(identity_transform(), np.zeros((0, 2, 2)))
        with pytest.raises(DataError):
            registration_error(identity_transform(), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# frame correlation
# ---------------------------------------------------------------------------


def noise_frame(rng, rows=6, cols=7, density=0.8):
    mask = rng.random((rows, cols)) < density
    vals = np.where(mask, rng.uniform(0.5, 9.0, (rows, cols)), 0.0)
    return Frame(vals, support_mask=mask)


class TestFrameCorrelation:
    def test_self_correlation_is_one(self):
        f = noise_frame(np.random.default_rng(0))
        assert abs(frame_correlation(f, f) - 1.0) < 1e-12

    def test_union_domain_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = noise_frame(rng), noise_frame(rng)
            ref = orc.pearson_union(a.values, a.support_mask, b.values, b.support_mask)
            assert abs(frame_correlation(a, b) - ref) < 1e-12

    def test_anticorrelated_frames(self):
        base = np.arange(12.0).reshape(3, 4) + 1.0
        a = Frame(base, support_mask=np.ones((3, 4), dtype=bool))
        b = Frame(base.max() + 1.0 - base, support_mask=np.ones((3, 4), dtype=bool))
        assert abs(frame_correlation(a, b) + 1.0) < 1e-12

    def test_constant_frame_is_undefined(self):
        mask = np.ones((3, 3), dtype=bool)
        a = Frame(np.full((3, 3), 2.0), support_mask=mask)
        b = noise_frame(np.random.default_rng(2), 3, 3)
        with pytest.raises(NumericError):
            frame_correlation(a, b)

    def test_whole_grid_domain(self):
        """A frame without a support mask counts as supported everywhere."""
        rng = np.random.default_rng(3)
        a, b = (Frame(noise_frame(rng, 5, 5).values) for _ in range(2))
        got = frame_correlation(a, b)
        full = np.ones((5, 5), dtype=bool)
        ref = orc.pearson_union(a.values, full, b.values, full)
        assert abs(got - ref) < 1e-12


# ---------------------------------------------------------------------------
# temporal alignment
# ---------------------------------------------------------------------------


def noise_movie(rng, n, rows=6, cols=6, fps=2.0, density=0.8):
    """``n`` noise frames on one random support mask, drawn for this movie."""
    mask = rng.random((rows, cols)) < density
    return Movie(np.where(mask, rng.uniform(0.5, 9.0, (n, rows, cols)), 0.0), mask, fps)


def shifted_pair(seed, n, lag, m0_pad=0):
    """Two windows of one master movie: b lags a by ``lag`` frames."""
    rng = np.random.default_rng(seed)
    master = noise_movie(rng, n + lag + m0_pad)
    return master[lag:], master[: len(master) - lag]


class TestIcrLag:
    def test_identical_movies_align_at_zero(self):
        m = noise_movie(np.random.default_rng(0), 30)
        lag = icr_lag(m, m, m0=5, max_lag=6)
        assert lag.j0 == 0
        assert lag.direction == "b-delayed"
        assert lag.cor_avg[list(lag.lags).index(0)] > 0.999999

    @pytest.mark.parametrize("true_lag", [1, 4, 9])
    def test_recovers_planted_lag(self, true_lag):
        a, b = shifted_pair(11, 40, true_lag)
        lag = icr_lag(a, b, m0=5, max_lag=12)
        assert lag.j0 == true_lag
        assert lag.direction == "b-delayed"

    def test_sign_flips_with_role_swap(self):
        a, b = shifted_pair(12, 40, 6)
        lag = icr_lag(b, a, m0=5, max_lag=12)
        assert lag.j0 == -6
        assert lag.direction == "a-delayed"

    def test_usable_counts_and_lag_span(self):
        a = noise_movie(np.random.default_rng(13), 410)
        b = noise_movie(np.random.default_rng(14), 410)
        lag = icr_lag(a, b, m0=10, max_lag=3)
        assert lag.n_used == (400, 400)
        assert lag.lags.tolist() == [-3, -2, -1, 0, 1, 2, 3]

    def test_lag_cap_shrinks_with_short_movies(self):
        a = noise_movie(np.random.default_rng(15), 8)
        b = noise_movie(np.random.default_rng(16), 8)
        lag = icr_lag(a, b, m0=2, max_lag=50)
        assert lag.lags.max() == 5  # min usable - 1

    @pytest.mark.parametrize("n_a, n_b, max_lag, flat", [
        (14, 17, 4, None),
        # more than two 64-frame band blocks, a lag window wider than a block,
        # and an all-zero frame of A in the second block (undefined band cells)
        (150, 137, 70, 93),
    ], ids=["short", "blocks"])
    def test_profile_matches_loop_reference(self, n_a, n_b, max_lag, flat):
        rng = np.random.default_rng(17)
        a, b = noise_movie(rng, n_a, 5, 5), noise_movie(rng, n_b, 5, 5)
        if flat is not None:
            values = a.values.copy()
            values[flat] = 0.0
            a = Movie(values, a.mask, a.fps)
        union = a.mask | b.mask
        assert union.sum() > max(a.mask.sum(), b.mask.sum())  # the domain is neither side's mask
        lag = icr_lag(a, b, m0=3, max_lag=max_lag)
        prof = orc.lag_profile_loop(list(a.values), [a.mask] * len(a), list(b.values), [b.mask] * len(b),
                                    3, max_lag)
        for idx, j in enumerate(lag.lags.tolist()):
            got = lag.cor_avg[idx]
            ref = prof[j]
            assert (math.isnan(got) and math.isnan(ref)) or abs(got - ref) < 1e-10
        assert lag.j0 == orc.best_lag_loop(prof)

    def test_tie_prefers_positive_then_small_magnitude(self):
        rng = np.random.default_rng(18)
        mask = rng.random((5, 5)) < 0.8
        # integer values make every self-correlation exactly 1, so the ties are exact
        p0, p1 = (np.where(mask, rng.integers(1, 10, mask.shape), 0.0) for _ in range(2))
        a, b = (Movie(np.stack([p0 if i % 2 == 0 else p1 for i in range(start, start + 20)]), mask, 1.0)
                for start in (0, 1))
        lag = icr_lag(a, b, m0=2, max_lag=3)
        assert lag.j0 == 1  # +1 and -1 tie at correlation 1; positive wins
        periodic = icr_lag(a, a, m0=2, max_lag=4)
        assert periodic.j0 == 0  # 0, +2, -2, ... tie; smallest magnitude wins

    def test_undefined_lags_are_skipped(self):
        rng = np.random.default_rng(19)
        m = noise_movie(rng, 10, 5, 5)
        values = m.values.copy()
        # all zero, so constant on any domain: one undefined pairing at each lag touching index 4
        values[4] = 0.0
        a = Movie(values, m.mask, 1.0)
        b = noise_movie(np.random.default_rng(20), 10, 5, 5)
        lag = icr_lag(a, b, m0=0, max_lag=2)
        assert np.isfinite(lag.cor_avg).all()

    def test_all_flat_movies_raise(self):
        m = Movie(np.full((8, 4, 4), 2.0), np.ones((4, 4), dtype=bool), 1.0)
        with pytest.raises(NumericError):
            icr_lag(m, m, m0=2, max_lag=2)

    def test_too_short_after_discard(self):
        m = noise_movie(np.random.default_rng(21), 10)
        with pytest.raises(DataError):
            icr_lag(m, m, m0=9, max_lag=2)

    def test_shape_mismatch(self):
        a = noise_movie(np.random.default_rng(22), 8, 5, 5)
        b = noise_movie(np.random.default_rng(23), 8, 6, 5)
        with pytest.raises(DataError):
            icr_lag(a, b, m0=2, max_lag=2)


class TestAlignMovies:
    def test_positive_lag_trims_front_of_b(self):
        a, b = shifted_pair(30, 400, 7)
        lag = icr_lag(a, b, m0=10, max_lag=10)
        assert lag.j0 == 7 and lag.n_used == (390, 390)
        oa, ob = align_movies(a[10:], b[10:], lag)
        assert len(oa) == len(ob) == 383
        for fa, fb in zip(oa, ob):
            assert np.array_equal(fa.values, fb.values)

    def test_documented_pair_count_for_lag_seven(self):
        # 400 usable frames on each side and j0 = 7 leave 393 pairs
        a, b = shifted_pair(31, 400, 7)
        lag = icr_lag(a, b, m0=0, max_lag=10)
        oa, ob = align_movies(a, b, lag)
        assert len(oa) == len(ob) == 393

    def test_negative_lag_mirrors(self):
        a, b = shifted_pair(32, 60, 5)
        lag = icr_lag(b, a, m0=5, max_lag=8)
        assert lag.j0 == -5
        oa, ob = align_movies(b, a, lag)
        assert len(oa) == len(ob) == 55
        for fa, fb in zip(oa, ob):
            assert np.array_equal(fa.values, fb.values)

    def test_unequal_lengths(self):
        rng = np.random.default_rng(33)
        a = noise_movie(rng, 40)
        b = noise_movie(rng, 35)
        lag = icr_lag(a, b, m0=5, max_lag=0)
        oa, ob = align_movies(a, b, lag)
        assert len(oa) == len(ob) == 35

    def test_no_overlap_rejected(self):
        a, b = shifted_pair(34, 10, 0)
        lag = icr_lag(a, b, m0=2, max_lag=2)
        short = b[:1]
        from dataclasses import replace

        big = replace(lag, j0=5)
        with pytest.raises(DataError):
            align_movies(a, short, big)
