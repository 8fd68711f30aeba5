"""Difference maps, local quadratic smoothing, and the FDR screen."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import stdtrit

from lasr import (
    ConfigError,
    DataError,
    FdrConfig,
    Frame,
    NumericError,
    PhantomSpec,
    PMap,
    SmoothFit,
    TMap,
    bh_adjust,
    blob_field,
    degrees_of_freedom,
    difference_map,
    fdr_map,
    local_quadratic_smooth,
    p_map,
    pad_rim,
    refit,
    restrict_tmap,
    t_map,
)

import _oracles as orc
from _oracles import prds_covariance_check, residual_traces
from lasr import ssm


def noisy_diff(rows=9, cols=11, seed=0, mask=None, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = scale * rng.normal(0.0, 1.0, (rows, cols))
    if mask is None:
        mask = np.ones((rows, cols), dtype=bool)
    return Frame(np.where(mask, vals, 0.0), support_mask=mask, signed=True)


def blob_mask(rows, cols, pad=2):
    mask = np.zeros((rows, cols), dtype=bool)
    mask[pad:rows - pad, pad:cols - pad] = True
    return mask


# ---------------------------------------------------------------------------
# difference maps and rim padding
# ---------------------------------------------------------------------------


class TestDifferenceMap:
    def test_subtracts_on_intersection(self):
        ma = np.zeros((4, 5), dtype=bool)
        ma[1:3, 1:4] = True
        mb = np.zeros((4, 5), dtype=bool)
        mb[2:4, 0:3] = True
        a = Frame(np.where(ma, 7.0, 0.0), support_mask=ma)
        b = Frame(np.where(mb, 3.0, 0.0), support_mask=mb)
        d = difference_map(a, b)
        assert d.signed
        assert np.array_equal(d.support_mask, ma & mb)
        assert np.all(d.values[d.support_mask] == 4.0)
        assert np.all(d.values[~d.support_mask] == 0.0)

    def test_negative_differences_are_kept(self):
        a = Frame(np.full((3, 3), 1.0))
        b = Frame(np.full((3, 3), 5.0))
        d = difference_map(a, b)
        assert np.all(d.values == -4.0)

    def test_missing_masks_default_to_full(self):
        a = Frame(np.ones((2, 2)))
        b = Frame(np.zeros((2, 2)))
        assert difference_map(a, b).support_mask.all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            difference_map(Frame(np.ones((2, 2))), Frame(np.ones((2, 3))))


class TestPadRim:
    def test_matches_nearest_neighbor_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            rows, cols = rng.integers(5, 12, 2)
            mask = rng.random((rows, cols)) < 0.35
            if not mask.any():
                mask[rows // 2, cols // 2] = True
            vals = np.where(mask, rng.normal(0, 3, (rows, cols)), 0.0)
            rim = int(rng.integers(1, 4))
            got = pad_rim(Frame(vals, support_mask=mask, signed=True), rim)
            ref_vals, ref_mask = orc.nearest_padding_loop(vals, mask, rim)
            assert np.array_equal(got.support_mask, ref_mask)
            assert np.array_equal(got.values, ref_vals)

    def test_single_source_floods_its_box(self):
        vals = np.zeros((7, 7))
        vals[3, 3] = 7.0
        mask = vals > 0
        out = pad_rim(Frame(vals, support_mask=mask, signed=True), 1)
        assert out.support_mask.sum() == 9
        assert np.all(out.values[2:5, 2:5] == 7.0)
        assert out.values[1, 3] == 0.0 and not out.support_mask[1, 3]

    def test_ties_take_smallest_row_then_column(self):
        vals = np.zeros((3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        vals[0, 0], mask[0, 0] = 5.0, True
        vals[2, 0], mask[2, 0] = 9.0, True
        out = pad_rim(Frame(vals, support_mask=mask, signed=True), 1)
        assert out.values[1, 0] == 5.0  # equidistant: row 0 wins
        vals = np.zeros((3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        vals[0, 0], mask[0, 0] = 5.0, True
        vals[0, 2], mask[0, 2] = 9.0, True
        out = pad_rim(Frame(vals, support_mask=mask, signed=True), 1)
        assert out.values[0, 1] == 5.0  # equidistant: column 0 wins

    def test_beyond_rim_untouched(self):
        vals = np.zeros((9, 9))
        vals[4, 4] = 2.0
        out = pad_rim(Frame(vals, support_mask=vals > 0, signed=True), 2)
        assert out.support_mask[2:7, 2:7].all()
        assert out.support_mask.sum() == 25
        assert np.all(out.values[0, :] == 0.0)

    def test_rim_zero_and_full_mask_are_noops(self):
        f = noisy_diff(5, 5, seed=1)
        assert pad_rim(f, 0) is f
        assert pad_rim(f, 3) is f  # full mask: nothing to fill

    def test_huge_rim_stops_at_the_grid(self):
        """Past max(shape) steps the band covers the grid, so a rim beyond
        any C long pads as that one does."""
        rows, cols = 7, 12
        f = noisy_diff(rows, cols, seed=3, mask=blob_mask(rows, cols))
        want = pad_rim(f, max(rows, cols))
        got = pad_rim(f, 10**20)
        assert got.support_mask.all()
        assert np.array_equal(got.support_mask, want.support_mask)
        assert np.array_equal(got.values, want.values)

    def test_bad_inputs(self):
        f = noisy_diff(4, 4, seed=2)
        with pytest.raises(ConfigError):
            pad_rim(f, -1)
        with pytest.raises(DataError):
            pad_rim(Frame(np.ones((3, 3))), 1)  # no mask
        empty = Frame(np.zeros((3, 3)), support_mask=np.zeros((3, 3), bool), signed=True)
        with pytest.raises(DataError):
            pad_rim(empty, 1)


# ---------------------------------------------------------------------------
# local quadratic smoothing
# ---------------------------------------------------------------------------


class TestLocalQuadraticSmooth:
    @pytest.mark.parametrize("h,kernel", [(2.0, "tgauss"), (2.5, "tgauss"), (2.2, "tricube")])
    def test_matches_dense_reference_on_5x5(self, h, kernel):
        f = noisy_diff(5, 5, seed=3)
        fit = local_quadratic_smooth(f, h=h, kernel=kernel)
        pix, L, m_ref, stats = orc.dense_smooth(f.values, f.support_mask, h, kernel)
        assert fit.pixels.tolist() == [list(p) for p in pix]
        assert np.abs(fit.m_hat[f.support_mask] - m_ref).max() < 1e-9
        assert np.abs(fit.hat_norm[f.support_mask] - stats["hat_norm"]).max() < 1e-9
        assert np.abs(fit.hat.toarray() - L).max() < 1e-9
        assert abs(fit.rss - stats["rss"]) < 1e-9 * max(1.0, stats["rss"])
        assert abs(fit.delta1 - stats["delta1"]) < 1e-9 * stats["delta1"]
        assert abs(fit.delta2 - stats["delta2"]) < 1e-9 * stats["delta2"]
        tm = t_map(fit)
        assert abs(tm.df - stats["df"]) < 1e-9 * stats["df"]
        assert np.abs(tm.values[f.support_mask] - stats["t"]).max() < 1e-8

    def test_matches_dense_reference_on_ragged_mask(self):
        rng = np.random.default_rng(7)
        mask = np.ones((7, 8), dtype=bool)
        mask[0, :3] = False
        mask[6, 5:] = False
        mask[3, 0] = False
        vals = np.where(mask, rng.normal(0, 2, (7, 8)), 0.0)
        f = Frame(vals, support_mask=mask, signed=True)
        fit = local_quadratic_smooth(f, h=2.5, kernel="tgauss")
        _, L, m_ref, stats = orc.dense_smooth(vals, mask, 2.5, "tgauss")
        assert np.abs(fit.m_hat[mask] - m_ref).max() < 1e-9
        assert np.abs(fit.hat.toarray() - L).max() < 1e-9
        assert abs(fit.delta2 - stats["delta2"]) < 1e-9 * stats["delta2"]

    def test_reproduces_quadratic_surfaces_exactly(self):
        r, c = np.mgrid[:12, :14].astype(float)
        poly = 3.0 + 0.7 * r - 1.1 * c + 0.25 * r * r + 0.4 * c * c - 0.3 * r * c
        mask = blob_mask(12, 14, pad=0)
        mask[0, 0] = False  # ragged corner: exactness must not depend on the mask
        f = Frame(np.where(mask, poly, 0.0), support_mask=mask, signed=True)
        fit = local_quadratic_smooth(f, h=3.0)
        assert np.abs(fit.m_hat[mask] - poly[mask]).max() < 1e-8

    def test_hat_rows_sum_to_one(self):
        f = noisy_diff(10, 9, seed=4, mask=blob_mask(10, 9, pad=1))
        fit = local_quadratic_smooth(f, h=2.5)
        row_sums = np.asarray(fit.hat.sum(axis=1)).ravel()
        assert np.abs(row_sums - 1.0).max() < 1e-10

    def test_nan_off_mask_and_metadata(self):
        mask = blob_mask(8, 8, pad=2)
        f = noisy_diff(8, 8, seed=5, mask=mask)
        fit = local_quadratic_smooth(f, h=2.5, kernel="tgauss")
        assert np.isnan(fit.m_hat[~mask]).all()
        assert np.isfinite(fit.m_hat[mask]).all()
        assert fit.bandwidth == 2.5 and fit.kernel == "tgauss"
        assert fit.hat.shape == (mask.sum(), mask.sum())

    def test_deterministic(self):
        f = noisy_diff(9, 9, seed=6)
        a = local_quadratic_smooth(f, h=2.0)
        b = local_quadratic_smooth(f, h=2.0)
        assert np.array_equal(a.m_hat[f.support_mask], b.m_hat[f.support_mask])
        assert a.delta2 == b.delta2

    def test_refit_rejects_another_mask(self):
        mask = blob_mask(10, 11, pad=1)
        fit = local_quadratic_smooth(noisy_diff(10, 11, seed=8, mask=mask), h=2.5)
        other = mask.copy()
        other[5, 5] = False
        with pytest.raises(DataError, match="mask"):
            refit(fit, noisy_diff(10, 11, seed=9, mask=other))
        with pytest.raises(DataError, match="mask"):
            refit(fit, noisy_diff(11, 11, seed=9))

    def test_grid_wide_kernel_builds_in_bounded_memory(self):
        """At h = 1e6 the kernel covers a whole 38x41 grid (6561 offsets).
        Built 39 pixels at a time, the hat of ``lasr phantom``'s 590-px
        support peaks at about 30 MB of traced memory; in one block it
        took 159 MB."""
        mask = blob_field(PhantomSpec(center=(18.5, 20.0), radii=(0.30 * 38, 0.40 * 41)))[0] > 0
        assert mask.sum() == 590
        tracemalloc.start()
        try:
            fit = ssm._hat_fit(mask, 1e6, "tgauss", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.hat.shape == (590, 590)
        assert peak <= 40e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("h,block", [(3.0, 29 * 7), (1e6, 1 << 18)])
    def test_blocks_give_the_one_block_fit(self, monkeypatch, h, block):
        """The hat built a block of pixels at a time equals the one-block
        build to 1e-12 relative, but not bit for bit: a block's einsum and
        matrix product round some last bits differently (14 of the hat's
        entries at h = 3 in blocks of 7 pixels, 6183 at h = 1e6, by at most
        4.5e-15).  delta1 and delta2 came out equal in both."""
        mask = blob_mask(20, 24, pad=3)
        mask[3, 3:6] = False  # ragged corner
        monkeypatch.setattr(ssm, "_HAT_BLOCK", block)
        blocked = ssm._hat_fit(mask, h, "tgauss", 3)
        monkeypatch.setattr(ssm, "_HAT_BLOCK", 1 << 40)
        whole = ssm._hat_fit(mask, h, "tgauss", 3)
        assert blocked.hat.shape == whole.hat.shape
        assert abs(blocked.hat - whole.hat).max() <= 1e-12 * abs(whole.hat).max()
        assert np.abs(blocked.hat_norm[mask] - whole.hat_norm[mask]).max() <= 1e-12 * whole.hat_norm[mask].max()
        for name in ("delta1", "delta2"):
            assert abs(getattr(blocked, name) - getattr(whole, name)) <= 1e-12 * getattr(whole, name)

    def test_starved_neighborhood_rejected(self):
        mask = np.zeros((1, 10), dtype=bool)
        mask[0, :] = True
        f = Frame(np.ones((1, 10)), support_mask=mask, signed=True)
        with pytest.raises(NumericError):
            local_quadratic_smooth(f, h=1.0, kernel="tricube")

    def test_collinear_support_is_rank_deficient(self):
        # every pixel has >= 6 neighbors, but with only two distinct rows
        # the dr^2 column is a linear function of dr
        mask = np.zeros((4, 24), dtype=bool)
        mask[1:3, :] = True
        vals = np.where(mask, np.arange(24, dtype=float), 0.0)
        f = Frame(vals, support_mask=mask, signed=True)
        with pytest.raises(NumericError, match="rank-deficient"):
            local_quadratic_smooth(f, h=3.0, kernel="tgauss")

    def test_bad_config(self):
        f = noisy_diff(6, 6, seed=9)
        with pytest.raises(ConfigError):
            local_quadratic_smooth(f, h=0.0)
        with pytest.raises(ConfigError):
            local_quadratic_smooth(f, h=1.0, kernel="box")
        empty = Frame(np.zeros((4, 4)), support_mask=np.zeros((4, 4), bool), signed=True)
        with pytest.raises(DataError):
            local_quadratic_smooth(empty, h=1.0)


class TestFoldedRim:
    """The rim is a column map inside the hat matrix: H = R L P, support -> support."""

    @staticmethod
    def ragged_mask(rng):
        rows, cols = (int(v) for v in rng.integers(10, 14, 2))
        mask = blob_mask(rows, cols, pad=int(rng.integers(2, 4)))
        r0, c0 = np.argwhere(mask).min(axis=0)
        r1, c1 = np.argwhere(mask).max(axis=0)
        for r, c in ((r0, c0), (r0, c1), (r1, c0), (r1, c1)):  # bite the corners
            mask[r, c] = rng.random() < 0.3
        mask[r0, c0 + int(rng.integers(1, 3))] = False     # and notch an edge
        return mask

    @staticmethod
    def dense_folded_hat(mask, rim, h, kernel):
        """Dense R L P from the loop oracles: pad an index map, smooth the padded grid."""
        n = int(mask.sum())
        index = np.zeros(mask.shape)
        index[mask] = np.arange(n)
        src, padded = orc.nearest_padding_loop(index, mask, rim)
        assert padded.sum() > n  # the rim holds pixels within the kernel's reach
        pix, L, _, _ = orc.dense_smooth(src, padded, h, kernel)
        P = np.zeros((len(pix), n))
        for j, p in enumerate(pix):
            P[j, int(src[p])] = 1.0
        R = np.array([mask[p] for p in pix])
        return L[R] @ P

    def test_matches_dense_oracle_on_ragged_masks(self):
        rng = np.random.default_rng(23)
        for trial in range(6):
            mask = self.ragged_mask(rng)
            rim = 1 + trial % 3
            h, kernel = (2.5, "tgauss") if trial % 2 == 0 else (2.2, "tricube")
            vals = np.where(mask, rng.normal(0, 2, mask.shape), 0.0)
            diff = Frame(vals, support_mask=mask, signed=True)
            fit = local_quadratic_smooth(diff, h=h, kernel=kernel, rim=rim)
            H = self.dense_folded_hat(mask, rim, h, kernel)
            n = H.shape[0]
            d1, d2 = residual_traces(H)
            assert fit.hat.shape == (n, n) and np.array_equal(fit.mask, mask)
            assert np.abs(fit.hat.toarray() - H).max() < 1e-9
            assert np.abs(H.sum(axis=1) - 1.0).max() < 1e-9
            assert np.abs(np.asarray(fit.hat.sum(axis=1)).ravel() - 1.0).max() < 1e-9
            assert np.abs(fit.m_hat[mask] - H @ vals[mask]).max() < 1e-9
            assert np.abs(fit.hat_norm[mask] - np.sqrt((H * H).sum(axis=1))).max() < 1e-9
            assert abs(fit.delta1 - d1) < 1e-9 * d1
            assert abs(fit.delta2 - d2) < 1e-9 * d2

    def test_full_grid_has_no_rim(self):
        full = noisy_diff(8, 9, seed=25)
        a, b = local_quadratic_smooth(full, h=2.5), local_quadratic_smooth(full, h=2.5, rim=3)
        assert np.array_equal(a.m_hat, b.m_hat) and a.delta2 == b.delta2

    def test_negative_rim_rejected(self):
        with pytest.raises(ConfigError):
            local_quadratic_smooth(noisy_diff(6, 6, seed=26, mask=blob_mask(6, 6, pad=1)),
                                   h=2.0, rim=-1)


class TestResidualTraces:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(10)
        L = rng.normal(0, 0.3, (9, 9))
        d1, d2 = residual_traces(L)
        m = np.eye(9) - L
        lam = m.T @ m
        assert abs(d1 - np.trace(lam)) < 1e-12
        assert abs(d2 - np.trace(lam @ lam)) < 1e-10

    def test_agrees_with_fit_traces(self):
        f = noisy_diff(7, 7, seed=12)
        fit = local_quadratic_smooth(f, h=2.0)
        d1, d2 = residual_traces(fit.hat.toarray())
        assert abs(d1 - fit.delta1) < 1e-9
        assert abs(d2 - fit.delta2) < 1e-9
        assert degrees_of_freedom(fit) == (fit.delta1, fit.delta2)

    def test_requires_square(self):
        with pytest.raises(DataError):
            residual_traces(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# t-maps and p-values
# ---------------------------------------------------------------------------


class TestTMap:
    def test_statistic_definition(self):
        f = noisy_diff(8, 8, seed=13)
        fit = local_quadratic_smooth(f, h=2.0)
        tm = t_map(fit)
        mask = fit.mask
        want = fit.m_hat[mask] / (fit.sigma_hat * fit.hat_norm[mask])
        assert np.array_equal(tm.values[mask], want)
        assert tm.df == fit.delta1 ** 2 / fit.delta2
        assert np.isnan(tm.values[~mask]).all()

    @pytest.mark.parametrize("c", [0.1, 7.0, 1000.0])
    def test_scale_invariance(self, c):
        f = noisy_diff(9, 10, seed=14)
        scaled = Frame(c * f.values, support_mask=f.support_mask, signed=True)
        t1 = t_map(local_quadratic_smooth(f, h=2.0))
        t2 = t_map(local_quadratic_smooth(scaled, h=2.0))
        assert np.abs(t1.values[f.support_mask] - t2.values[f.support_mask]).max() < 1e-8

    def test_noiseless_input_rejected(self):
        # identical sessions difference to an exact zero field
        f = Frame(np.zeros((7, 7)), support_mask=np.ones((7, 7), bool), signed=True)
        fit = local_quadratic_smooth(f, h=2.0)
        assert fit.sigma_hat == 0.0
        with pytest.raises(NumericError, match="sigma_hat"):
            t_map(fit)

    def test_df_must_be_positive(self):
        with pytest.raises(NumericError):
            TMap(np.zeros((2, 2)), 0.0, np.ones((2, 2), bool))


class TestRestrictTmap:
    def test_drops_rim_estimates(self):
        f = noisy_diff(8, 8, seed=15)
        fit = local_quadratic_smooth(f, h=2.0)
        tm = t_map(fit)
        inner = blob_mask(8, 8, pad=2)
        sub = restrict_tmap(tm, inner)
        assert np.array_equal(sub.values[inner], tm.values[inner])
        assert np.isnan(sub.values[~inner]).all()
        assert sub.df == tm.df

    def test_mask_must_nest_and_match_shape(self):
        f = noisy_diff(6, 6, seed=16, mask=blob_mask(6, 6, pad=1))
        tm = t_map(local_quadratic_smooth(f, h=2.5))
        with pytest.raises(DataError):
            restrict_tmap(tm, np.ones((6, 6), bool))  # extends outside fit
        with pytest.raises(DataError):
            restrict_tmap(tm, np.ones((5, 6), bool))


class TestPMapValues:
    def test_upper_tail_matches_reference(self):
        tvals = np.array([[-3.0, -0.5, 0.0], [0.7, 2.2, 5.5]])
        tm = TMap(tvals, 17.3, np.ones((2, 3), bool))
        p = p_map(tm)
        for got, t in zip(p.ravel(), tvals.ravel()):
            assert abs(got - orc.t_sf_mp(t, 17.3)) < 1e-12

    def test_two_sided_matches_reference(self):
        tvals = np.array([[-2.0, 0.3, 1.7]])
        tm = TMap(tvals, 9.0, np.ones((1, 3), bool))
        p = p_map(tm, two_sided=True)
        for got, t in zip(p.ravel(), tvals.ravel()):
            assert abs(got - 2.0 * orc.t_sf_mp(abs(t), 9.0)) < 1e-12

    def test_nan_off_mask(self):
        mask = np.array([[True, False]])
        tm = TMap(np.where(mask, 1.0, np.nan), 5.0, mask)
        p = p_map(tm)
        assert np.isnan(p[0, 1]) and np.isfinite(p[0, 0])
        # a stack of grids on one mask gives each grid's p-values, bit for bit
        mask = np.array([[True, False, True], [True, True, False]])
        grids = np.where(mask, np.random.default_rng(3).normal(0.0, 2.0, (4, 2, 3)), np.nan)
        for two_sided in (False, True):
            stacked = p_map(TMap(grids, 5.0, mask), two_sided)
            assert stacked.shape == grids.shape
            for grid, p in zip(grids, stacked):
                assert p.tobytes() == p_map(TMap(grid, 5.0, mask), two_sided).tobytes()
                assert np.isnan(p[~mask]).all() and np.isfinite(p[mask]).all()


# ---------------------------------------------------------------------------
# FDR screen
# ---------------------------------------------------------------------------


class TestBhAdjust:
    def test_hand_example_bh(self):
        p = np.array([0.30, 0.01, 0.10, 0.04])
        rej, crit = bh_adjust(p, FdrConfig(q=0.25, mode="bh"))
        assert crit == pytest.approx(3 * 0.25 / 4, abs=1e-15)
        assert rej.tolist() == [False, True, True, True]

    def test_hand_example_by(self):
        p = np.array([0.30, 0.01, 0.10, 0.04])
        rej, crit = bh_adjust(p, FdrConfig(q=0.25, mode="by"))
        c4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25
        assert crit == pytest.approx(2 * 0.25 / (4 * c4), rel=1e-12)
        assert rej.tolist() == [False, True, False, True]

    @pytest.mark.parametrize("mode", ["bh", "by"])
    def test_matches_stepup_reference(self, mode):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(1, 41))
            p = rng.uniform(0, 1, m)
            if rng.random() < 0.3:
                p[rng.integers(0, m)] = 0.0  # force at least one rejection
            q = float(rng.uniform(0.01, 0.3))
            rej, crit = bh_adjust(p, FdrConfig(q=q, mode=mode))
            ref_rej, ref_crit = orc.bh_oracle(p, q, mode)
            assert np.array_equal(rej, ref_rej)
            assert crit == ref_crit

    @pytest.mark.parametrize("m", [1, 2, 590, 1558])
    def test_by_critical_value_equals_the_harmonic_sum_form(self, m):
        p = np.ones(m)
        k = max(1, m // 10)
        p[:k] = 0.0
        q = 0.05
        c = math.fsum(1.0 / i for i in range(1, m + 1))
        for _ in range(2):  # the second call reads the cached constant
            rej, crit = bh_adjust(p, FdrConfig(q=q, mode="by"))
            assert crit == float(k * q / (m * c))
            assert rej.sum() == k

    def test_ties_at_threshold(self):
        rej, crit = bh_adjust([0.05, 0.05], FdrConfig(q=0.05))
        ref_rej, ref_crit = orc.bh_oracle([0.05, 0.05], 0.05, "bh")
        assert np.array_equal(rej, ref_rej) and crit == ref_crit
        assert rej.all()

    def test_nothing_rejected(self):
        rej, crit = bh_adjust([0.9, 0.8, 0.95], FdrConfig(q=0.05))
        assert not rej.any() and crit == 0.0

    def test_single_small_p(self):
        rej, crit = bh_adjust([0.01], FdrConfig(q=0.05))
        assert rej.tolist() == [True] and crit == 0.05

    def test_bad_pvalues(self):
        with pytest.raises(DataError):
            bh_adjust([])
        with pytest.raises(DataError):
            bh_adjust([0.5, np.nan])
        with pytest.raises(DataError):
            bh_adjust([-0.1])
        with pytest.raises(DataError):
            bh_adjust([1.2])

    @pytest.mark.parametrize("mode", ["bh", "by"])
    def test_given_count_screens_the_stepup(self, mode):
        """With m given, the p-values left out (all above m q/(m c)) are
        never rejected, and the rest get the full list's result."""
        rng = np.random.default_rng(19)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            q = float(rng.uniform(0.01, 0.5))
            c = 1.0 if mode == "bh" else math.fsum(1.0 / i for i in range(1, m + 1))
            p = rng.uniform(0, 1, m) ** rng.uniform(1, 6)
            keep = p <= m * q / (m * c)
            rej, crit = bh_adjust(p[keep], FdrConfig(q, mode), m)
            full_rej, full_crit = bh_adjust(p, FdrConfig(q, mode))
            assert crit == full_crit
            assert np.array_equal(rej, full_rej[keep]) and not full_rej[~keep].any()

    def test_given_count_must_cover_the_pvalues(self):
        assert bh_adjust([], FdrConfig(), 5)[0].size == 0
        with pytest.raises(DataError, match="2 p-values for 1 tests"):
            bh_adjust([0.1, 0.2], FdrConfig(), 1)
        with pytest.raises(DataError):
            bh_adjust([], FdrConfig(), 0)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            FdrConfig(q=0.0)
        with pytest.raises(ConfigError):
            FdrConfig(q=1.0)
        with pytest.raises(ConfigError):
            FdrConfig(mode="holm")


class TestScreenedStepUp:
    """``_screened_pmaps`` computes p only where the step-up can reject; each
    map's critical p, rejections and P-map bytes are those of ``p_map`` ->
    ``bh_adjust`` -> ``fdr_map`` over every pixel."""

    @staticmethod
    def full_chain(grid, df, mask, fdr, two_sided):
        p = p_map(TMap(grid, df, mask), two_sided)
        rejected, critical = bh_adjust(p[mask], fdr)
        rej = np.zeros(mask.shape, dtype=bool)
        rej[mask] = rejected
        return fdr_map(p, rej, critical), rej

    @staticmethod
    def cap(df, m, fdr, two_sided):
        """The statistic at which p reaches the step-up's last threshold."""
        c = 1.0 if fdr.mode == "bh" else math.fsum(1.0 / i for i in range(1, m + 1))
        bound = m * fdr.q / (m * c)
        return -float(stdtrit(df, bound / 2.0 if two_sided else bound)), bound

    def stacks(self, rng, df, mask, fdr, two_sided):
        """Null, all-signal and mixed grids, and grids of statistics at and
        just around the cap and the screen's cut."""
        m = int(mask.sum())
        t_cap, bound = self.cap(df, m, fdr, two_sided)
        cut = ssm._screen(df, bound, two_sided)
        near = []
        for x in (t_cap, cut):
            near += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), x - 1e-7, x + 1e-7,
                     x - 1e-5, x + 1e-5]
        near = np.array(near)
        grids = [rng.normal(0.0, 1.0, mask.shape) - 3.0,            # nothing rejected
                 rng.uniform(t_cap + 5.0, t_cap + 40.0, mask.shape),  # every pixel rejected
                 rng.normal(0.0, 1.0, mask.shape) + np.where(rng.random(mask.shape) < 0.3, t_cap, 0.0),
                 rng.choice(near[:5], mask.shape),                     # every pixel within 1e-7 of the cap
                 rng.choice(near[[0, 2, 4]], mask.shape)]              # every pixel at or just above it
        for _ in range(4):
            g = rng.normal(0.0, 1.5, mask.shape)
            pick = rng.random(mask.shape) < rng.uniform(0.05, 0.9)
            g[pick] = rng.choice(near, int(pick.sum()))
            if two_sided:
                g[rng.random(mask.shape) < 0.5] *= -1.0
            grids.append(g)
        return np.where(mask, np.stack(grids), np.nan)

    @pytest.mark.parametrize("mode", ["bh", "by"])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_equals_the_full_chain(self, mode, two_sided):
        rng = np.random.default_rng(23 + 2 * (mode == "by") + two_sided)
        outcomes = set()
        for q in (0.01, 0.05, 0.2, 0.6, 0.95):
            for _ in range(3):
                shape = tuple(int(x) for x in rng.integers(3, 14, 2))
                mask = rng.random(shape) < 0.7
                mask.flat[0] = True
                df = float(rng.choice([2.5, 7.0, 31.4, 400.0]))
                fdr = FdrConfig(q, mode)
                t = self.stacks(rng, df, mask, fdr, two_sided)
                for grid, pm in zip(t, ssm._screened_pmaps(t, df, mask, fdr, two_sided)):
                    want, rej = self.full_chain(grid, df, mask, fdr, two_sided)
                    assert pm.critical_p == want.critical_p
                    assert pm.n_rejected == want.n_rejected
                    assert np.array_equal(pm.values != 0.0, rej)
                    assert pm.values.tobytes() == want.values.tobytes()
                    assert np.array_equal(pm.mask, want.mask)
                    outcomes.add(0 if not rej.any() else 2 if rej[mask].all() else 1)
        assert outcomes == {0, 1, 2}

    def test_the_guard_drops_a_cut_that_p_does_not_confirm(self, monkeypatch):
        """A quantile far off (here 20 where p reaches q near 1.7) would
        screen out rejectable pixels; p at the cut does not exceed the last
        threshold there, so nothing is screened out."""
        rng = np.random.default_rng(29)
        mask = np.ones((8, 9), dtype=bool)
        fdr = FdrConfig(0.05, "bh")
        t = np.stack([rng.normal(2.0, 1.0, mask.shape) for _ in range(3)])
        want = [self.full_chain(g, 30.0, mask, fdr, False)[0] for g in t]
        assert sum(w.n_rejected for w in want) > 0
        monkeypatch.setattr(ssm, "stdtrit", lambda df, p: -20.0)
        assert ssm._screen(30.0, 0.05, False) == -math.inf
        for pm, w in zip(ssm._screened_pmaps(t, 30.0, mask, fdr), want):
            assert pm.values.tobytes() == w.values.tobytes() and pm.critical_p == w.critical_p


class TestFdrMap:
    def test_values_are_one_minus_p_at_rejections(self):
        p = np.array([[0.01, 0.5], [np.nan, 0.02]])
        rej = np.array([[True, False], [False, True]])
        pm = fdr_map(p, rej, critical_p=0.025)
        assert pm.values[0, 0] == pytest.approx(0.99)
        assert pm.values[1, 1] == pytest.approx(0.98)
        assert pm.values[0, 1] == 0.0 and pm.values[1, 0] == 0.0
        assert pm.n_rejected == 2 and pm.critical_p == 0.025
        assert np.array_equal(pm.mask, ~np.isnan(p))

    def test_shape_and_nan_guards(self):
        with pytest.raises(DataError):
            fdr_map(np.zeros((2, 2)), np.zeros((2, 3), bool))
        p = np.array([[np.nan, 0.3]])
        with pytest.raises(DataError):
            fdr_map(p, np.array([[True, False]]))

    def test_pmap_range_guard(self):
        with pytest.raises(DataError):
            PMap(np.array([[1.5]]), 0.0, 1, np.ones((1, 1), bool))


class TestPrdsCheck:
    def test_matches_dense_row_products(self):
        f = noisy_diff(7, 7, seed=18)
        fit = local_quadratic_smooth(f, h=2.0)
        L = fit.hat.toarray()
        pix = [tuple(p) for p in fit.pixels]
        pairs = [(pix[2], pix[30]), (pix[10], pix[11]), (pix[0], pix[48])]
        want = np.inf
        for (a, b) in pairs:
            i, j = pix.index(a), pix.index(b)
            num = float(L[i] @ L[j])
            den = math.sqrt(float(L[i] @ L[i]) * float(L[j] @ L[j]))
            want = min(want, num / den)
        got = prds_covariance_check(fit, pairs)
        assert abs(got - want) < 1e-12

    def test_adjacent_pairs_strongly_positive(self):
        f = noisy_diff(13, 13, seed=19)
        fit = local_quadratic_smooth(f, h=3.0)
        pairs = [((6, 6), (6, 7)), ((6, 6), (7, 6)), ((5, 6), (6, 6))]
        assert prds_covariance_check(fit, pairs) > 0.5

    def test_midrange_pairs_dip_negative(self):
        # quadratic reproduction forces a negative ring in every hat row
        # (sum of p * dr^2 is zero), so row products at displacements near
        # one bandwidth dip below zero -- the screen reports, not hides, this
        f = noisy_diff(13, 13, seed=19)
        fit = local_quadratic_smooth(f, h=3.0)
        assert prds_covariance_check(fit, [((6, 6), (8, 8))]) < 0.0

    def test_pair_outside_mask_rejected(self):
        mask = blob_mask(8, 8, pad=2)
        f = noisy_diff(8, 8, seed=20, mask=mask)
        fit = local_quadratic_smooth(f, h=2.0)
        with pytest.raises(DataError):
            prds_covariance_check(fit, [((0, 0), (4, 4))])

    def test_no_pairs_rejected(self):
        f = noisy_diff(6, 6, seed=21)
        fit = local_quadratic_smooth(f, h=2.0)
        with pytest.raises(DataError):
            prds_covariance_check(fit, [])
