"""Mixture fitting, model choice, and the optimal threshold."""

import math

import numpy as np
import pytest

from scipy.special import logsumexp

from lasr import (
    DataError,
    Frame,
    InitSpec,
    MixtureModel,
    Movie,
    NumericError,
    SegmentationResult,
    fit_mixture,
    optimal_threshold,
    pmc_oracle,
    positive_samples,
    segment_frame,
    segment_movie,
    select_model,
)
from lasr.segmentation import _logsumexp

import _oracles as orc


def model2(weights, means, sds):
    return MixtureModel(2, np.asarray(weights, float), np.asarray(means, float),
                        np.asarray(sds, float), 0.0, True, 0, np.array([0.0]))


def draw_mixture(rng, n, weights, means, sds):
    comp = rng.choice(len(weights), size=n, p=weights)
    return rng.normal(np.asarray(means)[comp], np.asarray(sds)[comp])


# ---------------------------------------------------------------------------
# closed-form thresholds
# ---------------------------------------------------------------------------


class TestThresholdClosedForms:
    def test_symmetric_equal_weight_threshold_is_midpoint(self):
        res = optimal_threshold(model2([0.5, 0.5], [0.0, 4.0], [1.0, 1.0]))
        assert res.method == "root"
        assert abs(res.t - 2.0) < 1e-12

    def test_three_to_one_weights_shift_log3_over_4(self):
        res = optimal_threshold(model2([0.75, 0.25], [0.0, 4.0], [1.0, 1.0]))
        assert res.method == "root"
        assert abs(res.t - (2.0 + math.log(3.0) / 4.0)) < 1e-12

    def test_root_balances_background_and_signal_density(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mu1 = rng.uniform(0.0, 2.0)
            mu2 = mu1 + rng.uniform(1.5, 8.0)
            sds = rng.uniform(0.4, 1.5, size=2)
            w1 = rng.uniform(0.2, 0.8)
            m = model2([w1, 1.0 - w1], [mu1, mu2], sds)
            res = optimal_threshold(m)
            if res.method != "root":
                continue
            bg = w1 * orc.normal_pdf(res.t, mu1, sds[0])
            sig = (1.0 - w1) * orc.normal_pdf(res.t, mu2, sds[1])
            assert abs(bg - sig) <= 1e-10 * max(bg, sig)

    def test_root_matches_grid_minimum_of_misclassification(self):
        m = model2([0.6, 0.4], [1.0, 5.0], [0.7, 1.1])
        res = optimal_threshold(m)
        t_grid, _ = orc.pmc_minimum(m.weights, m.means, m.sds)
        assert abs(res.t - t_grid) < 5e-5  # grid resolution

    def test_three_component_threshold_counts_all_signal(self):
        # with a third component the cut moves off the two-component root
        w = np.array([0.6, 0.25, 0.15])
        mu = np.array([0.0, 4.0, 7.0])
        sd = np.array([1.0, 1.0, 1.0])
        m = MixtureModel(3, w, mu, sd, 0.0, True, 0, np.array([0.0]))
        res = optimal_threshold(m)
        two = optimal_threshold(model2(w[:2] / w[:2].sum(), mu[:2], sd[:2]))
        assert res.t < two.t  # extra signal mass pulls the cut down
        bg = w[0] * orc.normal_pdf(res.t, 0.0, 1.0)
        sig = w[1] * orc.normal_pdf(res.t, 4.0, 1.0) + w[2] * orc.normal_pdf(res.t, 7.0, 1.0)
        assert abs(bg - sig) <= 1e-10 * max(bg, sig)

    def test_overlapping_components_fall_back_to_grid(self):
        m = model2([0.5, 0.5], [0.0, 0.5], [1.0, 5.0])
        res = optimal_threshold(m)
        assert res.method == "grid-fallback"
        lo, hi = 0.0, 0.5
        ts = np.linspace(lo, hi, 2001)
        vals = [orc.pmc_value(t, m.weights, m.means, m.sds) for t in ts]
        assert orc.pmc_value(res.t, m.weights, m.means, m.sds) <= min(vals) + 1e-12

    def test_pmc_oracle_agrees_with_reference_grid(self):
        m = model2([0.7, 0.3], [0.5, 6.0], [1.0, 1.4])
        t = pmc_oracle(m)
        t_ref, _ = orc.pmc_minimum(m.weights, m.means, m.sds)
        assert abs(t - t_ref) < 1e-4

    def test_single_component_has_no_threshold(self):
        m = MixtureModel(1, np.array([1.0]), np.array([2.0]), np.array([1.0]),
                         0.0, True, 0, np.array([0.0]))
        with pytest.raises(DataError):
            optimal_threshold(m)
        with pytest.raises(DataError):
            pmc_oracle(m)

    def test_root_outside_bracket_is_rejected(self):
        m = model2([0.5, 0.5], [0.0, 4.0], [1.0, 1.0])
        with pytest.raises(NumericError):
            SegmentationResult(5.0, m, "root")


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


class TestEm:
    def test_loglik_trace_never_decreases(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(200, 800))
            mu2 = rng.uniform(3.0, 9.0)
            x = draw_mixture(rng, n, [0.5, 0.5], [0.0, mu2], [1.0, rng.uniform(0.5, 2.0)])
            m = int(rng.integers(2, 4))
            model = fit_mixture(x, m, init=InitSpec(seed=trial))
            trace = np.asarray(model.loglik_trace)
            tol = 1e-7 * max(1.0, abs(trace[-1]))
            assert (np.diff(trace) >= -tol).all()

    def test_final_loglik_matches_reference_density(self):
        rng = np.random.default_rng(11)
        x = draw_mixture(rng, 300, [0.6, 0.4], [1.0, 6.0], [0.8, 1.2])
        model = fit_mixture(x, 2)
        ll = orc.mixture_loglik(x, model.weights, model.means, model.sds)
        assert abs(model.loglik - ll) < 1e-6 * abs(ll)

    def test_parameter_recovery_on_well_separated_data(self):
        true_w, true_mu, true_sd = [0.6, 0.4], [2.0, 7.0], [0.9, 1.3]
        n = 4000
        ok = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = draw_mixture(rng, n, true_w, true_mu, true_sd)
            m = fit_mixture(x, 2, init=InitSpec(seed=seed))
            good = True
            for k in range(2):
                se_mu = true_sd[k] / math.sqrt(n * true_w[k])
                se_sd = true_sd[k] / math.sqrt(2 * n * true_w[k])
                se_w = math.sqrt(true_w[k] * (1 - true_w[k]) / n)
                good &= abs(m.means[k] - true_mu[k]) < 5 * se_mu
                good &= abs(m.sds[k] - true_sd[k]) < 5 * se_sd
                good &= abs(m.weights[k] - true_w[k]) < 5 * se_w
            ok += good
        assert ok >= 9

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(2)
        x = rng.normal(5.0, 2.0, 500)
        m = fit_mixture(x, 1)
        assert m.m == 1 and m.converged
        assert abs(m.means[0] - x.mean()) < 1e-12
        assert abs(m.sds[0] - x.std()) < 1e-12
        ll = orc.mixture_loglik(x, [1.0], [x.mean()], [x.std()])
        assert abs(m.loglik - ll) < 1e-6 * abs(ll)

    def test_components_sorted_by_mean(self):
        rng = np.random.default_rng(4)
        x = draw_mixture(rng, 900, [0.3, 0.7], [8.0, 1.0], [1.0, 1.0])
        m = fit_mixture(x, 2)
        assert m.means[0] < m.means[1]
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_sd_floor_on_point_mass_components(self):
        x = np.array([1.0] * 100 + [9.0] * 100)
        m = fit_mixture(x, 2)
        floor = 1e-3 * x.std()
        assert (m.sds >= floor - 1e-15).all()
        assert np.isfinite(m.loglik)
        assert abs(m.means[0] - 1.0) < 1e-6 and abs(m.means[1] - 9.0) < 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        x = draw_mixture(rng, 400, [0.5, 0.5], [0.0, 5.0], [1.0, 1.0])
        a = fit_mixture(x, 2, init=InitSpec(seed=123))
        b = fit_mixture(x, 2, init=InitSpec(seed=123))
        assert (a.means == b.means).all() and (a.sds == b.sds).all()
        assert (a.weights == b.weights).all() and a.loglik == b.loglik

    @pytest.mark.parametrize(
        "x,m",
        [
            (np.array([]), 2),
            (np.array([1.0, np.nan]), 2),
            (np.array([3.0, 3.0, 3.0]), 2),   # fewer distinct values than m
            (np.array([3.0, 3.0, 3.0]), 1),   # zero spread
            (np.array([1.0, 2.0]), 0),
        ],
    )
    def test_degenerate_inputs_rejected(self, x, m):
        with pytest.raises(DataError):
            fit_mixture(x, m)


def assert_same_fit(model, ref):
    w, mu, sd, ll, converged, n_iter, trace = ref
    assert model.m == len(w)
    assert (model.weights == w).all() and (model.means == mu).all() and (model.sds == sd).all()
    assert model.loglik == ll and model.converged == converged and model.n_iter == n_iter
    assert model.loglik_trace.shape == trace.shape and (model.loglik_trace == trace).all()


class TestBatchedEm:
    """The restarts run as one batch; every fit equals the one-by-one oracle bit for bit."""

    SAMPLE = draw_mixture(np.random.default_rng(17), 400, [0.45, 0.35, 0.2], [0.0, 4.0, 9.0],
                          [1.0, 1.3, 1.0])

    @pytest.mark.parametrize("max_iter", [0, 3, 300])
    @pytest.mark.parametrize("n_restarts", [0, 1, 5])
    @pytest.mark.parametrize("m", [2, 3])
    def test_fit_equals_sequential_restarts(self, m, n_restarts, max_iter):
        init = InitSpec(n_restarts=n_restarts, seed=m + 10 * n_restarts)
        ref, iters = orc.em_reference(self.SAMPLE, m, n_restarts=n_restarts,
                                      jitter=init.jitter, seed=init.seed, max_iter=max_iter)
        if max_iter < 300:
            assert not ref[4]  # every start stops unconverged
        elif n_restarts == 5:
            assert len(set(iters)) > 1  # starts leave the batch at different iterations
        assert_same_fit(fit_mixture(self.SAMPLE, m, init=init, max_iter=max_iter), ref)

    def test_point_mass_sample_equals_oracle(self):
        x = np.array([1.0] * 100 + [9.0] * 100)
        ref, _ = orc.em_reference(x, 2)
        assert_same_fit(fit_mixture(x, 2), ref)

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    def test_logsumexp_matches_scipy_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((4, 300, m)) * 10.0 ** rng.integers(-3, 4, (4, 300, 1))
        a[0, :20] = np.round(a[0, :20])           # rounded rows: exact ties for the max
        a[0, 20:40] = a[0, 20:40, :1]             # every term tied
        # rows where scipy takes its non-finite fallback, and magnitudes near 1e308
        a[1, :10] = -np.inf
        a[1, 10:15, -1] = np.inf
        if m > 1:
            a[1, 15:20, 1:] = -np.inf
            a[1, 20:25, 0] = -np.inf
            a[1, 20:25, 1] = np.inf
        a[1, 30:40] = rng.uniform(-1.0, 1.0, (10, m)) * 1.7e308
        a[1, 40:50, 0] = 1.79e308
        with np.errstate(over="ignore"):  # scipy's own shift overflows near 1e308
            ref = logsumexp(a, axis=-1)
        assert (_logsumexp(np.moveaxis(a, -1, 0)) == ref).all()


class TestModelSelection:
    def test_two_component_data_selects_two(self):
        rng = np.random.default_rng(15)
        x = draw_mixture(rng, 1500, [0.55, 0.45], [1.0, 8.0], [1.0, 1.0])
        m = select_model(x, (1, 2, 3))
        assert m.m == 2

    def test_three_component_data_selects_three(self):
        rng = np.random.default_rng(16)
        x = draw_mixture(rng, 3000, [0.5, 0.3, 0.2], [1.0, 6.0, 12.0], [0.8, 0.9, 1.0])
        m = select_model(x, (2, 3))
        assert m.m == 3

    def test_single_gaussian_data_selects_one(self):
        rng = np.random.default_rng(17)
        x = rng.normal(4.0, 1.0, 2000)
        m = select_model(x, (1, 2, 3))
        assert m.m == 1

    def test_candidate_order_is_irrelevant(self):
        rng = np.random.default_rng(18)
        x = draw_mixture(rng, 800, [0.5, 0.5], [0.0, 6.0], [1.0, 1.0])
        a = select_model(x, (3, 2))
        b = select_model(x, (2, 3))
        assert a.m == b.m and a.loglik == b.loglik

    def test_bic_penalty_applied(self):
        # the winning model must maximize loglik - (3m-1)/2 ln n among fits
        rng = np.random.default_rng(19)
        x = draw_mixture(rng, 1200, [0.6, 0.4], [1.0, 7.0], [1.0, 1.0])
        chosen = select_model(x, (1, 2, 3))
        n = x.size
        bics = {}
        for m in (1, 2, 3):
            fit = fit_mixture(x, m)
            bics[m] = fit.loglik - (3 * m - 1) / 2.0 * math.log(n)
        assert bics[chosen.m] == max(bics.values())

    def test_empty_candidates_rejected(self):
        with pytest.raises(DataError):
            select_model(np.array([1.0, 2.0]), ())


# ---------------------------------------------------------------------------
# applying thresholds to frames
# ---------------------------------------------------------------------------


class TestSegmenting:
    def test_two_level_frame_keeps_high_plateau(self):
        vals = np.where(np.add.outer(np.arange(4), np.arange(5)) % 2 == 0, 5.0, 20.0)
        f = segment_frame(Frame(vals), 12.7)
        assert (f.support_mask == (vals == 20.0)).all()
        assert (f.values[f.support_mask] == 20.0).all()
        assert (f.values[~f.support_mask] == 0.0).all()

    def test_threshold_is_strict(self):
        f = segment_frame(Frame(np.array([[3.0, 3.0001]])), 3.0)
        assert f.support_mask.tolist() == [[False, True]]

    def test_segment_movie_applies_same_threshold(self):
        a = Frame(np.array([[1.0, 10.0]]))
        b = Frame(np.array([[10.0, 1.0]]))
        out = segment_movie(Movie((a, b), fps=1.0), 5.0)
        assert out[0].support_mask.tolist() == [[False, True]]
        assert out[1].support_mask.tolist() == [[True, False]]
        assert out.fps == 1.0

    def test_positive_samples_drops_exact_zeros(self):
        f = Frame(np.array([[0.0, 1.5], [2.5, 0.0]]))
        s = positive_samples(f)
        assert sorted(s.tolist()) == [1.5, 2.5]

    def test_positive_samples_ignores_negative_in_signed_frames(self):
        f = Frame(np.array([[-1.0, 2.0]]), signed=True)
        assert positive_samples(f).tolist() == [2.0]
