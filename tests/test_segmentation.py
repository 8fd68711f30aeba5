"""Mixture fitting, model choice, and the optimal threshold."""

import functools
import math

import numpy as np
import pytest

from scipy.special import logsumexp
from scipy.stats import norm

from lasr import (
    DataError,
    Frame,
    InitSpec,
    MixtureModel,
    NumericError,
    PhantomSpec,
    SegmentationResult,
    fit_mixture,
    gen_session,
    optimal_threshold,
    pmc_oracle,
    positive_samples,
    segment_frame,
    select_model,
)
from lasr import segmentation
from lasr.segmentation import _logsumexp

import _oracles as orc


def model2(weights, means, sds):
    return MixtureModel(2, np.asarray(weights, float), np.asarray(means, float),
                        np.asarray(sds, float), 0.0, True, 0, np.array([0.0]))


def draw_mixture(rng, n, weights, means, sds):
    comp = rng.choice(len(weights), size=n, p=weights)
    return rng.normal(np.asarray(means)[comp], np.asarray(sds)[comp])


def battery_sample(rep):
    """Replication ``rep`` of the BIC battery in test_acceptance (fit there with seed ``rep``)."""
    rng = np.random.default_rng(rep)
    n1 = int(rng.binomial(5000, 0.55))
    return np.concatenate([rng.normal(0.0, 1.0, n1), rng.normal(6.0, 1.5, 5000 - n1)])


def mean_frame_sample(seed):
    """EM sample of the first segment's raw mean frame (its frames averaged before any cut)."""
    layout, _ = gen_session(PhantomSpec(seed=seed))
    return positive_samples(Frame(layout.segments[0][1].values.mean(axis=0)))


# (sample, InitSpec seed) of the m = 3 fits where a hopeless start is cut
CUT_CASES = {
    "battery-12": (lambda: battery_sample(12), 12),
    "battery-32": (lambda: battery_sample(32), 32),
    "mean-frame-1": (lambda: mean_frame_sample(1), 0),
}


@functools.lru_cache(maxsize=None)
def cut_case(name):
    """The sample, its InitSpec, and the oracle's one-by-one m = 3 starts (slow, so shared)."""
    make, seed = CUT_CASES[name]
    x = make()
    return x, InitSpec(seed=seed), orc.em_starts(x, 3, seed=seed)


def record_batches(monkeypatch):
    """Every ``_em_batch`` result of the fits that follow, one list per call."""
    calls = []

    def recording(*args):
        calls.append(real(*args))
        return calls[-1]

    real = segmentation._em_batch
    monkeypatch.setattr(segmentation, "_em_batch", recording)
    return calls


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

    @staticmethod
    def random_models(rng, count):
        for _ in range(count):
            m = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(m))
            mu = np.sort(rng.uniform(-5.0, 50.0, m))
            sd = 10.0 ** rng.uniform(-3.0, 1.5, m)
            yield MixtureModel(m, w, mu, sd, 0.0, True, 0, np.array([0.0]))

    def test_closed_form_normal_equals_scipy_stats_at_points(self):
        # the brentq path: one scalar t per call, as a float and as np.float64
        rng = np.random.default_rng(23)
        for model in self.random_models(rng, 100):
            w, mu, sd = model.weights, model.means, model.sds
            ts = np.concatenate([rng.uniform(mu[0] - 3 * sd[0], mu[-1] + 3 * sd[-1], 15),
                                 mu + sd * rng.standard_normal(model.m) * 40.0])
            for t in ts:
                for arg in (float(t), t):
                    gap = (w[0] * norm.pdf(arg, loc=mu[0], scale=sd[0])
                           - sum(w[i] * norm.pdf(arg, loc=mu[i], scale=sd[i]) for i in range(1, model.m)))
                    pmc = w[0] * norm.sf(arg, loc=mu[0], scale=sd[0])
                    for i in range(1, model.m):
                        pmc = pmc + w[i] * norm.cdf(arg, loc=mu[i], scale=sd[i])
                    assert segmentation._density_gap(model, arg) == gap
                    assert segmentation._pmc(model, arg) == pmc

    def test_closed_form_normal_equals_scipy_stats_on_the_pmc_grid(self):
        rng = np.random.default_rng(29)
        for model in self.random_models(rng, 8):
            w, mu, sd = model.weights, model.means, model.sds
            grid = np.linspace(mu[0], mu.max(), 100001)
            gap = (w[0] * norm.pdf(grid, loc=mu[0], scale=sd[0])
                   - sum(w[i] * norm.pdf(grid, loc=mu[i], scale=sd[i]) for i in range(1, model.m)))
            pmc = w[0] * norm.sf(grid, loc=mu[0], scale=sd[0])
            for i in range(1, model.m):
                pmc = pmc + w[i] * norm.cdf(grid, loc=mu[i], scale=sd[i])
            assert (segmentation._density_gap(model, grid) == gap).all()
            assert (segmentation._pmc(model, grid) == pmc).all()
            assert pmc_oracle(model) == grid[int(np.argmin(pmc))]

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

    @pytest.mark.parametrize("name", list(CUT_CASES))
    def test_cut_starts_equal_oracle(self, name):
        x, init, runs = cut_case(name)
        ref, iters = orc.em_best(runs)
        uncut, own = orc.em_best(runs, cut=False)
        # the rule fires: some start stops before both the cap and its own stop
        assert any(k < min(300, stop) for k, stop in zip(iters, own)), (iters, own)
        model = fit_mixture(x, 3, init=init)
        assert_same_fit(model, ref)
        # no winner changes; at rate 1 the battery cases would fail here, as
        # a start there gains faster again after that rule would cut it
        assert_same_fit(model, uncut)

    def test_cut_saves_work_and_keeps_the_fit(self, monkeypatch):
        """A count of iterations, not a time: on the phantom mean frame at
        m = 3 the batch runs 857 start-iterations where the uncut starts run
        1268, and returns the uncut winner."""
        x, init, runs = cut_case("mean-frame-1")
        uncut, own = orc.em_best(runs, cut=False)
        _, iters = orc.em_best(runs)
        calls = record_batches(monkeypatch)
        model = fit_mixture(x, 3, init=init)
        (batch,) = calls
        assert [out[5] for out in batch] == iters
        assert sum(iters) < sum(own)
        assert_same_fit(model, uncut)

    @pytest.mark.parametrize("max_iter", [100, 300])
    def test_never_returns_a_cut_start(self, monkeypatch, max_iter):
        calls = record_batches(monkeypatch)
        for rep in (0, 10, 12, 20, 32):
            model = fit_mixture(battery_sample(rep), 3, init=InitSpec(seed=rep), max_iter=max_iter)
            assert model.converged or model.n_iter == max_iter, rep
        cut = [out for batch in calls for out in batch if not out[4] and out[5] < max_iter]
        assert cut  # the samples do have starts that leave early

    def test_large_sample_equals_oracle(self):
        # above numpy's 8192-element reduction buffer
        x = draw_mixture(np.random.default_rng(0), 9000, [0.5, 0.3, 0.2], [0.0, 4.0, 9.0],
                         [1.0, 1.2, 1.0])
        ref, _ = orc.em_reference(x, 3)
        assert_same_fit(fit_mixture(x, 3), ref)

    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("n", [9, 1558, 8193, 20000])
    def test_batch_row_sum_equals_one_start_sum(self, n, width):
        """What makes the batch equal to the one-by-one oracle: a row's sum
        over the last axis of an ``(m, R, n)`` array is the 1-D sum of it."""
        rng = np.random.default_rng(n + width)
        a = rng.random((3, width, n)) * 10.0 ** rng.integers(-3, 4, (3, width, 1))
        rows = a.sum(axis=-1)
        for k in range(3):
            for j in range(width):
                assert rows[k, j] == a[k, j].copy().sum()

    def test_em_batch_sums_only_contiguous_arrays(self):
        seen = []

        class Probe(np.ndarray):
            def sum(self, *args, **kwargs):
                seen.append((self.shape, self.flags.c_contiguous))
                return super().sum(*args, **kwargs)

        x = self.SAMPLE
        start = np.quantile(x, [1 / 6, 1 / 2, 5 / 6])
        mu = np.stack([start, start + 0.5, start - 0.5], axis=1)
        runs = segmentation._em_batch(x.view(Probe), np.full((3, 3), 1 / 3), mu,
                                      np.full((3, 3), x.std() / 3), 1e-3 * x.std(), 300)
        assert len({out[5] for out in runs}) > 1  # the batch narrows on the way
        batch_sums = [shape for shape, _ in seen if len(shape) == 3]
        assert len(batch_sums) == 3 * max(out[5] for out in runs)  # nk, mean and variance
        assert all(contiguous for _, contiguous in seen)

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

    def test_sizes_above_the_distinct_values_are_skipped(self):
        x = np.array([1.0] * 100 + [9.0] * 100)
        model = select_model(x, (2, 3))
        assert model.m == 2
        assert_same_fit(model, orc.em_reference(x, 2)[0])

    def test_no_feasible_size_names_the_count(self):
        with pytest.raises(DataError, match="the sample has 2"):
            select_model(np.array([1.0, 1.0, 4.0]), (3, 4))

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

    def test_positive_samples_drops_exact_zeros(self):
        f = Frame(np.array([[0.0, 1.5], [2.5, 0.0]]))
        s = positive_samples(f)
        assert sorted(s.tolist()) == [1.5, 2.5]

    def test_positive_samples_ignores_negative_in_signed_frames(self):
        f = Frame(np.array([[-1.0, 2.0]]), signed=True)
        assert positive_samples(f).tolist() == [2.0]
