"""Mixture fitting, model choice, and the optimal threshold."""

import functools
import inspect
import math
import sys
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from scipy.optimize import brentq
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
    load_session,
    optimal_threshold,
    pmc_oracle,
    positive_samples,
    segment_frame,
    select_model,
)
from lasr import pipeline, segmentation
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


# (sample, InitSpec seed) of m = 3 fits whose starts stop far apart: some
# converge early, others climb for hundreds of maps.  On battery reps 19,
# 58, 66, 86 and 97 a start that ends highest climbs slowly between leaps
# of its log-likelihood, and still has to win.
M3_CASES = {
    "battery-12": (lambda: battery_sample(12), 12),
    "battery-32": (lambda: battery_sample(32), 32),
    "mean-frame-1": (lambda: mean_frame_sample(1), 0),
    **{f"battery-{rep}": (functools.partial(battery_sample, rep), rep)
       for rep in (19, 58, 66, 86, 97)},
}


def plain_em(x, m, init, n_maps):
    """Each start's log-likelihood after ``n_maps`` plain EM maps (no
    extrapolation, no stop), from ``fit_mixture``'s starts."""
    sd_all = float(x.std())
    floor = max(1e-3 * sd_all, 1e-300)
    mu0 = np.quantile(x, (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m))
    rng = np.random.default_rng(init.seed)
    mu = np.stack([mu0] + [np.sort(mu0 + init.jitter * sd_all * rng.standard_normal(m))
                           for _ in range(init.n_restarts - 1)], axis=1)
    logp = segmentation._log_terms(x, np.full(mu.shape, 1.0 / m), mu, np.full(mu.shape, max(sd_all / m, floor)))
    lse = segmentation._logsumexp(logp)
    work, dev = np.empty_like(logp), np.empty_like(logp)
    for _ in range(n_maps):
        *_, logp, lse, ll = segmentation._em_map(x, logp, lse, floor, work, dev)
    return ll


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
        assert res.cut == 0  # background alone misclassifies least
        two = optimal_threshold(model2(w[:2] / w[:2].sum(), mu[:2], sd[:2]))
        assert res.t < two.t  # extra signal mass pulls the cut down
        bg = w[0] * orc.normal_pdf(res.t, 0.0, 1.0)
        sig = w[1] * orc.normal_pdf(res.t, 4.0, 1.0) + w[2] * orc.normal_pdf(res.t, 7.0, 1.0)
        assert abs(bg - sig) <= 1e-10 * max(bg, sig)

    # a raw mean frame's clipped background split in two, below one contact component
    BACKGROUND_PAIR = (np.array([0.35, 0.25, 0.40]), np.array([0.34, 0.48, 43.0]),
                       np.array([0.05, 0.12, 12.0]))

    def test_split_background_is_cut_from_the_contact(self):
        """The cut between the two background components misclassifies
        about a tenth of the mass; the cut k = 1 above both of them about
        1e-4, so it wins, and its threshold balances the pooled background
        against the contact."""
        w, mu, sd = self.BACKGROUND_PAIR
        m = MixtureModel(3, w, mu, sd, 0.0, True, 0, np.array([0.0]))
        res = optimal_threshold(m)
        assert res.cut == 1 and res.method == "root"
        assert mu[1] < res.t < mu[2]
        bg = w[0] * orc.normal_pdf(res.t, mu[0], sd[0]) + w[1] * orc.normal_pdf(res.t, mu[1], sd[1])
        sig = w[2] * orc.normal_pdf(res.t, mu[2], sd[2])
        assert abs(bg - sig) <= 1e-10 * max(bg, sig)
        inside = segmentation._cut_threshold(m, 0)
        assert inside.method == "root" and inside.t < mu[1]
        assert orc.pmc_value(res.t, w, mu, sd, cut=1) < 1e-3 < 0.05 < orc.pmc_value(inside.t, w, mu, sd)
        t_ref, _ = orc.pmc_minimum(w, mu, sd, cut=1)
        assert abs(res.t - t_ref) < 5e-4  # grid resolution
        assert abs(pmc_oracle(m, cut=1) - t_ref) < 5e-4

    def test_root_check_brackets_the_cut(self):
        w, mu, sd = self.BACKGROUND_PAIR
        m = MixtureModel(3, w, mu, sd, 0.0, True, 0, np.array([0.0]))
        SegmentationResult(1.0, m, "root", cut=1)
        with pytest.raises(NumericError):
            SegmentationResult(0.4, m, "root", cut=1)
        with pytest.raises(NumericError):
            SegmentationResult(1.0, m, "root")  # cut 0: the root lies in (mu_1, mu_2)

    def test_overlapping_components_fall_back_to_grid(self):
        m = model2([0.5, 0.5], [0.0, 0.5], [1.0, 5.0])
        res = optimal_threshold(m)
        assert res.method == "grid-fallback"
        lo, hi = 0.0, 0.5
        ts = np.linspace(lo, hi, 2001)
        vals = [orc.pmc_value(t, m.weights, m.means, m.sds) for t in ts]
        assert orc.pmc_value(res.t, m.weights, m.means, m.sds) <= min(vals) + 1e-12

    def test_root_search_out_of_iterations_falls_back_to_grid(self):
        """This mixture's gap is subnormal over most of (mu_1, mu_2): the root
        search (scipy's brentq too) uses up its 100 iterations, and the cut
        comes from the PMC grid."""
        m = MixtureModel(3, np.array([0.7215354597890838, 0.20690290489245397, 0.07156163531846199]),
                         np.array([3.450694307312613, 32.826037653221405, 45.275694437605026]),
                         np.array([0.004051550208888957, 0.7734164981757647, 0.002402562485855008]),
                         0.0, True, 0, np.array([0.0]))
        lo, hi = float(m.means[0]), float(m.means[1])
        gap = functools.partial(segmentation._density_gap, m)
        with pytest.raises(RuntimeError, match="100 iterations"):
            brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16)
        with pytest.raises(NumericError, match="did not converge after 100 iterations"):
            segmentation._brentq(gap, lo, hi, float(gap(lo)), float(gap(hi)), 1e-14, 8.9e-16)
        res = optimal_threshold(m)
        assert res.method == "grid-fallback" and res.t == pmc_oracle(m)
        t_ref, _ = orc.pmc_minimum(m.weights, m.means, m.sds)
        assert abs(res.t - t_ref) < 1e-3

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
        # the root search's path: one scalar t per call, as a float and as np.float64
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
# the root search: a port of scipy's brentq
# ---------------------------------------------------------------------------


# the branches of ``_brentq`` counted, each by the text of its one line
BRENT_BRANCHES = {
    "interpolate": "stry = -fcur * (xcur - xpre)",
    "extrapolate": "dpre = (fpre - fcur)",
    "zero division": "except ZeroDivisionError",
    "rejected step": "spre = scur = sbis",
    "minimum step": "xcur += delta if sbis > 0 else -delta",
}


@contextmanager
def counting_branches():
    """Counts, by name, the lines of ``BRENT_BRANCHES`` that ``_brentq`` runs."""
    lines, first = inspect.getsourcelines(segmentation._brentq)
    where = {first + i: name for name, text in BRENT_BRANCHES.items()
             for i, line in enumerate(lines) if text in line}
    assert sorted(Counter(where.values()).items()) == sorted(
        (name, 2 if name == "rejected step" else 1) for name in BRENT_BRANCHES)
    code = segmentation._brentq.__code__
    counts = Counter()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in where:
            counts[where[frame.f_lineno]] += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield counts
    finally:
        sys.settrace(old)


def port(f, lo, hi, xtol, rtol):
    return segmentation._brentq(f, lo, hi, float(f(lo)), float(f(hi)), xtol, rtol)


class TestBrentPort:
    """``_brentq`` takes scipy's ``brentq`` iterates, so every root is equal with ``==``."""

    XTOL, RTOL = 1e-14, 8.9e-16  # optimal_threshold's tolerances

    @staticmethod
    def bracketed_models(rng, count):
        """Random m = 2-4 mixtures (sds down to 1e-3) whose gap changes sign on (mu_1, mu_2)."""
        found = 0
        while found < count:
            for model in TestThresholdClosedForms.random_models(rng, 1):
                lo, hi = float(model.means[0]), float(model.means[1])
                glo, ghi = (segmentation._density_gap(model, x) for x in (lo, hi))
                if np.isfinite(glo) and np.isfinite(ghi) and glo > 0 > ghi:
                    found += 1
                    yield model, functools.partial(segmentation._density_gap, model), lo, hi

    def test_mixture_roots_equal_scipy(self):
        """A gap that is subnormal over most of the bracket can use up the
        100 iterations: scipy raises RuntimeError there, the port NumericError."""
        rng = np.random.default_rng(31)
        roots = capped = 0
        with counting_branches() as counts:
            for model, gap, lo, hi in self.bracketed_models(rng, 2000):
                try:
                    expected = brentq(gap, lo, hi, xtol=self.XTOL, rtol=self.RTOL)
                except RuntimeError:
                    with pytest.raises(NumericError, match="did not converge after 100 iterations"):
                        port(gap, lo, hi, self.XTOL, self.RTOL)
                    capped += 1
                    continue
                t = port(gap, lo, hi, self.XTOL, self.RTOL)
                assert t == expected
                res = optimal_threshold(model)
                if res.method == "root":
                    k = res.cut  # a cut above the lowest component has its own bracket
                    assert res.t == (t if k == 0 else port(
                        functools.partial(segmentation._density_gap, model, cut=k),
                        float(model.means[k]), float(model.means[k + 1]), self.XTOL, self.RTOL))
                    roots += 1
        assert roots > 1000 and capped < 5
        for name in ("interpolate", "extrapolate", "rejected step", "minimum step"):
            assert counts[name] > 100, name

    # f, lo, hi: gaps so small that the extrapolation's products underflow
    # to 0 (C divides 0 by 0 there and bisects), and plain roots that end
    # in steps of the minimum length delta
    HAND_MADE = [
        (lambda x: 1e-200 * (x ** 3 - 2.0 * x - 5.0), 2.0, 3.0),
        (lambda x: 1e-170 * (math.exp(x) - 3.0), -1.0, 4.0),
        (lambda x: -1e-190 * math.atan(x - 0.3) * (x * x + 1.0), -2.0, 5.0),
        (lambda x: x - 1.0 / 3.0, 0.0, 1.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    ]

    def test_hand_made_cases_reach_the_zero_division_and_minimum_steps(self):
        with counting_branches() as counts:
            for f, lo, hi in self.HAND_MADE:
                for xtol in (self.XTOL, 1e-9, 2e-12):
                    assert port(f, lo, hi, xtol, self.RTOL) == brentq(f, lo, hi, xtol=xtol, rtol=self.RTOL)
        assert counts["zero division"] > 0
        assert counts["minimum step"] > 0

    def test_random_cubics_and_tolerances_equal_scipy(self):
        rng = np.random.default_rng(37)
        cases = 0
        while cases < 1000:
            c = rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0, 4)
            lo, hi = np.sort(rng.uniform(-10.0, 10.0, 2)).tolist()
            f = lambda x, c=c.tolist(): ((c[0] * x + c[1]) * x + c[2]) * x + c[3]
            if not f(lo) * f(hi) < 0:
                continue
            cases += 1
            xtol = 10.0 ** rng.uniform(-15.0, -1.0)
            rtol = 8.9e-16 * 10.0 ** rng.uniform(0.0, 8.0)
            assert port(f, lo, hi, xtol, rtol) == brentq(f, lo, hi, xtol=xtol, rtol=rtol)

    def test_iteration_cap_matches_scipy_non_convergence(self, monkeypatch):
        rng = np.random.default_rng(41)
        failed = 0
        for model, gap, lo, hi in self.bracketed_models(rng, 300):
            cap = int(rng.integers(1, 12))
            monkeypatch.setattr(segmentation, "_BRENT_MAXITER", cap)
            try:
                expected = brentq(gap, lo, hi, xtol=self.XTOL, rtol=self.RTOL, maxiter=cap)
            except RuntimeError:
                with pytest.raises(NumericError, match=f"did not converge after {cap} iterations"):
                    port(gap, lo, hi, self.XTOL, self.RTOL)
                failed += 1
            else:
                assert port(gap, lo, hi, self.XTOL, self.RTOL) == expected
        assert 0 < failed < 300

    def test_nan_value_raises_numeric_error(self):
        """scipy refuses a nan function value with ValueError; the port raises NumericError."""
        f = lambda x: math.nan if x == 0.5 else 1.0 - 2.0 * x  # the first step bisects onto 0.5
        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0, xtol=self.XTOL, rtol=self.RTOL)
        with pytest.raises(NumericError, match="is nan"):
            port(f, 0.0, 1.0, self.XTOL, self.RTOL)


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
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_fit_equals_sequential_restarts(self, m, n_restarts, max_iter):
        """m = 2 and 3 take the closed-form normaliser; m = 4 takes scipy's
        ``logsumexp`` inside the batch."""
        init = InitSpec(n_restarts=n_restarts, seed=m + 10 * n_restarts)
        runs = orc.em_starts(self.SAMPLE, m, n_restarts=n_restarts, jitter=init.jitter,
                             seed=init.seed, max_iter=max_iter)
        ref, iters = orc.em_best(runs), [out[5] for out in runs]
        if max_iter < 300:
            assert not ref[4]  # every start stops unconverged
        elif n_restarts == 5 and m > 2:
            # starts leave the batch at different maps (m = 2's five all stop at map 18)
            assert len(set(iters)) > 1
        assert_same_fit(fit_mixture(self.SAMPLE, m, init=init, max_iter=max_iter), ref)

    def test_point_mass_sample_equals_oracle(self):
        x = np.array([1.0] * 100 + [9.0] * 100)
        ref = orc.em_reference(x, 2)
        assert_same_fit(fit_mixture(x, 2), ref)

    @pytest.mark.parametrize("name", list(M3_CASES))
    def test_m3_fit_equals_oracle(self, name):
        make, seed = M3_CASES[name]
        x = make()
        assert_same_fit(fit_mixture(x, 3, init=InitSpec(seed=seed)), orc.em_reference(x, 3, seed=seed))

    @pytest.mark.parametrize("max_iter", [100, 300])
    def test_never_returns_a_cut_start(self, max_iter):
        """No start is cut short: the winner converged or reached ``max_iter``."""
        for rep in (0, 10, 12, 20, 32):
            model = fit_mixture(battery_sample(rep), 3, init=InitSpec(seed=rep), max_iter=max_iter)
            assert model.converged or model.n_iter == max_iter, rep

    def test_large_sample_equals_oracle(self):
        # longer than numpy's default 8192-element ufunc buffer, under which
        # the oracle sums, and than the EM's own: neither may split a row's sum
        x = draw_mixture(np.random.default_rng(0), 9000, [0.5, 0.3, 0.2], [0.0, 4.0, 9.0],
                         [1.0, 1.2, 1.0])
        ref = orc.em_reference(x, 3)
        assert_same_fit(fit_mixture(x, 3), ref)

    @pytest.mark.parametrize("n, width, bufsize", [
        pytest.param(n, width, bufsize, id=f"{n}-{width}{suffix}")
        for suffix, bufsize in (("", None), ("-em-buffer", segmentation._EM_BUFSIZE))
        for n in (9, 1558, 8193, 20000) for width in (1, 5)])
    def test_batch_row_sum_equals_one_start_sum(self, n, width, bufsize):
        """What makes the batch equal to the one-by-one oracle: a row's sum
        over the last axis of an ``(m, R, n)`` array, at numpy's default
        ufunc buffer or under the EM's, is the 1-D sum of it at the default,
        which is how the oracle sums."""
        rng = np.random.default_rng(n + width)
        a = rng.random((3, width, n)) * 10.0 ** rng.integers(-3, 4, (3, width, 1))
        default = np.getbufsize()
        np.setbufsize(bufsize or default)
        try:
            rows = a.sum(axis=-1)
        finally:
            np.setbufsize(default)
        for k in range(3):
            for j in range(width):
                assert rows[k, j] == a[k, j].copy().sum()

    def test_em_buffer_is_scoped_to_the_batch(self, monkeypatch):
        """``_em_batch`` runs under ``_EM_BUFSIZE`` and gives the caller's
        buffer back when it returns and when it raises."""
        x = self.SAMPLE
        caller = 4096  # neither numpy's default nor the EM's
        old = np.setbufsize(caller)
        try:
            fit_mixture(x, 3)
            assert np.getbufsize() == caller
            select_model(x)
            assert np.getbufsize() == caller
            seen = []

            def failing(*args):
                seen.append(np.getbufsize())
                raise RuntimeError("map failed")

            monkeypatch.setattr(segmentation, "_em_map", failing)
            with pytest.raises(RuntimeError, match="map failed"):
                fit_mixture(x, 3)
            assert seen == [segmentation._EM_BUFSIZE]
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("shape", ["batch", "flat"])
    def test_exp_helper_equals_np_exp_bit_for_bit(self, shape):
        """``_exp_inplace`` skips exp on the lanes below its cutoff and must
        still give ``np.exp``'s bits on every lane: normal, subnormal and
        zero results, each side of the rounding edge and of the cutoff,
        deep negatives, overflow and the special values."""
        rng = np.random.default_rng(7)
        edge = -745.1332191019412  # ln 2**-1075: exp rounds to 0 below it

        def ulps_around(v, k=2000):
            return (np.array([v]).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)

        a = np.concatenate([
            rng.uniform(-700.0, 700.0, 3000),                   # normal results
            rng.uniform(-745.13, -708.4, 3000),                 # subnormal results
            ulps_around(edge), ulps_around(segmentation._EXP_ZERO_BELOW),
            ulps_around(np.log(np.finfo(np.float64).max)),      # the overflow edge
            -np.logspace(3.0, 308.0, 3000),                     # deep negatives to -1e308
            rng.uniform(709.79, 1e4, 500),                      # overflow
            [-np.inf, np.inf, np.nan, 0.0, -0.0, -1.7976931348623157e308],
        ])
        a = np.concatenate([a, np.zeros(-a.size % 15)])
        if shape == "batch":
            a = rng.permutation(a).reshape(3, 5, -1)  # C-contiguous (m, R, n)
        with np.errstate(over="ignore"):
            ref = np.exp(a)
            got = segmentation._exp_inplace(a.copy())
            default = np.setbufsize(segmentation._EM_BUFSIZE)
            try:
                got_em = segmentation._exp_inplace(a.copy())  # as the batch runs it
            finally:
                np.setbufsize(default)
        for out in (got, got_em):
            assert out.shape == ref.shape and out.flags.c_contiguous
            assert (out.view(np.uint64) == ref.view(np.uint64)).all()

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

    @pytest.mark.parametrize("max_iter", [22, 300])
    def test_batch_is_copied_only_when_a_start_leaves(self, max_iter):
        """One ``compress`` of the ``(m, R, n)`` batch per cycle in which
        some start converged or reached ``max_iter``, except the cycle in
        which the last starts leave, which returns instead."""
        kept = []

        class Probe(np.ndarray):
            def compress(self, *args, **kwargs):
                out = super().compress(*args, **kwargs)
                if self.ndim == 3:
                    kept.append(out.shape[1])
                return out

        x = self.SAMPLE
        start = np.quantile(x, [1 / 6, 1 / 2, 5 / 6])
        mu = np.stack([start + d for d in (0.0, 0.5, -0.5, 1.0, -1.0)], axis=1)
        runs = segmentation._em_batch(x.view(Probe), np.full((3, 5), 1 / 3), mu,
                                      np.full((3, 5), x.std() / 3), 1e-3 * x.std(), max_iter)
        if max_iter == 22:
            # starts leave converged (15, 21) and at the cap (22, three of
            # them, after seven cycles and one plain map)
            assert [(out[4], out[5]) for out in runs] == [
                (False, 22), (True, 21), (False, 22), (True, 15), (False, 22)]
        leaves = sorted({out[5] for out in runs})
        assert max(leaves) > 2 * len(leaves)  # in most cycles no start leaves
        assert len(kept) == len(leaves) - 1
        assert kept == [sum(out[5] > k for out in runs) for k in leaves[:-1]]

    def test_extrapolation_is_kept_per_start(self, monkeypatch):
        """In some cycle of a fit the oracle matches, one start keeps its
        SqS3 point and another, whose log-likelihood there is below its
        second EM map's, falls back to that map's point."""
        decisions = []
        real = segmentation._extrapolate

        def recording(p0, p1, p2, floor):
            ext = real(p0, p1, p2, floor)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                ll = [segmentation._logsumexp(segmentation._log_terms(x, *p)).sum(axis=1) for p in (ext, p2)]
            decisions.append(ll[0] >= ll[1])
            return ext

        x = self.SAMPLE
        monkeypatch.setattr(segmentation, "_extrapolate", recording)
        model = fit_mixture(x, 3, init=InitSpec(n_restarts=5, seed=53))
        assert_same_fit(model, orc.em_reference(x, 3, seed=53))
        assert any(kept.any() and not kept.all() for kept in decisions)

    def test_capped_fit_now_converges(self):
        """The raw mean frame of ``PhantomSpec(seed=3)``'s first segment: the
        m = 3 winner of 300 plain EM maps stopped unconverged at the cap
        (log-likelihood -2821.66667).  The SQUAREM fit converges in fewer
        maps and ends above the best start of those 300 plain maps, and
        within 1e-3 of the best of 5000 plain maps (it ends 4.6e-4 below
        it: the stop on a gain of at most ``_TOL`` relative leaves that
        much on this slow ridge)."""
        x = mean_frame_sample(3)
        init = InitSpec(seed=0)
        model = fit_mixture(x, 3, init=init)
        assert model.converged and model.n_iter < 300
        plain = {cap: plain_em(x, 3, init, cap).max() for cap in (300, 5000)}
        assert plain[300] < model.loglik
        assert model.loglik >= plain[5000] - 1e-3

    @staticmethod
    def clean_batch(rng, m, shape=(5, 400)):
        """A finite ``(m, R, n)`` batch with no tie in any column, its columns
        at magnitudes from 1e-3 to 1e3 and shifted as log densities are."""
        scale = 10.0 ** rng.integers(-3, 4, shape)
        a = rng.standard_normal((m,) + shape) * scale - rng.uniform(0.0, 50.0, shape)
        top = np.sort(a, axis=0)
        assert (top[-1] > top[-2]).all()
        return a

    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_matches_scipy_bit_for_bit(self, m):
        rng = np.random.default_rng(20 + m)
        batches = [self.clean_batch(rng, m) for _ in range(6)]
        low = self.clean_batch(rng, m)
        low[np.argmin(low, axis=0), np.arange(5)[:, None], np.arange(400)] = -np.inf
        batches.append(low)  # a term of -inf below a finite maximum
        if m == 3:
            # the two terms below the maximum tie: scipy still counts one maximum
            below = self.clean_batch(rng, m)
            below.sort(axis=0)
            below[0] = below[1]
            batches.append(below)
        for a in batches:
            assert segmentation._logsumexp_closed(a) is not None
            ref = logsumexp(np.moveaxis(a, 0, -1), axis=-1)
            assert (_logsumexp(a) == ref).all()

    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_falls_back_on_one_tied_column(self, m):
        rng = np.random.default_rng(30 + m)
        a = self.clean_batch(rng, m)
        col = a[:, 3, 117]
        col[np.argsort(col)[-2]] = col.max()  # two components tie at the maximum
        assert segmentation._logsumexp_closed(a) is None
        ref = logsumexp(np.moveaxis(a, 0, -1), axis=-1)
        assert (_logsumexp(a) == ref).all()
        top, rest = col.max(), np.sort(col)[:-2]
        # scipy counts both tied maxima: log1p(s / 2) + log(2) + max
        assert ref[3, 117] == np.log1p(np.exp(rest - top).sum() / 2) + np.log(2.0) + top

    def test_logsumexp_of_a_batch_adds_each_sample_pairwise(self):
        """On a C-contiguous ``(m, R, n)`` batch, as EM holds it, nine terms
        are added in the order of scipy's sum over one sample's terms in a
        row, as the oracle calls it, and not one component after another."""
        rng = np.random.default_rng(49)
        a = self.clean_batch(rng, 9)
        a[:, 0, :50] = np.round(a[:, 0, :50])  # ties at the maximum
        ref = logsumexp(np.ascontiguousarray(np.moveaxis(a, 0, -1)), axis=-1)
        assert (_logsumexp(a) == ref).all()

    @staticmethod
    def count_fallbacks(monkeypatch):
        """The calls that ``_logsumexp`` hands to scipy's ``logsumexp``."""
        calls = []
        real = segmentation.logsumexp

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(segmentation, "logsumexp", counting)
        return calls

    def test_tied_start_falls_back_inside_an_m3_batch(self, monkeypatch):
        """More than half the sample sits at one value, so the m = 3
        quantile start has two identical components, and every density pass
        of that start ties them: the batch takes scipy's normaliser and
        still equals the one-by-one oracle, without a warning."""
        rng = np.random.default_rng(0)
        x = np.concatenate([np.full(900, 1.0), np.full(100, 2.0),
                            np.maximum(rng.normal(20.0, 3.0, 500), 0.5)])
        calls = self.count_fallbacks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_mixture(x, 3, init=InitSpec(seed=4))
        assert calls and all(shape == (3, 5, x.size) for shape in calls)
        assert_same_fit(model, orc.em_reference(x, 3, seed=4))

    def test_pipeline_frames_never_fall_back(self, tmp_path, monkeypatch):
        """The fits ``run`` makes, on frame 10 (``RunConfig.m0``) of every
        segment of ``lasr phantom`` sessions read back from their files,
        all take the closed-form normaliser: scipy's is for ties and m >= 4.
        If a change makes ties common on such frames, this fails, and the
        cost of scipy's call there is to be measured again."""
        calls = self.count_fallbacks(monkeypatch)
        fits = 0
        for seed in (0, 1, 2):
            out = tmp_path / str(seed)
            assert pipeline.cli_main(["phantom", "--out", str(out), "--seed", str(seed)]) == 0
            for side in ("s1", "s2"):
                for _, movie in load_session(out / side).segments:
                    select_model(positive_samples(movie[10]), (2, 3), init=InitSpec(seed=seed))
                    fits += 1
        assert fits == 18 and calls == []

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # _logsumexp silences that overflow itself
            got = _logsumexp(np.moveaxis(a, -1, 0))
        assert (got == ref).all()


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
        assert_same_fit(model, orc.em_reference(x, 2))

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
