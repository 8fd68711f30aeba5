"""Acceptance battery: one test per end-to-end guarantee.

Each test here freezes a synthetic construction whose expected outcome
was established independently (closed forms, brute-force oracles, or
planted ground truth) and asserts the library reproduces it at the
stated tolerance.  Run with ``pytest -v tests/test_acceptance.py`` to
get one pass/fail line per guarantee.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

import _oracles as orc
from _oracles import prds_covariance_check
from lasr import (
    FdrConfig,
    Frame,
    InitSpec,
    MixtureModel,
    PhantomSpec,
    PoseSpec,
    RunConfig,
    StimSpec,
    bh_adjust,
    blob_field,
    cli_main,
    compose,
    difference_map,
    gen_lagged_pair,
    gen_pose_pair,
    gen_session,
    icr_lag,
    load_session,
    local_quadratic_smooth,
    optimal_threshold,
    p_map,
    positive_samples,
    refit,
    registration_error,
    run_lasr,
    select_model,
    srlp_params,
    t_map,
    transform_points,
)


# ---------------------------------------------------------------------------
# shared significance-map battery
#
# A "null phantom" is a pair of fully loaded 30x30 frames differing only
# in noise; an effect run adds a 6x6 step of three noise standard
# deviations.  The flow below is the map-making path of the pipeline:
# difference -> local quadratic smooth (rim folded in) -> t -> p -> step-up.
# ---------------------------------------------------------------------------

GRID = 30
BANDWIDTH = 3.0
EFFECT_MASK = np.zeros((GRID, GRID), dtype=bool)
EFFECT_MASK[12:18, 12:18] = True
NOISE_SD = 1.0


def significance_run(seed, delta=0.0, mode="bh"):
    """One before/after comparison; returns (rejection grid, fit)."""
    g0 = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    g1 = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    before = Frame(30.0 + NOISE_SD * g0.standard_normal((GRID, GRID)))
    after_vals = 30.0 + NOISE_SD * g1.standard_normal((GRID, GRID)) + delta * EFFECT_MASK
    after = Frame(after_vals)
    diff = difference_map(after, before)
    fit = local_quadratic_smooth(diff, h=BANDWIDTH, kernel="tgauss", rim=int(math.ceil(BANDWIDTH)))
    tm = t_map(fit)
    pv = p_map(tm)
    rejected, _ = bh_adjust(pv[diff.support_mask], FdrConfig(q=0.05, mode=mode))
    return rejected.reshape(GRID, GRID), fit


@pytest.fixture(scope="module")
def null_battery():
    """200 seeded null runs; yields (list of rejection grids, elapsed s)."""
    t0 = time.perf_counter()
    maps = [significance_run(seed)[0] for seed in range(200)]
    return maps, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# thresholding and mixture fitting
# ---------------------------------------------------------------------------


def _model(weights, means, sds):
    return MixtureModel(m=len(weights), weights=np.asarray(weights, float),
                        means=np.asarray(means, float), sds=np.asarray(sds, float),
                        loglik=0.0, converged=True, n_iter=0,
                        loglik_trace=np.zeros(1))


def test_threshold_closed_forms_and_grid_oracle():
    t0 = time.perf_counter()

    sym = optimal_threshold(_model([0.5, 0.5], [0.0, 4.0], [1.0, 1.0]))
    assert abs(sym.t - 2.0) < 1e-6
    skew = optimal_threshold(_model([0.75, 0.25], [0.0, 4.0], [1.0, 1.0]))
    assert abs(skew.t - (2.0 + math.log(3.0) / 4.0)) < 1e-6

    rng = np.random.default_rng(20260814)
    step = 1e-4
    for _ in range(100):
        m = int(rng.integers(2, 4))
        sds = rng.uniform(0.5, 1.5, m)
        # keep the components honestly bimodal: adjacent means separated by
        # a couple of joint standard deviations, so an interior optimum exists
        means = [float(rng.uniform(-2.0, 0.0))]
        for k in range(1, m):
            means.append(means[-1] + float(rng.uniform(2.0, 4.0)) * (sds[k - 1] + sds[k]))
        means = np.array(means)
        weights = rng.uniform(0.2, 1.0, m)
        weights /= weights.sum()
        res = optimal_threshold(_model(weights, means, sds))
        assert res.method == "root", (means, sds, weights)
        span = float(means[-1] - means[0])
        # the cut whose grid minimum misclassifies least, then its minimizer
        refs = [orc.pmc_minimum(weights, means, sds, n_grid=int(round(span / step)) + 1, cut=k)
                for k in range(m - 1)]
        cut = min(range(m - 1), key=lambda k: refs[k][1])
        assert res.cut == cut, (refs, means, sds, weights)
        t_ref = refs[cut][0]
        assert abs(res.t - t_ref) <= step, (res.t, t_ref, means, sds, weights)

    assert time.perf_counter() - t0 < 5.0


def test_bic_selects_two_components_and_em_is_monotone():
    hits = 0
    for rep in range(50):
        rng = np.random.default_rng(rep)
        n1 = int(rng.binomial(5000, 0.55))
        samples = np.concatenate([rng.normal(0.0, 1.0, n1),
                                  rng.normal(6.0, 1.5, 5000 - n1)])
        model = select_model(samples, candidate_ms=(1, 2, 3), init=InitSpec(seed=rep))
        hits += model.m == 2
        assert (np.diff(model.loglik_trace) >= -1e-9).all(), f"rep {rep} not monotone"
    assert hits >= 45, f"BIC chose m=2 in only {hits}/50 replications"


# ---------------------------------------------------------------------------
# spatial and temporal self-registration
# ---------------------------------------------------------------------------


def test_registration_error_improves_with_resolution():
    t0 = time.perf_counter()
    medians = []
    for size in (32, 64, 128):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            theta = float(rng.uniform(-0.12, 0.12))
            off = rng.integers(-(size // 32), size // 32 + 1, 2)
            spec = PoseSpec(size=size, theta=theta,
                            offset=(float(off[0]), float(off[1])), seed=seed)
            fa, fb, pose, pts = gen_pose_pair(spec)
            ta = srlp_params(fa)
            tb = srlp_params(fb)
            pairs = np.stack([pts, transform_points(ta, pts)], axis=1)
            errs.append(registration_error(compose(tb, pose), pairs))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2], medians
    assert medians[2] <= 1.0, medians
    assert time.perf_counter() - t0 < 60.0


def test_planted_lags_recovered_exactly():
    t0 = time.perf_counter()
    base = PhantomSpec(n_frames=400, stim=StimSpec(period=20))
    for lag in range(21):
        for seed in range(20):
            a, b, _ = gen_lagged_pair(replace(base, seed=seed), lag)
            got = icr_lag(a, b, m0=10, max_lag=20)
            assert got.j0 == lag, (lag, seed, got.j0)
            if lag > 0:
                assert got.direction == "b-delayed"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# smoother correctness
# ---------------------------------------------------------------------------


def test_smoother_reproduces_quadratics_and_matches_dense_oracle():
    # exact reproduction of degree-2 surfaces, for several random draws
    r, c = np.mgrid[:13, :15].astype(float)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a0, a1, a2, a3, a4, a5 = rng.uniform(-2.0, 2.0, 6)
        poly = a0 + a1 * r + a2 * c + a3 * r * r + a4 * c * c + a5 * r * c
        fit = local_quadratic_smooth(Frame(poly, signed=True), h=3.0)
        assert np.abs(fit.m_hat - poly).max() < 1e-8

    # hat rows always form weighted averages
    noise = Frame(np.random.default_rng(99).normal(0.0, 1.0, (10, 11)), signed=True)
    fit = local_quadratic_smooth(noise, h=3.0)
    row_sums = np.asarray(fit.hat.sum(axis=1)).ravel()
    assert np.abs(row_sums - 1.0).max() < 1e-10

    # full agreement with the dense normal-equations reference on 5x5
    f = Frame(np.random.default_rng(41).normal(0.0, 2.0, (5, 5)), signed=True)
    fit = local_quadratic_smooth(f, h=2.0, kernel="tgauss")
    _, L, m_ref, stats = orc.dense_smooth(f.values, np.ones((5, 5), bool), 2.0, "tgauss")
    assert np.abs(fit.m_hat.ravel() - m_ref).max() < 1e-9
    assert np.abs(fit.hat_norm.ravel() - stats["hat_norm"]).max() < 1e-9
    assert abs(fit.delta1 - stats["delta1"]) < 1e-9 * stats["delta1"]
    assert abs(fit.delta2 - stats["delta2"]) < 1e-9 * stats["delta2"]


def test_t_map_scale_invariant():
    f = Frame(np.random.default_rng(7).normal(0.0, 1.5, (12, 12)), signed=True)
    base = t_map(local_quadratic_smooth(f, h=3.0)).values
    for c in (0.1, 7.0, 1000.0):
        scaled = Frame(c * f.values, signed=True)
        tv = t_map(local_quadratic_smooth(scaled, h=3.0)).values
        assert np.abs(tv - base).max() < 1e-8, c


# ---------------------------------------------------------------------------
# significance maps under the null and with a planted effect
# ---------------------------------------------------------------------------


def test_global_null_rejection_rate_controlled(null_battery):
    maps, elapsed = null_battery
    frac = float(np.mean([m.any() for m in maps]))
    bound = 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / 200.0)
    assert frac <= bound, f"{frac:.3f} of null runs rejected something (bound {bound:.3f})"
    assert elapsed < 600.0


def test_masked_support_null_rejection_rate_and_sigma():
    # On the full grid above the rim is empty; on the phantom's elliptical
    # sitting support it is live, so this battery holds the guarantee for
    # the region the pipeline actually analyzes: each frame pair runs the
    # pipeline's chain (one fit per mask, refit per pair) at the default rim.
    support = blob_field(PhantomSpec())[0] > 0
    n_runs = 1000
    fit, hits, scales = None, [], []
    for seed in range(n_runs):
        g0 = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        g1 = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        before = Frame(np.where(support, 30.0 + g0.standard_normal(support.shape), 0.0),
                       support_mask=support)
        after = Frame(np.where(support, 30.0 + g1.standard_normal(support.shape), 0.0),
                      support_mask=support)
        diff = difference_map(after, before)
        if fit is None:
            fit = local_quadratic_smooth(diff, h=BANDWIDTH, kernel="tgauss",
                                         rim=int(math.ceil(BANDWIDTH)))
        else:
            fit = refit(fit, diff)
        pv = p_map(t_map(fit))
        rejected, _ = bh_adjust(pv[support], FdrConfig(q=0.05, mode="bh"))
        hits.append(rejected.any())
        scales.append(fit.sigma_hat / math.sqrt(2.0))
    frac = float(np.mean(hits))
    bound = 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / n_runs)
    assert frac <= bound, f"{frac:.3f} of masked null runs rejected something (bound {bound:.4f})"
    scale = float(np.mean(scales))
    assert 0.97 <= scale <= 1.03, f"mean sigma_hat/sqrt(2) = {scale:.4f} on unit-sd noise"


def test_hat_row_products_nonnegative():
    # The step-up screen's positive-dependence premise requires the
    # covariance of the smoothed field to be nonnegative everywhere, and
    # strictly positive for pixels whose kernel neighborhoods overlap
    # (centers within 2h).  Exact quadratic reproduction forces each hat
    # row to carry a negative ring (its second moment is zero), so this
    # is a live check, not a formality.
    worst_near = math.inf
    worst_any = math.inf
    for seed in range(200):
        _, fit = significance_run(seed)
        pix = fit.pixels
        rng = np.random.default_rng(10_000 + seed)
        anchors = rng.choice(pix.shape[0], size=24, replace=False)
        near_pairs, far_pairs = [], []
        for i in anchors:
            d2 = ((pix - pix[i]) ** 2).sum(axis=1)
            near = np.nonzero((d2 > 0) & (d2 <= (2 * BANDWIDTH) ** 2))[0]
            far = np.nonzero(d2 > (2 * BANDWIDTH) ** 2)[0]
            for j in rng.choice(near, size=3, replace=False):
                near_pairs.append((tuple(pix[i]), tuple(pix[j])))
            for j in rng.choice(far, size=2, replace=False):
                far_pairs.append((tuple(pix[i]), tuple(pix[j])))
        lo_near = prds_covariance_check(fit, near_pairs)
        lo_far = prds_covariance_check(fit, far_pairs)
        worst_near = min(worst_near, lo_near)
        worst_any = min(worst_any, lo_near, lo_far)
        assert lo_near > 0.0 and min(lo_near, lo_far) >= 0.0, (
            f"seed {seed}: sampled hat-row inner products reach "
            f"{min(lo_near, lo_far):+.4f} (within-2h minimum {lo_near:+.4f}); "
            f"the local quadratic smoother yields negatively correlated "
            f"estimates at displacements near one bandwidth"
        )
    assert worst_near > 0.0 and worst_any >= 0.0


def test_effects_detected_inside_dilated_region_and_nulls_blank(null_battery):
    maps, _ = null_battery
    blank = sum(1 for m in maps if not m.any())
    assert blank >= 180, f"only {blank}/200 null runs gave a blank map"

    # The positivity premise above fails for this smoother, so the effect
    # battery runs the step-up with the harmonic-sum constant, which stays
    # valid under arbitrary dependence between the tests.
    allowed = binary_dilation(EFFECT_MASK, structure=np.ones((3, 3), bool),
                              iterations=int(math.ceil(BANDWIDTH)))
    good = 0
    for seed in range(20):
        rej, _ = significance_run(seed, delta=3.0 * NOISE_SD, mode="by")
        good += rej.any() and not (rej & ~allowed).any()
    assert good >= 18, f"only {good}/20 effect runs detected and stayed localized"


# ---------------------------------------------------------------------------
# step-up screen against brute force
# ---------------------------------------------------------------------------


def test_step_up_matches_brute_force_oracle():
    rng = np.random.default_rng(314)
    for trial in range(1000):
        m = int(rng.integers(1, 65))
        p = rng.uniform(0.0, 1.0, m)
        if trial % 3 == 0:
            p = np.round(p, 2)  # force ties
        q = float(rng.uniform(0.01, 0.4))
        mode = "bh" if trial % 2 == 0 else "by"
        got_rej, got_crit = bh_adjust(p, FdrConfig(q=q, mode=mode))
        want_rej, want_crit = orc.bh_oracle(p, q, mode)
        assert np.array_equal(got_rej, want_rej), (trial, p, q, mode)
        assert got_crit == want_crit, (trial, got_crit, want_crit)

    # worked examples, checked by hand
    p = np.array([0.30, 0.01, 0.10, 0.04])
    rej, crit = bh_adjust(p, FdrConfig(q=0.25, mode="bh"))
    assert rej.tolist() == [False, True, True, True]
    assert crit == 3 * 0.25 / 4
    rej, crit = bh_adjust(p, FdrConfig(q=0.25, mode="by"))
    c4 = math.fsum([1.0, 0.5, 1.0 / 3.0, 0.25])
    assert rej.tolist() == [False, True, False, True]
    assert crit == 2 * 0.25 / (4 * c4)


# ---------------------------------------------------------------------------
# pipeline-level null battery
#
# ``lasr phantom`` plants no effect unless asked, so every rejection in a
# ``run_lasr`` comparison of its two sessions is a false one.  Each seed's
# sessions are written and read back as the command line tool does, and
# every comparison runs at the default options: static on the default
# 20-frame sessions (NoStim segment 0 against the last), and dynamic on the
# Stim segments of 60-frame sessions with the after pattern 5 frames late.
# ---------------------------------------------------------------------------

NULL_SEEDS = range(12)


def _null_bound(n):
    """The binomial any-rejection bound of the SSM batteries for n trials."""
    return 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / n)


@pytest.fixture(scope="module")
def null_sessions(tmp_path_factory):
    """``(kind, seed) -> (before dir, after dir)`` of ``lasr phantom --seed s``
    (kind "default") and ``lasr phantom --seed s --frames 60 --lag 5`` ("long")."""
    root = tmp_path_factory.mktemp("null_phantoms")
    dirs = {}
    for s in NULL_SEEDS:
        for kind, extra in (("default", []), ("long", ["--frames", "60", "--lag", "5"])):
            out = root / f"{kind}{s}"
            assert cli_main(["phantom", "--out", str(out), "--seed", str(s)] + extra) == 0
            dirs[kind, s] = (str(out / "s1"), str(out / "s2"))
    return dirs


def _null_runs(null_sessions, kind, tmp_path, **options):
    """One ``run_lasr`` report per null seed."""
    return [run_lasr(RunConfig(*null_sessions[kind, s], str(tmp_path / f"run{s}"), **options))
            for s in NULL_SEEDS]


def _pair_hits(reports):
    return [r[f"pair.{k}.n_rejected"] > 0 for r in reports for k in range(r["n_pairs"])]


def test_pipeline_null_static_pairs_controlled(null_sessions, tmp_path):
    reports = _null_runs(null_sessions, "default", tmp_path)
    assert {r["mode"] for r in reports} == {"static"}
    hits = _pair_hits(reports)
    assert len(hits) == 240
    bound = _null_bound(len(hits))
    assert np.mean(hits) <= bound, f"{sum(hits)} of {len(hits)} null pairs rejected something (bound {bound:.4f})"


def test_pipeline_null_dynamic_pairs_controlled(null_sessions, tmp_path):
    reports = _null_runs(null_sessions, "long", tmp_path, before_segment=1, after_segment=1, max_lag=12)
    assert {r["mode"] for r in reports} == {"dynamic"}
    assert [r["icr.j0"] for r in reports] == [5] * len(reports)
    hits = _pair_hits(reports)
    assert len(hits) == 540
    bound = _null_bound(len(hits))
    assert np.mean(hits) <= bound, f"{sum(hits)} of {len(hits)} null pairs rejected something (bound {bound:.4f})"


def test_pipeline_null_mean_frame_runs_controlled(null_sessions, tmp_path):
    reports = _null_runs(null_sessions, "default", tmp_path, mean_frame=True)
    hits = _pair_hits(reports)
    assert len(hits) == len(NULL_SEEDS)
    bound = _null_bound(len(hits))
    assert np.mean(hits) <= bound, f"{sum(hits)} of {len(hits)} null runs rejected something (bound {bound:.4f})"


def test_raw_mean_frame_cut_keeps_the_noiseless_support(null_sessions):
    """The segmentation cut on a raw mean frame (a segment's frames averaged
    before any cut) keeps the phantom's noiseless support, give or take 10
    pixels: the raw mean frames of both compared segments of every null seed."""
    spec = PhantomSpec(center=(18.5, 20.0), radii=(0.30 * 38, 0.40 * 41))  # ``lasr phantom``'s
    support = int((blob_field(spec)[0] > 0).sum())
    assert support == 590
    kept = []
    for s in NULL_SEEDS:
        before, after = null_sessions["default", s]
        for movie in (load_session(before).segments[0][1], load_session(after).segments[-1][1]):
            mean = Frame(movie.values.mean(axis=0))
            model = select_model(positive_samples(mean), (2, 3), init=InitSpec(seed=0))
            kept.append(int((mean.values > optimal_threshold(model).t).sum()))
    assert len(kept) == 24
    assert all(abs(k - support) <= 10 for k in kept), f"pixels kept per mean frame: {kept}"


# ---------------------------------------------------------------------------
# end-to-end determinism
# ---------------------------------------------------------------------------


def test_identical_runs_produce_identical_bytes(tmp_path):
    spec = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                       n_frames=3, noise_sd=(0.6, 1.0), seed=10)
    before = gen_session(spec, session_id="s1")[0]
    after = gen_session(replace(spec, seed=11), session_id="s2")[0]

    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_lasr(RunConfig(before=before, after=after, out_dir=str(out),
                           bandwidth=2.0, m0=2, candidates=(2,), seed=7))
        tree = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                tree[p.relative_to(out).as_posix()] = p.read_bytes()
        trees.append(tree)

    assert sorted(trees[0]) == sorted(trees[1])
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], f"{name} differs between runs"
