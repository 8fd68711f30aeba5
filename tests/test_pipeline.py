"""End-to-end runs, artifacts, determinism, and CLI exit codes."""

import os
from dataclasses import replace

import numpy as np
import pytest

from lasr import (
    ConfigError,
    DataError,
    FdrConfig,
    Frame,
    InitSpec,
    Movie,
    NumericError,
    PhantomSpec,
    RunConfig,
    StageError,
    StimSpec,
    bh_adjust,
    cli_main,
    difference_map,
    fdr_map,
    gen_session,
    load_movie,
    local_quadratic_smooth,
    p_map,
    positive_samples,
    run_lasr,
    save_movie,
    select_model,
    t_map,
)
from lasr import pipeline


BASE_SPEC = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                        n_frames=3, noise_sd=(0.6, 1.0), seed=10)


def session_pair(spec_b=None, spec_a=None):
    sb = spec_b if spec_b is not None else BASE_SPEC
    sa = spec_a if spec_a is not None else replace(BASE_SPEC, seed=11)
    return gen_session(sb, session_id="s1")[0], gen_session(sa, session_id="s2")[0]


def quick_config(before, after, out_dir, **kw):
    defaults = dict(bandwidth=2.0, m0=2, candidates=(2,))
    defaults.update(kw)
    return RunConfig(before=before, after=after, out_dir=str(out_dir), **defaults)


def read_report(path):
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            key, _, val = line.partition(" = ")
            out[key.strip()] = val.strip()
    return out


def tree_bytes(root):
    got = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                got[os.path.relpath(p, root)] = fh.read()
    return got


# ---------------------------------------------------------------------------
# run_lasr
# ---------------------------------------------------------------------------


class TestRunStatic:
    def test_artifacts_and_report(self, tmp_path):
        before, after = session_pair()
        out = tmp_path / "run"
        report = run_lasr(quick_config(before, after, out))
        assert report["mode"] == "static"
        assert report["icr.applied"] is False
        assert report["n_pairs"] == 3
        for name in ("before_segmented.lasr", "after_segmented.lasr",
                     "before_registered.lasr", "after_registered.lasr",
                     "report.txt"):
            assert (out / name).is_file(), name
        for k in range(3):
            for suffix in ("diff.csv", "tmap.csv", "pmap.csv", "pmap.pgm"):
                assert (out / f"pair{k:04d}_{suffix}").is_file()
        disk = read_report(out / "report.txt")
        assert disk["mode"] == "static"
        assert int(disk["n_pairs"]) == 3
        assert disk["before.tag"] == "NoStim" and disk["after.tag"] == "NoStim"
        for k in range(3):
            n_rej = int(disk[f"pair.{k}.n_rejected"])
            n_pix = int(disk[f"pair.{k}.n_pixels"])
            assert 0 <= n_rej <= n_pix and n_pix > 0
            assert float(disk[f"pair.{k}.sigma_hat"]) > 0
            # static pairing indexes frames directly
            assert int(disk[f"pair.{k}.before_frame"]) == k
        assert float(disk["before.threshold"]) > 0
        saved = load_movie(out / "before_registered.lasr")
        assert len(saved) == 3 and saved.shape == (24, 26)

    def test_report_shows_the_chosen_mixture_fit(self, tmp_path):
        before, after = session_pair()
        cfg = quick_config(before, after, tmp_path / "run", candidates=(2, 3), seed=4)
        report = run_lasr(cfg)
        disk = read_report(tmp_path / "run" / "report.txt")
        for which, session, index in (("before", before, cfg.before_segment),
                                      ("after", after, cfg.after_segment)):
            movie = session.segments[index][1]
            ref = movie.frames[min(cfg.m0, len(movie) - 1)]
            model = select_model(positive_samples(ref), cfg.candidates,
                                 init=InitSpec(seed=cfg.seed))
            assert report[f"{which}.mixture_m"] == model.m
            assert report[f"{which}.mixture_loglik"] == model.loglik
            assert report[f"{which}.mixture_converged"] == model.converged
            assert report[f"{which}.mixture_n_iter"] == model.n_iter
            assert disk[f"{which}.mixture_loglik"] == pipeline._fmt(model.loglik)
            assert disk[f"{which}.mixture_converged"] == pipeline._fmt(model.converged)
            assert int(disk[f"{which}.mixture_n_iter"]) == model.n_iter

    def test_rerun_is_byte_identical(self, tmp_path):
        before, after = session_pair()
        r1 = run_lasr(quick_config(before, after, tmp_path / "a"))
        r2 = run_lasr(quick_config(before, after, tmp_path / "b"))
        assert r1 == r2
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_workers_do_not_change_results(self, tmp_path):
        before, after = session_pair()
        r1 = run_lasr(quick_config(before, after, tmp_path / "serial", workers=1))
        r2 = run_lasr(quick_config(before, after, tmp_path / "pool", workers=2))
        assert r1 == {**r2, "workers": 1}
        b1 = tree_bytes(tmp_path / "serial")
        b2 = tree_bytes(tmp_path / "pool")
        assert set(b1) == set(b2)
        assert all(b1[k] == b2[k] for k in b1 if k != "report.txt")

    def test_mean_frame_collapses_to_one_pair(self, tmp_path):
        before, after = session_pair()
        report = run_lasr(quick_config(before, after, tmp_path / "m", mean_frame=True))
        assert report["n_pairs"] == 1
        assert not (tmp_path / "m" / "pair0001_diff.csv").exists()


class TestRunDynamic:
    def stim_pair(self, phase):
        # quiet background keeps the lag correlations crisp at short movies
        spec_b = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                             n_frames=14, noise_sd=(0.1, 0.4), seed=10,
                             stim=StimSpec(period=6, phase_lag=0))
        spec_a = replace(spec_b, seed=11, stim=StimSpec(period=6, phase_lag=phase))
        return session_pair(spec_b, spec_a)

    def test_auto_mode_aligns_stim_segments(self, tmp_path):
        before, after = self.stim_pair(phase=2)
        cfg = quick_config(before, after, tmp_path / "dyn",
                           before_segment=1, after_segment=1, m0=4, max_lag=6)
        report = run_lasr(cfg)
        assert report["mode"] == "dynamic"
        assert report["icr.applied"] is True
        assert report["icr.j0"] == -2
        assert report["icr.direction"] == "a-delayed"
        assert report["n_pairs"] == 8
        assert report["pair.0.before_frame"] == 6
        assert report["pair.0.after_frame"] == 4

    def test_dynamic_requires_stim_tags(self, tmp_path):
        before, after = session_pair()
        cfg = quick_config(before, after, tmp_path / "x", mode="dynamic")
        with pytest.raises(StageError) as exc:
            run_lasr(cfg)
        assert exc.value.stage == "load"
        assert isinstance(exc.value.cause, DataError)
        assert not (tmp_path / "x").exists()

    def test_mean_frame_conflicts_with_dynamic(self, tmp_path):
        before, after = self.stim_pair(phase=0)
        cfg = quick_config(before, after, tmp_path / "x", before_segment=1,
                           after_segment=1, m0=4, max_lag=6, mean_frame=True)
        with pytest.raises(StageError) as exc:
            run_lasr(cfg)
        assert isinstance(exc.value.cause, ConfigError)


class TestRunFailures:
    def test_config_errors_name_the_stage(self, tmp_path):
        before, after = session_pair()
        bad = [dict(q=0.0), dict(bandwidth=0.0), dict(kernel="box"), dict(rim=-1),
               dict(m0=-1), dict(max_lag=-1), dict(workers=0), dict(mode="both"),
               dict(candidates=(1,))]
        for kw in bad:
            cfg = quick_config(before, after, tmp_path / "cfg", **kw)
            with pytest.raises(StageError) as exc:
                run_lasr(cfg)
            assert exc.value.stage == "config", kw
            assert isinstance(exc.value.cause, ConfigError)
        assert not (tmp_path / "cfg").exists()

    def test_segment_index_out_of_range(self, tmp_path):
        before, after = session_pair()
        cfg = quick_config(before, after, tmp_path / "x", before_segment=7)
        with pytest.raises(StageError) as exc:
            run_lasr(cfg)
        assert exc.value.stage == "load"

    def test_shape_mismatch(self, tmp_path):
        before, _ = session_pair()
        other = gen_session(replace(BASE_SPEC, rows=20, center=(9.5, 12.5)))[0]
        cfg = quick_config(before, other, tmp_path / "x")
        with pytest.raises(StageError) as exc:
            run_lasr(cfg)
        assert exc.value.stage == "load"

    def test_failed_run_removes_partial_outputs(self, tmp_path):
        # noiseless sessions are identical, so the compare stage hits a
        # zero residual; everything written before that must be cleaned up
        spec = replace(BASE_SPEC, noise_sd=(0.0, 0.0))
        before, after = session_pair(spec, replace(spec, seed=11))
        out = tmp_path / "keep"
        out.mkdir()
        sentinel = out / "keep.txt"
        sentinel.write_text("untouched")
        cfg = quick_config(before, after, out)
        with pytest.raises(StageError) as exc:
            run_lasr(cfg)
        assert exc.value.stage == "compare"
        assert isinstance(exc.value.cause, NumericError)
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert sentinel.read_text() == "untouched"


class TestCompareMovies:
    """The per-pair compare loop shared by ``run`` and ``lasr ssm``."""

    class Capture:
        def __init__(self):
            self.maps = {}

        def emit(self, name, writer, values):
            self.maps[name] = values

    def test_fit_reuse_is_bit_identical_to_the_unshared_chain(self, monkeypatch):
        rng = np.random.default_rng(5)
        wide = np.zeros((16, 18), dtype=bool)
        wide[3:13, 3:15] = True
        narrow = wide.copy()
        narrow[3:6, 3:7] = False
        masks = [wide, wide, narrow, narrow, wide]  # the mask changes twice

        def movie(shift):
            return Movie(tuple(Frame(np.where(m, 20.0 + shift * m + rng.normal(0, 1, m.shape), 0.0),
                                     support_mask=m) for m in masks), fps=2.0)

        before = movie(0.0)
        effect = np.zeros_like(wide)
        effect[7:11, 8:12] = True
        after = movie(4.0 * effect)
        cfg = pipeline._validate(RunConfig(before="b", after="a", out_dir="o", bandwidth=2.5))
        builds = []

        def counting(*args, **kwargs):
            builds.append(1)
            return local_quadratic_smooth(*args, **kwargs)

        monkeypatch.setattr(pipeline.ssm, "local_quadratic_smooth", counting)
        out, report = self.Capture(), {}
        pipeline._compare_movies(before, after, cfg, out, report)
        assert len(builds) == 3  # one per run of equal masks; only the last fit is kept
        assert report["n_pairs"] == len(masks)
        for k, (b, a) in enumerate(zip(before.frames, after.frames)):
            diff = difference_map(a, b)
            fit = local_quadratic_smooth(diff, h=cfg.bandwidth, kernel=cfg.kernel, rim=cfg.rim)
            tm = t_map(fit)
            pv = p_map(tm)
            rejected, critical = bh_adjust(pv[tm.mask], FdrConfig(cfg.q, cfg.fdr_mode))
            grid = np.zeros(tm.mask.shape, dtype=bool)
            grid[tm.mask] = rejected
            pm = fdr_map(pv, grid, critical)
            base = f"pair{k:04d}"
            assert np.array_equal(out.maps[f"{base}_diff.csv"], diff.values)
            assert np.array_equal(out.maps[f"{base}_tmap.csv"], tm.values, equal_nan=True)
            assert np.array_equal(out.maps[f"{base}_pmap.csv"], pm.values)
            assert report[f"pair.{k}.sigma_hat"] == fit.sigma_hat
            assert report[f"pair.{k}.delta1"] == fit.delta1
            assert report[f"pair.{k}.delta2"] == fit.delta2
            assert report[f"pair.{k}.n_rejected"] == pm.n_rejected
        assert report["pair.0.n_rejected"] > 0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


PHANTOM_ARGS = ["--rows", "24", "--cols", "26", "--frames", "3", "--seed", "3"]


class TestCli:
    def test_phantom_then_run(self, tmp_path, capsys):
        ph = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS) == 0
        assert (ph / "s1" / "session.txt").is_file()
        assert (ph / "s2" / "seg2.lasr").is_file()
        truth = read_report(ph / "truth.txt")
        assert truth["seed"] == "3"
        out = tmp_path / "out"
        rc = cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                       "--out", str(out), "--bandwidth", "2.0", "--m0", "2"])
        assert rc == 0
        assert (out / "report.txt").is_file()
        disk = read_report(out / "report.txt")
        assert disk["mode"] == "static"
        assert disk["before.path"] == str(ph / "s1")
        assert "wrote" in capsys.readouterr().out

    def test_run_config_file_and_flag_precedence(self, tmp_path):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        cfgfile = tmp_path / "opts.cfg"
        cfgfile.write_text("# options\nq = 0.1\nbandwidth = 2.0\nm0 = 2\n")
        out = tmp_path / "out"
        rc = cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                       "--out", str(out), "--config", str(cfgfile), "--q", "0.2"])
        assert rc == 0
        disk = read_report(out / "report.txt")
        assert float(disk["q"]) == 0.2          # flag beats file
        assert float(disk["bandwidth"]) == 2.0  # file beats default

    def test_bad_config_file_keys(self, tmp_path):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        bad = tmp_path / "bad.cfg"
        bad.write_text("qq = 0.1\n")
        rc = cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                       "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 2
        bad.write_text("q = apple\n")
        rc = cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                       "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 2

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LASR_SEED", "9")
        ph = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS) == 0
        assert read_report(ph / "truth.txt")["seed"] == "9"
        monkeypatch.setenv("LASR_SEED", "apple")
        assert cli_main(["phantom", "--out", str(tmp_path / "p2")] + PHANTOM_ARGS) == 2

    def test_usage_errors_exit_2(self, capsys):
        assert cli_main([]) == 2
        assert cli_main(["nope"]) == 2
        assert cli_main(["run", "--before", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "phantom" in capsys.readouterr().out

    def test_missing_input_exits_3(self, tmp_path):
        rc = cli_main(["run", "--before", str(tmp_path / "nope1"),
                       "--after", str(tmp_path / "nope2"), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert not (tmp_path / "o").exists()

    def test_segment_register_ssm_chain(self, tmp_path, capsys):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        seg1 = tmp_path / "seg1"
        rc = cli_main(["segment", "--in", str(ph / "s1" / "seg0.lasr"), "--out", str(seg1)])
        assert rc == 0
        rep = read_report(seg1 / "segment_report.txt")
        assert float(rep["threshold"]) > 0
        assert int(rep["mixture_m"]) >= 2
        movie = load_movie(ph / "s1" / "seg0.lasr")
        model = select_model(positive_samples(movie.frames[min(10, len(movie) - 1)]), (2, 3),
                             init=InitSpec(seed=0))
        assert int(rep["mixture_m"]) == model.m
        assert rep["loglik"] == pipeline._fmt(model.loglik)
        assert rep["converged"] == pipeline._fmt(model.converged)
        assert int(rep["n_iter"]) == model.n_iter
        reg1 = tmp_path / "reg1"
        rc = cli_main(["register", "--in", str(seg1 / "segmented.lasr"), "--out", str(reg1)])
        assert rc == 0
        assert (reg1 / "registered.lasr").is_file()
        assert "frame.0.theta" in read_report(reg1 / "register_report.txt")

        seg2 = tmp_path / "seg2"
        reg2 = tmp_path / "reg2"
        cli_main(["segment", "--in", str(ph / "s2" / "seg0.lasr"), "--out", str(seg2)])
        cli_main(["register", "--in", str(seg2 / "segmented.lasr"), "--out", str(reg2)])
        maps = tmp_path / "maps"
        rc = cli_main(["ssm", "--before", str(reg1 / "registered.lasr"),
                       "--after", str(reg2 / "registered.lasr"),
                       "--out", str(maps), "--bandwidth", "2.0"])
        assert rc == 0
        disk = read_report(maps / "report.txt")
        assert int(disk["n_pairs"]) == 3
        assert (maps / "pair0000_pmap.pgm").is_file()
        capsys.readouterr()

    def test_ssm_identical_inputs_exit_4(self, tmp_path, capsys):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        seg1 = tmp_path / "seg1"
        cli_main(["segment", "--in", str(ph / "s1" / "seg0.lasr"), "--out", str(seg1)])
        reg1 = tmp_path / "reg1"
        cli_main(["register", "--in", str(seg1 / "segmented.lasr"), "--out", str(reg1)])
        rc = cli_main(["ssm", "--before", str(reg1 / "registered.lasr"),
                       "--after", str(reg1 / "registered.lasr"),
                       "--out", str(tmp_path / "maps"), "--bandwidth", "2.0"])
        assert rc == 4
        assert "sigma_hat" in capsys.readouterr().err

    def test_segment_bad_components_exit_2(self, tmp_path):
        assert cli_main(["segment", "--in", "x.lasr", "--out", str(tmp_path),
                         "--components", "1,2"]) == 2
        assert cli_main(["segment", "--in", "x.lasr", "--out", str(tmp_path),
                         "--components", "apple"]) == 2

    def test_failed_ssm_removes_pair_files(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        blob = np.zeros((16, 18))
        blob[3:13, 3:15] = 1.0

        def frame():
            return Frame(blob * (20.0 + rng.normal(0, 1, blob.shape)))

        same = frame()
        save_movie(Movie((frame(), same), fps=2.0), tmp_path / "b.lasr")
        save_movie(Movie((frame(), same), fps=2.0), tmp_path / "a.lasr")
        ssm_args = ["ssm", "--before", str(tmp_path / "b.lasr"), "--after", str(tmp_path / "a.lasr")]
        maps = tmp_path / "maps"
        # pair 0 is written before pair 1, identical frames, hits sigma_hat = 0
        assert cli_main(ssm_args + ["--out", str(maps)]) == 4
        assert "stage 'compare'" in capsys.readouterr().err
        assert not maps.exists()
        assert cli_main(ssm_args + ["--out", str(maps), "--rim", "-1"]) == 2
        assert not maps.exists()

    def test_staged_chain_maps_equal_one_shot_run(self, tmp_path):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph), "--effect-delta", "4.0"] + PHANTOM_ARGS)
        assert cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                         "--out", str(tmp_path / "run")]) == 0
        for which, path in (("b", ph / "s1" / "seg0.lasr"), ("a", ph / "s2" / "seg2.lasr")):
            assert cli_main(["segment", "--in", str(path), "--out", str(tmp_path / f"seg_{which}")]) == 0
            assert cli_main(["register", "--in", str(tmp_path / f"seg_{which}" / "segmented.lasr"),
                             "--out", str(tmp_path / f"reg_{which}")]) == 0
        assert cli_main(["ssm", "--before", str(tmp_path / "reg_b" / "registered.lasr"),
                         "--after", str(tmp_path / "reg_a" / "registered.lasr"),
                         "--out", str(tmp_path / "maps")]) == 0
        run = tree_bytes(tmp_path / "run")
        staged = tree_bytes(tmp_path / "maps")
        names = sorted(n for n in staged if n.startswith("pair"))
        assert len(names) == 12
        assert all(run[n] == staged[n] for n in names)
