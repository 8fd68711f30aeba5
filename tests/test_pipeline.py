"""End-to-end runs, artifacts, determinism, and CLI exit codes."""

import logging
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lasr import (
    ConfigError,
    DataError,
    EffectSpec,
    FdrConfig,
    FormatError,
    Frame,
    InitSpec,
    Movie,
    NumericError,
    PhantomSpec,
    RunConfig,
    SessionLayout,
    StageError,
    StimSpec,
    bh_adjust,
    cli_main,
    difference_map,
    fdr_map,
    fit_mixture,
    gen_session,
    load_movie,
    local_quadratic_smooth,
    optimal_threshold,
    p_map,
    positive_samples,
    run_lasr,
    save_movie,
    save_session,
    select_model,
    t_map,
)
from lasr import apply_rigid, pipeline, segmentation, srlp_register

import _oracles as orc


STAGE_MOVIE_SUFFIXES = ("_segmented.lasr", "_registered.lasr")

BASE_SPEC = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                        n_frames=3, noise_sd=(0.6, 1.0), seed=10)
# long enough for a lag search at m0=4, max_lag=6
STIM_SPEC = replace(BASE_SPEC, n_frames=14, noise_sd=(0.1, 0.4), stim=StimSpec(period=6))


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
        # a static run writes each pair's maps on their own, and no movie of
        # them; the segmented and registered movies stay in memory
        assert not [name for name in os.listdir(out) if name.endswith(STAGE_MOVIE_SUFFIXES)]
        assert sorted(os.listdir(out)) == sorted(
            ("report.txt",)
            + tuple(f"pair{k:04d}_{suffix}" for k in range(3)
                    for suffix in ("diff.csv", "tmap.csv", "pmap.csv", "pmap.pgm")))
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

    def test_report_shows_the_chosen_mixture_fit(self, tmp_path):
        before, after = session_pair()
        cfg = quick_config(before, after, tmp_path / "run", candidates=(2, 3), seed=4)
        report = run_lasr(cfg)
        disk = read_report(tmp_path / "run" / "report.txt")
        for which, session, index in (("before", before, cfg.before_segment),
                                      ("after", after, cfg.after_segment)):
            movie = session.segments[index][1]
            ref = movie[min(cfg.m0, len(movie) - 1)]
            model = select_model(positive_samples(ref), cfg.candidates,
                                 init=InitSpec(seed=cfg.seed))
            assert report[f"{which}.mixture_m"] == model.m
            assert report[f"{which}.mixture_loglik"] == model.loglik
            assert report[f"{which}.mixture_converged"] == model.converged
            assert report[f"{which}.mixture_n_iter"] == model.n_iter
            assert disk[f"{which}.mixture_loglik"] == pipeline._fmt(model.loglik)
            assert disk[f"{which}.mixture_converged"] == pipeline._fmt(model.converged)
            assert int(disk[f"{which}.mixture_n_iter"]) == model.n_iter
            cut = optimal_threshold(model).cut
            assert report[f"{which}.threshold_cut"] == cut and int(disk[f"{which}.threshold_cut"]) == cut
            # every candidate size, from the fits the BIC choice made
            n = positive_samples(ref).size
            assert sorted(c.m for c in model.candidates) == [2, 3]
            for m in (2, 3):
                fit = fit_mixture(positive_samples(ref), m, init=InitSpec(seed=cfg.seed))
                bic = fit.loglik - (3 * m - 1) / 2.0 * np.log(n)
                expected = {"loglik": fit.loglik, "bic": bic, "converged": fit.converged,
                            "n_iter": fit.n_iter}
                for key, value in expected.items():
                    assert report[f"{which}.candidate.{m}.{key}"] == value, (which, m, key)
                    assert disk[f"{which}.candidate.{m}.{key}"] == pipeline._fmt(value), (which, m, key)
            assert report[f"{which}.candidate.{model.m}.loglik"] == model.loglik

    def test_rerun_is_byte_identical(self, tmp_path):
        before, after = session_pair()
        r1 = run_lasr(quick_config(before, after, tmp_path / "a"))
        r2 = run_lasr(quick_config(before, after, tmp_path / "b"))
        assert r1 == r2
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_mean_frame_collapses_to_one_pair(self, tmp_path):
        before, after = session_pair()
        report = run_lasr(quick_config(before, after, tmp_path / "m", mean_frame=True))
        assert report["n_pairs"] == 1
        assert not (tmp_path / "m" / "pair0001_diff.csv").exists()

    def test_unequal_segments_pair_up_to_the_shorter_one(self, tmp_path):
        """Frame k pairs with frame k; the longer side's extra frames are left out."""
        before, after = session_pair(replace(BASE_SPEC, n_frames=12),
                                     replace(BASE_SPEC, n_frames=7, seed=11))
        out = tmp_path / "run"
        report = run_lasr(quick_config(before, after, out))
        assert report["n_pairs"] == 7 and report["before.n_frames"] == 12
        assert [report[f"pair.{k}.before_frame"] for k in range(7)] == list(range(7))
        assert not any(key.startswith("pair.7.") for key in report)
        # the staged chain with the run's settings builds the registered movies
        registered = []
        for which, session, seg in (("b", before, 0), ("a", after, 2)):
            save_session(session, tmp_path / which)
            assert cli_main(["segment", "--in", str(tmp_path / which / f"seg{seg}.lasr"),
                             "--out", str(tmp_path / f"seg_{which}"), "--m0", "2",
                             "--components", "2"]) == 0
            assert cli_main(["register", "--in", str(tmp_path / f"seg_{which}" / "segmented.lasr"),
                             "--out", str(tmp_path / f"reg_{which}")]) == 0
            registered.append(str(tmp_path / f"reg_{which}" / "registered.lasr"))
        maps = tmp_path / "maps"
        assert cli_main(["ssm", "--before", registered[0], "--after", registered[1],
                         "--out", str(maps), "--bandwidth", "2.0"]) == 0
        disk = read_report(maps / "report.txt")
        assert disk["n_pairs"] == "7" and not any(key.startswith("pair.7.") for key in disk)


class TestRunDynamic:
    def stim_pair(self, phase, effect=None):
        # quiet background keeps the lag correlations crisp at short movies
        spec_b = PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0),
                             n_frames=14, noise_sd=(0.1, 0.4), seed=10,
                             stim=StimSpec(period=6, phase_lag=0))
        spec_a = replace(spec_b, seed=11, stim=StimSpec(period=6, phase_lag=phase), effect=effect)
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

    def test_dynamic_run_writes_its_maps_as_movies(self, tmp_path, monkeypatch):
        """diff.csv and tmap.csv stack the per-pair maps in pair order, pmap.lasr
        holds one P-map per frame, and each pair keeps its full-precision
        P-map CSV.  The per-pair files come from the static layout of the same
        in-memory movies."""
        box = np.zeros((24, 26), dtype=bool)
        box[9:15, 10:16] = True
        before, after = self.stim_pair(phase=2, effect=EffectSpec(box, 4.0))
        real, per_pair = pipeline._compare_maps, tmp_path / "per_pair"

        def both_layouts(diffs, mask, cfg, out, report, first=(0, 0), fps=None):
            ref = pipeline._Outputs(str(per_pair))
            ref.makedirs()
            real(diffs, mask, cfg, ref, {}, first)
            real(diffs, mask, cfg, out, report, first, fps)

        monkeypatch.setattr(pipeline, "_compare_maps", both_layouts)
        out = tmp_path / "dyn"
        report = run_lasr(quick_config(before, after, out, before_segment=1, after_segment=1,
                                       m0=4, max_lag=6))
        n = report["n_pairs"]
        assert report["mode"] == "dynamic" and n > 1
        pmaps = tuple(f"pair{k:04d}_pmap.csv" for k in range(n))
        assert not [name for name in os.listdir(out) if name.endswith(STAGE_MOVIE_SUFFIXES)]
        assert sorted(os.listdir(out)) == sorted(
            ("diff.csv", "tmap.csv", "pmap.lasr", "report.txt") + pmaps)
        for kind in ("diff", "tmap"):
            assert (out / f"{kind}.csv").read_bytes() == b"".join(
                (per_pair / f"pair{k:04d}_{kind}.csv").read_bytes() for k in range(n))
        for name in pmaps:
            assert (out / name).read_bytes() == (per_pair / name).read_bytes()
        movie = load_movie(out / "pmap.lasr")
        assert len(movie) == n and movie.fps == 2.0
        grids = [np.loadtxt(per_pair / name, delimiter=",", ndmin=2) for name in pmaps]
        assert sum((g > 0).sum() for g in grids) > 0
        for values, grid in zip(movie.values, grids):
            assert np.array_equal(values, np.vectorize(lambda v: float("%.6g" % v))(grid))

    def test_peak_memory_stays_within_a_few_input_movies(self, tmp_path):
        """Each stage replaces a side's movie of the stage before, and the
        registered movies go once differenced, so a dynamic run's traced
        peak stays within 6 input movies: 3.5 on this phantom, where
        keeping every stage alive took 9.9."""
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph), "--frames", "120", "--lag", "5",
                  "--stim-left", "2", "--stim-right", "2"])
        movie_bytes = load_movie(ph / "s1" / "seg1.lasr").values.nbytes
        cfg = RunConfig(before=str(ph / "s1"), after=str(ph / "s2"), out_dir=str(tmp_path / "out"),
                        before_segment=1, after_segment=1, max_lag=12, mode="dynamic")
        tracemalloc.start()
        try:
            report = run_lasr(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["mode"] == "dynamic" and report["n_pairs"] > 90
        assert peak <= 6 * movie_bytes, f"peak {peak / movie_bytes:.2f} input movies"

    def test_dynamic_requires_stim_tags(self, tmp_path):
        before, after = session_pair()
        cfg = quick_config(before, after, tmp_path / "x", mode="dynamic")
        with pytest.raises(StageError) as exc:
            run_lasr(cfg)
        assert exc.value.stage == "load"
        assert isinstance(exc.value.cause, DataError)
        assert not (tmp_path / "x").exists()

    def test_two_frame_rates_fail_at_load(self, tmp_path):
        """A dynamic run pairs frames by index, so both sides need one frame
        rate; a static run does not compare moments and takes any two."""
        before, after = session_pair(replace(STIM_SPEC, fps=2.0), replace(STIM_SPEC, seed=11, fps=8.0))
        with pytest.raises(StageError) as exc:
            run_lasr(quick_config(before, after, tmp_path / "x", before_segment=1, after_segment=1,
                                  m0=4, max_lag=6))
        assert exc.value.stage == "load" and isinstance(exc.value.cause, DataError)
        assert "2.0" in str(exc.value) and "8.0" in str(exc.value)
        assert not (tmp_path / "x").exists()
        for k, kw in enumerate((dict(), dict(mean_frame=True),
                                dict(mode="static", before_segment=1, after_segment=1))):
            assert run_lasr(quick_config(before, after, tmp_path / f"static{k}", **kw))["mode"] == "static"

    def test_two_frame_rates_exit_3_at_load(self, tmp_path, capsys):
        for name, seed, fps in (("s1", 10, 2.0), ("s2", 11, 8.0)):
            save_session(gen_session(replace(STIM_SPEC, seed=seed, fps=fps), session_id=name)[0],
                         tmp_path / name)
        out = tmp_path / "out"
        assert cli_main(["run", "--before", str(tmp_path / "s1"), "--after", str(tmp_path / "s2"),
                         "--out", str(out), "--before-segment", "1", "--after-segment", "1",
                         "--m0", "4", "--max-lag", "6", "--bandwidth", "2.0"]) == 3
        err = capsys.readouterr().err
        assert "load" in err and "2.0" in err and "8.0" in err
        assert not out.exists()

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
        bad = [dict(q=0.0), dict(bandwidth=0.0), dict(bandwidth=float("inf")),
               dict(bandwidth=float("nan")), dict(kernel="box"), dict(rim=-1),
               dict(m0=-1), dict(max_lag=-1), dict(mode="both"), dict(seed=-1),
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


    def test_half_written_file_and_its_directory_are_removed(self, tmp_path):
        def fail_midway(path):
            with open(path, "w", encoding="ascii") as fh:
                fh.write("1,2\n")
            raise OSError("no space left on device")

        out_dir = tmp_path / "o"
        with pytest.raises(StageError) as exc:
            with pipeline._Outputs(str(out_dir)) as out:
                out.stage = "compare"
                out.makedirs()
                out.emit("report.txt", pipeline._write_report, {"n_pairs": 1})
                out.emit("pair0000_diff.csv", fail_midway)
        assert exc.value.stage == "compare"
        assert isinstance(exc.value.cause, OSError)
        assert not out_dir.exists()

    def test_any_failure_removes_outputs_and_keeps_its_type(self, tmp_path):
        def fail(path):
            raise RuntimeError("writer bug")

        out_dir = tmp_path / "o"
        with pytest.raises(RuntimeError, match="writer bug"):
            with pipeline._Outputs(str(out_dir)) as out:
                out.makedirs()
                out.emit("report.txt", pipeline._write_report, {"n_pairs": 1})
                out.emit("pair0000_diff.csv", fail)
        assert not out_dir.exists()


class TestSelectedSegmentLoading:
    """A session directory is parsed only for the segment the run compares."""

    def saved_pair(self, tmp_path):
        before, after = session_pair()
        for name, layout in (("s1", before), ("s2", after)):
            save_session(layout, tmp_path / name)
        return tmp_path / "s1", tmp_path / "s2"

    def test_unselected_segments_are_not_parsed(self, tmp_path):
        s1, s2 = self.saved_pair(tmp_path)
        intact = tmp_path / "intact"
        run_lasr(quick_config(str(s1), str(s2), intact))
        # defaults compare segment 0 before and segment -1 (seg2) after
        (s1 / "seg1.lasr").write_text("LASR1 2 2 1 1\n1 2\nbroken\n")
        (s1 / "seg2.lasr").unlink()
        (s2 / "seg0.lasr").write_text("")
        (s2 / "seg1.lasr").unlink()
        damaged = tmp_path / "damaged"
        run_lasr(quick_config(str(s1), str(s2), damaged))
        want, got = tree_bytes(intact), tree_bytes(damaged)
        assert sorted(want) == sorted(got) and len(want) > 5
        for name in want:
            if name != "report.txt":
                assert got[name] == want[name], name
        paths = ("before.path", "after.path")
        a, b = read_report(intact / "report.txt"), read_report(damaged / "report.txt")
        assert {k: v for k, v in a.items() if k not in paths} == \
            {k: v for k, v in b.items() if k not in paths}

    def test_corrupt_selected_segment_fails_at_load_with_its_line(self, tmp_path):
        s1, s2 = self.saved_pair(tmp_path)
        lines = (s2 / "seg2.lasr").read_text().split("\n")
        lines[4] = lines[4].replace(" ", " oops ", 1)
        (s2 / "seg2.lasr").write_text("\n".join(lines))
        with pytest.raises(StageError) as exc:
            run_lasr(quick_config(str(s1), str(s2), tmp_path / "x"))
        assert exc.value.stage == "load"
        assert isinstance(exc.value.cause, FormatError)
        assert exc.value.cause.line == 5
        assert str(exc.value.cause) == "line 5: expected 26 values, got 27"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("edit,message,kind", [
        (("segment.1.tag = Stim", "segment.1.tag = Warmup"),
         "unknown segment tag 'Warmup'; expected one of ('NoStim', 'Stim')", DataError),
        (("segment.1.file = seg1.lasr\n", ""), "segment 1 has a tag but no file entry", DataError),
        (("segment.0.tag = NoStim\n", "segment.0.tag = NoStim\nsegment.0.tag = Stim\n"),
         "{manifest}: line 4: key 'segment.0.tag' given twice", FormatError),
        # segment 1 loses its tag: the full segment 2 behind it must not vanish
        (("segment.1.tag = Stim\n", ""), "{manifest}: key 'segment.1.file' lies outside segments 0..0",
         DataError),
        (("segment.2.file = seg2.lasr\n", "segment.2.file = seg2.lasr\nsegment.3.file = seg3.lasr\n"),
         "{manifest}: key 'segment.3.file' lies outside segments 0..2", DataError),
    ])
    def test_manifest_is_checked_in_full(self, tmp_path, edit, message, kind):
        s1, s2 = self.saved_pair(tmp_path)
        manifest = s1 / "session.txt"
        assert edit[0] in manifest.read_text()
        manifest.write_text(manifest.read_text().replace(*edit))
        with pytest.raises(StageError) as exc:
            run_lasr(quick_config(str(s1), str(s2), tmp_path / "x"))
        assert exc.value.stage == "load"
        assert type(exc.value.cause) is kind
        assert str(exc.value.cause) == message.format(manifest=manifest)

    def test_segment_index_out_of_range_on_a_directory(self, tmp_path):
        s1, s2 = self.saved_pair(tmp_path)
        with pytest.raises(StageError) as exc:
            run_lasr(quick_config(str(s1), str(s2), tmp_path / "x", after_segment=3))
        assert exc.value.stage == "load"
        assert str(exc.value.cause) == "after segment index 3 out of range for 3 segments"


class TestCompareMovies:
    """The per-pair compare loop shared by ``run`` and ``lasr ssm``."""

    class Capture:
        def __init__(self):
            self.maps = {}

        def emit(self, name, writer, values):
            self.maps[name] = values

    @pytest.mark.parametrize("two_sided", [False, True])
    @pytest.mark.parametrize("fdr_mode", ["bh", "by"])
    def test_fit_reuse_is_bit_identical_to_the_unshared_chain(self, monkeypatch, fdr_mode, two_sided):
        rng = np.random.default_rng(5)
        wide = np.zeros((16, 18), dtype=bool)
        wide[3:13, 3:15] = True
        narrow = wide.copy()
        narrow[3:6, 3:7] = False
        masks = [wide, narrow]  # each movie is one segment on one mask

        def movie(shift, m):
            return Movie(np.where(m, 20.0 + shift * m + rng.normal(0, 1, (5,) + m.shape), 0.0), m, 2.0)

        before = movie(0.0, wide)
        effect = np.zeros_like(wide)
        effect[7:11, 8:12] = True
        after = movie(4.0 * effect, narrow)
        cfg = pipeline._validate(RunConfig(before="b", after="a", out_dir="o", bandwidth=2.5,
                                           fdr_mode=fdr_mode, two_sided=two_sided))
        builds = []

        def counting(*args, **kwargs):
            builds.append(1)
            return local_quadratic_smooth(*args, **kwargs)

        monkeypatch.setattr(pipeline.ssm, "local_quadratic_smooth", counting)
        out, report = self.Capture(), {}
        pipeline._compare_maps(*pipeline._differences(before, after, cfg), cfg, out, report)
        assert len(builds) == 1  # the pairs share one mask, so one fit serves them all
        assert report["n_pairs"] == len(before)
        for k, (b, a) in enumerate(zip(before, after)):
            diff = difference_map(a, b)
            fit = local_quadratic_smooth(diff, h=cfg.bandwidth, kernel=cfg.kernel, rim=cfg.rim)
            tm = t_map(fit)
            pv = p_map(tm, two_sided=two_sided)
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

    def test_first_failing_pair_raises_its_error(self, tmp_path, capsys):
        # six pairs on one mask: pairs 2 and 4 have identical frames (sigma_hat = 0)
        rng = np.random.default_rng(8)
        left = np.zeros((16, 18), dtype=bool)
        left[3:13, 2:9] = True
        right = np.zeros_like(left)
        right[3:13, 10:16] = True
        wide = left | right

        def frame(m):
            return np.where(m, 20.0 + rng.normal(0, 1, m.shape), 0.0)

        shared = [frame(wide), frame(wide)]
        before = [frame(wide), frame(wide), shared[0], frame(wide), shared[1], frame(wide)]
        after = [frame(wide), frame(wide), shared[0], frame(wide), shared[1], frame(wide)]
        before, after = Movie(np.stack(before), wide, 2.0), Movie(np.stack(after), wide, 2.0)
        cfg = pipeline._validate(RunConfig(before="b", after="a", out_dir="o", bandwidth=2.5))
        with pytest.raises(NumericError) as ref:
            for b, a in zip(before, after):
                t_map(local_quadratic_smooth(difference_map(a, b), h=cfg.bandwidth, kernel=cfg.kernel,
                                             rim=cfg.rim))
        with pytest.raises(NumericError) as got:
            pipeline._compare_maps(*pipeline._differences(before, after, cfg), cfg, self.Capture(), {})
        assert str(got.value) == str(ref.value)
        assert "sigma_hat" in str(got.value)
        # supports that do not overlap fail before any fit
        with pytest.raises(DataError, match="registered supports do not overlap"):
            pipeline._differences(Movie(np.stack([frame(left)] * 2), left, 2.0),
                                  Movie(np.stack([frame(right)] * 2), right, 2.0), cfg)

        save_movie(before, tmp_path / "b.lasr")
        save_movie(after, tmp_path / "a.lasr")
        maps = tmp_path / "maps"
        assert cli_main(["ssm", "--before", str(tmp_path / "b.lasr"), "--after", str(tmp_path / "a.lasr"),
                         "--out", str(maps), "--bandwidth", "2.5"]) == 4
        assert "sigma_hat" in capsys.readouterr().err
        assert not maps.exists()


class TestViewFrames:
    """Movies built from one array keep it read-only and hand out read-only frames."""

    def test_builders_hand_out_read_only_frames(self, tmp_path):
        before, _ = session_pair(replace(BASE_SPEC, n_frames=6))
        path = tmp_path / "m.lasr"
        save_movie(before.segments[1][1], path)
        loaded = load_movie(path)
        cut = pipeline._cut_movie(loaded, 3.0)
        registered, _ = pipeline._register_movie(cut)
        masked = pipeline._load_masked(str(path))
        for movie in (loaded, cut, registered, masked):
            for f in movie:
                arrays = [f.values] + ([f.support_mask] if f.support_mask is not None else [])
                for a in arrays:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0, 0] = a[0, 0]
            assert not movie.values.flags.writeable
        for f in masked:
            assert np.array_equal(f.support_mask, (masked.values > 0).any(axis=0))

    def test_view_frames_are_checked_once(self):
        stack = np.ones((3, 2, 2))
        stack[2, 1, 1] = -1.0
        with pytest.raises(DataError, match="nonnegative"):
            Movie(stack)
        with pytest.raises(DataError, match="finite"):
            Movie(np.full((1, 2, 2), np.nan))
        with pytest.raises(DataError, match="support mask"):
            Movie(np.ones((2, 2, 2)), np.ones((2, 2, 3), dtype=bool))


class TestRegisterMovie:
    """One SRLP transform per segment, found on the mean frame over the
    movie's mask, and one stacked resampling: every registered frame is
    ``apply_rigid`` of that transform on that mask, bit for bit."""

    @staticmethod
    def tilted(rng, mask, heavy="low"):
        """Positive values on ``mask`` with the mass at low (or high) columns."""
        cols = np.arange(mask.shape[1])[None, :]
        ramp = 3.0 - 2.0 * cols / mask.shape[1] if heavy == "low" else 1.0 + 2.0 * cols / mask.shape[1]
        return Frame(np.where(mask, 10.0 * ramp + rng.uniform(0.5, 2.0, mask.shape), 0.0),
                     support_mask=mask)

    @staticmethod
    def band(shape, r0, r1, c0, c1, tilt=0.0):
        rr, cc = np.indices(shape)
        centre = r0 + tilt * (cc - c0)
        return (rr >= centre) & (rr < centre + (r1 - r0)) & (cc >= c0) & (cc < c1)

    @staticmethod
    def movie(frames):
        """The frames of one mask as one movie."""
        return Movie(np.stack([f.values for f in frames]), frames[0].support_mask, 2.0)

    def assert_matches_reference(self, frames):
        movie = self.movie(frames)
        got, got_t = pipeline._register_movie(movie)
        ref, ref_t = orc.register_reference(list(movie), srlp_register, apply_rigid)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.array_equal(g.values, r.values)
            assert np.array_equal(g.support_mask, r.support_mask)
        assert got_t == ref_t
        return ref_t

    def test_registered_stack_is_in_c_order(self):
        """The registered stack is C-ordered, as a stack read from a file is,
        so its mean frame sums in the order ``ssm`` sums its input; the mean
        frame keeps the movie's mask."""
        rng = np.random.default_rng(7)
        mask = self.band((20, 24), 7, 13, 3, 21, tilt=0.1)
        registered, _ = pipeline._register_movie(self.movie([self.tilted(rng, mask) for _ in range(5)]))
        assert registered.values.flags.c_contiguous
        assert pipeline._mean_movie(registered).mask is registered.mask

    def test_half_turn_on_the_same_mask(self):
        rng = np.random.default_rng(2)
        mask = self.band((20, 24), 7, 13, 3, 21)  # symmetric under a half turn
        frames = [self.tilted(rng, mask) for _ in range(5)]
        frames[2] = self.tilted(rng, mask, heavy="high")
        t = self.assert_matches_reference(frames)
        # alone, the flipped frame would be turned half round; in its segment it is not
        assert srlp_register(frames[2])[1] != t == srlp_register(frames[1])[1]

    def test_quarter_turn(self):
        rng = np.random.default_rng(3)
        mask = np.ascontiguousarray(np.rot90(self.band((22, 22), 2, 6, 2, 20, tilt=0.1)))
        t = self.assert_matches_reference([self.tilted(rng, mask) for _ in range(4)])
        registered = apply_rigid(Frame(mask.astype(float), support_mask=mask), t).support_mask
        rows, cols = np.nonzero(registered)
        assert np.ptp(cols) > np.ptp(rows)  # the tall support lies along the rows now

    def test_one_turn_pass_per_mask(self, monkeypatch):
        rng = np.random.default_rng(6)
        mask = self.band((20, 24), 1, 5, 2, 21, tilt=0.15)
        frames = [self.tilted(rng, mask, heavy) for heavy in ("low", "low", "high", "low", "low", "high")]
        calls = []

        def count(name):
            real = getattr(pipeline.reg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(pipeline.reg, name, wrapper)

        count("_quarter_turn")
        count("srlp_register")
        registered, _ = pipeline._register_movie(self.movie(frames))
        # the segment's one mask takes one turn, inside its one SRLP call
        assert calls == ["srlp_register", "_quarter_turn"]
        assert registered.mask.shape == mask.shape
        monkeypatch.undo()
        self.assert_matches_reference(frames)

    def test_single_frame(self):
        rng = np.random.default_rng(4)
        frame = self.tilted(rng, self.band((12, 15), 0, 3, 1, 14, tilt=0.15))
        t = self.assert_matches_reference([frame])
        assert t.theta != 0.0 and t == srlp_register(frame)[1]

    @pytest.mark.parametrize("bad", ["empty", "one column"])
    def test_unregistrable_region_raises_the_reference_error(self, bad):
        rng = np.random.default_rng(5)
        column = np.zeros((12, 15), dtype=bool)
        column[5, 6] = True  # a taller column would be quarter-turned into a row
        mask = {"empty": np.zeros_like(column), "one column": column}[bad]
        frames = [self.tilted(rng, mask) for _ in range(3)]
        with pytest.raises(DataError) as ref:
            orc.register_reference(frames, srlp_register, apply_rigid)
        with pytest.raises(DataError) as got:
            pipeline._register_movie(self.movie(frames))
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


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

    @pytest.mark.parametrize("flag,value", [("--rim", str(10**20)), ("--bandwidth", "1e20")])
    def test_rim_beyond_a_c_long_runs(self, tmp_path, flag, value):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        out = tmp_path / "out"
        assert cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                         "--out", str(out), "--mean-frame", flag, value]) == 0
        assert read_report(out / "report.txt")["rim"] == str(10**20)

    def test_usage_errors_exit_2(self, capsys):
        assert cli_main([]) == 2
        assert cli_main(["nope"]) == 2
        assert cli_main(["run", "--before", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "phantom" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["ssm", "--before", "b", "--after", "a",
                                                                 "--out", "o", "--kernel", "box"], 2)])
    def test_python_m_lasr(self, tmp_path, argv, code):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "lasr"] + argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert ("phantom" in proc.stdout) if code == 0 else ("unknown kernel 'box'" in proc.stderr)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["segment", "run"])
    def test_non_ascii_input_exits_3_at_load(self, tmp_path, capsys, command):
        if command == "segment":
            bad = tmp_path / "u.lasr"
            bad.write_bytes(b"LASR1 1 1 1 2\n\xc3")
            argv = ["segment", "--in", str(bad)]
        else:
            ph = tmp_path / "ph"
            cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
            bad = ph / "s2" / "session.txt"
            bad.write_bytes(bad.read_bytes().replace(b"s2", b"s\xc32", 1))
            argv = ["run", "--before", str(ph / "s1"), "--after", str(ph / "s2")]
        out = tmp_path / "o"
        capsys.readouterr()
        assert cli_main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: stage 'load' failed: {bad}: not ASCII text\n"
        assert not out.exists()

    def test_dev_mode_chain_raises_no_warning(self, tmp_path):
        """``python -X dev -W error -m lasr``: an unclosed file or a numpy
        deprecation anywhere in these commands fails them."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def lasr(*argv):
            proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "lasr"] + list(argv),
                                  cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0 and "Warning" not in proc.stderr, (argv, proc.stderr)

        lasr("phantom", "--out", "ph", "--rows", "24", "--cols", "26", "--frames", "12", "--seed", "3")
        lasr("run", "--before", "ph/s1", "--after", "ph/s2", "--out", "dyn", "--before-segment", "1",
             "--after-segment", "1", "--m0", "2", "--max-lag", "3", "--bandwidth", "2.0")
        assert read_report(tmp_path / "dyn" / "report.txt")["mode"] == "dynamic"
        for session in ("s1", "s2"):
            lasr("segment", "--in", f"ph/{session}/seg0.lasr", "--out", f"seg_{session}")
            lasr("register", "--in", f"seg_{session}/segmented.lasr", "--out", f"reg_{session}")
        lasr("ssm", "--before", "reg_s1/registered.lasr", "--after", "reg_s2/registered.lasr",
             "--out", "maps", "--bandwidth", "2.0")
        assert (tmp_path / "maps" / "report.txt").is_file()

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
        model = select_model(positive_samples(movie[min(10, len(movie) - 1)]), (2, 3),
                             init=InitSpec(seed=0))
        assert int(rep["mixture_m"]) == model.m
        assert rep["mixture_loglik"] == pipeline._fmt(model.loglik)
        assert rep["mixture_converged"] == pipeline._fmt(model.converged)
        assert int(rep["mixture_n_iter"]) == model.n_iter
        assert int(rep["threshold_cut"]) == optimal_threshold(model).cut
        for c in model.candidates:
            for key in ("loglik", "bic", "converged", "n_iter"):
                assert rep[f"candidate.{c.m}.{key}"] == pipeline._fmt(getattr(c, key))
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

    def test_unconverged_threshold_search_falls_back_to_grid(self, tmp_path, capsys, monkeypatch):
        """A root search that runs out of iterations gives no root, so the
        threshold comes from the PMC grid, as for a root that is not a PMC
        minimum: ``segment`` succeeds and reports the fallback."""
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        monkeypatch.setattr(segmentation, "_BRENT_MAXITER", 1)
        model = select_model(positive_samples(load_movie(ph / "s1" / "seg0.lasr")[2]), (2,))
        gap = lambda x: segmentation._density_gap(model, x)
        lo, hi = float(model.means[0]), float(model.means[1])
        with pytest.raises(NumericError, match="did not converge after 1 iterations"):
            segmentation._brentq(gap, lo, hi, float(gap(lo)), float(gap(hi)), 1e-14, 8.9e-16)
        assert optimal_threshold(model).method == "grid-fallback"
        capsys.readouterr()
        out = tmp_path / "seg"
        assert cli_main(["segment", "--in", str(ph / "s1" / "seg0.lasr"), "--out", str(out)]) == 0
        assert "(grid-fallback)" in capsys.readouterr().out
        rep = read_report(out / "segment_report.txt")
        assert rep["threshold_method"] == "grid-fallback"
        assert (out / "segmented.lasr").exists()

    def test_fallback_and_unconverged_fits_log_one_warning_per_side(self, tmp_path, caplog,
                                                                    monkeypatch):
        """The set-up of ``test_unconverged_threshold_search_falls_back_to_grid``:
        each side's grid-fallback threshold logs one warning on the ``lasr``
        logger, naming the side and the segment; so does a mixture stopped at
        its iteration cap.  A converged fit with a root threshold logs none."""
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS)
        seg0 = ph / "s1" / "seg0.lasr"
        run = ["run", "--before", str(ph / "s1"), "--after", str(ph / "s2")]

        def warnings(argv):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="lasr"):
                assert cli_main(argv) == 0
            assert all(r.name == "lasr" and r.levelno == logging.WARNING for r in caplog.records)
            return [r.getMessage() for r in caplog.records]

        assert warnings(run + ["--out", str(tmp_path / "r0")]) == []
        assert read_report(tmp_path / "r0" / "report.txt")["before.mixture_converged"] == "true"
        monkeypatch.setattr(segmentation, "_BRENT_MAXITER", 1)
        fallback = "the threshold came from the PMC grid fallback"
        assert warnings(run + ["--out", str(tmp_path / "r1")]) == [
            f"before side, segment 0 (NoStim): {fallback}",
            f"after side, segment -1 (NoStim): {fallback}"]
        assert warnings(["segment", "--in", str(seg0), "--out", str(tmp_path / "s1")]) == [
            f"segment {seg0}: {fallback}"]
        monkeypatch.setattr(segmentation, "_TOL", -1.0)  # no start converges
        assert warnings(["segment", "--in", str(seg0), "--out", str(tmp_path / "s2")]) == [
            f"segment {seg0}: the 3-component mixture stopped unconverged after 300 "
            f"iterations; {fallback}"]
        rep = read_report(tmp_path / "s2" / "segment_report.txt")
        assert rep["mixture_converged"] == "false" and rep["threshold_method"] == "grid-fallback"

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
            return blob * (20.0 + rng.normal(0, 1, blob.shape))

        same = frame()
        save_movie(Movie(np.stack([frame(), same])), tmp_path / "b.lasr")
        save_movie(Movie(np.stack([frame(), same])), tmp_path / "a.lasr")
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

    def test_segment_m0_picks_the_runs_reference_frame(self, tmp_path):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph), "--rows", "24", "--cols", "26", "--frames", "12",
                  "--seed", "3"])
        assert cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                         "--out", str(tmp_path / "run"), "--m0", "2"]) == 0
        thresholds = {}
        for m0 in ("2", "10"):
            assert cli_main(["segment", "--in", str(ph / "s1" / "seg0.lasr"),
                             "--out", str(tmp_path / f"seg{m0}"), "--m0", m0]) == 0
            thresholds[m0] = read_report(tmp_path / f"seg{m0}" / "segment_report.txt")["threshold"]
        assert thresholds["2"] == read_report(tmp_path / "run" / "report.txt")["before.threshold"]
        assert thresholds["10"] != thresholds["2"]

    @pytest.mark.parametrize("run_args, segments, m0, mode", [
        ([], (0, 2), None, "static"),
        (["--m0", "2"], (0, 2), "2", "static"),
        (["--before-segment", "1", "--after-segment", "1", "--m0", "2", "--max-lag", "3"], (1, 1), "2", "dynamic"),
    ], ids=["static", "static-m0", "dynamic"])
    def test_chain_writes_the_stage_movies_run_computes(self, tmp_path, monkeypatch, run_args, segments, m0,
                                                         mode):
        """``run`` keeps its segmented and registered movies in memory;
        ``segment`` then ``register`` on the same segment file, with the
        run's m0, writes them byte for byte.  Each holds one mask, which
        ``_differences`` relies on, and ``_load_masked`` restores that
        mask from the written file."""
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph), "--rows", "24", "--cols", "26", "--frames", "12",
                  "--seed", "3", "--effect-delta", "4.0"])
        computed = {"segmented": [], "registered": []}  # per stage: the before movie, then the after one

        def keep(name, stage):
            real = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                movie, extra = real(*args, **kwargs)
                computed[stage].append(movie)
                return movie, extra
            monkeypatch.setattr(pipeline, name, wrapper)

        keep("_segment_movie", "segmented")
        keep("_register_movie", "registered")
        assert cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                         "--out", str(tmp_path / "run")] + run_args) == 0
        monkeypatch.undo()
        report = read_report(tmp_path / "run" / "report.txt")
        assert report["mode"] == mode
        assert not [name for name in os.listdir(tmp_path / "run") if name.endswith(STAGE_MOVIE_SUFFIXES)]
        assert [len(movies) for movies in computed.values()] == [2, 2]
        for side, (which, session, seg) in enumerate(zip(("before", "after"), ("s1", "s2"), segments)):
            chain = tmp_path / session
            assert cli_main(["segment", "--in", str(ph / session / f"seg{seg}.lasr"),
                             "--out", str(chain / "seg")] + (["--m0", m0] if m0 else [])) == 0
            # equal movies can come from different cuts: the threshold and its fit are checked too
            seg_report = read_report(chain / "seg" / "segment_report.txt")
            for key in ("mixture_m", "mixture_loglik", "mixture_converged", "mixture_n_iter",
                        "threshold", "threshold_method", "threshold_cut"):
                assert seg_report[key] == report[f"{which}.{key}"], (session, key)
            assert cli_main(["register", "--in", str(chain / "seg" / "segmented.lasr"),
                             "--out", str(chain / "reg")]) == 0
            for stage, written in (("segmented", chain / "seg" / "segmented.lasr"),
                                   ("registered", chain / "reg" / "registered.lasr")):
                save_movie(computed[stage][side], tmp_path / "in_run.lasr")
                assert written.read_bytes() == (tmp_path / "in_run.lasr").read_bytes(), (session, stage)
                mask = computed[stage][side].mask
                assert mask.shape == (24, 26)
                assert np.array_equal(pipeline._load_masked(str(written)).mask, mask), (session, stage)


# flag, value text (None: an on/off flag), field, value
RUN_OPTIONS = [
    ("before-segment", "1", "before_segment", 1),
    ("after-segment", "2", "after_segment", 2),
    ("mode", "dynamic", "mode", "dynamic"),
    ("q", "0.1", "q", 0.1),
    ("bandwidth", "2.5", "bandwidth", 2.5),
    ("kernel", "tricube", "kernel", "tricube"),
    ("rim", "4", "rim", 4),
    ("m0", "3", "m0", 3),
    ("max-lag", "7", "max_lag", 7),
    ("fdr", "by", "fdr_mode", "by"),
    ("two-sided", None, "two_sided", True),
    ("mean-frame", None, "mean_frame", True),
    ("seed", "5", "seed", 5),
]
SSM_KEYS = ("q", "bandwidth", "kernel", "rim", "fdr", "two-sided", "mean-frame")
HELP_FLAGS = {
    "phantom": {"--out", "--seed", "--rows", "--cols", "--frames", "--fps", "--noise-bg",
                "--noise-signal", "--effect-delta", "--effect-rows", "--effect-cols",
                "--stim-period", "--stim-left", "--stim-right", "--lag"},
    "run": {"--before", "--after", "--out"} | {f"--{k}" for k, *_ in RUN_OPTIONS},
    "segment": {"--in", "--out", "--components", "--m0", "--seed"},
    "register": {"--in", "--out"},
    "ssm": {"--before", "--after", "--out"} | {f"--{k}" for k in SSM_KEYS},
}


class TestCliOptions:
    """One option table: every flag lands on its RunConfig field, unset
    options keep the RunConfig defaults, and the file-writing subcommands
    share one output context."""

    class Captured(Exception):
        pass

    @staticmethod
    def flag_args(key, text):
        return [f"--{key}"] + ([text] if text is not None else [])

    @staticmethod
    def assert_only(cfg, **fields):
        """``cfg`` holds ``fields`` and the RunConfig default everywhere else."""
        default = RunConfig(before=cfg.before, after=cfg.after, out_dir=cfg.out_dir)
        assert cfg == replace(default, **fields)

    def capture_run(self, monkeypatch):
        seen = []
        monkeypatch.setattr(pipeline, "run_lasr", lambda cfg: seen.append(cfg) or {"n_pairs": 0})
        return seen

    def capture_validate(self, monkeypatch):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise self.Captured

        monkeypatch.setattr(pipeline, "_validate", capture)
        return seen

    def test_the_table_lists_the_run_keys(self):
        assert list(pipeline._RUN_KEYS) == [k for k, *_ in RUN_OPTIONS]

    @pytest.mark.parametrize("key,text,field,value", RUN_OPTIONS, ids=[k for k, *_ in RUN_OPTIONS])
    def test_run_flag_lands_on_the_field(self, monkeypatch, key, text, field, value):
        seen = self.capture_run(monkeypatch)
        assert cli_main(["run", "--before", "b", "--after", "a", "--out", "o"] + self.flag_args(key, text)) == 0
        assert (seen[0].before, seen[0].after, seen[0].out_dir) == ("b", "a", "o")
        self.assert_only(seen[0], **{field: value})

    @pytest.mark.parametrize("args", [["--config", "opts.cfg"], ["--workers", "2"], ["--no-mean-frame"],
                                      ["--no-two-sided"]], ids=lambda args: args[0])
    def test_options_off_the_table_exit_2(self, monkeypatch, capsys, args):
        seen = self.capture_run(monkeypatch)
        assert cli_main(["run", "--before", "b", "--after", "a"] + args) == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
        assert seen == []

    def test_run_without_options_keeps_the_defaults(self, monkeypatch):
        seen = self.capture_run(monkeypatch)
        assert cli_main(["run", "--before", "b", "--after", "a"]) == 0
        assert seen == [RunConfig(before="b", after="a", out_dir="lasr_out")]

    @pytest.mark.parametrize("key,text,field,value",
                             [o for o in RUN_OPTIONS if o[0] in SSM_KEYS],
                             ids=list(SSM_KEYS))
    def test_ssm_flag_lands_on_the_field(self, monkeypatch, key, text, field, value):
        seen = self.capture_validate(monkeypatch)
        with pytest.raises(self.Captured):
            cli_main(["ssm", "--before", "b", "--after", "a", "--out", "o"] + self.flag_args(key, text))
        self.assert_only(seen[0], **{field: value})

    def test_segment_flags_land_on_their_fields(self, monkeypatch):
        seen = self.capture_validate(monkeypatch)
        for args, fields in ((["--components", "2,4"], dict(candidates=(2, 4))),
                             (["--seed", "5"], dict(seed=5)), ([], {})):
            with pytest.raises(self.Captured):
                cli_main(["segment", "--in", "m.lasr", "--out", "o"] + args)
            cfg = seen.pop()
            assert (cfg.before, cfg.out_dir) == ("m.lasr", "o")
            self.assert_only(cfg, **fields)

    @pytest.mark.parametrize("cmd", sorted(HELP_FLAGS))
    def test_help_lists_the_same_flags(self, cmd, capsys):
        assert cli_main([cmd, "--help"]) == 0
        listed = {tok.strip("[],") for tok in capsys.readouterr().out.split() if tok.startswith(("--", "[--"))}
        assert listed == HELP_FLAGS[cmd] | {"--help"}

    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "both"], ["run", "--kernel", "box"], ["run", "--fdr", "xx"],
        ["ssm", "--kernel", "box"], ["ssm", "--fdr", "xx"],
    ], ids=["run-mode", "run-kernel", "run-fdr", "ssm-kernel", "ssm-fdr"])
    def test_bad_choice_exits_2_at_stage_config(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli_main(argv + ["--before", "b", "--after", "a", "--out", str(out)]) == 2
        assert "stage 'config'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["segment", "register"])
    def test_missing_input_fails_at_load(self, tmp_path, capsys, cmd):
        out = tmp_path / "o"
        assert cli_main([cmd, "--in", str(tmp_path / "nope.lasr"), "--out", str(out)]) == 3
        assert "stage 'load'" in capsys.readouterr().err
        assert not out.exists()

    def test_register_empty_support_fails_at_register(self, tmp_path, capsys):
        save_movie(Movie(np.zeros((2, 8, 9))), tmp_path / "empty.lasr")
        out = tmp_path / "o"
        assert cli_main(["register", "--in", str(tmp_path / "empty.lasr"), "--out", str(out)]) == 3
        assert "stage 'register'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sitting_region_fails_at_segment(self, tmp_path, capsys):
        # a bright block only in frame m0 = 10: no pixel is above that
        # frame's threshold in most frames
        rng = np.random.default_rng(1)
        stack = np.maximum(rng.normal(0.0, 0.2, (12, 16, 18)), 0.0)
        stack[10] = np.maximum(rng.normal(0.0, 1.0, (16, 18)), 0.0)
        stack[10, 4:12, 4:14] = 20.0 + rng.normal(0.0, 1.0, (8, 10))
        movie = Movie(stack)
        save_movie(movie, tmp_path / "m.lasr")
        save_session(SessionLayout((("NoStim", movie),)), tmp_path / "s")
        saved = load_movie(tmp_path / "m.lasr")[10]
        t = optimal_threshold(select_model(positive_samples(saved), (2, 3))).t
        for argv in (["segment", "--in", str(tmp_path / "m.lasr")],
                     ["run", "--before", str(tmp_path / "s"), "--after", str(tmp_path / "s")]):
            out = tmp_path / argv[0]
            assert cli_main(argv + ["--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert "stage 'segment'" in err
            assert f"empty sitting region: no pixel is above the threshold {t:.12g}" in err
            assert not out.exists()

    def test_one_pixel_sitting_region_fails_at_segment(self, tmp_path, capsys):
        # an m = 2 cut between background and a block that only frame m0 = 10
        # shows: the majority vote keeps the one pixel bright in every frame,
        # which register could not take
        rng = np.random.default_rng(0)
        stack = 5.0 + rng.normal(0.0, 0.5, (12, 16, 18))
        stack[:, 2, 2] = 30.0 + rng.normal(0.0, 1.0, 12)
        stack[10, 4:12, 4:14] = 30.0 + rng.normal(0.0, 1.0, (8, 10))
        movie = Movie(stack)
        save_movie(movie, tmp_path / "m.lasr")
        save_session(SessionLayout((("NoStim", movie),)), tmp_path / "s")
        saved = load_movie(tmp_path / "m.lasr")
        model = select_model(positive_samples(saved[10]), (2, 3))
        assert model.m == 2
        t = optimal_threshold(model).t
        assert pipeline._consensus_region(saved.values, t).sum() == 1
        for argv in (["segment", "--in", str(tmp_path / "m.lasr")],
                     ["run", "--before", str(tmp_path / "s"), "--after", str(tmp_path / "s")]):
            out = tmp_path / argv[0]
            assert cli_main(argv + ["--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert "stage 'segment'" in err
            assert f"sitting region at the threshold {t:.12g} spans fewer than 2 columns" in err
            assert not out.exists()

    def test_one_column_tall_sitting_region_is_kept(self):
        # register turns the long axis horizontal, so a tall one-column region registers
        stack = np.zeros((3, 8, 9))
        stack[:, 2:6, 4] = 5.0
        cut = pipeline._cut_movie(Movie(stack), 1.0)
        assert cut[0].support_mask.sum() == 4
        srlp_register(cut[0])

    def test_region_pixel_reading_zero_stays_in_every_mask(self, tmp_path):
        # the sitting region cannot move within a segment, so a region pixel
        # reading 0 in one frame stays in the movie's mask, the registered
        # mask and the masks read back from both files
        stack = np.zeros((3, 8, 9))
        stack[:, 2:5, 1:8] = 5.0
        stack[1, 3, 4] = 0.0
        cut = pipeline._cut_movie(Movie(stack), 1.0)
        assert np.array_equal(cut.mask, stack[0] > 0) and cut[1].support_mask[3, 4]
        registered, t = pipeline._register_movie(cut)
        assert np.array_equal(registered[1].support_mask, apply_rigid(cut[1], t).support_mask)
        for name, movie in (("cut", cut), ("registered", registered)):
            save_movie(movie, tmp_path / f"{name}.lasr")
            assert np.array_equal(pipeline._load_masked(str(tmp_path / f"{name}.lasr")).mask, movie.mask)

    def test_disjoint_supports_fail_at_compare(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        for name, cols in (("b", slice(1, 8)), ("a", slice(10, 17))):
            stack = np.zeros((2, 12, 18))
            stack[:, 2:10, cols] = 20.0 + rng.normal(0.0, 1.0, (2, 8, 7))
            save_movie(Movie(stack), tmp_path / f"{name}.lasr")
        maps = tmp_path / "maps"
        assert cli_main(["ssm", "--before", str(tmp_path / "b.lasr"), "--after", str(tmp_path / "a.lasr"),
                         "--out", str(maps)]) == 3
        assert "stage 'compare' failed: registered supports do not overlap" in capsys.readouterr().err
        assert not maps.exists()

    @pytest.mark.parametrize("rows,needle", [("14-20", "bad span '14-20'"),
                                             ("30:50", "span '30:50' outside [0, 38)")])
    def test_phantom_bad_effect_span_exits_2(self, tmp_path, capsys, rows, needle):
        out = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(out), "--effect-delta", "4", "--effect-rows", rows]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows,cols,box", [(4, 5, (slice(0, 4), slice(0, 5))),
                                               (38, 41, (slice(16, 22), slice(17, 23)))])
    def test_phantom_default_effect_box_is_clipped_to_the_grid(self, tmp_path, rows, cols, box):
        """The default span ``n//2-3:n//2+3`` is clipped to the grid rather than
        wrapping from the far edge on a side shorter than 6."""
        out = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(out), "--rows", str(rows), "--cols", str(cols),
                         "--frames", "2", "--effect-delta", "4"]) == 0
        mask = np.loadtxt(out / "effect_mask.csv", delimiter=",")
        want = np.zeros((rows, cols))
        want[box] = 1.0
        assert np.array_equal(mask, want)

    @pytest.mark.parametrize("flag,value,needle", [
        ("--rows", "0", "--rows must be >= 1, got 0"), ("--cols", "-2", "--cols must be >= 1"),
        ("--frames", "0", "--frames must be >= 1"), ("--fps", "0", "--fps must be > 0"),
        ("--fps", "nan", "--fps must be > 0"), ("--noise-bg", "-1", "--noise-bg must be >= 0"),
        ("--noise-signal", "-0.5", "--noise-signal must be >= 0"), ("--fps", "inf", "--fps must be > 0"),
        ("--noise-bg", "inf", "--noise-bg must be >= 0 and finite"),
        ("--effect-delta", "nan", "--effect-delta must be finite"),
        ("--effect-delta", "inf", "--effect-delta must be finite"),
        ("--stim-left", "inf", "--stim-left must be finite"), ("--stim-right", "nan", "--stim-right must be finite"),
        ("--stim-period", "1", "--stim-period must be >= 2"), ("--seed", "-1", "--seed must be >= 0")])
    def test_phantom_bad_number_exits_2_naming_the_flag(self, tmp_path, capsys, flag, value, needle):
        out = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(out), flag, value]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the test
    @pytest.mark.parametrize("flag", ["--noise-bg", "--stim-left"])
    def test_phantom_overflow_exits_2_naming_the_scale_flags(self, tmp_path, capsys, flag):
        out = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(out), "--rows", "8", "--cols", "8", "--frames", "2",
                         flag, "1e308"]) == 2
        err = capsys.readouterr().err
        assert "phantom values overflow" in err and "--noise-bg" in err and "--stim-left" in err
        assert not out.exists()

    def test_phantom_out_of_memory_exits_2_naming_the_size_flags(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):  # no test allocates a grid too large for the host
            raise MemoryError
        monkeypatch.setattr(pipeline.synthgen, "gen_session", no_memory)
        out = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(out), "--rows", "100000", "--cols", "100000"]) == 2
        assert "does not fit in memory; reduce --rows/--cols/--frames" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_bandwidth_exits_without_a_traceback(self, tmp_path):
        # no stencil offset reaches past the grid, so a bandwidth far wider
        # than the phantom costs no more than one as wide as the grid
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        assert cli_main(["phantom", "--out", str(tmp_path / "ph")] + PHANTOM_ARGS) == 0
        proc = subprocess.run([sys.executable, "-m", "lasr", "run", "--before", "ph/s1", "--after", "ph/s2",
                               "--out", "o", "--bandwidth", "1e6"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("cmd", ["segment", "register"])
    def test_failed_report_removes_the_stage_outputs(self, tmp_path, monkeypatch, capsys, cmd):
        ph = tmp_path / "ph"
        assert cli_main(["phantom", "--out", str(ph)] + PHANTOM_ARGS) == 0

        def full(report, path):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "_write_report", full)
        out = tmp_path / "o"
        assert cli_main([cmd, "--in", str(ph / "s1" / "seg0.lasr"), "--out", str(out)]) == 3
        assert "stage 'report'" in capsys.readouterr().err
        assert not out.exists()

    def test_ssm_mean_frame_compares_the_mean_registered_frames(self, tmp_path):
        ph = tmp_path / "ph"
        cli_main(["phantom", "--out", str(ph), "--effect-delta", "4.0"] + PHANTOM_ARGS)
        registered = []
        for which, path in (("b", ph / "s1" / "seg0.lasr"), ("a", ph / "s2" / "seg2.lasr")):
            assert cli_main(["segment", "--in", str(path), "--out", str(tmp_path / f"seg_{which}")]) == 0
            assert cli_main(["register", "--in", str(tmp_path / f"seg_{which}" / "segmented.lasr"),
                             "--out", str(tmp_path / f"reg_{which}")]) == 0
            registered.append(str(tmp_path / f"reg_{which}" / "registered.lasr"))
        maps = tmp_path / "maps"
        assert cli_main(["ssm", "--before", registered[0], "--after", registered[1],
                         "--out", str(maps), "--mean-frame"]) == 0

        def mean(path):
            v = load_movie(path).values.mean(axis=0)
            return Movie(v[None], v > 0)

        ref = pipeline._Outputs(str(tmp_path / "ref"))
        ref.makedirs()
        cfg = pipeline._validate(RunConfig(before="b", after="a", out_dir="o"))
        report = {}
        pipeline._compare_maps(*pipeline._differences(mean(registered[0]), mean(registered[1]), cfg),
                               cfg, ref, report)
        got = tree_bytes(maps)
        disk = read_report(maps / "report.txt")
        del got["report.txt"]
        assert got == tree_bytes(tmp_path / "ref")
        assert sorted(got) == [f"pair0000_{n}" for n in ("diff.csv", "pmap.csv", "pmap.pgm", "tmap.csv")]
        assert disk["n_pairs"] == "1"
        assert all(disk[k] == pipeline._fmt(v) for k, v in report.items())

        # the one-shot run averages the same registered frames
        run = tmp_path / "run"
        assert cli_main(["run", "--before", str(ph / "s1"), "--after", str(ph / "s2"),
                         "--out", str(run), "--mean-frame"]) == 0
        assert {n: b for n, b in tree_bytes(run).items() if n.startswith("pair")} == got
