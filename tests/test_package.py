"""The package's public names, and what the benchmark under ``perfbench/``
takes from the package.

The benchmark looks functions up by module and name and builds
``RunConfig``s of its own, so a name or field removed from the package
breaks it without any other test noticing.  It counts calls of the names it
wraps, so those counts mean something only while the pipeline calls each
name once per unit of work.  These tests only read
``perfbench/``; they change nothing there.
"""

import importlib
import importlib.util
import os
import sys
from dataclasses import replace

import pytest

import lasr

MODULES = ("errors", "frames", "segmentation", "registration", "ssm", "synthgen", "pipeline")
WORKLOADS = ("snapshot", "stim_long", "staged")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def module(name):
    return importlib.import_module(f"lasr.{name}")


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


class TestPublicApi:
    def test_no_name_is_exported_twice(self):
        assert len(lasr.__all__) == len(set(lasr.__all__))

    @pytest.mark.parametrize("name", MODULES)
    def test_every_module_name_resolves_on_the_package(self, name):
        mod = module(name)
        for attr in mod.__all__:
            assert getattr(lasr, attr) is getattr(mod, attr), attr

    def test_the_package_list_is_the_module_lists(self):
        assert lasr.__all__ == [attr for name in MODULES for attr in module(name).__all__]


class TestBenchmarkContract:
    def test_traced_names_are_callables_of_their_modules(self):
        traced = perfbench_module("tracing").TRACED
        assert set(traced) <= set(MODULES)
        for name, attrs in traced.items():
            for attr in attrs:
                assert callable(getattr(module(name), attr, None)), f"{name}.{attr}"

    def test_run_config_takes_every_workload_field(self, tmp_path):
        workloads = perfbench_module("workloads")
        for wl in workloads.WORKLOADS.values():
            inp = workloads.InputSet(0, 7, str(tmp_path), None, None)
            lasr.pipeline._validate(workloads.run_config(wl, inp, str(tmp_path / "out")))

    def test_every_workload_is_run_at_smoke_size(self):
        workloads = perfbench_module("workloads")
        assert set(workloads.WORKLOADS) == set(workloads.TINY) == set(WORKLOADS)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_every_workload_passes_its_checks_at_smoke_size(self, tmp_path, name):
        """make_input -> compare -> check, the benchmark's own output checks
        on its tiny inputs: an output layout that no longer holds what the
        benchmark reads fails here."""
        workloads = perfbench_module("workloads")
        wl = replace(workloads.WORKLOADS[name], **workloads.TINY[name])
        inp = workloads.make_input(wl, 1, 0, str(tmp_path / "in"))
        out = str(tmp_path / "out")
        workloads.compare(wl, inp, out)
        problems, quality, _ = workloads.check(wl, inp, out, None)
        assert problems == []
        assert quality["pairs"] >= 1

    def test_traced_calls_count_groups_and_mask_runs(self, tmp_path, monkeypatch):
        """``registration.srlp_calls`` and ``ssm.smooth_calls`` count calls of
        these module attributes, which the benchmark wraps in place: one SRLP
        call per (support mask, quarter turn) group of a side, one smoother fit
        per run of consecutive pairs on one mask."""
        calls = []

        def count(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        count(lasr.registration, "srlp_register")
        count(lasr.ssm, "local_quadratic_smooth")
        spec = lasr.PhantomSpec(rows=24, cols=26, center=(11.5, 12.5), radii=(7.0, 9.0), n_frames=14,
                                noise_sd=(0.1, 0.4), seed=10, stim=lasr.StimSpec(period=6))
        sessions = [lasr.gen_session(spec, session_id="s1")[0],
                    lasr.gen_session(replace(spec, seed=11), session_id="s2")[0]]
        out = tmp_path / "out"
        report = lasr.run_lasr(lasr.RunConfig(*sessions, str(out), before_segment=1, after_segment=1,
                                              bandwidth=2.0, m0=4, max_lag=3, candidates=(2,)))
        assert report["mode"] == "dynamic"

        def masks(which, name):
            return list(lasr.load_movie(out / f"{which}_{name}.lasr").values > 0)

        groups = sum(len({(m.tobytes(),) + tuple(report[f"{which}.srlp.{i}.{p}"] for p in ("theta", "u", "v"))
                          for i, m in enumerate(masks(which, "segmented"))})
                     for which in ("before", "after"))
        registered = {which: masks(which, "registered") for which in ("before", "after")}
        pair_masks = [registered["before"][report[f"pair.{k}.before_frame"]]
                      & registered["after"][report[f"pair.{k}.after_frame"]]
                      for k in range(report["n_pairs"])]
        runs = 1 + sum(not (a == b).all() for a, b in zip(pair_masks, pair_masks[1:]))
        assert calls.count("srlp_register") == groups
        assert calls.count("local_quadratic_smooth") == runs
