"""The package's public names, and what the benchmark under ``perfbench/``
takes from the package.

The benchmark looks functions up by module and name and builds
``RunConfig``s of its own, so a name or field removed from the package
breaks it without any other test noticing.  These tests only read
``perfbench/``; they change nothing there.
"""

import importlib
import importlib.util
import os
import sys

import pytest

import lasr

MODULES = ("errors", "frames", "segmentation", "registration", "ssm", "synthgen", "pipeline")
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
