"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run the tiny smoke sizes only, so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import workloads as W  # noqa: E402  (needs the package path set up above)


def tiny(name):
    return dataclasses.replace(W.WORKLOADS[name], **W.TINY[name])


@pytest.fixture
def snapshot_input(tmp_path):
    wl = tiny("snapshot")
    return wl, W.make_input(wl, 3, 0, str(tmp_path / "in0"))


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, run.__file__, "--workload", "snapshot", "--smoke"],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.LAYER_UNITS
    printed = "\n".join(lines[:-1])
    for name, unit in {**run.E2E_UNITS, **run.LAYER_UNITS}.items():
        assert f" {name} " in printed and printed.count(f" {unit}") >= 1, name


def test_layer_self_times_add_up_to_traced_run():
    proc = subprocess.run([sys.executable, run.__file__, "--workload", "staged", "--smoke",
                           "--trace", "1"], capture_output=True, text=True, cwd=run.ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    m = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    parts = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
    assert parts == pytest.approx(m["trace.run_s"], rel=1e-9)


def test_clean_outputs_pass_every_check(snapshot_input, tmp_path):
    wl, inp = snapshot_input
    out = str(tmp_path / "out")
    W.compare(wl, inp, out)
    problems, quality, report = W.check(wl, inp, out, None)
    assert problems == []
    assert quality["ssm.rejected_px"] >= 1
    problems, _, _ = W.check(wl, inp, out, report)
    assert problems == []


def _rewrite(path, edit):
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(edit(text))


def test_pmap_above_one_is_a_failure(snapshot_input, tmp_path):
    wl, inp = snapshot_input
    out = str(tmp_path / "out")
    W.compare(wl, inp, out)
    _rewrite(os.path.join(out, "pair0000_pmap.csv"), lambda t: "1.5" + t[t.index(","):])
    problems, _, _ = W.check(wl, inp, out, None)
    assert any("outside [0, 1]" in p for p in problems)
    assert any("n_rejected" in p for p in problems)


def _blank_pmap(out):
    """Zero the P-map and its report count: nothing rejected anywhere."""
    path = os.path.join(out, "pair0000_pmap.csv")
    np.savetxt(path, np.zeros_like(np.loadtxt(path, delimiter=",", ndmin=2)), delimiter=",")
    _rewrite(os.path.join(out, "report.txt"),
             lambda t: re.sub(r"(?m)^pair\.0\.n_rejected = \d+$", "pair.0.n_rejected = 0", t))


def test_missed_effect_fails_unless_sessions_registered_apart(snapshot_input, tmp_path):
    wl, inp = snapshot_input
    out = str(tmp_path / "out")
    W.compare(wl, inp, out)
    _blank_pmap(out)
    problems, quality, _ = W.check(wl, inp, out, None)
    assert problems == ["no rejection inside the planted effect box"]
    assert quality["registration.mismatched_pairs"] == 0

    # shift the after session's registration by three columns: the box no
    # longer lines up between the sessions, so the miss is counted instead
    rep = W.read_report(os.path.join(out, "report.txt"))
    v = rep["after.srlp.0.v"]
    _rewrite(os.path.join(out, "report.txt"),
             lambda t: t.replace(f"after.srlp.0.v = {v}\n",
                                 f"after.srlp.0.v = {float(v) + 3.0}\n"))
    problems, quality, _ = W.check(wl, inp, out, None)
    assert problems == []
    assert quality["registration.mismatched_pairs"] == 1


def test_wrong_lag_and_changed_report_are_failures(tmp_path):
    wl = tiny("stim_long")
    inp = W.make_input(wl, 3, 0, str(tmp_path / "in0"))
    out = str(tmp_path / "out")
    W.compare(wl, inp, out)
    _, _, first = W.check(wl, inp, out, None)
    _rewrite(os.path.join(out, "report.txt"),
             lambda t: t.replace(f"icr.j0 = {wl.lag}\n", f"icr.j0 = {wl.lag + 1}\n"))
    problems, _, _ = W.check(wl, inp, out, first)
    assert any("planted lag" in p for p in problems)
    assert any("differs from an earlier run" in p for p in problems)


def test_staged_map_differing_from_reference_is_a_failure(tmp_path):
    wl = tiny("staged")
    inp = W.make_input(wl, 3, 0, str(tmp_path / "in0"))
    out = str(tmp_path / "out")
    W.compare(wl, inp, out)
    assert W.check(wl, inp, out, None)[0] == []
    _rewrite(os.path.join(out, "maps", "pair0003_diff.csv"), lambda t: "9" + t)
    problems, _, _ = W.check(wl, inp, out, None)
    assert problems == ["pair0003_diff.csv differs from the one-shot run_lasr reference"]


def test_measure_counts_failures_without_raising(snapshot_input, tmp_path, monkeypatch):
    wl, inp = snapshot_input
    real = W.compare
    calls = []

    def corrupting(wl_, inp_, out):
        calls.append(out)
        if len(calls) == 1:
            raise RuntimeError("deliberate")
        real(wl_, inp_, out)
        _rewrite(os.path.join(out, "pair0000_pmap.csv"), lambda t: "2" + t[t.index(","):])

    monkeypatch.setattr(W, "compare", corrupting)
    samples, attempted, failed, cals = run.measure(wl, [inp], 0.0, str(tmp_path))
    assert attempted == 2 and failed == 2 and samples == []
    assert len(cals) == 3 and all(c > 0 for c in cals)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOAD_NAMES)
