"""lasr benchmark: whole before/after comparisons on seeded phantom sessions.

    python3 perfbench/run.py --workload snapshot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --smoke          # tiny sizes, prints every metric

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout; without it the benchmark exits with code 2.  Outputs,
the span file and a result file with the machine description land in
``.perfbench/`` at the root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("snapshot", "stim_long", "staged")

# the per-pair statistics after smoothing, timed together as ssm.test_s
TEST_FUNCS = ("ssm.difference_map", "ssm.t_map", "ssm.restrict_tmap", "ssm.p_map",
              "ssm.bh_adjust", "ssm.fdr_map")

# modules a comparison runs through (synthgen runs in set-up only)
LAYERS = ("segmentation", "ssm", "frames", "registration", "pipeline")

E2E_UNITS = {"run_s": "s", "pairs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "segmentation.self_s": "s", "segmentation.select_s": "s", "segmentation.fit_s": "s",
    "segmentation.fits": "count", "segmentation.em_iters": "count",
    "segmentation.converged_ratio": "ratio", "segmentation.threshold_s": "s",
    "segmentation.grid_fallbacks": "count",
    "ssm.self_s": "s", "ssm.smooth_s": "s", "ssm.smooth_calls": "count",
    "ssm.distinct_masks": "count", "ssm.fit_pixels": "count", "ssm.hat_nnz": "count",
    "ssm.pad_s": "s", "ssm.test_s": "s", "ssm.rejected_px": "count",
    "ssm.rejected_outside_px": "count",
    "frames.self_s": "s", "frames.load_s": "s", "frames.save_s": "s",
    "frames.bytes_read": "B", "frames.bytes_written": "B", "frames.files_written": "count",
    "frames.setup_save_s": "s",
    "registration.self_s": "s", "registration.srlp_s": "s", "registration.srlp_calls": "count",
    "registration.distinct_transforms": "count", "registration.icr_s": "s",
    "registration.mismatched_pairs": "count",
    "pipeline.self_s": "s", "synthgen.gen_s": "s",
    "trace.run_s": "s", "trace_overhead_frac": "ratio",
}


def cap_threads() -> dict:
    """Pin BLAS/OpenMP pools to the CPUs this process may use (before numpy loads)."""
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = n
    return {var: n for var in THREAD_VARS}


def import_package():
    """Import lasr from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "lasr", "__init__.py")):
        print(f"perfbench: no lasr package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import lasr
    if os.path.dirname(os.path.dirname(os.path.abspath(lasr.__file__))) != SRC:
        print(f"perfbench: imported lasr from {lasr.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_info(thread_caps: dict) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_caps": thread_caps}


# Median time of ``calibrate`` on the host the benchmark was tuned on (a
# 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).  Timed metrics are wall
# time divided by ``speed_factor``, so they read as seconds on that host
# at its typical speed.
CAL_REF_S = 0.035


def calibrate() -> float:
    """Time one pass of a fixed kernel shaped like the program's work.

    The kernel mixes what a comparison spends its time on: small-array
    numpy reductions (EM), float formatting and parsing (the text formats)
    and a plain Python loop.  Its inputs never change, so its time follows
    only the speed of the host.  The benchmark runs it before every set-up
    and comparison and once after the last, never inside a timed region:
    the VM the benchmark was tuned on runs for seconds to minutes at a time
    about 1.5x slower than at others, and ten-seed medians of plain wall
    time moved by up to 60% between sets of the same code.
    """
    import numpy as np
    x = np.random.default_rng(0).standard_normal((1000, 3))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(120):
        m = x.max(axis=1, keepdims=True)
        acc += float(np.log(np.exp(x - m).sum(axis=1)).sum())
    text = ",".join(f"{v:.12g}" for v in x.ravel())
    acc += sum(float(tok) for tok in text.split(","))
    k = 0
    for i in range(300_000):
        k += i
    return time.perf_counter() - t0


def speed_factor(cal_before, cal_after) -> float:
    """How much slower than the reference the host ran around one timed
    region, from the calibrations on either side: above 1 on a slow phase.

    The faster of the two is taken: the kernel is short, so now and then
    one calibration lands on a burst of contention that slows it twice as
    much as it slows a comparison lasting seconds.
    """
    return min(cal_before, cal_after) / CAL_REF_S


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


def measure(wl, inputs, seconds, work, tracer=None):
    """Cycle over the input sets, one comparison at a time, until ``seconds``
    have passed and every input set has run; the first set runs twice, so
    the repeat check always runs.  With a tracer, each visit to an input set
    runs it twice back to back, traced and untraced in alternating order, so
    the two modes see the same inputs at nearly the same time.  The
    calibration kernel runs before every comparison and after the last.
    Returns (samples, attempted, failed, calibration times); failed
    comparisons give no sample."""
    import workloads as W

    k = len(inputs)
    step = 1 if tracer is None else 2       # comparisons per visit
    minimum = k + 1 if tracer is None else 2 * k
    samples = []          # dicts: input, traced, seconds, pairs, quality, cid
    first_report = {}
    attempted = failed = 0
    cals = []
    start = time.perf_counter()
    n = 0
    while n < minimum or n % step or time.perf_counter() - start < seconds:
        visit, half = divmod(n, step)
        i = visit % k
        inp = inputs[i]
        traced = tracer is not None and (visit + half) % 2 == 1
        cid = f"c{n}"
        out = os.path.join(work, f"out{n}")
        attempted += 1
        n += 1
        cals.append(calibrate())
        try:
            if traced:
                tracer.cid = cid
            c0, t0 = time.process_time(), time.perf_counter()
            if traced:
                tracer.call("pipeline.comparison", W.compare, wl, inp, out)
            else:
                W.compare(wl, inp, out)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            problems, quality, report = W.check(wl, inp, out, first_report.get(i))
            first_report.setdefault(i, report)
        except Exception:  # a failed comparison is counted, never raised out of the run
            failed += 1
            print(f"perfbench: comparison {cid} on input {i} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.cid = None
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            failed += 1
            print(f"perfbench: comparison {cid} on input {i} failed: " + "; ".join(problems),
                  file=sys.stderr)
            continue
        if quality["registration.mismatched_pairs"]:
            print(f"perfbench: comparison {cid} on input {i}: the two sessions were registered "
                  f"apart in {quality['registration.mismatched_pairs']} of {quality['pairs']} "
                  "pairs (known defect, counted, not failed)", file=sys.stderr)
        samples.append({"input": i, "traced": traced, "seconds": dt, "cpu": dc,
                        "pairs": quality["pairs"], "quality": quality, "cid": cid,
                        "attempt": n - 1})
    cals.append(calibrate())
    for s in samples:
        s["speed"] = speed_factor(cals[s["attempt"]], cals[s["attempt"] + 1])
    return samples, attempted, failed, cals


def median_over_inputs(samples):
    """Median over input sets of each set's median time (equal weight per set)."""
    per_input = defaultdict(list)
    for s in samples:
        per_input[s["input"]].append(s["seconds"])
    if not per_input:
        return None
    return statistics.median(statistics.median(v) for v in per_input.values())


def end_to_end(samples, setups, adjust=True):
    """The end-to-end metrics.  ``setups`` holds (seconds, speed factor) per
    set-up.  With ``adjust`` every timed region is divided by the speed
    factor measured around it; without, the metrics are plain wall time."""
    def secs(seconds, speed):
        return seconds / speed if adjust else seconds

    plain = [dict(s, seconds=secs(s["seconds"], s["speed"]))
             for s in samples if not s["traced"]]
    busy = sum(s["seconds"] for s in plain)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": median_over_inputs(plain),
        "pairs_per_s": sum(s["pairs"] for s in plain) / busy if busy > 0 else None,
        "setup_s": statistics.median(secs(t, sp) for t, sp in setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(samples, tracer, n_inputs):
    """Means over the traced comparisons; the layers' self times plus
    pipeline.self_s add up to trace.run_s."""
    recs = tracer.by_comparison()
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    rows = [recs[s["cid"]] for s in traced]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else None

    def incl(*names):
        return mean(sum(r["incl"][nm] for nm in names) for r in rows)

    def self_of(*names):
        return mean(sum(r["self_by_name"][nm] for nm in names) for r in rows)

    def cnt(key):
        return mean(r["counts"][key] for r in rows)

    m = {f"{layer}.self_s": mean(r["self"][layer] for r in rows) for layer in LAYERS}
    fits = sum(r["counts"]["segmentation.fits"] for r in rows)
    m.update({
        "segmentation.select_s": incl("segmentation.select_model"),
        "segmentation.fit_s": incl("segmentation.fit_mixture"),
        "segmentation.fits": cnt("segmentation.fits"),
        "segmentation.em_iters": cnt("segmentation.em_iters"),
        "segmentation.converged_ratio":
            sum(r["counts"]["segmentation.converged"] for r in rows) / fits if fits else None,
        "segmentation.threshold_s": incl("segmentation.optimal_threshold"),
        "segmentation.grid_fallbacks": cnt("segmentation.grid_fallbacks"),
        "ssm.smooth_s": incl("ssm.local_quadratic_smooth"),
        "ssm.smooth_calls": cnt("ssm.smooth_calls"),
        "ssm.distinct_masks": cnt("ssm.distinct_masks"),
        "ssm.fit_pixels": cnt("ssm.fit_pixels"),
        "ssm.hat_nnz": cnt("ssm.hat_nnz"),
        "ssm.pad_s": incl("ssm.pad_rim"),
        "ssm.test_s": incl(*TEST_FUNCS),
        "ssm.rejected_px": mean(s["quality"]["ssm.rejected_px"] for s in samples),
        "ssm.rejected_outside_px": mean(s["quality"]["ssm.rejected_outside_px"] for s in samples),
        "registration.mismatched_pairs":
            mean(s["quality"]["registration.mismatched_pairs"] for s in samples),
        "frames.load_s": self_of("frames.load_session", "frames.load_movie"),
        "frames.save_s": self_of("frames.save_movie", "frames.save_map_csv",
                                 "frames.save_map_image"),
        "frames.bytes_read": cnt("frames.bytes_read"),
        "frames.bytes_written": cnt("frames.bytes_written"),
        "frames.files_written": cnt("frames.files_written"),
        "registration.srlp_s": incl("registration.srlp_register"),
        "registration.srlp_calls": cnt("registration.srlp_calls"),
        "registration.distinct_transforms": cnt("registration.distinct_transforms"),
        "registration.icr_s": incl("registration.icr_lag"),
    })
    setups = [recs.get(f"setup{i}") for i in range(n_inputs)]
    setups = [r for r in setups if r is not None]
    m["synthgen.gen_s"] = mean(r["self"]["synthgen"] for r in setups)
    m["frames.setup_save_s"] = mean(r["self"]["frames"] for r in setups)
    m["trace.run_s"] = mean(r["root_s"] for r in rows)
    m["trace_overhead_frac"] = overhead(traced, plain)
    return m


def overhead(traced, plain):
    """Median over input sets of traced / untraced time, minus one."""
    t, u = defaultdict(list), defaultdict(list)
    for s in traced:
        t[s["input"]].append(s["seconds"])
    for s in plain:
        u[s["input"]].append(s["seconds"])
    ratios = [statistics.median(t[i]) / statistics.median(u[i]) for i in t if i in u]
    return statistics.median(ratios) - 1.0 if ratios else None


def self_time_table(metrics) -> str:
    total = metrics["trace.run_s"] or 0.0
    lines = ["layer            self_s     share"]
    acc = 0.0
    for layer in LAYERS:
        v = metrics[f"{layer}.self_s"] or 0.0
        acc += v
        lines.append(f"{layer:<14} {v:9.4f}  {100.0 * v / total if total else 0.0:7.2f}%")
    lines.append(f"{'sum':<14} {acc:9.4f}   traced run_s {total:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, smoke, caps) -> dict:
    import workloads as W
    from lasr import frames, pipeline, registration, segmentation, ssm, synthgen
    from tracing import Tracer

    wl = W.WORKLOADS[name]
    if smoke:
        wl = dataclasses.replace(wl, **W.TINY[name])
    os.makedirs(WORK, exist_ok=True)
    tag = f"{name}_s{seed}_t{int(trace)}{'_smoke' if smoke else ''}"
    work = os.path.join(WORK, f"work_{tag}_{os.getpid()}")
    os.makedirs(work)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({"frames": frames, "segmentation": segmentation,
                        "registration": registration, "ssm": ssm,
                        "pipeline": pipeline, "synthgen": synthgen})
    try:
        inputs, setup_times, setup_cals = [], [], []
        for i in range(wl.n_inputs):
            setup_cals.append(calibrate())
            t0 = time.perf_counter()
            inputs.append(W.make_input(wl, seed, i, os.path.join(work, f"in{i}"), tracer))
            setup_times.append(time.perf_counter() - t0)
        samples, attempted, failed, run_cals = measure(wl, inputs, seconds, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    cals = setup_cals + run_cals
    setups = [(t, speed_factor(cals[i], cals[i + 1])) for i, t in enumerate(setup_times)]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
              "smoke": smoke, "n_inputs": wl.n_inputs, "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted,
              "run_s_samples": sum(1 for s in samples if not s["traced"]),
              "setup_times": setups,
              "sample_seconds": [[s["input"], s["traced"], s["seconds"], s["cpu"], s["speed"]]
                                 for s in samples],
              "machine": machine_info(caps), "calibration_s": cals,
              "end_to_end": end_to_end(samples, setups),
              "end_to_end_wall": end_to_end(samples, setups, adjust=False)}
    if tracer is not None:
        layers = per_layer(samples, tracer, wl.n_inputs)
        result["per_layer"] = layers
        result["traced_samples"] = sum(1 for s in samples if s["traced"])
        span_path = os.path.join(WORK, f"spans_{tag}.json")
        tracer.write(span_path)
        result["span_file"] = span_path
        result["self_time_table"] = self_time_table(layers)
    with open(os.path.join(WORK, f"BENCH_{tag}.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result, trace, every_metric=False) -> None:
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} affinity={m['affinity']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"threads={m['thread_caps']}")
    wall = result["end_to_end_wall"]
    print(f"timed metrics are wall time divided by the host speed factor (calibration time "
          f"around each timed region / {CAL_REF_S} s, median "
          f"{statistics.median(result['calibration_s']) / CAL_REF_S:.4f}); as wall time: "
          + ", ".join(f"{k} {wall[k]}" for k in ("run_s", "pairs_per_s", "setup_s")))
    print(f"workload {result['workload']} seed {result['seed']}: {result['attempted']} attempted, "
          f"{result['failed']} failed, error_rate {result['error_rate']:.4g}, "
          f"run_s over {result['run_s_samples']} untraced comparisons")
    rows = []
    if not trace or every_metric:
        rows += [(k, v, E2E_UNITS[k]) for k, v in result["end_to_end"].items()]
    if trace:
        rows += [(k, result["per_layer"][k], LAYER_UNITS[k]) for k in LAYER_UNITS]
        print(result["self_time_table"])
    for k, v, unit in rows:
        print(f"  {k:<34} {v if v is not None else 'n/a'} {unit}")
    chosen = (result["per_layer"] if trace else result["end_to_end"])
    units = LAYER_UNITS if trace else E2E_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lasr benchmark")
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and no minimum duration; prints every metric with its unit")
    ns = p.parse_args(argv)

    if ns.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(ns.seed), "--seconds", str(ns.seconds),
                   "--trace", str(ns.trace)] + (["--smoke"] if ns.smoke else [])
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code

    caps = cap_threads()
    import_package()
    seconds = 0.0 if ns.smoke else ns.seconds
    trace = bool(ns.trace) or ns.smoke
    result = run_workload(ns.workload, ns.seed, seconds, trace, ns.smoke, caps)
    print_result(result, trace, every_metric=ns.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
