"""Workload inputs, the timed comparisons, and their output checks.

Every input set is a before/after pair of phantom sessions generated by
``lasr.synthgen`` from a seed derived from the benchmark's ``--seed`` and
written to disk; the program only sees those session directories.  One
comparison is one call of a public entry point (``run_lasr``, or the
``segment -> register -> ssm`` chain of ``cli_main``) on one input set.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import ndimage

from lasr import frames, pipeline, registration, synthgen


@dataclass(frozen=True)
class Workload:
    name: str
    n_inputs: int                 # distinct input sets per run
    n_frames: int                 # frames per session segment
    rows: int = 38
    cols: int = 41
    effect: bool = True           # plant a 6x6 +4.0 change in the after session
    lag: Optional[int] = None     # planted stimulation lag (dynamic comparisons)
    staged: bool = False          # drive segment -> register -> ssm through cli_main
    run_options: dict = field(default_factory=dict)


EFFECT_DELTA = 4.0
STIM_AMP = 2.0

# Why each workload exists: perfbench/README.md.  Phantom noise changes how
# many EM iterations a fit needs, so a run cycles over several input sets
# rather than timing one; fewer sets where a comparison is long.
WORKLOADS = {
    "snapshot": Workload(
        "snapshot", n_inputs=8, n_frames=20,
        run_options=dict(before_segment=0, after_segment=-1, mean_frame=True)),
    "stim_long": Workload(
        "stim_long", n_inputs=3, n_frames=240, effect=False, lag=5,
        run_options=dict(before_segment=1, after_segment=1, mode="dynamic",
                         max_lag=12, fdr_mode="by")),
    "staged": Workload(
        "staged", n_inputs=4, n_frames=20, staged=True,
        run_options=dict(before_segment=0, after_segment=-1, mode="static")),
}

# Smoke sizes: the same code paths on a small grid, one input set each.
TINY = {
    "snapshot": dict(n_inputs=1, rows=24, cols=26, n_frames=12),
    "stim_long": dict(n_inputs=1, rows=24, cols=26, n_frames=40),
    "staged": dict(n_inputs=1, rows=24, cols=26, n_frames=12),
}


@dataclass(frozen=True)
class InputSet:
    index: int
    seed: int
    directory: str
    effect_box: np.ndarray        # planted-effect mask in input coordinates (all False if none)
    reference: Optional[str]      # one-shot run_lasr outputs (staged only)


def input_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0] >> 1)


def _effect_box(wl: Workload) -> np.ndarray:
    # the same default box as ``lasr phantom --effect-delta``
    box = np.zeros((wl.rows, wl.cols), dtype=bool)
    if wl.effect:
        box[wl.rows // 2 - 3: wl.rows // 2 + 3, wl.cols // 2 - 3: wl.cols // 2 + 3] = True
    return box


def _specs(wl: Workload, seed: int, box: np.ndarray):
    common = dict(rows=wl.rows, cols=wl.cols, n_frames=wl.n_frames,
                  center=(wl.rows / 2.0 - 0.5, wl.cols / 2.0 - 0.5),
                  radii=(0.30 * wl.rows, 0.40 * wl.cols))
    lag = wl.lag or 0
    effect = synthgen.EffectSpec(box, EFFECT_DELTA) if wl.effect else None
    before = synthgen.PhantomSpec(stim=synthgen.StimSpec(20, STIM_AMP, STIM_AMP, 0),
                                  seed=seed, **common)
    # a delayed pattern shows at frame t what the zero-lag one shows at t - lag
    after = synthgen.PhantomSpec(stim=synthgen.StimSpec(20, STIM_AMP, STIM_AMP, -lag),
                                 effect=effect, seed=seed + 1, **common)
    return before, after


def run_config(wl: Workload, inp: InputSet, out_dir: str) -> pipeline.RunConfig:
    return pipeline.RunConfig(before=os.path.join(inp.directory, "s1"),
                              after=os.path.join(inp.directory, "s2"),
                              out_dir=out_dir, seed=inp.seed, workers=1, **wl.run_options)


def make_input(wl: Workload, seed: int, index: int, directory: str, tracer=None) -> InputSet:
    """Generate and write one input set (plus the staged reference outputs)."""
    sub = input_seed(seed, index)
    box = _effect_box(wl)
    spec_b, spec_a = _specs(wl, sub, box)
    if tracer is not None:
        tracer.cid = f"setup{index}"
    before, _ = synthgen.gen_session(spec_b, session_id="s1")
    after, _ = synthgen.gen_session(spec_a, session_id="s2")
    frames.save_session(before, os.path.join(directory, "s1"))
    frames.save_session(after, os.path.join(directory, "s2"))
    inp = InputSet(index, sub, directory, box, None)
    if wl.staged:
        if tracer is not None:
            tracer.cid = f"reference{index}"
        inp = replace(inp, reference=os.path.join(directory, "reference"))
        pipeline.run_lasr(run_config(wl, inp, inp.reference))
    if tracer is not None:
        tracer.cid = None
    return inp


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pipeline.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"lasr {argv[0]} exited with code {code}")


def compare(wl: Workload, inp: InputSet, out_dir: str) -> None:
    """One timed comparison; writes every output under ``out_dir``."""
    if not wl.staged:
        pipeline.run_lasr(run_config(wl, inp, out_dir))
        return
    n_seg = 3  # gen_session writes NoStim / Stim / NoStim
    sides = (("before", wl.run_options["before_segment"] % n_seg),
             ("after", wl.run_options["after_segment"] % n_seg))
    for which, seg in sides:
        session = "s1" if which == "before" else "s2"
        seg_dir = os.path.join(out_dir, f"{which}_segment")
        reg_dir = os.path.join(out_dir, f"{which}_register")
        _cli(["segment", "--in", os.path.join(inp.directory, session, f"seg{seg}.lasr"),
              "--out", seg_dir, "--seed", str(inp.seed)])
        _cli(["register", "--in", os.path.join(seg_dir, "segmented.lasr"), "--out", reg_dir])
    _cli(["ssm", "--before", os.path.join(out_dir, "before_register", "registered.lasr"),
          "--after", os.path.join(out_dir, "after_register", "registered.lasr"),
          "--out", os.path.join(out_dir, "maps")])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_report(path) -> dict:
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            key, sep, val = line.partition(" = ")
            if sep:
                out[key] = val.rstrip("\n")
    return out


def maps_dir(wl: Workload, out_dir: str) -> str:
    return os.path.join(out_dir, "maps") if wl.staged else out_dir


def _pair_transforms(wl: Workload, out_dir: str, rep: dict, n_pairs: int):
    """Registration transforms (before, after) of the two frames of each pair."""
    sides = []
    for which in ("before", "after"):
        if wl.staged:
            src = read_report(os.path.join(out_dir, f"{which}_register", "register_report.txt"))
            key = "frame.{}."
        else:
            src, key = rep, which + ".srlp.{}."
        ts = []
        for k in range(n_pairs):
            j = k if wl.staged else int(rep[f"pair.{k}.{which}_frame"])
            p = key.format(j)
            ts.append(registration.RigidTransform(float(src[p + "theta"]), float(src[p + "u"]),
                                                  float(src[p + "v"])))
        sides.append(ts)
    return list(zip(*sides))


def _registered_box(box: np.ndarray, t_before, t_after, reach: int):
    """The effect box moved like the after frames, its dilation by ``reach``,
    and whether the two sessions' transforms place it at least a pixel apart.

    Both sessions show the same pose, so a correct registration moves every
    box pixel to the same place on both sides.
    """
    moved = registration.apply_rigid(frames.Frame(box.astype(np.float64)), t_after,
                                     interp="nearest").values > 0.5
    allowed = ndimage.binary_dilation(moved, structure=np.ones((3, 3), bool),
                                      iterations=reach) if moved.any() else moved
    pts = np.argwhere(box).astype(np.float64)
    apart = bool(np.hypot(*(registration.transform_points(t_before, pts)
                            - registration.transform_points(t_after, pts)).T).max() >= 1.0)
    return moved, allowed, apart


def check(wl: Workload, inp: InputSet, out_dir: str, first_report: Optional[bytes]):
    """Check one comparison's outputs.

    Returns (problems, quality, report bytes).  ``problems`` lists every
    failed check; ``quality`` holds the rejection counts of the run.
    """
    problems = []
    mdir = maps_dir(wl, out_dir)
    with open(os.path.join(mdir, "report.txt"), "rb") as fh:
        report_bytes = fh.read()
    rep = read_report(os.path.join(mdir, "report.txt"))
    n_pairs = int(rep["n_pairs"])
    if n_pairs < 1:
        problems.append("no frame pairs compared")

    bandwidth = float(rep.get("bandwidth", 3.0))
    rim = int(rep.get("rim", math.ceil(bandwidth)))
    reach = int(math.ceil(bandwidth)) + rim
    boxes = {}
    transforms = _pair_transforms(wl, out_dir, rep, n_pairs) if wl.effect else None
    rejected = outside = inside = mismatched = 0
    for k in range(n_pairs):
        pmap = np.loadtxt(os.path.join(mdir, f"pair{k:04d}_pmap.csv"), delimiter=",", ndmin=2)
        if not np.isfinite(pmap).all() or (pmap < 0).any() or (pmap > 1).any():
            problems.append(f"pair {k}: P-map value outside [0, 1]")
        hits = pmap > 0
        n_hits = int(hits.sum())
        if n_hits != int(rep[f"pair.{k}.n_rejected"]):
            problems.append(f"pair {k}: {n_hits} nonzero P-map pixels but "
                            f"n_rejected = {rep[f'pair.{k}.n_rejected']}")
        rejected += n_hits
        if transforms is None:
            outside += n_hits
            continue
        key = transforms[k]
        if key not in boxes:
            boxes[key] = _registered_box(inp.effect_box, *key, reach)
        moved, allowed, apart = boxes[key]
        outside += int((hits & ~allowed).sum())
        if apart:
            mismatched += 1
        else:
            inside += int((hits & moved).sum())

    # A pair whose two frames were registered apart compares different
    # tissue inside the box (the SRLP instability under noise that
    # ROADMAP.md lists), so the detection check runs on the other pairs;
    # such pairs are counted, not failed.
    if wl.effect and inside == 0 and mismatched < n_pairs:
        problems.append("no rejection inside the planted effect box")
    if wl.lag is not None and rep.get("icr.j0") != str(wl.lag):
        problems.append(f"recovered lag {rep.get('icr.j0')} != planted lag {wl.lag}")
    if first_report is not None and report_bytes != first_report:
        problems.append("report.txt differs from an earlier run on the same inputs")
    if inp.reference is not None:
        names = sorted(f for f in os.listdir(inp.reference) if f.startswith("pair"))
        if names != sorted(f for f in os.listdir(mdir) if f.startswith("pair")):
            problems.append("pair map files differ from the one-shot run_lasr reference's")
        for name in names:
            if not _same_bytes(os.path.join(mdir, name), os.path.join(inp.reference, name)):
                problems.append(f"{name} differs from the one-shot run_lasr reference")
    quality = {"pairs": n_pairs, "ssm.rejected_px": rejected, "ssm.rejected_outside_px": outside,
               "registration.mismatched_pairs": mismatched}
    return problems, quality, report_bytes


def _same_bytes(a, b) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False
