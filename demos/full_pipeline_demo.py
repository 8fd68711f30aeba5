#!/usr/bin/env python3
"""
Drive the command line tool end to end on synthetic sessions.

Part 1 plants an intensity change, generates before/after sessions with
``lasr phantom``, and compares their resting segments with ``lasr run
--mean-frame`` (static mode).  Part 2 generates a pair whose stimulated
segments run 5 frames out of step and lets the dynamic mode recover the
lag before mapping; its maps come out as movies, one frame per pair.
Every command is echoed, so the same sequence can be pasted into a shell
(replace cli_main(...) with ``lasr ...``).

All output lands in a temporary directory that is removed at the end.
"""

import os
import shutil
import tempfile

from lasr import cli_main, load_movie


def sh(*args):
    """Echo the equivalent shell command, then run it in-process."""
    print(f"$ lasr {' '.join(args)}")
    code = cli_main(list(args))
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")
    print()


def read_report(path):
    """Parse a key = value report file into a dict of strings."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                out[k.strip()] = v.strip()
    return out


def main():
    work = tempfile.mkdtemp(prefix="lasr_demo_")
    try:
        # ---------------------------------------------------------------
        # Part 1: static comparison of resting segments
        # ---------------------------------------------------------------
        print("#" * 68)
        print("# Part 1: planted intensity change, static comparison")
        print("#" * 68)
        pair1 = os.path.join(work, "pair1")
        sh("phantom", "--out", pair1, "--seed", "3",
           "--effect-delta", "4.0", "--effect-rows", "14:20", "--effect-cols", "18:24")

        out1 = os.path.join(work, "out1")
        sh("run", "--before", os.path.join(pair1, "s1"),
           "--after", os.path.join(pair1, "s2"),
           "--out", out1, "--mean-frame", "--seed", "3")

        rep = read_report(os.path.join(out1, "report.txt"))
        print(f"mode            : {rep['mode']} (NoStim vs NoStim, frames averaged)")
        print(f"threshold before: {float(rep['before.threshold']):.4f} "
              f"({rep['before.threshold_method']}, m={rep['before.mixture_m']})")
        print(f"threshold after : {float(rep['after.threshold']):.4f} "
              f"({rep['after.threshold_method']}, m={rep['after.mixture_m']})")
        print(f"rejected pixels : {rep['pair.0.n_rejected']} of {rep['pair.0.n_pixels']}"
              f" compared -- the planted 6x6 patch plus the smoothing halo")
        files = sorted(os.listdir(out1))
        print(f"artifacts       : {', '.join(files)}")
        print()

        # ---------------------------------------------------------------
        # Part 2: out-of-step stimulation, dynamic comparison
        # ---------------------------------------------------------------
        print("#" * 68)
        print("# Part 2: stim pattern delayed 5 frames, dynamic mode")
        print("#" * 68)
        pair2 = os.path.join(work, "pair2")
        sh("phantom", "--out", pair2, "--seed", "8", "--frames", "60", "--lag", "5",
           "--stim-left", "2.0", "--stim-right", "2.0")

        out2 = os.path.join(work, "out2")
        sh("run", "--before", os.path.join(pair2, "s1"),
           "--after", os.path.join(pair2, "s2"),
           "--out", out2, "--mode", "dynamic", "--fdr", "by",
           "--before-segment", "1", "--after-segment", "1",
           "--max-lag", "12", "--seed", "8")

        rep = read_report(os.path.join(out2, "report.txt"))
        truth = read_report(os.path.join(pair2, "truth.txt"))
        print(f"planted delay   : {truth['stim_lag']} frames (after session)")
        print(f"recovered       : j0 = {rep['icr.j0']} ({rep['icr.direction']})")
        print(f"pairs compared  : {rep['n_pairs']}")
        rejected = [int(v) for k, v in rep.items()
                    if k.startswith("pair.") and k.endswith(".n_rejected")]
        blank = sum(r == 0 for r in rejected)
        print(f"blank maps      : {blank}/{len(rejected)} pairs "
              f"(no planted change; the rest carry at most {max(rejected)} stray px)")
        pmovie = load_movie(os.path.join(out2, "pmap.lasr"))
        print(f"P-movie         : pmap.lasr, {len(pmovie)} frames of "
              f"{pmovie.shape[0]}x{pmovie.shape[1]}, one per pair; "
              f"{len(os.listdir(out2))} files in all")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        print(f"\ncleaned up {work}")


if __name__ == "__main__":
    main()
