#!/usr/bin/env python3
"""
Smoothed difference maps with false-discovery-rate screening.

Plants a small intensity increase in the "after" frame of a noisy
before/after pair, smooths the pixelwise difference with a bivariate
local-quadratic fit, converts the fit to t and p maps, and screens the
p values with the Benjamini-Hochberg step-up.  A matched null pair
(no planted change) runs through the same path for contrast.  Writes
the p map as PGM and CSV next to this script.
"""

import math
import os

import numpy as np

from lasr import (
    FdrConfig,
    Frame,
    bh_adjust,
    degrees_of_freedom,
    difference_map,
    local_quadratic_smooth,
    p_map,
    save_map_csv,
    save_map_image,
    t_map,
)

# -------------------------- Config --------------------------
GRID = 30
NOISE_SD = 1.0
DELTA = 3.0                # planted increase, in noise-sd units
BANDWIDTH = 3.0
Q = 0.05
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

EFFECT = np.zeros((GRID, GRID), dtype=bool)
EFFECT[12:18, 12:18] = True


def make_pair(seed, delta):
    """Independent-noise before/after frames, optional planted change."""
    g0 = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    g1 = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    before = Frame(30.0 + NOISE_SD * g0.standard_normal((GRID, GRID)))
    after = Frame(30.0 + NOISE_SD * g1.standard_normal((GRID, GRID))
                  + delta * EFFECT)
    return before, after


def screen(before, after, mode="bh"):
    """difference -> smooth -> t -> p -> step-up; returns (rejections, fit, pmap)."""
    diff = difference_map(after, before)
    fit = local_quadratic_smooth(diff, h=BANDWIDTH, kernel="tgauss", rim=int(math.ceil(BANDWIDTH)))
    pm = p_map(t_map(fit))
    rejected, crit = bh_adjust(pm[diff.support_mask], FdrConfig(q=Q, mode=mode))
    return rejected.reshape(GRID, GRID), fit, pm, crit


def outline(mask, rej):
    """Text map: planted region 'o', rejections 'X', overlap 'B'."""
    rows = []
    for r in range(mask.shape[0]):
        line = []
        for c in range(mask.shape[1]):
            line.append("B" if (mask[r, c] and rej[r, c])
                        else "X" if rej[r, c]
                        else "o" if mask[r, c] else ".")
        rows.append("".join(line))
    return "\n".join(rows)


def main():
    print("=" * 66)
    print(f"FDR-screened change maps ({GRID}x{GRID}, h={BANDWIDTH}, q={Q})")
    print("=" * 66)

    # ---- pair with a planted effect ----------------------------------
    before, after = make_pair(seed=5, delta=DELTA * NOISE_SD)
    rej, fit, pm, crit = screen(before, after, mode="by")
    d1, d2 = degrees_of_freedom(fit)
    print(f"\neffect pair (delta = {DELTA} sd over a 6x6 patch), step-up mode 'by':")
    print(f"  residual df    : {d1 * d1 / d2:.2f}   (delta1={d1:.2f}, delta2={d2:.2f})")
    print(f"  sigma_hat      : {fit.sigma_hat:.4f}   (true pair sd = {math.sqrt(2):.4f})")
    print(f"  critical p     : {crit:.3e}")
    print(f"  rejected pixels: {rej.sum()}  "
          f"({(rej & EFFECT).sum()} inside the planted patch)")
    strays = int((rej & ~EFFECT).sum())
    if strays:
        # FDR controls the *proportion* of false discoveries, not their
        # count, so the occasional stray pixel is expected behavior
        print(f"  ({strays} stray rejection{'s' if strays > 1 else ''} -- "
              f"q={Q} bounds the expected false-discovery fraction, not zero)")

    print("\n  planted = o, rejected = X, both = B:")
    print("  " + outline(EFFECT, rej).replace("\n", "\n  "))

    # ---- matched null -------------------------------------------------
    rej0, fit0, pm0, _ = screen(before, make_pair(seed=5, delta=0.0)[1], mode="by")
    print(f"\nnull pair (same noise seeds, no change): {rej0.sum()} rejections")

    # ---- outputs ------------------------------------------------------
    os.makedirs(OUT_DIR, exist_ok=True)
    pgm = os.path.join(OUT_DIR, "effect_pmap.pgm")
    csv = os.path.join(OUT_DIR, "effect_pmap.csv")
    save_map_image(pm, pgm)
    save_map_csv(pm, csv)
    print(f"\nwrote {pgm}")
    print(f"wrote {csv}")


if __name__ == "__main__":
    main()
