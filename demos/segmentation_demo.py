#!/usr/bin/env python3
"""
Threshold a noisy pressure frame with a Gaussian mixture.

Generates one synthetic sitting-blob frame, fits 1/2/3-component
mixtures to its positive readings, picks the size by BIC, and places
the cut at the misclassification-optimal point between the background
and signal components.  Prints the BIC table, the fitted parameters,
and a coarse ASCII view of the segmented frame.
"""

import numpy as np
from scipy.stats import norm

from lasr import (
    InitSpec,
    PhantomSpec,
    fit_mixture,
    gen_frame,
    optimal_threshold,
    pmc_oracle,
    positive_samples,
    segment_frame,
)

# -------------------------- Config --------------------------
SEED = 4
CANDIDATE_M = (1, 2, 3)
GLYPHS = " .:#"   # off / faint / mid / strong, for the ASCII view


def misclassification(model, t, cut=0):
    """P(background above t) + P(any contact component below t), with
    components 0..cut as background."""
    w, mu, sd = model.weights, model.means, model.sds
    v = 0.0
    for i in range(model.m):
        tail = norm.sf if i <= cut else norm.cdf
        v += w[i] * tail(t, loc=mu[i], scale=sd[i])
    return float(v)


def ascii_view(values, mask, step=1):
    """Render a frame as text: one glyph per ``step`` x ``step`` block."""
    vmax = values.max() if mask.any() else 1.0
    lines = []
    for r in range(0, values.shape[0], step):
        row = []
        for c in range(0, values.shape[1], step):
            block = values[r:r + step, c:c + step]
            on = mask[r:r + step, c:c + step]
            if not on.any():
                row.append(GLYPHS[0])
            else:
                level = block[on].mean() / vmax
                row.append(GLYPHS[1 + min(2, int(level * 3))])
        lines.append("".join(row))
    return "\n".join(lines)


def main():
    print("=" * 70)
    print("Mixture-model segmentation of a synthetic pressure frame")
    print("=" * 70)

    spec = PhantomSpec(seed=SEED)
    frame, truth = gen_frame(spec)
    samples = positive_samples(frame)
    print(f"frame: {frame.shape[0]} x {frame.shape[1]}, "
          f"{samples.size} positive readings")

    # ---- model selection --------------------------------------------
    print("\nBIC per candidate component count:")
    best = None
    for m in CANDIDATE_M:
        model = fit_mixture(samples, m, init=InitSpec(seed=SEED))
        n = samples.size
        bic = model.loglik - 0.5 * (3 * m - 1) * np.log(n)
        marker = ""
        if best is None or bic > best[0]:
            best = (bic, model)
            marker = "  <- best so far"
        print(f"  m={m}:  loglik={model.loglik:12.3f}   BIC={bic:12.3f}"
              f"   iters={model.n_iter}{marker}")
    model = best[1]

    print(f"\nselected m={model.m}")
    for k in range(model.m):
        print(f"  component {k}: weight={model.weights[k]:.3f}  "
              f"mean={model.means[k]:7.3f}  sd={model.sds[k]:6.3f}")

    # ---- threshold ---------------------------------------------------
    result = optimal_threshold(model)
    k = result.cut
    t_grid = pmc_oracle(model, k)
    print(f"\nthreshold t* = {result.t:.4f}  ({result.method}, components 0..{k} background)")
    print(f"grid-scan check:          {t_grid:.4f}  (|diff| = {abs(result.t - t_grid):.2e})")
    print(f"misclassification probability at t*: {misclassification(model, result.t, k):.5f}")

    # sanity: t* beats a naive midpoint cut
    mid = 0.5 * (model.means[k] + model.means[k + 1])
    print(f"midpoint cut {mid:.4f} would give PMC {misclassification(model, mid, k):.5f}")

    # ---- apply -------------------------------------------------------
    segmented = segment_frame(frame, result.t)
    kept = segmented.support_mask
    true_support = truth.support
    agree = (kept == true_support).mean()
    print(f"\nsegmented support: {kept.sum()} px "
          f"(true support {true_support.sum()} px, {agree:.1%} pixel agreement)")

    print("\nsegmented frame (2x2 blocks):")
    print(ascii_view(segmented.values, kept, step=2))


if __name__ == "__main__":
    main()
