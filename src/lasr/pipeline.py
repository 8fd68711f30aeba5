"""End-to-end runs and the command line interface.

A run compares one movie segment from a "before" session against one from an
"after" session: segment each movie (mixture threshold from its first stable
frame, majority-vote sitting region for the whole segment, which becomes the
movie's one support mask), self-register the segment (one SRLP transform from
its mean frame, applied to every frame), optionally align the movies in time
(dynamic mode, when both selected segments are stimulation blocks), then
difference paired frames (or the mean frames, with ``mean_frame``), smooth
(one fit and one stacked t/p pass, since all pairs share one mask), and screen
each pair's t-map at FDR level q.  A run writes only the comparison: the maps,
per pair in a static run and as movies in a dynamic one (``_compare_movies``),
and a line-oriented ``report.txt`` of thresholds, transforms, lag, smoothing
traces, and rejection counts.  The segmented and registered movies stay in
memory; ``segment`` then ``register`` on the same segment file write them,
through the same ``_segment_movie`` and ``_register_movie``.  Runs are
deterministic given the configuration and seed; on failure, partially written
outputs are removed and the failing stage is named.

The CLI's run options live in one table, ``_OPTIONS``, of which each
subcommand exposes a subset; the command line is the only place they are
set, and ``_validate`` alone judges the values.  Every file-writing
subcommand names the failing stage and removes its partial files.  CLI exit
codes: 0 success, 2 usage or configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from . import frames as fr
from . import registration as reg
from . import segmentation as seg
from . import ssm
from . import synthgen
from .errors import ConfigError, DataError, LasrError, NumericError, StageError

__all__ = ["RunConfig", "run_lasr", "cli_main", "main"]


@dataclass(frozen=True)
class RunConfig:
    before: Union[str, fr.SessionLayout]
    after: Union[str, fr.SessionLayout]
    out_dir: str
    before_segment: int = 0
    after_segment: int = -1
    mode: str = "auto"              # auto | static | dynamic
    q: float = 0.05
    bandwidth: float = 3.0
    kernel: str = "tgauss"
    rim: Optional[int] = None       # default ceil(bandwidth)
    m0: int = 10
    max_lag: int = 50
    fdr_mode: str = "bh"
    two_sided: bool = False
    mean_frame: bool = False
    candidates: Tuple[int, ...] = (2, 3)
    seed: int = 0
    workers: int = 1                # ignored; perfbench/workloads.py still passes it


def _validate(cfg: RunConfig) -> RunConfig:
    ssm.FdrConfig(cfg.q, cfg.fdr_mode)  # range-checks q and the mode
    if not (math.isfinite(cfg.bandwidth) and cfg.bandwidth > 0):
        raise ConfigError(f"bandwidth must be positive and finite, got {cfg.bandwidth}")
    if cfg.kernel not in ssm.KERNELS:
        raise ConfigError(f"unknown kernel {cfg.kernel!r}")
    rim = cfg.rim if cfg.rim is not None else int(math.ceil(cfg.bandwidth))
    if rim < 0:
        raise ConfigError("rim must be >= 0")
    if cfg.m0 < 0:
        raise ConfigError("m0 must be >= 0")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.max_lag < 0:
        raise ConfigError("max_lag must be >= 0")
    if cfg.mode not in ("auto", "static", "dynamic"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if not cfg.candidates or min(cfg.candidates) < 2:
        raise ConfigError("mixture candidates must all be >= 2")
    return replace(cfg, rim=rim)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % v
    return str(v)


def _write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for k, v in report.items():
            fh.write(f"{k} = {_fmt(v)}\n")


def _compare_keys(cfg: RunConfig) -> dict:
    """The report header shared by ``run`` and ``ssm``."""
    return {"q": cfg.q, "bandwidth": cfg.bandwidth, "kernel": cfg.kernel, "rim": cfg.rim,
            "fdr_mode": cfg.fdr_mode, "two_sided": cfg.two_sided}


def _threshold_keys(prefix: str, result: seg.SegmentationResult) -> dict:
    """A segment's mixture fit and threshold as report keys, each led by ``prefix``."""
    m = result.model
    return {f"{prefix}mixture_m": m.m, f"{prefix}mixture_loglik": m.loglik,
            f"{prefix}mixture_converged": m.converged, f"{prefix}mixture_n_iter": m.n_iter,
            f"{prefix}threshold": result.t, f"{prefix}threshold_method": result.method}


def _transform_keys(prefix: str, t: reg.RigidTransform, n: int) -> dict:
    """``{prefix}.{i}.theta / .u / .v`` for each of ``n`` frames, all of
    which take the segment's one SRLP transform ``t``."""
    return {f"{prefix}.{i}.{k}": v for i in range(n) for k, v in (("theta", t.theta), ("u", t.u), ("v", t.v))}


def _select_segment(segments: Sequence, index: int, which: str):
    n = len(segments)
    if not (-n <= index < n):
        raise DataError(f"{which} segment index {index} out of range for {n} segments")
    return segments[index]


def _mean_movie(movie: fr.Movie) -> fr.Movie:
    return fr.Movie(movie.values.mean(axis=0)[None], movie.mask, movie.fps)


def _consensus_region(stack: np.ndarray, t: float) -> np.ndarray:
    """One sitting region for a whole (frames, rows, cols) segment: majority
    vote of the per-frame thresholded masks, then the largest 4-connected
    component.

    Per-frame masks flicker at the contact rim and the occasional noise
    pixel pops above the cut; a stray supported column would tilt the
    midline fit or even steal the registration anchor (the last supported
    column).  The sitting region cannot move between frames of one
    segment, so the vote pins it down once.
    """
    region = (stack > t).sum(axis=0) * 2 > len(stack)
    labels, n = ndimage.label(region)
    if n > 1:
        sizes = np.bincount(labels.ravel())[1:]
        region = labels == (1 + int(np.argmax(sizes)))
    return region


def _cut_movie(movie: fr.Movie, t: float) -> fr.Movie:
    """Zero everything outside the consensus sitting region of the movie."""
    region = _consensus_region(movie.values, t)
    if not region.any():
        raise DataError(f"empty sitting region: no pixel is above the threshold {t:.12g} in most frames")
    if max(region.any(axis=0).sum(), region.any(axis=1).sum()) < 2:
        raise DataError(f"sitting region at the threshold {t:.12g} spans fewer than 2 columns "
                        "along its long axis, too few to register")
    return fr.Movie(np.where(region, movie.values, 0.0), region, movie.fps)


def _segment_movie(movie: fr.Movie, cfg: RunConfig):
    """Mixture threshold from the first stable frame, applied to all frames."""
    ref = movie[min(cfg.m0, len(movie) - 1)]
    samples = seg.positive_samples(ref)
    model = seg.select_model(samples, cfg.candidates, init=seg.InitSpec(seed=cfg.seed))
    result = seg.optimal_threshold(model)
    return _cut_movie(movie, result.t), result


def _register_movie(movie: fr.Movie):
    """SRLP-register a segment; returns the movie and its one transform.

    The sitting region cannot move within a segment, so the segment takes
    one transform: ``srlp_register``'s on the mean frame over the movie's
    mask (the consensus region, for a segmented movie), applied to every
    frame in one stacked resampling.  The quarter turn is the mean frame's
    too, so no single noisy frame can flip 180 degrees.  The registered
    movie has the one registered mask.
    """
    if movie.mask is None:
        raise DataError("frame has no support mask; segment it first")
    t = reg.srlp_register(fr.Frame(movie.values.mean(axis=0), support_mask=movie.mask))[1]
    values, mask = reg._resample(movie.values, movie.mask, t)
    return fr.Movie(values, mask, movie.fps), t


def _load_masked(path: str) -> fr.Movie:
    """A stage movie file with its support mask restored: the union over
    frames of ``values > 0``, the movie's one mask.

    For the files ``segment`` and ``register`` write this is exactly the
    mask the movie had in memory: every region pixel is above the
    threshold t > 0 in most frames, and bilinear resampling keeps at least
    a quarter of the weight on the nearest source pixel.
    """
    movie = fr.load_movie(path)
    return fr.Movie(movie.values, (movie.values > 0).any(axis=0), movie.fps)


class _Outputs:
    """A command's output files, as a context: on failure every file written
    (and the directory, if made here) is removed, and the error is re-raised
    as a StageError naming ``stage``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stage = "config"
        self.written = []
        self.made_dir = False

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if not isinstance(exc, (LasrError, OSError)):
            return False
        for p in self.written:
            with suppress(OSError):
                os.unlink(p)
        if self.made_dir:
            with suppress(OSError):
                os.rmdir(self.out_dir)
        raise StageError(self.stage, exc) from exc

    def makedirs(self) -> None:
        if not os.path.isdir(self.out_dir):
            os.makedirs(self.out_dir)
            self.made_dir = True

    def emit(self, name: str, writer, *args) -> None:
        path = os.path.join(self.out_dir, name)
        self.written.append(path)  # before writing, so a half-written file is removed too
        writer(*args, path)


def _compare_movies(before: fr.Movie, after: fr.Movie, cfg: RunConfig, out: _Outputs,
                    report: dict, first: Tuple[int, int] = (0, 0), movies: bool = False) -> None:
    """Difference -> smooth -> t -> p -> FDR per frame pair; writes the maps
    and each pair's report keys.  Frame k of one movie pairs with frame k of
    the other up to the shorter one's length; ``first`` holds the source
    frame numbers of pair 0.  With ``cfg.mean_frame`` (``run`` and ``ssm``
    alike) the one pair is the two movies' mean frames.  Each movie is one
    segment on one support mask, so every pair's mask is the intersection of
    the two movies' masks.  The smoother (rim padding included) depends only
    on that mask, so the comparison takes one fit and one stacked t/p pass;
    the step-up screen stays per pair, and the first failing pair raises.

    Each pair gets ``pairNNNN_pmap.csv``.  A static comparison also writes
    each pair's ``_diff.csv``, ``_tmap.csv`` and ``_pmap.pgm``; with
    ``movies`` (a dynamic one) those become ``diff.csv`` and ``tmap.csv``,
    every pair's map stacked in pair order, and the P-movie ``pmap.lasr``,
    one frame per pair.
    """
    if cfg.mean_frame:
        before, after = _mean_movie(before), _mean_movie(after)
    n = min(len(before), len(after))
    mask = before.mask & after.mask
    if not mask.any():
        raise DataError("registered supports do not overlap")
    diffs = np.where(mask, after.values[:n] - before.values[:n], 0.0)
    report["n_pairs"] = n
    fdr = ssm.FdrConfig(cfg.q, cfg.fdr_mode)
    diff = fr.Frame(diffs[0], support_mask=mask, signed=True)
    fit = ssm.local_quadratic_smooth(diff, h=cfg.bandwidth, kernel=cfg.kernel, rim=cfg.rim)
    sigma, df, tgrids, pgrids = ssm._stacked_tests(fit, np.ascontiguousarray(diffs[:, fit.mask]), cfg.two_sided)
    for k, (s, pvals) in enumerate(zip(sigma, pgrids)):
        rejected, critical = ssm.bh_adjust(pvals[fit.mask], fdr)
        rej_grid = np.zeros(fit.mask.shape, dtype=bool)
        rej_grid[fit.mask] = rejected
        pmap = ssm.fdr_map(pvals, rej_grid, critical)
        report.update({
            f"pair.{k}.before_frame": first[0] + k, f"pair.{k}.after_frame": first[1] + k,
            f"pair.{k}.delta1": fit.delta1, f"pair.{k}.delta2": fit.delta2,
            f"pair.{k}.df": df, f"pair.{k}.sigma_hat": float(s),
            f"pair.{k}.critical_p": pmap.critical_p, f"pair.{k}.n_rejected": pmap.n_rejected,
            f"pair.{k}.n_pixels": len(fit.pixels),
        })
        base = f"pair{k:04d}"
        out.emit(f"{base}_pmap.csv", fr.save_map_csv, pmap.values)
        if movies:
            pvals[...] = pmap.values    # spent p-values make way for the P-map
        else:
            out.emit(f"{base}_diff.csv", fr.save_map_csv, diffs[k])
            out.emit(f"{base}_tmap.csv", fr.save_map_csv, tgrids[k])
            out.emit(f"{base}_pmap.pgm", fr.save_map_image, pmap.values)
    if movies:
        out.emit("diff.csv", fr.save_map_csv, diffs)
        out.emit("tmap.csv", fr.save_map_csv, tgrids)
        out.emit("pmap.lasr", fr.save_movie, fr.Movie(pgrids, fps=before.fps))


def run_lasr(config: RunConfig) -> dict:
    """Run the full comparison; returns the report dict (also written to disk)."""
    with _Outputs(config.out_dir) as out:
        cfg = _validate(config)

        out.stage = "load"
        picked = {}
        for which in ("before", "after"):
            src, index = getattr(cfg, which), getattr(cfg, f"{which}_segment")
            if isinstance(src, str):
                # the whole manifest is checked, but only the compared movie is parsed
                tag, path = _select_segment(fr._manifest(src)[0], index, which)
                picked[which] = (tag, fr.load_movie(path))
            else:
                picked[which] = _select_segment(src.segments, index, which)
        (tag_b, movie_b), (tag_a, movie_a) = picked["before"], picked["after"]
        if movie_b.shape != movie_a.shape:
            raise DataError("before/after frame dimensions differ")
        dynamic = (tag_b == "Stim" and tag_a == "Stim") if cfg.mode == "auto" else cfg.mode == "dynamic"
        if cfg.mode == "dynamic" and not (tag_b == "Stim" and tag_a == "Stim"):
            raise DataError("dynamic comparison requires Stim segments on both sides")
        if cfg.mean_frame and dynamic:
            raise ConfigError("mean-frame averaging applies to static comparisons only")
        if dynamic and movie_b.fps != movie_a.fps:
            raise DataError(f"dynamic comparison needs one frame rate, got {movie_b.fps!r} and {movie_a.fps!r} fps")

        out.makedirs()
        report = {"mode": "dynamic" if dynamic else "static", **_compare_keys(cfg),
                  "mean_frame": cfg.mean_frame, "m0": cfg.m0, "max_lag": cfg.max_lag,
                  "seed": cfg.seed}

        out.stage = "segment"
        seg_movies, reg_movies = {}, {}
        for which, tag, movie in (("before", tag_b, movie_b), ("after", tag_a, movie_a)):
            if isinstance(getattr(cfg, which), str):
                report[f"{which}.path"] = getattr(cfg, which)
            report.update({f"{which}.segment_index": getattr(cfg, f"{which}_segment"),
                           f"{which}.tag": tag, f"{which}.n_frames": len(movie)})
            seg_movies[which], thr = _segment_movie(movie, cfg)
            report.update(_threshold_keys(f"{which}.", thr))

        out.stage = "register"
        for which in ("before", "after"):
            registered, t = _register_movie(seg_movies[which])
            reg_movies[which] = registered
            report.update(_transform_keys(f"{which}.srlp", t, len(registered)))

        out.stage = "align"
        rb, ra = reg_movies["before"], reg_movies["after"]
        offset_b = offset_a = 0
        if dynamic:
            lag = reg.icr_lag(rb, ra, m0=cfg.m0, max_lag=cfg.max_lag)
            rb, ra = reg.align_movies(rb[cfg.m0:], ra[cfg.m0:], lag)
            offset_b = cfg.m0 + max(-lag.j0, 0)
            offset_a = cfg.m0 + max(lag.j0, 0)
            report["icr.applied"] = True
            report["icr.j0"] = lag.j0
            report["icr.direction"] = lag.direction
        else:
            report["icr.applied"] = False

        out.stage = "compare"
        _compare_movies(rb, ra, cfg, out, report, first=(offset_b, offset_a), movies=dynamic)

        out.stage = "report"
        out.emit("report.txt", _write_report, report)
        return report


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _components(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"bad --components value {text!r}") from None


# The one option table: flag --key -> (RunConfig field, parser of its text,
# help); ``bool`` marks an on/off flag, which sets its field to True.  A
# subcommand exposes a subset; an option left unset keeps the RunConfig
# default, and _validate alone judges the values.
_OPTIONS = {
    "before-segment": ("before_segment", int, "segment index in the before session (default 0)"),
    "after-segment": ("after_segment", int, "segment index in the after session (default -1, the last)"),
    "mode": ("mode", str, None), "q": ("q", float, None),
    "bandwidth": ("bandwidth", float, None), "kernel": ("kernel", str, None),
    "rim": ("rim", int, None), "m0": ("m0", int, None),
    "max-lag": ("max_lag", int, None), "fdr": ("fdr_mode", str, None),
    "two-sided": ("two_sided", bool, None),
    "mean-frame": ("mean_frame", bool, "compare the two mean registered frames (static only)"),
    "seed": ("seed", int, None),
    "components": ("candidates", _components, "candidate mixture sizes"),
}
_RUN_KEYS = tuple(k for k in _OPTIONS if k != "components")
_SSM_KEYS = ("q", "bandwidth", "kernel", "rim", "fdr", "two-sided", "mean-frame")
_SEGMENT_KEYS = ("components", "m0", "seed")


def _add_options(parser: argparse.ArgumentParser, keys: Sequence[str]) -> None:
    for key in keys:
        field, parse, text = _OPTIONS[key]
        kind = (dict(action="store_true") if parse is bool
                else dict(type=parse, metavar=key.upper().replace("-", "_")))
        parser.add_argument(f"--{key}", dest=field, default=None, help=text, **kind)


def _run_config(ns, keys: Sequence[str], **kwargs) -> RunConfig:
    """``RunConfig(**kwargs)`` with every option of ``keys`` given on the
    command line set over it."""
    for key in keys:
        field = _OPTIONS[key][0]
        if getattr(ns, field) is not None:
            kwargs[field] = getattr(ns, field)
    return RunConfig(**kwargs)


def _build_parser() -> _Parser:
    p = _Parser(prog="lasr", description="Pressure-map comparison pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("phantom", help="generate a synthetic before/after session pair")
    ph.add_argument("--out", required=True, help="output directory (sessions land in s1/, s2/)")
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--rows", type=int, default=38)
    ph.add_argument("--cols", type=int, default=41)
    ph.add_argument("--frames", type=int, default=20, help="frames per segment")
    ph.add_argument("--fps", type=float, default=2.0)
    ph.add_argument("--noise-bg", type=float, default=1.0)
    ph.add_argument("--noise-signal", type=float, default=2.0)
    ph.add_argument("--effect-delta", type=float, default=0.0,
                    help="intensity change planted in the after session (0 = none)")
    ph.add_argument("--effect-rows", default=None, help="effect row span r0:r1")
    ph.add_argument("--effect-cols", default=None, help="effect column span c0:c1")
    ph.add_argument("--stim-period", type=int, default=20)
    ph.add_argument("--stim-left", type=float, default=0.5)
    ph.add_argument("--stim-right", type=float, default=0.5)
    ph.add_argument("--lag", type=int, default=0,
                    help="delay (frames) of the after session's stimulation pattern")

    rn = sub.add_parser("run", help="full before/after comparison")
    rn.add_argument("--before", required=True, help="before session directory")
    rn.add_argument("--after", required=True, help="after session directory")
    rn.add_argument("--out", default="lasr_out")
    _add_options(rn, _RUN_KEYS)

    sg = sub.add_parser("segment", help="threshold one movie")
    sg.add_argument("--in", dest="infile", required=True)
    sg.add_argument("--out", required=True)
    _add_options(sg, _SEGMENT_KEYS)

    rg = sub.add_parser("register", help="self-register a segmented movie with one transform")
    rg.add_argument("--in", dest="infile", required=True)
    rg.add_argument("--out", required=True)

    sm = sub.add_parser("ssm", help="significance maps for two registered movies")
    sm.add_argument("--before", required=True)
    sm.add_argument("--after", required=True)
    sm.add_argument("--out", required=True)
    _add_options(sm, _SSM_KEYS)
    return p


def _span(text: Optional[str], limit: int, default: Tuple[int, int]) -> Tuple[int, int]:
    if text is None:
        return default
    try:
        a, _, b = text.partition(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise ConfigError(f"bad span {text!r}; expected start:stop") from None
    if not (0 <= lo < hi <= limit):
        raise ConfigError(f"span {text!r} outside [0, {limit})")
    return lo, hi


def _cmd_phantom(ns) -> int:
    finite = math.isfinite
    for flag, ok, rule in (("rows", ns.rows >= 1, ">= 1"), ("cols", ns.cols >= 1, ">= 1"),
                           ("frames", ns.frames >= 1, ">= 1"), ("seed", ns.seed >= 0, ">= 0"),
                           ("fps", finite(ns.fps) and ns.fps > 0, "> 0 and finite"),
                           ("noise-bg", finite(ns.noise_bg) and ns.noise_bg >= 0, ">= 0 and finite"),
                           ("noise-signal", finite(ns.noise_signal) and ns.noise_signal >= 0,
                            ">= 0 and finite"),
                           ("effect-delta", finite(ns.effect_delta), "finite"),
                           ("stim-period", ns.stim_period >= 2, ">= 2"),
                           ("stim-left", finite(ns.stim_left), "finite"),
                           ("stim-right", finite(ns.stim_right), "finite")):
        if not ok:
            raise ConfigError(f"--{flag} must be {rule}, got {getattr(ns, flag.replace('-', '_'))}")
    effect = None
    if ns.effect_delta != 0.0:
        r0, r1 = _span(ns.effect_rows, ns.rows, (ns.rows // 2 - 3, ns.rows // 2 + 3))
        c0, c1 = _span(ns.effect_cols, ns.cols, (ns.cols // 2 - 3, ns.cols // 2 + 3))
        mask = np.zeros((ns.rows, ns.cols), dtype=bool)
        mask[r0:r1, c0:c1] = True
        effect = synthgen.EffectSpec(mask, ns.effect_delta)
    common = dict(rows=ns.rows, cols=ns.cols, n_frames=ns.frames, fps=ns.fps,
                  noise_sd=(ns.noise_bg, ns.noise_signal),
                  center=(ns.rows / 2.0 - 0.5, ns.cols / 2.0 - 0.5),
                  radii=(0.30 * ns.rows, 0.40 * ns.cols))
    spec_b = synthgen.PhantomSpec(stim=synthgen.StimSpec(ns.stim_period, ns.stim_left, ns.stim_right, 0),
                                  seed=ns.seed, **common)
    # a delayed pattern shows at frame t what the zero-lag pattern shows at
    # t - lag, i.e. a phase advance of -lag
    spec_a = synthgen.PhantomSpec(stim=synthgen.StimSpec(ns.stim_period, ns.stim_left, ns.stim_right, -ns.lag),
                                  effect=effect, seed=ns.seed + 1, **common)
    try:
        with np.errstate(over="raise"):
            before, _ = synthgen.gen_session(spec_b, session_id="s1")
            after, _ = synthgen.gen_session(spec_a, session_id="s2")
    except FloatingPointError:
        raise ConfigError("phantom values overflow; reduce --noise-bg, --noise-signal, --effect-delta, "
                          "--stim-left or --stim-right") from None
    except MemoryError:
        raise ConfigError("the phantom does not fit in memory; reduce --rows/--cols/--frames") from None
    os.makedirs(ns.out, exist_ok=True)
    fr.save_session(before, os.path.join(ns.out, "s1"))
    fr.save_session(after, os.path.join(ns.out, "s2"))
    lines = {"seed": ns.seed, "effect_delta": ns.effect_delta, "stim_lag": ns.lag}
    _write_report(lines, os.path.join(ns.out, "truth.txt"))
    if effect is not None:
        fr.save_map_csv(effect.mask.astype(float), os.path.join(ns.out, "effect_mask.csv"))
    print(f"wrote sessions to {os.path.join(ns.out, 's1')} and {os.path.join(ns.out, 's2')}")
    return 0


def _cmd_run(ns) -> int:
    report = run_lasr(_run_config(ns, _RUN_KEYS, before=ns.before, after=ns.after, out_dir=ns.out))
    print(f"wrote {report['n_pairs']} pair map(s) and report.txt to {ns.out}")
    return 0


def _cmd_segment(ns) -> int:
    with _Outputs(ns.out) as out:
        cfg = _validate(_run_config(ns, _SEGMENT_KEYS, before=ns.infile, after=ns.infile,
                                    out_dir=ns.out))
        out.stage = "load"
        movie = fr.load_movie(cfg.before)
        out.stage = "segment"
        segmented, result = _segment_movie(movie, cfg)
        out.makedirs()
        out.emit("segmented.lasr", fr.save_movie, segmented)
        rep = _threshold_keys("", result)
        for i in range(result.model.m):
            rep[f"component.{i}.weight"] = result.model.weights[i]
            rep[f"component.{i}.mean"] = result.model.means[i]
            rep[f"component.{i}.sd"] = result.model.sds[i]
        out.stage = "report"
        out.emit("segment_report.txt", _write_report, rep)
    print(f"threshold {result.t:.6g} ({result.method}); wrote {ns.out}/segmented.lasr")
    return 0


def _cmd_register(ns) -> int:
    with _Outputs(ns.out) as out:
        out.stage = "load"
        movie = _load_masked(ns.infile)
        out.stage = "register"
        registered, t = _register_movie(movie)
        out.makedirs()
        out.emit("registered.lasr", fr.save_movie, registered)
        out.stage = "report"
        out.emit("register_report.txt", _write_report, _transform_keys("frame", t, len(registered)))
    print(f"registered {len(registered)} frame(s); wrote {ns.out}/registered.lasr")
    return 0


def _cmd_ssm(ns) -> int:
    with _Outputs(ns.out) as out:
        cfg = _validate(_run_config(ns, _SSM_KEYS, before=ns.before, after=ns.after,
                                    out_dir=ns.out))
        out.stage = "load"
        before, after = (_load_masked(p) for p in (cfg.before, cfg.after))
        if before.shape != after.shape:
            raise DataError("before/after frame dimensions differ")
        out.makedirs()
        report = _compare_keys(cfg)
        out.stage = "compare"
        _compare_movies(before, after, cfg, out, report)
        out.stage = "report"
        out.emit("report.txt", _write_report, report)
    print(f"wrote {report['n_pairs']} pair map(s) and report.txt to {ns.out}")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point returning a process exit code (0/2/3/4)."""
    try:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as e:  # --help lands here with code 0
            return int(e.code or 0)
        handler = {"phantom": _cmd_phantom, "run": _cmd_run, "segment": _cmd_segment,
                   "register": _cmd_register, "ssm": _cmd_ssm}[ns.command]
        return handler(ns)
    except (LasrError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        cause = e.cause if isinstance(e, StageError) else e
        if isinstance(cause, ConfigError):
            return 2
        return 4 if isinstance(cause, NumericError) else 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
