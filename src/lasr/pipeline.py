"""End-to-end runs and the command line interface.

A run compares one movie segment from a "before" session against one from
an "after" session: segment each movie (mixture threshold from its first
stable frame, majority-vote sitting region for the whole segment),
self-register every frame, optionally align the movies in time (dynamic
mode, when both selected segments are stimulation blocks),
then difference paired frames, smooth, and screen the t-map at FDR level
q.  Every artifact lands in the output directory together with a
line-oriented ``report.txt`` of thresholds, transforms, lag, smoothing
traces, and rejection counts.  Runs are deterministic given the
configuration and seed; on failure, partially written outputs are removed
and the failing stage is named.

Exit codes of the CLI: 0 success, 2 usage or configuration error, 3 data
error, 4 numeric failure.  The environment variable ``LASR_SEED``
overrides the configured seed.
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
from .errors import ConfigError, DataError, FormatError, LasrError, NumericError, StageError

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
    workers: int = 1                # accepted, range-checked and reported; ignored


def _validate(cfg: RunConfig) -> RunConfig:
    ssm.FdrConfig(cfg.q, cfg.fdr_mode)  # range-checks q and the mode
    if cfg.bandwidth <= 0:
        raise ConfigError("bandwidth must be positive")
    if cfg.kernel not in ssm.KERNELS:
        raise ConfigError(f"unknown kernel {cfg.kernel!r}")
    rim = cfg.rim if cfg.rim is not None else int(math.ceil(cfg.bandwidth))
    if rim < 0:
        raise ConfigError("rim must be >= 0")
    if cfg.m0 < 0:
        raise ConfigError("m0 must be >= 0")
    if cfg.max_lag < 0:
        raise ConfigError("max_lag must be >= 0")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
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


def _select_segment(layout: fr.SessionLayout, index: int, which: str):
    n = len(layout.segments)
    if not (-n <= index < n):
        raise DataError(f"{which} segment index {index} out of range for {n} segments")
    return layout.segments[index]


def _mean_movie(movie: fr.Movie) -> fr.Movie:
    return fr.Movie((fr.Frame(movie.stack().mean(axis=0)),), fps=movie.fps)


def _consensus_region(movie: fr.Movie, t: float) -> np.ndarray:
    """One sitting region for a whole segment: majority vote of the
    per-frame thresholded masks, then the largest 4-connected component.

    Per-frame masks flicker at the contact rim and the occasional noise
    pixel pops above the cut; a stray supported column would tilt the
    midline fit or even steal the registration anchor (the last supported
    column).  The sitting region cannot move between frames of one
    segment, so the vote pins it down once.
    """
    votes = np.zeros(movie.shape, dtype=np.int64)
    for f in movie.frames:
        votes += f.values > t
    region = votes * 2 > len(movie)
    labels, n = ndimage.label(region)
    if n > 1:
        sizes = np.bincount(labels.ravel())[1:]
        region = labels == (1 + int(np.argmax(sizes)))
    return region


def _cut_movie(movie: fr.Movie, t: float) -> fr.Movie:
    """Zero everything outside the consensus sitting region of the movie."""
    region = _consensus_region(movie, t)
    frames = tuple(fr.with_positive_mask(fr.Frame(np.where(region, f.values, 0.0)))
                   for f in movie.frames)
    return fr.Movie(frames, fps=movie.fps)


def _segment_movie(movie: fr.Movie, cfg: RunConfig):
    """Mixture threshold from the first stable frame, applied to all frames."""
    ref = movie.frames[min(cfg.m0, len(movie) - 1)]
    samples = seg.positive_samples(ref)
    model = seg.select_model(samples, cfg.candidates, init=seg.InitSpec(seed=cfg.seed))
    result = seg.optimal_threshold(model)
    return _cut_movie(movie, result.t), result


def _register_movie(movie: fr.Movie):
    out, transforms = [], []
    for f in movie.frames:
        g, t = reg.srlp_register(f)
        out.append(g)
        transforms.append(t)
    return fr.Movie(tuple(out), fps=movie.fps), transforms


def _load_masked(path: str, mean_frame: bool = False) -> fr.Movie:
    """A stage movie file with its support masks (values > 0) restored."""
    movie = fr.load_movie(path)
    if mean_frame:
        movie = _mean_movie(movie)
    return fr.Movie(tuple(fr.with_positive_mask(f) for f in movie.frames), fps=movie.fps)


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
        writer(*args, path)
        self.written.append(path)


def _compare_movies(before: fr.Movie, after: fr.Movie, cfg: RunConfig, out: _Outputs,
                    report: dict, first: Tuple[int, int] = (0, 0)) -> None:
    """Difference -> smooth -> t -> p -> FDR per frame pair; writes each
    pair's maps and report keys.  Frame k of one movie pairs with frame k of
    the other; ``first`` holds the source frame numbers of pair 0.  The
    smoother (rim padding included) depends only on the support mask, which
    all pairs of a segment share, so a pair reuses the previous pair's fit
    on an equal mask.
    """
    pairs = list(zip(before.frames, after.frames))
    report["n_pairs"] = len(pairs)
    fdr = ssm.FdrConfig(cfg.q, cfg.fdr_mode)
    fit = None
    for k, (b, a) in enumerate(pairs):
        diff = ssm.difference_map(a, b)
        if not diff.support_mask.any():
            raise DataError("registered supports do not overlap")
        if fit is not None and np.array_equal(fit.mask, diff.support_mask):
            fit = ssm.refit(fit, diff)
        else:
            fit = ssm.local_quadratic_smooth(diff, h=cfg.bandwidth, kernel=cfg.kernel, rim=cfg.rim)
        tmap = ssm.t_map(fit)
        pvals = ssm.p_map(tmap, two_sided=cfg.two_sided)
        rejected, critical = ssm.bh_adjust(pvals[tmap.mask], fdr)
        rej_grid = np.zeros(tmap.mask.shape, dtype=bool)
        rej_grid[tmap.mask] = rejected
        pmap = ssm.fdr_map(pvals, rej_grid, critical)
        report.update({
            f"pair.{k}.before_frame": first[0] + k, f"pair.{k}.after_frame": first[1] + k,
            f"pair.{k}.delta1": fit.delta1, f"pair.{k}.delta2": fit.delta2,
            f"pair.{k}.df": tmap.df, f"pair.{k}.sigma_hat": fit.sigma_hat,
            f"pair.{k}.critical_p": pmap.critical_p, f"pair.{k}.n_rejected": pmap.n_rejected,
            f"pair.{k}.n_pixels": int(tmap.mask.sum()),
        })
        base = f"pair{k:04d}"
        out.emit(f"{base}_diff.csv", fr.save_map_csv, diff.values)
        out.emit(f"{base}_tmap.csv", fr.save_map_csv, tmap.values)
        out.emit(f"{base}_pmap.csv", fr.save_map_csv, pmap.values)
        out.emit(f"{base}_pmap.pgm", fr.save_map_image, pmap.values)


def run_lasr(config: RunConfig) -> dict:
    """Run the full comparison; returns the report dict (also written to disk)."""
    with _Outputs(config.out_dir) as out:
        cfg = _validate(config)

        out.stage = "load"
        sessions = {}
        for which in ("before", "after"):
            src = getattr(cfg, which)
            sessions[which] = fr.load_session(src) if isinstance(src, str) else src
        tag_b, movie_b = _select_segment(sessions["before"], cfg.before_segment, "before")
        tag_a, movie_a = _select_segment(sessions["after"], cfg.after_segment, "after")
        if movie_b.shape != movie_a.shape:
            raise DataError("before/after frame dimensions differ")
        dynamic = (tag_b == "Stim" and tag_a == "Stim") if cfg.mode == "auto" else cfg.mode == "dynamic"
        if cfg.mode == "dynamic" and not (tag_b == "Stim" and tag_a == "Stim"):
            raise DataError("dynamic comparison requires Stim segments on both sides")
        if cfg.mean_frame and dynamic:
            raise ConfigError("mean-frame averaging applies to static comparisons only")
        if cfg.mean_frame:
            movie_b, movie_a = _mean_movie(movie_b), _mean_movie(movie_a)

        out.makedirs()
        report = {
            "mode": "dynamic" if dynamic else "static",
            "q": cfg.q, "bandwidth": cfg.bandwidth, "kernel": cfg.kernel, "rim": cfg.rim,
            "fdr_mode": cfg.fdr_mode, "two_sided": cfg.two_sided, "mean_frame": cfg.mean_frame,
            "m0": cfg.m0, "max_lag": cfg.max_lag, "seed": cfg.seed, "workers": cfg.workers,
        }

        out.stage = "segment"
        seg_movies, reg_movies = {}, {}
        for which, tag, movie in (("before", tag_b, movie_b), ("after", tag_a, movie_a)):
            if isinstance(getattr(cfg, which), str):
                report[f"{which}.path"] = getattr(cfg, which)
            report[f"{which}.segment_index"] = getattr(cfg, f"{which}_segment")
            report[f"{which}.tag"] = tag
            report[f"{which}.n_frames"] = len(movie)
            segmented, thr = _segment_movie(movie, cfg)
            seg_movies[which] = segmented
            report[f"{which}.mixture_m"] = thr.model.m
            report[f"{which}.mixture_loglik"] = thr.model.loglik
            report[f"{which}.mixture_converged"] = thr.model.converged
            report[f"{which}.mixture_n_iter"] = thr.model.n_iter
            report[f"{which}.threshold"] = thr.t
            report[f"{which}.threshold_method"] = thr.method
            out.emit(f"{which}_segmented.lasr", fr.save_movie, segmented)

        out.stage = "register"
        for which in ("before", "after"):
            registered, transforms = _register_movie(seg_movies[which])
            reg_movies[which] = registered
            for i, t in enumerate(transforms):
                report[f"{which}.srlp.{i}.theta"] = t.theta
                report[f"{which}.srlp.{i}.u"] = t.u
                report[f"{which}.srlp.{i}.v"] = t.v
            out.emit(f"{which}_registered.lasr", fr.save_movie, registered)

        out.stage = "align"
        rb, ra = reg_movies["before"], reg_movies["after"]
        offset_b = offset_a = 0
        if dynamic:
            lag = reg.icr_lag(rb, ra, m0=cfg.m0, max_lag=cfg.max_lag)
            tb = fr.Movie(rb.frames[cfg.m0:], fps=rb.fps)
            ta = fr.Movie(ra.frames[cfg.m0:], fps=ra.fps)
            rb, ra = reg.align_movies(tb, ta, lag)
            offset_b = cfg.m0 + max(-lag.j0, 0)
            offset_a = cfg.m0 + max(lag.j0, 0)
            report["icr.applied"] = True
            report["icr.j0"] = lag.j0
            report["icr.direction"] = lag.direction
        else:
            report["icr.applied"] = False

        out.stage = "compare"
        _compare_movies(rb, ra, cfg, out, report, first=(offset_b, offset_a))

        out.stage = "report"
        out.emit("report.txt", _write_report, report)
        return report


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


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
    rn.add_argument("--config", default=None, help="key = value file with run options")
    for name, kw in _RUN_OPTIONS:
        rn.add_argument(name, **dict(kw, default=None))

    sg = sub.add_parser("segment", help="threshold one movie")
    sg.add_argument("--in", dest="infile", required=True)
    sg.add_argument("--out", required=True)
    sg.add_argument("--components", default="2,3", help="candidate mixture sizes")
    sg.add_argument("--seed", type=int, default=0)

    rg = sub.add_parser("register", help="self-register each frame of a segmented movie")
    rg.add_argument("--in", dest="infile", required=True)
    rg.add_argument("--out", required=True)

    sm = sub.add_parser("ssm", help="significance maps for two registered movies")
    sm.add_argument("--before", required=True)
    sm.add_argument("--after", required=True)
    sm.add_argument("--out", required=True)
    sm.add_argument("--q", type=float, default=0.05)
    sm.add_argument("--bandwidth", type=float, default=3.0)
    sm.add_argument("--kernel", default="tgauss", choices=sorted(ssm.KERNELS))
    sm.add_argument("--rim", type=int, default=None)
    sm.add_argument("--fdr", default="bh", choices=("bh", "by"))
    sm.add_argument("--two-sided", action="store_true")
    sm.add_argument("--mean-frame", action="store_true")
    return p


_RUN_OPTIONS = [
    ("--before-segment", dict(type=int, help="segment index in the before session (default 0)")),
    ("--after-segment", dict(type=int, help="segment index in the after session (default -1, the last)")),
    ("--mode", dict(choices=("auto", "static", "dynamic"))),
    ("--q", dict(type=float)),
    ("--bandwidth", dict(type=float)),
    ("--kernel", dict(choices=("tgauss", "tricube"))),
    ("--rim", dict(type=int)),
    ("--m0", dict(type=int)),
    ("--max-lag", dict(type=int)),
    ("--fdr", dict(choices=("bh", "by"))),
    ("--two-sided", dict(action="store_true")),
    ("--mean-frame", dict(action="store_true")),
    ("--seed", dict(type=int)),
    ("--workers", dict(type=int, help="accepted for compatibility and ignored")),
]

_CONFIG_KEYS = {
    "before-segment": ("before_segment", int), "after-segment": ("after_segment", int),
    "mode": ("mode", str), "q": ("q", float), "bandwidth": ("bandwidth", float),
    "kernel": ("kernel", str), "rim": ("rim", int), "m0": ("m0", int),
    "max-lag": ("max_lag", int), "fdr": ("fdr_mode", str),
    "two-sided": ("two_sided", lambda s: s.lower() == "true"),
    "mean-frame": ("mean_frame", lambda s: s.lower() == "true"),
    "seed": ("seed", int), "workers": ("workers", int),
}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError("expected 'key = value'", line=ln)
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            attr, conv = _CONFIG_KEYS[key]
            try:
                out[attr] = conv(val)
            except ValueError:
                raise ConfigError(f"bad value for config key {key!r}: {val!r}") from None
    return out


def _env_seed() -> Optional[int]:
    raw = os.environ.get("LASR_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"LASR_SEED must be an integer, got {raw!r}") from None


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
    seed = _env_seed()
    seed = ns.seed if seed is None else seed
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
                                  seed=seed, **common)
    # a delayed pattern shows at frame t what the zero-lag pattern shows at
    # t - lag, i.e. a phase advance of -lag
    spec_a = synthgen.PhantomSpec(stim=synthgen.StimSpec(ns.stim_period, ns.stim_left, ns.stim_right, -ns.lag),
                                  effect=effect, seed=seed + 1, **common)
    before, _ = synthgen.gen_session(spec_b, session_id="s1")
    after, truth = synthgen.gen_session(spec_a, session_id="s2")
    os.makedirs(ns.out, exist_ok=True)
    fr.save_session(before, os.path.join(ns.out, "s1"))
    fr.save_session(after, os.path.join(ns.out, "s2"))
    lines = {"seed": seed, "effect_delta": ns.effect_delta, "stim_lag": ns.lag}
    _write_report(lines, os.path.join(ns.out, "truth.txt"))
    if effect is not None:
        fr.save_map_csv(effect.mask.astype(float), os.path.join(ns.out, "effect_mask.csv"))
    print(f"wrote sessions to {os.path.join(ns.out, 's1')} and {os.path.join(ns.out, 's2')}")
    return 0


def _cmd_run(ns) -> int:
    kwargs = dict(before=ns.before, after=ns.after, out_dir=ns.out)
    if ns.config is not None:
        kwargs.update(_read_config_file(ns.config))
    cli_map = {
        "before_segment": ns.before_segment, "after_segment": ns.after_segment,
        "mode": ns.mode, "q": ns.q, "bandwidth": ns.bandwidth, "kernel": ns.kernel,
        "rim": ns.rim, "m0": ns.m0, "max_lag": ns.max_lag, "fdr_mode": ns.fdr,
        "two_sided": ns.two_sided or None, "mean_frame": ns.mean_frame or None,
        "seed": ns.seed, "workers": ns.workers,
    }
    kwargs.update({k: v for k, v in cli_map.items() if v is not None})
    env = _env_seed()
    if env is not None:
        kwargs["seed"] = env
    report = run_lasr(RunConfig(**kwargs))
    print(f"wrote {report['n_pairs']} pair map(s) and report.txt to {ns.out}")
    return 0


def _cmd_segment(ns) -> int:
    try:
        cand = tuple(int(tok) for tok in ns.components.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"bad --components value {ns.components!r}") from None
    cfg = _validate(RunConfig(before=ns.infile, after=ns.infile, out_dir=ns.out,
                              candidates=cand, seed=ns.seed))
    segmented, result = _segment_movie(fr.load_movie(ns.infile), cfg)
    os.makedirs(ns.out, exist_ok=True)
    fr.save_movie(segmented, os.path.join(ns.out, "segmented.lasr"))
    rep = {"threshold": result.t, "method": result.method, "mixture_m": result.model.m,
           "loglik": result.model.loglik, "converged": result.model.converged,
           "n_iter": result.model.n_iter}
    for i in range(result.model.m):
        rep[f"component.{i}.weight"] = result.model.weights[i]
        rep[f"component.{i}.mean"] = result.model.means[i]
        rep[f"component.{i}.sd"] = result.model.sds[i]
    _write_report(rep, os.path.join(ns.out, "segment_report.txt"))
    print(f"threshold {result.t:.6g} ({result.method}); wrote {ns.out}/segmented.lasr")
    return 0


def _cmd_register(ns) -> int:
    registered, transforms = _register_movie(_load_masked(ns.infile))
    os.makedirs(ns.out, exist_ok=True)
    fr.save_movie(registered, os.path.join(ns.out, "registered.lasr"))
    rep = {}
    for i, t in enumerate(transforms):
        rep[f"frame.{i}.theta"] = t.theta
        rep[f"frame.{i}.u"] = t.u
        rep[f"frame.{i}.v"] = t.v
    _write_report(rep, os.path.join(ns.out, "register_report.txt"))
    print(f"registered {len(registered)} frame(s); wrote {ns.out}/registered.lasr")
    return 0


def _cmd_ssm(ns) -> int:
    with _Outputs(ns.out) as out:
        cfg = _validate(RunConfig(before=ns.before, after=ns.after, out_dir=ns.out, q=ns.q,
                                  bandwidth=ns.bandwidth, kernel=ns.kernel, rim=ns.rim,
                                  fdr_mode=ns.fdr, two_sided=ns.two_sided,
                                  mean_frame=ns.mean_frame))
        out.stage = "load"
        before, after = (_load_masked(p, cfg.mean_frame) for p in (cfg.before, cfg.after))
        if before.shape != after.shape:
            raise DataError("before/after frame dimensions differ")
        out.makedirs()
        report = {"q": cfg.q, "bandwidth": cfg.bandwidth, "kernel": cfg.kernel, "rim": cfg.rim,
                  "fdr_mode": cfg.fdr_mode, "two_sided": cfg.two_sided}
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
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        cause = e.cause
        if isinstance(cause, ConfigError):
            return 2
        if isinstance(cause, NumericError):
            return 4
        return 3
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
