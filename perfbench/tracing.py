"""Span tracing around the public functions of the lasr modules.

The traced run replaces each function listed in ``TRACED`` on its module
object with a wrapper that records one span per call: name, start, end,
parent span and comparison id.  The pipeline (and ``select_model``,
``load_session``, ``save_session``) look these names up at call time, so
the wrappers see every call without any change to the package.  Spans
stay in memory until the run ends; ``Tracer.write`` then dumps them.

A layer is the module part of a span name.  A span's self time is its
duration minus the durations of its direct children; children never
overlap because everything runs in one thread.  The benchmark opens a
``pipeline.comparison`` root span around every comparison, so the layers'
self times over one comparison add up to that comparison's traced time.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

TRACED = {
    "frames": ("load_session", "load_movie", "save_session", "save_movie",
               "save_map_csv", "save_map_image"),
    "segmentation": ("select_model", "fit_mixture", "optimal_threshold"),
    "registration": ("srlp_register", "icr_lag", "align_movies"),
    "ssm": ("difference_map", "pad_rim", "local_quadratic_smooth", "t_map",
            "restrict_tmap", "p_map", "bh_adjust", "fdr_map"),
    "pipeline": ("run_lasr", "cli_main"),
    "synthgen": ("gen_session",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counters taken at the layer boundary from a call's arguments and result.
# Each hook runs after the span has closed, so it costs traced time but no
# layer's self time.

def _count_fit(tr, args, kwargs, out):
    tr.count("segmentation.fits")
    tr.count("segmentation.em_iters", out.n_iter)
    tr.count("segmentation.converged", int(out.converged))


def _count_threshold(tr, args, kwargs, out):
    tr.count("segmentation.grid_fallbacks", int(out.method == "grid-fallback"))


def _count_smooth(tr, args, kwargs, out):
    tr.count("ssm.smooth_calls")
    tr.count("ssm.fit_pixels", int(out.pixels.shape[0]))
    tr.count("ssm.hat_nnz", int(out.hat.nnz))
    tr.distinct("ssm.distinct_masks", out.mask.tobytes())


def _count_srlp(tr, args, kwargs, out):
    t = out[1]
    tr.count("registration.srlp_calls")
    tr.distinct("registration.distinct_transforms", (t.theta, t.u, t.v))


def _count_load_movie(tr, args, kwargs, out):
    tr.count("frames.bytes_read", _file_size(_arg(args, kwargs, 0, "path")))


def _count_load_session(tr, args, kwargs, out):
    directory = _arg(args, kwargs, 0, "directory")
    tr.count("frames.bytes_read", _file_size(os.path.join(directory, "session.txt")))


def _count_save(tr, args, kwargs, out):
    tr.count("frames.files_written")
    tr.count("frames.bytes_written", _file_size(_arg(args, kwargs, 1, "path")))


HOOKS = {
    "segmentation.fit_mixture": _count_fit,
    "segmentation.optimal_threshold": _count_threshold,
    "ssm.local_quadratic_smooth": _count_smooth,
    "registration.srlp_register": _count_srlp,
    "frames.load_movie": _count_load_movie,
    "frames.load_session": _count_load_session,
    "frames.save_movie": _count_save,
    "frames.save_map_csv": _count_save,
    "frames.save_map_image": _count_save,
}


class Tracer:
    """Records spans and boundary counters for one benchmark run."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, comparison id]
        self.counts = defaultdict(Counter)
        self.sets = defaultdict(lambda: defaultdict(set))
        self.cid = None
        self._stack = []
        self._saved = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        self.counts[self.cid][key] += n

    def distinct(self, key, item):
        self.sets[self.cid][key].add(item)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.cid])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def install(self, modules):
        """Replace every ``TRACED`` function on the given module objects."""
        for layer, names in TRACED.items():
            mod = modules[layer]
            for fname in names:
                fn = getattr(mod, fname)
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(f"{layer}.{fname}", fn))

    def uninstall(self):
        for mod, fname, fn in reversed(self._saved):
            setattr(mod, fname, fn)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, cid in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_comparison(self):
        """Per comparison id: self time per layer and per span name,
        inclusive time per span name, root duration, and the counters."""
        out = defaultdict(lambda: {"self": Counter(), "self_by_name": Counter(),
                                   "incl": Counter(), "root_s": 0.0})
        for (name, start, end, parent, cid), s in zip(self.spans, self.self_times()):
            rec = out[cid]
            rec["self"][name.split(".", 1)[0]] += s
            rec["self_by_name"][name] += s
            rec["incl"][name] += end - start
            if parent is None:
                rec["root_s"] += end - start
        for cid, rec in out.items():
            rec["counts"] = Counter(self.counts.get(cid, {}))
            for key, items in self.sets.get(cid, {}).items():
                rec["counts"][key] = len(items)
        return dict(out)

    def write(self, path):
        """Dump the spans (times in seconds from tracer start) as JSON."""
        rows = [{"name": n, "start": s - self._t0, "end": e - self._t0,
                 "parent": p, "comparison": c} for n, s, e, p, c in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": rows}, fh)
