"""Pressure-frame containers and file I/O.

Movie text format
-----------------
Movies are interchanged as plain text.  The grammar is::

    header    := "LASR1" SP rows SP cols SP nframes SP fps NL
    body      := frame (BLANK frame){nframes-1}
    frame     := row{rows}
    row       := value (SP value){cols-1} NL
    BLANK     := NL                          # exactly one empty line

``rows``, ``cols`` and ``nframes`` are positive integers, ``fps`` is a
positive decimal, written as the shortest one that reads back exactly.
Values are nonnegative decimals; they are written with 6 significant
digits, so a save/load round trip is exact for values already
representable at that precision.  The parser is strict: any deviation from
the grammar (wrong row width, negative or non-numeric value, missing or
extra separator line, trailing content) raises :class:`FormatError` with
the offending line number; a file that is not ASCII text raises it naming
the file.  There are two reader tiers.  A body whose line count and blank
separators fit the header is parsed by numpy's C reader in one call.
Anything else, including tokens numpy refuses but ``float`` accepts (such
as ``1_0``), goes to a line walker, which reads every value with ``float``
and finds the first bad line; the C reader reads every value as ``float``
does.  The walker builds the array only from rows it has read, so a header
that promises more than the body holds costs no memory.  A parsed movie
is ``Movie(values, fps=fps)``, which takes the parsed array over without
a copy.

The writers format only the values that vary.  Segmented movies and
per-pair maps repeat the same exact zeros (and, in t-maps, NaNs) in the
same positions grid after grid, so a pattern of ``+0.0`` and NaN
positions seen a second time gets a cached format string with those
positions spelled out (``0``, ``nan``), and ``%`` is applied only to the
other values.  A grid whose pattern is new goes through one plain format
string per call; the bytes written are the same either way.

A session directory is a ``session.txt`` manifest plus one movie file per
segment.  ``lasr run`` checks the whole manifest (no key given twice,
segments numbered 0..n-1 without a gap, each with a file entry and a known
tag) but parses only the two segment files it
compares, so a malformed movie file in an unselected segment does not fail
a run; :func:`load_session` parses them all.

Map images are written as plain (P2) PGM with maxval 255, and maps can
also be dumped as one-line-per-row CSV, one map or a stack of maps to a
file.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, FormatError

__all__ = [
    "Frame",
    "Movie",
    "SessionLayout",
    "SEGMENT_TAGS",
    "load_movie",
    "save_movie",
    "save_map_image",
    "save_map_csv",
    "load_session",
    "save_session",
]

SEGMENT_TAGS = ("NoStim", "Stim")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def _check(values: np.ndarray, mask: Optional[np.ndarray], signed: bool) -> None:
    """Finite values, nonnegative unless signed, and a boolean mask of one grid's shape."""
    if not np.isfinite(values).all():
        raise DataError("frame values must be finite")
    if not signed and (values < 0).any():
        raise DataError("frame values must be nonnegative")
    if mask is not None and not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
                                 and mask.shape == values.shape[-2:]):
        raise DataError("support mask must be a boolean ndarray of the frame shape")


@dataclass(frozen=True, eq=False)
class Frame:
    """A single rows x cols intensity image with an optional support mask.

    ``values`` must be finite, and nonnegative unless ``signed=True`` is
    passed (difference maps are signed).  ``Frame(...)`` copies and freezes
    its arrays, so a frame never changes once made; ``movie[k]`` makes one.
    """

    values: np.ndarray
    support_mask: Optional[np.ndarray] = None
    signed: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise DataError(f"frame values must be a nonempty 2-D grid, got shape {v.shape}")
        m = None if self.support_mask is None else np.asarray(self.support_mask)
        _check(v, m, self.signed)
        object.__setattr__(self, "values", _frozen(v))
        if m is not None:
            object.__setattr__(self, "support_mask", _frozen(m))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class Movie:
    """Equally sized frames sampled at ``fps`` frames/sec, as one array.

    A movie is one segment on one support: ``values`` is a nonempty
    (nframes, rows, cols) float64 ndarray, ``mask`` one boolean (rows, cols)
    ndarray that every frame shares, or None, and ``fps`` a positive finite
    number.  Values are nonnegative: a movie is never signed, as
    ``load_movie`` could not read it back.  ``Movie(values, mask, fps)``
    checks its inputs once and takes the arrays over without a copy: it
    makes them read-only in place, so the caller hands them over.  Nothing
    is converted; any other input is a ``DataError``.  ``movie[k]`` is
    frame k, a ``Frame``; ``movie[a:b]`` is a movie sharing this one's
    arrays.
    """

    values: np.ndarray
    mask: Optional[np.ndarray] = None
    fps: float = 2.0

    def __post_init__(self):
        v, m, fps = self.values, self.mask, self.fps
        if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 3 and v.size):
            got = f"{v.dtype} array of shape {v.shape}" if isinstance(v, np.ndarray) else type(v).__name__
            raise DataError(f"movie values must be a nonempty 3-D float64 ndarray, got {got}")
        _check(v, m, signed=False)
        if not (isinstance(fps, numbers.Real) and math.isfinite(fps) and fps > 0):
            raise DataError(f"fps must be a positive finite number, got {fps!r}")
        v.setflags(write=False)
        if m is not None:
            m.setflags(write=False)
        object.__setattr__(self, "fps", float(fps))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Movie(self.values[k], self.mask, self.fps)
        return Frame(self.values[k], self.mask)

    @property
    def shape(self) -> tuple:
        return self.values.shape[1:]


def _check_tag(tag) -> None:
    if tag not in SEGMENT_TAGS:
        raise DataError(f"unknown segment tag {tag!r}; expected one of {SEGMENT_TAGS}")


@dataclass(frozen=True)
class SessionLayout:
    """A recording session: tagged movie segments from one subject."""

    segments: tuple  # of (tag, Movie)
    session_id: str = ""
    subject_id: str = ""

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise DataError("session must contain at least one segment")
        for tag, movie in segs:
            _check_tag(tag)
            if not isinstance(movie, Movie):
                raise DataError("segment payload must be a Movie")
        object.__setattr__(self, "segments", segs)


# ---------------------------------------------------------------------------
# movie text I/O
# ---------------------------------------------------------------------------

_MAGIC = "LASR1"
_VALUE_FMT = "%.6g"


def _parse_header(line: str):
    tok = line.split()
    if len(tok) != 5 or tok[0] != _MAGIC:
        raise FormatError(f"expected '{_MAGIC} <rows> <cols> <nframes> <fps>'", line=1)
    try:
        rows, cols, nframes = int(tok[1]), int(tok[2]), int(tok[3])
        fps = float(tok[4])
    except ValueError:
        raise FormatError("header fields must be numeric", line=1) from None
    if rows <= 0 or cols <= 0 or nframes <= 0:
        raise FormatError("rows, cols and nframes must be positive", line=1)
    if not (np.isfinite(fps) and fps > 0):
        raise FormatError("fps must be a positive finite number", line=1)
    return rows, cols, nframes, fps


def _parse_fast(lines, rows: int, cols: int, nframes: int) -> Optional[np.ndarray]:
    """The (nframes, rows, cols) values of a well-formed body, or None to
    defer to the line walker.

    Checks the line count and the blank separators, then parses the rows
    with numpy's C reader, which accepts only values the walker accepts.
    """
    step = rows + 1
    if len(lines) != nframes * step or any(lines[k * step].strip() for k in range(1, nframes)):
        return None
    values = _parse_c(lines, rows, cols, nframes)
    if values is None or not np.isfinite(values).all() or (values < 0).any():
        return None
    return values.reshape(nframes, rows, cols)


def _parse_c(lines, rows: int, cols: int, nframes: int) -> Optional[np.ndarray]:
    """All rows in one ``np.loadtxt`` call, which skips the blank
    separators; None where numpy refuses a token or a row is blank."""
    if not lines[1].strip():  # also spares loadtxt's "no data" warning
        return None
    try:
        values = np.loadtxt(lines[1:], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (nframes * rows, cols) else None


def _parse_walk(lines, rows: int, cols: int, nframes: int) -> np.ndarray:
    """Line-by-line parse that names the first offending line.

    Rows are collected as they are read and stacked at the end, so the
    header's sizes never allocate anything by themselves.
    """
    parsed = []
    ln = 1  # 1-based number of the last consumed line
    for k in range(nframes):
        if k > 0:
            ln += 1
            if ln > len(lines) or lines[ln - 1].strip() != "":
                raise FormatError("expected blank line between frames", line=min(ln, len(lines) + 1))
        for _ in range(rows):
            ln += 1
            if ln > len(lines):
                raise FormatError(f"unexpected end of file in frame {k}", line=len(lines) + 1)
            tok = lines[ln - 1].split()
            if len(tok) != cols:
                raise FormatError(f"expected {cols} values, got {len(tok)}", line=ln)
            try:
                row = np.array([float(t) for t in tok])
            except ValueError:
                raise FormatError("non-numeric value", line=ln) from None
            if not np.isfinite(row).all():
                raise FormatError("non-finite value", line=ln)
            if (row < 0).any():
                raise FormatError("negative value", line=ln)
            parsed.append(row)
    if ln < len(lines):
        raise FormatError("trailing content after last frame", line=ln + 1)
    return np.stack(parsed).reshape(nframes, rows, cols)


def load_movie(path) -> Movie:
    """Parse a movie file; strict about the grammar, never returns a partial movie."""
    lines = _read_text(path).split("\n")
    # a trailing newline produces one final empty chunk; drop only that one
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty file", line=1)
    rows, cols, nframes, fps = _parse_header(lines[0])
    values = _parse_fast(lines, rows, cols, nframes)
    if values is None:
        values = _parse_walk(lines, rows, cols, nframes)
    return Movie(values, fps=fps)


def _read_text(path) -> str:
    """A whole ASCII text file (universal newlines)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FormatError("not ASCII text", path=path) from None


# Templates of repeated grid patterns, least recently used evicted first:
# key -> format string, or None for a pattern seen once.  The key is
# (spec, separator, shape, +0.0 positions, NaN positions as bytes).
_TEMPLATE_SLOTS = 16
_templates: OrderedDict = OrderedDict()
_UNSEEN = object()


class _GridFormat:
    """Formats ``shape`` grids as ``spec`` values joined by ``sep``, one line
    per row.  Positions holding ``+0.0`` (or integer 0) or NaN in a pattern
    seen before are literals of a cached template; every other value,
    ``-0.0`` included, goes through ``%``."""

    def __init__(self, spec: str, sep: str, shape: tuple):
        self.spec, self.sep, self.shape = spec, sep, shape
        self._plain = None

    def _template(self, cells: list) -> str:
        rows, cols = self.shape
        return "".join(self.sep.join(cells[r * cols:(r + 1) * cols]) + "\n" for r in range(rows))

    def __call__(self, grid: np.ndarray) -> str:
        flat = grid.ravel()
        zero = flat.view(np.uint64) == 0  # -0.0 has its sign bit set
        nan = np.isnan(flat) if flat.dtype.kind == "f" else np.zeros_like(zero)
        key = (self.spec, self.sep, self.shape, zero.tobytes(), nan.tobytes())
        template = _templates.pop(key, _UNSEEN)
        if template is None:  # second sighting
            cells = [self.spec] * flat.size
            for i in np.flatnonzero(zero).tolist():
                cells[i] = "0"
            for i in np.flatnonzero(nan).tolist():
                cells[i] = "nan"
            template = self._template(cells)
        _templates[key] = None if template is _UNSEEN else template
        if len(_templates) > _TEMPLATE_SLOTS:
            _templates.popitem(last=False)
        if template is _UNSEEN:
            if self._plain is None:
                self._plain = self._template([self.spec] * flat.size)
            return self._plain % tuple(flat.tolist())
        return template % tuple(flat[~(zero | nan)].tolist())


def save_movie(movie: Movie, path) -> None:
    """Write a movie in the text format (values at 6 significant digits, fps exact)."""
    rows, cols = movie.shape
    fps = np.format_float_positional(movie.fps, trim="-")
    fmt = _GridFormat(_VALUE_FMT, " ", movie.shape)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%s %d %d %d %s\n" % (_MAGIC, rows, cols, len(movie), fps))
        for k, grid in enumerate(movie.values):
            if k > 0:
                fh.write("\n")
            fh.write(fmt(grid))


# ---------------------------------------------------------------------------
# map output (PGM / CSV)
# ---------------------------------------------------------------------------


def save_map_image(frame_or_values, path) -> None:
    """Write a map of values in [0, 1] as plain (P2) PGM, maxval 255;
    pixel = round(255 * v)."""
    v = frame_or_values.values if isinstance(frame_or_values, Frame) else np.asarray(frame_or_values, dtype=np.float64)
    if v.ndim != 2:
        raise DataError("map must be 2-D")
    if not np.isfinite(v).all():
        raise DataError("map values must be finite")
    if (v < 0).any() or (v > 1).any():
        raise DataError("map values must lie in [0, 1]")
    pix = np.floor(255.0 * v + 0.5).astype(np.int64)
    rows, cols = v.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n%d %d\n255\n" % (cols, rows))
        fh.write(_GridFormat("%d", " ", pix.shape)(pix))


def save_map_csv(values, path) -> None:
    """Write a 2-D map as CSV, one line per row (NaN spelled ``nan``).

    Given a list of 2-D maps of one shape (rows, cols), writes them map
    after map through one handle: map k is rows ``k*rows`` to
    ``k*rows + rows - 1``, so the file is the maps' one-map files
    concatenated.
    """
    stacked = isinstance(values, list) and len(values) > 0 and np.ndim(values[0]) == 2
    maps = [np.asarray(v, dtype=np.float64) for v in (values if stacked else [values])]
    if any(v.ndim != 2 for v in maps):
        raise DataError("map must be 2-D")
    if any(v.shape != maps[0].shape for v in maps):
        raise DataError("stacked maps must share one shape")
    fmt = _GridFormat("%.10g", ",", maps[0].shape)
    with open(path, "w", encoding="ascii") as fh:
        for v in maps:
            fh.write(fmt(v))


# ---------------------------------------------------------------------------
# session directories
# ---------------------------------------------------------------------------


def save_session(layout: SessionLayout, directory) -> None:
    """Write a session as ``session.txt`` plus one movie file per segment."""
    os.makedirs(directory, exist_ok=True)
    lines = [f"session_id = {layout.session_id}", f"subject_id = {layout.subject_id}"]
    for k, (tag, movie) in enumerate(layout.segments):
        name = f"seg{k}.lasr"
        save_movie(movie, os.path.join(directory, name))
        lines.append(f"segment.{k}.tag = {tag}")
        lines.append(f"segment.{k}.file = {name}")
    with open(os.path.join(directory, "session.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_kv(path) -> list:
    """The ``(key, value)`` pairs of a ``key = value`` text file, in file
    order; blank lines and ``#`` comments are skipped, and a key may appear
    once.  Every error names the file."""
    pairs, seen = [], set()
    for ln, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("expected 'key = value'", line=ln, path=path)
        key, _, val = line.partition("=")
        key = key.strip()
        if key in seen:
            raise FormatError(f"key {key!r} given twice", line=ln, path=path)
        seen.add(key)
        pairs.append((key, val.strip()))
    return pairs


def _manifest(directory):
    """Check ``session.txt`` and list its segments without parsing any movie.

    Returns ``([(tag, path), ...], session_id, subject_id)``.  The segments
    are numbered 0..n-1 without a gap; each needs a file entry and a known
    tag, and no ``segment.K.*`` key may lie outside that run.
    """
    manifest = os.path.join(directory, "session.txt")
    if not os.path.isfile(manifest):
        raise DataError(f"no session.txt in {directory}")
    kv = dict(_read_kv(manifest))
    entries = []
    k = 0
    while f"segment.{k}.tag" in kv:
        tag = kv[f"segment.{k}.tag"]
        fname = kv.get(f"segment.{k}.file")
        if fname is None:
            raise DataError(f"segment {k} has a tag but no file entry")
        _check_tag(tag)
        entries.append((tag, os.path.join(directory, fname)))
        k += 1
    if not entries:
        raise DataError(f"session.txt in {directory} declares no segments")
    for key in kv:
        if key.startswith("segment.") and key.split(".")[1] not in map(str, range(k)):
            raise DataError(f"{manifest}: key {key!r} lies outside segments 0..{k - 1}")
    return entries, kv.get("session_id", ""), kv.get("subject_id", "")


def load_session(directory) -> SessionLayout:
    """Read a session directory written by :func:`save_session`."""
    entries, session_id, subject_id = _manifest(directory)
    return SessionLayout(tuple((tag, load_movie(path)) for tag, path in entries),
                         session_id=session_id, subject_id=subject_id)
