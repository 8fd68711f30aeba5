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

The writers turn a block of about 8192 values at a time into text with
one numpy kernel, byte for byte what ``'%.6g' % v`` (movies) or
``'%.10g' % v`` (CSV maps) gives.  Zeros and NaN are literals.  Every
other value is scaled by one exact power of ten, rounded with ``rint``
and spelled from a 4-digit table; the few values that this cannot
decide (within a few ulps of a rounding half, printed with an exponent,
or infinite) go through ``%`` one at a time.

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


def _quad_tables():
    """The kernel's 4-digit tables: "0000".."9999" and ".000"..".999" as
    4-byte words, so one take writes four characters, and each word's
    digits up to its last nonzero one (far below any length for 0000)."""
    q = np.arange(10000)
    chars = (np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0")).astype(np.uint8)
    point = np.concatenate([np.full((1000, 1), ord("."), np.uint8), chars[:1000, 1:]], axis=1)
    kept = np.where(q == 0, -100, 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0))
    return (_frozen(chars.reshape(-1).view(np.uint32)), _frozen(point.reshape(-1).view(np.uint32)),
            _frozen(kept))


_QUAD_TEXT, _POINT_TEXT, _QUAD_KEPT = _quad_tables()
_POW10 = _frozen([float(10 ** k) for k in range(23)])  # exact in float64 up to 1e22
# the literals, by a value's top two bits (sign, top exponent bit): +0.0, NaN, -0.0, NaN
_LITERALS = ("0", "nan", "-0", "nan")
_BLOCK_VALUES = 8192  # values per kernel call, which bounds every temporary


def _format_value(value: float, digits: int) -> str:
    """``'%.{digits}g' % value``: the kernel's path for a value its fast path cannot decide."""
    return "%.*g" % (digits, value)


def _format_block(block: np.ndarray, digits: int, sep: str, blank: Optional[np.ndarray] = None) -> str:
    """The text of a 2-D float64 block: each value exactly as ``'%.{digits}g'
    % v`` (``digits`` 6 or 10), values joined by the one-character ``sep``,
    each row ended by a newline and, where the boolean ``blank[row]`` holds,
    by a second one.

    ``+0.0``, ``-0.0`` and NaN are literals.  Every other value is written
    into a row of a byte buffer by :func:`_fixed_point_text`, or, where that
    cannot decide it, by :func:`_format_value`; one gather then joins the
    values' slices of their rows.
    """
    rows, cols = block.shape
    flat = np.ascontiguousarray(block, dtype=np.float64).ravel()
    terms = (sep, "\n", "\n\n")
    term = np.zeros((rows, cols), np.intp)  # each value's terminator, an index into terms
    term[:, -1] = 1 if blank is None else 1 + blank
    term = term.ravel()
    term_len = np.array([len(t) for t in terms])
    width = 8 * ((digits + 3) // 4) + 4
    live = np.flatnonzero(np.abs(flat) > 0)  # neither a zero nor NaN
    n_live = live.size
    # a row per live value, then each literal with each terminator
    buf = np.empty((n_live + 3 * len(_LITERALS), width), np.uint8)
    buf[n_live:] = np.frombuffer("".join((s + t).ljust(width) for s in _LITERALS for t in terms)
                                 .encode("ascii"), np.uint8).reshape(-1, width)
    # every value as a literal first; the live ones are overwritten below
    row = (flat.view(np.uint64) >> 62).view(np.int64) * 3
    row += term
    lengths = np.array([len(s + t) for s in _LITERALS for t in terms]).take(row)
    starts = row + n_live  # of each value's text in buf's bytes
    starts *= width
    if n_live:
        x, t = flat[live], term[live]
        first, end, undecided = _fixed_point_text(x, digits, buf[:n_live])
        row0 = np.arange(0, n_live * width, width)
        text = buf.reshape(-1)
        text[row0 + end] = np.frombuffer((sep + "\n\n").encode("ascii"), np.uint8).take(t)
        two = np.flatnonzero(t == 2)
        text[row0[two] + end[two] + 1] = ord("\n")
        for i in undecided.tolist():
            s = (_format_value(x[i], digits) + terms[t[i]]).encode("ascii")
            buf[i, :len(s)] = np.frombuffer(s, np.uint8)
            first[i], end[i] = 0, len(s) - term_len[t[i]]
        lengths[live] = end - first + term_len.take(t)
        starts[live] = row0 + first
    ends = np.cumsum(lengths)
    gather = np.repeat(starts - (ends - lengths), lengths)
    gather += np.arange(ends[-1])
    return buf.reshape(-1).take(gather).tobytes().decode("ascii")


def _fixed_point_text(x: np.ndarray, digits: int, out: np.ndarray):
    """Write ``'%.{digits}g' % v`` of each nonzero ``x`` that prints without
    an exponent into its row of ``out`` (uint8, ``8 * ceil(digits / 4) + 4``
    wide); returns the text's first and end columns per row and the
    indices of the values left undecided.

    The row is a fixed-point field: integer digits right-aligned before a
    point at a fixed column, fraction digits after it, a minus sign written
    just before the first digit.  The decimal exponent comes from
    ``log10``, corrected both ways by checking the scaled value against
    10**(digits - 1) and 10**digits, so no digit depends on ``log10``'s
    last bit.  The scale is one multiply by an exact power of ten, so the
    product is the exact one rounded once (Clinger's fast path), and
    ``rint`` of it gives the right digits unless the product lies within a
    few ulps of a rounding half.  Those values, exponent-notation ones
    (exponent below -4 or from ``digits`` on) and infinities are left
    undecided.
    """
    P = digits
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # inf - inf, for an infinite x
        # k = digits after the point, P - 1 - exponent, within the exact powers
        k = np.floor(np.log10(a))
        np.subtract(P - 1, k, out=k)
        k = np.clip(k, 0, P + 4).astype(np.intp)
        scale = _POW10.take(k)
        p = a * scale
        over, under = p >= _POW10[P], p < _POW10[P - 1]
        fix = np.flatnonzero(over | under)
        if fix.size:
            k[fix] += under[fix].view(np.int8) - over[fix].view(np.int8)
            scale[fix] = _POW10.take(np.clip(k[fix], 0, P + 4))
            p[fix] = a[fix] * scale[fix]
        m = np.rint(p)
        p -= m
        near_half = np.abs(p, out=p) > 0.5 - 4 * np.spacing(_POW10[P])
    carry = np.flatnonzero(m == _POW10[P])  # rounded up to the next power of ten
    if carry.size:
        m[carry] = _POW10[P - 1]
        k[carry] -= 1
        scale[carry] = _POW10.take(np.clip(k[carry], 0, P + 4))
    # exponent below -4 or above P - 1, or the clip above held k
    undecided = np.flatnonzero(near_half | (k.view(np.uintp) > P + 3))
    if undecided.size:
        m[undecided], k[undecided], scale[undecided] = _POW10[P - 1], P - 1, _POW10[P - 1]
    # integer part and fraction, exact: every value involved is an integer below 2**53
    whole = np.floor(m / scale)
    quads = 1 + int(k.max()) // 4  # ".ddd" and then 4-digit words, enough for every k
    frac = ((m - whole * scale) * _POW10.take(4 * quads - 1 - k)).astype(np.int64)
    whole = whole.astype(np.int64)
    words = out.view(np.uint32)
    point = 4 * ((P + 3) // 4)
    for j in range(point // 4 - 1, point // 4 - 1 - (max(P - int(k.min()), 1) + 3) // 4, -1):
        high = whole // 10000
        words[:, j] = _QUAD_TEXT.take(whole - high * 10000)
        whole = high
    kept = np.zeros(x.size, np.intp)  # fraction digits after trailing zeros are cut
    for j in range(quads - 1, 0, -1):
        high = frac // 10000
        quad = frac - high * 10000
        words[:, point // 4 + j] = _QUAD_TEXT.take(quad)
        np.maximum(kept, _QUAD_KEPT.take(quad) + (4 * j - 1), out=kept)
        frac = high
    words[:, point // 4] = _POINT_TEXT.take(frac)
    np.maximum(kept, _QUAD_KEPT.take(frac) - 1, out=kept)
    first = point - np.maximum(P - k, 1)
    neg = np.flatnonzero(np.signbit(x))
    first[neg] -= 1
    out[neg, first[neg]] = ord("-")
    end = point + kept + (kept > 0)
    return first, end, undecided


def _write_rows(fh, values: np.ndarray, digits: int, sep: str, frame_rows: int = 0) -> None:
    """Write the rows of a 2-D float64 array through :func:`_format_block`,
    a block of at most about ``_BLOCK_VALUES`` values (and at least one row)
    at a time; with ``frame_rows``, a blank line follows every
    ``frame_rows`` rows but the last."""
    nrows, cols = values.shape
    step = max(1, _BLOCK_VALUES // cols)
    for r0 in range(0, nrows, step):
        r1 = min(r0 + step, nrows)
        blank = None
        if frame_rows:
            done = np.arange(r0 + 1, r1 + 1)  # rows written once each row is
            blank = (done % frame_rows == 0) & (done < nrows)
        fh.write(_format_block(values[r0:r1], digits, sep, blank))


def save_movie(movie: Movie, path) -> None:
    """Write a movie in the text format (values at 6 significant digits, fps exact)."""
    rows, cols = movie.shape
    fps = np.format_float_positional(movie.fps, trim="-")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%s %d %d %d %s\n" % (_MAGIC, rows, cols, len(movie), fps))
        _write_rows(fh, movie.values.reshape(-1, cols), 6, " ", frame_rows=rows)


# ---------------------------------------------------------------------------
# map output (PGM / CSV)
# ---------------------------------------------------------------------------


def _real_maps(values, ndims: tuple, shape_error: str) -> np.ndarray:
    """``values`` as a nonempty float64 array with ``ndims`` dimensions;
    anything else, a complex map included, is a DataError."""
    try:
        maps = np.asarray(values)
    except ValueError:  # a list of maps of differing shapes
        maps = None
    if maps is None or maps.ndim not in ndims:
        raise DataError(shape_error)
    if maps.dtype.kind == "c":
        raise DataError("map values must be real")
    if maps.size == 0:
        raise DataError(f"map must be a nonempty grid, got shape {maps.shape}")
    return maps.astype(np.float64, copy=False)


def save_map_image(frame_or_values, path) -> None:
    """Write a map of values in [0, 1] as plain (P2) PGM, maxval 255;
    pixel = round(255 * v)."""
    v = frame_or_values.values if isinstance(frame_or_values, Frame) else frame_or_values
    v = _real_maps(v, (2,), "map must be 2-D")
    if not np.isfinite(v).all():
        raise DataError("map values must be finite")
    if (v < 0).any() or (v > 1).any():
        raise DataError("map values must lie in [0, 1]")
    pix = np.floor(255.0 * v + 0.5)  # whole levels, which print as integers
    rows, cols = v.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n%d %d\n255\n" % (cols, rows))
        _write_rows(fh, pix, 6, " ")


def save_map_csv(values, path) -> None:
    """Write a 2-D map as CSV, one line per row, values as ``%.10g`` (NaN
    spelled ``nan``).

    A 3-D stack of maps (or a list of 2-D maps of one shape) is written map
    after map, map k as rows ``k*rows`` to ``k*rows + rows - 1``: the file
    is the maps' one-map files concatenated.
    """
    maps = _real_maps(values, (2, 3), "each map must be 2-D and stacked maps must share one shape")
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, maps.reshape(-1, maps.shape[-1]), 10, ",")


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
