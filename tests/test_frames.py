"""Containers, the movie text format, and map export."""

import os
import warnings
from collections import OrderedDict

import numpy as np
import pytest

import _oracles
from _oracles import frames_equal, movies_equal
from lasr import frames as fr
from lasr import (
    DataError,
    Frame,
    FormatError,
    Movie,
    SessionLayout,
    load_movie,
    load_session,
    save_map_csv,
    save_map_image,
    save_movie,
    save_session,
)


def q6(a):
    """Quantize to the 6 significant digits the text format preserves."""
    return np.array([[float("%.6g" % v) for v in row] for row in np.atleast_2d(a)])


def rand_movie(rng, rows=4, cols=5, n=3, fps=2.0):
    return Movie(q6(rng.uniform(0.0, 9.0, (n * rows, cols))).reshape(n, rows, cols), fps=fps)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class TestFrame:
    def test_values_copied_and_readonly(self):
        raw = np.ones((2, 3))
        f = Frame(raw)
        raw[0, 0] = 7.0
        assert f.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0

    def test_rejects_negative_unless_signed(self):
        with pytest.raises(DataError):
            Frame(np.array([[1.0, -0.5]]))
        f = Frame(np.array([[1.0, -0.5]]), signed=True)
        assert f.values[0, 1] == -0.5

    def test_rejects_nonfinite_and_bad_shapes(self):
        with pytest.raises(DataError):
            Frame(np.array([[np.nan, 0.0]]))
        with pytest.raises(DataError):
            Frame(np.array([[np.inf, 0.0]]))
        with pytest.raises(DataError):
            Frame(np.zeros(4))
        with pytest.raises(DataError):
            Frame(np.zeros((0, 3)))

    def test_mask_must_match_shape_and_dtype(self):
        with pytest.raises(DataError):
            Frame(np.zeros((2, 2)), support_mask=np.zeros((2, 3), dtype=bool))
        with pytest.raises(DataError):
            Frame(np.zeros((2, 2)), support_mask=np.zeros((2, 2)))
        f = Frame(np.ones((2, 2)), support_mask=np.ones((2, 2), dtype=bool))
        assert f.support_mask.dtype == bool


class TestMovie:
    def test_basic_accessors(self):
        rng = np.random.default_rng(0)
        m = rand_movie(rng, n=4)
        assert len(m) == 4
        assert m.shape == (4, 5)
        assert np.array_equal(m[2].values, m.values[2])
        assert m.values.shape == (4, 4, 5)

    def test_takes_the_arrays_over_without_a_copy(self):
        stack, mask = np.ones((3, 2, 2)), np.ones((2, 2), dtype=bool)
        m = Movie(stack, mask, 5.0)
        assert m.values is stack and m.mask is mask and m.fps == 5.0
        for a in (stack, mask):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0

    def test_defaults_to_no_mask_at_two_fps(self):
        m = Movie(np.zeros((1, 2, 3)))
        assert m.mask is None and m.fps == 2.0 and type(m.fps) is float

    @pytest.mark.parametrize("values", [
        [[[1.0]]], np.ones((2, 2)), np.ones((1, 2, 2, 2)), np.ones((0, 2, 2)),
        np.ones((1, 2, 2), dtype=np.float32), np.ones((1, 2, 2), dtype=np.int64)])
    def test_rejects_values_that_are_not_a_nonempty_float64_stack(self, values):
        with pytest.raises(DataError, match="nonempty 3-D float64 ndarray"):
            Movie(values)

    @pytest.mark.parametrize("mask", [
        [[True, True], [True, True]], np.ones((2, 2), dtype=np.int64),
        np.ones((2, 3), dtype=bool), np.ones((1, 2, 2), dtype=bool)])
    def test_rejects_a_mask_that_is_not_a_boolean_grid_of_the_frame_shape(self, mask):
        with pytest.raises(DataError, match="support mask must be a boolean ndarray"):
            Movie(np.ones((1, 2, 2)), mask)

    def test_rejects_mixed_shapes_and_bad_fps(self):
        with pytest.raises(DataError, match="frame shape"):
            Movie(np.zeros((2, 2, 2)), np.ones((2, 3), dtype=bool))
        for fps in (0.0, "2"):
            with pytest.raises(DataError, match="fps"):
                Movie(np.zeros((1, 2, 2)), fps=fps)
        with pytest.raises(DataError, match="nonempty"):
            Movie(np.zeros((0, 2, 2)))

    def test_rejects_mixed_sign(self):
        # a movie is never signed: negative values fail as load_movie fails them
        for stack in (-np.ones((1, 2, 2)), np.stack([np.ones((2, 2)), -np.ones((2, 2))])):
            with pytest.raises(DataError, match="nonnegative"):
                Movie(stack, fps=1.0)

    def test_slice_shares_the_read_only_arrays(self):
        rng = np.random.default_rng(1)
        mask = rng.random((3, 4)) > 0.5
        m = Movie(q6(rng.uniform(0.0, 9.0, (15, 4))).reshape(5, 3, 4), mask, 4.0)
        part = m[1:4]
        assert isinstance(part, Movie) and len(part) == 3 and part.fps == 4.0
        assert np.shares_memory(m.values, part.values) and np.array_equal(part.values, m.values[1:4])
        assert part.mask is m.mask and np.array_equal(m.mask, mask)
        for a in (m.values, part.values, m.mask):
            assert not a.flags.writeable
        with pytest.raises(DataError):
            m[5:]

    def test_item_is_a_frame_of_the_arrays(self):
        rng = np.random.default_rng(2)
        mask = rng.random((4, 5)) > 0.5
        m = Movie(q6(rng.uniform(0.0, 9.0, (12, 5))).reshape(3, 4, 5), mask, 2.0)
        assert m.mask.shape == (4, 5) and not m.mask.flags.writeable
        for k in (0, 2, -1):
            f = m[k]
            assert isinstance(f, Frame) and not f.signed
            assert np.array_equal(f.values, m.values[k]) and np.array_equal(f.support_mask, m.mask)
            assert not f.support_mask.flags.writeable
        assert rand_movie(rng).mask is None and rand_movie(rng)[1].support_mask is None

    def test_index_past_the_end_raises_and_iteration_stops(self):
        m = rand_movie(np.random.default_rng(3), n=3)
        with pytest.raises(IndexError):
            m[3]
        assert [f.values.tolist() for f in m] == m.values.tolist()


# ---------------------------------------------------------------------------
# text format round trips
# ---------------------------------------------------------------------------


class TestMovieIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        m = rand_movie(rng, rows=6, cols=3, n=5, fps=12.5)
        p = tmp_path / "m.lasr"
        save_movie(m, p)
        m2 = load_movie(p)
        assert movies_equal(m, m2)
        assert m2.fps == 12.5

    def test_round_trip_single_frame_and_integers(self, tmp_path):
        m = Movie(np.array([[[0.0, 1.0], [250.0, 3.0]]]), fps=1.0)
        p = tmp_path / "one.lasr"
        save_movie(m, p)
        assert movies_equal(m, load_movie(p))

    def test_header_layout(self, tmp_path):
        m = Movie(np.array([[[1.5]]]), fps=2.0)
        p = tmp_path / "h.lasr"
        save_movie(m, p)
        first = p.read_text().splitlines()[0]
        assert first == "LASR1 1 1 1 2"

    @pytest.mark.parametrize("fps", [30000 / 1001, 1 / 3, 1e-5, 1e6, 2.0 ** -20, 2, 1e-320, 1e308,
                                     0, -1, float("nan"), float("inf")])
    def test_fps_round_trips_exactly(self, tmp_path, fps):
        """A movie takes only an fps its file can hold."""
        try:
            movie = Movie(np.array([[[1.5]]]), fps=fps)
        except DataError:
            assert not (np.isfinite(fps) and fps > 0)
            return
        p = tmp_path / "f.lasr"
        save_movie(movie, p)
        header = p.read_text().splitlines()[0]
        assert "e" not in header.lower()
        assert load_movie(p).fps == fps

    def test_blank_line_separates_frames(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rand_movie(rng, rows=2, cols=2, n=3)
        p = tmp_path / "b.lasr"
        save_movie(m, p)
        lines = p.read_text().split("\n")
        # header + (2 rows + separator) * 3 frames - final separator + newline
        assert lines[3] == "" and lines[6] == ""
        assert lines[1] != "" and lines[2] != ""

    def test_loaded_movie_and_frames_are_read_only(self, tmp_path):
        rng = np.random.default_rng(3)
        p = tmp_path / "m.lasr"
        save_movie(rand_movie(rng, rows=3, cols=4, n=3), p)
        m = load_movie(p)
        for f in m:
            assert not f.values.flags.writeable and f.support_mask is None
            with pytest.raises(ValueError):
                f.values[0, 0] = 1.0
        assert not m.values.flags.writeable and m.mask is None

    def test_non_ascii_file_names_the_file(self, tmp_path):
        p = tmp_path / "u.lasr"
        p.write_bytes(b"LASR1 1 1 1 2\n\xc3")
        with pytest.raises(FormatError) as err:
            load_movie(p)
        assert str(err.value) == f"{p}: not ASCII text"


def write(tmp_path, text):
    p = tmp_path / "bad.lasr"
    p.write_text(text)
    return p


GOOD = "LASR1 2 2 2 1\n1 2\n3 4\n\n5 6\n7 8\n"


class TestParserErrors:
    def test_good_template_parses(self, tmp_path):
        m = load_movie(write(tmp_path, GOOD))
        assert m[1].values.tolist() == [[5.0, 6.0], [7.0, 8.0]]

    @pytest.mark.parametrize(
        "text,line,needle",
        [
            ("", 1, "empty file"),
            ("PRES1 2 2 2 1\n1 2\n3 4\n", 1, "expected 'LASR1"),
            ("LASR1 2 2 1\n1 2\n3 4\n", 1, "expected 'LASR1"),
            ("LASR1 2 x 2 1\n", 1, "numeric"),
            ("LASR1 2 0 2 1\n", 1, "positive"),
            ("LASR1 2 2 2 0\n", 1, "fps"),
            ("LASR1 2 2 2 1\n1 2\n3\n\n5 6\n7 8\n", 3, "expected 2 values, got 1"),
            ("LASR1 2 2 2 1\n1 2\n3 4 9\n\n5 6\n7 8\n", 3, "expected 2 values, got 3"),
            ("LASR1 2 2 2 1\n1 2\n3 oops\n\n5 6\n7 8\n", 3, "non-numeric"),
            ("LASR1 2 2 2 1\n1 2\n3 nan\n\n5 6\n7 8\n", 3, "non-finite"),
            ("LASR1 2 2 2 1\n1 2\n3 -4\n\n5 6\n7 8\n", 3, "negative"),
            ("LASR1 2 2 2 1\n1 2\n3 4\n5 6\n7 8\n", 4, "blank line"),
            ("LASR1 2 2 2 1\n1 2\n3 4\n", 4, "blank line"),
            ("LASR1 2 2 2 1\n1 2\n3 4\n\n5 6\n", 6, "end of file in frame 1"),
            (GOOD + "9 9\n", 7, "trailing content"),
            (GOOD + "\n\n", 7, "trailing content"),
            # the header's sizes alone allocate nothing
            ("LASR1 100000000 100000000 1 2\n", 2, "end of file in frame 0"),
            ("LASR1 100000000 2 1 2\n1 2\n3 4\n", 4, "end of file in frame 0"),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, line, needle):
        with pytest.raises(FormatError) as err:
            load_movie(write(tmp_path, text))
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}:")
        assert needle in str(err.value)

    def test_no_partial_movie_on_error(self, tmp_path):
        # second frame malformed: nothing from the first frame escapes
        p = write(tmp_path, "LASR1 2 2 2 1\n1 2\n3 4\n\n5 6\nbroken!\n")
        with pytest.raises(FormatError):
            load_movie(p)


# every value of these kinds must come out of the one-format-per-frame
# writers exactly as out of the per-value reference writers
FORMAT_PROBES = [0.0, -0.0, 1.0, 7.0, 250.0, 1e-300, 1e300, 5e-324,
                 1.2345649999, 1.2345650001, 0.99999951, 999999.5, 1234567.0,
                 1.234567890449, 1.234567890551, 9.9999999995, 1e-5, 0.5, 0.125]


def probe_grid(rng, rows, cols, probes=FORMAT_PROBES, start=0):
    """A rows x cols grid of the probe values from ``start`` on, then random ones."""
    n = rows * cols
    head = np.roll(np.asarray(probes, dtype=float), -start)[:n]
    tail = rng.uniform(0.0, 9.0, n - head.size) * 10.0 ** rng.integers(-3, 4, n - head.size)
    return np.concatenate([head, tail]).reshape(rows, cols)


def starts(shape, probes):
    """Probe offsets that together put every probe into a grid of ``shape``."""
    return range(0, len(probes), shape[0] * shape[1])


GRID_SHAPES = [(1, 1), (1, 7), (7, 1), (38, 41)]
CSV_PROBES = [np.nan, -3.5, -1e300, -0.0, -1.2345650001] + FORMAT_PROBES
UNIT_PROBES = [0.0, -0.0, 1.0, 0.5, 1 / 510, 0.5 / 255, 1.5 / 255, 1e-300, 0.99999]


class TestWritersMatchReference:
    @pytest.mark.parametrize("shape", GRID_SHAPES)
    @pytest.mark.parametrize("n", [1, 4])
    def test_save_movie(self, tmp_path, shape, n):
        rng = np.random.default_rng(n * 100 + shape[1])
        for s0 in starts(shape, FORMAT_PROBES):
            stack = np.stack([probe_grid(rng, *shape, start=s0 + k * shape[0] * shape[1])
                              for k in range(n)])
            save_movie(Movie(stack, fps=12.5), tmp_path / "new.lasr")
            _oracles.save_movie_reference(stack, 12.5, tmp_path / "ref.lasr")
            assert (tmp_path / "new.lasr").read_bytes() == (tmp_path / "ref.lasr").read_bytes()

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_save_map_csv(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for s0 in starts(shape, CSV_PROBES):
            v = probe_grid(rng, *shape, probes=CSV_PROBES, start=s0)
            if v.size > len(CSV_PROBES):
                v[rng.random(shape) < 0.2] = np.nan  # off-mask pixels of a t-map
            save_map_csv(v, tmp_path / "new.csv")
            _oracles.save_map_csv_reference(v, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    @pytest.mark.parametrize("scale", ["unit-interval", "max-normalized"])
    def test_save_map_image(self, tmp_path, shape, scale):
        """``max-normalized``: the format probes divided by their maximum, as
        a caller brings a nonnegative map into [0, 1]."""
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        probes = UNIT_PROBES if scale == "unit-interval" else FORMAT_PROBES
        for s0 in starts(shape, probes):
            v = probe_grid(rng, *shape, probes=probes, start=s0)
            if scale == "unit-interval":
                v = np.where(v > 1.0, rng.random(shape), v)
            elif v.max() > 0:
                v = v / v.max()
            save_map_image(v, tmp_path / "new.pgm")
            _oracles.save_map_image_reference(v, tmp_path / "ref.pgm")
            assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def same_as_reference(tmp_path, kind, v):
    """Write ``v`` with the writer of ``kind`` twice (the second write takes
    the template path) and compare each write with the reference writer."""
    new, ref = tmp_path / f"new.{kind}", tmp_path / f"ref.{kind}"
    if kind == "lasr":
        writer = lambda g, p: save_movie(Movie(g, fps=2.0), p)
        reference = lambda g, p: _oracles.save_movie_reference(g, 2.0, p)
    elif kind == "csv":
        writer, reference = save_map_csv, _oracles.save_map_csv_reference
    else:
        writer, reference = save_map_image, _oracles.save_map_image_reference
    reference(v, ref)
    for _ in range(2):
        writer(v, new)
        assert new.read_bytes() == ref.read_bytes()


def masked_grid(rng, mask, fill=0.0, shape=(6, 7)):
    """Random values where ``mask`` holds, ``fill`` elsewhere."""
    return np.where(mask, rng.uniform(0.5, 9.0, shape), fill)


class TestWriterTemplates:
    """The writers' repeated-pattern templates give the per-value reference
    writers' bytes; every grid is written at least twice."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(fr, "_templates", OrderedDict())

    def built(self):
        return sum(isinstance(t, str) for t in fr._templates.values())

    def test_patterns_change_within_one_movie(self, tmp_path):
        rng = np.random.default_rng(1)
        masks = [rng.random((6, 7)) < 0.5 for _ in range(3)]
        order = [0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 1]
        stack = np.stack([masked_grid(rng, masks[i]) for i in order])
        same_as_reference(tmp_path, "lasr", stack)
        assert self.built() == 3

    def test_negative_zero_where_the_cached_pattern_had_positive_zero(self, tmp_path):
        rng = np.random.default_rng(2)
        v = masked_grid(rng, rng.random((6, 7)) < 0.5)
        w = v.copy()
        w.flat[np.flatnonzero(v == 0)[[0, -1]]] = -0.0
        same_as_reference(tmp_path, "csv", v)
        same_as_reference(tmp_path, "csv", w)
        same_as_reference(tmp_path, "lasr", np.stack([v, v, w, v, w]))
        assert self.built() == 4

    def test_nan_and_zero_swapped_at_one_position(self, tmp_path):
        rng = np.random.default_rng(3)
        v = masked_grid(rng, rng.random((6, 7)) < 0.5, fill=np.nan)
        v[0, 0], v[0, 1] = 0.0, np.nan
        swapped = v.copy()
        swapped[0, 0], swapped[0, 1] = np.nan, 0.0
        no_nan = v.copy()
        no_nan[0, 1] = 4.25  # same zero positions, one NaN fewer
        for g in (v, swapped, v, no_nan, v, swapped):
            same_as_reference(tmp_path, "csv", g)
        assert self.built() == 3

    def test_all_zero_maps(self, tmp_path):
        for shape in GRID_SHAPES:
            z = np.zeros(shape)
            same_as_reference(tmp_path, "csv", z)
            same_as_reference(tmp_path, "pgm", z)
            same_as_reference(tmp_path, "lasr", np.stack([z, z, z]))

    def test_shape_is_part_of_the_pattern(self, tmp_path):
        for shape in [(2, 3), (3, 2), (1, 6), (6, 1)]:
            z = np.zeros(shape)
            same_as_reference(tmp_path, "csv", z)
            same_as_reference(tmp_path, "lasr", np.stack([z, z]))

    def test_pgm_zero_pixels(self, tmp_path):
        rng = np.random.default_rng(4)
        mask = rng.random((6, 7)) < 0.4
        for _ in range(3):
            # exact zeros and values below half a grey level both become pixel 0
            v = np.where(mask, rng.uniform(1 / 255, 1.0, mask.shape),
                         rng.choice([0.0, -0.0, 1e-300, 0.99 / 510], mask.shape))
            same_as_reference(tmp_path, "pgm", v)
        assert self.built() >= 1

    def test_pattern_seen_again_after_eviction(self, tmp_path):
        rng = np.random.default_rng(5)
        v = masked_grid(rng, rng.random((6, 7)) < 0.5, fill=np.nan)
        same_as_reference(tmp_path, "csv", v)
        first = set(fr._templates)
        for k in range(fr._TEMPLATE_SLOTS):
            other = v.copy()
            other.flat[k] = 0.0 if np.isnan(other.flat[k]) else np.nan
            same_as_reference(tmp_path, "csv", other)
        assert not first & set(fr._templates)
        assert len(fr._templates) == fr._TEMPLATE_SLOTS
        v = np.where(np.isnan(v), v, v + 1.0)
        same_as_reference(tmp_path, "csv", v)
        assert first <= set(fr._templates)

    def test_patterns_that_never_repeat_stay_bounded(self, tmp_path):
        rng = np.random.default_rng(6)
        stack = np.where(rng.random((40, 6, 7)) < 0.3, 0.0, rng.uniform(0.5, 9.0, (40, 6, 7)))
        same_as_reference(tmp_path, "lasr", stack)
        assert len(fr._templates) == fr._TEMPLATE_SLOTS


def body(*frames, sep="\n", eol="\n"):
    """Movie text from frames given as lists of row strings."""
    blocks = [eol.join(rows) for rows in frames]
    return (eol + sep + eol).join(blocks) + eol


HEAD = "LASR1 2 3 2 2.5\n"
F1 = ["1 2 3", "4 5 6"]
F2 = ["7 8 9", "10 11 12"]
LONG = "LASR1 3 4 6 1\n" + body(*[[" ".join(str(k * 12 + r * 4 + c) for c in range(4))
                                  for r in range(3)] for k in range(6)], sep="")


def last_frame_broken(token):
    lines = LONG.split("\n")
    lines[-2] = lines[-2].rsplit(" ", 1)[0] + " " + token
    return "\n".join(lines)


# The reader opens files in text mode, so "\r\n" and a lone "\r" end a line;
# read_text hands the reference the same lines.
WELL_FORMED = {
    "plain": HEAD + body(F1, F2, sep=""),
    "spaces-separator": HEAD + body(F1, F2, sep="   "),
    "tab-separator": HEAD + body(F1, F2, sep="\t \t"),
    "cr-separator": HEAD + body(F1, F2, sep="\r"),
    "tab-values": HEAD + body(["1\t2\t3", "4 \t5\t\t6"], F2, sep=""),
    "crlf": HEAD.replace("\n", "\r\n") + body(F1, F2, sep="", eol="\r\n"),
    "padded-rows": HEAD + body(["  1 2 3  ", "\t4 5 6"], F2, sep=""),
    # odd token forms numpy's C reader takes; ``1_0``, which it refuses, goes
    # to the walker (TestCReader::test_float_tier_takes_tokens_numpy_refuses)
    "tokens": HEAD + body(["+1 1e3 .5", "5. 1.e1 -0"], ["0 -0.0 1E-3", "+.5 00 10.50"], sep=""),
    "no-final-newline": (HEAD + body(F1, F2, sep=""))[:-1],
    "long": LONG,
}

MALFORMED = {
    "cr-space-separator": HEAD + body(F1, F2, sep=" \r "),
    "bad-tokens": HEAD + body(["+1 1e3 .5", "5. 1_0 -0"], ["0 -0.0 1E-3", "+.5 0x1 1__0"], sep=""),
    "last-frame-nan": last_frame_broken("nan"),
    "last-frame-negative": last_frame_broken("-2"),
    "last-frame-word": last_frame_broken("x1"),
    "last-frame-short": last_frame_broken(""),
    "last-frame-long": last_frame_broken("1 2"),
    "last-frame-inf": last_frame_broken("1e999"),
    "missing-separator": HEAD + "\n".join(F1 + F2) + "\n",
    "separator-not-blank": HEAD + body(F1, F2, sep=" . "),
    "truncated": HEAD + body(F1, F2[:1], sep=""),
    "trailing-blank": HEAD + body(F1, F2, sep="") + "\n",
    "trailing-row": HEAD + body(F1, F2, sep="") + "1 2 3\n",
    "two-trailing-newlines": LONG + "\n\n",
    "blank-row": HEAD + body(F1, ["", "10 11 12"], sep=""),
    "token-moved-to-next-row": HEAD + body(F1, ["7 8 9 10", "11 12"], sep=""),
    "all-blank-body": "LASR1 2 3 1 2\n\n\n",
    "blank-first-row": HEAD + body(["", "4 5 6"], F2, sep=""),
}


class TestParserMatchesReference:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_same_movie_without_the_line_walker(self, tmp_path, monkeypatch, name):
        def walker(*args):
            raise AssertionError("line walker used on a well-formed file")

        p = tmp_path / "m.lasr"
        p.write_bytes(WELL_FORMED[name].encode("ascii"))
        ref_stack, ref_fps = _oracles.parse_reference(p.read_text(encoding="ascii"))
        monkeypatch.setattr(fr, "_parse_walk", walker)
        movie = load_movie(p)
        assert movie.fps == ref_fps
        assert movie.values.tobytes() == ref_stack.tobytes()  # -0.0 keeps its sign

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_same_error(self, tmp_path, name):
        p = tmp_path / "m.lasr"
        p.write_bytes(MALFORMED[name].encode("ascii"))
        with pytest.raises(_oracles.ParseError) as ref:
            _oracles.parse_reference(p.read_text(encoding="ascii"))
        with pytest.raises(FormatError) as err:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no reader tier may warn instead
                load_movie(p)
        assert err.value.line == ref.value.line
        assert str(err.value) == str(ref.value)


# Tokens for the C-reader fuzz: what numpy and ``float`` might read apart.
ODD_TOKENS = ["-0", "+.5", "5.", "00", "1_0", "1_0.5", "0x10", "inf", "nan", "-inf", "+nan",
              "Infinity", "-0.0", "0e0", "+0", "1e", ".", "e5", "1__0", "_1", "1_", "--1",
              "1..2", "1e+", ".e1", "1e5.0", "0b1", "1j", "1,5", "١"]


def fuzz_token(rng):
    kind = int(rng.integers(0, 6))
    if kind == 0:  # the shortest repr of a double
        return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
    if kind == 1:  # a decimal of 1-40 digits
        digits = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 41))))
        cut = int(rng.integers(0, len(digits) + 1))
        return digits if rng.random() < 0.3 else digits[:cut] + "." + digits[cut:]
    if kind == 2:  # an exponent up to +-330
        mant = "%d.%d" % (rng.integers(0, 100), rng.integers(0, 10 ** 6))
        return "%s%s%d" % (mant, rng.choice(["e", "E", "e+", "e-"]), rng.integers(0, 331))
    if kind == 3:  # a subnormal
        return repr(float(rng.uniform(0.0, 1.0) * 2.2250738585072014e-308))
    return ODD_TOKENS[int(rng.integers(0, len(ODD_TOKENS)))]


class TestCReader:
    """numpy's C reader returns exactly ``float``'s values or defers."""

    def test_fuzzed_lines_read_as_float_reads_them(self):
        rng = np.random.default_rng(2024)
        deferred = 0
        for _ in range(20000):
            tokens = [fuzz_token(rng) for _ in range(int(rng.integers(1, 7)))]
            line = rng.choice([" ", "\t", "  "]).join(tokens)
            try:
                want = np.array([float(t) for t in tokens])
            except ValueError:
                want = None
            got = fr._parse_c(["LASR1 1 %d 1 1" % len(tokens), line], 1, len(tokens), 1)
            if got is None:
                deferred += 1
            else:
                assert want is not None, line  # never accepts what float rejects
                assert got.tobytes() == want.tobytes(), line
        assert 0 < deferred < 20000

    def test_float_tier_takes_tokens_numpy_refuses(self, tmp_path):
        """numpy's C reader refuses ``1_0``; the line walker reads it as
        ``float`` does, byte for byte equal to the reference parser."""
        p = tmp_path / "m.lasr"
        p.write_text("LASR1 1 3 1 1\n1_0 2 3\n")
        assert fr._parse_c(p.read_text().split("\n")[:2], 1, 3, 1) is None
        assert load_movie(p)[0].values.tolist() == [[10.0, 2.0, 3.0]]
        p.write_text(HEAD + body(["+1 1e3 .5", "5. 1_0 -0"], ["0 -0.0 1E-3", "+.5 00 1_0.5"], sep=""))
        text = p.read_text(encoding="ascii")
        assert fr._parse_c(text.split("\n")[:-1], 2, 3, 2) is None
        ref_stack, ref_fps = _oracles.parse_reference(text)
        movie = load_movie(p)
        assert movie.fps == ref_fps
        assert movie.values.tobytes() == ref_stack.tobytes()


# ---------------------------------------------------------------------------
# map export
# ---------------------------------------------------------------------------


class TestMapImage:
    def read_pgm(self, path):
        tok = path.read_text().split()
        assert tok[0] == "P2"
        cols, rows, maxval = int(tok[1]), int(tok[2]), int(tok[3])
        pix = np.array([int(t) for t in tok[4:]]).reshape(rows, cols)
        return pix, maxval

    def test_unit_interval_rounding(self, tmp_path):
        vals = np.array([[0.0, 0.999, 1.0], [0.5, 0.001, 0.25]])
        p = tmp_path / "m.pgm"
        save_map_image(vals, p)
        pix, maxval = self.read_pgm(p)
        assert maxval == 255
        assert pix.tolist() == [[0, 255, 255], [128, 0, 64]]

    def test_unit_interval_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DataError):
            save_map_image(np.array([[1.2]]), tmp_path / "m.pgm")
        with pytest.raises(DataError):
            save_map_image(np.array([[-0.1]]), tmp_path / "m.pgm")

    def test_all_zero_stays_zero(self, tmp_path):
        p = tmp_path / "m.pgm"
        save_map_image(np.zeros((2, 2)), p)
        pix, _ = self.read_pgm(p)
        assert pix.tolist() == [[0, 0], [0, 0]]

    def test_accepts_frame_input(self, tmp_path):
        f = Frame(np.array([[0.5]]))
        save_map_image(f, tmp_path / "m.pgm")
        pix, _ = self.read_pgm(tmp_path / "m.pgm")
        assert pix.tolist() == [[128]]


class TestMapCsv:
    def test_round_trip_with_nans(self, tmp_path):
        vals = np.array([[1.0, np.nan], [0.125, -3.5]])
        p = tmp_path / "m.csv"
        save_map_csv(vals, p)
        back = np.loadtxt(p, delimiter=",")
        assert back[0, 0] == 1.0 and back[1, 0] == 0.125 and back[1, 1] == -3.5
        assert np.isnan(back[0, 1])

    def test_one_line_per_row(self, tmp_path):
        p = tmp_path / "m.csv"
        save_map_csv(np.zeros((3, 4)), p)
        lines = [ln for ln in p.read_text().splitlines() if ln]
        assert len(lines) == 3
        assert all(ln.count(",") == 3 for ln in lines)

    def test_a_list_of_maps_is_their_files_concatenated(self, tmp_path):
        rng = np.random.default_rng(4)
        maps = []
        for k in range(5):  # repeated zero/NaN patterns take the template path
            v = np.where(rng.random((4, 6)) < 0.3, 0.0, rng.normal(0.0, 3.0, (4, 6)))
            v[:, 0] = np.nan
            maps.append(v if k != 2 else v.tolist())
        one = []
        for k, v in enumerate(maps):
            save_map_csv(v, tmp_path / f"{k}.csv")
            one.append((tmp_path / f"{k}.csv").read_bytes())
        save_map_csv(maps, tmp_path / "all.csv")
        assert (tmp_path / "all.csv").read_bytes() == b"".join(one)
        back = np.loadtxt(tmp_path / "all.csv", delimiter=",")
        assert back.shape == (20, 6)
        assert np.array_equal(back[8:12], np.loadtxt(tmp_path / "2.csv", delimiter=","), equal_nan=True)

    def test_stacked_maps_must_share_one_shape(self, tmp_path):
        p = tmp_path / "m.csv"
        with pytest.raises(DataError, match="share one shape"):
            save_map_csv([np.zeros((3, 4)), np.zeros((4, 3))], p)
        with pytest.raises(DataError, match="map must be 2-D"):
            save_map_csv([np.zeros((3, 4)), np.zeros(12)], p)
        assert not p.exists()


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


class TestSession:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        layout = SessionLayout(
            segments=(
                ("NoStim", rand_movie(rng, n=2)),
                ("Stim", rand_movie(rng, n=3)),
                ("NoStim", rand_movie(rng, n=2)),
            ),
            session_id="s9",
            subject_id="subj1",
        )
        d = tmp_path / "sess"
        save_session(layout, d)
        back = load_session(str(d))
        assert back.session_id == "s9"
        assert back.subject_id == "subj1"
        assert [t for t, _ in back.segments] == ["NoStim", "Stim", "NoStim"]
        for (_, a), (_, b) in zip(layout.segments, back.segments):
            assert movies_equal(a, b)

    def test_bad_tag_rejected(self):
        m = Movie(np.zeros((1, 2, 2)), fps=1.0)
        with pytest.raises(DataError):
            SessionLayout(segments=(("Warmup", m),), session_id="x")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_session(str(tmp_path / "nope"))

    @pytest.mark.parametrize("text,message", [
        ("a = 1\n\nb = 2\na = 3\n", "line 4: key 'a' given twice"),
        ("a = 1\nbroken\n", "line 2: expected 'key = value'"),
        ("a = caf\u00e9\n", "not ASCII text"),
    ])
    def test_key_value_errors_name_the_file(self, tmp_path, text, message):
        p = tmp_path / "kv.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            fr._read_kv(p)
        assert str(err.value) == f"{p}: {message}"


class TestEquality:
    def test_frames_equal_requires_exact_match(self):
        a = Frame(np.array([[1.0, 2.0]]))
        b = Frame(np.array([[1.0, 2.0 + 1e-12]]))
        assert frames_equal(a, a)
        assert not frames_equal(a, b)

    def test_mask_participates(self):
        v = np.array([[1.0, 2.0]])
        a = Frame(v, support_mask=np.array([[True, False]]))
        b = Frame(v, support_mask=np.array([[True, True]]))
        assert not frames_equal(a, b)
