"""Block ingest: NumPy's parser over whole blocks ≡ the per-line reference.

``iter_rating_file`` parses each block of text with ``np.loadtxt`` and
re-scans a block line by line only when that parse raises.  The
contract is that the fast parse never *disagrees* with the reference
``_parse_lines``: on any file, both give bitwise-equal arrays, or both
raise the same exception type naming the same line.  The generated
files mix every delimiter, comments, blank and whitespace-only lines,
CRLF / CR endings, trailing fields, signs, ``_``, ``:`` and ``#``
inside fields, huge IDs, non-finite ratings and malformed lines, and
run with tiny blocks so that blocks split mid-file and mid-chunk.
"""

from __future__ import annotations

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import loaders
from repro.datasets.loaders import iter_rating_file, load_ratings, save_ratings
from repro.datasets.shardio import build_store_from_rating_file
from repro.sparse import COOMatrix

_DELIMITERS = ("::", "\t", ",", " ")
# ASCII and unicode str.isspace() characters, plus U+200B, which is not one.
_BLANKS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u200b")
_ODD_IDS = (
    "+7", "-3", "007", "1_0", "1.0", "1e3", "", "x", "#5", "1:2", "1\t5", "\u0663", " 4 ",
    "\xa05", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "18446744073709551616",
)
_ODD_VALUES = (
    "nan", "-inf", "Infinity", "1e39", "-1e39", "3.4028235e38", "1e400",
    "1_0.5", ".5", "5.", "+2", "-0", "3#", "1:5", "0x10", "", "abc", " 4 ",
    "4\xa0", "\u0663",
)

_ids = st.integers(-5, 10**6).map(str)
_values = st.one_of(
    st.integers(0, 10).map(lambda h: f"{h / 2:g}"),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
)


def _sep(delimiter):
    if delimiter == " ":
        return st.text(alphabet=" \t", min_size=1, max_size=3)
    return st.just(delimiter)


@st.composite
def _line(draw, delimiter):
    kind = draw(st.sampled_from(["data"] * 6 + ["odd", "comment", "blank", "junk"]))
    if kind == "comment":
        return draw(st.text(alphabet=" \t", max_size=2)) + "#" + draw(
            st.text(alphabet="ab,:\t #1", max_size=8)
        )
    if kind == "blank":
        return "".join(draw(st.lists(st.sampled_from(_BLANKS), max_size=3)))
    if kind == "junk":
        return draw(st.text(alphabet="0123456789 \t,:#.-+xe_", max_size=12))
    odd = kind == "odd"
    fields = [
        draw(st.one_of(_ids, st.sampled_from(_ODD_IDS)) if odd else _ids),
        draw(st.one_of(_ids, st.sampled_from(_ODD_IDS)) if odd else _ids),
        draw(st.one_of(_values, st.sampled_from(_ODD_VALUES)) if odd else _values),
    ]
    fields += draw(st.lists(st.sampled_from(["978300760", "#tail", "x", ""]), max_size=2))
    line = fields[0]
    for field in fields[1:]:
        line += draw(_sep(delimiter)) + field
    pad = st.sampled_from(("", " ", "\t", "\xa0"))
    return draw(pad) + line + draw(pad)


@st.composite
def rating_files(draw):
    delimiter = draw(st.sampled_from(_DELIMITERS))
    lines = draw(st.lists(_line(delimiter), max_size=14))
    text = "".join(
        line + draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])) for line in lines
    )
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    passed = draw(st.sampled_from([None, delimiter]))
    return text, passed


def _outcome(path, parse):
    """Chunks, or ``(exception type, line number named or None)``."""
    try:
        return list(parse())
    except Exception as exc:  # every failure must match the reference's
        named = re.match(re.escape(str(path)) + r":(\d+):", str(exc))
        return type(exc), named and int(named.group(1))


def _reference(path, delimiter):
    with open(path, "r", encoding="utf-8") as fh:
        return [loaders._parse_lines(path, fh, delimiter)]


def _assert_agrees(path, delimiter, chunk_lines, block_chars):
    with mock.patch.object(loaders, "BLOCK_CHARS", block_chars):
        fast = _outcome(path, lambda: iter_rating_file(path, delimiter, chunk_lines))
    ref = _outcome(path, lambda: _reference(path, delimiter))
    if isinstance(ref, tuple) or isinstance(fast, tuple):
        assert fast == ref
        return
    assert all(0 < chunk[0].size <= chunk_lines for chunk in fast)
    for k, dtype in enumerate((np.int64, np.int64, np.float32)):
        got = np.concatenate([chunk[k] for chunk in fast] + [ref[0][k][:0]])
        assert got.dtype == dtype
        assert got.tobytes() == ref[0][k].tobytes()


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    file=rating_files(),
    chunk_lines=st.integers(1, 5),
    block_chars=st.integers(1, 48),
)
def test_fast_path_matches_per_line_reference(tmp_path, file, chunk_lines, block_chars):
    text, delimiter = file
    path = tmp_path / "r.dat"
    path.write_bytes(text.encode("utf-8"))
    _assert_agrees(path, delimiter, chunk_lines, block_chars)


@pytest.mark.parametrize(
    "text, delimiter",
    [
        ("1::10::4\n1:x:2:y:3\n", None),  # ':' splitting would accept it
        ("1::10::4\n1\t5::20::3\n", None),  # a tab in a '::' block
        ("1\t10\t4\n1_0\t2\t3\n", None),
        ("1\t10\t4\n \t \n2\t20\t3\n", None),  # whitespace-only line
        ("1,10,4\n9223372036854775808,2,3\n", None),
        ("1 10 4\n2 20 nan\n", None),
        ("1\t10\t1e39\n", None),
        ("1\t10\t4\r2\t20\t3\r\n3\t30\t2", None),
        ("1\t10\t4\t#note\n2\t20\t3#x\n", None),
        ("# a\n#b\n\n", None),
        ("1;10;4\n2;20;3\n", ";"),
        ("1||10||4\n2||20||3\n", "||"),
    ],
)
@pytest.mark.parametrize("block_chars", [1, 7, 1 << 22])
def test_pinned_cases_match_reference(tmp_path, text, delimiter, block_chars):
    path = tmp_path / "r.dat"
    path.write_text(text)
    _assert_agrees(path, delimiter, 2, block_chars)


def test_clean_blocks_never_reach_the_rescan(tmp_path):
    path = tmp_path / "r.dat"
    path.write_text("# header\n\n" + "".join(f"{u}\t{u % 7}\t{u % 5}.5\n" for u in range(500)))
    with mock.patch.object(loaders, "BLOCK_CHARS", 256), mock.patch.object(
        loaders, "_parse_lines", side_effect=AssertionError("re-scanned")
    ):
        users = np.concatenate([u for u, _, _ in iter_rating_file(path)])
    np.testing.assert_array_equal(users, np.arange(500))


def test_deprecation_warning_counts_as_a_raise(tmp_path, monkeypatch):
    # NumPy < 2 reads "1.0" into an int column with only this warning.
    path = tmp_path / "r.dat"
    path.write_text("1\t10\t4\n2\t20\t3\n")
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        table["user"] += 100  # what the fast parse would wrongly keep
        return table

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    (users, _, _), = iter_rating_file(path)
    np.testing.assert_array_equal(users, [1, 2])


class TestNonFiniteRatings:
    """A NaN/inf rating fails at its line, for both consumers."""

    def _file(self, tmp_path, rating):
        path = tmp_path / "r.tsv"
        path.write_text(f"1\t1\t4\n2\t1\t{rating}\n2\t2\t3\n")
        return path

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf", "1e39"])
    def test_load_ratings_names_the_line(self, tmp_path, rating):
        with pytest.raises(ValueError, match=r"r\.tsv:2: non-finite rating"):
            load_ratings(self._file(tmp_path, rating))

    @pytest.mark.parametrize("rating", ["nan", "inf"])
    def test_shard_store_build_names_the_line(self, tmp_path, rating):
        with pytest.raises(ValueError, match=r"r\.tsv:2: non-finite rating"):
            build_store_from_rating_file(tmp_path / "store", self._file(tmp_path, rating))


def _reference_save(path, rows, cols, values, delimiter):
    """The one-write-per-rating writer ``save_ratings`` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, r in zip(rows, cols, values):
            fh.write(f"{int(u)}{delimiter}{int(i)}{delimiter}{float(r):g}\n")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    data=st.data(),
    delimiter=st.sampled_from(_DELIMITERS),
    with_maps=st.booleans(),
)
def test_save_ratings_is_byte_identical_to_per_rating_writes(
    tmp_path, m, n, data, delimiter, with_maps
):
    nnz = data.draw(st.integers(0, 30))
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz))
    cols = data.draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    values = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=nnz,
            max_size=nnz,
        )
    )
    coo = COOMatrix((m, n), rows, cols, np.array(values, dtype=np.float32))
    user_ids = item_ids = None
    if with_maps:
        ids = st.integers(-(1 << 63), (1 << 63) - 1)
        user_ids = np.array(data.draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
        item_ids = np.array(data.draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64)
    save_ratings(tmp_path / "new.dat", coo, delimiter, user_ids, item_ids)
    _reference_save(
        tmp_path / "old.dat",
        coo.row if user_ids is None else user_ids[coo.row],
        coo.col if item_ids is None else item_ids[coo.col],
        coo.value,
        delimiter,
    )
    assert (tmp_path / "new.dat").read_bytes() == (tmp_path / "old.dat").read_bytes()
