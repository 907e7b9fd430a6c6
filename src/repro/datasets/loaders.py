"""Loaders for ``<userID, itemID, rating>`` rating files (paper §IV-B).

Supports the delimiters the four corpora actually use (``::`` for
MovieLens, tab for Yahoo! Music, comma for preprocessed Netflix) with
auto-detection, and compacts arbitrary integer IDs to dense 0-based
indices, returning the mapping so predictions can be translated back.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import COOMatrix

__all__ = ["RatingFile", "iter_rating_file", "load_ratings", "save_ratings"]

_DELIMITERS = ("::", "\t", ",", " ")

#: Lines parsed per emitted chunk.  At ~20 bytes per packed entry a
#: chunk costs ~5 MB — small next to any matrix worth streaming, large
#: enough that per-chunk overhead is noise.
DEFAULT_CHUNK_LINES = 1 << 18

#: Characters of text read and parsed per block (4 Mi, ~4 MB for an
#: ASCII file).  One block is the parser's working set; per-block Python
#: overhead is noise next to NumPy parsing it.
BLOCK_CHARS = 1 << 22

#: A line the parsers skip: blank, or first non-blank character ``#``.
#: (``\s`` is ``str.isspace``, the set ``str.strip`` removes.)
_SKIPPED_LINE = re.compile(r"^[^\S\n]*(?:#.*)?\n", re.MULTILINE)

_BLOCK_DTYPE = np.dtype([("user", np.int64), ("item", np.int64), ("rating", np.float64)])

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Smallest |rating| that rounds to ``inf`` in float32 (half an ulp
#: above ``float32`` max, which rounds up to 2**128).
_F32_OVERFLOW = 2.0**128 - 2.0**103

#: What a block's fast parse raises where NumPy reads its text
#: differently from :func:`_parse_lines`.  NumPy < 2 reads ``1.0`` into
#: an int column with only a ``DeprecationWarning``, which the parse
#: escalates.
_FAST_PARSE_ERRORS = (ValueError, DeprecationWarning)


@dataclass(frozen=True)
class RatingFile:
    """A loaded rating file plus its ID compaction maps."""

    ratings: COOMatrix
    user_ids: np.ndarray  # original ID of each compact row index
    item_ids: np.ndarray  # original ID of each compact column index

    @property
    def n_users(self) -> int:
        return int(self.user_ids.size)

    @property
    def n_items(self) -> int:
        return int(self.item_ids.size)


def _detect_delimiter(sample_line: str) -> str:
    for delim in _DELIMITERS:
        if delim in sample_line:
            return delim
    raise ValueError(f"cannot detect delimiter in line: {sample_line!r}")


def _parse_lines(path, lines, delimiter: str | None = None, lineno: int = 0):
    """The reference parser: one ``str`` line at a time.

    Returns packed ``(users, items, values)`` arrays for ``lines`` (the
    text after line ``lineno`` of ``path``).  :func:`iter_rating_file`
    runs it only on a block its fast parse rejected, and the tests hold
    the fast parse to it.  Every bad line raises ``ValueError`` naming
    ``path:line``: too few fields, an unparsable field, an ID outside
    int64, or a rating that is not finite in float32.
    """
    users: list[int] = []
    items: list[int] = []
    values: list[float] = []
    for lineno, line in enumerate(lines, lineno + 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if delimiter is None:
            delimiter = _detect_delimiter(line)
        # None-split collapses runs of blanks (and mixed tabs/spaces)
        # instead of yielding empty fields between repeated spaces.
        parts = line.split(None) if delimiter == " " else line.split(delimiter)
        if len(parts) < 3:
            raise ValueError(
                f"{path}:{lineno}: expected ≥3 fields separated by "
                f"{delimiter!r}, got {line!r}"
            )
        try:
            user, item, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not (_INT64_MIN <= user <= _INT64_MAX and _INT64_MIN <= item <= _INT64_MAX):
            raise ValueError(f"{path}:{lineno}: ID outside the int64 range in {line!r}")
        if not abs(value) < _F32_OVERFLOW:
            raise ValueError(f"{path}:{lineno}: non-finite rating in {line!r}")
        users.append(user)
        items.append(item)
        values.append(value)
    return (
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(values, dtype=np.float32),
    )


def _read_blocks(path):
    r"""The file's text in ~:data:`BLOCK_CHARS` pieces, each cut after
    its last line end (the rest carries into the next piece).

    Text mode with universal newlines, exactly as line iteration reads
    the file: ``\r\n`` and ``\r`` arrive as ``\n``, so every ``\n``
    in a block ends one line of the file.
    """
    carry = ""
    with open(path, "r", encoding="utf-8") as fh:
        while text := fh.read(BLOCK_CHARS):
            cut = text.rfind("\n") + 1
            if cut:
                yield carry + text[:cut]
                carry = text[cut:]
            else:
                carry += text
    if carry:
        yield carry + "\n"


def _block_delimiter(block: str) -> str | None:
    """The delimiter of ``block``'s first data line (``None``: none)."""
    pos = 0
    while skipped := _SKIPPED_LINE.match(block, pos):
        pos = skipped.end()
    if pos == len(block):
        return None
    return _detect_delimiter(block[pos : block.index("\n", pos)].strip())


def _parse_block(block: str, delimiter: str):
    """NumPy's C parser over one block.

    Returns what :func:`_parse_lines` would, or raises one of
    :data:`_FAST_PARSE_ERRORS`: every input the two read differently
    (``1_0``, unicode digits, IDs ≥ 2**63, a whitespace-only line under
    a non-space delimiter, a ``#`` inside a data line, a tab in a
    ``::`` file, …) makes NumPy raise, and a non-finite float32 rating
    raises here so the line-by-line re-scan can name its line.
    """
    if "#" in block:
        block = _SKIPPED_LINE.sub("", block)
    if delimiter == " ":
        sep = None  # NumPy splits on runs of whitespace, like str.split()
    elif len(delimiter) == 1:
        sep = delimiter
    else:
        # str.replace cuts at the same non-overlapping occurrences as
        # str.split; that holds for the fields only if no tab was there.
        if "\t" in block:
            raise ValueError("tab inside a multi-character-delimited block")
        block, sep = block.replace(delimiter, "\t"), "\t"
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        # A block of only skipped lines is simply empty.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(
            io.StringIO(block),
            dtype=_BLOCK_DTYPE,
            delimiter=sep,
            comments=None,
            usecols=(0, 1, 2),
            ndmin=1,
        )
    with np.errstate(over="ignore"):
        values = table["rating"].astype(np.float32)
    if not np.isfinite(values).all():
        raise ValueError("non-finite rating")
    return (
        np.ascontiguousarray(table["user"]),
        np.ascontiguousarray(table["item"]),
        values,
    )


def iter_rating_file(
    path: str | os.PathLike,
    delimiter: str | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
):
    """Stream a ``<user, item, rating>`` file as packed array chunks.

    Yields ``(users, items, values)`` tuples of ``int64``/``int64``/
    ``float32`` arrays, at most ``chunk_lines`` entries each.  IDs are
    the *original* (uncompacted) ones; compaction needs global knowledge
    and belongs to the consumer (:func:`load_ratings`, or the two-pass
    shard builder in :mod:`repro.datasets.shardio`).

    Line format: lines that are blank or whose first non-blank character
    is ``#`` are skipped — including a comment or blank *first* line,
    so delimiter detection always runs on the first data line.  CRLF
    line endings are stripped with the rest of the surrounding
    whitespace, and the space delimiter splits on *runs* of whitespace
    (aligned columns don't produce empty fields).  Extra fields (e.g.
    MovieLens timestamps) are ignored.  A line with fewer than three
    fields, an unparsable field, an ID outside int64 or a rating that is
    not finite in float32 raises ``ValueError`` naming ``path:line``.

    Block rule: the file is read in blocks of ~:data:`BLOCK_CHARS`
    characters cut at line ends, so peak memory is about one block,
    never the file.  Each block is parsed by NumPy's C parser
    (``np.loadtxt``), after dropping skipped lines if it holds a ``#``.
    Fallback rule: that parse either returns exactly what the
    line-at-a-time reference parser returns, or raises (see
    :func:`_parse_block`); on a raise the block is re-scanned line by
    line from its first line number, which returns the reference result
    or raises the ``path:line`` error.
    """
    if chunk_lines <= 0:
        raise ValueError("chunk_lines must be positive")
    lineno = 0  # lines of the file before the current block
    for block in _read_blocks(path):
        if delimiter is None:
            delimiter = _block_delimiter(block)
        if delimiter is not None:
            try:
                users, items, values = _parse_block(block, delimiter)
            except _FAST_PARSE_ERRORS:
                users, items, values = _parse_lines(
                    path, block.split("\n"), delimiter, lineno
                )
            for lo in range(0, users.size, chunk_lines):
                hi = lo + chunk_lines
                yield users[lo:hi], items[lo:hi], values[lo:hi]
        lineno += block.count("\n")


def load_ratings(path: str | os.PathLike, delimiter: str | None = None) -> RatingFile:
    """Parse a ``<user, item, rating>`` file into a compacted COO matrix.

    Streams the file through :func:`iter_rating_file` (see there for the
    line-format, block and fallback rules), so parsing holds one text
    block plus packed array chunks — ~20 bytes per entry — never the
    whole file's text or per-line Python objects.
    The assembled COO is the output and necessarily resides in RAM; for
    matrices too large for that, feed the chunks to the shard-store
    builder (:func:`repro.datasets.shardio.build_store_from_rating_file`)
    instead.
    """
    user_chunks: list[np.ndarray] = []
    item_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    for users, items, values in iter_rating_file(path, delimiter):
        user_chunks.append(users)
        item_chunks.append(items)
        value_chunks.append(values)
    if not user_chunks:
        raise ValueError(f"{path}: no ratings found")

    user_arr = np.concatenate(user_chunks)
    item_arr = np.concatenate(item_chunks)
    user_ids, rows = np.unique(user_arr, return_inverse=True)
    item_ids, cols = np.unique(item_arr, return_inverse=True)
    coo = COOMatrix(
        (user_ids.size, item_ids.size),
        rows,
        cols,
        np.concatenate(value_chunks),
    ).deduplicate()
    return RatingFile(coo, user_ids, item_ids)


def save_ratings(
    path: str | os.PathLike,
    ratings: COOMatrix,
    delimiter: str = "\t",
    user_ids: np.ndarray | None = None,
    item_ids: np.ndarray | None = None,
) -> None:
    """Write a COO matrix in the paper's ``<user, item, rating>`` format.

    Without ID maps the *compact* 0-based indices are written — fine for
    matrices built in memory, but a matrix that came from
    :func:`load_ratings` had its original IDs compacted away.  Pass the
    :class:`RatingFile` maps (``user_ids``/``item_ids``) to translate the
    compact indices back, making ``load → save → load`` round-trip the
    original IDs bit-exactly.
    """
    rows, cols = ratings.row, ratings.col
    if user_ids is not None:
        user_ids = np.asarray(user_ids)
        if user_ids.ndim != 1 or user_ids.size != ratings.shape[0]:
            raise ValueError(
                f"user_ids must be a 1-D map of length {ratings.shape[0]} "
                f"(one original ID per compact row), got shape {user_ids.shape}"
            )
        rows = user_ids[rows]
    if item_ids is not None:
        item_ids = np.asarray(item_ids)
        if item_ids.ndim != 1 or item_ids.size != ratings.shape[1]:
            raise ValueError(
                f"item_ids must be a 1-D map of length {ratings.shape[1]} "
                f"(one original ID per compact column), got shape {item_ids.shape}"
            )
        cols = item_ids[cols]
    # Each distinct rating (by bit pattern, so -0.0 keeps its sign) is
    # formatted once; lines are joined and written one chunk at a time.
    bits, label_of = np.unique(ratings.value.view(np.uint32), return_inverse=True)
    labels = np.array([f"{float(r):g}" for r in bits.view(np.float32)])
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, ratings.nnz, DEFAULT_CHUNK_LINES):
            hi = lo + DEFAULT_CHUNK_LINES
            fields = (
                rows[lo:hi].astype(np.int64).astype(str),
                cols[lo:hi].astype(np.int64).astype(str),
                labels[label_of[lo:hi]],
            )
            fh.write("\n".join(map(delimiter.join, zip(*fields))) + "\n")
