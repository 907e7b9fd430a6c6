"""The row splice: ``replace_rows(*merged_rows(u))`` ≡ ``from_coo(R ∪ u)``.

A rating update merges its entries into the rows it touches and copies
every other row through (``CSRMatrix.merged_rows`` + ``replace_rows``).
The reference is the full rebuild it replaces: ``from_coo`` over the
matrix's entries followed by the update's, last write wins.  The
generated cases cover repeats inside one update, overwrites of stored
ratings, new columns in existing rows, the first and last rows, empty
rows on either side, and updates touching one row or every row; the
input matrix and its cached bins and lane plan must come out untouched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.csr import splice_rows

_VALUES = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def splice_cases(draw):
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), _VALUES),
        max_size=m * n,
    ))
    touch = draw(st.sampled_from(["one", "every", "any"]))
    if touch == "one":
        row = st.just(draw(st.integers(0, m - 1)))
    elif touch == "every":
        row = None
    else:
        row = st.integers(0, m - 1)
    if row is None:
        updates = [
            (r, draw(st.integers(0, n - 1)), draw(_VALUES)) for r in range(m)
        ]
        updates += draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), _VALUES),
            max_size=8,
        ))
    else:
        updates = draw(st.lists(
            st.tuples(row, st.integers(0, n - 1), _VALUES), min_size=1, max_size=12
        ))
    # Restate some stored cells (overwrites) and some update cells
    # (repeats inside one update, of which the last must win).
    for r, c, _ in draw(st.lists(st.sampled_from(cells), max_size=4)) if cells else []:
        updates.append((r, c, draw(_VALUES)))
    for r, c, _ in draw(st.lists(st.sampled_from(updates), max_size=4)):
        updates.append((r, c, draw(_VALUES)))
    order = draw(st.permutations(range(len(updates))))
    return (m, n), cells, [updates[i] for i in order]


def _coo(shape, triples) -> COOMatrix:
    rows, cols, vals = (list(t) for t in zip(*triples)) if triples else ([], [], [])
    return COOMatrix(
        shape,
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float32),
    )


def _spliced(train: CSRMatrix, update: COOMatrix) -> CSRMatrix:
    rows, sub = train.merged_rows(update)
    return train.replace_rows(rows, sub)


def _rebuilt(train: CSRMatrix, update: COOMatrix) -> CSRMatrix:
    base = train.to_coo()
    return CSRMatrix.from_coo(COOMatrix(
        train.shape,
        np.concatenate([base.row, update.row]),
        np.concatenate([base.col, update.col]),
        np.concatenate([base.value, update.value]),
    ))


def _assert_same(got: CSRMatrix, ref: CSRMatrix) -> None:
    assert got == ref
    for name in ("value", "col_idx", "row_ptr"):
        assert getattr(got, name).dtype == getattr(ref, name).dtype


@settings(max_examples=200, deadline=None)
@given(splice_cases())
def test_splice_equals_rebuild(case):
    shape, cells, updates = case
    train = CSRMatrix.from_coo(_coo(shape, cells))
    bins = train.degree_bins()
    plan = train.lane_plan()
    arrays = [a.copy() for a in (train.value, train.col_idx, train.row_ptr)]
    update = _coo(shape, updates)

    _assert_same(_spliced(train, update), _rebuilt(train, update))

    # The input and its cached structures are left as they were.
    for kept, now in zip(arrays, (train.value, train.col_idx, train.row_ptr)):
        assert np.array_equal(kept, now)
    assert train.degree_bins() is bins and train.lane_plan() is plan
    fresh = CSRMatrix(train.shape, train.value, train.col_idx, train.row_ptr)
    for cached, ref in zip(plan, fresh.lane_plan()):
        assert np.array_equal(cached.entries, ref.entries)
        assert np.array_equal(cached.cols, ref.cols)


class TestNamedCases:
    """The edge cases the property covers, pinned as plain examples."""

    TRAIN = [(1, 0, 1.0), (1, 3, 2.0), (2, 2, 3.0), (4, 1, 4.0)]  # rows 0, 3, 5 empty

    @pytest.mark.parametrize(
        "updates",
        [
            [(0, 2, 9.0)],  # first row, empty before
            [(5, 4, 9.0)],  # last row, empty before
            [(1, 3, 7.0)],  # overwrite a stored rating
            [(1, 1, 7.0), (1, 4, 8.0)],  # new columns around stored ones
            [(2, 0, 5.0), (2, 0, 6.0), (2, 0, 7.0)],  # repeats: last wins
            [(r, r % 5, float(r)) for r in range(6)],  # every row
            [(3, 0, 1.0), (0, 1, 2.0), (5, 2, 3.0), (3, 0, 4.0)],  # unsorted
        ],
        ids=["first", "last", "overwrite", "new-cols", "repeats", "every", "unsorted"],
    )
    def test_case(self, updates):
        shape = (6, 5)
        train = CSRMatrix.from_coo(_coo(shape, self.TRAIN))
        update = _coo(shape, updates)
        _assert_same(_spliced(train, update), _rebuilt(train, update))

    def test_last_write_wins_value(self):
        train = CSRMatrix.from_coo(_coo((6, 5), self.TRAIN))
        got = _spliced(train, _coo((6, 5), [(1, 3, 5.0), (1, 3, 6.0)]))
        cols, vals = got.row_slice(1)
        assert cols.tolist() == [0, 3] and vals.tolist() == [1.0, 6.0]

    def test_rejects_wider_update(self):
        train = CSRMatrix.from_coo(_coo((6, 5), self.TRAIN))
        with pytest.raises(ValueError, match="exceeds"):
            train.merged_rows(_coo((6, 6), [(0, 5, 1.0)]))

    def test_replace_rows_checks_the_replacement(self):
        train = CSRMatrix.from_coo(_coo((6, 5), self.TRAIN))
        sub = CSRMatrix.from_coo(_coo((1, 5), [(0, 1, 1.0)]))
        with pytest.raises(ValueError, match="2 rows"):
            train.replace_rows(np.array([1, 2]), sub)
        two = CSRMatrix.from_coo(_coo((2, 5), [(0, 1, 1.0)]))
        for rows in ([3, 1], [2, 2], [-1, 0], [5, 6]):
            with pytest.raises(ValueError, match="ascend"):
                train.replace_rows(np.array(rows), two)


def test_append_rows_equals_stacked_rebuild():
    base = CSRMatrix.from_coo(_coo((5, 4), [(0, 1, 1.0), (3, 2, 2.0), (4, 0, 3.0)]))
    new = CSRMatrix.from_coo(_coo((3, 4), [(0, 3, 4.0), (2, 1, 5.0)]))
    got = base.append_rows(new)
    ref = CSRMatrix.from_coo(_coo((8, 4), [
        (0, 1, 1.0), (3, 2, 2.0), (4, 0, 3.0), (5, 3, 4.0), (7, 1, 5.0),
    ]))
    _assert_same(got, ref)
    with pytest.raises(ValueError, match="column mismatch"):
        base.append_rows(CSRMatrix.from_coo(_coo((1, 5), [(0, 4, 1.0)])))


def test_splice_rows_replaces_only_the_named_segments():
    base = np.arange(10)
    base_ptr = np.array([0, 3, 3, 7, 10])  # rows of 3, 0, 4 and 3 entries
    repl = np.array([-1, -2, -3])
    repl_ptr = np.array([0, 2, 3])
    got = splice_rows(base, base_ptr, np.array([1, 3]), repl, repl_ptr)
    assert got.tolist() == [0, 1, 2, -1, -2, 3, 4, 5, 6, -3]
