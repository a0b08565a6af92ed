"""``Rows``: a client's shard of a bundle held as an index, not a copy.

Every read through the view must equal the same read of the copy it
replaced (``base[index]``), bit for bit, and nothing may turn the view
into an array behind the caller's back.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Rows


@st.composite
def rows_and_selector(draw):
    n_base = draw(st.integers(1, 12))
    width = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    base = np.random.default_rng(seed).standard_normal((n_base, width, 2))
    index = np.asarray(
        draw(st.lists(st.integers(0, n_base - 1), max_size=10)), dtype=np.int64
    )
    n = len(index)
    kind = draw(st.sampled_from(["slice", "ints", "mask", "int", "empty"]))
    if kind == "slice":
        start = draw(st.one_of(st.none(), st.integers(-n - 2, n + 2)))
        stop = draw(st.one_of(st.none(), st.integers(-n - 2, n + 2)))
        step = draw(st.one_of(st.none(), st.integers(1, 3), st.integers(-3, -1)))
        sel = slice(start, stop, step)
    elif kind == "ints" and n:
        sel = np.asarray(
            draw(st.lists(st.integers(-n, n - 1), max_size=12)), dtype=np.int64
        )
    elif kind == "mask":
        sel = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    elif kind == "int" and n:
        sel = draw(st.integers(-n, n - 1))
    else:
        sel = np.zeros(0, dtype=np.int64)
    return base, index, sel


@settings(max_examples=200, deadline=None)
@given(rows_and_selector())
def test_a_read_through_the_view_equals_the_read_of_the_copy(case):
    base, index, sel = case
    rows = Rows(base, index)
    copy = base[index]
    got = rows[sel]
    want = copy[sel]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, base)
    assert len(rows) == len(copy)
    assert rows.shape == copy.shape
    assert rows.dtype == copy.dtype and rows.ndim == copy.ndim
    with pytest.raises(TypeError):
        np.asarray(rows)


def test_out_of_range_reads_raise_like_the_copy():
    rows = Rows(np.arange(12.0).reshape(6, 2), np.array([5, 0, 3]))
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(IndexError):
        rows[np.array([0, 3])]
    # iteration walks the rows in index order
    assert [r.tolist() for r in rows] == [[10.0, 11.0], [0.0, 1.0], [6.0, 7.0]]


def test_the_index_must_be_one_dimensional_integers():
    base = np.zeros((4, 2))
    with pytest.raises(ValueError):
        Rows(base, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Rows(base, np.array([[0, 1]]))
