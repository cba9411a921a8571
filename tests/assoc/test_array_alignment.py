"""Key alignment: exact string matching, embedding by monotone index maps.

Label axes are compared as Python strings, never through numpy ``<U`` arrays
(which drop trailing NULs, conflating ``"a"`` with ``"a\\x00"``).  Embedding
an array onto superset axes builds the result directly from strictly
increasing index maps; the property tests check it against a
:meth:`AssociativeArray.from_triples` reference built from scratch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import merge_windows
from repro.assoc.array import AssociativeArray, _as_labels
from repro.errors import AssocArrayError


def _from(triples, **axes):
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    return AssociativeArray.from_triples(
        list(rows), list(cols), np.asarray(vals, dtype=np.int64), **axes
    )


def _assert_identical(got: AssociativeArray, want: AssociativeArray) -> None:
    got.csr._validate()
    assert got == want
    assert got.csr.data.dtype == want.csr.data.dtype


class TestTrailingNulKeys:
    """``"a"`` and ``"a\\x00"`` are different endpoints on every path."""

    def test_add_keeps_nul_suffixed_row_apart(self):
        a = _from([("a", "b", 1)])
        b = _from([("a\x00", "b", 2)])
        assert (a + b).to_dict() == {("a", "b"): 1, ("a\x00", "b"): 2}

    def test_mxm_aligns_inner_axis_exactly(self):
        a = _from([("r", "x\x00", 2)])
        b = _from([("x", "c", 3)])
        prod = a.mxm(b)
        assert prod.nnz == 0
        assert prod.row_labels == ("r",) and prod.col_labels == ("c",)
        hit = a.mxm(_from([("x\x00", "c", 3)]))
        assert hit.to_dict() == {("r", "c"): 6}

    def test_reindex_places_nul_suffixed_key(self):
        a = _from([("a\x00", "b", 1)])
        out = a.reindex(["a", "a\x00"], ["b"])
        assert out.to_dict() == {("a\x00", "b"): 1}
        assert out["a", "b"] == 0

    def test_reindex_rejects_nul_stripped_axis(self):
        a = _from([("a\x00", "b", 1)])
        with pytest.raises(AssocArrayError, match="supersets"):
            a.reindex(["a"], ["b"])

    def test_scalar_lookup_finds_nul_suffixed_key(self):
        a = _from([("a", "b", 1), ("a\x00", "b", 2)])
        assert a["a", "b"] == 1
        assert a["a\x00", "b"] == 2
        with pytest.raises(AssocArrayError, match="unknown row key"):
            a["a\x00\x00", "b"]

    def test_merge_windows_keeps_nul_suffixed_rows_apart(self):
        wins = [_from([("a", "b", 1)]), _from([("a\x00", "b", 2)]), _from([("a", "b", 4)])]
        assert merge_windows(wins).to_dict() == {("a", "b"): 5, ("a\x00", "b"): 2}


class TestValidatedOnce:
    def test_validated_axis_passes_through(self):
        a = _from([("b", "y", 1), ("a", "x", 2)])
        assert _as_labels(a.row_labels) is a.row_labels
        assert (a + a).row_labels is a.row_labels
        assert a.transpose().col_labels is a.row_labels

    @pytest.mark.parametrize("kind", [tuple, list])
    @pytest.mark.parametrize(
        "labels, message",
        [
            (["b", "a"], "sorted"),
            (["a", "a"], "duplicate-free"),
            (["", "a"], "empty"),
        ],
    )
    def test_caller_axes_still_validated(self, kind, labels, message):
        a = _from([("a", "x", 1)])
        with pytest.raises(AssocArrayError, match=message):
            AssociativeArray(kind(labels), ("x",), a.reindex(["a", "b"], ["x"]).csr)
        with pytest.raises(AssocArrayError, match=message):
            a.reindex(kind(labels), ["x"])
        with pytest.raises(AssocArrayError, match=message):
            a.reindex(["a", "b"], kind(labels))

    def test_from_triples_rejects_empty_keys(self):
        with pytest.raises(AssocArrayError, match="empty"):
            AssociativeArray.from_triples([""], ["x"], [1])
        with pytest.raises(AssocArrayError, match="empty"):
            AssociativeArray.from_triples(["a"], ["x"], [1], col_labels=["", "x"])


# --------------------------------------------------------------------------- #
# property tests: random arrays on random superset axes
# --------------------------------------------------------------------------- #

KEYS = st.text(alphabet="abé中\x00", min_size=1, max_size=3)
KEY_SETS = st.lists(KEYS, max_size=6, unique=True)


@st.composite
def arrays(draw, rows=KEY_SETS, cols=KEY_SETS):
    """An array whose axes may hold keys with no entries (empty rows/cols)."""
    r_keys, c_keys = draw(rows), draw(cols)
    triples = []
    if r_keys and c_keys:
        cells = st.tuples(st.sampled_from(r_keys), st.sampled_from(c_keys), st.integers(-9, 9))
        triples = draw(st.lists(cells, max_size=12))
    return _from(triples, row_labels=r_keys, col_labels=c_keys)


@settings(max_examples=150, deadline=None)
@given(arrays(), KEY_SETS, KEY_SETS)
def test_reindex_matches_from_triples(a, extra_rows, extra_cols):
    r_axis = sorted(set(a.row_labels) | set(extra_rows))
    c_axis = sorted(set(a.col_labels) | set(extra_cols))
    got = a.reindex(r_axis, c_axis)
    _assert_identical(got, _from(a.triples(), row_labels=r_axis, col_labels=c_axis))


@settings(max_examples=150, deadline=None)
@given(st.lists(arrays(), min_size=1, max_size=5))
def test_merge_windows_matches_from_triples(windows):
    r_axis = sorted(set().union(*(w.row_labels for w in windows)))
    c_axis = sorted(set().union(*(w.col_labels for w in windows)))
    triples = [t for w in windows for t in w.triples()]
    got = merge_windows(windows)
    _assert_identical(got, _from(triples, row_labels=r_axis, col_labels=c_axis))


@settings(max_examples=100, deadline=None)
@given(arrays(), arrays())
def test_ewise_and_mxm_match_from_triples(a, b):
    r_axis = sorted(set(a.row_labels) | set(b.row_labels))
    c_axis = sorted(set(a.col_labels) | set(b.col_labels))
    added = a + b
    _assert_identical(added, _from(a.triples() + b.triples(), row_labels=r_axis, col_labels=c_axis))
    want = a.to_dict()
    products = {k: v * want[k] for k, v in b.to_dict().items() if k in want}
    _assert_identical(
        a * b, _from([(*k, v) for k, v in products.items()], row_labels=r_axis, col_labels=c_axis)
    )
    bt = b.transpose()  # a's columns meet b's columns on the inner axis
    paths: dict[tuple[str, str], int] = {}
    for r, k, v in a.triples():
        for k2, c, w in bt.triples():
            if k == k2:
                paths[r, c] = paths.get((r, c), 0) + v * w
    _assert_identical(
        a.mxm(bt),
        _from(
            [(*k, v) for k, v in paths.items() if v],  # mxm prunes zero sums
            row_labels=a.row_labels,
            col_labels=b.row_labels,
        ),
    )
