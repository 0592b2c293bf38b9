"""Tests for CSR adjacency structures, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphFormatError
from repro.graph.csr import CSRAdjacency, edges_to_csr


def simple_csr():
    # rows: 0 -> {1, 2}, 1 -> {}, 2 -> {0}
    return CSRAdjacency(np.array([0, 2, 2, 3]), np.array([1, 2, 0]), 3)


def csr_nbytes(csr) -> int:
    """Topology payload size in bytes: the two arrays."""
    return int(csr.indptr.nbytes + csr.indices.nbytes)


def same_csr(a, b) -> bool:
    """Two CSR structures over the same column domain with equal arrays
    (rows are sorted, so one edge set has one form)."""
    return (isinstance(a, CSRAdjacency) and isinstance(b, CSRAdjacency)
            and a.num_cols == b.num_cols
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))


class TestValidation:
    def test_valid_structure(self):
        csr = simple_csr()
        assert csr.num_rows == 3
        assert csr.nnz == 3

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRAdjacency(np.array([1, 2]), np.array([0]), 2)

    def test_indptr_monotone(self):
        with pytest.raises(GraphFormatError):
            CSRAdjacency(np.array([0, 2, 1]), np.array([0, 1]), 2)

    def test_indptr_matches_nnz(self):
        with pytest.raises(GraphFormatError):
            CSRAdjacency(np.array([0, 5]), np.array([0, 1]), 2)

    def test_column_range(self):
        with pytest.raises(GraphFormatError):
            CSRAdjacency(np.array([0, 1]), np.array([7]), 3)

    def test_negative_column(self):
        with pytest.raises(GraphFormatError):
            CSRAdjacency(np.array([0, 1]), np.array([-1]), 3)

    def test_edge_values_are_no_setting(self):
        """A CSR is topology only: no edge-value column."""
        with pytest.raises(TypeError):
            CSRAdjacency(np.array([0, 1]), np.array([0]), 2,
                         values=np.array([1.0]))
        for keyword in (dict(values=np.array([1.0])), dict(dedup=False)):
            with pytest.raises(TypeError):
                edges_to_csr(np.array([0]), np.array([1]), 1, 2, **keyword)


class TestAccessors:
    def test_row(self):
        csr = simple_csr()
        np.testing.assert_array_equal(csr.row(0), [1, 2])
        np.testing.assert_array_equal(csr.row(1), [])
        np.testing.assert_array_equal(csr.row(2), [0])

    def test_degrees(self):
        np.testing.assert_array_equal(simple_csr().degrees(), [2, 0, 1])

    def test_nbytes_positive(self):
        assert csr_nbytes(simple_csr()) > 0

    def test_nbytes_is_the_two_arrays(self):
        # int64 offsets and column ids: 4 offsets + 3 ids
        assert csr_nbytes(simple_csr()) == (4 + 3) * 8

    def test_equality(self):
        assert same_csr(simple_csr(), simple_csr())

    def test_inequality_structure(self):
        other = CSRAdjacency(np.array([0, 2, 2, 3]), np.array([1, 2, 1]), 3)
        assert not same_csr(simple_csr(), other)
        wider = CSRAdjacency(np.array([0, 2, 2, 3]), np.array([1, 2, 0]), 4)
        assert not same_csr(simple_csr(), wider)

    def test_not_equal_to_other_types(self):
        assert not same_csr(simple_csr(), "csr")
        # without an __eq__ of its own a structure compares by identity
        assert simple_csr() != simple_csr()

    def test_repr(self):
        assert "nnz=3" in repr(simple_csr())


class TestEdgesToCsr:
    def test_basic(self):
        csr = edges_to_csr(np.array([0, 0, 1]), np.array([1, 2, 0]), 2, 3)
        np.testing.assert_array_equal(csr.row(0), [1, 2])
        np.testing.assert_array_equal(csr.row(1), [0])

    def test_dedup_merges(self):
        csr = edges_to_csr(np.array([0, 0]), np.array([1, 1]), 1, 2)
        assert csr.nnz == 1

    def test_out_of_range_rows(self):
        with pytest.raises(GraphFormatError):
            edges_to_csr(np.array([5]), np.array([0]), 2, 2)

    def test_out_of_range_cols(self):
        with pytest.raises(GraphFormatError):
            edges_to_csr(np.array([0]), np.array([2]), 2, 2)
        with pytest.raises(GraphFormatError):
            edges_to_csr(np.array([0]), np.array([-1]), 2, 2)

    def test_mismatched_shapes(self):
        with pytest.raises(GraphFormatError):
            edges_to_csr(np.array([0, 1]), np.array([0]), 2, 2)

    def test_empty(self):
        csr = edges_to_csr(np.array([]), np.array([]), 3, 3)
        assert csr.nnz == 0
        assert csr.num_rows == 3


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    num_edges = draw(st.integers(min_value=0, max_value=60))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=num_edges,
                         max_size=num_edges))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=num_edges,
                         max_size=num_edges))
    return n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


class TestProperties:
    @given(random_edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_degrees_sum_to_nnz(self, data):
        n, rows, cols = data
        csr = edges_to_csr(rows, cols, n, n)
        assert csr.degrees().sum() == csr.nnz

    @given(random_edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_rows_sorted_and_unique(self, data):
        n, rows, cols = data
        csr = edges_to_csr(rows, cols, n, n)
        for row_index in range(csr.num_rows):
            row = csr.row(row_index)
            assert np.all(np.diff(row) > 0) or len(row) <= 1

    @given(random_edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_edge_set_preserved(self, data):
        n, rows, cols = data
        csr = edges_to_csr(rows, cols, n, n)
        stored = {(row_index, int(col))
                  for row_index in range(csr.num_rows)
                  for col in csr.row(row_index)}
        assert stored == set(zip(rows.tolist(), cols.tolist()))



def _sorted_rows_reference(csr):
    """A per-row Python loop that sorts each row's columns (test oracle)."""
    indices = csr.indices.copy()
    for i in range(csr.num_rows):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        indices[lo:hi] = np.sort(indices[lo:hi])
    return CSRAdjacency(csr.indptr, indices, csr.num_cols)


def _edge_lists(csr):
    """(rows, cols) parallel edge arrays of a CSR, in storage order."""
    return np.repeat(np.arange(csr.num_rows), csr.degrees()), csr.indices


class TestVectorizedSorting:
    """``edges_to_csr``'s one ``np.lexsort`` on preprocessing-sized input."""

    def _build_unsorted(self, seed=0):
        """(sorted reference, within-row-shuffled copy) of the
        reddit_sim in-CSR — realistic preprocessing input."""
        from repro.graph import load_dataset

        graph = load_dataset("reddit_sim", scale=0.3, seed=3)
        csr = graph.in_csr
        rng = np.random.default_rng(seed)
        indices = csr.indices.copy()
        for i in range(csr.num_rows):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            perm = rng.permutation(hi - lo)
            indices[lo:hi] = indices[lo:hi][perm]
        shuffled = CSRAdjacency(csr.indptr, indices, csr.num_cols)
        return csr, shuffled

    def test_sorted_rows_matches_reference(self):
        sorted_csr, shuffled = self._build_unsorted()
        rows, cols = _edge_lists(shuffled)
        lexsorted = edges_to_csr(rows, cols, shuffled.num_rows,
                                 shuffled.num_cols)
        reference = _sorted_rows_reference(shuffled)
        np.testing.assert_array_equal(lexsorted.indptr, reference.indptr)
        np.testing.assert_array_equal(lexsorted.indices, reference.indices)
        np.testing.assert_array_equal(lexsorted.indices, sorted_csr.indices)

    def test_transpose_round_trip(self):
        """Building from swapped edge lists twice (the way a graph's
        in-CSR transposes its ``src -> dst`` edges) returns the sorted
        original."""
        _, shuffled = self._build_unsorted(seed=1)
        rows, cols = _edge_lists(shuffled)
        transposed = edges_to_csr(cols, rows, shuffled.num_cols,
                                  shuffled.num_rows)
        t_rows, t_cols = _edge_lists(transposed)
        back = edges_to_csr(t_cols, t_rows, shuffled.num_rows,
                            shuffled.num_cols)
        expected = _sorted_rows_reference(shuffled)
        np.testing.assert_array_equal(back.indptr, expected.indptr)
        np.testing.assert_array_equal(back.indices, expected.indices)

