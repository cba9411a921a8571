"""BlockedCSR tiling: round trips, edge cases, and blocked-kernel equality."""

import numpy as np
import pytest

from repro import runtime
from repro.assoc.blocked import (
    BlockedCSR,
    parallel_coalesce,
    parallel_ewise_intersect,
    parallel_ewise_union,
    parallel_masked_intersect,
    parallel_masked_mxm,
    parallel_masked_mxv,
    parallel_mxm,
    parallel_mxv,
    parallel_union_all,
)
from repro.assoc.semiring import LOR_LAND, MIN_PLUS, PLUS_MONOID, PLUS_TIMES
from repro.assoc.sparse import CSRMatrix
from repro.errors import SparseFormatError
from repro.runtime import RuntimeConfig


def random_csr(n_rows: int, n_cols: int, density: float, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_rows, n_cols), dtype=np.int64)
    nnz = max(1, int(n_rows * n_cols * density))
    dense[rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)] = rng.integers(1, 9, nnz)
    return CSRMatrix.from_dense(dense)


class TestTiling:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 16, 100])
    def test_round_trip(self, block_rows):
        m = random_csr(16, 11, 0.2, seed=1)
        blocked = BlockedCSR.from_csr(m, block_rows)
        assert blocked.to_csr() == m
        assert blocked.nnz == m.nnz
        assert blocked.shape == m.shape

    def test_single_row_block(self):
        """block_rows >= n_rows degenerates to one block equal to the input."""
        m = random_csr(8, 8, 0.3, seed=2)
        blocked = BlockedCSR.from_csr(m, 8)
        assert blocked.n_blocks == 1
        assert blocked.block(0) == m

    def test_block_size_larger_than_matrix(self):
        m = random_csr(5, 5, 0.4, seed=3)
        blocked = BlockedCSR.from_csr(m, 1_000_000)
        assert blocked.n_blocks == 1
        assert blocked.to_csr() == m

    def test_empty_matrix_zero_rows(self):
        m = CSRMatrix.empty((0, 7))
        blocked = BlockedCSR.from_csr(m, 4)
        assert blocked.n_blocks == 1
        assert blocked.nnz == 0
        assert blocked.to_csr() == m

    def test_empty_matrix_no_entries(self):
        m = CSRMatrix.empty((9, 9))
        blocked = BlockedCSR.from_csr(m, 2)
        assert blocked.n_blocks == 5
        assert all(b.nnz == 0 for b in blocked.blocks)
        assert blocked.to_csr() == m

    def test_block_spans_cover_rows(self):
        m = random_csr(10, 4, 0.3, seed=4)
        blocked = BlockedCSR.from_csr(m, 3)
        spans = blocked.block_spans()
        assert spans[0][0] == 0 and spans[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_heuristic_block_rows(self):
        """from_csr with no block_rows uses the config heuristic and still round-trips."""
        m = random_csr(40, 40, 0.1, seed=5)
        blocked = BlockedCSR.from_csr(m)
        assert blocked.to_csr() == m

    def test_invalid_block_rows_rejected(self):
        m = random_csr(4, 4, 0.5, seed=6)
        with pytest.raises(SparseFormatError):
            BlockedCSR.from_csr(m, 0)

    def test_mismatched_blocks_rejected(self):
        m = random_csr(4, 4, 0.5, seed=7)
        good = BlockedCSR.from_csr(m, 2)
        with pytest.raises(SparseFormatError):
            BlockedCSR(m.shape, good.row_starts[:-1], good.blocks)
        with pytest.raises(SparseFormatError):
            BlockedCSR((5, 4), good.row_starts, good.blocks)


def serial_blocked(block_rows: int) -> RuntimeConfig:
    """A serial-executor config that still cuts operands into *block_rows* tiles."""
    return RuntimeConfig(workers=1, backend="serial", block_rows=block_rows)


class TestBlockedKernels:
    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, LOR_LAND])
    @pytest.mark.parametrize("block_rows", [1, 4, 13, 64])
    def test_mxm_matches_serial(self, semiring, block_rows):
        a = random_csr(30, 24, 0.15, seed=8)
        b = random_csr(24, 19, 0.15, seed=9)
        serial = a.mxm(b, semiring)
        blocked = parallel_mxm(a, b, semiring, serial_blocked(block_rows))
        assert blocked == serial
        assert blocked.dtype == serial.dtype

    def test_mxm_empty_operand(self):
        a = random_csr(6, 6, 0.4, seed=10)
        empty = CSRMatrix.empty((6, 6))
        blocked = parallel_mxm(a, empty, PLUS_TIMES, serial_blocked(2))
        assert blocked == a.mxm(empty)

    def test_mxm_shape_mismatch(self):
        a = random_csr(6, 6, 0.4, seed=11)
        with pytest.raises(SparseFormatError):
            parallel_mxm(a, random_csr(5, 5, 0.4, seed=12), PLUS_TIMES, serial_blocked(2))

    @pytest.mark.parametrize("block_rows", [1, 5, 50])
    def test_mxv_matches_serial(self, block_rows):
        a = random_csr(25, 25, 0.2, seed=13)
        x = np.random.default_rng(14).random(25)
        serial = a.mxv(x, MIN_PLUS)
        blocked = parallel_mxv(a, x, MIN_PLUS, serial_blocked(block_rows))
        assert np.array_equal(serial, blocked)

    def test_mxv_length_mismatch(self):
        a = random_csr(6, 6, 0.4, seed=15)
        with pytest.raises(SparseFormatError):
            parallel_mxv(a, np.zeros(5), PLUS_TIMES, serial_blocked(2))

    def test_repr_mentions_blocks(self):
        m = random_csr(10, 10, 0.2, seed=16)
        assert "n_blocks=5" in repr(BlockedCSR.from_csr(m, 2))


ROUTES = {
    "thread": dict(workers=2, backend="thread", block_rows=1),
    "process_shm": dict(workers=2, backend="process", block_rows=1, shm_min_bytes=0),
}


@pytest.fixture()
def no_pools_left():
    yield
    runtime.shutdown_executors()


@pytest.mark.usefixtures("no_pools_left")
class TestEmptyExpansionDtype:
    """An empty expansion keeps the operands' dtype on every route, as serial does."""

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_lor_land_on_int64_stays_int64(self, route):
        # A's only stored column is 0 and B's row 0 is empty: no product terms
        a = CSRMatrix.from_dense(np.array([[1, 0, 0], [2, 0, 0], [0, 0, 0]], dtype=np.int64))
        b = CSRMatrix.from_dense(np.array([[0, 0, 0], [0, 3, 0], [4, 0, 5]], dtype=np.int64))
        serial = a._mxm_serial(b, LOR_LAND)
        blocked = parallel_mxm(a, b, LOR_LAND, RuntimeConfig(**ROUTES[route]))
        assert serial.dtype == np.int64
        assert blocked.dtype == serial.dtype
        assert blocked == serial


def _mismatched_calls():
    a = random_csr(6, 6, 0.4, seed=17)
    small = random_csr(5, 5, 0.4, seed=18)
    rows, cols, vals = a.triples()
    x, allow = np.zeros(6), np.ones(6, dtype=bool)
    return {
        "mxm": lambda cfg: parallel_mxm(a, small, PLUS_TIMES, cfg),
        "mxv": lambda cfg: parallel_mxv(a, x[:5], PLUS_TIMES, cfg),
        "ewise_union": lambda cfg: parallel_ewise_union(a, small, PLUS_MONOID, cfg),
        "ewise_intersect": lambda cfg: parallel_ewise_intersect(a, small, np.multiply, cfg),
        "coalesce": lambda cfg: parallel_coalesce(rows, cols[:-1], vals, a.shape, PLUS_MONOID, cfg),
        "masked_mxm": lambda cfg: parallel_masked_mxm(a, a, PLUS_TIMES, small, cfg),
        "masked_mxv_x": lambda cfg: parallel_masked_mxv(a, x[:5], PLUS_TIMES, allow, cfg),
        "masked_mxv_allow": lambda cfg: parallel_masked_mxv(a, x, PLUS_TIMES, allow[:5], cfg),
        "masked_intersect": lambda cfg: parallel_masked_intersect(
            a, a, np.multiply, small, False, cfg
        ),
        "union_all": lambda cfg: parallel_union_all([a, small], PLUS_MONOID, None, False, cfg),
    }


class TestShapeValidation:
    """Every parallel entry point rejects mismatched operands up front."""

    @pytest.mark.parametrize("kernel", sorted(_mismatched_calls()))
    def test_mismatch_raises_sparse_format_error(self, kernel):
        with pytest.raises(SparseFormatError):
            _mismatched_calls()[kernel](serial_blocked(2))
