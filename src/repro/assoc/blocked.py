"""Row-blocked CSR tiling and the one row-block protocol behind every kernel.

A :class:`BlockedCSR` is a :class:`~repro.assoc.sparse.CSRMatrix` cut into
contiguous row blocks, each itself a small CSR matrix over the full column
range.  Row blocking is the natural decomposition for the ESC semiring GEMM:
``C[i, :]`` depends only on ``A[i, :]`` and all of ``B``, so every block
multiplies independently and results concatenate row-wise with no reduction
step.  The same tiling parallelises ``mxv``, the element-wise ops, the masked
kernels and ``coalesce``.

**Bit-identical results.**  The serial kernels stable-sort expansion terms by
``row * n_cols + col`` and combine duplicates with ``reduceat``.  Row blocks
partition that key space into disjoint, ordered ranges while preserving the
relative order of terms inside each range, so per-block outputs concatenate
into exactly the serial output — including float rounding, because every
duplicate group is reduced in the same order.  The benchmark and property
tests assert this equality rather than assuming it.

**One gate.**  Every assoc kernel with a row-blocked form (the planner's
steps and ``coalesce``) enters through a ``parallel_*`` function here, which
checks its operands' shapes; then :func:`_route` alone picks the route.  An
explicit ``config`` always runs blocked; ``config=None`` asks the active
config's :func:`~repro.runtime.config.parallel_config` about the kernel's
work measure (operands of one row never block), and on ``None`` the serial
kernel runs directly, with no ``kernels.*`` counter or span.

**One protocol.**  Each ``parallel_*`` kernel declares a serial kernel and
its operands, tagged by how a block task sees them: :class:`_Rows` (cut to
the task's ``[lo, hi)`` span), :class:`_Whole` (intact), or a plain
constant.  One driver, :func:`_run_blocked`, owns the gate, obs, the
executor map, the dtype cast and assembly; one task, :func:`_block_task`,
resolves operands and runs the kernel.  Shared memory is only a
*transport*, deciding where rows are cut: ``inline``, the parent cuts each
block into its task; ``shm``
(:meth:`~repro.runtime.config.RuntimeConfig.use_shm`), operands are exported
**once** into :mod:`repro.runtime.shm` segments under an ``OperandLease`` and
each worker attaches and cuts its own block.  Same cut, same spans: the
result is bit-identical either way.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from repro.assoc import sparse as _sparse
from repro.assoc.semiring import Monoid, Semiring
from repro.assoc.sparse import CSRMatrix
from repro.errors import SparseFormatError
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.runtime import shm as _shm
from repro.runtime.config import RuntimeConfig, get_config, parallel_config
from repro.runtime.executor import choose_block_rows, get_executor

__all__ = [
    "BlockedCSR",
    "parallel_mxm",
    "parallel_mxv",
    "parallel_ewise_union",
    "parallel_ewise_intersect",
    "parallel_coalesce",
    "parallel_masked_mxm",
    "parallel_masked_mxv",
    "parallel_masked_intersect",
    "parallel_union_all",
]


def _slice_rows(csr: CSRMatrix, r0: int, r1: int) -> CSRMatrix:
    """The ``[r0:r1)`` row block of *csr* as a standalone CSR (zero-copy views)."""
    lo = int(csr.indptr[r0])
    hi = int(csr.indptr[r1])
    return CSRMatrix(
        (r1 - r0, csr.shape[1]),
        csr.indptr[r0 : r1 + 1] - lo,
        csr.indices[lo:hi],
        csr.data[lo:hi],
        _trusted=True,
    )


def _row_starts(n_rows: int, block_rows: int) -> np.ndarray:
    """Block boundary rows ``[0, k, 2k, ..., n_rows]`` (always >= 1 block)."""
    if n_rows <= 0:
        return np.asarray([0, 0], dtype=np.int64)
    starts = np.arange(0, n_rows, block_rows, dtype=np.int64)
    return np.append(starts, n_rows)


@contextmanager
def _kernel_obs(
    name: str, cfg: RuntimeConfig, nnz_in: int
) -> "Iterator[_trace.Span | _trace.NullSpan]":
    """Metrics + span scope around one blocked-kernel call.

    Counts the call (``kernels.<name>``), times it into the shared
    ``kernels.wall_ms`` histogram, and — when tracing is live — opens a
    ``kernel.<name>`` span carrying backend, worker count, and nnz in;
    the driver adds ``blocks``/``route``/``nnz_out`` via ``span.set(...)``.
    Module-level and patchable on purpose: ``benchmarks/bench_obs_overhead.py``
    swaps it for a transparent no-op to price the instrumentation itself.
    """
    _obs.counter(f"kernels.{name}").inc()
    tracer = _trace.get_tracer()
    t0 = _obs.monotonic_ns()
    with tracer.span(
        f"kernel.{name}",
        backend=cfg.resolved_backend(),
        workers=cfg.workers,
        nnz_in=nnz_in,
    ) as span:
        yield span
    _obs.histogram("kernels.wall_ms").observe((_obs.monotonic_ns() - t0) / 1e6)


class BlockedCSR:
    """A CSR matrix tiled into contiguous row blocks.

    Blocks are plain :class:`CSRMatrix` instances sharing the parent's column
    range, so every serial kernel runs on a block unchanged — the engine adds
    scheduling, not new math.
    """

    __slots__ = ("shape", "row_starts", "blocks")

    def __init__(
        self,
        shape: tuple[int, int],
        row_starts: np.ndarray,
        blocks: list[CSRMatrix],
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.row_starts = np.asarray(row_starts, dtype=np.int64)
        self.blocks = list(blocks)
        if self.row_starts.ndim != 1 or self.row_starts.size != len(self.blocks) + 1:
            raise SparseFormatError(
                f"row_starts needs n_blocks+1 entries, got {self.row_starts.size} "
                f"for {len(self.blocks)} blocks"
            )
        if self.row_starts[0] != 0 or self.row_starts[-1] != self.shape[0]:
            raise SparseFormatError("row_starts must span [0, n_rows]")
        if np.any(np.diff(self.row_starts) < 0):
            raise SparseFormatError("row_starts must be non-decreasing")
        for k, blk in enumerate(self.blocks):
            span = int(self.row_starts[k + 1] - self.row_starts[k])
            if blk.shape != (span, self.shape[1]):
                raise SparseFormatError(
                    f"block {k} has shape {blk.shape}, expected {(span, self.shape[1])}"
                )

    # ------------------------------------------------------------------ #
    # construction / reassembly
    # ------------------------------------------------------------------ #

    @classmethod
    def from_csr(cls, csr: CSRMatrix, block_rows: int | None = None) -> "BlockedCSR":
        """Tile *csr* into blocks of *block_rows* rows (heuristic when None).

        A ``block_rows`` larger than the matrix yields a single block — the
        degenerate tiling is valid and equivalent to the serial layout.
        """
        if block_rows is None:
            cfg = get_config()
            block_rows = choose_block_rows(
                csr.shape[0], csr.nnz, cfg.workers, cfg.block_rows
            )
        if block_rows < 1:
            raise SparseFormatError(f"block_rows must be >= 1, got {block_rows}")
        starts = _row_starts(csr.shape[0], int(block_rows))
        blocks = [
            _slice_rows(csr, int(r0), int(r1))
            for r0, r1 in zip(starts[:-1], starts[1:])
        ]
        return cls(csr.shape, starts, blocks)

    def to_csr(self) -> CSRMatrix:
        """Reassemble the blocks into one canonical :class:`CSRMatrix`."""
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        offset = 0
        for k, blk in enumerate(self.blocks):
            r0 = int(self.row_starts[k])
            r1 = int(self.row_starts[k + 1])
            indptr[r0 + 1 : r1 + 1] = blk.indptr[1:] + offset
            offset += blk.nnz
        if self.blocks:
            indices = np.concatenate([b.indices for b in self.blocks])
            data = np.concatenate([b.data for b in self.blocks])
        else:  # zero-row matrix
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.int64)
        return CSRMatrix(self.shape, indptr, indices, data, _trusted=True)

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    def block(self, k: int) -> CSRMatrix:
        """The *k*-th row block."""
        return self.blocks[k]

    def block_spans(self) -> list[tuple[int, int]]:
        """``(row_start, row_end)`` of every block."""
        return [
            (int(r0), int(r1))
            for r0, r1 in zip(self.row_starts[:-1], self.row_starts[1:])
        ]

    def __repr__(self) -> str:
        return (
            f"BlockedCSR(shape={self.shape}, n_blocks={self.n_blocks}, nnz={self.nnz})"
        )


# ---------------------------------------------------------------------- #
# the row-block protocol: operand tags, the task, the driver
# ---------------------------------------------------------------------- #


class _Rows(NamedTuple):
    """Operand each task sees cut to its ``[lo, hi)`` span (CSR rows, array positions)."""

    value: Any


class _Whole(NamedTuple):
    """An operand each task sees intact (``mxm``'s ``B``, the ``x`` vector)."""

    value: Any


def _resolve(op: Any, lo: int, hi: int) -> Any:
    """What a block task sees for *op*: shared-memory refs are attached,
    ``_Rows`` are cut to ``[lo, hi)``, everything else passes through."""
    if not isinstance(op, (_Rows, _Whole)):
        return op
    value = op.value
    if isinstance(value, (_shm.CSRRef, _shm.ArrayRef)):  # shm transport
        value = (_shm.attach_csr if isinstance(value, _shm.CSRRef) else _shm.attach_array)(value)
    if isinstance(op, _Whole):
        return value
    return _slice_rows(value, lo, hi) if isinstance(value, CSRMatrix) else value[lo:hi]


def _block_task(payload: tuple) -> Any:
    """The one executor task (module-level so the process backend can pickle it)."""
    kernel, ops, lo, hi = payload
    return kernel(*(_resolve(op, lo, hi) for op in ops))


def _export(op: Any, lease: _shm.OperandLease) -> Any:
    """*op* with its value swapped for a shared-memory ref (constants as-is)."""
    if not isinstance(op, (_Rows, _Whole)):
        return op
    csr = isinstance(op.value, CSRMatrix)
    return type(op)((lease.export_csr if csr else lease.export_array)(op.value))


def _route(config: RuntimeConfig | None, n_rows: int, work: int) -> RuntimeConfig | None:
    """The serial-or-blocked decision for every kernel: the config to run
    blocked under, or ``None`` for the serial kernel.

    An explicit *config* always runs blocked (the equality tests and oracles
    pin routes this way); otherwise the active config's
    :func:`~repro.runtime.config.parallel_config` judges *work*, the
    kernel's own measure, and an operand of one row never blocks.
    """
    if config is not None:
        return config
    return parallel_config(work) if n_rows > 1 else None


def _run_blocked(
    name: str,
    config: RuntimeConfig | None,
    kernel: Callable[..., Any],
    ops: tuple,
    *,
    n_rows: int = 0,
    work: int,
    gate: int | None = None,
    spans: list[tuple[int, int]] | None = None,
    nnz_in: int | None = None,
    out_dtype: Callable[[], np.dtype] | None = None,
    **attrs: int,
) -> Any:
    """Run *kernel* over *ops* once per span; assemble a CSR, vector or triples.

    :func:`_route` first decides on *gate* (default *work*); on the serial
    route *kernel* runs once over the whole operands, uninstrumented.
    *spans* default to the row tiling of an *n_rows* operand carrying *work*
    entries.  *out_dtype* is a thunk, so user-operator dtype probes run only
    after the dispatch; CSR blocks are cast to it.
    """
    cfg = _route(config, n_rows, work if gate is None else gate)
    if cfg is None:
        return kernel(*[op.value if isinstance(op, (_Rows, _Whole)) else op for op in ops])
    if spans is None:
        starts = _row_starts(n_rows, choose_block_rows(n_rows, work, cfg.workers, cfg.block_rows))
        spans = [(int(r0), int(r1)) for r0, r1 in zip(starts[:-1], starts[1:])]
    with _kernel_obs(name, cfg, work if nnz_in is None else nnz_in) as span:
        tagged = [op.value for op in ops if isinstance(op, (_Rows, _Whole))]
        shared = cfg.use_shm(
            sum(_shm.csr_nbytes(v) if isinstance(v, CSRMatrix) else int(v.nbytes) for v in tagged)
        )
        route = "shm" if shared else "inline"
        span.set(blocks=len(spans), route=route, **attrs)
        with (_shm.OperandLease() if shared else nullcontext()) as lease:
            if lease is None:  # inline: the parent cuts and ships every block
                tasks = [(kernel, tuple(_resolve(op, lo, hi) for op in ops), lo, hi) for lo, hi in spans]
            else:  # shm: export once; every worker attaches and cuts its own block
                refs = tuple(_export(op, lease) for op in ops)
                tasks = [(kernel, refs, lo, hi) for lo, hi in spans]
            parts = get_executor(cfg).map(
                _block_task, tasks, label=f"{name} ({len(spans)} {route} blocks)"
            )
        if isinstance(parts[0], CSRMatrix):
            dtype = None if out_dtype is None else out_dtype()
            parts = [  # an empty block carries the operands' dtype, not the kernel's
                p if dtype is None or p.dtype == dtype
                else CSRMatrix(p.shape, p.indptr, p.indices, p.data.astype(dtype), _trusted=True)
                for p in parts
            ]
            starts = [lo for lo, _ in spans] + [spans[-1][1]]
            out = BlockedCSR((starts[-1], parts[0].shape[1]), starts, parts).to_csr()
            span.set(nnz_out=out.nnz)
        elif isinstance(parts[0], tuple):  # coalesce: one (rows, cols, vals) per span
            out = tuple(np.concatenate(column) for column in zip(*parts))
            span.set(nnz_out=int(out[0].size))
        else:
            out = np.concatenate(parts)
            if span is not _trace.NULL_SPAN:  # count_nonzero is O(n); trace-only
                span.set(nnz_out=int(np.count_nonzero(out)))
        return out


def _check(ok: bool, message: str, *args: object) -> None:
    """Raise ``SparseFormatError(message.format(*args))`` unless *ok*; the
    message is built only on failure, since checks run on every call."""
    if not ok:
        raise SparseFormatError(message.format(*args))


def _mult_probe(mult: Callable[..., Any], a: CSRMatrix, b: CSRMatrix) -> np.dtype:
    """The dtype *mult* gives the operands' values (one-element probe)."""
    return np.asarray(mult(a.data[:1], b.data[:1])).dtype


def _union_all_block(add: Monoid, mask: Any, complement: bool, *parts: CSRMatrix) -> CSRMatrix:
    return _sparse._union_all_serial(parts, add, mask, complement)


def _terms(a: CSRMatrix, b: CSRMatrix) -> int:
    """The expanded ESC term count of ``a ⊕.⊗ b``: the product kernels' gate work."""
    return int(b.row_nnz()[a.indices].sum())


# ---------------------------------------------------------------------- #
# the kernels (entered by repro.assoc.sparse and repro.assoc.planner)
#
# Shape checks come before the driver's gate, so the serial and blocked
# routes reject the same malformed operands.
#
# Masks share the operand's row tiling, so each block task sees exactly the
# mask rows it owns; masked filtering is per-row, so a row partition of the
# masked kernel is a partition of the masked serial output.
# ---------------------------------------------------------------------- #


def parallel_mxm(
    a: CSRMatrix, b: CSRMatrix, semiring: Semiring, config: RuntimeConfig | None = None
) -> CSRMatrix:
    """Row-blocked parallel ESC product, bit-identical to ``a.mxm(b)`` serial.

    ``config=None``: serial unless the expanded term count clears the gate.
    """
    _check(a.shape[1] == b.shape[0], "inner dimension mismatch: {} @ {}", a.shape, b.shape)
    return _run_blocked(
        "parallel_mxm", config, CSRMatrix._mxm_serial, (_Rows(a), _Whole(b), semiring),
        n_rows=a.shape[0], work=a.nnz, gate=_terms(a, b), nnz_in=a.nnz + b.nnz,
        out_dtype=lambda: _sparse._mxm_out_dtype(a, b, semiring.mult),
    )


def parallel_mxv(
    a: CSRMatrix, x: np.ndarray, semiring: Semiring, config: RuntimeConfig | None = None
) -> np.ndarray:
    """Row-blocked parallel matrix-vector product.

    ``config=None``: serial unless ``a.nnz`` clears the gate.
    """
    x = np.asarray(x)
    _check(x.shape == (a.shape[1],), "vector length {} != {}", x.shape, (a.shape[1],))
    return _run_blocked(
        "parallel_mxv", config, CSRMatrix._mxv_serial, (_Rows(a), _Whole(x), semiring),
        n_rows=a.shape[0], work=a.nnz,
    )


def parallel_ewise_union(
    a: CSRMatrix, b: CSRMatrix, add: Monoid, config: RuntimeConfig | None = None
) -> CSRMatrix:
    """Row-blocked element-wise union: both operands share one tiling.

    ``config=None``: serial unless ``a.nnz + b.nnz`` clears the gate.
    """
    a._check_shape(b)
    return _run_blocked(
        "parallel_ewise_union", config, CSRMatrix._ewise_union_serial, (_Rows(a), _Rows(b), add),
        n_rows=a.shape[0], work=a.nnz + b.nnz, out_dtype=lambda: np.result_type(a.dtype, b.dtype),
    )


def parallel_ewise_intersect(
    a: CSRMatrix, b: CSRMatrix, mult, config: RuntimeConfig | None = None  # noqa: ANN001
) -> CSRMatrix:
    """Row-blocked element-wise intersection.

    ``config=None``: serial unless ``a.nnz + b.nnz`` clears the gate.
    """
    a._check_shape(b)
    return _run_blocked(
        "parallel_ewise_intersect", config, CSRMatrix._ewise_intersect_serial,
        (_Rows(a), _Rows(b), mult), n_rows=a.shape[0], work=a.nnz + b.nnz,
        out_dtype=lambda: _mult_probe(mult, a, b),
    )


def parallel_coalesce(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    add: Monoid,
    config: RuntimeConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition triples by row block, coalesce blocks concurrently, concat.

    The stable block partition keeps each coordinate's duplicates in their
    original relative order inside exactly one block, so per-block stable
    sorts and ``reduceat`` reproduce the serial output bit-for-bit.
    ``config=None``: serial unless the triple count clears the gate.
    """
    same = rows.ndim == 1 and rows.shape == cols.shape == vals.shape
    _check(same, "triple arrays must be equal-length 1-D, got {}, {}", rows.shape, cols.shape)
    n_rows = shape[0]
    cfg = _route(config, n_rows, int(rows.size))
    if cfg is None:
        return _sparse._coalesce_core(rows, cols, vals, shape, add)
    block_rows = choose_block_rows(n_rows, rows.size, cfg.workers, cfg.block_rows)
    n_blocks = -(-n_rows // block_rows) if n_rows else 1
    if n_blocks <= 1 or rows.size == 0:
        # zero triples would leave every block empty below (nothing to
        # concatenate); the serial core already handles that shape exactly
        return _sparse._coalesce_core(rows, cols, vals, shape, add)
    block_id = rows // np.int64(block_rows)
    order = np.argsort(block_id, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(block_id, minlength=n_blocks))])
    spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    return _run_blocked(
        "parallel_coalesce", cfg, _sparse._coalesce_core,
        (_Rows(rows[order]), _Rows(cols[order]), _Rows(vals[order]), shape, add),
        spans=spans, work=int(rows.size),
    )


def parallel_masked_mxm(
    a: CSRMatrix,
    b: CSRMatrix,
    semiring: Semiring,
    mask: CSRMatrix,
    config: RuntimeConfig | None = None,
) -> CSRMatrix:
    """Row-blocked fused masked product, bit-identical to the serial masked
    kernel (and therefore to eager-then-filter).

    ``config=None``: serial unless the unmasked expanded term count clears
    the gate.
    """
    _check(a.shape[1] == b.shape[0], "inner dimension mismatch: {} @ {}", a.shape, b.shape)
    out_shape = (a.shape[0], b.shape[1])
    _check(mask.shape == out_shape, "mask shape {} != product shape {}", mask.shape, out_shape)
    out_dtype = _sparse._mxm_out_dtype(a, b, semiring.mult)
    return _run_blocked(
        "parallel_masked_mxm", config, _sparse._masked_mxm_serial,
        (_Rows(a), _Whole(b), semiring, _Rows(mask), out_dtype),
        n_rows=a.shape[0], work=a.nnz, gate=_terms(a, b), nnz_in=a.nnz + b.nnz,
        out_dtype=lambda: out_dtype, mask_nnz=mask.nnz,
    )


def parallel_masked_mxv(
    a: CSRMatrix,
    x: np.ndarray,
    semiring: Semiring,
    allow: np.ndarray,
    config: RuntimeConfig | None = None,
) -> np.ndarray:
    """Row-blocked masked matrix-vector product.

    ``config=None``: serial unless ``a.nnz`` clears the gate.
    """
    x = np.asarray(x)
    allow = np.asarray(allow)
    _check(x.shape == (a.shape[1],), "vector length {} != {}", x.shape, (a.shape[1],))
    _check(allow.shape == (a.shape[0],), "allow length {} != {}", allow.shape, (a.shape[0],))
    return _run_blocked(
        "parallel_masked_mxv", config, _sparse._masked_mxv_serial,
        (_Rows(a), _Whole(x), semiring, _Rows(allow)), n_rows=a.shape[0], work=a.nnz,
    )


def parallel_masked_intersect(
    a: CSRMatrix,
    b: CSRMatrix,
    mult,  # noqa: ANN001
    mask: CSRMatrix,
    complement: bool,
    config: RuntimeConfig | None = None,
) -> CSRMatrix:
    """Row-blocked fused masked element-wise intersection.

    ``config=None``: serial unless ``a.nnz + b.nnz`` clears the gate.
    """
    a._check_shape(b)
    a._check_shape(mask)
    return _run_blocked(
        "parallel_masked_intersect", config, _sparse._masked_intersect_serial,
        (_Rows(a), _Rows(b), mult, _Rows(mask), complement),
        n_rows=a.shape[0], work=a.nnz + b.nnz,
        out_dtype=lambda: _mult_probe(mult, a, b), mask_nnz=mask.nnz,
    )


def parallel_union_all(
    parts: list[CSRMatrix],
    add: Monoid,
    mask: CSRMatrix | None,
    complement: bool,
    config: RuntimeConfig | None = None,
) -> CSRMatrix:
    """Row-blocked n-ary fused union (optionally masked): every operand
    shares one tiling; each block concatenates its slices and coalesces once.

    ``config=None``: serial unless the operands' total nnz clears the gate.
    """
    for other in [*parts[1:], *([] if mask is None else [mask])]:
        parts[0]._check_shape(other)
    return _run_blocked(
        "parallel_union_all", config, _union_all_block,
        (add, None if mask is None else _Rows(mask), complement, *map(_Rows, parts)),
        n_rows=parts[0].shape[0], work=sum(p.nnz for p in parts),
        out_dtype=lambda: np.result_type(*(p.dtype for p in parts)), parts=len(parts),
    )
