"""Shared-memory transport of the row-block protocol (``process`` backend).

The inline transport pickles every operand into every row-block task:
an ``mxm`` cut into 16 blocks ships 16 full pickles of ``B`` through the
executor queue.  This module replaces those copies with
:mod:`multiprocessing.shared_memory` segments: the dispatching process
exports each operand **once** (one memcpy into a segment), task payloads
carry only ``(segment names, dtype, shape, block range)``, and every worker
attaches to the same segment and reads its block zero-copy.  Results still
stream back per block and are assembled exactly as on the inline path, so
the serial ≡ blocked bit-identity contract is untouched — the plane changes
how bytes travel, never what is computed.

Lifecycle is explicit and leak-proof:

* the parent side wraps every export in an :class:`OperandLease` — a small
  refcounted registry entry whose :meth:`~OperandLease.release` both
  ``close()``\\ s and ``unlink()``\\ s every segment, runs exactly once, and
  is guaranteed by ``with`` blocks at every kernel dispatch site (normal
  completion, raising tasks, and worker crashes all pass through the same
  ``finally``);
* :func:`release_all` sweeps any lease still live — it is wired into
  :func:`repro.runtime.executor.shutdown_executors` (pool teardown) and
  ``atexit``, so even an abandoned lease cannot outlive the process;
* workers keep a small per-process LRU of attachments
  (:data:`MAX_ATTACHED_SEGMENTS`), so the many block tasks of one kernel
  call — and consecutive calls in a batch — attach each segment once
  instead of once per task.  Attached arrays are marked read-only: a kernel
  scribbling on a shared operand raises instead of corrupting its siblings.

Only the dispatching side ever creates or unlinks; ownership is pinned to
the creating PID so a forked worker can never tear down its parent's
segments.
"""

from __future__ import annotations

import atexit
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SharedMemoryError
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.assoc.sparse import CSRMatrix

__all__ = [
    "SEGMENT_PREFIX",
    "MAX_ATTACHED_SEGMENTS",
    "ArrayRef",
    "CSRRef",
    "OperandLease",
    "csr_nbytes",
    "attach_array",
    "attach_csr",
    "detach_all",
    "live_segment_names",
    "release_all",
]

#: Every segment this plane creates is named ``repro-shm-<pid>-<seq>`` — the
#: prefix makes leak checks a directory listing (``/dev/shm/repro-shm-*``).
SEGMENT_PREFIX = "repro-shm"

#: Upper bound on cached worker-side attachments.  Eviction is LRU; one
#: kernel call references at most a handful of segments, so the cache spans
#: many consecutive calls before recycling a mapping.
MAX_ATTACHED_SEGMENTS = 64


def csr_nbytes(csr: "CSRMatrix") -> int:
    """Resident bytes of a CSR operand (the shm-threshold currency)."""
    return int(csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes)


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to one ndarray living in a shared segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    nbytes: int


@dataclass(frozen=True)
class CSRRef:
    """A picklable handle to a full CSR matrix (three shared arrays)."""

    shape: tuple[int, int]
    indptr: ArrayRef
    indices: ArrayRef
    data: ArrayRef

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes


# ---------------------------------------------------------------------- #
# parent side: export + lease registry
# ---------------------------------------------------------------------- #

_registry_lock = threading.Lock()
_live_leases: "dict[int, OperandLease]" = {}
_segment_seq = 0


def _next_segment_name() -> str:
    global _segment_seq
    with _registry_lock:
        _segment_seq += 1
        return f"{SEGMENT_PREFIX}-{os.getpid()}-{_segment_seq}"


class OperandLease:
    """Parent-side owner of a set of exported segments.

    Use as a context manager around the executor fan-out::

        with OperandLease() as lease:
            a_ref = lease.export_csr(a)
            parts = executor.map(task, [(a_ref, r0, r1) for ...])
        # segments closed + unlinked here, success or not

    ``release()`` is idempotent and pinned to the creating process: a forked
    worker inheriting the object cannot unlink the parent's segments.
    """

    def __init__(self) -> None:
        self._owner_pid = os.getpid()
        self._segments: list[shared_memory.SharedMemory] = []
        self._released = False
        self._lock = threading.Lock()
        self._created_ns = _metrics.monotonic_ns()
        with _registry_lock:
            _live_leases[id(self)] = self

    # -- exports ------------------------------------------------------- #

    def export_array(self, arr: np.ndarray) -> ArrayRef:
        """Copy *arr* into a fresh segment and return its handle.

        The one copy here replaces a pickle copy **per task**; workers read
        the segment zero-copy.  Non-contiguous input is compacted first.
        """
        if self._released:
            raise SharedMemoryError("cannot export through a released lease")
        arr = np.ascontiguousarray(arr)
        nbytes = int(arr.nbytes)
        seg = self._create_segment(max(1, nbytes))
        if nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
        _metrics.counter("shm.bytes_exported").inc(nbytes)
        return ArrayRef(
            name=seg.name,
            shape=tuple(int(d) for d in arr.shape),
            dtype=arr.dtype.str,
            nbytes=nbytes,
        )

    def export_csr(self, csr: "CSRMatrix") -> CSRRef:
        """Export a CSR operand as three shared arrays."""
        return CSRRef(
            shape=(int(csr.shape[0]), int(csr.shape[1])),
            indptr=self.export_array(csr.indptr),
            indices=self.export_array(csr.indices),
            data=self.export_array(csr.data),
        )

    def _create_segment(self, size: int) -> shared_memory.SharedMemory:
        while True:
            name = _next_segment_name()
            try:
                seg = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - stale name collision
                continue
            with self._lock:
                self._segments.append(seg)
            _metrics.counter("shm.segments_created").inc()
            _metrics.gauge("shm.live_segments").inc()
            return seg

    # -- lifecycle ------------------------------------------------------ #

    @property
    def released(self) -> bool:
        return self._released

    def segment_names(self) -> list[str]:
        with self._lock:
            return [seg.name for seg in self._segments]

    def release(self) -> None:
        """Close and unlink every segment; runs at most once, owner only."""
        with self._lock:
            if self._released:
                return
            self._released = True
            segments, self._segments = self._segments, []
        with _registry_lock:
            _live_leases.pop(id(self), None)
        if os.getpid() != self._owner_pid:
            # forked child inheriting the lease: the parent owns the names
            return
        for seg in segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported view still alive
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        if segments:
            _metrics.counter("shm.segments_unlinked").inc(len(segments))
            _metrics.gauge("shm.live_segments").dec(len(segments))
            _metrics.histogram("shm.lease_ms").observe(
                (_metrics.monotonic_ns() - self._created_ns) / 1e6
            )

    def __enter__(self) -> "OperandLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else f"{len(self._segments)} segment(s)"
        return f"OperandLease({state}, owner={self._owner_pid})"


def live_segment_names() -> list[str]:
    """Names of every segment still held by an unreleased lease of this
    process — the leak-check surface (empty after any well-behaved kernel)."""
    with _registry_lock:
        leases = [
            lease for lease in _live_leases.values() if lease._owner_pid == os.getpid()
        ]
    names: list[str] = []
    for lease in leases:
        names.extend(lease.segment_names())
    return names


def release_all() -> int:
    """Release every live lease owned by this process; returns segments freed.

    Wired into :func:`repro.runtime.executor.shutdown_executors` and
    ``atexit`` — the backstop that makes pool teardown (and interpreter exit)
    unlink anything a crashed caller abandoned.
    """
    with _registry_lock:
        leases = [
            lease for lease in _live_leases.values() if lease._owner_pid == os.getpid()
        ]
    freed = 0
    for lease in leases:
        freed += len(lease.segment_names())
        lease.release()
    return freed


atexit.register(release_all)


# ---------------------------------------------------------------------- #
# worker side: attach cache
# ---------------------------------------------------------------------- #

_attached: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_attach_lock = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    with _attach_lock:
        seg = _attached.get(name)
        if seg is not None:
            _attached.move_to_end(name)
            _metrics.counter("shm.attach_hits").inc()
            return seg
        _metrics.counter("shm.attach_misses").inc()
        # On CPython < 3.13 attaching ALSO registers the segment with the
        # multiprocessing resource tracker.  The exporting parent is the sole
        # owner (it registers on create and unregisters on unlink, both from
        # one process, so its ledger is always balanced) — a worker-side
        # registration can only corrupt that ledger: under a fork-shared
        # tracker an extra unregister makes the parent's unlink raise KeyError
        # in the tracker, and under a private per-worker tracker the stale
        # entry produces an ENOENT warning at shutdown.  Suppress the
        # registration at the source instead; ``_attach_lock`` is held, and
        # workers run tasks single-threaded, so the patch window is private.
        from multiprocessing import resource_tracker

        unpatched = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None  # type: ignore[assignment]
        try:
            seg = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise SharedMemoryError(
                f"shared segment {name!r} is gone (lease released early?)"
            ) from exc
        finally:
            resource_tracker.register = unpatched
        _attached[name] = seg
        while len(_attached) > MAX_ATTACHED_SEGMENTS:
            _, evicted = _attached.popitem(last=False)
            try:
                evicted.close()
            except BufferError:  # pragma: no cover - a view is still borrowed
                pass
        return seg


def attach_array(ref: ArrayRef) -> np.ndarray:
    """A read-only zero-copy view of the exported array *ref* names.

    Attachments are cached per process (LRU, :data:`MAX_ATTACHED_SEGMENTS`),
    so the block tasks of one kernel call — and consecutive calls in a batch
    — map each segment once.
    """
    seg = _attach_segment(ref.name)
    view: np.ndarray = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    view.flags.writeable = False
    return view


def attach_csr(ref: CSRRef) -> "CSRMatrix":
    """Reconstitute a :class:`~repro.assoc.sparse.CSRMatrix` over shared
    buffers (already-canonical arrays, so construction is trusted)."""
    from repro.assoc.sparse import CSRMatrix

    return CSRMatrix(
        ref.shape,
        attach_array(ref.indptr),
        attach_array(ref.indices),
        attach_array(ref.data),
        _trusted=True,
    )


def detach_all() -> int:
    """Close every cached attachment (worker teardown); returns the count."""
    with _attach_lock:
        segments = list(_attached.values())
        _attached.clear()
    closed = 0
    for seg in segments:
        try:
            seg.close()
            closed += 1
        except BufferError:  # pragma: no cover - a view is still borrowed
            pass
    return closed


atexit.register(detach_all)
