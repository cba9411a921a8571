"""The workloads: inputs from a seed, one op each, and its reference check.

Every workload builds its inputs from ``--seed`` only, times calls into the
program's public surface, and checks each op against an independent
reference outside the op's latency.  ``layer_metrics`` adds the traced run's
per-layer numbers: spans recorded around the same calls (see
:mod:`tracing`), deltas of the always-on ``repro.obs`` registry, and short
direct measurements of single layers.  The verify layer (the oracle battery
and the store write lifecycle it drives) is measured in the traced run of
``serve_cold``, over specs that workload serves.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from harness import matrix_digest
from tracing import SpanLog, self_times

from repro import obs, runtime
from repro.analysis import merge_windows
from repro.assoc import PLUS_TIMES, AssociativeArray, CSRMatrix, Mat, union_all
from repro.scenarios import ScenarioCache, ScenarioService, ScenarioSpec
from repro.store import ScenarioStore
from repro.verify import CorpusConfig, random_spec, run_corpus
from repro.verify.oracles import default_oracles

#: Specs per service request: about the size of the built-in catalogue.
BATCH = 31

#: Classroom sizes, the paper's 10x10 up to n=60.  Specs cycle through them
#: in a fixed order, so every seed serves the same mix of sizes; half carry
#: noise and about a third carry overlays (attack, defense, ...).
CLASS_SIZES = tuple(range(10, 61, 5))
CLASSROOM = [
    CorpusConfig(n_range=(n, n), noise_probability=0.5, overlay_probability=0.3)
    for n in CLASS_SIZES
]


def classroom_specs(rng: np.random.Generator, count: int) -> list[ScenarioSpec]:
    """*count* specs from every registered family, distinct seeds, sizes cycled."""
    first = int(rng.integers(0, 2**30))
    return [
        dataclasses.replace(random_spec(rng, CLASSROOM[k % len(CLASSROOM)]), seed=first + k)
        for k in range(count)
    ]


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _histogram_delta(before: dict, after: dict, name: str) -> tuple[int, float]:
    """(count, sum) observed into histogram *name* between two snapshots."""
    empty = {"count": 0, "sum": 0.0}
    a = after["histograms"].get(name, empty)
    b = before["histograms"].get(name, empty)
    return a["count"] - b["count"], a["sum"] - b["sum"]


def _median_us(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e6 if seconds else 0.0


def _timed(fn, *, budget: float = 0.15, min_reps: int = 5, max_reps: int = 200) -> float:
    """Median seconds of ``fn()`` over repetitions filling *budget* seconds."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_reps or (
        len(times) < max_reps and time.perf_counter() - start < budget
    ):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def store_micro(specs: list[ScenarioSpec], root: Path) -> dict[str, float]:
    """Direct store timings on a fresh store: lifecycle, put, get."""
    matrices = [spec.build() for spec in specs]
    lifecycle: list[float] = []
    for k in range(8):
        t0 = time.perf_counter()
        ScenarioStore(root / f"life{k}", fsync=False).close()
        lifecycle.append(time.perf_counter() - t0)
    puts: list[float] = []
    gets: list[float] = []
    with ScenarioStore(root / "micro", fsync=False) as store:
        for spec, matrix in zip(specs, matrices):
            t0 = time.perf_counter()
            store.put(spec, matrix)
            puts.append(time.perf_counter() - t0)
        for spec in specs:
            t0 = time.perf_counter()
            store.get(spec)
            gets.append(time.perf_counter() - t0)
    return {
        "store.put_us_p50": _median_us(puts),
        "store.get_us_p50": _median_us(gets),
        "store.open_close_ms_mean": statistics.mean(lifecycle) * 1e3,
    }


class Workload:
    """Base: an event loop, a span log slot, and the default hooks."""

    name = ""
    why = ""
    clients = 1
    pending_limit = 1  # outputs held before the clients pause for checks

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.log: SpanLog | None = None
        self.loop: asyncio.AbstractEventLoop | None = None

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None

    def trace(self, log: SpanLog) -> None:
        """Switch to traced mode: later ops record spans into *log*."""
        self.log = log

    def layer_metrics(self, before: dict, after: dict, ops: int) -> dict[str, float]:
        return {}


# --------------------------------------------------------------------------- #
# serve_cold / serve_warm: the scenario service in a closed loop
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class TracedSpec(ScenarioSpec):
    """A spec whose ``build`` is timed as a ``build`` span of its op.

    Same fields, cache key and built matrix as the :class:`ScenarioSpec` it
    copies; the span log and op id ride along as plain attributes.
    """

    def build(self):
        log, op = self.__dict__["_trace"]
        with log.span("build.spec", op):
            return super().build()


def _traced(spec: ScenarioSpec, log: SpanLog, op: int) -> TracedSpec:
    copy = TracedSpec(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)})
    object.__setattr__(copy, "_trace", (log, op))
    return copy


class TracedCache(ScenarioCache):
    """The service's cache, with ``get``/``put`` timed as ``cache`` spans."""

    def __init__(self, log: SpanLog, **kwargs) -> None:
        super().__init__(**kwargs)
        self.log = log

    def get(self, spec):
        with self.log.span("cache.get", spec.__dict__["_trace"][1]):
            return super().get(spec)

    def put(self, spec, matrix):
        with self.log.span("cache.put", spec.__dict__["_trace"][1]):
            return super().put(spec, matrix)


class TracedStore:
    """A store wrapper for the cache's L2 tier, timing ``get``."""

    def __init__(self, store: ScenarioStore, log: SpanLog) -> None:
        self._store = store
        self.log = log

    def get(self, key):
        with self.log.span("store.get", self.log.current_op):
            return self._store.get(key)

    def __getattr__(self, name):
        return getattr(self._store, name)


class _Serve(Workload):
    """Shared closed loop: one client awaiting ``ScenarioService.generate``.

    One client, not ``nproc``: the service already runs up to four builds at
    once on its own threads, and a second client on the same event loop adds
    only contention, which moves with the host's load.  Interleaved 3 s
    windows in one process on a 2-vCPU VM, coefficient of variation of
    throughput: serve_cold 0.127 with two clients, 0.108 with one;
    serve_warm 0.111 and 0.101.
    """

    clients = 1
    pending_limit = 16  # a pause per 16 batches; 16 x 31 matrices held

    def _start_service(self, cache: ScenarioCache) -> None:
        self.service = ScenarioService(cache=cache)
        self.cache = cache
        self.run(self.service.start())

    def _stop_service(self) -> None:
        if getattr(self, "service", None) is not None:
            self.run(self.service.stop())
            self.service = None

    def _request(self, specs: list[ScenarioSpec], op_id: int) -> list[ScenarioSpec]:
        if self.log is None:
            return specs
        return [_traced(spec, self.log, op_id) for spec in specs]

    async def op(self, op):
        op_id, specs = op[:2]
        if self.log is None:
            return await self.service.generate(specs)
        with self.log.span("service.generate", op_id):
            return await self.service.generate(specs)

    def observe(self, op, output) -> list[bytes]:
        return [matrix_digest(matrix) for matrix in output]

    def close(self) -> None:
        self._stop_service()
        super().close()

    def _serve_layers(self, before: dict, after: dict, ops: int) -> dict[str, float]:
        log = self.log
        own, remainder, _ = self_times(log)
        waits, wait_sum = _histogram_delta(before, after, "scenario.queue_wait_ms")
        builds, build_sum = _histogram_delta(before, after, "scenario.build_ms")
        tiers = self.cache.analytics()
        requests = max(tiers.requests, 1)
        out = {
            "service.request_self_ms": own["service"],
            "service.queue_wait_ms_mean": wait_sum / waits if waits else 0.0,
            "service.specs_failed": float(
                _counter_delta(before, after, "scenario.specs_failed")
            ),
            "build.ms_mean": build_sum / builds if builds else 0.0,
            "build.calls": float(builds),
            "cache.get_us_p50": _median_us(log.durations("cache.get")),
            "cache.put_us_p50": _median_us(log.durations("cache.put")),
            "cache.l1_hit_ratio": tiers.l1_hits / requests,
            "cache.l2_hit_ratio": tiers.l2_hits / requests,
            "cache.evictions_per_op": tiers.evictions / max(ops, 1),
            "cache.promotions_per_op": tiers.promotions / max(ops, 1),
            "self.unattributed_ms": remainder,
        }
        out.update({f"self.{layer}_ms": ms for layer, ms in own.items()})
        return out


class ServeCold(_Serve):
    name = "serve_cold"
    why = (
        "every spec is new, so the cache always misses: service dispatch, "
        "scenario build and cache.put do the work"
    )

    # distinct spec shapes; a run samples them at random.  Every template
    # is an object the program's garbage collector walks in each full
    # collection, so there are no more of them than serve_warm's universe.
    TEMPLATES = 1024
    BATCHES = 4096  # request index rows drawn up front; reused cyclically

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng(self.seed)
        self.templates = classroom_specs(rng, self.TEMPLATES)
        self.requests = rng.integers(0, self.TEMPLATES, size=(self.BATCHES, BATCH))
        # a fresh seed for every spec served: no request ever repeats
        self.next_seed = int(rng.integers(0, 2**30))
        self._start_service(ScenarioCache())
        self.run(self.service.generate(self.next_op(self.BATCHES - 1)[1]))  # warm-up

    def _fresh(self, row: int, first: int) -> list[ScenarioSpec]:
        """Request *row*'s templates with seeds ``first``, ``first + 1``, ..."""
        return [
            dataclasses.replace(self.templates[k], seed=first + j)
            for j, k in enumerate(self.requests[row % self.BATCHES])
        ]

    def next_op(self, op_id: int):
        first = self.next_seed
        self.next_seed += BATCH
        specs = self._fresh(op_id, first)
        if self.log is not None and len(self.served) < self.VERIFIED:
            self.served.extend(specs[: self.VERIFIED - len(self.served)])
        return op_id, self._request(specs, op_id), first

    def observe(self, op, output) -> tuple[int, int, list[bytes]]:
        # (row, first seed) rebuild the specs for the check, so the window
        # keeps no spec objects alive for the garbage collector to walk
        return op[0], op[2], super().observe(op, output)

    def check(self, token) -> bool:
        row, first, digests = token
        return digests == [
            matrix_digest(ScenarioSpec.build(spec)) for spec in self._fresh(row, first)
        ]

    #: Served specs the oracle battery re-checks in the traced run: the
    #: first ones the traced run sends to the service.
    VERIFIED = 8

    def trace(self, log: SpanLog) -> None:
        super().trace(log)
        self.served: list[ScenarioSpec] = []
        self._stop_service()
        self._start_service(TracedCache(log))

    def layer_metrics(self, before, after, ops):
        out = self._serve_layers(before, after, ops)
        out.update(verify_layer(self.served, self.workdir))
        return out


class ServeWarm(_Serve):
    name = "serve_warm"
    why = (
        "Zipf requests over a pre-built store 4x the L1 size: L1 hits, L2 "
        "reads with promotion and evictions, no builds"
    )

    UNIVERSE = 1024  # 4x the default L1 capacity (256 entries)
    ZIPF_S = 1.0
    BATCHES = 4096  # request index rows drawn up front; reused cyclically

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng(self.seed)
        # rank r is universe[r]: the hot set spans every class size
        self.universe = classroom_specs(rng, self.UNIVERSE)
        self.store_root = Path(tempfile.mkdtemp(prefix="store", dir=self.workdir))
        # the workload measures reads; fsync on population would time the disk
        self.store = ScenarioStore(self.store_root, fsync=False)
        self.reference = []
        for spec in self.universe:
            matrix = spec.build()
            self.store.put(spec, matrix)
            self.reference.append(matrix_digest(matrix))
        ranks = np.arange(1, self.UNIVERSE + 1, dtype=float) ** -self.ZIPF_S
        self.requests = rng.choice(
            self.UNIVERSE, size=(self.BATCHES, BATCH), p=ranks / ranks.sum()
        )
        self._start_service(ScenarioCache(store=self.store))
        self.run(self.service.generate(self._batch(self.BATCHES - 1)))  # warm-up

    def _batch(self, row: int) -> list[ScenarioSpec]:
        return [self.universe[k] for k in self.requests[row % self.BATCHES]]

    def next_op(self, op_id: int):
        return op_id, self._request(self._batch(op_id), op_id)

    def observe(self, op, output) -> bool:
        # the references exist up front, so compare now and keep one bool
        rows = self.requests[op[0] % self.BATCHES]
        return super().observe(op, output) == [self.reference[k] for k in rows]

    def check(self, token) -> bool:
        return token

    def close(self) -> None:
        super().close()
        if getattr(self, "store", None) is not None:
            self.store.close()
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store = None

    def trace(self, log: SpanLog) -> None:
        super().trace(log)
        self._stop_service()
        self._start_service(TracedCache(log, store=TracedStore(self.store, log)))
        self.opens = IndexOpenCounter()
        self.opens.active = True

    def layer_metrics(self, before, after, ops):
        self.opens.active = False
        out = self._serve_layers(before, after, ops)
        micro = store_micro(self.universe[:32], self.workdir / "micro")
        out.update(
            {
                "store.get_us_p50": _median_us(self.log.durations("store.get")),
                "store.put_us_p50": micro["store.put_us_p50"],
                "store.open_close_ms_mean": micro["store.open_close_ms_mean"],
                "store.opens_per_op": self.opens.opens / max(ops, 1),
                "store.bytes_read_per_op": _counter_delta(before, after, "store.bytes_read") / max(ops, 1),
                "store.bytes_written_per_op": _counter_delta(before, after, "store.bytes_written") / max(ops, 1),
                "store.index_retries": float(_counter_delta(before, after, "store.index.retries")),
            }
        )
        return out


# --------------------------------------------------------------------------- #
# analytics_kernels: traffic-window pipelines on the assoc kernels
# --------------------------------------------------------------------------- #

#: Window sizes: 48 stays under the default ``min_parallel_work`` (4096
#: expanded terms), 100 crosses it where the thread route loses to serial,
#: 400 and 1600 are where parallel routes can pay.
SIZES = (48, 100, 400, 1600)
#: The timed op runs on one worker.  With ``workers=nproc`` on two vCPUs any
#: load beside the benchmark stalls the thread route: a busy loop at 50% of
#: one core made the op's median 31% slower on two workers and 4% slower on
#: one, too much for a 0.25 bound between two sets of runs.  The parallel
#: routes are timed per kernel and size in the traced run's route table.
OP_WORKERS = 1
DEGREE = 8  # links per host in the merged matrix
WINDOWS = 4  # capture windows per size
COPIES = 2  # windows each link appears in
KERNELS = ("mxm", "masked_mxm", "union_all", "reduce_rows")
LOSS_MARGIN = 0.05  # timing noise below which a route does not count as losing
WORKERS = os.cpu_count() or 1  # one load generator, at most nproc workers
ROUTES = {
    "serial": {"workers": 1},
    "thread": {"workers": WORKERS, "backend": "thread", "min_parallel_work": 1},
    "process": {"workers": WORKERS, "backend": "process", "min_parallel_work": 1},
}


def _labels(n: int) -> np.ndarray:
    return np.array([f"10.{k // 200}.{k % 200}.{(k * 7) % 250 + 1}" for k in range(n)])


class TrafficWindows:
    """One window set of size *n*, its firewall mask and scipy references.

    The merged matrix has exactly ``DEGREE`` links per host in both
    directions (a row and column permutation of ``DEGREE`` cyclic shifts),
    and each link falls in exactly ``COPIES`` of the ``WINDOWS`` windows; the
    mask allows ``DEGREE`` destinations for exactly half the hosts.  So every
    kernel's expanded-term count depends on *n* only, never on the seed.
    """

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        import scipy.sparse as sp

        self.n = n
        labels = _labels(n)
        pos = np.empty(n, dtype=np.int64)
        pos[np.argsort(labels)] = np.arange(n)  # label -> sorted-axis position
        shifts = rng.choice(n, DEGREE, replace=False)
        rows = np.repeat(rng.permutation(n), DEGREE)
        perm = rng.permutation(n)
        cols = perm[(np.arange(n)[:, None] + shifts[None, :]) % n].ravel()
        homes = np.argsort(rng.random((rows.size, WINDOWS)), axis=1)[:, :COPIES]
        self.windows = []
        self.aligned = []  # the same windows as CSR on the merged axes
        ref = sp.csr_matrix((n, n), dtype=np.int64)
        for w in range(WINDOWS):
            sel = (homes == w).any(axis=1)
            vals = rng.integers(1, 10, int(sel.sum())).astype(np.int64)
            self.windows.append(
                AssociativeArray.from_triples(labels[rows[sel]], labels[cols[sel]], vals)
            )
            r, c = pos[rows[sel]], pos[cols[sel]]
            self.aligned.append(CSRMatrix.from_triples(r, c, vals, (n, n)))
            ref = ref + sp.csr_matrix((vals, (r, c)), shape=(n, n))
        watched = rng.choice(n, n // 2, replace=False)
        m_rows = np.repeat(watched, DEGREE)
        m_cols = rng.integers(0, n, m_rows.size)
        self.mask = CSRMatrix.from_triples(
            m_rows, m_cols, np.ones(m_rows.size, dtype=np.int64), (n, n)
        )
        m_ref = sp.csr_matrix(
            (np.ones(m_rows.size, dtype=np.int64), (m_rows, m_cols)), shape=(n, n)
        )
        two_hop = ref @ ref
        masked = two_hop.multiply(m_ref > 0).tocsr()
        masked.eliminate_zeros()
        self.reference = [_canonical(ref), _canonical(two_hop), _canonical(masked)]
        self.row_totals = np.asarray(ref.sum(axis=1)).ravel().astype(np.int64)

    def pipeline(self, log: SpanLog | None = None, op: int = -1):
        """merge_windows -> two-hop mxm -> masked two-hop -> reduce_rows."""
        span = log.span if log is not None else (lambda kind, op: nullcontext())
        with span("analysis.merge_windows", op):
            merged = merge_windows(self.windows).csr
        with span("assoc.mxm", op):
            two_hop = merged.mxm(merged)
        with span("assoc.masked_mxm", op):
            masked = Mat(CSRMatrix.empty((self.n, self.n), np.int64))
            masked(mask=self.mask) << Mat(merged).mxm(Mat(merged))
        with span("assoc.reduce_rows", op):
            totals = merged.reduce_rows()
        return merged, two_hop, masked.csr, totals

    def matches(self, output) -> bool:
        merged, two_hop, masked, totals = output
        for got, want in zip((merged, two_hop, masked), self.reference):
            if got.shape != want[3] or not all(
                np.array_equal(a, b)
                for a, b in zip((got.indptr, got.indices, got.data), want[:3])
            ):
                return False
        return np.array_equal(np.asarray(totals), self.row_totals)

    # -- kernel calls for the route table, one closure per kernel --------- #

    def kernel_calls(self) -> dict:
        merged = merge_windows(self.windows).csr
        lazy = Mat(merged)
        return {
            "mxm": lambda: merged.mxm(merged),
            "masked_mxm": lambda: (lazy.mxm(lazy)).new(mask=self.mask),
            "union_all": lambda: union_all(self.aligned).new(),
            "reduce_rows": lambda: merged.reduce_rows(),
        }

    def terms(self) -> dict[str, int]:
        """Expanded work per kernel, counted from the operands' structure."""
        merged = merge_windows(self.windows).csr
        fan = merged.row_nnz()[merged.indices]  # products per stored entry
        rows = np.repeat(np.arange(self.n), merged.row_nnz())
        watched = self.mask.row_nnz()[rows] > 0
        return {
            "mxm": int(fan.sum()),
            "masked_mxm": int(fan[watched].sum()),
            "union_all": int(sum(part.nnz for part in self.aligned)),
            "reduce_rows": int(merged.nnz),
        }


def _canonical(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    mat = mat.tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return (
        mat.indptr.astype(np.int64),
        mat.indices.astype(np.int64),
        mat.data.astype(np.int64),
        mat.shape,
    )


class AnalyticsKernels(Workload):
    name = "analytics_kernels"
    why = (
        "merge, two-hop, masked two-hop and row totals on packet windows "
        "either side of min_parallel_work, on one worker: assoc kernels and "
        "planner; runtime routes in the route table"
    )

    def setup(self) -> None:
        super().setup()
        runtime.configure(workers=OP_WORKERS, backend="auto")
        rng = np.random.default_rng(self.seed)
        self.sets = [TrafficWindows(n, rng) for n in SIZES]
        for windows in self.sets:  # warm-up: pools and transposes, untimed
            windows.pipeline()

    def close(self) -> None:
        runtime.reset()
        runtime.shutdown_executors()
        super().close()

    def next_op(self, op_id: int):
        return op_id

    async def op(self, op):
        return [windows.pipeline(self.log, op) for windows in self.sets]

    def observe(self, op, output) -> bool:
        # compared here because outputs are too large to keep per op
        return all(w.matches(out) for w, out in zip(self.sets, output))

    def check(self, token) -> bool:
        return bool(token)

    def layer_metrics(self, before, after, ops):
        own, remainder, _ = self_times(self.log)
        out = {f"self.{layer}_ms": ms for layer, ms in own.items()}
        out["self.unattributed_ms"] = remainder
        out["runtime.parallel_dispatches"] = self.parallel_dispatches()
        out.update(self.route_table())
        out["planner.dispatch_us"] = self.planner_dispatch_us()
        return out

    def parallel_dispatches(self) -> float:
        """Blocked-kernel dispatches of one op under ``workers=nproc``, auto."""
        with runtime.configured(workers=WORKERS, backend="auto"):
            before = obs.snapshot()
            for windows in self.sets:
                windows.pipeline()
            after = obs.snapshot()
        return float(
            sum(
                _counter_delta(before, after, name)
                for name in after["counters"]
                if name.startswith("kernels.")
            )
        )

    def route_table(self) -> dict[str, float]:
        """Each kernel at each size on every route, plus the op's own route.

        ``kernel.<k>.ms_p50`` sums a kernel's times over the sizes under the
        op's configuration (``OP_WORKERS``, auto backend).

        ``thread_over_serial`` is thread time over serial time: above 1 the
        thread route loses.  ``route.losses`` counts (kernel, size, route)
        cells where a parallel route is more than ``LOSS_MARGIN`` slower than
        serial; it is recorded, not gated.
        """
        out: dict[str, float] = {}
        own = {k: 0.0 for k in KERNELS}
        terms = {k: 0 for k in KERNELS}
        losses = 0
        for windows in self.sets:
            calls = windows.kernel_calls()
            for kernel, count in windows.terms().items():
                terms[kernel] += count
            for kernel, call in calls.items():
                own[kernel] += _timed(call)
                times = {}
                for route, cfg in ROUTES.items():
                    with runtime.configured(**cfg):
                        call()  # warm the route's pool
                        times[route] = _timed(call)
                    out[f"route.{kernel}.{windows.n}.{route}_ms"] = times[route] * 1e3
                out[f"route.{kernel}.{windows.n}.thread_over_serial"] = (
                    times["thread"] / times["serial"]
                )
                losses += sum(
                    times[r] > times["serial"] * (1 + LOSS_MARGIN) for r in ("thread", "process")
                )
        runtime.shutdown_executors()
        out["route.losses"] = float(losses)
        for kernel in KERNELS:
            out[f"kernel.{kernel}.ms_p50"] = own[kernel] * 1e3
            out[f"kernel.{kernel}.terms"] = float(terms[kernel])
            # computed, not measured: one int64 (row, col, value) triple per term
            out[f"kernel.{kernel}.bytes_computed"] = float(terms[kernel] * 24)
        return out

    def planner_dispatch_us(self) -> float:
        """``Mat`` assignment minus the direct kernel, same operands (n=48)."""
        merged = merge_windows(self.sets[0].windows).csr
        lazy = Mat(merged)
        target = Mat(CSRMatrix.empty(merged.shape, np.int64))

        def assign():
            target << lazy.mxm(lazy)

        direct_times: list[float] = []
        assign_times: list[float] = []
        for _ in range(400):
            t0 = time.perf_counter()
            merged._mxm_dispatch(merged, PLUS_TIMES)
            t1 = time.perf_counter()
            assign()
            t2 = time.perf_counter()
            direct_times.append(t1 - t0)
            assign_times.append(t2 - t1)
        return (statistics.median(assign_times) - statistics.median(direct_times)) * 1e6


# --------------------------------------------------------------------------- #
# the verify layer: the oracle battery over specs the service also serves
# --------------------------------------------------------------------------- #


class TimedOracle:
    """An oracle wrapper passed to ``run_corpus``; times each ``check``."""

    def __init__(self, oracle, log: SpanLog) -> None:
        self.oracle = oracle
        self.name = oracle.name
        self.log = log
        self.checks = 0

    def check(self, spec):
        self.checks += 1
        with self.log.span(f"oracles.{self.name}", self.log.current_op):
            return self.oracle.check(spec)


class IndexOpenCounter:
    """Counts SQLite opens of store indexes (one per ``ScenarioStore``).

    Uses the interpreter's ``sqlite3.connect`` audit event, so nothing in the
    program is patched.  An audit hook cannot be removed; it stays installed,
    and counts only while ``active``.
    """

    def __init__(self) -> None:
        self.opens = 0
        self.active = False
        sys.addaudithook(self._hook)

    def _hook(self, event: str, args) -> None:
        if self.active and event == "sqlite3.connect" and str(args[0]).endswith("index.sqlite"):
            self.opens += 1


def verify_layer(specs: list[ScenarioSpec], workdir: Path) -> dict[str, float]:
    """``run_corpus`` with the full default battery, one spec per call.

    Reports each oracle's cost per spec, the shrink attempts (oracle checks
    beyond one per oracle per spec), and the store write lifecycle the
    ``store_round_trip`` oracle drives: index opens, bytes written, retries.
    """
    log = SpanLog()
    battery = [TimedOracle(o, log) for o in default_oracles()]
    counter = IndexOpenCounter()
    before = obs.snapshot()
    counter.active = True
    for k, spec in enumerate(specs):
        with log.span("verify.run_corpus", k):
            report = run_corpus([spec], battery)
        if not report.ok:
            raise RuntimeError(f"oracle battery failed on a served spec: {report.summary()}")
    counter.active = False
    after = obs.snapshot()
    count = max(len(specs), 1)
    out = {
        f"oracle.{o.name}.ms_per_spec": sum(log.durations(f"oracles.{o.name}")) * 1e3 / count
        for o in battery
    }
    out["verify.shrink_attempts"] = float(sum(o.checks for o in battery) - count * len(battery))
    out["store.opens_per_op"] = counter.opens / count
    out["store.bytes_written_per_op"] = _counter_delta(before, after, "store.bytes_written") / count
    out["store.index_retries"] = float(_counter_delta(before, after, "store.index.retries"))
    out.update(store_micro(specs, workdir / "micro"))
    return out


WORKLOADS = {w.name: w for w in (ServeCold, ServeWarm, AnalyticsKernels)}
