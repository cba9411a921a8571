"""Measurement harness shared by every workload: timing, statistics, results.

A workload object (see :mod:`workloads`) supplies ``setup``/``close``, one
``op`` per unit of work, ``observe`` (turns an op's output into a small check
token that holds everything the check needs) and ``check`` (compares a token
with an independent reference, after the timed window).  This module runs it:

* :func:`run_window` — the closed loop: ``clients`` coroutines, each sending
  its next op only after the previous one completed, until the deadline;
  outputs are reduced to check tokens only while no op is in flight, and
  that time is taken out of the window's wall clock and CPU;
* :func:`end_to_end` — the seven user-visible metrics of one window;
* :func:`provenance` — the record that says where a number came from.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The tail is the highest percentile with this many samples beyond it,
#: read as if over ``TAIL_OPS`` ops (p99): a run of more ops keeps p99, so
#: the percentile does not move with the op count; a run of fewer ops reads
#: the highest percentile its own ops have ten samples beyond.
TAIL_MIN_BEYOND = 10
TAIL_OPS = 1000


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(count: int) -> float:
    """The highest percentile of *count* samples with ``TAIL_MIN_BEYOND`` beyond
    (the median when there are too few samples for any tail)."""
    return max(50.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / count))


@dataclass
class Window:
    """Everything one timed window produced."""

    latencies: list[float] = field(default_factory=list)  # seconds, per op
    tokens: list[object] = field(default_factory=list)  # one per completed op
    raised: int = 0
    wall: float = 0.0  # timed wall clock, check time excluded
    cpu: float = 0.0  # process CPU, check time excluded
    paused: float = 0.0  # wall clock spent reducing outputs to tokens
    paused_cpu: float = 0.0  # CPU spent on the same
    failed: int = 0  # set by :func:`check_window`

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.raised


class _Checkpoint:
    """Holds op outputs until no op is in flight, then reduces them to tokens.

    ``workload.observe`` runs on the event loop the program runs on, so it
    waits for a moment when every client is idle: the client that fills the
    buffer (``workload.pending_limit`` outputs) closes the gate, waits for
    the other clients' in-flight ops to finish, observes the buffer, and
    reopens the gate.  No op is running meanwhile, so the check lands in no
    op's latency, and its wall time and thread CPU are taken out of the
    window's totals exactly.
    """

    def __init__(self, workload, out: Window) -> None:
        self.workload = workload
        self.out = out
        self.pending: list[tuple[object, object]] = []
        self.in_flight = 0
        self.gate = asyncio.Event()
        self.gate.set()
        self.settled = asyncio.Event()

    def enter(self) -> None:
        self.in_flight += 1
        self.settled.clear()

    def leave(self) -> None:
        self.in_flight -= 1
        if not self.in_flight:
            self.settled.set()

    async def add(self, op, output) -> None:
        self.pending.append((op, output))
        if len(self.pending) >= self.workload.pending_limit and self.gate.is_set():
            self.gate.clear()
            await self.settled.wait()
            self.flush()
            self.gate.set()

    def flush(self) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        for op, output in self.pending:
            self.out.tokens.append(self.workload.observe(op, output))
        self.pending.clear()
        self.out.paused += time.perf_counter() - t0
        self.out.paused_cpu += time.thread_time() - c0


async def _client(workload, deadline: float, checkpoint: _Checkpoint, ids) -> None:
    """One closed-loop client: next op only after the previous one is done.

    Only the ``workload.op`` await is the op's latency; choosing the inputs
    and reducing the output to a check token are the client's own work.
    With a span log attached, the op's iteration up to its output is
    recorded as the op.  Time spent paused for checks extends the deadline.
    """
    log = workload.log
    out = checkpoint.out
    while time.perf_counter() - out.paused < deadline:
        await checkpoint.gate.wait()
        op_id = next(ids)
        t_start = time.perf_counter()
        op = workload.next_op(op_id)
        checkpoint.enter()
        t0 = time.perf_counter()
        try:
            output = await workload.op(op)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out.raised += 1
            print(f"op raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            t1 = time.perf_counter()
            checkpoint.leave()
        out.latencies.append(t1 - t0)
        if log is not None:
            log.op_done(op_id, t_start, t1)
        await checkpoint.add(op, output)


def run_window(workload, seconds: float) -> Window:
    """Run ``workload.clients`` closed-loop clients for *seconds* of op time.

    Wall time runs from the first op's start to the last op's end, minus
    the pauses for checks, so the final op is never cut short and
    throughput has no quantisation step.
    """
    out = Window()
    ids = itertools.count()

    async def main() -> None:
        checkpoint = _Checkpoint(workload, out)
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _client(workload, start + seconds, checkpoint, ids)
                for _ in range(workload.clients)
            )
        )
        out.wall = time.perf_counter() - start - out.paused
        checkpoint.flush()  # every client has stopped: nothing is in flight

    cpu0 = cpu_seconds()
    workload.run(main())
    out.cpu = cpu_seconds() - cpu0 - out.paused_cpu
    return out


def check_window(workload, window: Window) -> Window:
    """Compare every op's token with its reference; count mismatches."""
    window.failed = window.raised + sum(
        1 for token in window.tokens if not workload.check(token)
    )
    return window


def end_to_end(window: Window, setup_s: float) -> tuple[dict, dict]:
    """The seven end-to-end metrics, plus the tail's percentile and op count."""
    attempted = max(window.attempted, 1)
    ok = attempted - window.failed
    lat_ms = [x * 1e3 for x in window.latencies] or [0.0]
    p = tail_percentile(min(len(lat_ms), TAIL_OPS))
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (ok / window.wall if window.wall else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (float(np.percentile(lat_ms, p)), "ms"),
        # 1 - ops_failed_ratio: a ratio that is never 0 on a healthy run
        "ops_ok_ratio": (ok / attempted, "ratio"),
        "cpu_ms_per_op": (window.cpu * 1e3 / attempted, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"percentile": p, "ops": len(window.latencies)}


def ops_failed_ratio(window: Window) -> float:
    return window.failed / max(window.attempted, 1)


def matrix_digest(matrix) -> bytes:
    """Content digest of a TrafficMatrix: grids, labels and provenance meta."""
    h = hashlib.sha1()
    h.update(matrix.packets.tobytes())
    h.update(matrix.colors.tobytes())
    h.update("\x1f".join(matrix.labels).encode())
    h.update(json.dumps(matrix.meta, sort_keys=True, default=str).encode())
    return h.digest()


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from the mount table)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        left, _, right = line.partition(" - ")
        mount_point = left.split()[4]
        inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) > len(best):
            best, fstype = mount_point, right.split()[0]
    return fstype


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(root: Path, workdir: Path, workload: str, seed: int) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "store_fs": _fs_type(workdir),
    }
