"""The benchmark's own tests: smoke runs, the check seam, and the no-source exit.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

#: Per-layer metrics that read 0 on a healthy run of every workload.
ZERO_WHEN_HEALTHY = {
    "ops_failed_ratio",
    "service.specs_failed",
    "store.index_retries",
    "verify.shrink_attempts",
}


@functools.cache
def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.4", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_declared_metric(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    provenance = json.loads(record_line)["provenance"]
    for key in ("seed", "nproc", "python", "numpy", "scipy", "git_sha", "store_fs"):
        assert key in provenance


def test_every_layer_metric_is_measured_on_some_workload() -> None:
    measured = set()
    for workload in WORKLOADS:
        done = _run(workload, 1)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        measured |= {name for name, m in metrics.items() if m["value"] != 0}
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert declared - measured == ZERO_WHEN_HEALTHY


def _ratio(workload, op, output) -> float:
    window = harness.Window(latencies=[0.001], tokens=[workload.observe(op, output)])
    return harness.ops_failed_ratio(harness.check_window(workload, window))


def test_planted_fault_in_analytics_output_is_counted(tmp_path: Path) -> None:
    workload = workloads.AnalyticsKernels(seed=5, workdir=tmp_path)
    workload.setup()
    try:
        output = workload.run(workload.op(0))
        assert _ratio(workload, 0, output) == 0.0
        merged, two_hop, masked, totals = output[-1]
        two_hop.data[0] += 1  # one wrong packet count in one product
        assert _ratio(workload, 0, output) > 0.0
    finally:
        workload.close()


@pytest.mark.parametrize("cls", [workloads.ServeCold, workloads.ServeWarm])
def test_planted_fault_in_served_matrix_is_counted(cls, tmp_path: Path) -> None:
    workload = cls(seed=5, workdir=tmp_path)
    workload.setup()
    try:
        op = workload.next_op(0)
        output = workload.run(workload.op(op))
        assert _ratio(workload, op, output) == 0.0
        output[0] = output[1]  # another spec's matrix served in its place
        assert _ratio(workload, op, output) > 0.0
    finally:
        workload.close()


def test_tail_has_ten_samples_beyond_it() -> None:
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(1000) == 99.0
    for ops, p in ((500, 98.0), (1000, 99.0), (4000, 99.0)):
        window = harness.Window(latencies=[k / 1e3 for k in range(1, ops + 1)], wall=1.0)
        metrics, tail = harness.end_to_end(window, setup_s=0.1)
        assert tail == {"percentile": p, "ops": ops}
        assert metrics["op_tail_ms"][0] == np.percentile(np.arange(1.0, ops + 1.0), p)


class _SlowCheck:
    """Two clients of 2 ms ops whose check takes 10 ms and notes overlaps."""

    clients = 2
    pending_limit = 3
    log = None

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.in_flight = 0
        self.overlaps = 0

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def next_op(self, op_id: int) -> int:
        return op_id

    async def op(self, op: int) -> int:
        self.in_flight += 1
        await asyncio.sleep(0.002)
        self.in_flight -= 1
        return op

    def observe(self, op: int, output: int) -> bool:
        self.overlaps += self.in_flight
        time.sleep(0.01)
        return output == op

    def check(self, token: bool) -> bool:
        return token


def test_checks_run_with_no_op_in_flight_and_off_the_clock() -> None:
    workload = _SlowCheck()
    try:
        window = harness.check_window(workload, harness.run_window(workload, 0.3))
    finally:
        workload.loop.close()
    assert workload.overlaps == 0
    assert len(window.tokens) == len(window.latencies) and window.failed == 0
    assert window.paused >= 0.01 * len(window.tokens)
    assert window.wall < 0.3 + 0.1  # the checks' time is not in the window


def test_exits_nonzero_without_source_tree(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
