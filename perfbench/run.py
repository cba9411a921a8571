"""Traffic Warehouse benchmark: one workload per run, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` splits the same time into an untraced half and a half with
benchmark-side spans, and reports the per-layer metrics instead; its spans
are written to ``.perfbench/traces/<workload>.json``.  The last line of
standard output is the result object; the line before it records provenance
(seed, host, versions, git sha, the filesystem the stores live on) and which
tail percentile was reported over how many ops.

The benchmark builds nothing into ``src/`` and instruments nothing there: it
imports the package from ``src/`` and times calls into its public surface.
Every file it writes lives under ``.perfbench/`` in the checkout; only the
program's own process backend, timed in the route table, maps shared-memory
segments, which it releases on shutdown.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

#: How many times set-up runs; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Fresh interpreters that repeat this run's imports; with the run's own
#: import time, ``setup_s`` takes the median of these.
IMPORT_REPEATS = 4
IMPORTS = "import harness, tracing, workloads; from repro import obs"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def import_seconds() -> float:
    """Seconds a fresh interpreter spends on the imports a run makes."""
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
        f"{IMPORTS}; print(time.perf_counter() - t0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def measure(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; return (result object, provenance record)."""
    import harness
    import workloads
    from tracing import SpanLog

    from repro import obs

    imports = [time.perf_counter() - T_START]
    imports += [import_seconds() for _ in range(IMPORT_REPEATS)]
    cls = workloads.WORKLOADS[args.workload]
    setups: list[float] = []
    for k in range(SETUP_REPEATS):
        workload = cls(args.seed, workdir)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            workload.close()
    setup_s = statistics.median(imports) + statistics.median(setups)
    declared = _declared()
    record = {
        "provenance": harness.provenance(ROOT, workdir, args.workload, args.seed),
        "why": cls.why,
    }
    try:
        if not args.trace:
            window = harness.check_window(workload, harness.run_window(workload, args.seconds))
            values, tail = harness.end_to_end(window, setup_s)
            names = [m["name"] for m in declared["end_to_end"]]
        else:
            plain = harness.run_window(workload, args.seconds / 2)
            log = SpanLog()
            workload.trace(log)
            before = obs.snapshot()
            traced = harness.run_window(workload, args.seconds / 2)
            after = obs.snapshot()
            layers = workload.layer_metrics(before, after, len(traced.latencies))
            # one file per workload, replaced by its next traced run
            log.write(
                ROOT / ".perfbench" / "traces" / f"{args.workload}.json",
                workload=args.workload, seed=args.seed,
            )
            window = harness.Window(
                latencies=plain.latencies + traced.latencies,
                tokens=plain.tokens + traced.tokens,
                raised=plain.raised + traced.raised,
            )
            harness.check_window(workload, window)
            layers["ops_failed_ratio"] = harness.ops_failed_ratio(window)
            per_op = [w.wall / max(len(w.latencies), 1) for w in (plain, traced)]
            layers["obs.trace_overhead_ratio"] = per_op[1] / per_op[0]
            values = {
                m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"])
                for m in declared["per_layer"]
            }
            tail = {"ops": len(traced.latencies)}
            names = [m["name"] for m in declared["per_layer"]]
    finally:
        workload.close()
    record["tail"] = tail
    result = {
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            name: {"value": values[name][0], "unit": values[name][1]} for name in names
        },
    }
    return result, record


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src'}: run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # stores and the temp dirs the store oracle creates stay in the checkout
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    try:
        result, record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
