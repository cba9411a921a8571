"""Analysis-layer metrics: ``merge_windows`` reports under ``analysis.``."""

from repro import runtime
from repro.analysis import merge_windows, window_stream
from repro.obs import metrics as obs_metrics


def _windows():
    events = [(f"S{i % 13}", f"D{i % 7}", 1 + i % 3) for i in range(1000)]
    return [w for w, _ in window_stream(events, window_size=128)]


def test_merge_windows_records_merge_histogram():
    wins = _windows()
    merge_windows(wins)
    merge_windows(wins[:1])
    merge_windows([])
    hist = obs_metrics.snapshot()["histograms"]["analysis.merge_ms"]
    assert hist["count"] == 3
    assert hist["min"] >= 0


def test_serial_merge_dispatches_no_kernel_counters():
    """The merge histogram is not a ``kernels.`` metric, so the count of
    blocked-kernel dispatches (every ``kernels.*`` counter) stays zero on the
    serial route."""
    merge_windows(_windows())
    snap = obs_metrics.snapshot()
    assert not [name for name in snap["counters"] if name.startswith("kernels.")]
    assert not [name for name in snap["histograms"] if name.startswith("kernels.")]


def test_parallel_merge_counts_only_the_union_dispatch():
    """Embedding windows onto the union axes is not a kernel: under a
    parallel configuration the only blocked dispatch is the one row-blocked
    ``union_all``, on one executor map."""
    with runtime.configured(workers=2, backend="thread", min_parallel_work=1):
        merge_windows(_windows())
    counters = obs_metrics.snapshot()["counters"]
    kernel_counts = {k: v for k, v in counters.items() if k.startswith("kernels.")}
    assert kernel_counts == {"kernels.parallel_union_all": 1}
    assert counters["runtime.maps"] == 1
    assert obs_metrics.histogram("analysis.merge_ms").count == 1
