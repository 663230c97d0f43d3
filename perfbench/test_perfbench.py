"""Self-tests of the benchmark harness (run: ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import json
import queue
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from loops import (HostSpeed, InsufficientSamples, Window, min_samples_for,
                   percentile, run_open_loop)
from spans import Tracer, nesting_errors, self_times, totals_by_name

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_min_samples_leave_ten_beyond_the_percentile():
    assert min_samples_for(50) == 20
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000
    samples = np.arange(1000, dtype=float)
    assert int((samples > percentile(samples, 99)).sum()) >= 10


def test_percentile_refuses_an_unsupported_tail():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    samples = np.random.default_rng(0).random(1000)
    assert percentile(samples, 99) == pytest.approx(np.percentile(samples, 99))
    assert percentile(samples[:20], 50) == pytest.approx(np.median(samples[:20]))


def test_window_extends_until_enough_samples_within_its_cap():
    now = [0.0]
    window = Window(1.0, min_samples=100, cap_s=3.0, clock=lambda: now[0])
    assert window.more(0)
    now[0] = 1.5
    assert window.more(99) and not window.more(100)
    now[0] = 3.0
    assert not window.more(0)


def test_host_speed_scales_a_stretch_by_the_kernel_times_around_it():
    now = [0.0]
    kernel_s = iter([0.004, 0.008])  # the host slows down during the stretch

    def kernel() -> None:
        now[0] += next(kernel_s)

    def stretch() -> str:
        now[0] += 0.5
        return "done"

    speed = HostSpeed(kernel, clock=lambda: now[0], reference_s=0.003)
    result, raw_s, scaled_s = speed.timed(stretch)
    assert result == "done"
    assert raw_s == pytest.approx(0.5)
    assert scaled_s == pytest.approx(0.5 * 0.003 / 0.006)
    assert speed.kernel_s == pytest.approx([0.004, 0.008])


def test_host_speed_default_kernel_runs():
    speed = HostSpeed()
    _, raw_s, scaled_s = speed.timed(lambda: time.sleep(0.01))
    assert raw_s >= 0.01 and scaled_s > 0
    assert len(speed.kernel_s) == 2 and min(speed.kernel_s) > 0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_from_nested_synthetic_spans():
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0)
    first = tracer.record("a", 1.0, 4.0, parent=root.id)
    second = tracer.record("b", 5.0, 9.0, parent=root.id)
    leaf = tracer.record("c", 6.0, 8.0, parent=second.id)
    own = self_times(tracer.spans)
    assert own == {root.id: 3.0, first.id: 3.0, second.id: 2.0, leaf.id: 2.0}
    children = {span.id: 0.0 for span in tracer.spans}
    for span in tracer.spans:
        if span.parent:
            children[span.parent] += span.duration
    for span in tracer.spans:
        assert own[span.id] + children[span.id] == pytest.approx(span.duration)
    assert nesting_errors(tracer.spans) == []
    totals = totals_by_name(tracer.spans)
    assert totals["b"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}


def test_nesting_errors_catch_escaping_and_overlapping_children():
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0)
    tracer.record("late", 8.0, 12.0, parent=root.id)
    tracer.record("overlap", 7.0, 9.0, parent=root.id)
    errors = nesting_errors(tracer.spans)
    assert any("leaves its parent" in error for error in errors)
    assert any("overlap" in error for error in errors)


class _Layer:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2

    def batches(self, count):
        yield from range(count)


def test_tracer_wraps_from_outside_and_restores():
    original = _Layer.__dict__["outer"]
    seen = []
    with Tracer() as tracer:
        tracer.instrument(_Layer, "outer", "outer",
                          hook=lambda args, kwargs, start, end: seen.append(args[1]))
        tracer.instrument(_Layer, "inner", "inner")
        tracer.instrument(_Layer, "batches", "next", iterator=True)
        layer = _Layer()
        assert layer.outer(3) == 7
        assert list(layer.batches(2)) == [0, 1]
    assert _Layer.__dict__["outer"] is original
    assert seen == [3]
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert sum(span.name == "next" for span in tracer.spans) == 3  # two items + the end
    assert nesting_errors(tracer.spans) == []


def test_spans_of_threads_do_not_nest_across_threads():
    tracer = Tracer()
    work = tracer.wrap(lambda: time.sleep(0.001), "work")
    threads = [threading.Thread(target=work) for _ in range(3)]
    outer = tracer.wrap(lambda: [t.start() for t in threads] and None, "outer")
    outer()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert all(span.parent == 0 for span in tracer.spans)
    assert nesting_errors(tracer.spans) == []


# ----------------------------------------------------------------------
# Open loop against a stub server
# ----------------------------------------------------------------------
class StubServer:
    """FIFO single-worker server with a fixed service time and an optional stall."""

    def __init__(self, service_s: float, stall_at: int = -1, stall_s: float = 0.0):
        self.service_s = service_s
        self.stall_at = stall_at
        self.stall_s = stall_s
        self._queue: "queue.Queue" = queue.Queue()
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def submit(self, index: int) -> Future:
        future: Future = Future()
        self._queue.put((index, future))
        return future

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            index, future = item
            if index == self.stall_at:
                time.sleep(self.stall_s)
            time.sleep(self.service_s)
            future.set_result(index)

    def close(self) -> None:
        self._queue.put(None)
        self._worker.join(timeout=5)
        assert not self._worker.is_alive()


def test_open_loop_latency_is_service_time_below_capacity():
    server = StubServer(service_s=0.002)
    try:
        record = run_open_loop(server.submit, rate_hz=100.0, count=40)
    finally:
        server.close()
    assert record.results == list(range(40))
    latencies = record.latencies()
    assert len(latencies) == 40
    assert min(latencies) >= 0.002
    assert float(np.median(latencies)) < 0.008
    assert float(np.median(record.lateness())) < 0.003


def test_open_loop_charges_a_server_stall_to_the_requests_it_delays():
    server = StubServer(service_s=0.001, stall_at=5, stall_s=0.06)
    try:
        record = run_open_loop(server.submit, rate_hz=100.0, count=30)
    finally:
        server.close()
    latencies = record.latencies()
    # Request 6 was due 10 ms after request 5 but waits out the stall.
    assert latencies[6] > 0.04
    assert latencies[6] > latencies[7] > latencies[8]
    assert latencies[25] < 0.01
    # The generator itself stayed on schedule.
    assert max(record.lateness()) < 0.01


def test_open_loop_times_from_due_time_when_the_generator_stalls():
    server = StubServer(service_s=0.001)

    def slow_submit(index: int) -> Future:
        if index == 5:
            time.sleep(0.05)
        return server.submit(index)

    try:
        record = run_open_loop(slow_submit, rate_hz=100.0, count=20)
    finally:
        server.close()
    lateness = record.lateness()
    latencies = record.latencies()
    assert lateness[6] > 0.03
    assert latencies[6] >= lateness[6] + 0.001
    assert lateness[15] < 0.01


def test_open_loop_records_refused_requests():
    server = StubServer(service_s=0.0)

    def refusing_submit(index: int) -> Future:
        if index % 4 == 0:
            raise RuntimeError("queue full")
        return server.submit(index)

    try:
        record = run_open_loop(refusing_submit, rate_hz=500.0, count=12)
    finally:
        server.close()
    assert sum(error is not None for error in record.errors) == 3
    assert len(record.latencies()) == 9


# ----------------------------------------------------------------------
# The benchmark definition matches the harness
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    import workloads

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [row["name"] for row in definition["workloads"]] == list(workloads.WORKLOADS)
    assert [(row["name"], row["unit"]) for row in definition["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(row["name"], row["unit"]) for row in definition["per_layer"]] == \
        list(workloads.PER_LAYER)
    bounds = {row["name"]: row["bound"] for row in definition["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    layers = json.loads((Path(__file__).parent / "layers.json").read_text())
    assert set(layers["metrics"]) == {name for name, _ in workloads.PER_LAYER}
