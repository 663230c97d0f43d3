"""Measurement primitives: percentiles with a sample-count rule, measured
windows, host-speed normalisation and the open-loop request generator.

Everything here is independent of the library under test, so the
self-tests can drive it with stub servers and synthetic samples.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: A reported percentile must have at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples_for(q: float) -> int:
    """Samples needed so at least ``MIN_TAIL_SAMPLES`` lie beyond the q-th percentile."""
    if not 0.0 <= q < 100.0:
        raise ValueError("q must be in [0, 100)")
    return math.ceil(round(MIN_TAIL_SAMPLES * 100.0 / (100.0 - q), 6))


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile of ``samples``, refusing a tail the sample cannot support."""
    if len(samples) < min_samples_for(q):
        raise InsufficientSamples(
            f"p{q:g} needs {min_samples_for(q)} samples, got {len(samples)}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def latency_summary(samples_s: Sequence[float]) -> dict:
    """Median, p90 and p99 in milliseconds, with the sample count they rest on."""
    return {"n": len(samples_s),
            "p50_ms": percentile(samples_s, 50) * 1e3,
            "p90_ms": percentile(samples_s, 90) * 1e3,
            "p99_ms": percentile(samples_s, 99) * 1e3}


class Window:
    """A measured window: at least ``seconds`` long and, within ``cap_s``
    (default: four times ``seconds``, at least 20 s), long enough to
    collect ``min_samples``.

    ``more(n)`` is the loop condition of a phase that has ``n`` samples.
    """

    def __init__(self, seconds: float, min_samples: int = 0,
                 cap_s: Optional[float] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.seconds = float(seconds)
        self.min_samples = int(min_samples)
        self.cap_s = (float(cap_s) if cap_s is not None
                      else max(4.0 * self.seconds, 20.0))
        self.clock = clock
        self.start = clock()

    @property
    def elapsed(self) -> float:
        return self.clock() - self.start

    def more(self, n: int) -> bool:
        elapsed = self.elapsed
        if elapsed < self.seconds:
            return True
        return n < self.min_samples and elapsed < self.cap_s


#: Time of one :meth:`HostSpeed.kernel` run that normalised figures refer to
#: (typical of an otherwise idle 2-core x86 host with single-threaded OpenBLAS).
REFERENCE_S = 3.0e-3


class HostSpeed:
    """Scales compute-bound timings to a host of fixed speed.

    A shared host's speed drifts by up to 1.5x within a minute, and the
    library's compute time follows it.  ``timed`` runs a fixed
    single-threaded numpy kernel (GEMM plus ``tanh``, the mix of a ViT
    block) right before and right after the measured stretch, and scales
    the stretch by ``REFERENCE_S`` over the mean of the two kernel times:
    the figure the stretch would have taken on a host where the kernel
    takes ``REFERENCE_S``.  The kernel is independent of the library, so
    a change to the library cannot move it.
    """

    def __init__(self, kernel: Optional[Callable[[], None]] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 reference_s: float = REFERENCE_S):
        if kernel is None:
            rng = np.random.default_rng(0)
            a = rng.standard_normal((64, 384), dtype=np.float32)
            b = rng.standard_normal((384, 384), dtype=np.float32)
            e = rng.standard_normal((64, 1536), dtype=np.float32)

            def kernel() -> None:
                for _ in range(10):
                    a @ b
                    np.tanh(e)

        self.kernel = kernel
        self.clock = clock
        self.reference_s = float(reference_s)
        #: Every kernel time taken, in seconds.
        self.kernel_s: List[float] = []

    def kernel_time(self) -> float:
        start = self.clock()
        self.kernel()
        elapsed = self.clock() - start
        self.kernel_s.append(elapsed)
        return elapsed

    def timed(self, stretch: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``stretch``; its result, raw seconds and seconds at reference speed."""
        before = self.kernel_time()
        start = self.clock()
        result = stretch()
        elapsed = self.clock() - start
        after = self.kernel_time()
        return result, elapsed, elapsed * self.reference_s / ((before + after) / 2.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class OpenLoopRecord:
    """Per-request timestamps of an open-loop run (seconds, one clock)."""

    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[Optional[float]] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    errors: List[Optional[BaseException]] = field(default_factory=list)

    def latencies(self, skip: int = 0) -> List[float]:
        """Due-time latency of every completed request after the first ``skip``."""
        return [done - due for due, done, error
                in zip(self.due[skip:], self.done[skip:], self.errors[skip:])
                if error is None and done is not None]

    def lateness(self, skip: int = 0) -> List[float]:
        """How late the generator sent each request after the first ``skip``."""
        return [sent - due for due, sent in zip(self.due[skip:], self.sent[skip:])]


def _mark_done(done: List[Optional[float]], index: int,
               clock: Callable[[], float], _future) -> None:
    done[index] = clock()


def run_open_loop(submit: Callable[[int], "object"], rate_hz: float,
                  count: int, timeout_s: float = 30.0,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep) -> OpenLoopRecord:
    """Send ``count`` requests on a fixed schedule of ``rate_hz`` per second.

    ``submit(i)`` sends request ``i`` and returns its future.  Request
    ``i`` is due at ``start + i / rate_hz`` whether or not earlier
    requests have completed; latency is timed from the due time, so a
    stall of the generator or the server is charged to every request it
    delays.  A ``submit`` that raises, or a future that ends in an
    exception, is recorded as that request's error.
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be > 0")
    period = 1.0 / rate_hz
    record = OpenLoopRecord(done=[None] * count)
    futures = []
    start = clock() + period
    for index in range(count):
        due = start + index * period
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        record.due.append(due)
        record.sent.append(clock())
        try:
            future = submit(index)
        except Exception as error:  # noqa: BLE001 — a refused request is a counted failure
            futures.append(None)
            record.errors.append(error)
            record.done[index] = clock()
            continue
        record.errors.append(None)
        future.add_done_callback(partial(_mark_done, record.done, index, clock))
        futures.append(future)
    for index, future in enumerate(futures):
        if future is None:
            record.results.append(None)
            continue
        try:
            record.results.append(future.result(timeout=timeout_s))
        except Exception as error:  # noqa: BLE001 — a failed request is a counted failure
            record.results.append(None)
            record.errors[index] = error
    return record
