"""The benchmark's four workloads, run against the library's public API.

Serving workloads (``ce_serve``, ``sensor_int8_serve``, ``video_serve``)
load a checkpoint through :class:`repro.serving.ModelRegistry`, start
an :class:`repro.serving.InferenceServer` with its default batching
(32 clips, 2 ms flush deadline, one lane) and drive it from one client
thread in phases:

- ``b1``: closed loop, one client calling ``predict``;
- ``full``: closed loop through ``stream()``, which keeps batches full;
- ``open`` (``ce_serve`` only): uniform arrivals at a fixed rate,
  latency timed from each request's due time.

``ce_train`` runs ``ActionRecognitionTrainer.train_epoch`` on the
synthetic SSV2 analog with CE operator capture.

Every served label is compared with ``predict_sequential`` on the same
seeded clip pool, every training loss must be finite, and the
benchmark's own request counts must equal the server's counters.

Each run repeats its phases in ``ROUNDS`` rounds, with set-ups in
between, so every figure samples the whole run.  Compute-bound figures
(set-up time, full-batch throughput, training step time) are scaled to a
host of fixed speed by :class:`loops.HostSpeed`; the batch-1 serving
latency, two thirds of which is the flush deadline, is reported as
measured.  The raw figures are kept beside the scaled ones.  A traced run
alternates each untraced round with one in which a
:class:`spans.Tracer` wraps the library's public calls, and derives the
per-layer metrics from the traced rounds.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ce import CEConfig, CodedExposureSensor, make_pattern
from repro.data import BatchLoader, build_dataset, generate_clips
from repro.hardware import StackedCESensor
from repro.models import patch as patch_module
from repro.models.registry import build_from_spec, build_spec
from repro.nn import AdamW, Tensor, attention, conv, functional, modules, quantized
from repro.serving import (BundleExecutor, InferenceServer, ModelRegistry,
                           RequestRejected, fresh_bundle, quantize_bundle,
                           save_servable)
from repro.tasks import ActionRecognitionTrainer
from repro.tasks import training as training_module

from loops import (HostSpeed, Window, latency_summary, median,
                   min_samples_for, percentile, run_open_loop)
from spans import Tracer, nesting_errors, totals_by_name

clock = time.perf_counter

NUM_FRAMES = 16
NUM_CLASSES = 6
TILE_SIZE = 8
#: Distinct clips a serving workload cycles through.
POOL_SIZE = 64
REQUEST_TIMEOUT_S = 30.0
ROUNDS = 4
SERVE_SETUPS_PER_ROUND = 4
TRAIN_SETUPS_PER_ROUND = 2
B1_WARMUP = 30
#: Throughput samples (streamed chunks) a full phase takes per round at least.
FULL_MIN_CHUNKS = 4
OPEN_WARMUP_S = 0.25
TRAIN_BATCH = 16
TRAIN_CLIPS_PER_CLASS = 16


@dataclass(frozen=True)
class ServeSpec:
    model: str
    image_size: int
    capture: str
    quantized: bool
    #: (phase, share of the run's measured seconds)
    phases: Tuple[Tuple[str, float], ...]
    #: Clips per throughput sample of the full phase: whole batches, about 0.1-0.25 s.
    full_chunk: int = 256
    open_rate_hz: Optional[float] = None


# The open-loop rate is one fixed absolute rate, about a quarter of
# ce_serve's full-batch throughput on a 2-core host: near the knee the tail
# does not repeat from run to run.  c3d runs at 16 px because a 32 px
# batch-1 request takes about 36 ms, too slow for 1000-sample phases.
SERVE_WORKLOADS: Dict[str, ServeSpec] = {
    "ce_serve": ServeSpec("snappix_s", 32, "operator", False,
                          (("b1", 0.4), ("full", 0.3), ("open", 0.3)),
                          open_rate_hz=800.0),
    "sensor_int8_serve": ServeSpec("snappix_s", 32, "hardware", True,
                                   (("b1", 0.5), ("full", 0.5))),
    "video_serve": ServeSpec("c3d", 16, "operator", False,
                             (("b1", 0.5), ("full", 0.5)), full_chunk=64),
}
WORKLOADS = tuple(SERVE_WORKLOADS) + ("ce_train",)

# Tail latency is reported (run record, ``--all`` table, loadgen.op_p99_ms)
# but not gated: on a shared 2-core host its ten-run spread reached 40-80%.
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("full_cps", "clips/s"))

#: Module classes whose ``forward`` the traced run wraps.
NN_CLASSES = (
    (modules, "MLP"), (attention, "MultiHeadAttention"),
    (modules, "LayerNorm"), (modules, "Linear"), (patch_module, "PatchEmbed"),
    (conv, "Conv3d"), (conv, "MaxPool3d"), (quantized, "QuantizedMLP"),
    (quantized, "QuantizedMultiHeadAttention"), (quantized, "QuantizedLinear"),
    (quantized, "QuantizedPatchEmbed"),
)
TRAIN_SPANS = (("loader", "data.next_batch"), ("capture", "ce.capture"),
               ("forward", "model.forward"), ("loss", "nn.cross_entropy"),
               ("backward", "autograd.backward"), ("clip", "optim.clip_grad_norm"),
               ("optim", "optim.AdamW.step"))


def _per_layer_names() -> Tuple[Tuple[str, str], ...]:
    names = []
    for phase in ("b1", "full", "open"):
        names += [(f"serving.{phase}.queue_wait_p50_ms", "ms"),
                  (f"serving.{phase}.deadline_flush_frac", "fraction"),
                  (f"serving.{phase}.batch_size_mean", "clips")]
        if phase != "full":
            names.append((f"serving.{phase}.resolve_p50_ms", "ms"))
    names += [("serving.screen_ms_per_clip", "ms/clip"),
              ("serving.run_batch_self_ms", "ms/clip"),
              ("ce.encode_ms_per_clip", "ms/clip"),
              ("hardware.capture_ms_per_clip", "ms/clip"),
              ("model.forward_ms_per_clip", "ms/clip")]
    for _, cls in NN_CLASSES:
        names += [(f"nn.{cls}.self_ms", "ms/clip"), (f"nn.{cls}.total_ms", "ms/clip")]
    names += [(f"train.{short}_ms", "ms/step") for short, _ in TRAIN_SPANS]
    names += [("registry.load_s", "s"), ("server.start_s", "s"), ("warmup_s", "s"),
              ("train.dataset_s", "s"), ("train.build_s", "s"),
              ("loadgen.op_p99_ms", "ms"),
              ("loadgen.late_p99_ms", "ms"), ("loadgen.open_p50_ms", "ms"),
              ("loadgen.open_p99_ms", "ms"), ("trace.overhead_frac", "fraction")]
    return tuple(names)


PER_LAYER = _per_layer_names()


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    #: Consistency checks that did not hold (any entry makes the run incorrect).
    problems: List[str] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] += count


@dataclass
class RunResult:
    tally: Tally
    #: Set-up times at reference host speed, plus ``setup_s_raw`` as measured.
    setup: Dict[str, float]
    #: Phase name -> figures of the measured (untraced) pass.
    phases: Dict[str, dict]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    host: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def make_pool(spec: ServeSpec, seed: int) -> np.ndarray:
    """The seeded clip pool: motion-defined synthetic video at the workload geometry."""
    videos, _ = generate_clips(POOL_SIZE, NUM_FRAMES, spec.image_size,
                               num_classes=NUM_CLASSES, seed=seed)
    if spec.quantized:
        return np.rint(videos * 255.0).astype(np.uint8)
    return videos.astype(np.float32)


def write_checkpoint(spec: ServeSpec, directory) -> str:
    """A serving checkpoint (already int8-quantised when asked) written before any clock runs."""
    bundle = fresh_bundle(spec.model, num_classes=NUM_CLASSES,
                          image_size=spec.image_size, num_frames=NUM_FRAMES,
                          tile_size=TILE_SIZE, seed=0)
    if spec.quantized:
        bundle = quantize_bundle(bundle, seed=0)
    return str(save_servable(f"{directory}/{spec.model}", bundle.model,
                             bundle.spec, sensor=bundle.sensor,
                             name=spec.model, metadata=bundle.metadata))


class RequestTracker:
    """Traced runs only: which batch carried each request, and when it resolved.

    Each request is sent as a fresh view of its pool clip, so the
    ``run_batch`` hook can find it by object identity while it is alive.
    """

    def __init__(self):
        self._pending: Dict[int, int] = {}
        self.phase: List[str] = []
        self.submitted: List[float] = []
        self.batch_start: List[Optional[float]] = []
        self.batch_end: List[Optional[float]] = []
        self.done: List[Optional[float]] = []

    def payload(self, clip: np.ndarray, phase: str) -> Tuple[np.ndarray, int]:
        view = clip.view()
        index = len(self.submitted)
        for column in (self.batch_start, self.batch_end, self.done):
            column.append(None)
        self.phase.append(phase)
        self.submitted.append(clock())
        self._pending[id(view)] = index
        return view, index

    def forget(self, view: np.ndarray) -> None:
        self._pending.pop(id(view), None)

    def on_run_batch(self, args, kwargs, start: float, end: float) -> None:
        for clip in args[1]:
            index = self._pending.pop(id(clip), None)
            if index is not None:
                self.batch_start[index] = start
                self.batch_end[index] = end

    def mark_done(self, index: int, _future) -> None:
        self.done[index] = clock()

    def waits(self, phase: str) -> Tuple[List[float], List[float]]:
        """Queue waits (submit -> batch start) and resolves (batch end -> done), seconds."""
        queue_waits, resolves = [], []
        for index, name in enumerate(self.phase):
            if name != phase or self.batch_start[index] is None:
                continue
            queue_waits.append(self.batch_start[index] - self.submitted[index])
            if self.done[index] is not None:
                resolves.append(self.done[index] - self.batch_end[index])
        return queue_waits, resolves


class ServeClient:
    """One client of one server: sends requests, checks labels, counts outcomes."""

    def __init__(self, server: InferenceServer, pool: np.ndarray,
                 reference: List[int], tally: Tally,
                 tracker: Optional[RequestTracker] = None):
        self.server = server
        self.pool = pool
        self.reference = reference
        self.tally = tally
        self.tracker = tracker
        self.phase = ""
        self.submitted = 0
        self.refused = 0

    def _payload(self, index: int):
        clip = self.pool[index % len(self.pool)]
        if self.tracker is None:
            return clip, None
        return self.tracker.payload(clip, self.phase)

    def check(self, index: int, prediction) -> bool:
        self.tally.attempted += 1
        if prediction.label != self.reference[index % len(self.pool)]:
            self.tally.fail("label_mismatch")
            return False
        return True

    def submit(self, index: int):
        """Send request ``index``; returns its future (refusals are counted and re-raised)."""
        clip, tracked = self._payload(index)
        try:
            future = self.server.submit(clip)
        except Exception as error:
            if self.tracker is not None:
                self.tracker.forget(clip)
            self.refused += isinstance(error, RequestRejected)
            raise
        self.submitted += 1
        if tracked is not None:
            future.add_done_callback(partial(self.tracker.mark_done, tracked))
        return future

    def _predict(self, clip: np.ndarray):
        try:
            prediction = self.server.predict(clip, timeout=REQUEST_TIMEOUT_S)
        except RequestRejected:
            self.refused += 1
            raise
        except Exception:
            self.submitted += 1
            raise
        self.submitted += 1
        return prediction

    def predict(self, index: int) -> Optional[float]:
        """One closed-loop request; its latency in seconds, or None when it failed."""
        start = clock()
        try:
            if self.tracker is None:
                prediction = self._predict(self.pool[index % len(self.pool)])
            else:
                prediction = self.submit(index).result(timeout=REQUEST_TIMEOUT_S)
        except Exception as error:  # noqa: BLE001 — counted against error_rate
            self.tally.attempted += 1
            self.tally.fail(type(error).__name__)
            return None
        latency = clock() - start
        return latency if self.check(index, prediction) else None

    def stream_clips(self, first: int, count: int):
        for index in range(first, first + count):
            clip, _ = self._payload(index)
            self.submitted += 1
            yield clip


@dataclass
class PhaseSamples:
    """Raw samples of one serving phase, pooled over the run's rounds."""

    seconds: float = 0.0
    requests: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Full-phase clips/s per chunk, at reference host speed and as measured.
    rates: List[float] = field(default_factory=list)
    raw_rates: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    batches: int = 0
    served: int = 0
    deadline_flushes: int = 0

    def summary(self) -> dict:
        row = {"seconds": self.seconds, "requests": self.requests,
               "batches": self.batches,
               "batch_size_mean": self.served / self.batches if self.batches else 0.0,
               "deadline_flush_frac": (self.deadline_flushes / self.batches
                                       if self.batches else 0.0)}
        if self.rates:
            row.update({"n": len(self.rates), "cps": median(self.rates),
                        "cps_raw": median(self.raw_rates)})
        else:
            row.update(latency_summary(self.latencies))
        if self.lateness:
            row["late_p99_ms"] = percentile(self.lateness, 99) * 1e3
        return row


def phase_b1(client: ServeClient, window_s: float, spec: ServeSpec,
             samples: PhaseSamples, speed: HostSpeed) -> None:
    for index in range(B1_WARMUP):
        client.predict(index)
    latencies = []
    window = Window(window_s, math.ceil(min_samples_for(99) / ROUNDS))
    index = 0
    while window.more(len(latencies)):
        latency = client.predict(index)
        if latency is not None:
            latencies.append(latency)
        index += 1
    samples.seconds += window.elapsed
    samples.requests += index + B1_WARMUP
    samples.latencies += latencies


def phase_full(client: ServeClient, window_s: float, spec: ServeSpec,
               samples: PhaseSamples, speed: HostSpeed) -> None:
    """Stream chunks of ``spec.full_chunk`` clips; one throughput sample per chunk."""
    size = spec.full_chunk
    received = [0]

    def chunk(first: int) -> None:
        stream = client.server.stream(client.stream_clips(first, size))
        for index, prediction in enumerate(stream, first):
            received[0] += 1
            client.check(index, prediction)

    window = None
    try:
        chunk(0)  # warm-up
        window = Window(window_s, FULL_MIN_CHUNKS)
        chunks = 0
        while window.more(chunks):
            chunks += 1
            _, raw_s, scaled_s = speed.timed(partial(chunk, chunks * size))
            samples.rates.append(size / scaled_s)
            samples.raw_rates.append(size / raw_s)
    except Exception as error:  # noqa: BLE001 — counted against error_rate
        client.tally.attempted += 1
        client.tally.fail(type(error).__name__)
    samples.seconds += window.elapsed if window else 0.0
    samples.requests += received[0]


def phase_open(client: ServeClient, window_s: float, spec: ServeSpec,
               samples: PhaseSamples, speed: HostSpeed) -> None:
    rate = spec.open_rate_hz
    warmup = int(round(OPEN_WARMUP_S * rate))
    count = warmup + max(int(round(window_s * rate)),
                         math.ceil(min_samples_for(99) / ROUNDS))
    started = clock()
    record = run_open_loop(client.submit, rate, count, timeout_s=REQUEST_TIMEOUT_S)
    for index, (result, error) in enumerate(zip(record.results, record.errors)):
        if error is not None:
            client.tally.attempted += 1
            client.tally.fail(type(error).__name__)
        else:
            client.check(index, result)
    samples.seconds += clock() - started
    samples.requests += count
    samples.latencies += record.latencies(skip=warmup)
    samples.lateness += record.lateness(skip=warmup)


PHASES = {"b1": phase_b1, "full": phase_full, "open": phase_open}


def run_round(client: ServeClient, spec: ServeSpec, seconds: float,
              samples: Dict[str, PhaseSamples], speed: HostSpeed,
              tracer: Optional[Tracer] = None) -> None:
    """Every phase once, ``seconds`` split by phase share, pooled into ``samples``."""
    for phase, share in spec.phases:
        client.phase = phase
        if tracer is not None:
            tracer.phase = phase
        before = client.server.stats_object()
        PHASES[phase](client, seconds * share, spec, samples[phase], speed)
        after = client.server.stats_object()
        pooled = samples[phase]
        pooled.batches += after.batches - before.batches
        pooled.served += ((after.completed + after.failed)
                          - (before.completed + before.failed))
        pooled.deadline_flushes += (after.flushed_on_deadline
                                    - before.flushed_on_deadline)
    if tracer is not None:
        tracer.phase = ""



def start_server(spec: ServeSpec, checkpoint: str, first_clip) -> Tuple[InferenceServer, object, dict]:
    """Registry load -> server start -> first result, each timed."""
    start = clock()
    registry = ModelRegistry()
    registry.register(spec.model, checkpoint)
    bundle = registry.get(spec.model)
    loaded = clock()
    server = InferenceServer(bundle, capture_mode=spec.capture)
    started = clock()
    first = server.predict(first_clip, timeout=REQUEST_TIMEOUT_S)
    ready = clock()
    return server, first, {"setup_s": ready - start, "registry.load_s": loaded - start,
                           "server.start_s": started - loaded, "warmup_s": ready - started}


def timed_setup(speed: HostSpeed, build: Callable[[], tuple]) -> tuple:
    """``build()``, whose last item is its times, with the times at reference host speed."""
    result, raw_s, scaled_s = speed.timed(build)
    *built, times = result
    scaled = {key: value * scaled_s / raw_s for key, value in times.items()}
    scaled["setup_s_raw"] = times["setup_s"]
    return (*built, scaled)


def check_server_counts(client: ServeClient, tally: Tally,
                        run_batch_spans: Optional[int] = None) -> None:
    """The benchmark's own counts must equal the server's counters."""
    stats = client.server.stats()
    name = client.server.bundle.name
    served = sum(size * count for size, count in stats["batch_size_hist"].items())
    expectations = [
        ("submitted", stats["submitted"], client.submitted),
        ("completed + failed", stats["completed"] + stats["failed"], client.submitted),
        ("rejected", stats["rejected"], client.refused),
        ("clips in batches", served, client.submitted),
        ("batches", stats["batches"], sum(stats["batch_size_hist"].values())),
    ]
    if run_batch_spans is not None:
        expectations.append(("traced run_batch calls", stats["batches"], run_batch_spans))
    for label, server_value, own_value in expectations:
        if server_value != own_value:
            tally.problems.append(
                f"{name}: server {label} = {server_value}, benchmark counted {own_value}")


def instrument(tracer: Tracer, model_class, tracker: Optional[RequestTracker] = None) -> None:
    """Wrap the public calls of every layer the workloads reach."""
    hook = tracker.on_run_batch if tracker is not None else None
    tracer.instrument(BundleExecutor, "run_batch", "serving.run_batch", hook=hook)
    tracer.instrument(BundleExecutor, "screen_clip", "serving.screen_clip")
    tracer.instrument(BundleExecutor, "encode", "serving.encode")
    tracer.instrument(BundleExecutor, "forward", "serving.forward")
    tracer.instrument(StackedCESensor, "capture_batch", "hardware.capture_batch")
    tracer.instrument(CodedExposureSensor, "capture", "ce.capture")
    tracer.instrument(model_class, "forward", "model.forward")
    for module, name in NN_CLASSES:
        tracer.instrument(getattr(module, name), "forward", f"nn.{name}")
    tracer.instrument(Tensor, "backward", "autograd.backward")
    tracer.instrument(training_module, "clip_grad_norm", "optim.clip_grad_norm")
    tracer.instrument(AdamW, "step", "optim.AdamW.step")
    tracer.instrument(functional, "cross_entropy", "nn.cross_entropy")
    tracer.instrument(BatchLoader, "__iter__", "data.next_batch", iterator=True)
    tracer.instrument(ActionRecognitionTrainer, "train_epoch", "train.epoch")


def nn_layer_metrics(totals: Dict[str, dict], clips: int) -> Dict[str, float]:
    metrics = {}
    for _, name in NN_CLASSES:
        row = totals.get(f"nn.{name}", {"total_s": 0.0, "self_s": 0.0})
        metrics[f"nn.{name}.self_ms"] = row["self_s"] * 1e3 / clips
        metrics[f"nn.{name}.total_ms"] = row["total_s"] * 1e3 / clips
    return metrics


def serve_layer_metrics(tracer: Tracer, tracker: RequestTracker,
                        spec: ServeSpec) -> Dict[str, float]:
    metrics = {}
    for phase, _ in spec.phases:
        queue_waits, resolves = tracker.waits(phase)
        metrics[f"serving.{phase}.queue_wait_p50_ms"] = percentile(queue_waits, 50) * 1e3
        if phase != "full":
            metrics[f"serving.{phase}.resolve_p50_ms"] = percentile(resolves, 50) * 1e3
    totals = totals_by_name(tracer.spans, phase="full")
    clips = totals["serving.screen_clip"]["calls"]

    def per_clip(name: str, key: str = "total_s") -> float:
        return totals.get(name, {key: 0.0})[key] * 1e3 / clips

    metrics.update({
        "serving.screen_ms_per_clip": per_clip("serving.screen_clip"),
        "serving.run_batch_self_ms": per_clip("serving.run_batch", "self_s"),
        "ce.encode_ms_per_clip": per_clip("serving.encode"),
        "hardware.capture_ms_per_clip": per_clip("hardware.capture_batch"),
        "model.forward_ms_per_clip": per_clip("serving.forward"),
    })
    metrics.update(nn_layer_metrics(totals, clips))
    return metrics


def host_record(speed: HostSpeed) -> Dict[str, float]:
    return {"reference_ms": speed.reference_s * 1e3,
            "kernel_p50_ms": median(speed.kernel_s) * 1e3,
            "kernel_runs": len(speed.kernel_s)}


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              workdir: str, tracer: Optional[Tracer] = None) -> RunResult:
    spec = SERVE_WORKLOADS[name]
    tally = Tally()
    pool = make_pool(spec, seed)
    checkpoint = write_checkpoint(spec, workdir)

    speed = HostSpeed()
    setups, firsts = [], []

    def set_up() -> InferenceServer:
        server, first, times = timed_setup(
            speed, partial(start_server, spec, checkpoint, pool[0]))
        setups.append(times)
        firsts.append(first)
        return server

    def more_setups() -> None:
        for _ in range(SERVE_SETUPS_PER_ROUND):
            set_up().close()

    server = set_up()
    # The reference runs outside every timed window and outside setup.
    reference = [p.label for p in server.predict_sequential(pool)]
    client = ServeClient(server, pool, reference, tally)
    client.submitted = 1  # the first result of its setup
    samples = {phase: PhaseSamples() for phase, _ in spec.phases}
    traced_samples = {phase: PhaseSamples() for phase, _ in spec.phases}
    tracker = RequestTracker()
    traced = None
    round_s = (seconds / 2 if trace else seconds) / ROUNDS
    try:
        for _ in range(ROUNDS):
            more_setups()
            run_round(client, spec, round_s, samples, speed)
            if not trace:
                continue
            # Traced rounds alternate with untraced ones, so both see the
            # same stretches of host load.
            instrument(tracer, type(server.bundle.model), tracker)
            try:
                if traced is None:
                    # Built while instrumented: a server binds run_batch
                    # when it starts.
                    traced = ServeClient(InferenceServer(server.bundle,
                                                         capture_mode=spec.capture),
                                         pool, reference, tally, tracker)
                    traced.check(0, traced.server.predict(pool[0],
                                                          timeout=REQUEST_TIMEOUT_S))
                    traced.submitted += 1
                run_round(traced, spec, round_s, traced_samples, speed, tracer)
            finally:
                tracer.restore()
    finally:
        server.close()
        if traced is not None:
            traced.server.close()
    check_server_counts(client, tally)
    for first in firsts:
        client.check(0, first)
    setup = {key: median([row[key] for row in setups]) for key in setups[0]}
    phases = {phase: pooled.summary() for phase, pooled in samples.items()}
    end_to_end = {"setup_s": setup["setup_s"],
                  "op_p50_ms": phases["b1"]["p50_ms"],
                  "full_cps": phases["full"]["cps"]}
    result = RunResult(tally, setup, phases, end_to_end, host=host_record(speed))
    if not trace:
        return result

    check_server_counts(traced, tally, run_batch_spans=sum(
        1 for span in tracer.spans if span.name == "serving.run_batch"))
    traced_phases = {phase: pooled.summary() for phase, pooled in traced_samples.items()}
    layer = dict.fromkeys((metric for metric, _ in PER_LAYER), 0.0)
    layer.update({key: value for key, value in setup.items()
                  if key not in ("setup_s", "setup_s_raw")})
    for phase, row in traced_phases.items():
        layer[f"serving.{phase}.batch_size_mean"] = row["batch_size_mean"]
        layer[f"serving.{phase}.deadline_flush_frac"] = row["deadline_flush_frac"]
    layer.update(serve_layer_metrics(tracer, tracker, spec))
    if "open" in phases:
        layer["loadgen.late_p99_ms"] = traced_phases["open"]["late_p99_ms"]
        layer["loadgen.open_p50_ms"] = phases["open"]["p50_ms"]
        layer["loadgen.open_p99_ms"] = phases["open"]["p99_ms"]
    layer["loadgen.op_p99_ms"] = phases["b1"]["p99_ms"]
    layer["trace.overhead_frac"] = phases["full"]["cps"] / traced_phases["full"]["cps"] - 1.0
    result.per_layer = layer
    result.phases.update({f"traced_{phase}": row for phase, row in traced_phases.items()})
    return result


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class StepClock:
    """Iterable stand-in for a trainer's loader that timestamps every batch request.

    The trainer asks for batch ``k + 1`` right after finishing step
    ``k``, so consecutive marks bound one optimisation step (its batch
    load included).
    """

    def __init__(self, loader: BatchLoader):
        self.loader = loader
        self.marks: List[float] = []

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        iterator = iter(self.loader)
        while True:
            self.marks.append(clock())
            try:
                item = next(iterator)
            except StopIteration:
                return
            yield item


def build_trainer(seed: int) -> Tuple[ActionRecognitionTrainer, StepClock, float, dict]:
    """Dataset -> model and trainer -> first optimisation step, each timed."""
    start = clock()
    dataset = build_dataset("ssv2", train_clips_per_class=TRAIN_CLIPS_PER_CLASS,
                            test_clips_per_class=1, seed=seed)
    built_data = clock()
    spec = build_spec("snappix_s", num_classes=dataset.num_classes,
                      image_size=dataset.frame_size, num_frames=dataset.num_frames,
                      tile_size=TILE_SIZE, seed=0)
    model = build_from_spec(spec)
    config = CEConfig(num_slots=dataset.num_frames, tile_size=TILE_SIZE,
                      frame_height=dataset.frame_size, frame_width=dataset.frame_size)
    sensor = CodedExposureSensor(config, make_pattern(
        "random", dataset.num_frames, TILE_SIZE, rng=np.random.default_rng(0)))
    trainer = ActionRecognitionTrainer(model, dataset, sensor=sensor,
                                       batch_size=TRAIN_BATCH, epochs=100_000,
                                       compute_dtype=np.float32, seed=seed)
    steps = StepClock(trainer.loader)
    trainer.loader = steps
    built = clock()
    loss = trainer.train_epoch()
    first_step = steps.marks[1]
    times = {"setup_s": first_step - start, "train.dataset_s": built_data - start,
             "train.build_s": built - built_data, "warmup_s": first_step - built}
    return trainer, steps, loss, times


def count_epoch(tally: Tally, loss: float, steps: int) -> None:
    """An epoch's mean loss is finite exactly when every step's loss is."""
    tally.attempted += steps
    if not np.isfinite(loss):
        tally.fail("non_finite_loss", steps)


@dataclass
class TrainSamples:
    """Step times and per-epoch throughputs at reference host speed, pooled over rounds."""

    seconds: float = 0.0
    epochs: int = 0
    durations: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    raw_rates: List[float] = field(default_factory=list)

    def summary(self) -> dict:
        return {"seconds": self.seconds, "steps": len(self.durations),
                "epochs": self.epochs, "n_rates": len(self.rates),
                "cps": median(self.rates), "cps_raw": median(self.raw_rates),
                "sps": median(self.rates) / TRAIN_BATCH,
                **latency_summary(self.durations)}


def train_round(trainer: ActionRecognitionTrainer, steps: StepClock,
                seconds: float, tally: Tally, samples: TrainSamples,
                speed: HostSpeed) -> None:
    """Train whole epochs for ``seconds`` (or until enough steps); pool the timings.

    One unmeasured epoch first lets the allocator settle after whatever
    ran between rounds.  Each epoch is one throughput sample, and its
    steps' times are scaled by the epoch's host-speed factor.
    """
    count_epoch(tally, trainer.train_epoch(), len(steps))
    clips_per_epoch = len(trainer.dataset.train_videos)
    window = Window(seconds, math.ceil(min_samples_for(99) / ROUNDS))
    epochs = 0
    while window.more(epochs * len(steps)):
        first_mark = len(steps.marks)
        loss, raw_s, scaled_s = speed.timed(trainer.train_epoch)
        epochs += 1
        step_times = np.diff(steps.marks[first_mark:]) * (scaled_s / raw_s)
        samples.durations.extend(step_times.tolist())
        samples.rates.append(clips_per_epoch / scaled_s)
        samples.raw_rates.append(clips_per_epoch / raw_s)
        count_epoch(tally, loss, len(step_times))
    samples.seconds += window.elapsed
    samples.epochs += epochs


def run_train(seed: int, seconds: float, trace: bool,
              tracer: Optional[Tracer] = None) -> RunResult:
    tally = Tally()
    speed = HostSpeed()
    setups = []

    def set_up() -> Tuple[ActionRecognitionTrainer, StepClock]:
        trainer, steps, loss, times = timed_setup(speed, partial(build_trainer, seed))
        setups.append(times)
        count_epoch(tally, loss, len(steps))
        return trainer, steps

    trainer, steps = set_up()
    samples, traced_samples = TrainSamples(), TrainSamples()
    round_s = (seconds / 2 if trace else seconds) / ROUNDS
    for _ in range(ROUNDS):
        for _ in range(TRAIN_SETUPS_PER_ROUND):
            set_up()
        train_round(trainer, steps, round_s, tally, samples, speed)
        if not trace:
            continue
        instrument(tracer, type(trainer.model))
        tracer.phase = "train"
        try:
            train_round(trainer, steps, round_s, tally, traced_samples, speed)
        finally:
            tracer.restore()
            tracer.phase = ""
    setup = {key: median([row[key] for row in setups]) for key in setups[0]}
    train = samples.summary()
    end_to_end = {"setup_s": setup["setup_s"], "op_p50_ms": train["p50_ms"],
                  "full_cps": train["cps"]}
    result = RunResult(tally, setup, {"train": train}, end_to_end, host=host_record(speed))
    if not trace:
        return result

    traced = traced_samples.summary()
    totals = totals_by_name(tracer.spans, phase="train")
    step_count = totals["model.forward"]["calls"]
    layer = dict.fromkeys((metric for metric, _ in PER_LAYER), 0.0)
    layer.update({key: value for key, value in setup.items()
                  if key not in ("setup_s", "setup_s_raw")})
    for short, span in TRAIN_SPANS:
        layer[f"train.{short}_ms"] = totals.get(span, {"total_s": 0.0})["total_s"] * 1e3 / step_count
    layer.update(nn_layer_metrics(totals, step_count * TRAIN_BATCH))
    layer["loadgen.op_p99_ms"] = train["p99_ms"]
    layer["trace.overhead_frac"] = train["cps"] / traced["cps"] - 1.0
    result.per_layer = layer
    result.phases["traced_train"] = traced
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> RunResult:
    tracer = Tracer() if trace else None
    if name == "ce_train":
        result = run_train(seed, seconds, trace, tracer)
    else:
        result = run_serve(name, seed, seconds, trace, workdir, tracer)
    if tracer is not None:
        errors = nesting_errors(tracer.spans)
        result.tally.problems.extend(errors[:5])
        result.tracer = tracer
    return result
