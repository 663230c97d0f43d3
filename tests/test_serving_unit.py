"""Tests for the ``repro.serving`` subsystem.

Covers the :class:`MicroBatcher` scheduler (flush-on-size,
flush-on-deadline, backpressure rejection, concurrent-submitter
equivalence, idle shutdown), the warm :class:`ModelRegistry` and
servable checkpoint round-trip, the :class:`InferenceServer` request
path (batched == sequential argmax, ordering, streaming, hardware
capture mode, telemetry), and the ``BatchEncoder`` streamed-vs-batched
dtype regression the serving path relies on.
"""

import threading
import time

import numpy as np
import pytest

from repro.ce import CEConfig, CodedExposureSensor, make_pattern
from repro.core import PipelineConfig, SnapPixSystem
from repro.hardware import StackedCESensor
from repro.runtime import BatchEncoder
from repro.serving import (
    BatcherClosed,
    BundleExecutor,
    InferenceServer,
    InvalidRequest,
    MicroBatcher,
    ModelRegistry,
    RequestFailure,
    RequestRejected,
    ServerStats,
    TrafficFaults,
    fresh_bundle,
    generate_clips,
    load_servable,
    poison_clips,
    quantize_bundle,
    run_fault_injection,
    run_load_test,
    save_servable,
)
from repro.serving.server import Prediction


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_flush_on_size(self):
        batches = []

        def run_batch(payloads):
            batches.append(list(payloads))
            return [p * 2 for p in payloads]

        # A long deadline means only the size limit can flush full batches.
        with MicroBatcher(run_batch, max_batch_size=4, max_delay_s=5.0,
                          max_queue=64) as batcher:
            futures = batcher.submit_many(list(range(8)))
            results = [f.result(timeout=10) for f in futures]
        assert results == [p * 2 for p in range(8)]
        assert [len(b) for b in batches] == [4, 4]
        assert batcher.stats.flushed_on_size == 2
        assert batcher.stats.flushed_on_deadline == 0

    def test_flush_on_deadline(self):
        def run_batch(payloads):
            return list(payloads)

        # One lone request, batch room for 32: only the deadline fires.
        with MicroBatcher(run_batch, max_batch_size=32, max_delay_s=0.05,
                          max_queue=8) as batcher:
            start = time.monotonic()
            future = batcher.submit("lonely")
            assert future.result(timeout=10) == "lonely"
            waited = time.monotonic() - start
        assert batcher.stats.batches == 1
        assert batcher.stats.flushed_on_deadline == 1
        assert batcher.stats.batch_size_hist == {1: 1}
        # The flush must not have waited for a full batch that never comes.
        assert waited < 5.0

    def test_backpressure_rejection(self):
        release = threading.Event()

        def run_batch(payloads):
            release.wait(timeout=10)
            return list(payloads)

        batcher = MicroBatcher(run_batch, max_batch_size=1, max_delay_s=0.0,
                               max_queue=2)
        try:
            # The worker blocks inside the first batch, so the bounded
            # queue (2) must fill and reject within a few submits —
            # without blocking the caller or growing memory.
            accepted = []
            with pytest.raises(RequestRejected):
                for value in range(16):
                    accepted.append((value, batcher.submit(value)))
            assert batcher.stats.rejected >= 1
            assert len(accepted) <= 3  # first in-flight + 2 queued
        finally:
            release.set()
            batcher.close()
        # Every accepted request still completed with its own result.
        assert [future.result(timeout=10) for _, future in accepted] == \
            [value for value, _ in accepted]
        assert batcher.stats.completed == len(accepted)

    def test_concurrent_submitters_match_sequential(self):
        def run_batch(payloads):
            # Deterministic, batch-invariant work.
            return [p ** 2 + 1 for p in payloads]

        expected = {value: run_batch([value])[0] for value in range(64)}
        results = {}
        errors = []

        with MicroBatcher(run_batch, max_batch_size=8, max_delay_s=0.005,
                          max_queue=256) as batcher:

            def submitter(offset):
                try:
                    futures = [(value, batcher.submit(value))
                               for value in range(offset, offset + 16)]
                    for value, future in futures:
                        results[value] = future.result(timeout=10)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=submitter, args=(offset,))
                       for offset in range(0, 64, 16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        assert results == expected
        assert batcher.stats.submitted == 64
        assert batcher.stats.completed == 64

    def test_idle_shutdown_without_requests(self):
        batcher = MicroBatcher(lambda payloads: payloads, max_batch_size=4)
        batcher.close(timeout=10)
        assert batcher.closed
        assert batcher.stats.batches == 0
        with pytest.raises(BatcherClosed):
            batcher.submit(1)
        # close() is idempotent.
        batcher.close()

    def test_drain_on_close(self):
        def run_batch(payloads):
            time.sleep(0.01)
            return list(payloads)

        batcher = MicroBatcher(run_batch, max_batch_size=4, max_delay_s=0.5,
                               max_queue=64)
        futures = batcher.submit_many(list(range(10)))
        batcher.close(timeout=30)
        assert [f.result(timeout=1) for f in futures] == list(range(10))

    def test_cancelled_future_does_not_kill_worker(self):
        release = threading.Event()

        def run_batch(payloads):
            release.wait(timeout=10)
            return list(payloads)

        batcher = MicroBatcher(run_batch, max_batch_size=1, max_delay_s=0.0,
                               max_queue=8)
        try:
            blocker = batcher.submit("blocker")
            queued = batcher.submit("queued")
            assert queued.cancel()  # still queued -> cancellable
            release.set()
            assert blocker.result(timeout=10) == "blocker"
            # The worker must survive the cancelled future and keep
            # serving subsequent requests.
            assert batcher.submit("after").result(timeout=10) == "after"
        finally:
            release.set()
            batcher.close()
        assert batcher.stats.cancelled == 1

    def test_close_resolves_request_racing_shutdown(self):
        # A request enqueued around close() must still resolve: close()
        # drains the queue, so no accepted future is stranded.
        batcher = MicroBatcher(lambda payloads: list(payloads),
                               max_batch_size=4, max_delay_s=0.0)
        futures = batcher.submit_many(list(range(6)))
        batcher.close(timeout=30)
        assert [f.result(timeout=1) for f in futures] == list(range(6))

    def test_run_batch_error_propagates_to_futures(self):
        def run_batch(payloads):
            raise RuntimeError("kaboom")

        with MicroBatcher(run_batch, max_batch_size=2,
                          max_delay_s=0.0) as batcher:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="kaboom"):
                future.result(timeout=10)
        assert batcher.stats.failed == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda p: p, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda p: p, max_delay_s=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda p: p, max_queue=0)


class TestServerStats:
    def test_observe_and_snapshot(self):
        stats = ServerStats()
        stats.observe_batch(4, "size")
        stats.observe_batch(2, "deadline")
        stats.observe_batch(2, "close")
        stats.observe_queue_depth(7)
        snapshot = stats.as_dict()
        assert snapshot["batches"] == 3
        assert snapshot["batch_size_hist"] == {2: 2, 4: 1}
        assert snapshot["mean_batch_size"] == pytest.approx(8 / 3)
        assert snapshot["max_queue_depth"] == 7
        with pytest.raises(ValueError):
            stats.observe_batch(1, "mystery")


# ----------------------------------------------------------------------
# Registry / servable checkpoints
# ----------------------------------------------------------------------
class TestServableBundles:
    def test_fresh_bundle_ce_has_sensor(self):
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8)
        assert bundle.input_kind == "ce"
        assert bundle.sensor is not None
        assert bundle.model.dtype == np.float32

    def test_fresh_bundle_video_model(self):
        bundle = fresh_bundle("c3d", image_size=16, num_frames=8)
        assert bundle.input_kind == "video"
        assert bundle.sensor is None

    def test_save_load_roundtrip(self, tmp_path):
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8,
                              seed=3)
        path = save_servable(tmp_path / "model", bundle.model, bundle.spec,
                             sensor=bundle.sensor, metadata={"note": "hi"})
        assert path.suffix == ".npz"
        loaded = load_servable(path)
        assert loaded.spec == bundle.spec
        assert loaded.metadata["note"] == "hi"
        assert np.array_equal(loaded.sensor.tile_pattern,
                              bundle.sensor.tile_pattern)
        for (name, p1), (_, p2) in zip(loaded.model.named_parameters(),
                                       bundle.model.named_parameters()):
            assert np.array_equal(p1.data, p2.data), name

    def test_save_ce_model_requires_sensor(self, tmp_path):
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8)
        with pytest.raises(ValueError, match="sensor"):
            save_servable(tmp_path / "m", bundle.model, bundle.spec)

    def test_load_rejects_bare_checkpoint(self, tmp_path):
        from repro.nn import save_checkpoint
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8)
        save_checkpoint(bundle.model, tmp_path / "bare.npz")
        with pytest.raises(ValueError, match="serving"):
            load_servable(tmp_path / "bare.npz")

    def test_registry_scan_and_warm_get(self, tmp_path):
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8)
        save_servable(tmp_path / "snappix_s", bundle.model, bundle.spec,
                      sensor=bundle.sensor)
        # A bare checkpoint in the same directory must be skipped.
        from repro.nn import save_checkpoint
        save_checkpoint(bundle.model, tmp_path / "bare.npz")

        registry = ModelRegistry(root=tmp_path)
        assert registry.names() == ["snappix_s"]
        assert "snappix_s" in registry
        assert registry.loaded_names() == []
        first = registry.get("snappix_s")
        # Warm: the same resident object comes back, no reload.
        assert registry.get("snappix_s") is first
        assert registry.loaded_names() == ["snappix_s"]
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_registry_concurrent_get_loads_once(self, tmp_path):
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8)
        save_servable(tmp_path / "snappix_s", bundle.model, bundle.spec,
                      sensor=bundle.sensor)
        registry = ModelRegistry(root=tmp_path)
        results = []

        def getter():
            results.append(registry.get("snappix_s"))

        threads = [threading.Thread(target=getter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(b is results[0] for b in results)

    def test_registry_scan_skips_corrupt_checkpoint(self, tmp_path):
        bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8)
        save_servable(tmp_path / "snappix_s", bundle.model, bundle.spec,
                      sensor=bundle.sensor)
        # A truncated/garbage .npz (e.g. a killed export) must be
        # skipped, not abort the scan for the healthy checkpoints.
        (tmp_path / "truncated.npz").write_bytes(b"PK\x03\x04garbage")
        (tmp_path / "noise.npz").write_bytes(b"not a zip at all")
        registry = ModelRegistry(root=tmp_path)
        assert registry.names() == ["snappix_s"]

    def test_registry_warm_preloads(self, tmp_path):
        for seed in (0, 1):
            bundle = fresh_bundle("snappix_s", image_size=16, num_frames=8,
                                  seed=seed, name=f"m{seed}")
            save_servable(tmp_path / f"m{seed}", bundle.model, bundle.spec,
                          sensor=bundle.sensor, name=f"m{seed}")
        registry = ModelRegistry(root=tmp_path)
        assert registry.warm() == ["m0", "m1"]
        assert registry.loaded_names() == ["m0", "m1"]

    def test_system_export_servable(self, tmp_path):
        config = PipelineConfig(frame_size=16, num_slots=8, tile_size=8,
                                pattern="random", model_variant="tiny",
                                pattern_epochs=1, pretrain_epochs=1,
                                pretrain_clips=4, finetune_epochs=1, seed=0)
        system = SnapPixSystem(config)
        system.prepare_pattern()
        system.pretrain()
        path = system.export_servable(tmp_path / "export")
        bundle = load_servable(path)
        assert bundle.spec["name"] == "snappix_tiny"
        assert bundle.metadata["pretrained"] is True
        assert np.array_equal(bundle.sensor.tile_pattern, system.pattern)
        with InferenceServer(bundle, max_batch_size=4) as server:
            prediction = server.predict(np.random.default_rng(0).random(
                (8, 16, 16)))
        assert 0 <= prediction.label < bundle.spec["num_classes"]

    def test_export_requires_pattern(self, tmp_path):
        system = SnapPixSystem(PipelineConfig(frame_size=16, num_slots=8))
        with pytest.raises(RuntimeError):
            system.export_servable(tmp_path / "nope")

    def test_export_rejects_mismatched_external_model(self, tmp_path):
        from repro.models import build_model
        config = PipelineConfig(frame_size=16, num_slots=8, tile_size=8,
                                pattern="random", model_variant="tiny",
                                pattern_epochs=1, pretrain_clips=4, seed=0)
        system = SnapPixSystem(config)
        system.prepare_pattern()
        # Wrong head size (and geometry) for the system's serving spec:
        # must fail at export, not at load time in another process.
        wrong = build_model("snappix_tiny", num_classes=3, image_size=16,
                            seed=0)
        with pytest.raises(ValueError, match="serving spec"):
            system.export_servable(tmp_path / "bad", model=wrong)


# ----------------------------------------------------------------------
# InferenceServer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ce_bundle():
    return fresh_bundle("snappix_s", num_classes=6, image_size=16,
                        num_frames=8, seed=0)


class TestInferenceServer:
    def test_batched_equals_sequential(self, ce_bundle):
        clips = generate_clips(13, 8, 16, seed=7)
        with InferenceServer(ce_bundle, max_batch_size=8,
                             max_delay_s=0.02) as server:
            futures = server.submit_many(clips)
            batched = [f.result(timeout=30) for f in futures]
            sequential = server.predict_sequential(clips)
        assert [p.label for p in batched] == [p.label for p in sequential]
        for a, b in zip(batched, sequential):
            np.testing.assert_allclose(a.logits, b.logits, rtol=1e-4,
                                       atol=1e-5)

    def test_stream_preserves_order(self, ce_bundle):
        clips = generate_clips(9, 8, 16, seed=3)
        with InferenceServer(ce_bundle, max_batch_size=4,
                             max_delay_s=0.01) as server:
            streamed = list(server.stream(clips))
            sequential = server.predict_sequential(clips)
        assert [p.label for p in streamed] == [p.label for p in sequential]

    def test_stream_longer_than_queue_bound_never_rejects(self, ce_bundle):
        # The submission window must keep arbitrarily long streams
        # under the backpressure limit instead of aborting mid-stream.
        clips = generate_clips(30, 8, 16, seed=13)
        with InferenceServer(ce_bundle, max_batch_size=4, max_delay_s=0.005,
                             max_queue=8) as server:
            streamed = list(server.stream(clips))
            sequential = server.predict_sequential(clips)
        assert [p.label for p in streamed] == [p.label for p in sequential]
        assert server.stats()["rejected"] == 0

    def test_stream_rejects_bad_window(self, ce_bundle):
        with InferenceServer(ce_bundle, max_batch_size=2) as server:
            with pytest.raises(ValueError, match="window"):
                list(server.stream(generate_clips(2, 8, 16), window=0))

    def test_video_model_path(self):
        bundle = fresh_bundle("c3d", num_classes=4, image_size=16,
                              num_frames=8, seed=1)
        clips = generate_clips(5, 8, 16, seed=2)
        with InferenceServer(bundle, max_batch_size=4,
                             max_delay_s=0.01) as server:
            batched = [f.result(timeout=60)
                       for f in server.submit_many(clips)]
            sequential = server.predict_sequential(clips)
        assert [p.label for p in batched] == [p.label for p in sequential]
        assert server.stats()["capture_mode"] == "none"

    def test_hardware_capture_mode_matches_operator(self, ce_bundle):
        clips = generate_clips(4, 8, 16, seed=5)
        with InferenceServer(ce_bundle, max_batch_size=4, max_delay_s=0.01,
                             capture_mode="hardware") as hw_server:
            hw = [f.result(timeout=30) for f in hw_server.submit_many(clips)]
        with InferenceServer(ce_bundle, max_batch_size=4,
                             max_delay_s=0.01) as op_server:
            op = [f.result(timeout=30) for f in op_server.submit_many(clips)]
        assert [p.label for p in hw] == [p.label for p in op]
        for a, b in zip(hw, op):
            np.testing.assert_allclose(a.logits, b.logits, rtol=1e-4,
                                       atol=1e-5)

    def test_int8_hardware_capture_matches_operator_bitwise(self):
        # The int8 bundle serves raw integer charge sums: the simulator
        # accumulates uint8 light exactly in float64 and the operator
        # sums it in integers, so both paths feed the model the same
        # integers and must give the same logits bit-for-bit.
        bundle = quantize_bundle(
            fresh_bundle("snappix_s", num_classes=6, image_size=16,
                         num_frames=16, seed=0), seed=0)
        assert bundle.integer_input
        clips = list(generate_clips(6, 16, 16, seed=9, integer=True))
        hw = BundleExecutor(bundle, "hardware").run_batch(clips)
        op = BundleExecutor(bundle, "operator").run_batch(clips)
        assert [p.label for p in hw] == [p.label for p in op]
        for a, b in zip(hw, op):
            assert np.array_equal(a.logits, b.logits)

    def test_invalid_clip_shape_raises_at_submit(self, ce_bundle):
        with InferenceServer(ce_bundle, max_batch_size=2) as server:
            with pytest.raises(ValueError, match="clip shape"):
                server.submit(np.zeros((3, 16, 16)))

    def test_invalid_capture_mode(self, ce_bundle):
        with pytest.raises(ValueError, match="capture_mode"):
            InferenceServer(ce_bundle, capture_mode="quantum")

    def test_stats_and_load_test(self, ce_bundle):
        clips = generate_clips(12, 8, 16, seed=11)
        with InferenceServer(ce_bundle, max_batch_size=6, max_delay_s=0.02,
                             max_queue=64) as server:
            row, predictions = run_load_test(server, clips)
            stats = server.stats()
        assert row["num_requests"] == 12
        assert len(predictions) == 12
        assert row["inference_per_second"] > 0
        assert row["latency_p95_ms"] >= row["latency_p50_ms"] > 0
        assert stats["submitted"] == 12
        assert stats["completed"] == 12
        assert stats["rejected"] == 0
        assert sum(size * count for size, count
                   in stats["batch_size_hist"].items()) == 12
        assert stats["encoder"]["clips_encoded"] >= 12


# ----------------------------------------------------------------------
# StackedCESensor batched capture (serving "hardware" front-end)
# ----------------------------------------------------------------------
class TestCaptureBatch:
    def _setup(self, rng):
        config = CEConfig(num_slots=8, tile_size=4, frame_height=16,
                          frame_width=16)
        pattern = make_pattern("random", 8, 4, rng=rng)
        return config, pattern

    def test_matches_sequential_captures_bitwise(self, rng):
        config, pattern = self._setup(rng)
        videos = rng.random((3, 8, 16, 16))
        batched = StackedCESensor(config, pattern).capture_batch(videos)
        singles = np.stack([StackedCESensor(config, pattern).capture(video)
                            for video in videos])
        assert np.array_equal(batched, singles)

    def test_counters_scale_with_batch(self, rng):
        config, pattern = self._setup(rng)
        videos = rng.random((3, 8, 16, 16))
        batch_sensor = StackedCESensor(config, pattern)
        batch_sensor.capture_batch(videos)
        single_sensor = StackedCESensor(config, pattern)
        for video in videos:
            single_sensor.capture(video)
        assert batch_sensor.capture_stats() == single_sensor.capture_stats()

    def test_rejects_bad_shapes_and_negative_light(self, rng):
        config, pattern = self._setup(rng)
        sensor = StackedCESensor(config, pattern)
        with pytest.raises(ValueError):
            sensor.capture_batch(rng.random((8, 16, 16)))
        with pytest.raises(ValueError):
            sensor.capture_batch(-rng.random((2, 8, 16, 16)))
        empty = sensor.capture_batch(np.zeros((0, 8, 16, 16)))
        assert empty.shape == (0, 16, 16)


# ----------------------------------------------------------------------
# BatchEncoder stream/batch dtype regression (serving encode path)
# ----------------------------------------------------------------------
class TestEncodeStreamDtypeRegression:
    def _encoder(self, rng, dtype=None):
        config = CEConfig(num_slots=8, tile_size=4, frame_height=16,
                          frame_width=16)
        sensor = CodedExposureSensor(config,
                                     make_pattern("random", 8, 4, rng=rng))
        return BatchEncoder(sensor, batch_size=3, dtype=dtype)

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_mixed_dtype_stream_matches_per_clip_encode(self, rng, dtype):
        encoder = self._encoder(rng, dtype)
        clips = [rng.random((8, 16, 16)),
                 rng.random((8, 16, 16)).astype(np.float32),
                 rng.integers(0, 256, (8, 16, 16), dtype=np.uint8),
                 rng.random((8, 16, 16)),
                 rng.integers(0, 256, (8, 16, 16), dtype=np.uint8)]
        streamed = list(encoder.encode_stream(iter(clips)))
        singles = [encoder.encode(clip) for clip in clips]
        assert len(streamed) == len(clips)
        for coded_stream, coded_single in zip(streamed, singles):
            assert coded_stream.dtype == coded_single.dtype
            assert np.array_equal(coded_stream, coded_single)

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_uniform_stream_matches_batched_encode(self, rng, dtype):
        encoder = self._encoder(rng, dtype)
        clips = rng.random((7, 8, 16, 16))
        streamed = np.stack(list(encoder.encode_stream(iter(clips))))
        batched = encoder.encode(clips)
        assert np.array_equal(streamed, batched)

    def test_stream_rejects_bad_rank(self, rng):
        encoder = self._encoder(rng)
        with pytest.raises(ValueError):
            list(encoder.encode_stream([rng.random((16, 16))]))


# ----------------------------------------------------------------------
# Fault injection: poisoned requests fail alone, the batch survives
# ----------------------------------------------------------------------
class TestFaultIsolation:
    def test_poisoned_request_fails_typed_while_batchmates_succeed(
            self, ce_bundle):
        """The acceptance invariant: a NaN clip coalesced into a micro-batch
        gets a typed per-request error; every valid clip in the SAME batch
        still returns its correct label; the server keeps serving after."""
        clips = generate_clips(8, 8, 16, seed=3)
        poisoned = np.array(clips)
        poisoned[2].reshape(-1)[::5] = np.nan
        poisoned[5].reshape(-1)[-1] = np.inf
        with InferenceServer(ce_bundle, max_batch_size=8,
                             max_delay_s=5.0) as server:
            reference = server.predict_sequential(
                [clips[i] for i in (0, 1, 3, 4, 6, 7)])
            # max_batch_size == number of requests and a long deadline:
            # all eight coalesce into ONE batch.
            futures = server.submit_many(list(poisoned))
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30))
                except Exception as error:  # noqa: BLE001
                    outcomes.append(error)
            stats = server.stats()
            # Poisoned slots fail with the typed error...
            assert isinstance(outcomes[2], InvalidRequest)
            assert isinstance(outcomes[5], InvalidRequest)
            # ...while every valid batch-mate completes correctly.
            valid = [outcomes[i] for i in (0, 1, 3, 4, 6, 7)]
            assert all(isinstance(o, Prediction) for o in valid)
            assert [o.label for o in valid] == [r.label for r in reference]
            assert stats["request_failures"] == 2
            # The server still serves after the poisoned batch.
            probe = server.predict(clips[0])
            assert isinstance(probe, Prediction)

    def test_predict_sequential_raises_on_poisoned_clip(self, ce_bundle):
        clip = generate_clips(1, 8, 16, seed=4)[0]
        clip.reshape(-1)[0] = np.nan
        with InferenceServer(ce_bundle) as server:
            with pytest.raises(InvalidRequest):
                server.predict_sequential([clip])

    def test_negative_light_rejected_for_ce_bundle(self, ce_bundle):
        clip = generate_clips(1, 8, 16, seed=5)[0] - 2.0
        with InferenceServer(ce_bundle, max_delay_s=0.01) as server:
            with pytest.raises(InvalidRequest):
                server.submit(clip).result(timeout=30)

    def test_request_failure_sentinel_validates(self):
        failure = RequestFailure(InvalidRequest("bad"))
        assert isinstance(failure.error, InvalidRequest)
        assert "InvalidRequest" in repr(failure)
        with pytest.raises(TypeError):
            RequestFailure("not an exception")


class TestTrafficFaults:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficFaults(corrupt_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficFaults(corrupt_fraction=0.6, negative_fraction=0.6)
        with pytest.raises(ValueError):
            TrafficFaults(burst_size=-1)
        with pytest.raises(ValueError):
            TrafficFaults(slow_client_delay_s=-0.1)

    def test_poison_clips_is_deterministic(self):
        clips = generate_clips(12, 8, 16, seed=0)
        faults = TrafficFaults(corrupt_fraction=0.25, negative_fraction=0.25,
                               seed=9)
        first, kinds_first = poison_clips(clips, faults)
        second, kinds_second = poison_clips(clips, faults)
        assert kinds_first == kinds_second
        for a, b in zip(first, second):
            assert np.array_equal(a, b, equal_nan=True)
        assert kinds_first.count("corrupt") == 3
        assert kinds_first.count("negative") == 3

    def test_poison_kinds_match_content(self):
        clips = generate_clips(8, 8, 16, seed=1)
        faults = TrafficFaults(corrupt_fraction=0.25, negative_fraction=0.25,
                               seed=2)
        poisoned, kinds = poison_clips(clips, faults)
        for clip, kind in zip(poisoned, kinds):
            if kind == "corrupt":
                assert not np.isfinite(clip).all()
            elif kind == "negative":
                assert (clip < 0).any()
            else:
                assert np.isfinite(clip).all()
                assert (clip >= 0).all()

    def test_run_fault_injection_invariants(self, ce_bundle):
        clips = generate_clips(12, 8, 16, seed=6)
        faults = TrafficFaults(corrupt_fraction=0.25, negative_fraction=0.25,
                               burst_size=4, burst_pause_s=0.001,
                               slow_client_fraction=0.25,
                               slow_client_delay_s=0.001, seed=6)
        with InferenceServer(ce_bundle, max_batch_size=4,
                             max_delay_s=0.01) as server:
            outcome = run_fault_injection(server, clips, faults)
        assert outcome["num_requests"] == 12
        assert outcome["num_poisoned"] == 6
        assert outcome["typed_errors"] == 6
        assert outcome["untyped_errors"] == 0
        assert outcome["errors_all_typed"]
        assert outcome["valid_labels_match"]
        assert outcome["served_after_faults"]
        assert outcome["valid_completed"] == 6
