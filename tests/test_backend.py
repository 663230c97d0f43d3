"""Tests for the pluggable compute-backend layer (``repro.nn.backend``).

Covers the registry (selection precedence, context scoping, the numexpr
graceful fallback), op-level bit-identity of the threaded backend
against the NumPy reference (forced into its parallel paths so the
chunked kernels are exercised even on single-core hosts), whole-model
logits/argmax equivalence across every Table I model, an N-step float32
training-trajectory comparison, the quantized inference path under the
threaded backend, the nested-parallelism thread budget, and the knob
threading through ``PipelineConfig`` / the runtime stages / the CLI.
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.core.bench import _environment
from repro.core.config import PipelineConfig
from repro.models import build_model, model_input_kind, model_names
from repro.nn import (
    AdamW,
    Backend,
    Tensor,
    available_backends,
    clip_grad_norm,
    create_backend,
    get_backend,
    no_grad,
    quantize_model,
    set_backend,
    use_backend,
)
from repro.nn import functional as F
from repro.nn.backend import BACKEND_ENV_VAR, NUMEXPR_AVAILABLE
from repro.nn.backend.numexpr_backend import NumexprBackend
from repro.nn.backend.threaded import ThreadedBackend
from repro.runtime.parallel import (
    active_worker_count,
    backend_thread_budget,
    resolve_workers,
    worker_scope,
)

#: Every system compared in Table I (plus the Sec. VI-D downsample
#: baseline) — the whole-model equivalence gates run on all of them.
TABLE1_MODELS = tuple(model_names())


def forced_threaded(workers: int = 4) -> ThreadedBackend:
    """A threaded backend that parallelises even tiny single-core work.

    ``workers=4`` fixes the budget independent of the host's core count
    and the thresholds drop to one element, so the chunked code paths
    are exercised deterministically in CI.
    """
    backend = ThreadedBackend(workers=workers)
    backend.min_parallel_elements = 1
    backend.min_parallel_flops = 1
    return backend


def _example_input(name: str, rng, batch: int = 4, image_size: int = 16,
                   num_frames: int = 8) -> np.ndarray:
    if model_input_kind(name) == "ce":
        return rng.random((batch, image_size, image_size))
    return rng.random((batch, num_frames, image_size, image_size))


# ----------------------------------------------------------------------
# Registry / selection
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ["numexpr", "numpy", "numpy_ref",
                                        "threaded"]

    def test_active_backend_matches_environment(self):
        # Tier-1 may legitimately run under REPRO_BACKEND=threaded (the
        # CI backend job), so the assertion resolves the same precedence
        # the registry documents: env var if valid, else numpy.
        env = os.environ.get(BACKEND_ENV_VAR, "").strip()
        expected = env if env in available_backends() else "numpy"
        assert get_backend().name == create_backend(expected).name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("cuda")

    def test_set_backend_returns_previous(self):
        previous = set_backend("threaded")
        try:
            assert get_backend().name == "threaded"
        finally:
            assert set_backend(previous).name == "threaded"

    def test_use_backend_scopes_and_restores(self):
        before = get_backend()
        with use_backend("threaded") as active:
            assert isinstance(active, ThreadedBackend)
            assert get_backend() is active
        assert get_backend() is before

    def test_use_backend_accepts_instances(self):
        configured = forced_threaded(workers=2)
        with use_backend(configured):
            assert get_backend() is configured
        assert get_backend() is not configured

    def test_numpy_ref_is_reference_alias(self):
        assert type(create_backend("numpy_ref")) is Backend
        assert type(create_backend("numpy")) is Backend

    def test_numexpr_backend_degrades_gracefully(self):
        if NUMEXPR_AVAILABLE:
            backend = create_backend("numexpr")
        else:
            with pytest.warns(RuntimeWarning, match="numexpr is not"):
                backend = create_backend("numexpr")
        # Installed or not, the fused entry points must agree with the
        # reference kernels.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 16))
        reference = Backend()
        np.testing.assert_allclose(backend.exp(x), reference.exp(x),
                                   rtol=1e-12)
        np.testing.assert_allclose(backend.tanh(x), reference.tanh(x),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            backend.fused_softmax(x.copy()), reference.fused_softmax(x.copy()),
            rtol=1e-12)
        ref_fwd = reference.gelu_forward(x)
        got_fwd = backend.gelu_forward(x)
        for got, want in zip(got_fwd, ref_fwd):
            np.testing.assert_allclose(got, want, rtol=1e-12)
        grad = rng.normal(size=x.shape)
        np.testing.assert_allclose(
            backend.gelu_backward(grad, x, got_fwd[1], got_fwd[2]),
            reference.gelu_backward(grad, x, ref_fwd[1], ref_fwd[2]),
            rtol=1e-12)

    def test_pipeline_config_validates_backend(self):
        assert PipelineConfig(backend="threaded").backend == "threaded"
        with pytest.raises(ValueError, match="backend must be one of"):
            PipelineConfig(backend="cuda")


# ----------------------------------------------------------------------
# Op-level equivalence: threaded (forced parallel) vs reference
# ----------------------------------------------------------------------
class TestThreadedOpBitIdentity:
    """The threaded backend chunks only data partitioning, so every op
    with per-row reductions / disjoint output slices must be
    *bit-identical* to the reference; 2-D GEMM is the one documented
    tolerance-class exception (BLAS micro-kernel selection varies with
    the row-block size)."""

    reference = Backend()

    def test_elementwise_with_out(self, rng):
        threaded = forced_threaded()
        a = rng.normal(size=(16, 7))
        b = rng.normal(size=(16, 7))
        for op in ("add", "subtract", "multiply", "divide"):
            want = getattr(self.reference, op)(a, b, out=np.empty_like(a))
            got = getattr(threaded, op)(a, b, out=np.empty_like(a))
            np.testing.assert_array_equal(got, want)

    def test_elementwise_broadcasting_operands_pass_whole(self, rng):
        threaded = forced_threaded()
        a = rng.normal(size=(16, 7))
        row = rng.normal(size=(7,))           # lower ndim: never sliced
        scalar = 2.5
        col = rng.normal(size=(1, 7))         # leading-dim mismatch
        for other in (row, scalar, col):
            want = self.reference.multiply(a, other, out=np.empty_like(a))
            got = threaded.multiply(a, other, out=np.empty_like(a))
            np.testing.assert_array_equal(got, want)

    def test_unary_ufuncs(self, rng):
        threaded = forced_threaded()
        x = np.abs(rng.normal(size=(16, 9))) + 0.1
        for op in ("exp", "tanh", "sqrt", "rint"):
            np.testing.assert_array_equal(getattr(threaded, op)(x),
                                          getattr(self.reference, op)(x))

    def test_fused_softmax_bit_identical(self, rng):
        threaded = forced_threaded()
        scores = rng.normal(size=(8, 3, 5, 5))
        np.testing.assert_array_equal(
            threaded.fused_softmax(scores.copy(), axis=-1),
            self.reference.fused_softmax(scores.copy(), axis=-1))

    def test_fused_softmax_axis0_falls_back_serial(self, rng):
        threaded = forced_threaded()
        scores = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(
            threaded.fused_softmax(scores.copy(), axis=0),
            self.reference.fused_softmax(scores.copy(), axis=0))

    def test_layer_norm_core_bit_identical(self, rng):
        threaded = forced_threaded()
        data = rng.normal(size=(10, 6, 12))
        want_norm, want_std = self.reference.layer_norm_core(data, 1e-6)
        got_norm, got_std = threaded.layer_norm_core(data, 1e-6)
        np.testing.assert_array_equal(got_norm, want_norm)
        np.testing.assert_array_equal(got_std, want_std)

    def test_gelu_forward_backward_bit_identical(self, rng):
        threaded = forced_threaded()
        x = rng.normal(size=(12, 8)).astype(np.float32)
        grad = rng.normal(size=(12, 8)).astype(np.float32)
        want = self.reference.gelu_forward(x)
        got = threaded.gelu_forward(x)
        for got_part, want_part in zip(got, want):
            np.testing.assert_array_equal(got_part, want_part)
        np.testing.assert_array_equal(
            threaded.gelu_backward(grad, x, got[1], got[2]),
            self.reference.gelu_backward(grad, x, want[1], want[2]))

    def test_batched_matmul_bit_identical(self, rng):
        threaded = forced_threaded()
        a = rng.normal(size=(8, 5, 6))
        b = rng.normal(size=(8, 6, 4))
        np.testing.assert_array_equal(threaded.matmul(a, b),
                                      self.reference.matmul(a, b))
        # Broadcast right operand (shared weight across the batch).
        w = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(threaded.matmul(a, w),
                                      self.reference.matmul(a, w))
        # Broadcast left operand (weight @ channel-major conv columns).
        w_left = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(threaded.matmul(w_left, a),
                                      self.reference.matmul(w_left, a))

    def test_2d_matmul_tolerance_class(self, rng):
        threaded = forced_threaded()
        a = rng.normal(size=(32, 24))
        b = rng.normal(size=(24, 10))
        np.testing.assert_allclose(threaded.matmul(a, b),
                                   self.reference.matmul(a, b),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3), (1, 1), (1, 1)),
        ((2, 2), (2, 2), (0, 0)),
    ])
    def test_im2col2d_col2im2d_bit_identical(self, kernel, stride, padding,
                                             rng):
        threaded = forced_threaded()
        x = rng.normal(size=(6, 3, 8, 8))
        want_cols, want_geom = self.reference.im2col2d(x, kernel, stride,
                                                       padding)
        got_cols, got_geom = threaded.im2col2d(x, kernel, stride, padding)
        assert got_geom == want_geom
        np.testing.assert_array_equal(got_cols, want_cols)
        np.testing.assert_array_equal(
            threaded.col2im2d(got_cols, x.shape, kernel, stride, padding),
            self.reference.col2im2d(want_cols, x.shape, kernel, stride,
                                    padding))

    def test_im2col3d_col2im3d_bit_identical(self, rng):
        threaded = forced_threaded()
        kernel, stride, padding = (2, 3, 3), (1, 1, 1), (0, 1, 1)
        x = rng.normal(size=(4, 2, 5, 8, 8))
        want_cols, want_geom = self.reference.im2col3d(x, kernel, stride,
                                                       padding)
        got_cols, got_geom = threaded.im2col3d(x, kernel, stride, padding)
        assert got_geom == want_geom
        np.testing.assert_array_equal(got_cols, want_cols)
        np.testing.assert_array_equal(
            threaded.col2im3d(got_cols, x.shape, kernel, stride, padding),
            self.reference.col2im3d(want_cols, x.shape, kernel, stride,
                                    padding))


# ----------------------------------------------------------------------
# Whole-model equivalence across the Table I systems
# ----------------------------------------------------------------------
class TestModelEquivalence:
    @pytest.mark.parametrize("name", TABLE1_MODELS)
    def test_threaded_logits_match_reference(self, name, rng):
        model = build_model(name, num_classes=5, image_size=16, num_frames=8,
                            seed=0)
        x = _example_input(name, rng)
        with no_grad():
            with use_backend("numpy_ref"):
                logits_ref = model(x).data.copy()
            with use_backend(forced_threaded()):
                logits_thr = model(x).data.copy()
        np.testing.assert_allclose(logits_thr, logits_ref, rtol=1e-9,
                                   atol=1e-9)
        assert np.array_equal(logits_ref.argmax(axis=-1),
                              logits_thr.argmax(axis=-1))

    @pytest.mark.parametrize("name", TABLE1_MODELS)
    def test_numexpr_logits_match_reference(self, name, rng):
        model = build_model(name, num_classes=5, image_size=16, num_frames=8,
                            seed=0)
        x = _example_input(name, rng)
        with no_grad():
            with use_backend("numpy_ref"):
                logits_ref = model(x).data.copy()
            with use_backend(NumexprBackend()):
                logits_ne = model(x).data.copy()
        np.testing.assert_allclose(logits_ne, logits_ref, rtol=1e-9,
                                   atol=1e-9)
        assert np.array_equal(logits_ref.argmax(axis=-1),
                              logits_ne.argmax(axis=-1))

    def test_fast_path_matches_graph_path_under_threaded(self, rng):
        """The PR-3 fast==graph gate holds on the threaded backend too."""
        model = build_model("snappix_tiny", num_classes=4, image_size=16,
                            seed=0)
        model.eval()
        x = rng.random((4, 16, 16))
        with use_backend(forced_threaded()):
            with no_grad():
                fast = model(x).data
            graph = model(x).data
        np.testing.assert_allclose(fast, graph, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# N-step training-trajectory equivalence (PR-5 idiom)
# ----------------------------------------------------------------------
class TestTrainingTrajectoryEquivalence:
    def _train(self, backend, steps=6, seed=0):
        rng = np.random.default_rng(seed)
        model = build_model("snappix_tiny", num_classes=4, image_size=16,
                            seed=seed).to(np.float32)
        x = rng.random((8, 16, 16)).astype(np.float32)
        labels = rng.integers(0, 4, size=8)
        eval_x = rng.random((8, 16, 16)).astype(np.float32)
        optimizer = AdamW(model.parameters(), lr=2e-3)
        losses = []
        with use_backend(backend):
            for _ in range(steps):
                optimizer.zero_grad()
                loss = F.cross_entropy(model(x), labels)
                loss.backward()
                clip_grad_norm(model.parameters(), 1.0)
                optimizer.step()
                losses.append(float(loss.data))
            model.eval()
            with no_grad():
                predictions = model(eval_x).data.argmax(axis=-1)
        return np.asarray(losses), predictions

    def test_threaded_trajectory_matches_reference(self):
        losses_ref, pred_ref = self._train("numpy_ref")
        losses_thr, pred_thr = self._train(forced_threaded())
        scale = np.max(np.abs(losses_ref))
        # Only the 2-D GEMM row chunking is tolerance-class, so the
        # float32 trajectories stay far tighter than the float32-vs-
        # float64 gate (1e-3).
        assert np.max(np.abs(losses_ref - losses_thr)) / scale < 1e-4
        assert np.array_equal(pred_ref, pred_thr)

    def test_numexpr_trajectory_matches_reference(self):
        losses_ref, pred_ref = self._train("numpy_ref")
        losses_ne, pred_ne = self._train(NumexprBackend())
        scale = np.max(np.abs(losses_ref))
        assert np.max(np.abs(losses_ref - losses_ne)) / scale < 1e-4
        assert np.array_equal(pred_ref, pred_ne)


# ----------------------------------------------------------------------
# Quantized inference path under the threaded backend
# ----------------------------------------------------------------------
class TestQuantizedUnderThreaded:
    def test_int8_logits_match_reference_backend(self, rng):
        model = build_model("snappix_tiny", num_classes=4, image_size=16,
                            seed=0).to(np.float32)
        calibration = rng.random((8, 16, 16)).astype(np.float32)
        quantize_model(model, calibration)
        x = rng.random((8, 16, 16)).astype(np.float32)
        with no_grad():
            with use_backend("numpy_ref"):
                logits_ref = model(x).data.copy()
            with use_backend(forced_threaded()):
                logits_thr = model(x).data.copy()
        np.testing.assert_allclose(logits_thr, logits_ref, rtol=1e-5,
                                   atol=1e-5)
        assert np.array_equal(logits_ref.argmax(axis=-1),
                              logits_thr.argmax(axis=-1))


# ----------------------------------------------------------------------
# Nested-parallelism thread budget
# ----------------------------------------------------------------------
class TestThreadBudget:
    def test_no_scope_means_one_worker(self):
        assert active_worker_count() == 1

    def test_worker_scope_nests_multiplicatively(self):
        with worker_scope(4):
            assert active_worker_count() == 4
            with worker_scope(2):
                assert active_worker_count() == 8
            assert active_worker_count() == 4
        assert active_worker_count() == 1

    def test_budget_divides_by_active_workers(self):
        # Budget caps at requested/outer instead of multiplying: four
        # outer DAG workers each running a 4-thread backend would be 16
        # threads; the budget pins each to one.
        assert backend_thread_budget(4) == 4
        with worker_scope(4):
            assert backend_thread_budget(4) == 1
        with worker_scope(2):
            assert backend_thread_budget(4) == 2

    def test_budget_never_below_one(self):
        with worker_scope(64):
            assert backend_thread_budget(4) == 1
            assert backend_thread_budget(0) == 1

    def test_budget_default_resolves_cpu_count(self):
        assert backend_thread_budget(0) == resolve_workers(0)

    def test_threaded_backend_serialises_inside_saturated_scope(self, rng):
        """Inside a scope that already owns every core, the threaded
        backend must degrade to serial execution (budget 1 → no chunk
        plan) rather than oversubscribe."""
        backend = forced_threaded(workers=4)
        with worker_scope(4):
            assert backend._plan(16, 1 << 30) is None
        assert backend._plan(16, 1 << 30) is not None


# ----------------------------------------------------------------------
# Knob threading: stages, CLI, bench environment
# ----------------------------------------------------------------------
class TestBackendKnob:
    def test_stage_signatures_include_backend(self):
        from repro.runtime.stages import (
            finetune_stage_from_config,
            pattern_stage_from_config,
            pretrain_stage_from_config,
        )
        config = PipelineConfig(backend="threaded")
        for stage in (pattern_stage_from_config(config),
                      pretrain_stage_from_config(config),
                      finetune_stage_from_config(config, "ar")):
            assert stage.backend == "threaded"
            assert stage.signature()["backend"] == "threaded"

    def test_backend_switch_changes_stage_signature(self):
        from repro.runtime.stages import pattern_stage_from_config
        base = pattern_stage_from_config(PipelineConfig())
        threaded = pattern_stage_from_config(PipelineConfig(
            backend="threaded"))
        assert base.signature() != threaded.signature()

    def test_cli_accepts_backend_flag(self):
        from repro.core.cli import build_parser
        parser = build_parser()
        for argv in (["pipeline", "--backend", "threaded"],
                     ["runtime", "--backend", "numpy_ref"],
                     ["bench", "--quick", "--backend", "threaded"],
                     ["serve", "--smoke", "--backend", "numexpr"]):
            assert parser.parse_args(argv).backend == argv[-1]

    def test_cli_resolve_backend_precedence(self, monkeypatch):
        from repro.core.cli import _resolve_backend
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert _resolve_backend("") == "numpy"
        assert _resolve_backend("threaded") == "threaded"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numexpr")
        assert _resolve_backend("") == "numexpr"
        assert _resolve_backend("threaded") == "threaded"
        monkeypatch.setenv(BACKEND_ENV_VAR, "not-a-backend")
        assert _resolve_backend("") == "numpy"

    def test_bench_environment_records_backend_and_host(self):
        env = _environment()
        assert env["backend"] == get_backend().name
        assert env["cpu_count"] == os.cpu_count()
        assert isinstance(env["thread_env"], dict)
        for var, value in env["thread_env"].items():
            assert os.environ[var] == value

    def test_system_result_records_backend(self):
        from repro.core.system import SnapPixResult
        result = SnapPixResult(config=PipelineConfig(backend="threaded"))
        assert result.as_dict()["backend"] == "threaded"
