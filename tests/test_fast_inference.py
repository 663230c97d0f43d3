"""Tests for the fast inference engine.

Covers the dtype substrate (``set_default_dtype`` / ``Module.to``),
float32-vs-float64 equivalence on the Table I models, the graph-free
``no_grad`` fast paths (no parents / backward closures retained), the
dtype-aware CE encode, the vectorised sensor simulator's exact
equivalence with the per-pixel-object oracle, and the odd-``dim``
sinusoidal position encoding regression.
"""

import numpy as np
import pytest

from repro import nn
from repro.ce import CEConfig, coded_exposure, make_pattern, random_pattern
from repro.hardware import PixelArraySensor, StackedCESensor
from repro.models import build_model, model_input_kind
from repro.nn import (
    Conv2d,
    Conv3d,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Tensor,
    default_dtype,
    get_default_dtype,
    no_grad,
    set_default_dtype,
)
from repro.nn.attention import sinusoidal_position_encoding
from repro.runtime import BatchEncoder

TABLE1_SAMPLE = ("snappix_s", "snappix_b", "c3d", "videomae_st")


def _example_input(name: str, rng, batch: int = 4, image_size: int = 16,
                   num_frames: int = 8) -> np.ndarray:
    if model_input_kind(name) == "ce":
        return rng.random((batch, image_size, image_size))
    return rng.random((batch, num_frames, image_size, image_size))


# ----------------------------------------------------------------------
# Default-dtype machinery
# ----------------------------------------------------------------------
class TestDefaultDtype:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_set_and_restore(self):
        previous = set_default_dtype(np.float32)
        try:
            assert Tensor([1.0]).dtype == np.float32
            assert Tensor.zeros((2, 2)).dtype == np.float32
            assert nn.functional.one_hot(np.array([0, 1]), 3).dtype == np.float32
        finally:
            set_default_dtype(previous)
        assert Tensor([1.0]).dtype == np.float64

    def test_context_manager(self):
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_non_floating_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_floating_arrays_keep_their_dtype(self):
        data = np.ones((2, 2), dtype=np.float32)
        assert Tensor(data).dtype == np.float32

    def test_module_to_casts_everything(self):
        model = build_model("snappix_tiny", num_classes=4, image_size=16, seed=0)
        model.to(np.float32)
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert model.dtype == np.float32

    def test_module_to_rejects_integer_dtype(self):
        with pytest.raises(ValueError):
            Linear(4, 4).to(np.int64)

    def test_build_under_float32_matches_cast(self):
        """Building under a float32 default equals casting a float64 build."""
        with default_dtype(np.float32):
            built = build_model("snappix_tiny", num_classes=4, image_size=16,
                               seed=0)
        cast = build_model("snappix_tiny", num_classes=4, image_size=16,
                          seed=0).to(np.float32)
        for (name, p1), (_, p2) in zip(built.named_parameters(),
                                       cast.named_parameters()):
            assert p1.dtype == np.float32
            assert np.array_equal(p1.data, p2.data), name

    def test_scalar_ops_do_not_upcast_float32(self):
        x = Tensor(np.ones((3,), dtype=np.float32))
        assert (x + 1.0).dtype == np.float32
        assert (x * 2.0).dtype == np.float32
        assert (1.0 - x).dtype == np.float32
        assert (x / 2.0).dtype == np.float32
        assert x.gelu().dtype == np.float32


# ----------------------------------------------------------------------
# float32 vs float64 equivalence on Table I models
# ----------------------------------------------------------------------
class TestFloat32Equivalence:
    @pytest.mark.parametrize("name", TABLE1_SAMPLE)
    def test_logits_close_and_decisions_identical(self, name, rng):
        model64 = build_model(name, num_classes=5, image_size=16, num_frames=8,
                              seed=0)
        model32 = build_model(name, num_classes=5, image_size=16, num_frames=8,
                              seed=0).to(np.float32)
        x = _example_input(name, rng)
        with no_grad():
            logits64 = model64(x).data
            logits32 = model32(x.astype(np.float32)).data
        assert logits32.dtype == np.float32
        assert logits64.dtype == np.float64
        assert np.allclose(logits64, logits32, atol=1e-4)
        assert np.array_equal(logits64.argmax(axis=-1), logits32.argmax(axis=-1))

    def test_training_step_works_in_float32(self, rng):
        """Gradients stay float32 end to end (no silent upcast in backward)."""
        model = build_model("snappix_tiny", num_classes=4, image_size=16,
                           seed=0).to(np.float32)
        x = rng.random((4, 16, 16)).astype(np.float32)
        targets = np.array([0, 1, 2, 3])
        loss = nn.functional.cross_entropy(model(x), targets)
        assert loss.dtype == np.float32
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, name
            assert param.grad.dtype == np.float32, name

    def test_conv_backward_keeps_float32(self, rng):
        """_col2im2d / Conv3d scratch must not upcast float32 gradients."""
        for module, shape in ((Conv2d(2, 3, 3, padding=1), (2, 2, 8, 8)),
                              (Conv3d(2, 3, 3, padding=1), (2, 2, 4, 8, 8))):
            module.to(np.float32)
            x = Tensor(rng.random(shape).astype(np.float32), requires_grad=True)
            out = module(x)
            assert out.dtype == np.float32
            out.sum().backward()
            assert x.grad.dtype == np.float32
            assert module.weight.grad.dtype == np.float32
            assert module.bias.grad.dtype == np.float32


# ----------------------------------------------------------------------
# Graph-free no_grad fast paths
# ----------------------------------------------------------------------
class TestNoGradFastPath:
    def _assert_graph_free(self, out: Tensor):
        assert out._parents == ()
        assert out._backward is None
        assert not out.requires_grad

    @pytest.mark.parametrize("layer,shape", [
        (lambda rng: Linear(8, 4), (3, 8)),
        (lambda rng: LayerNorm(8), (3, 5, 8)),
        (lambda rng: MultiHeadAttention(8, 2), (2, 5, 8)),
        (lambda rng: Conv2d(2, 3, 3, padding=1), (2, 2, 8, 8)),
        (lambda rng: Conv3d(2, 3, 3, padding=1), (2, 2, 4, 8, 8)),
    ])
    def test_layers_retain_no_closures_under_no_grad(self, layer, shape, rng):
        module = layer(rng)
        module.eval()
        x = Tensor(rng.random(shape))
        with no_grad():
            out = module(x)
        self._assert_graph_free(out)

    def test_model_output_has_no_graph_under_no_grad(self, rng):
        model = build_model("snappix_s", num_classes=5, image_size=16, seed=0)
        model.eval()
        with no_grad():
            out = model(rng.random((2, 16, 16)))
        self._assert_graph_free(out)

    def test_fast_path_matches_graph_path(self, rng):
        """The graph-free forward must be bit-identical to the
        closure-building forward used during training: both run the same
        arithmetic (for c3d, the same channel-major 3-D im2col and the
        same ``w_mat @ cols`` GEMM while the unfold fits one chunk)."""
        for name in ("snappix_s", "c3d"):
            model = build_model(name, num_classes=5, image_size=16,
                                num_frames=8, seed=0)
            model.eval()
            x = _example_input(name, rng)
            with no_grad():
                fast = model(x).data
            graph = model(x).data  # weights require grad -> closure path
            assert np.array_equal(fast, graph), name

    def test_mha_bias_only_training_gets_gradients(self, rng):
        """Bias-only fine-tuning must not be routed to the graph-free path."""
        mha = MultiHeadAttention(8, 2)
        mha.eval()
        mha.qkv.weight.requires_grad = False
        mha.proj.weight.requires_grad = False
        out = mha(Tensor(rng.random((2, 5, 8))))
        assert out.requires_grad
        out.sum().backward()
        assert mha.qkv.bias.grad is not None
        assert mha.proj.bias.grad is not None

    def test_grad_still_flows_outside_no_grad(self, rng):
        module = Conv2d(1, 2, 3, padding=1)
        x = Tensor(rng.random((1, 1, 6, 6)), requires_grad=True)
        out = module(x)
        assert out.requires_grad
        out.sum().backward()
        assert x.grad is not None

    def test_no_grad_is_thread_local(self, rng):
        """An inference thread's no_grad must not leak into other threads
        (a serving worker runs no_grad forwards next to training)."""
        import threading

        from repro.nn import is_grad_enabled

        entered = threading.Event()
        release = threading.Event()
        seen_in_worker = []

        def worker():
            with no_grad():
                seen_in_worker.append(is_grad_enabled())
                entered.set()
                release.wait(timeout=10)
            seen_in_worker.append(is_grad_enabled())

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=10)
        # The worker sits inside no_grad; this thread must be untouched.
        assert is_grad_enabled()
        x = Tensor(rng.random((3,)), requires_grad=True)
        x.sum().backward()
        assert x.grad is not None
        release.set()
        thread.join(timeout=10)
        assert seen_in_worker == [False, True]
        assert is_grad_enabled()


# ----------------------------------------------------------------------
# Conv3d single-GEMM im2col inference fast path
# ----------------------------------------------------------------------
class TestConv3dIm2colFastPath:
    """The Conv3d forward unfolds (B, C, T, H, W) into channel-major
    columns (B, C*kt*kh*kw, out_t*out_h*out_w) with one 3-D im2col and
    computes every output position in a single ``w_mat @ cols`` GEMM, in
    the graph-free and the training path alike."""

    GEOMETRIES = [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((2, 3, 3), (2, 2, 2), (0, 1, 1)),
        ((3, 2, 2), (1, 2, 1), (1, 0, 1)),
    ]

    def _naive_cols(self, x, kernel, stride, padding):
        """Reference channel-major 3-D im2col via explicit window
        gathering: column ``index`` holds output position ``index``'s
        window, flattened in ``(C, kt, kh, kw)`` order."""
        kt, kh, kw = kernel
        st, sh, sw = stride
        pt, ph, pw = padding
        x = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
        batch, channels = x.shape[:2]
        out_t = (x.shape[2] - kt) // st + 1
        out_h = (x.shape[3] - kh) // sh + 1
        out_w = (x.shape[4] - kw) // sw + 1
        cols = np.empty((batch, channels * kt * kh * kw,
                         out_t * out_h * out_w), dtype=x.dtype)
        index = 0
        for t in range(out_t):
            for i in range(out_h):
                for j in range(out_w):
                    window = x[:, :, t * st:t * st + kt,
                               i * sh:i * sh + kh, j * sw:j * sw + kw]
                    cols[:, :, index] = window.reshape(batch, -1)
                    index += 1
        return cols, (out_t, out_h, out_w)

    @staticmethod
    def _naive_conv3d(x, weight, bias, stride, padding):
        """Direct convolution, one einsum per kernel tap (no im2col)."""
        out_c, _, kt, kh, kw = weight.shape
        st, sh, sw = stride
        pt, ph, pw = padding
        x = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
        out_t = (x.shape[2] - kt) // st + 1
        out_h = (x.shape[3] - kh) // sh + 1
        out_w = (x.shape[4] - kw) // sw + 1
        out = np.zeros((x.shape[0], out_c, out_t, out_h, out_w),
                       dtype=np.result_type(x, weight))
        for t in range(kt):
            for i in range(kh):
                for j in range(kw):
                    tap = x[:, :, t:t + st * out_t:st, i:i + sh * out_h:sh,
                            j:j + sw * out_w:sw]
                    out += np.einsum("oc,bcthw->bothw", weight[:, :, t, i, j],
                                     tap)
        if bias is not None:
            out += bias[:, None, None, None]
        return out

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col3d_matches_naive_unfold(self, kernel, stride, padding,
                                           rng):
        from repro.nn.conv import _im2col3d
        x = rng.random((2, 3, 6, 8, 8))
        cols, dims = _im2col3d(x, kernel, stride, padding)
        ref_cols, ref_dims = self._naive_cols(x, kernel, stride, padding)
        assert dims == ref_dims
        assert np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im3d_is_adjoint_of_im2col3d(self, kernel, stride, padding,
                                             rng):
        """``<im2col(x), y> == <x, col2im(y)>`` for every x and y."""
        from repro.nn.conv import _col2im3d, _im2col3d
        x = rng.standard_normal((2, 3, 6, 8, 8))
        cols, _ = _im2col3d(x, kernel, stride, padding)
        y = rng.standard_normal(cols.shape)
        back = _col2im3d(y, x.shape, kernel, stride, padding)
        assert back.shape == x.shape
        np.testing.assert_allclose(np.vdot(cols, y), np.vdot(x, back),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("chunk_t", [1, 2])
    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((2, 3, 3), (2, 2, 1), (1, 0, 1)),
    ])
    def test_multi_chunk_fast_path(self, kernel, stride, padding, chunk_t,
                                   rng):
        """A column budget too small for one GEMM unfolds ``chunk_t``
        temporal outputs at a time.  Narrower GEMMs may take other BLAS
        edge kernels, so the float result is held to 1e-12, not bits."""
        conv = Conv3d(3, 4, kernel, stride=stride, padding=padding, rng=rng)
        conv.bias.data[:] = rng.standard_normal(4)
        x = rng.standard_normal((2, 3, 9, 6, 6))
        with no_grad():
            single = conv(Tensor(x)).data
            out_t, out_h, out_w = single.shape[2:]
            assert out_t > chunk_t
            conv._FAST_COLS_BUDGET = (chunk_t * len(x) * out_h * out_w
                                      * conv.weight.data[0].size)
            chunked = conv(Tensor(x)).data
        np.testing.assert_allclose(chunked, single, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            chunked, self._naive_conv3d(x, conv.weight.data, conv.bias.data,
                                        stride, padding),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("chunk_t", [1, 2])
    def test_multi_chunk_quantized_path(self, chunk_t, rng):
        """The int8 layer chunks like the float one.  Integer inputs skip
        input quantisation, so the exact reference is the integer direct
        convolution, dequantised per output channel in float32."""
        from repro.nn.quantized import QuantizedConv3d
        stride, padding = (2, 2, 1), (1, 1, 0)
        source = Conv3d(3, 4, (3, 3, 2), stride=stride, padding=padding,
                        rng=rng)
        source.bias.data[:] = rng.standard_normal(4)
        layer = QuantizedConv3d(source)
        x = rng.integers(-20, 21, size=(2, 3, 7, 6, 6))
        with no_grad():
            layer(x)
        layer.freeze()
        with no_grad():
            single = layer(x).data
            out_t, out_h, out_w = single.shape[2:]
            assert out_t > chunk_t
            layer._FAST_COLS_BUDGET = (chunk_t * len(x) * out_h * out_w
                                       * source.weight.data[0].size)
            chunked = layer(x).data
        assert chunked.dtype == np.float32
        assert np.array_equal(chunked, single)
        exact = self._naive_conv3d(x, layer.weight_q.data.astype(np.int64),
                                   None, stride, padding)
        dequant = (layer.input_scale.data[0] * layer.weight_scale.data
                   ).astype(np.float32)[:, None, None, None]
        want = exact.astype(np.float32) * dequant \
            + layer.bias.data[:, None, None, None]
        np.testing.assert_array_equal(chunked, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride,padding", [
        ((1, 1, 1), (1, 1, 1)),
        ((2, 1, 2), (1, 1, 0)),
    ])
    def test_no_grad_forward_matches_graph_forward(self, dtype, stride,
                                                   padding, rng):
        conv = Conv3d(3, 5, (3, 3, 3), stride=stride, padding=padding,
                      rng=rng).to(dtype)
        x = rng.random((2, 3, 8, 10, 10)).astype(dtype)
        with no_grad():
            fast = conv(Tensor(x)).data
        graph = conv(Tensor(x)).data  # weights require grad -> graph path
        assert fast.shape == graph.shape
        assert fast.dtype == dtype
        assert np.array_equal(fast, graph)

    def test_no_grad_forward_without_bias(self, rng):
        conv = Conv3d(2, 4, (2, 2, 2), bias=False, rng=rng)
        x = rng.random((1, 2, 4, 6, 6))
        with no_grad():
            fast = conv(Tensor(x)).data
        graph = conv(Tensor(x)).data
        assert np.array_equal(fast, graph)

    def test_float32_stays_float32_through_fast_path(self, rng):
        conv = Conv3d(2, 3, 3, padding=1, rng=rng).to(np.float32)
        x = rng.random((2, 2, 4, 8, 8)).astype(np.float32)
        with no_grad():
            out = conv(Tensor(x))
        assert out.dtype == np.float32

    def test_c3d_model_decisions_identical_across_paths(self, rng):
        """End to end: the c3d no_grad logits equal the training-graph
        logits bit for bit, in float32 and float64."""
        x = _example_input("c3d", rng)
        for dtype in (np.float32, np.float64):
            model = build_model("c3d", num_classes=5, image_size=16,
                                num_frames=8, seed=0).to(dtype)
            model.eval()
            with no_grad():
                fast = model(x.astype(dtype)).data
            graph = model(x.astype(dtype)).data
            assert fast.dtype == dtype
            assert np.array_equal(fast, graph), dtype


# ----------------------------------------------------------------------
# MaxPool3d tap loop vs the reshape-then-max formula, end to end on c3d
# ----------------------------------------------------------------------
class TestC3DMaxPoolEquivalence:
    @staticmethod
    def _c3d_pair(dtype, reference_maxpool3d):
        """Two c3d models from one seed; the second pools with the
        reshape-then-max reference formula."""
        models = [build_model("c3d", num_classes=5, image_size=16,
                              num_frames=8, seed=0).to(dtype)
                  for _ in range(2)]
        for name in ("pool1", "pool2", "pool3"):
            pool = getattr(models[1], name)
            setattr(models[1], name, reference_maxpool3d(pool.kernel_size))
        return models

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_c3d_no_grad_logits_match_reference_pooling(
            self, dtype, rng, reference_maxpool3d):
        x = _example_input("c3d", rng).astype(dtype)
        logits = []
        for model in self._c3d_pair(dtype, reference_maxpool3d):
            model.eval()
            with no_grad():
                logits.append(model(x).data)
        assert logits[0].dtype == dtype
        assert np.array_equal(logits[0], logits[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_c3d_training_step_matches_reference_pooling(
            self, dtype, rng, reference_maxpool3d):
        """Logits and every parameter gradient of one cross-entropy
        step are bit-identical with the tap-loop and reference pools."""
        x = _example_input("c3d", rng).astype(dtype)
        targets = np.array([0, 1, 2, 3])
        fast, ref = self._c3d_pair(dtype, reference_maxpool3d)
        results = []
        for model in (fast, ref):
            logits = model(x)
            nn.functional.cross_entropy(logits, targets).backward()
            results.append((logits.data, dict(model.named_parameters())))
        (fast_logits, fast_params), (ref_logits, ref_params) = results
        assert np.array_equal(fast_logits, ref_logits)
        assert fast_params.keys() == ref_params.keys()
        for name, param in fast_params.items():
            assert param.grad is not None, name
            assert np.array_equal(param.grad, ref_params[name].grad), name


# ----------------------------------------------------------------------
# dtype-aware CE encode (BatchEncoder / coded_exposure)
# ----------------------------------------------------------------------
class TestEncodeDtype:
    def _sensor(self, rng):
        from repro.ce import CodedExposureSensor
        config = CEConfig(num_slots=8, tile_size=4, frame_height=16,
                          frame_width=16)
        return CodedExposureSensor(config,
                                   make_pattern("random", 8, 4, rng=rng))

    def test_coded_exposure_dtype_argument(self, rng):
        video = rng.random((2, 8, 16, 16))
        mask = make_pattern("random", 8, 16, rng=rng)
        full64 = coded_exposure(video, mask)
        full32 = coded_exposure(video, mask, dtype=np.float32)
        assert full64.dtype == np.float64
        assert full32.dtype == np.float32
        assert np.allclose(full64, full32, rtol=1e-5, atol=1e-3)

    def test_uint8_video_is_not_upcast_to_float64(self, rng):
        video = rng.integers(0, 256, size=(2, 8, 16, 16), dtype=np.uint8)
        mask = make_pattern("random", 8, 16, rng=rng)
        coded32 = coded_exposure(video, mask, dtype=np.float32)
        assert coded32.dtype == np.float32
        # uint8 sums over 8 slots fit exactly in float32: results match
        # the float64 reference bit-for-bit after casting.
        coded64 = coded_exposure(video, mask)
        assert np.array_equal(coded32, coded64.astype(np.float32))

    def test_wide_integer_video_still_honours_dtype(self, rng):
        """int64 video promotes the einsum to float64; the requested
        output dtype must win anyway (and match the empty-batch dtype)."""
        video = rng.integers(0, 1000, size=(2, 8, 16, 16)).astype(np.int64)
        mask = make_pattern("random", 8, 16, rng=rng)
        coded = coded_exposure(video, mask, dtype=np.float32)
        assert coded.dtype == np.float32
        assert np.array_equal(coded,
                              coded_exposure(video, mask).astype(np.float32))

    def test_batch_encoder_dtype(self, rng):
        sensor = self._sensor(rng)
        clips = rng.integers(0, 256, size=(5, 8, 16, 16), dtype=np.uint8)
        encoder32 = BatchEncoder(sensor, batch_size=2, dtype=np.float32)
        encoder64 = BatchEncoder(sensor, batch_size=2)
        coded32 = encoder32.encode(clips)
        coded64 = encoder64.encode(clips)
        assert coded32.dtype == np.float32
        assert coded64.dtype == np.float64
        assert np.allclose(coded32, coded64, rtol=1e-5, atol=1e-3)
        assert encoder32.stats == encoder64.stats

    def test_batch_encoder_empty_batch_dtype(self, rng):
        sensor = self._sensor(rng)
        empty = np.zeros((0, 8, 16, 16))
        assert BatchEncoder(sensor, dtype=np.float32).encode(empty).dtype == \
            np.float32
        assert BatchEncoder(sensor).encode(empty).dtype == np.float64


# ----------------------------------------------------------------------
# Vectorised sensor sim vs per-pixel-object oracle
# ----------------------------------------------------------------------
class TestVectorizedSensor:
    def _config(self, slots=6, tile=2, size=8):
        return CEConfig(num_slots=slots, tile_size=tile, frame_height=size,
                        frame_width=size)

    def test_readout_and_stats_exact(self, rng):
        config = self._config()
        pattern = random_pattern(6, 2, rng=rng)
        video = rng.random((6, 8, 8))
        vectorized = StackedCESensor(config, pattern)
        reference = PixelArraySensor(config, pattern)
        assert np.array_equal(vectorized.capture(video),
                              reference.capture(video))
        assert vectorized.capture_stats() == reference.capture_stats()

    def test_repeated_captures_stay_equal(self, rng):
        config = self._config(slots=4, tile=4, size=8)
        pattern = random_pattern(4, 4, rng=rng)
        vectorized = StackedCESensor(config, pattern)
        reference = PixelArraySensor(config, pattern)
        for _ in range(3):
            video = rng.random((4, 8, 8))
            assert np.array_equal(vectorized.capture(video),
                                  reference.capture(video))
        assert vectorized.capture_stats() == reference.capture_stats()

    def test_negative_light_rejected(self, rng):
        config = self._config(slots=2, tile=2, size=4)
        sensor = StackedCESensor(config, random_pattern(2, 2, rng=rng))
        video = rng.random((2, 4, 4))
        video[1, 0, 0] = -0.5
        with pytest.raises(ValueError):
            sensor.capture(video)


# ----------------------------------------------------------------------
# Sinusoidal position encoding regression (odd dim)
# ----------------------------------------------------------------------
class TestSinusoidalPositionEncoding:
    def test_odd_dim_shape_and_pairing(self):
        table = sinusoidal_position_encoding(10, 7)
        assert table.shape == (10, 7)
        position = np.arange(10)[:, None]
        frequencies = np.exp(np.arange(0, 7, 2) * (-np.log(10000.0) / 7))
        # Columns 2i / 2i+1 share frequency w_i; the unpaired final
        # column carries the sine of the last frequency.
        assert np.allclose(table[:, 0::2], np.sin(position * frequencies))
        assert np.allclose(table[:, 1::2], np.cos(position * frequencies[:3]))

    def test_dim_one_is_pure_sine(self):
        table = sinusoidal_position_encoding(4, 1)
        assert table.shape == (4, 1)
        assert np.allclose(table[:, 0], np.sin(np.arange(4)))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_position_encoding(0, 8)
        with pytest.raises(ValueError):
            sinusoidal_position_encoding(8, 0)

    def test_dtype_follows_default(self):
        assert sinusoidal_position_encoding(4, 6).dtype == np.float64
        assert sinusoidal_position_encoding(4, 6,
                                            dtype=np.float32).dtype == np.float32
