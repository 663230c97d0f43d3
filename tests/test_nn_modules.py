"""Tests for nn modules: linear, layernorm, MLP, attention, conv, pooling."""

import numpy as np
import pytest

from repro.nn import (
    AdamW,
    AvgPool2d,
    Conv2d,
    Conv3d,
    Dropout,
    GlobalAveragePool,
    LayerNorm,
    Linear,
    MaxPool3d,
    MLP,
    Module,
    MultiHeadAttention,
    Parameter,
    PositionalEmbedding,
    SGD,
    Sequential,
    Tensor,
    TransformerBlock,
    clip_grad_norm,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn import functional as F


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(8, 4, rng=rng)
        out = layer(Tensor(rng.random((5, 8))))
        assert out.shape == (5, 4)

    def test_no_bias(self, rng):
        layer = Linear(8, 4, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradient_flow(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.random((4, 3)), requires_grad=True)
        layer(x).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert x.grad.shape == (4, 3)

    def test_can_fit_linear_regression(self, rng):
        true_w = np.array([[2.0], [-3.0]])
        x = rng.random((64, 2))
        y = x @ true_w + 0.5
        layer = Linear(2, 1, rng=rng)
        opt = SGD(layer.parameters(), lr=0.5)
        for _ in range(300):
            opt.zero_grad()
            loss = F.mse_loss(layer(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert np.allclose(layer.weight.data, true_w, atol=0.05)
        assert np.allclose(layer.bias.data, [0.5], atol=0.05)


class TestLayerNorm:
    def test_output_statistics(self, rng):
        norm = LayerNorm(16)
        out = norm(Tensor(rng.random((4, 16)) * 10 + 3))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients_flow_to_affine(self, rng):
        norm = LayerNorm(8)
        x = Tensor(rng.random((2, 8)), requires_grad=True)
        norm(x).sum().backward()
        assert norm.weight.grad is not None
        assert norm.bias.grad is not None
        assert x.grad is not None


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng=rng)
        drop.eval()
        x = Tensor(rng.random((10, 10)))
        assert np.allclose(drop(x).data, x.data)

    def test_train_mode_zeroes_entries(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = drop(x)
        frac_zero = np.mean(out.data == 0.0)
        assert 0.4 < frac_zero < 0.6

    def test_inverted_scaling_preserves_mean(self):
        drop = Dropout(0.3, rng=np.random.default_rng(0))
        x = Tensor(np.ones((200, 200)))
        assert abs(drop(x).data.mean() - 1.0) < 0.05


class TestAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadAttention(dim=16, num_heads=4, rng=rng)
        out = attn(Tensor(rng.random((2, 9, 16))))
        assert out.shape == (2, 9, 16)

    def test_invalid_heads_raises(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(dim=10, num_heads=3)

    def test_gradients_reach_qkv(self, rng):
        attn = MultiHeadAttention(dim=8, num_heads=2, rng=rng)
        x = Tensor(rng.random((1, 4, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert attn.qkv.weight.grad is not None
        assert x.grad.shape == (1, 4, 8)

    def test_transformer_block_residual(self, rng):
        block = TransformerBlock(dim=16, num_heads=4, rng=rng)
        x = Tensor(rng.random((2, 5, 16)))
        out = block(x)
        assert out.shape == x.shape
        # Residual path means output correlates with input.
        assert np.corrcoef(out.data.ravel(), x.data.ravel())[0, 1] > 0.1

    def test_positional_embedding_added(self, rng):
        pos = PositionalEmbedding(num_positions=10, dim=8, rng=rng)
        x = Tensor(np.zeros((1, 6, 8)))
        out = pos(x)
        assert out.shape == (1, 6, 8)
        assert not np.allclose(out.data, 0.0)


class TestConv:
    def test_conv2d_shape(self, rng):
        conv = Conv2d(1, 4, kernel_size=3, stride=1, padding=1, rng=rng)
        out = conv(Tensor(rng.random((2, 1, 8, 8))))
        assert out.shape == (2, 4, 8, 8)

    def test_conv2d_matches_manual(self, rng):
        conv = Conv2d(1, 1, kernel_size=3, bias=False, rng=rng)
        x = rng.random((1, 1, 5, 5))
        out = conv(Tensor(x))
        kernel = conv.weight.data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(x[0, 0, i:i + 3, j:j + 3] * kernel)
        assert np.allclose(out.data[0, 0], expected)

    def test_conv2d_gradients(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        x = Tensor(rng.random((2, 2, 6, 6)), requires_grad=True)
        conv(x).sum().backward()
        assert conv.weight.grad.shape == conv.weight.shape
        assert conv.bias.grad.shape == conv.bias.shape
        assert x.grad.shape == x.shape

    def test_conv2d_numeric_weight_grad(self, rng):
        conv = Conv2d(1, 1, kernel_size=2, bias=False, rng=rng)
        x_data = rng.random((1, 1, 4, 4))
        conv(Tensor(x_data)).sum().backward()
        analytic = conv.weight.grad.copy()
        eps = 1e-6
        numeric = np.zeros_like(conv.weight.data)
        flat = conv.weight.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = conv(Tensor(x_data)).sum().data
            flat[i] = orig - eps
            minus = conv(Tensor(x_data)).sum().data
            flat[i] = orig
            num_flat[i] = (plus - minus) / (2 * eps)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_conv3d_shape(self, rng):
        conv = Conv3d(1, 2, kernel_size=3, padding=1, rng=rng)
        out = conv(Tensor(rng.random((1, 1, 4, 8, 8))))
        assert out.shape == (1, 2, 4, 8, 8)

    def test_conv3d_gradients(self, rng):
        conv = Conv3d(1, 2, kernel_size=(3, 3, 3), padding=(1, 1, 1), rng=rng)
        x = Tensor(rng.random((1, 1, 4, 6, 6)), requires_grad=True)
        conv(x).sum().backward()
        assert conv.weight.grad.shape == conv.weight.shape
        assert x.grad.shape == x.shape

    def test_avgpool(self, rng):
        pool = AvgPool2d(2)
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = pool(x)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data[0, 0, 0, 0], np.mean([0, 1, 4, 5]))

    def test_maxpool3d(self, rng):
        pool = MaxPool3d(2)
        x = Tensor(rng.random((1, 1, 4, 4, 4)))
        out = pool(x)
        assert out.shape == (1, 1, 2, 2, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(1, 2, 2), (2, 2, 2)])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 6, 8), (2, 3, 5, 7, 9)])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_maxpool3d_matches_reshape_max(self, dtype, kernel, shape,
                                           channels_last, rng,
                                           reference_maxpool3d):
        """The tap loop is bit-identical to reshape-then-max: forward
        values, dtype and strides, and the input gradient, including
        tied maxima (small integer inputs) and T/H/W the kernel does
        not divide (those trailing entries get zero gradient)."""
        batch, channels, frames, height, width = shape
        if channels_last:
            # Layout of the Conv3d training output: a transposed view.
            data = rng.integers(0, 3, (batch, frames, height, width,
                                       channels)).astype(dtype)
            data = data.transpose(0, 4, 1, 2, 3)
        else:
            data = rng.integers(0, 3, shape).astype(dtype)
        kt, kh, kw = kernel
        upstream = rng.standard_normal(
            (batch, channels, frames // kt, height // kh, width // kw)
        ).astype(dtype)
        outs, grads = [], []
        for pool in (MaxPool3d(kernel), reference_maxpool3d(kernel)):
            x = Tensor(data, requires_grad=True)
            out = pool(x)
            out.backward(upstream)
            outs.append(out.data)
            grads.append(x.grad)
        (fast, ref), (fast_grad, ref_grad) = outs, grads
        assert fast.dtype == ref.dtype == dtype
        assert fast.strides == ref.strides
        assert np.array_equal(fast, ref)
        assert fast_grad.dtype == ref_grad.dtype == dtype
        assert fast_grad.strides == ref_grad.strides
        assert np.array_equal(fast_grad, ref_grad)
        # Tied maxima share their window's gradient, so more input
        # entries than windows receive some.
        assert np.count_nonzero(fast_grad) > fast.size

    def test_global_average_pool(self, rng):
        pool = GlobalAveragePool()
        x = Tensor(rng.random((2, 3, 4, 5)))
        out = pool(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3)))


class TestModuleInfrastructure:
    def test_named_parameters_nested(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names
        assert "layer1.bias" in names

    def test_num_parameters(self, rng):
        layer = Linear(10, 5, rng=rng)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_train_eval_propagates(self, rng):
        model = Sequential(Dropout(0.5), Linear(4, 4, rng=rng))
        model.eval()
        assert not model.layers[0].training
        model.train()
        assert model.layers[0].training

    def test_state_dict_roundtrip(self, rng, tmp_path):
        model = Sequential(Linear(4, 8, rng=rng), LayerNorm(8))
        original = model.state_dict()
        save_checkpoint(model, tmp_path / "ckpt.npz", metadata={"epoch": 3})
        clone = Sequential(Linear(4, 8, rng=np.random.default_rng(99)), LayerNorm(8))
        meta = load_checkpoint(clone, tmp_path / "ckpt.npz")
        assert meta["epoch"] == 3
        for key in original:
            assert np.allclose(clone.state_dict()[key], original[key])

    def test_load_state_dict_strict_mismatch(self, rng):
        model = Linear(4, 8, rng=rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((4, 8))}, strict=True)

    def test_load_state_dict_shape_mismatch(self, rng):
        model = Linear(4, 8, rng=rng)
        bad = model.state_dict()
        bad["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_zero_grad(self, rng):
        layer = Linear(3, 3, rng=rng)
        layer(Tensor(rng.random((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestOptimizers:
    def test_sgd_reduces_quadratic(self):
        param = Parameter(np.array([5.0]))
        opt = SGD([param], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = (param * param).sum()
            loss.backward()
            opt.step()
        assert abs(param.data[0]) < 1e-3

    def test_adamw_reduces_quadratic(self):
        param = Parameter(np.array([5.0]))
        opt = AdamW([param], lr=0.1, weight_decay=0.0)
        for _ in range(300):
            opt.zero_grad()
            (param * param).sum().backward()
            opt.step()
        assert abs(param.data[0]) < 1e-2

    def test_adamw_weight_decay_shrinks_params(self):
        param = Parameter(np.array([1.0]))
        opt = AdamW([param], lr=0.01, weight_decay=0.5)
        for _ in range(50):
            opt.zero_grad()
            # zero gradient except decay
            (param * 0.0).sum().backward()
            opt.step()
        assert param.data[0] < 1.0

    def test_momentum_sgd(self):
        param = Parameter(np.array([3.0]))
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(100):
            opt.zero_grad()
            (param * param).sum().backward()
            opt.step()
        assert abs(param.data[0]) < 0.1

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        param = Parameter(np.array([1.0, 1.0]))
        param.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([param], max_norm=1.0)
        assert np.isclose(norm, 5.0)
        assert np.isclose(np.linalg.norm(param.grad), 1.0)


class TestSchedulers:
    def test_cosine_warmup_shape(self):
        from repro.nn import CosineWithWarmup
        param = Parameter(np.array([1.0]))
        opt = SGD([param], lr=1.0)
        sched = CosineWithWarmup(opt, warmup_epochs=5, total_epochs=20)
        lrs = [sched.step() for _ in range(20)]
        assert lrs[0] < lrs[4]          # warmup increases
        assert np.isclose(max(lrs), 1.0)
        assert lrs[-1] < 0.05           # decays to ~0

    def test_step_decay(self):
        from repro.nn import StepDecay
        param = Parameter(np.array([1.0]))
        opt = SGD([param], lr=1.0)
        sched = StepDecay(opt, step_size=10, gamma=0.1)
        for _ in range(10):
            sched.step()
        assert np.isclose(opt.lr, 0.1)


class TestFunctional:
    def test_softmax_sums_to_one(self, rng):
        logits = Tensor(rng.random((4, 7)))
        probs = F.softmax(logits)
        assert np.allclose(probs.data.sum(axis=-1), 1.0)

    def test_log_softmax_consistency(self, rng):
        logits = Tensor(rng.random((3, 5)))
        assert np.allclose(F.log_softmax(logits).data,
                           np.log(F.softmax(logits).data), atol=1e-8)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.data < 1e-4

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        assert np.isclose(loss.data, np.log(4.0))

    def test_cross_entropy_label_smoothing(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        plain = F.cross_entropy(logits, np.array([0]))
        smoothed = F.cross_entropy(logits, np.array([0]), label_smoothing=0.1)
        assert smoothed.data > plain.data

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert np.isclose(F.mse_loss(pred, np.array([0.0, 0.0])).data, 2.5)

    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert F.accuracy(logits, np.array([1, 0])) == 1.0
        assert F.accuracy(logits, np.array([0, 0])) == 0.5

    def test_softmax_gradient_numeric(self, rng):
        data = rng.random((2, 3))
        t = Tensor(data, requires_grad=True)
        (F.softmax(t) * Tensor(np.arange(6).reshape(2, 3))).sum().backward()
        analytic = t.grad.copy()
        eps = 1e-6
        numeric = np.zeros_like(data)
        weights = np.arange(6).reshape(2, 3)
        for idx in np.ndindex(*data.shape):
            plus, minus = data.copy(), data.copy()
            plus[idx] += eps
            minus[idx] -= eps
            f_plus = (F.softmax(Tensor(plus)).data * weights).sum()
            f_minus = (F.softmax(Tensor(minus)).data * weights).sum()
            numeric[idx] = (f_plus - f_minus) / (2 * eps)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
