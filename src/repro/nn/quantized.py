"""Post-training int8 quantised inference engine.

Converts any trained float model of the reproduction into an int8
inference engine: weights are quantised symmetrically per channel
(per output feature for :class:`~repro.nn.modules.Linear`, per filter
for the convolutions), activations per tensor with scales derived from
a calibration batch, and every hot layer runs a graph-free fast path.

Lifecycle (the standard observe -> freeze PTQ recipe):

1. :func:`quantize_model` swaps each supported layer for its quantised
   counterpart, which starts in *observe* mode — the float forward, plus
   an :class:`ActivationObserver` recording the input range.
2. The calibration batch runs through the model once.
3. ``freeze()`` quantises the weights, fixes the activation scales, and
   drops the float originals; from then on every forward is int8.

**Int8 GEMM on the NumPy substrate.**  NumPy has no vendor int8 matmul
kernel — a true int8-operand ``np.matmul`` with an int32 accumulator
times ~35x *slower* than BLAS sgemm on these shapes.  Every int8 grid
value embeds exactly in float32, so the engine widens the int8 operands
into pooled float32 scratch (the PR 5 :class:`ColumnBufferPool` idiom)
and accumulates through sgemm: bit-equivalent to int8 GEMM with float32
accumulate, at BLAS speed.  Wider integer intermediates appear where the
math requires them: the dequantize-free CE front-end accumulates uint8
video into uint16 charge sums (:func:`repro.ce.coded_exposure_integer`),
and the GELU lookup table is gathered through an int8 view.

Where the engine actually wins time over the float32 fast path:

- GELU becomes a 256-entry table lookup on the int8 grid (the single
  hottest component of the float forward),
- softmax drops the per-row max-subtract — scores are clipped to a
  static exp-safe bound instead, and the shift constant cancels in the
  normalisation,
- the attention scale and the MLP requantisation fold into the dequant
  scale vectors, removing whole elementwise passes,
- all GEMMs run 2-D against pre-reshaped weights with pooled scratch.

Quantised modules are inference-only: they record no autodiff graph and
raise if handed a gradient-requiring tensor under grad mode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .numeric import saturate
from .backend import get_backend
from .conv import ColumnBufferPool, Conv2d, Conv3d, _im2col2d, _im2col3d
from .modules import LayerNorm, Linear, MLP, Module, Parameter
from .attention import MultiHeadAttention, TransformerBlock
from .tensor import Tensor, is_grad_enabled, no_grad

#: Symmetric int8 grid bound.  -128 is never produced (symmetric range),
#: so the grid survives negation and the uint8-view LUT gather exactly.
INT8_MAX = 127.0


class QuantizationError(ValueError):
    """Raised when a model or calibration batch cannot be quantised."""


def _gelu_reference(x: np.ndarray) -> np.ndarray:
    """The tanh-approximation GELU of :meth:`Tensor.gelu`, on ndarrays."""
    c = float(np.sqrt(2.0 / np.pi))
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x))))


def quantize_weight(weight: np.ndarray, channel_axis: int):
    """Symmetric per-channel int8 quantisation of a float weight.

    Returns ``(int8 grid, float32 per-channel scales)`` where
    ``weight ~= grid * scale`` broadcast along ``channel_axis``.
    Zero-range (constant-zero) channels get unit scale — their grid is
    all zeros, so any positive scale reconstructs them exactly and the
    fallback avoids a divide-by-zero.
    """
    w = np.asarray(weight, dtype=np.float64)
    if w.size and not np.all(np.isfinite(w)):
        raise QuantizationError("weight contains NaN/inf; refusing to quantise")
    reduce_axes = tuple(i for i in range(w.ndim) if i != channel_axis)
    absmax = np.max(np.abs(w), axis=reduce_axes)
    scale = np.where(absmax > 0.0, absmax / INT8_MAX, 1.0)
    shape = [1] * w.ndim
    shape[channel_axis] = -1
    grid = np.rint(w / scale.reshape(shape))
    saturate(grid, INT8_MAX, out=grid)
    return grid.astype(np.int8), scale.astype(np.float32)


class ActivationObserver:
    """Records the absolute input range of one layer during calibration.

    All-zero calibration activations freeze to unit scale (the layer
    then quantises every runtime activation of magnitude <= 127 exactly);
    non-finite activations are rejected — a NaN would silently poison
    every scale downstream.  Integer inputs (the raw CE charge sums of
    the dequantize-free path) are already on an exact integer grid and
    need no scale at all, so they also freeze to 1.
    """

    def __init__(self):
        self.absmax = 0.0
        self.integer_seen = False

    def update(self, array: np.ndarray) -> None:
        if array.size == 0:
            return
        if np.issubdtype(array.dtype, np.integer):
            self.integer_seen = True
            return
        peak = float(np.max(np.abs(array)))
        if not np.isfinite(peak):
            raise QuantizationError(
                "calibration activations contain NaN/inf; "
                "refusing to derive an activation scale")
        self.absmax = max(self.absmax, peak)

    def scale(self) -> float:
        if self.integer_seen or self.absmax == 0.0:
            return 1.0
        return self.absmax / INT8_MAX


class _QuantizedModule(Module):
    """Shared observe -> freeze lifecycle of the int8 inference modules."""

    def __init__(self):
        super().__init__()
        self._frozen = False
        #: Lazily built runtime state derived from the frozen parameters
        #: (widened float32 weight copies, folded dequant vectors).
        #: Rebuilt on demand so per-forward work stays at zero.
        self._derived = None

    def _on_state_loaded(self) -> None:
        """Parameters were restored in place (``load_state_dict``): every
        derived runtime buffer is stale and must be rebuilt lazily."""
        self._derived = None

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        raise NotImplementedError

    def _guard(self, x) -> None:
        if is_grad_enabled() and isinstance(x, Tensor) and x.requires_grad:
            raise RuntimeError(
                "quantised modules are inference-only; run them under "
                "no_grad() or on detached inputs")

    @staticmethod
    def _data(x) -> np.ndarray:
        return x.data if isinstance(x, Tensor) else np.asarray(x)

    def _register_scale(self, name: str, value: float) -> Parameter:
        param = Parameter(np.array([value], dtype=np.float32), dtype=np.float32)
        param.requires_grad = False
        setattr(self, name, param)
        return param

    def _drop_source(self) -> None:
        """Drop the observed float layer, including its module registration
        (plain ``self._source = None`` would leave it in the state dict)."""
        self._modules.pop("_source", None)
        self._source = None


class QuantizedLinear(_QuantizedModule):
    """Int8 ``y = x @ W + b`` with per-output-channel weight scales.

    The GEMM takes integer-valued float32 operands (see the module
    docstring): the input is quantised straight into pooled float32
    scratch — one fused multiply/rint/clip pass, no int8 round trip —
    and sgemm accumulates in float32.  Integer inputs are *passthrough*:
    they are already exact grid values (the raw CE charge sums), so they
    skip activation quantisation entirely and the stored input scale
    (unit for that path) still applies at dequantisation.

    ``input_fold`` (set any time before calibration) folds a
    per-input-feature multiplier into the weights — the hook the serving
    path uses to absorb the CE exposure-count normalisation into the
    first layer, keeping the sensor-to-model path float-free.
    """

    def __init__(self, source: Linear):
        super().__init__()
        self.in_features = source.in_features
        self.out_features = source.out_features
        self.observer = ActivationObserver()
        self.input_fold: Optional[np.ndarray] = None
        self._source = source
        self._pool = ColumnBufferPool()

    # ------------------------------------------------------------------
    def _folded_weight(self) -> np.ndarray:
        weight = self._source.weight.data
        if self.input_fold is None:
            return weight
        fold = np.asarray(self.input_fold, dtype=np.float64)
        if fold.shape != (self.in_features,):
            raise QuantizationError(
                f"input_fold shape {fold.shape} != ({self.in_features},)")
        return weight * fold[:, None]

    def freeze(self) -> None:
        if self._frozen:
            return
        grid, scale = quantize_weight(self._folded_weight(), channel_axis=1)
        self.weight_q = Parameter(grid, dtype=np.int8)
        self.weight_q.requires_grad = False
        self.weight_scale = Parameter(scale, dtype=np.float32)
        self.weight_scale.requires_grad = False
        self._register_scale("input_scale", self.observer.scale())
        if self._source.bias is not None:
            self.bias = Parameter(
                np.array(self._source.bias.data, dtype=np.float32))
            self.bias.requires_grad = False
        else:
            self.bias = None
        self._drop_source()
        self._frozen = True

    # ------------------------------------------------------------------
    def _quantize_input(self, x2: np.ndarray,
                        premul: Optional[np.ndarray] = None) -> np.ndarray:
        """Quantise a 2-D float input onto the int8 grid, in pooled f32.

        ``premul`` replaces the scalar ``1/input_scale`` with a
        per-feature multiplier (the attention path folds the v-channel
        dequant scales in here).  A unit input scale — produced by the
        LayerNorm fold of :func:`_fold_norm_scales` — skips the
        multiply pass entirely.
        """
        backend = get_backend()
        grid = self._pool.acquire(x2.shape, np.float32)
        if premul is not None:
            backend.multiply(x2, premul, out=grid)
            backend.rint(grid, out=grid)
        else:
            scale = float(self.input_scale.data[0])
            if scale == 1.0:
                backend.rint(x2, out=grid)
            else:
                backend.multiply(x2, 1.0 / scale, out=grid)
                backend.rint(grid, out=grid)
        saturate(grid, INT8_MAX, out=grid)
        return grid

    def _runtime(self):
        """``(widened f32 weight, per-output dequant vector)``, cached.

        The int8 grid is widened to float32 once per freeze/checkpoint
        load instead of once per forward — the conversion is a full
        weight-sized pass that would otherwise sit on every request.
        """
        derived = self._derived
        if derived is None:
            weight = self.weight_q.data.astype(np.float32)
            combined = np.asarray(
                float(self.input_scale.data[0]) * self.weight_scale.data,
                dtype=np.float32)
            derived = self._derived = (weight, combined)
        return derived

    def _gemm(self, x2: np.ndarray, premul: Optional[np.ndarray] = None,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Undequantised int8 GEMM: returns ``quant(x) @ grid(W)`` in f32.

        ``out`` lets callers accumulate into pooled scratch instead of a
        fresh allocation; ``premul`` is forwarded to
        :meth:`_quantize_input`.
        """
        backend = get_backend()
        weight = self._runtime()[0]
        if np.issubdtype(x2.dtype, np.integer):
            x2 = x2.astype(np.float32)
            return backend.matmul(x2, weight, out=out)
        grid = self._quantize_input(x2, premul)
        out = backend.matmul(grid, weight, out=out)
        self._pool.release(grid)
        return out

    def _combined_scale(self) -> np.ndarray:
        """Per-output dequant multiplier: input scale x weight scales.

        Cached — callers must not mutate the returned vector."""
        return self._runtime()[1]

    def _dequant(self, out: np.ndarray) -> np.ndarray:
        out *= self._combined_scale()
        if self.bias is not None:
            out += self.bias.data
        return out

    # ------------------------------------------------------------------
    def _observe_forward(self, data: np.ndarray) -> Tensor:
        self.observer.update(data)
        weight = self._folded_weight()
        x2 = data.reshape(-1, self.in_features)
        if np.issubdtype(x2.dtype, np.integer):
            x2 = x2.astype(weight.dtype)
        out = x2 @ weight
        if self._source.bias is not None:
            out += self._source.bias.data
        return Tensor(out.reshape(data.shape[:-1] + (self.out_features,)))

    def forward(self, x) -> Tensor:
        self._guard(x)
        data = self._data(x)
        if not self._frozen:
            return self._observe_forward(data)
        out = self._gemm(data.reshape(-1, self.in_features))
        self._dequant(out)
        return Tensor(out.reshape(data.shape[:-1] + (self.out_features,)))


class QuantizedPatchEmbed(_QuantizedModule):
    """Patch embedding over float coded images *or* raw integer CE sums.

    Integer inputs are the dequantize-free serving path: the uint16
    charge sums are patchified without any float cast (the rearrange is
    dtype-preserving) and enter the projection as exact integer grid
    values with unit scale; the exposure-count normalisation lives in
    the projection weights via ``proj.input_fold``.
    """

    def __init__(self, source):
        super().__init__()
        self.patch_size = source.patch_size
        self.in_channels = source.in_channels
        self.proj = QuantizedLinear(source.proj)

    def freeze(self) -> None:
        if self._frozen:
            return
        self.proj.freeze()
        self._frozen = True

    def forward(self, images) -> Tensor:
        self._guard(images)
        data = self._data(images)
        if data.ndim != 3:
            raise ValueError("images must have shape (B, H, W)")
        batch, height, width = data.shape
        p = self.patch_size
        if height % p or width % p:
            raise ValueError("image size must be a multiple of patch_size")
        n_h, n_w = height // p, width // p
        grid = data.reshape(batch, n_h, p, n_w, p)
        patches = grid.transpose(0, 1, 3, 2, 4).reshape(batch, n_h * n_w, p * p)
        return self.proj(patches)


class QuantizedMLP(_QuantizedModule):
    """Fused int8 transformer MLP: fc1 -> LUT GELU -> fc2 in one chain.

    The fc1 output never leaves the int8 grid: its dequant scale, bias,
    and the GELU input quantisation fold into one per-feature multiplier
    applied to the raw GEMM accumulator, and GELU itself is a 256-entry
    gather (int8 in, fc2-grid out) — the float transcendental that
    dominated the float32 profile disappears entirely.
    """

    def __init__(self, source: MLP):
        super().__init__()
        self.dim = source.fc1.in_features
        self.hidden_dim = source.fc1.out_features
        self.fc1 = QuantizedLinear(source.fc1)
        self.fc2 = QuantizedLinear(source.fc2)
        self._gelu_observer = ActivationObserver()
        self._pool = ColumnBufferPool()

    def freeze(self) -> None:
        if self._frozen:
            return
        self.fc1.freeze()
        self.fc2.freeze()
        self._register_scale("gelu_scale", self._gelu_observer.scale())
        self._frozen = True

    # ------------------------------------------------------------------
    def _fold_constants(self):
        """``(gelu scale, multiplier, offset)`` of the fused fc1->LUT pass.

        ``offset`` carries the fc1 bias (requantised to the GELU input
        grid), the LUT index offset, and the ``+0.5`` that turns the
        flooring float->uint8 cast into round-to-nearest.  Cached per
        freeze/checkpoint-load.
        """
        derived = self._derived
        if derived is None:
            gelu_in_scale = float(self.gelu_scale.data[0])
            mult = np.asarray(
                self.fc1._combined_scale() * (1.0 / gelu_in_scale),
                dtype=np.float32)
            offset = self.fc1.bias.data * (1.0 / gelu_in_scale) \
                if self.fc1.bias is not None else 0.0
            offset = np.asarray(offset + (INT8_MAX + 0.5), dtype=np.float32)
            derived = self._derived = (gelu_in_scale, mult, offset)
        return derived

    def _gelu_lut(self, gelu_in_scale: float) -> np.ndarray:
        """256-entry GELU table on the *offset* int8 grid.

        Entry ``u`` holds GELU of grid value ``u - 127`` (already
        requantised to the fc2 input grid), so the hidden activations
        index it as plain uint8 after one fused offset-add — no signed
        reinterpretation pass.  The table is rebuilt whenever the
        governing scales change — after a checkpoint load the cache key
        no longer matches, so stale tables cannot survive a
        ``load_state_dict``.
        """
        out_scale = float(self.fc2.input_scale.data[0])
        key = (gelu_in_scale, out_scale)
        cached = getattr(self, "_lut_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        grid = np.arange(256, dtype=np.float64) - INT8_MAX
        table = np.rint(_gelu_reference(grid * gelu_in_scale) / out_scale)
        saturate(table, INT8_MAX, out=table)
        table = table.astype(np.float32)
        self._lut_cache = (key, table)
        return table

    def forward(self, x) -> Tensor:
        self._guard(x)
        data = self._data(x)
        if not self._frozen:
            hidden = self.fc1(data)
            self._gelu_observer.update(hidden.data)
            return self.fc2(hidden.gelu())
        x2 = data.reshape(-1, self.dim)
        hidden = self._pool.acquire((x2.shape[0], self.hidden_dim), np.float32)
        self.fc1._gemm(x2, out=hidden)  # (M, hidden), undequantised
        backend = get_backend()
        gelu_in_scale, mult, offset = self._fold_constants()
        # Fold dequant, GELU-input requant, the LUT index offset, and
        # the +0.5 of round-to-nearest into one multiplier/bias pair
        # over the raw accumulator; the float->uint8 cast below then
        # floors, so no separate rint pass is needed.
        backend.multiply(hidden, mult, out=hidden)
        backend.add(hidden, offset, out=hidden)
        np.clip(hidden, 0.0, 2.0 * INT8_MAX, out=hidden)
        index = self._pool.acquire(hidden.shape, np.uint8)
        np.copyto(index, hidden, casting="unsafe")
        self._pool.release(hidden)
        table = self._gelu_lut(gelu_in_scale)
        act = self._pool.acquire(index.shape, np.float32)
        np.take(table, index.reshape(-1), out=act.reshape(-1), mode="clip")
        self._pool.release(index)
        out = backend.matmul(act, self.fc2._runtime()[0])
        self._pool.release(act)
        self.fc2._dequant(out)
        return Tensor(out.reshape(data.shape[:-1] + (self.dim,)))


class QuantizedMultiHeadAttention(_QuantizedModule):
    """Int8 multi-head self-attention with a max-free softmax.

    The qkv and output projections run the int8 GEMM; the attention core
    (scores, softmax, context) stays float32 — it is scale-sensitive and
    cheap relative to the projections.  Several folds remove elementwise
    passes versus the float path: the ``1/sqrt(head_dim)`` score scale
    and the k/v dequant scales are absorbed into the q third and the
    proj input quantisation (see :meth:`_qkv_constants`), softmax skips
    the per-row max reduction — scores are clipped to a static exp-safe
    bound only when they actually exceed it, and any constant shift
    cancels in the normalisation.  All large intermediates (qkv, scores,
    context) live in pooled scratch, so a steady-state forward allocates
    nothing activation-sized.
    """

    #: Static score bound replacing the softmax max-subtract:
    #: ``exp(60) ~ 1e26`` and a row-sum of them stays far below the
    #: float32 ceiling (~3.4e38), while the clip keeps exp from
    #: overflowing on adversarial inputs outside the calibrated range.
    #: Applied lazily on the exp'd side (see ``forward``), so in-range
    #: scores — the steady state — never pay for it.
    SCORE_CLIP = 60.0
    _EXP_CLIP = float(np.exp(SCORE_CLIP))

    def __init__(self, source: MultiHeadAttention):
        super().__init__()
        self.dim = source.dim
        self.num_heads = source.num_heads
        self.head_dim = source.head_dim
        self.scale = source.scale
        self.qkv = QuantizedLinear(source.qkv)
        self.proj = QuantizedLinear(source.proj)
        self._pool = ColumnBufferPool()

    def freeze(self) -> None:
        if self._frozen:
            return
        self.qkv.freeze()
        self.proj.freeze()
        self._frozen = True

    # ------------------------------------------------------------------
    def _qkv_constants(self):
        """Dequant constants restructured so two of the three dequant
        multiply passes over the qkv tensor disappear:

        - **q third**: multiply by ``sq*sk*scale`` and add ``bq*sk*scale``
          — q carries the k scales and the score scale, per channel
          (scores are an elementwise-by-channel sum, so the per-channel
          product is exactly the naive dequant's),
        - **k third**: add ``bk/sk`` only — its scale factor cancels
          against the one carried by q,
        - **v third**: add ``bv/sv`` only — the missing ``sv`` rides into
          the output projection's input quantisation (``proj_premul``,
          which also carries the usual ``1/input_scale``).

        Bias-free projections skip the k/v passes entirely.
        """
        derived = self._derived
        if derived is None:
            dim = self.dim
            combined = self.qkv._combined_scale().astype(np.float64)
            sq, sk, sv = combined[:dim], combined[dim:2 * dim], combined[2 * dim:]
            q_mult = np.asarray(sq * sk * self.scale, dtype=np.float32)
            q_off = k_off = v_off = None
            if self.qkv.bias is not None:
                bias = self.qkv.bias.data.astype(np.float64)
                q_off = np.asarray(bias[:dim] * sk * self.scale,
                                   dtype=np.float32)
                k_off = np.asarray(bias[dim:2 * dim] / sk, dtype=np.float32)
                v_off = np.asarray(bias[2 * dim:] / sv, dtype=np.float32)
            proj_premul = np.asarray(
                sv / float(self.proj.input_scale.data[0]), dtype=np.float32)
            derived = self._derived = (q_mult, q_off, k_off, v_off,
                                       proj_premul)
        return derived

    def _observe_forward(self, data: np.ndarray, batch: int, tokens: int,
                         dim: int) -> Tensor:
        qkv = self.qkv(data).data  # observes the block input
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.swapaxes(-1, -2)) * self.scale
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx = scores @ v
        ctx = np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(
            batch, tokens, dim)
        return self.proj(ctx)  # observes the context

    def forward(self, x) -> Tensor:
        self._guard(x)
        data = self._data(x)
        batch, tokens, dim = data.shape
        if not self._frozen:
            return self._observe_forward(data, batch, tokens, dim)
        qkv = self._pool.acquire((batch * tokens, 3 * dim), np.float32)
        self.qkv._gemm(data.reshape(-1, dim), out=qkv)  # (B*T, 3D)
        q_mult, q_off, k_off, v_off, proj_premul = self._qkv_constants()
        qkv[:, :dim] *= q_mult
        if q_off is not None:
            qkv[:, :dim] += q_off
            qkv[:, dim:2 * dim] += k_off
            qkv[:, 2 * dim:] += v_off
        qkv5 = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv5 = qkv5.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv5[0], qkv5[1], qkv5[2]
        backend = get_backend()
        scores = self._pool.acquire(
            (batch, self.num_heads, tokens, tokens), np.float32)
        backend.matmul(q, k.swapaxes(-1, -2), out=scores)  # scale pre-folded
        with np.errstate(over="ignore"):
            backend.exp(scores, out=scores)
        # Normalise by a reciprocal-multiply: one row-sized divide plus a
        # matrix multiply beats a matrix-sized divide.
        denom = scores.sum(axis=-1, keepdims=True)
        if not np.isfinite(denom).all():
            # Scores far outside the calibrated range overflowed exp.
            # exp is monotonic, so clamping the exp'd scores equals
            # clipping the raw ones at SCORE_CLIP — and the row-sized
            # finiteness check costs nothing on the (overwhelmingly
            # common) in-range path, unlike a per-score clip pass.
            np.clip(scores, 0.0, self._EXP_CLIP, out=scores)
            denom = scores.sum(axis=-1, keepdims=True)
        np.divide(1.0, denom, out=denom)
        backend.multiply(scores, denom, out=scores)
        ctx = self._pool.acquire(
            (batch, self.num_heads, tokens, self.head_dim), np.float32)
        backend.matmul(scores, v, out=ctx)
        self._pool.release(scores)
        self._pool.release(qkv)
        ctx2 = self._pool.acquire((batch * tokens, dim), np.float32)
        np.copyto(ctx2.reshape(batch, tokens, self.num_heads, self.head_dim),
                  ctx.transpose(0, 2, 1, 3))
        self._pool.release(ctx)
        out = self.proj._gemm(ctx2, premul=proj_premul)
        self._pool.release(ctx2)
        self.proj._dequant(out)
        return Tensor(out.reshape(batch, tokens, dim))


class QuantizedConv2d(_QuantizedModule):
    """Int8 2-D convolution: quantise input, im2col, widened GEMM."""

    def __init__(self, source: Conv2d):
        super().__init__()
        self.in_channels = source.in_channels
        self.out_channels = source.out_channels
        self.kernel_size = source.kernel_size
        self.stride = source.stride
        self.padding = source.padding
        self.observer = ActivationObserver()
        self._source = source
        self._pool = ColumnBufferPool()

    def freeze(self) -> None:
        if self._frozen:
            return
        grid, scale = quantize_weight(self._source.weight.data, channel_axis=0)
        self.weight_q = Parameter(grid, dtype=np.int8)
        self.weight_q.requires_grad = False
        self.weight_scale = Parameter(scale, dtype=np.float32)
        self.weight_scale.requires_grad = False
        self._register_scale("input_scale", self.observer.scale())
        if self._source.bias is not None:
            self.bias = Parameter(
                np.array(self._source.bias.data, dtype=np.float32))
            self.bias.requires_grad = False
        else:
            self.bias = None
        self._drop_source()
        self._frozen = True

    def _quantize_input(self, data: np.ndarray) -> np.ndarray:
        if np.issubdtype(data.dtype, np.integer):
            return data.astype(np.float32)
        grid = self._pool.acquire(data.shape, np.float32)
        np.multiply(data, 1.0 / float(self.input_scale.data[0]), out=grid)
        np.rint(grid, out=grid)
        saturate(grid, INT8_MAX, out=grid)
        return grid

    def _runtime(self):
        """``(widened f32 weight matrix^T, dequant vector)``, cached."""
        derived = self._derived
        if derived is None:
            w_mat_t = np.ascontiguousarray(
                self.weight_q.data.reshape(self.out_channels, -1)
                .astype(np.float32).T)
            dequant = np.asarray(
                float(self.input_scale.data[0]) * self.weight_scale.data,
                dtype=np.float32)
            derived = self._derived = (w_mat_t, dequant)
        return derived

    def forward(self, x) -> Tensor:
        self._guard(x)
        data = self._data(x)
        if not self._frozen:
            self.observer.update(data)
            return self._source(x if isinstance(x, Tensor) else Tensor(data))
        grid = self._quantize_input(data)
        cols, (out_h, out_w) = _im2col2d(grid, self.kernel_size, self.stride,
                                         self.padding, pool=self._pool)
        self._pool.release(grid)
        w_mat_t, dequant = self._runtime()
        out = get_backend().matmul(cols, w_mat_t)  # (B, L, O)
        self._pool.release(cols)
        out *= dequant
        if self.bias is not None:
            out += self.bias.data
        batch = data.shape[0]
        out = out.transpose(0, 2, 1).reshape(batch, self.out_channels,
                                             out_h, out_w)
        return Tensor(out)


class QuantizedConv3d(_QuantizedModule):
    """Int8 3-D convolution with the temporal-chunked im2col fast path.

    Mirrors :meth:`Conv3d._forward_fast`: the (already quantised) input
    unfolds into channel-major columns in chunks bounded by the same
    column budget, each chunk runs one widened GEMM ``w_mat @ cols``
    straight into its slice of the (B, O, L) result, and dequantisation
    + bias are applied per output channel on that slice.
    """

    _FAST_COLS_BUDGET = Conv3d._FAST_COLS_BUDGET

    def __init__(self, source: Conv3d):
        super().__init__()
        self.in_channels = source.in_channels
        self.out_channels = source.out_channels
        self.kernel_size = source.kernel_size
        self.stride = source.stride
        self.padding = source.padding
        self.observer = ActivationObserver()
        self._source = source
        self._pool = ColumnBufferPool()

    freeze = QuantizedConv2d.freeze
    _quantize_input = QuantizedConv2d._quantize_input
    _runtime = QuantizedConv2d._runtime

    def forward(self, x) -> Tensor:
        self._guard(x)
        data = self._data(x)
        if not self._frozen:
            self.observer.update(data)
            return self._source(x if isinstance(x, Tensor) else Tensor(data))
        kt, kh, kw = self.kernel_size
        st, sh, sw = self.stride
        pt, ph, pw = self.padding
        batch, channels, frames, height, width = data.shape
        grid = self._quantize_input(data)
        if pt:
            # Zero padding is exact on the symmetric grid (0 -> 0).
            x_pad = np.pad(grid, ((0, 0), (0, 0), (pt, pt), (0, 0), (0, 0)))
            self._pool.release(grid)
        else:
            x_pad = grid
        out_t = (x_pad.shape[2] - kt) // st + 1
        out_h = (height + 2 * ph - kh) // sh + 1
        out_w = (width + 2 * pw - kw) // sw + 1
        plane = out_h * out_w
        per_t = batch * plane * channels * kt * kh * kw
        chunk_t = max(1, min(out_t, self._FAST_COLS_BUDGET // max(per_t, 1)))
        w_mat_t, dequant = self._runtime()
        dequant = dequant[:, None]
        bias_col = self.bias.data[:, None] if self.bias is not None else None
        out_data = np.empty((batch, self.out_channels, out_t * plane),
                            dtype=np.float32)
        for t0 in range(0, out_t, chunk_t):
            t1 = min(t0 + chunk_t, out_t)
            window = x_pad[:, :, t0 * st:(t1 - 1) * st + kt]
            cols, _ = _im2col3d(window, (kt, kh, kw), (st, sh, sw),
                                (0, ph, pw), pool=self._pool)
            out = out_data[:, :, t0 * plane:t1 * plane]
            get_backend().matmul(w_mat_t.T, cols, out=out)  # (B, O, L)
            self._pool.release(cols)
            out *= dequant
            if bias_col is not None:
                out += bias_col
        if not pt:
            self._pool.release(grid)
        return Tensor(out_data.reshape(batch, self.out_channels, out_t,
                                       out_h, out_w))


# ----------------------------------------------------------------------
# Model conversion
# ----------------------------------------------------------------------
def _convert_module(module: Module) -> int:
    """Swap every supported child layer for its quantised counterpart.

    Composite layers (attention, MLP, patch embed) are swapped whole —
    their fused int8 forwards need the cross-layer folds — before the
    generic Linear/Conv rules would see their internals.  Returns the
    number of layers swapped.
    """
    # Runtime import: repro.models already imports repro.nn, so the
    # reverse dependency must not exist at module-import time.
    from ..models.patch import PatchEmbed
    from .modules import Sequential

    swapped = 0
    for name, child in list(module._modules.items()):
        if isinstance(child, _QuantizedModule):
            continue
        if isinstance(child, MultiHeadAttention):
            replacement = QuantizedMultiHeadAttention(child)
        elif isinstance(child, MLP):
            replacement = QuantizedMLP(child)
        elif isinstance(child, PatchEmbed):
            replacement = QuantizedPatchEmbed(child)
        elif isinstance(child, Linear):
            replacement = QuantizedLinear(child)
        elif isinstance(child, Conv2d):
            replacement = QuantizedConv2d(child)
        elif isinstance(child, Conv3d):
            replacement = QuantizedConv3d(child)
        else:
            swapped += _convert_module(child)
            continue
        setattr(module, name, replacement)
        swapped += 1
    if isinstance(module, Sequential):
        # The ordered list drives Sequential.forward; re-point it at the
        # (possibly swapped) layer{i} attributes.  Done on the module
        # itself — not on the recursion into children — so a top-level
        # Sequential model rebinds too.
        module.layers = [getattr(module, f"layer{i}")
                         for i in range(len(module.layers))]
    return swapped


def _fold_norm_scales(model: Module) -> None:
    """Absorb activation quantisation scales into preceding LayerNorms.

    Inside a pre-norm transformer block the norm outputs feed *only* the
    quantised sub-layers, so dividing the norm's affine parameters by the
    sub-layer's frozen input scale makes the norm emit pre-quantised
    values: the per-input multiply pass of
    :meth:`QuantizedLinear._quantize_input` collapses to a bare ``rint``
    (its unit-scale fast path).  The weight scales absorb the factor
    back, so dequantisation is unchanged — and because every folded
    value lives in ordinary parameters, the transform round-trips
    through ``state_dict`` with no serialization support: a reloaded
    checkpoint is already folded.
    """
    for block in model.modules():
        if not isinstance(block, TransformerBlock):
            continue
        pairs = []
        if isinstance(block.attn, QuantizedMultiHeadAttention) and \
                isinstance(block.norm1, LayerNorm):
            pairs.append((block.norm1, block.attn.qkv, block.attn))
        if isinstance(block.mlp, QuantizedMLP) and \
                isinstance(block.norm2, LayerNorm):
            pairs.append((block.norm2, block.mlp.fc1, block.mlp))
        for norm, linear, owner in pairs:
            if not linear.frozen:
                continue
            scale = float(linear.input_scale.data[0])
            if scale == 1.0:
                continue
            norm.weight.data *= 1.0 / scale
            norm.bias.data *= 1.0 / scale
            linear.weight_scale.data *= scale
            linear.input_scale.data[0] = 1.0
            linear._derived = None
            owner._derived = None


def is_quantized(model: Module) -> bool:
    """Whether ``model`` contains any int8 inference modules."""
    return any(isinstance(m, _QuantizedModule) for m in model.modules())


def quantize_model(model: Module, calibration_batch=None,
                   calibration_batches=()) -> Module:
    """Swap-convert ``model`` to int8 inference and calibrate it in place.

    Parameters
    ----------
    model:
        Any model built from the :mod:`repro.nn` layers (every Table I
        model qualifies).  Layers without a quantised counterpart (layer
        norms, pooling, the shift-variant convolution) stay float — the
        engine supports partially quantised models.
    calibration_batch, calibration_batches:
        Example inputs forwarded through the model in observe mode to
        record activation ranges.  ``None`` freezes with unit activation
        scales — the checkpoint-loading path, where
        ``load_state_dict`` then overwrites every scale and weight grid
        from the saved state.

    Returns the same ``model`` object, in eval mode, fully frozen.
    """
    if _convert_module(model) == 0:
        raise QuantizationError(
            "model has no quantisable layers; nothing to convert")
    batches = []
    if calibration_batch is not None:
        batches.append(calibration_batch)
    batches.extend(calibration_batches)
    if batches:
        model.eval()
        with no_grad():
            for batch in batches:
                model(batch)
    for module in model.modules():
        if isinstance(module, _QuantizedModule):
            module.freeze()
    _fold_norm_scales(model)
    model.eval()
    return model
