"""Convolution and pooling layers (im2col-based).

Needed for the paper's baselines: C3D (3-D convolutions over video), SVC2D
(shift-variant 2-D convolution over coded images), and the spatial
downsampling baseline (average pooling).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .backend import get_backend
# ColumnBufferPool lives with the backend layer now (allocation is a
# backend concern); re-exported here for back-compat with existing
# imports (repro.nn, quantized, tests).
from .backend.pool import ColumnBufferPool
from .modules import Module, Parameter
from .tensor import Tensor, needs_grad


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return tuple(value)
    return (value, value)


def _triple(value) -> Tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        return tuple(value)
    return (value, value, value)


def _im2col2d(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
              padding: Tuple[int, int],
              pool: Optional["ColumnBufferPool"] = None
              ) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold (B, C, H, W) into columns (B, out_h*out_w, C*kh*kw).

    Dispatches to the active compute backend (the kernel body lives in
    :class:`repro.nn.backend.Backend`).  ``pool``, when given, supplies
    (and is the place to later release) the column buffer — the hook
    that lets convolution layers recycle one column matrix across
    training steps instead of materialising a fresh one per call.
    """
    return get_backend().im2col2d(x, kernel, stride, padding, pool=pool)


def _col2im2d(cols: np.ndarray, x_shape, kernel, stride, padding) -> np.ndarray:
    """Adjoint of :func:`_im2col2d`; scatters column gradients back."""
    return get_backend().col2im2d(cols, x_shape, kernel, stride, padding)


def _im2col3d(x: np.ndarray, kernel: Tuple[int, int, int],
              stride: Tuple[int, int, int],
              padding: Tuple[int, int, int],
              pool: Optional["ColumnBufferPool"] = None
              ) -> Tuple[np.ndarray, Tuple[int, int, int]]:
    """Unfold (B, C, T, H, W) into channel-major columns
    (B, C*kt*kh*kw, out_t*out_h*out_w).

    The row axis is ordered ``(C, kt, kh, kw)``, matching the
    ``weight.reshape(out_channels, -1)`` layout of :class:`Conv3d`, so
    one GEMM ``w_mat @ cols`` computes every output position at once and
    lands in (B, O, out_t*out_h*out_w), already NCTHW after a reshape.
    Dispatches to the active compute backend.
    """
    return get_backend().im2col3d(x, kernel, stride, padding, pool=pool)


def _col2im3d(cols: np.ndarray, x_shape, kernel, stride, padding) -> np.ndarray:
    """Adjoint of :func:`_im2col3d`; scatters channel-major column
    gradients (B, C*kt*kh*kw, out_t*out_h*out_w) back onto the input."""
    return get_backend().col2im3d(cols, x_shape, kernel, stride, padding)


class Conv2d(Module):
    """2-D convolution over inputs of shape (B, C, H, W)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kh, kw), rng,
                                dtype=dtype))
        self.bias = Parameter(init.zeros(out_channels, dtype=dtype)) if bias else None
        self._col_pool = ColumnBufferPool()

    def forward(self, x: Tensor) -> Tensor:
        x_data = x.data
        batch = x_data.shape[0]
        pool = self._col_pool
        backend = get_backend()
        cols, (out_h, out_w) = backend.im2col2d(
            x_data, self.kernel_size, self.stride, self.padding, pool=pool)
        weight = self.weight
        bias = self.bias
        w_mat = weight.data.reshape(self.out_channels, -1)  # (O, C*kh*kw)
        out_data = backend.matmul(cols, w_mat.T)  # (B, L, O)
        if bias is not None:
            out_data = out_data + bias.data
        out_data = out_data.transpose(0, 2, 1).reshape(batch, self.out_channels,
                                                       out_h, out_w)
        if not needs_grad(x, weight, bias):
            # Graph-free fast path: the column buffer goes straight back
            # to the pool instead of being captured by a backward closure
            # that inference never runs.
            pool.release(cols)
            return Tensor(out_data)
        x_shape = x_data.shape
        kernel, stride, padding = self.kernel_size, self.stride, self.padding
        module = self

        def backward(grad):
            grad_mat = grad.reshape(batch, module.out_channels, -1).transpose(0, 2, 1)
            if weight.requires_grad:
                grad_w = np.einsum("blo,blk->ok", grad_mat, cols)
                weight._accumulate(grad_w.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad_mat.sum(axis=(0, 1)))
            if x.requires_grad:
                grad_cols = backend.matmul(grad_mat, w_mat)
                x._accumulate(backend.col2im2d(grad_cols, x_shape, kernel,
                                               stride, padding))
            # The column matrix has served the whole backward: recycle it
            # for the next training step instead of re-materialising.
            pool.release(cols)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return x._make(out_data, parents, backward)


class Conv3d(Module):
    """3-D convolution over inputs of shape (B, C, T, H, W).

    Both modes run the same channel-major 3-D im2col and the same GEMM
    ``w_mat @ cols`` (``w_mat`` is the weight as (O, C*kt*kh*kw), ``cols``
    is (B, C*kt*kh*kw, L) with ``L = out_t*out_h*out_w``), whose (B, O, L)
    result is the NCTHW output after a free reshape.  Training unfolds
    once (the column matrix must survive for the backward anyway, and is
    recycled through the buffer pool across steps); the graph-free
    inference path chunks the unfold over temporal outputs to bound peak
    memory.  A single-chunk inference forward is therefore bit-identical
    to the training forward.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None, dtype=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _triple(kernel_size)
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        kt, kh, kw = self.kernel_size
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kt, kh, kw), rng,
                                dtype=dtype))
        self.bias = Parameter(init.zeros(out_channels, dtype=dtype)) if bias else None
        self._col_pool = ColumnBufferPool()

    def forward(self, x: Tensor) -> Tensor:
        x_data = x.data
        batch = x_data.shape[0]
        weight, bias = self.weight, self.bias
        if not needs_grad(x, weight, bias):
            return Tensor(self._forward_fast(x_data))

        # Training forward: one 3-D im2col (recycled through the column
        # pool across steps) and a single GEMM over every output position.
        pool = self._col_pool
        backend = get_backend()
        cols, (out_t, out_h, out_w) = backend.im2col3d(
            x_data, self.kernel_size, self.stride, self.padding, pool=pool)
        w_mat = weight.data.reshape(self.out_channels, -1)  # (O, C*kt*kh*kw)
        out_data = backend.matmul(w_mat, cols)  # (B, O, L)
        if bias is not None:
            out_data += bias.data[:, None]
        out_data = out_data.reshape(batch, self.out_channels, out_t, out_h,
                                    out_w)

        x_shape = x_data.shape
        kernel, stride, padding = self.kernel_size, self.stride, self.padding
        module = self

        def backward(grad):
            grad_mat = grad.reshape(batch, module.out_channels, -1)  # (B, O, L)
            if weight.requires_grad:
                grad_w = np.einsum("bol,bkl->ok", grad_mat, cols)
                weight._accumulate(grad_w.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad_mat.sum(axis=(0, 2)))
            if x.requires_grad:
                grad_cols = backend.matmul(w_mat.T, grad_mat)  # (B, K, L)
                x._accumulate(backend.col2im3d(grad_cols, x_shape, kernel,
                                               stride, padding))
            pool.release(cols)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return x._make(out_data, parents, backward)

    #: Column-buffer budget of the inference fast path, in elements
    #: (~64 MB float64 / 32 MB float32): large enough that reproduction-
    #: scale serving batches unfold in one GEMM, small enough that big
    #: geometries stay bounded instead of materialising out_t-fold peaks.
    _FAST_COLS_BUDGET = 1 << 23

    def _forward_fast(self, x_data: np.ndarray) -> np.ndarray:
        """Graph-free inference forward: 3-D im2col + batched GEMM.

        Temporal outputs are unfolded in chunks sized to
        ``_FAST_COLS_BUDGET`` so the column buffer (freed immediately,
        never captured by a closure) has bounded peak memory.  Each
        chunk's GEMM writes straight into its slice of the (B, O, L)
        output, so small inputs take one GEMM with the exact operands of
        the training forward.  The input dtype is preserved (float32
        stays float32).
        """
        kt, kh, kw = self.kernel_size
        st, sh, sw = self.stride
        pt, ph, pw = self.padding
        batch, channels, frames, height, width = x_data.shape
        if pt:
            x_pad = np.pad(x_data, ((0, 0), (0, 0), (pt, pt), (0, 0), (0, 0)))
        else:
            x_pad = x_data
        out_t = (x_pad.shape[2] - kt) // st + 1
        out_h = (height + 2 * ph - kh) // sh + 1
        out_w = (width + 2 * pw - kw) // sw + 1
        plane = out_h * out_w
        per_t = batch * plane * channels * kt * kh * kw
        chunk_t = max(1, min(out_t, self._FAST_COLS_BUDGET // max(per_t, 1)))
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        bias_col = self.bias.data[:, None] if self.bias is not None else None
        backend = get_backend()
        out_data = np.empty((batch, self.out_channels, out_t * plane),
                            dtype=np.result_type(x_data, w_mat))
        for t0 in range(0, out_t, chunk_t):
            t1 = min(t0 + chunk_t, out_t)
            window = x_pad[:, :, t0 * st:(t1 - 1) * st + kt]
            cols, _ = backend.im2col3d(window, (kt, kh, kw), (st, sh, sw),
                                       (0, ph, pw), pool=self._col_pool)
            out = out_data[:, :, t0 * plane:t1 * plane]
            backend.matmul(w_mat, cols, out=out)
            self._col_pool.release(cols)
            if bias_col is not None:
                out += bias_col
        return out_data.reshape(batch, self.out_channels, out_t, out_h, out_w)


class AvgPool2d(Module):
    """Average pooling over non-overlapping windows (B, C, H, W)."""

    def __init__(self, kernel_size):
        super().__init__()
        self.kernel_size = _pair(kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        kh, kw = self.kernel_size
        batch, channels, height, width = x.shape
        out_h, out_w = height // kh, width // kw
        view = x.reshape(batch, channels, out_h, kh, out_w, kw)
        return view.mean(axis=(3, 5))


class MaxPool3d(Module):
    """Max pooling over non-overlapping 3-D windows (B, C, T, H, W).

    A running maximum over the ``kt*kh*kw`` window taps: tap ``(i, j, k)``
    is the strided view ``x[:, :, i::kt, j::kh, k::kw]`` cut to whole
    windows, the first tap is copied into the output and every other tap
    is folded in with ``np.maximum(out, tap, out=out)``.  numpy reduces
    over the strided axes of an 8-D window view far more slowly.
    Trailing frames, rows and columns that do not fill a window are
    dropped and get zero gradient.

    Inference and training share this path.  The backward splits the
    gradient evenly over tied maxima, like :meth:`Tensor.max`: per tap
    ``mask = (tap == out)``, ``count = max(sum of masks, 1)`` and the tap
    receives ``(mask / count) * grad``.

    The first tap is copied with ``order="K"`` so the output keeps the
    input's memory layout (for example a channels-last input).
    Downstream reductions such as :class:`GlobalAveragePool` sum in a
    layout-dependent order, so a C-ordered copy would move the logits
    and gradients in the last bits.
    """

    def __init__(self, kernel_size):
        super().__init__()
        self.kernel_size = _triple(kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        kt, kh, kw = self.kernel_size
        x_data = x.data
        _, _, frames, height, width = x_data.shape
        stop_t, stop_h, stop_w = (frames - frames % kt, height - height % kh,
                                  width - width % kw)
        taps = [(slice(None), slice(None), slice(i, stop_t, kt),
                 slice(j, stop_h, kh), slice(k, stop_w, kw))
                for i in range(kt) for j in range(kh) for k in range(kw)]
        out_data = x_data[taps[0]].copy(order="K")
        for tap in taps[1:]:
            np.maximum(out_data, x_data[tap], out=out_data)

        def backward(grad):
            masks = [(x_data[tap] == out_data).astype(x_data.dtype)
                     for tap in taps]
            count = np.maximum(sum(masks), 1.0)
            grad_x = np.zeros_like(x_data)
            for tap, mask in zip(taps, masks):
                mask /= count
                grad_x[tap] += mask * grad
            x._accumulate(grad_x)

        out = x._make(out_data, (x,), backward)
        out._backward_reads_output = True
        return out


class GlobalAveragePool(Module):
    """Average over all spatial (and temporal) dims, keeping (B, C)."""

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(2, x.ndim))
        return x.mean(axis=axes)
