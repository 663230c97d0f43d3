"""NumPy reference backend: the substrate's hot ops behind one interface.

``Backend`` is both the dispatch protocol and the ``numpy`` reference
implementation.  Every method body here is the pre-refactor kernel moved
verbatim from ``tensor.py`` / ``functional.py`` / ``conv.py``, so the
``numpy`` backend is bit-identical to the historical call sites by
construction.  Alternate backends subclass and override individual ops
(or the ``_copy_cols`` / ``_scatter*`` hooks, which exist so a parallel
backend can chunk the batch axis without re-deriving geometry).

Equivalence contract per op (enforced by ``tests/test_backend.py``):

- elementwise family, ``fused_softmax``, ``layer_norm_core``, GELU,
  im2col/col2im, and batched (>=3-D) ``matmul``: chunking over the
  leading axis preserves per-row reduction order, so overriding
  backends must stay **bit-identical** to this reference.
- 2-D ``matmul``: row-chunking changes the BLAS kernel selection for
  each sub-GEMM, so overrides are held to tolerance + identical argmax
  instead of bit-identity.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .pool import ColumnBufferPool

#: GELU tanh-approximation constant as a Python float: NEP 50 makes
#: np.float64 scalars strong-typed, which would upcast float32 paths.
_GELU_C = float(np.sqrt(2.0 / np.pi))


class Backend:
    """Array-API-style dispatch surface for the nn substrate's hot ops."""

    name = "numpy"

    def __init__(self):
        self.scratch_pool = ColumnBufferPool()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Check out a scratch buffer from the backend's shared pool."""
        return self.scratch_pool.acquire(shape, dtype)

    def release(self, buffer: np.ndarray) -> None:
        """Return a scratch buffer obtained from :meth:`acquire`."""
        self.scratch_pool.release(buffer)

    # ------------------------------------------------------------------
    # GEMM
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    # ------------------------------------------------------------------
    # Elementwise ufunc family (out= aware)
    # ------------------------------------------------------------------
    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return np.subtract(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def divide(self, a, b, out=None):
        return np.divide(a, b, out=out)

    def exp(self, x, out=None):
        return np.exp(x, out=out)

    def tanh(self, x, out=None):
        return np.tanh(x, out=out)

    def sqrt(self, x, out=None):
        return np.sqrt(x, out=out)

    def rint(self, x, out=None):
        return np.rint(x, out=out)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, x, axis=None, keepdims: bool = False):
        return np.sum(x, axis=axis, keepdims=keepdims)

    def amax(self, x, axis=None, keepdims: bool = False):
        return np.max(x, axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims: bool = False):
        return np.mean(x, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Softmax / LayerNorm cores
    # ------------------------------------------------------------------
    def fused_softmax(self, scores: np.ndarray, axis: int = -1,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Single-pass softmax: max-subtract + exp + normalise in one buffer."""
        if out is None:
            out = np.array(scores, copy=True)
        elif out is not scores:
            np.copyto(out, scores)
        out -= out.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        return out

    def layer_norm_core(self, data: np.ndarray, eps: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalise over the last axis; returns ``(normalised, std)``.

        The two returned arrays are exactly what the fused LayerNorm
        backward retains, so the caller keeps no other intermediates.
        """
        centred = data - data.mean(axis=-1, keepdims=True)
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        std = np.sqrt(variance + eps)
        normalised = centred / std
        return normalised, std

    # ------------------------------------------------------------------
    # GELU (tanh approximation)
    # ------------------------------------------------------------------
    def gelu_forward(self, x: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(out, t, x_sq)``; the latter two feed the backward."""
        c = _GELU_C
        # x*x*x instead of x**3: libm pow is ~7x slower than two multiplies
        # on mixed-sign activations, and gelu sits on the ViT hot path.
        x_sq = np.square(x)
        inner = c * (x + 0.044715 * (x_sq * x))
        t = np.tanh(inner)
        out = 0.5 * x * (1.0 + t)
        return out, t, x_sq

    def gelu_backward(self, grad: np.ndarray, x: np.ndarray, t: np.ndarray,
                      x_sq: np.ndarray) -> np.ndarray:
        """Fused backward: d = 0.5*(1 + t + x*dt) with
        dt = (1 - t^2) * c * (1 + 3*0.044715*x^2), folded into two
        scratch buffers via out= ops.  Python-float constants keep every
        step in the activation dtype (NEP 50)."""
        c = _GELU_C
        scratch = x_sq * (3.0 * 0.044715 * c)
        scratch += c                      # dinner
        one_minus_tsq = np.multiply(t, t)
        np.subtract(1.0, one_minus_tsq, out=one_minus_tsq)
        scratch *= one_minus_tsq          # dt
        scratch *= x                      # x * dt
        scratch += t
        scratch += 1.0
        scratch *= 0.5
        scratch *= grad
        return scratch

    # ------------------------------------------------------------------
    # im2col / col2im (2-D and 3-D)
    # ------------------------------------------------------------------
    def im2col2d(self, x: np.ndarray, kernel: Tuple[int, int],
                 stride: Tuple[int, int], padding: Tuple[int, int],
                 pool: Optional[ColumnBufferPool] = None
                 ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Unfold (B, C, H, W) into columns (B, out_h*out_w, C*kh*kw).

        ``pool``, when given, supplies (and is the place to later
        release) the column buffer.  The output geometry is computed
        here, once; the bulk copy goes through :meth:`_copy_cols` so a
        parallel backend overrides only the data movement.
        """
        batch, channels, height, width = x.shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        out_h = (x.shape[2] - kh) // sh + 1
        out_w = (x.shape[3] - kw) // sw + 1
        strides = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(batch, channels, out_h, out_w, kh, kw),
            strides=(strides[0], strides[1], strides[2] * sh, strides[3] * sw,
                     strides[2], strides[3]),
            writeable=False,
        )
        shape = (batch, out_h * out_w, channels * kh * kw)
        out = pool.acquire(shape, x.dtype) if pool is not None else \
            np.empty(shape, dtype=x.dtype)
        self._copy_cols(out.reshape(batch, out_h, out_w, channels, kh, kw),
                        view.transpose(0, 2, 3, 1, 4, 5))
        return out, (out_h, out_w)

    def col2im2d(self, cols: np.ndarray, x_shape, kernel, stride,
                 padding) -> np.ndarray:
        """Adjoint of :meth:`im2col2d`; scatters column gradients back."""
        batch, channels, height, width = x_shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        # Scratch must match the gradient dtype — an untyped np.zeros would
        # silently upcast float32 backward passes to float64.
        padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw),
                          dtype=cols.dtype)
        out_h = (padded.shape[2] - kh) // sh + 1
        out_w = (padded.shape[3] - kw) // sw + 1
        cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
        self._scatter2d(padded, cols, kernel, stride)
        if ph or pw:
            return padded[:, :, ph:ph + height, pw:pw + width]
        return padded

    def im2col3d(self, x: np.ndarray, kernel: Tuple[int, int, int],
                 stride: Tuple[int, int, int], padding: Tuple[int, int, int],
                 pool: Optional[ColumnBufferPool] = None
                 ) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        """Unfold (B, C, T, H, W) into (B, C*kt*kh*kw, out_t*out_h*out_w).

        Channel-major columns: the row axis is ordered ``(C, kt, kh, kw)``,
        matching the ``weight.reshape(out_channels, -1)`` layout of
        ``Conv3d``, and the column axis ``(out_t, out_h, out_w)``.  One
        GEMM ``w_mat @ cols`` then yields (B, O, out_t*out_h*out_w), which
        is already NCTHW after a free reshape.  The innermost axis of the
        copy is ``out_w``, contiguous in the column buffer (and, at unit
        stride, in the input too).
        """
        batch, channels, frames, height, width = x.shape
        kt, kh, kw = kernel
        st, sh, sw = stride
        pt, ph, pw = padding
        if pt or ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
        out_t = (x.shape[2] - kt) // st + 1
        out_h = (x.shape[3] - kh) // sh + 1
        out_w = (x.shape[4] - kw) // sw + 1
        strides = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(batch, channels, kt, kh, kw, out_t, out_h, out_w),
            strides=(strides[0], strides[1], strides[2], strides[3],
                     strides[4], strides[2] * st, strides[3] * sh,
                     strides[4] * sw),
            writeable=False,
        )
        shape = (batch, channels * kt * kh * kw, out_t * out_h * out_w)
        out = pool.acquire(shape, x.dtype) if pool is not None else \
            np.empty(shape, dtype=x.dtype)
        self._copy_cols(out.reshape(view.shape), view)
        return out, (out_t, out_h, out_w)

    def col2im3d(self, cols: np.ndarray, x_shape, kernel, stride,
                 padding) -> np.ndarray:
        """Adjoint of :meth:`im2col3d`: scatters channel-major column
        gradients (B, C*kt*kh*kw, out_t*out_h*out_w) back onto the input.

        Scratch is allocated in the gradient dtype (no float64 upcast of
        float32 backward passes), mirroring :meth:`col2im2d`.
        """
        batch, channels, frames, height, width = x_shape
        kt, kh, kw = kernel
        st, sh, sw = stride
        pt, ph, pw = padding
        padded = np.zeros((batch, channels, frames + 2 * pt, height + 2 * ph,
                           width + 2 * pw), dtype=cols.dtype)
        out_t = (padded.shape[2] - kt) // st + 1
        out_h = (padded.shape[3] - kh) // sh + 1
        out_w = (padded.shape[4] - kw) // sw + 1
        cols = cols.reshape(batch, channels, kt, kh, kw, out_t, out_h, out_w)
        self._scatter3d(padded, cols, kernel, stride)
        if pt or ph or pw:
            return padded[:, :, pt:pt + frames, ph:ph + height, pw:pw + width]
        return padded

    # ------------------------------------------------------------------
    # Data-movement hooks (overridden by parallel backends)
    # ------------------------------------------------------------------
    def _copy_cols(self, dst: np.ndarray, src: np.ndarray) -> None:
        """Bulk copy of the unfolded view into the column buffer.

        ``dst``/``src`` share a leading batch axis, so an override may
        chunk axis 0 into disjoint slices — bit-identical to one copy.
        """
        np.copyto(dst, src)

    def _scatter2d(self, padded: np.ndarray, cols: np.ndarray, kernel,
                   stride) -> None:
        """Accumulate 6-D columns (B, oh, ow, C, kh, kw) into ``padded``.

        Batch rows are independent, so an override may chunk axis 0.
        """
        kh, kw = kernel
        sh, sw = stride
        out_h, out_w = cols.shape[1], cols.shape[2]
        for i in range(kh):
            for j in range(kw):
                padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += \
                    cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)

    def _scatter3d(self, padded: np.ndarray, cols: np.ndarray, kernel,
                   stride) -> None:
        """Accumulate 8-D columns (B, C, kt, kh, kw, ot, oh, ow) into
        ``padded``: one strided ``+=`` per kernel tap, no transpose.

        Batch rows are independent, so an override may chunk axis 0.
        """
        kt, kh, kw = kernel
        st, sh, sw = stride
        out_t, out_h, out_w = cols.shape[5:]
        for t in range(kt):
            for i in range(kh):
                for j in range(kw):
                    padded[:, :, t:t + st * out_t:st, i:i + sh * out_h:sh,
                           j:j + sw * out_w:sw] += cols[:, :, t, i, j]
