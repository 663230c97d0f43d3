"""Threaded-kernel NumPy backend: batch/row chunking on a shared pool.

Every op keeps the reference arithmetic of :class:`~.base.Backend` and
parallelises only the *data partitioning*: the leading (batch/row) axis
is split into per-thread contiguous slices, each processed by the
reference kernel.  Per-row reductions (softmax, LayerNorm) and
elementwise ufuncs are therefore bit-identical to the ``numpy``
reference; so are im2col/col2im (disjoint output slices) and batched
(>=3-D) matmul (each 2-D sub-GEMM is unchanged).  The one documented
exception is 2-D GEMM row-chunking, where BLAS may pick a different
micro-kernel per sub-problem — that op is equivalence-gated at
tolerance + identical argmax instead of bit-identity.

Thread-count resolution reuses ``runtime.parallel.resolve_workers``
(0 = one per CPU, the ``--workers`` convention) and the per-call width
comes from ``runtime.parallel.backend_thread_budget``, which divides
the budget by the number of active outer DAG/sweep workers so nested
parallelism caps at the host's core count instead of multiplying.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from .base import Backend


class ThreadedBackend(Backend):
    name = "threaded"

    #: Arrays smaller than this (in elements) run on the calling thread;
    #: below it, chunking overhead exceeds the kernel time.
    min_parallel_elements = 1 << 15
    #: Matmul threshold in multiply-adds (M*N*K), not elements: a GEMM
    #: amortises thread overhead much earlier than a copy does.
    min_parallel_flops = 1 << 20

    def __init__(self, workers: Optional[int] = 0):
        super().__init__()
        #: Requested thread count in the ``--workers`` convention
        #: (``0``/``None`` = one per CPU).
        self.workers = workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool / partitioning machinery
    # ------------------------------------------------------------------
    def _budget(self) -> int:
        # Lazy import: repro.runtime imports the model zoo which imports
        # repro.nn — a module-level import here would be circular.
        from ...runtime.parallel import backend_thread_budget
        return backend_thread_budget(self.workers)

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                from ...runtime.parallel import resolve_workers
                self._executor = ThreadPoolExecutor(
                    max_workers=resolve_workers(self.workers),
                    thread_name_prefix="repro-backend")
            return self._executor

    def _plan(self, n: int, work: int, threshold: Optional[int] = None
              ) -> Optional[List[slice]]:
        """Split a leading axis of length ``n`` into per-thread slices.

        Returns ``None`` when the call should stay on the calling thread
        (budget of one — e.g. inside a saturated DAG worker pool — or
        work below the threshold).
        """
        width = self._budget()
        if width <= 1 or n < 2:
            return None
        if work < (self.min_parallel_elements if threshold is None
                   else threshold):
            return None
        bounds = np.linspace(0, n, min(width, n) + 1).astype(int)
        return [slice(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def _run(self, tasks: Sequence[Callable[[], None]]) -> None:
        pool = self._pool()
        futures = [pool.submit(task) for task in tasks]
        for future in futures:
            future.result()

    # ------------------------------------------------------------------
    # GEMM
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim < 2 or b.ndim < 2:
            return np.matmul(a, b, out=out)
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out_shape = lead + (a.shape[-2], b.shape[-1])
        flops = int(np.prod(out_shape, dtype=np.int64)) * int(a.shape[-1])
        slice_a = bool(lead) and a.ndim == len(out_shape) and \
            a.shape[0] == lead[0]
        slice_b = bool(lead) and b.ndim == len(out_shape) and \
            b.shape[0] == lead[0]
        if slice_a or slice_b:
            # Batched GEMM: chunk the batch axis of whichever operand
            # carries it (the other one, e.g. a shared weight, is
            # broadcast whole); each 2-D sub-GEMM is the exact reference
            # computation (bit-identical).
            plan = self._plan(lead[0], flops, self.min_parallel_flops)
            if plan is not None:
                if out is None:
                    out = np.empty(out_shape, dtype=np.result_type(a, b))
                self._run([
                    (lambda s=s: np.matmul(
                        a[s] if slice_a else a, b[s] if slice_b else b,
                        out=out[s]))
                    for s in plan])
                return out
        elif a.ndim == 2 and b.ndim == 2:
            # Row-chunked SGEMM: tolerance-class (see module docstring).
            plan = self._plan(a.shape[0], flops, self.min_parallel_flops)
            if plan is not None:
                if out is None:
                    out = np.empty(out_shape, dtype=np.result_type(a, b))
                self._run([(lambda s=s: np.matmul(a[s], b, out=out[s]))
                           for s in plan])
                return out
        return np.matmul(a, b, out=out)

    # ------------------------------------------------------------------
    # Elementwise ufunc family
    # ------------------------------------------------------------------
    def _ew(self, ufunc, inputs, out):
        if out is None or out.ndim < 1:
            return ufunc(*inputs, out=out)
        plan = self._plan(out.shape[0], out.size)
        if plan is None:
            return ufunc(*inputs, out=out)

        def sliced(value, s):
            if (isinstance(value, np.ndarray) and value.ndim == out.ndim
                    and value.shape[0] == out.shape[0]):
                return value[s]
            return value

        self._run([
            (lambda s=s: ufunc(*[sliced(v, s) for v in inputs], out=out[s]))
            for s in plan])
        return out

    def add(self, a, b, out=None):
        return self._ew(np.add, (a, b), out)

    def subtract(self, a, b, out=None):
        return self._ew(np.subtract, (a, b), out)

    def multiply(self, a, b, out=None):
        return self._ew(np.multiply, (a, b), out)

    def divide(self, a, b, out=None):
        return self._ew(np.divide, (a, b), out)

    def _unary(self, ufunc, x, out):
        # Unary float ops can allocate their own destination, so they
        # chunk even when the caller did not pass out=.
        if out is None and isinstance(x, np.ndarray) and x.dtype.kind == "f":
            out = np.empty_like(x)
        return self._ew(ufunc, (x,), out)

    def exp(self, x, out=None):
        return self._unary(np.exp, x, out)

    def tanh(self, x, out=None):
        return self._unary(np.tanh, x, out)

    def sqrt(self, x, out=None):
        return self._unary(np.sqrt, x, out)

    def rint(self, x, out=None):
        return self._unary(np.rint, x, out)

    # ------------------------------------------------------------------
    # Softmax / LayerNorm / GELU: per-row kernels chunked over axis 0
    # ------------------------------------------------------------------
    def fused_softmax(self, scores: np.ndarray, axis: int = -1,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        if scores.ndim < 2 or axis % scores.ndim == 0:
            return super().fused_softmax(scores, axis=axis, out=out)
        plan = self._plan(scores.shape[0], scores.size)
        if plan is None:
            return super().fused_softmax(scores, axis=axis, out=out)
        if out is None:
            out = np.empty_like(scores)
        self._run([
            (lambda s=s: Backend.fused_softmax(
                self, scores[s], axis=axis, out=out[s]))
            for s in plan])
        return out

    def layer_norm_core(self, data, eps):
        if data.ndim < 2:
            return super().layer_norm_core(data, eps)
        plan = self._plan(data.shape[0], data.size)
        if plan is None:
            return super().layer_norm_core(data, eps)
        normalised = np.empty_like(data)
        std = np.empty(data.shape[:-1] + (1,), dtype=data.dtype)

        def chunk(s):
            part_norm, part_std = Backend.layer_norm_core(self, data[s], eps)
            normalised[s] = part_norm
            std[s] = part_std

        self._run([(lambda s=s: chunk(s)) for s in plan])
        return normalised, std

    def gelu_forward(self, x):
        plan = self._plan(x.shape[0], x.size) if x.ndim >= 1 else None
        if plan is None:
            return super().gelu_forward(x)
        out = np.empty_like(x)
        t = np.empty_like(x)
        x_sq = np.empty_like(x)

        def chunk(s):
            part_out, part_t, part_sq = Backend.gelu_forward(self, x[s])
            out[s] = part_out
            t[s] = part_t
            x_sq[s] = part_sq

        self._run([(lambda s=s: chunk(s)) for s in plan])
        return out, t, x_sq

    def gelu_backward(self, grad, x, t, x_sq):
        plan = self._plan(grad.shape[0], grad.size) if grad.ndim >= 1 else None
        if plan is None:
            return super().gelu_backward(grad, x, t, x_sq)
        gx = np.empty_like(grad)

        def chunk(s):
            gx[s] = Backend.gelu_backward(self, grad[s], x[s], t[s], x_sq[s])

        self._run([(lambda s=s: chunk(s)) for s in plan])
        return gx

    # ------------------------------------------------------------------
    # im2col / col2im data movement
    # ------------------------------------------------------------------
    def _copy_cols(self, dst, src):
        plan = self._plan(dst.shape[0], dst.size)
        if plan is None:
            np.copyto(dst, src)
            return
        self._run([(lambda s=s: np.copyto(dst[s], src[s])) for s in plan])

    def _scatter2d(self, padded, cols, kernel, stride):
        plan = self._plan(padded.shape[0], cols.size)
        if plan is None:
            return super()._scatter2d(padded, cols, kernel, stride)
        self._run([
            (lambda s=s: Backend._scatter2d(
                self, padded[s], cols[s], kernel, stride))
            for s in plan])

    def _scatter3d(self, padded, cols, kernel, stride):
        plan = self._plan(padded.shape[0], cols.size)
        if plan is None:
            return super()._scatter3d(padded, cols, kernel, stride)
        self._run([
            (lambda s=s: Backend._scatter3d(
                self, padded[s], cols[s], kernel, stride))
            for s in plan])
