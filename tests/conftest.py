"""Shared pytest fixtures for the SnapPix reproduction test suite.

Hypothesis settings are tiered into named profiles (quick/standard/slow)
instead of per-test ``max_examples`` overrides, so the example budget is
selected per environment: ``HYPOTHESIS_PROFILE=quick pytest`` for a fast
smoke pass, ``standard`` (the default) for CI, ``slow`` for a deeper
local soak.  Property tests inherit the loaded profile by simply not
carrying their own ``@settings`` decorator.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

# Tiered Hypothesis profiles.  ``deadline=None`` everywhere: the CE
# kernels are NumPy-vectorised and a cold first call (thread-pool
# spin-up in the threaded backend) would trip a wall-clock deadline.
settings.register_profile("quick", max_examples=10, deadline=None)
settings.register_profile("standard", max_examples=25, deadline=None)
settings.register_profile("slow", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "standard"))


@pytest.fixture
def rng():
    """Deterministic random generator shared by tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_video(rng):
    """A tiny synthetic video batch (B=2, T=8, H=16, W=16) in [0, 1]."""
    return rng.random((2, 8, 16, 16))


@pytest.fixture
def reference_maxpool3d():
    """Reshape-then-max ``MaxPool3d`` formula, the oracle for the tap loop.

    Returns a module class: the (B, C, T, H, W) input is cut to whole
    windows, viewed as (B, C, T', kt, H', kh, W', kw) and reduced with
    :meth:`Tensor.max` over the three window axes.
    """
    from repro.nn import Module
    from repro.nn.conv import _triple

    class ReferenceMaxPool3d(Module):
        def __init__(self, kernel_size):
            super().__init__()
            self.kernel_size = _triple(kernel_size)

        def forward(self, x):
            kt, kh, kw = self.kernel_size
            batch, channels, frames, height, width = x.shape
            out_t, out_h, out_w = frames // kt, height // kh, width // kw
            view = x[:, :, :out_t * kt, :out_h * kh, :out_w * kw]
            view = view.reshape(batch, channels, out_t, kt, out_h, kh,
                                out_w, kw)
            return view.max(axis=(3, 5, 7))

    return ReferenceMaxPool3d
