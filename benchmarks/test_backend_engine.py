"""Threaded compute backend — scaling and correctness gate.

Times the Table I models on the ``numpy`` reference backend against the
``threaded`` backend (batch/row-chunked kernels on a shared thread
pool) via :func:`repro.core.run_backend_engine` and gates on two
claims:

1. **Correctness always**: on every host, single-core included, the
   threaded backend must predict exactly the same classes as the
   reference, with logits inside float32 tolerance.
2. **Scaling on multi-core hosts**: when the runner actually has >= 2
   cores, at least two Table I models must clear a 1.3x speedup (the
   same bar the float32 engine is held to).  On single-core hosts the
   backend degrades to near-serial execution by design, so the speedup
   assertion is skipped there — the same gating idiom as
   ``test_parallel_runtime``.

Results are written to the git-ignored ``benchmarks/out/backend_engine.json``;
``repro bench --backend`` writes the tracked ``benchmarks/results/`` copy.
"""

import os

import pytest

from repro.core import remeasure_slow_backends, run_backend_engine

SPEEDUP_THRESHOLD = 1.3
MIN_FAST_MODELS = 2


@pytest.mark.benchmark(group="backend_engine")
def test_backend_engine(benchmark, record_rows):
    """threaded >= 1.3x numpy on >= 2 models (multi-core); same decisions."""

    def run():
        payload = run_backend_engine(backend="threaded", quick=True, seed=0)
        # Timing on shared hosts is noisy; give slow-looking models one
        # longer re-measurement before gating (no-op on single core).
        return remeasure_slow_backends(payload, threshold=SPEEDUP_THRESHOLD)

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows("backend_engine",
                "Compute backends: threaded vs numpy reference", payload)

    models = payload["models"]
    assert models, "backend engine produced no rows"

    # Correctness gate holds on every host: the threaded backend reuses
    # the reference arithmetic per chunk, so predictions never change.
    for row in models:
        assert row["decisions_match"], (
            f"{row['model']} argmax changed on the threaded backend")
        assert row["max_abs_logit_diff"] < 1e-4, (
            f"{row['model']} logits drifted by {row['max_abs_logit_diff']}")

    cores = os.cpu_count() or 1
    if cores >= 2:
        fast = [row for row in models
                if row["speedup"] >= SPEEDUP_THRESHOLD]
        assert len(fast) >= MIN_FAST_MODELS, (
            f"expected >= {MIN_FAST_MODELS} models at >= "
            f"{SPEEDUP_THRESHOLD}x on a {cores}-core host, got "
            + ", ".join(f"{row['model']}={row['speedup']:.2f}x"
                        for row in models))
