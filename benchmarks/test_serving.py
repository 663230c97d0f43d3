"""Inference serving — micro-batching throughput gate.

The serving subsystem exists to turn concurrent single-clip requests
into batched, BLAS-friendly forward passes, so the gate is the point:
micro-batched serving must beat the sequential single-clip reference by
at least 1.5x throughput on a Table I model, while predicting *exactly*
the same labels (identical argmax) through the coalesced path.  The
measured latency/throughput rows are written to the git-ignored
``benchmarks/out/serving_bench.json``; ``repro serve`` writes the
tracked ``benchmarks/results/serving_bench.json`` baseline.
"""

from pathlib import Path

import pytest

from repro.serving import benchmark_serving, write_serving_results

SPEEDUP_THRESHOLD = 1.5
MODELS = ("snappix_s", "snappix_b")
OUT_PATH = Path(__file__).parent / "out" / "serving_bench.json"


def _run_profile(seed: int = 0):
    # 64 requests divide evenly into every measured batch size, so no
    # trailing partial batch sits out its flush deadline and distorts
    # the throughput of the larger batch limits.
    return benchmark_serving(models=MODELS, batch_sizes=(1, 8, 32),
                             num_requests=64, image_size=32, num_frames=16,
                             max_delay_s=0.05, seed=seed)


def _best_speedups(payload):
    best = {}
    for row in payload["rows"]:
        best[row["model"]] = max(best.get(row["model"], 0.0),
                                 row["speedup_vs_sequential"])
    return best


@pytest.mark.benchmark(group="serving")
def test_micro_batched_serving_beats_sequential(benchmark, record_rows):
    """Batched serving >= 1.5x sequential with identical argmax labels."""
    payload = benchmark.pedantic(_run_profile, rounds=1, iterations=1)
    if max(_best_speedups(payload).values()) < SPEEDUP_THRESHOLD:
        # Timing on shared hosts is noisy; one re-measurement keeps a
        # descheduled round from failing the gate (perf_engine idiom).
        payload = _run_profile(seed=0)
    record_rows("serving_microbatch", "Micro-batched serving vs sequential",
                payload["rows"])
    write_serving_results(payload, OUT_PATH)

    # Correctness first: the coalesced path must be decision-identical
    # to sequential single-clip no_grad inference in every configuration.
    for row in payload["rows"]:
        assert row["labels_match_sequential"], (
            f"{row['model']} @ max_batch={row['max_batch_size']} diverged "
            f"from the sequential reference")
        assert row["rejected"] == 0  # load generator sizes the queue

    best = _best_speedups(payload)
    assert any(speedup >= SPEEDUP_THRESHOLD for speedup in best.values()), (
        f"expected >= {SPEEDUP_THRESHOLD}x micro-batching speedup on at "
        "least one Table I model, got "
        + ", ".join(f"{name}={speedup:.2f}x" for name, speedup in best.items()))

    # Micro-batching must actually have coalesced requests (the win has
    # to come from batching, not from measurement artefacts).
    batched_rows = [row for row in payload["rows"]
                    if row["max_batch_size"] > 1]
    assert any(row["mean_batch_size"] > 1.5 for row in batched_rows)
