"""Multi-lane serving fleet — scaling and tail-latency gates.

The fleet exists to turn lane count into throughput without corrupting
results or fattening the tail, so the gates measure exactly that:

- **lane scaling** — closed-burst throughput at the widest lane count
  must reach >= 1.7x the single-lane throughput on multi-core hosts,
  with every width predicting labels identical to the sequential
  reference;
- **tail latency** — at the same offered load, p99 latency under bursty
  arrivals must stay within 1.5x of the uniform-arrival p99 (the
  batcher's enqueue-anchored deadline is what keeps bursts from
  compounding into tail blowups);
- **admission ordering** — under deliberate overload, sequential
  traffic is shed by policy before any batched request is refused by
  queue-full backpressure.

The full matrix payload is written to the git-ignored
``benchmarks/out/serving_load.json``; ``repro serve --load`` writes the
tracked ``benchmarks/results/serving_load.json`` fleet baseline.
"""

import os
from pathlib import Path

import pytest

from repro.serving import (
    run_admission_probe,
    run_serving_load_matrix,
    write_load_results,
)

SCALING_THRESHOLD = 1.7
TAIL_RATIO_THRESHOLD = 1.5
OUT_PATH = Path(__file__).parent / "out" / "serving_load.json"


@pytest.fixture(scope="module")
def load_payload():
    return run_serving_load_matrix(quick=True)


def _throughput_by_lanes(payload):
    return {row["lanes"]: row["inference_per_second"]
            for row in payload["lane_scaling"]}


def _tail_ratio(payload):
    p99 = {row["scenario"]: row["latency_p99_ms"]
           for row in payload["scenarios"]}
    return p99["bursty"] / max(p99["uniform"], 1e-9)


@pytest.mark.benchmark(group="serving")
def test_load_matrix_correct_and_admitted(load_payload, record_rows):
    """Every matrix row is decision-correct; the artifact is persisted."""
    rows = load_payload["lane_scaling"] + load_payload["scenarios"]
    record_rows("serving_fleet", "Serving fleet load matrix", rows)
    write_load_results(load_payload, OUT_PATH)

    # Correctness first: no lane width or arrival profile may diverge
    # from the sequential reference, and the load generator sizes every
    # queue so backpressure never fires in the measured scenarios.
    for row in rows:
        assert row["labels_match_sequential"], (
            f"scenario {row['scenario']} diverged from the sequential "
            f"reference at {row['lanes']} lanes")
        assert row["rejected"] == 0, (
            f"scenario {row['scenario']} saw backpressure rejections")

    admission = load_payload["admission"]
    assert admission["admission_ordering_ok"], admission
    assert load_payload["profile"]["offered_rate"] >= 1.0


@pytest.mark.benchmark(group="serving")
def test_lane_scaling_reaches_threshold(load_payload):
    """Widest fleet >= 1.7x single lane throughput on multi-core hosts."""
    attempts = [_throughput_by_lanes(load_payload)]
    widest = max(attempts[0])
    assert widest >= 4  # the quick profile must actually test 4 lanes

    def passes(by_lanes):
        return by_lanes[widest] >= SCALING_THRESHOLD * by_lanes[1]

    cores = os.cpu_count() or 1
    if cores >= 2 and not passes(attempts[0]):
        # Timing on shared hosts is noisy; one re-measurement keeps a
        # descheduled round from failing the gate (perf_engine idiom).
        attempts.append(_throughput_by_lanes(run_serving_load_matrix(quick=True)))

    if cores >= 2:
        assert any(passes(by_lanes) for by_lanes in attempts), (
            f"expected >= {SCALING_THRESHOLD}x throughput at {widest} lanes "
            "vs 1 lane, got " + "; ".join(
                f"{by[widest] / by[1]:.2f}x" for by in attempts))
    else:
        # Single core: lanes cannot scale, but they must not corrupt —
        # the correctness assertions above already ran; here we only
        # require the fleet not to collapse under the extra lanes.
        assert attempts[0][widest] > 0.25 * attempts[0][1]


@pytest.mark.benchmark(group="serving")
def test_bursty_p99_within_tail_budget(load_payload):
    """Bursty-arrival p99 <= 1.5x uniform-arrival p99 at equal load."""
    ratios = [_tail_ratio(load_payload)]
    if ratios[0] > TAIL_RATIO_THRESHOLD:
        ratios.append(_tail_ratio(run_serving_load_matrix(quick=True)))
    assert min(ratios) <= TAIL_RATIO_THRESHOLD, (
        "bursty arrivals fattened the tail beyond budget: p99 ratios "
        + ", ".join(f"{ratio:.2f}x" for ratio in ratios)
        + f" (budget {TAIL_RATIO_THRESHOLD}x)")


def test_admission_sheds_sequential_first():
    """Deterministic probe: policy shed strictly precedes backpressure."""
    probe = run_admission_probe()
    assert probe["shed_sequential"] > 0
    assert probe["shed_batched"] == 0
    assert probe["rejected_batched"] > 0  # 3x capacity guarantees overflow
    assert probe["first_shed_index"] < probe["first_batched_rejection_index"]
    assert probe["admission_ordering_ok"]
