"""SnapPix repository benchmark: clips in, labels out, plus one training loop.

Run one workload from the repository root::

    python3 perfbench/run.py --workload ce_serve --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured untraced; with ``--trace 1`` they are the
per-layer metrics, from a run that measures the phases untraced and
then again with spans around the library's public calls.  ``setup_s``
and ``full_cps`` (and ``op_p50_ms`` of ``ce_train``, a training step)
are scaled to a host of fixed speed: a fixed numpy kernel is timed
before and after every measured stretch (see ``loops.HostSpeed``), since
a shared host's speed drifts by up to 1.5x within a minute.  The raw
figures are in the run record and the ``--all`` table.  Lines before
it (prefixed ``#``) give each phase's sample counts and the host.

Run every workload and print every metric with its unit::

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

Each run also writes a JSON record (phases, counts, environment) and,
when traced, its spans as JSON lines, under ``perfbench/out/``.
Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("ce_serve", "sensor_int8_serve", "video_serve", "ce_train")
RUN_TIMEOUT_S = 900


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {name: os.environ.get(name)
                        for name in THREAD_VARIABLES + ("REPRO_BACKEND",)},
    }


def run_one(args) -> int:
    # One process, at most two busy threads (client + batch worker): keep
    # BLAS from adding its own unless the caller asked for them.
    for name in THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from workloads import END_TO_END, PER_LAYER

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ckpt-", dir=OUT)
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result.tally
    names = PER_LAYER if args.trace else END_TO_END
    values = result.per_layer if args.trace else result.end_to_end
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failure_reasons": dict(tally.reasons), "problems": tally.problems,
        "setup": result.setup, "phases": result.phases, "host": result.host,
        "end_to_end": result.end_to_end, "per_layer": result.per_layer,
    }
    if result.tracer is not None:
        trace_path = OUT / f"trace-{stem}.jsonl"
        result.tracer.write(trace_path)
        record["trace_file"] = trace_path.name
        record["trace_spans"] = len(result.tracer.spans)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for phase, row in result.phases.items():
        print(f"# phase {phase}: " + json.dumps(row))
    print(f"# setup: {json.dumps(result.setup)}")
    print(f"# host speed: {json.dumps(result.host)}")
    print(f"# environment: {json.dumps(record['environment'])}")
    for problem in tally.problems:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": tally.failed == 0 and not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric with its unit."""
    rows, correct = [], True
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=RUN_TIMEOUT_S)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        record = json.loads((OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json")
                            .read_text())
        correct = correct and last["correct"]
        rows += [(workload, name, metric["value"], metric["unit"])
                 for name, metric in last["metrics"].items()]
        phases = record["phases"]
        closed = phases.get("b1") or phases.get("train")
        full = phases.get("full") or phases["train"]
        rows += [(workload, "full_cps_raw", full["cps_raw"], "clips/s"),
                 (workload, "setup_s_raw", record["setup"]["setup_s_raw"], "s"),
                 (workload, "op_p99_ms", closed["p99_ms"], "ms"),
                 (workload, "op_samples", closed["n"], "count")]
        if "open" in phases:
            rows += [(workload, f"open_{key}", phases["open"][key], unit)
                     for key, unit in (("p50_ms", "ms"), ("p99_ms", "ms"),
                                       ("n", "count"), ("late_p99_ms", "ms"))]
        if "train" in phases:
            rows.append((workload, "train_sps", phases["train"]["sps"], "steps/s"))
        rows += [(workload, "error_rate", record["error_rate"], "fraction"),
                 (workload, "attempted", last["attempted"], "count")]
    width = max(len(row[1]) for row in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<18} {name:<{width}} {value:>14.6g} {unit}")
    summary = {"correct": correct, "seed": args.seed, "trace": args.trace,
               "rows": [list(row) for row in rows]}
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    print(f"correct: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
