"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.  The
measured rows are printed to stdout (visible with ``pytest -s`` or in the
captured output) and written as JSON under the git-ignored
``benchmarks/out/``, so a test run never rewrites the tracked reference
results in ``benchmarks/results/``.
"""

import json
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def save_result(name: str, payload) -> None:
    """Persist a benchmark's measured rows as JSON under ``OUT_DIR``."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{name}.json", "w") as handle:
        json.dump(payload, handle, indent=2, default=float)


def print_rows(title: str, rows) -> None:
    """Pretty-print a list of row dictionaries as an aligned table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    if isinstance(rows, dict):
        rows = [rows]
    keys = list(rows[0].keys())
    header = " | ".join(f"{key:>22}" for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:>22.4f}")
            else:
                cells.append(f"{str(value):>22}")
        print(" | ".join(cells))


@pytest.fixture
def record_rows():
    """Fixture returning a helper that both prints and saves benchmark rows."""

    def _record(name: str, title: str, rows):
        print_rows(title, rows)
        save_result(name, rows)
        return rows

    return _record
