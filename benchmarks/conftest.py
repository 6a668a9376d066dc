"""Shared benchmark configuration.

Every bench prints the rows/series its paper table or figure reports and
also writes them to ``benchmark_results/latest/<name>.txt`` (gitignored)
so the output survives pytest's capture.  The committed
``benchmark_results/<name>.txt`` are the recorded baseline a run is
diffed against; a run leaves them alone.  ``REPRO_BENCH_SCALE`` (default
0.35) scales the synthetic datasets.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "benchmark_results" / "latest"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def emit():
    """Fixture handing benches the print-and-save helper."""
    return save_result
