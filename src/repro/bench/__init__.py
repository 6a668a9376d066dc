"""Helpers for the paper-figure scripts (``benchmarks/bench_fig*``,
``bench_table*``, ``bench_ablation*``): reference-profile engines,
scaled datasets (``REPRO_BENCH_SCALE``), timing and table rendering.
Performance is measured end to end by ``benchmarks/e2e/``, not here."""

from .harness import (
    BENCH_SCALE,
    bench_scale,
    fresh_engine,
    time_call,
)
from .reporting import format_table, print_table

__all__ = ["BENCH_SCALE", "bench_scale", "fresh_engine", "time_call",
           "format_table", "print_table"]
