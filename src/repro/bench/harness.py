"""Benchmark execution helpers.

The matrices of the paper's Section 7 are large (10 algorithms × 9 graphs
× 3 RDBMSs); ``REPRO_BENCH_SCALE`` scales the synthetic dataset sizes so
the suite completes in minutes on a laptop while preserving every relative
comparison.  Set it to ``1.0`` (or more) for a longer, higher-resolution
run."""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from repro.datasets import catalog
from repro.graphsystems.graph import Graph
from repro.relational.engine import REFERENCE_PROFILE, Engine

#: Global dataset scale for benchmarks (overridable via environment).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))

DIALECTS = ("oracle", "db2", "postgres")


def bench_scale() -> float:
    return BENCH_SCALE


def load_dataset(key: str, scale: float | None = None) -> Graph:
    return catalog.load(key, scale if scale is not None else BENCH_SCALE)


def fresh_engine(dialect: str, **kwargs: Any) -> Engine:
    """An engine in :data:`REFERENCE_PROFILE` — the paper's modelled RDBMS,
    whose dialect plan shapes the figures reproduce — with *kwargs*
    (``mode``, ``telemetry``, ...) passed on."""
    return Engine(dialect, **{**REFERENCE_PROFILE, **kwargs})


def time_call(fn: Callable[[], Any]) -> tuple[Any, float]:
    """(result, wall seconds) of one call."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def dag_twin(graph: Graph, seed_offset: int = 0) -> Graph:
    """An acyclic graph with the same size/density profile as *graph* —
    TopoSort needs DAG input (the paper runs TS on directed graphs only;
    our synthetic directed graphs may contain cycles, so TS gets an
    acyclic twin with matching n and average degree)."""
    from repro.datasets.generators import random_dag

    return random_dag(graph.num_nodes,
                      max(graph.average_degree / 2.0, 0.5),
                      seed=1234 + seed_offset,
                      name=f"{graph.name}-dag")
