"""Streaming-ingest benchmark (``BENCH_streaming.json``).

A batch-size sweep over the incremental-vs-full maintenance trade:
edge-insert batches of 1, 4, 16 and 64 arrive against a
preferential-attachment graph with all three maintained views
(PageRank trajectory, WCC labels, SSSP distances) registered.  Two
engines consume the identical batch sequence:

* **incremental** — ``apply_batch`` with registered views: mutations
  route through the O(|delta|) storage paths and each view patches only
  its dirty region (warm-started fixpoints for WCC/SSSP, frontier
  recomputation for PageRank);
* **full** — the same mutations with views detached, followed by a
  from-scratch ``full_refresh`` of every view — the "recompute the
  world per batch" baseline an RDBMS without incremental maintenance
  pays.

Per batch size the report records both wall times, their ratio
(``speedup``), and ``identical``: the incremental values must match the
full recomputation **byte for byte** (``repr`` equality per vertex) —
that is the acceptance criterion and it holds on any machine.  The
speedup claim enforced downstream (bench regression gate) is ≥5x for
single-edge batches; amortisation shrinks it as batches grow, which the
sweep makes visible.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
import random
from typing import Any

from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph

from .harness import BENCH_SCALE, fresh_engine, time_call

#: Nodes at scale 1.0 / average out-degree — the storage bench's base
#: graph, so numbers line up across reports.
BASE_NODES = 8000
DEGREE = 4.0

BATCH_SIZES = (1, 4, 16, 64)
BATCHES_PER_SIZE = 3
SSSP_SOURCE = 0
PR_ITERATIONS = 15


def _build_graph(scale: float) -> Graph:
    n = max(int(BASE_NODES * scale), 60)
    return preferential_attachment(n, DEGREE, directed=True, seed=11)


def _edge_batches(graph: Graph, size: int,
                  count: int) -> list[list[tuple[int, int, float]]]:
    """Deterministic unit-weight insert batches between existing
    vertices, disjoint from existing edges and from each other."""
    rng = random.Random(9000 + size)
    nodes = list(graph.nodes())
    taken = {(u, v) for u, v in graph.edges()}
    batches = []
    for _ in range(count):
        batch: list[tuple[int, int, float]] = []
        while len(batch) < size:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v or (u, v) in taken:
                continue
            taken.add((u, v))
            batch.append((u, v, 1.0))
        batches.append(batch)
    return batches


def _attach(graph: Graph, dialect: str):
    engine = fresh_engine(dialect)
    manager = engine.streaming
    manager.attach_graph(graph)
    manager.register_view("pr", "pagerank", iterations=PR_ITERATIONS)
    manager.register_view("cc", "wcc")
    manager.register_view("sp", "sssp", source=SSSP_SOURCE)
    return engine, manager


def _clone(graph: Graph) -> Graph:
    clone = Graph(directed=graph.directed, name=graph.name)
    for v in graph.nodes():
        clone.add_node(v, weight=graph.node_weight(v))
    for u, v, w in graph.weighted_edges():
        clone.add_edge(u, v, w)
    return clone


def _timed(fn) -> tuple[Any, float]:
    gc.collect()
    gc.disable()
    try:
        return time_call(fn)
    finally:
        gc.enable()


def _fingerprints(manager) -> dict[str, list[tuple]]:
    return {name: [(k, repr(v)) for k, v in sorted(view.values.items())]
            for name, view in manager.views.items()}


def _run_size(base: Graph, dialect: str, size: int,
              repeats: int) -> dict[str, Any]:
    batches = _edge_batches(base, size, BATCHES_PER_SIZE)
    incremental_s = math.inf
    full_s = math.inf
    identical = True
    modes: list[str] = []
    for _ in range(max(repeats, 1)):
        engine_inc, manager_inc = _attach(_clone(base), dialect)
        engine_full, manager_full = _attach(_clone(base), dialect)
        # Detach the full engine's views from apply_batch so each batch
        # pays the mutation plus an explicit from-scratch re-derivation.
        full_views = dict(manager_full.views)
        manager_full.views.clear()

        def run_incremental():
            for batch in batches:
                manager_inc.apply_batch(inserts={"E": list(batch)})

        def run_full():
            for batch in batches:
                manager_full.apply_batch(inserts={"E": list(batch)})
                for view in full_views.values():
                    view.full_refresh()

        _, seconds = _timed(run_incremental)
        incremental_s = min(incremental_s, seconds)
        _, seconds = _timed(run_full)
        full_s = min(full_s, seconds)
        manager_full.views.update(full_views)
        identical = identical and (
            _fingerprints(manager_inc) == _fingerprints(manager_full))
        modes = [view.mode_history[-1]
                 for view in manager_inc.views.values()]
    incremental_ms = round(incremental_s * 1000, 3)
    full_ms = round(full_s * 1000, 3)
    return {
        "query": f"batch{size}",
        "batch_size": size,
        "batches": BATCHES_PER_SIZE,
        "incremental_ms": incremental_ms,
        "full_ms": full_ms,
        "speedup": round(full_ms / incremental_ms, 3)
        if incremental_ms else math.inf,
        "identical": identical,
        "last_modes": modes,
    }


def run_streaming_bench(scale: float | None = None,
                        dialect: str = "oracle",
                        repeats: int = 3) -> dict[str, Any]:
    """Full report dict for the batch-size sweep."""
    scale = BENCH_SCALE if scale is None else scale
    base = _build_graph(scale)
    results = [_run_size(base, dialect, size, repeats)
               for size in BATCH_SIZES]
    return {
        "bench": "streaming",
        "dialect": dialect,
        "scale": scale,
        "graph": {"nodes": base.num_nodes, "edges": base.num_edges},
        "views": ["pagerank", "wcc", "sssp"],
        "batches_per_size": BATCHES_PER_SIZE,
        "results": results,
    }


_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_REPORT = (_ROOT if (_ROOT / "pyproject.toml").exists()
                  else pathlib.Path.cwd()) / "BENCH_streaming.json"


def write_report(report: dict[str, Any],
                 path: pathlib.Path | str = DEFAULT_REPORT) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main() -> None:  # pragma: no cover - CLI entry
    report = run_streaming_bench()
    path = write_report(report)
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
