"""Maintained algorithm results ("views") over a streaming graph.

Each view pins one registered algorithm result (PageRank, WCC or SSSP)
to the manager's live graph and refreshes it after every
:meth:`~repro.streaming.StreamingManager.apply_batch` — bit-identically
to a from-scratch run on the mutated graph:

* **PageRank** is recomputed from scratch on every batch, on arrays:
  each iteration is one ``bincount`` over the edge list in the scan
  order of the transition relation ``S``, which performs the float
  additions of the engine's per-target sums in the same order.  There
  is no dirty-frontier patch: on a preferential-attachment graph the
  frontier reaches most vertices within a few iterations, so patching
  loses to a plain recompute even in pure Python.
* **WCC** is a monotone min-label flood: unaffected components keep
  their prior (integer) labels as the warm-start seed, every vertex of
  a deletion-affected component is reset to its own ID, and the engine
  resumes the recursive query from the seed.  Incremental maintenance
  requires unit edge weights (the min-times semiring degenerates to
  label propagation); non-unit weights force a full re-run.
* **SSSP** is monotone relaxation: deletions reset the forward closure
  of *tight* edges (``d(t) == d(f) + w`` float-exact) reachable from a
  deleted edge's head back to +infinity, everything else warm-starts
  from its prior distance, and insertions need no resets at all.

WCC and SSSP have a cost rule: when the affected region crosses a
fraction of the graph (or a semantic gate fails, e.g. non-unit WCC
weights), the view falls back to a bounded full re-derivation instead.
Either path yields byte-identical results; the rule only chooses how
much work to spend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.types import SqlType

if TYPE_CHECKING:  # pragma: no cover
    from .manager import GraphDelta, StreamingManager

#: The SQL +infinity sentinel shared with the SSSP algorithm module.
INF = 1e18

#: Fraction of the vertex set beyond which an affected region triggers
#: a full re-derivation instead of incremental patching.
FULL_RERUN_FRACTION = 0.5


class StreamingView:
    """Base: one maintained algorithm result."""

    algorithm = "?"

    def __init__(self, manager: "StreamingManager", name: str):
        self.manager = manager
        self.name = name
        #: refresh mode per applied batch ("incremental" / "full"),
        #: most recent last — the cost rule's audit trail.
        self.mode_history: list[str] = []
        self._plan: str = "full"

    # -- protocol ---------------------------------------------------------------

    def full_refresh(self) -> None:
        raise NotImplementedError

    def prepare(self, delta: "GraphDelta") -> None:
        """Pre-mutation pass: capture whatever the incremental path needs
        from the *old* graph/result (affected labels, tight closures)."""

    def refresh(self, delta: "GraphDelta") -> str:
        """Post-mutation pass; returns the mode used."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------------

    @property
    def graph(self):
        return self.manager.graph

    @property
    def last_mode(self) -> str | None:
        return self.mode_history[-1] if self.mode_history else None

    def _too_large(self, affected: int) -> bool:
        n = self.graph.num_nodes
        return affected > max(8, int(n * FULL_RERUN_FRACTION))


class PageRankView(StreamingView):
    """Fixed-iteration PageRank, recomputed from scratch after every batch.

    The engine's UBU semantics are reproduced exactly: per iteration,
    partial sums accumulate over the transition relation ``S`` in scan
    order (``sum(W[F] * (1/out_degree(F)))`` per target), the damped sum
    plus the teleport term replaces the value of every node that
    *appears as a target*, and non-appearing nodes keep their previous
    value.  ``S`` scan order equals ``graph.weighted_edges()`` order,
    so the view never needs the relational engine — which also sidesteps
    the mutated edge table's append-reordered rows.

    An iteration is one ``bincount`` over the edge vectors, which adds
    the weights into each target in edge order, as the engine's per-target
    sums do, so the two agree to the bit.  Every refresh reports mode
    ``"full"``.
    """

    algorithm = "pagerank"

    def __init__(self, manager: "StreamingManager", name: str,
                 damping: float = 0.85, iterations: int = 15):
        super().__init__(manager, name)
        self.damping = damping
        self.iterations = iterations
        self._values: dict[int, float] = {}

    @property
    def values(self) -> dict[int, float]:
        return dict(self._values)

    def refresh(self, delta: "GraphDelta") -> str:
        self.full_refresh()
        self.mode_history.append("full")
        return "full"

    def full_refresh(self) -> None:
        graph = self.graph
        nodes = list(graph.nodes())
        n = len(nodes)
        slot = {v: i for i, v in enumerate(nodes)}
        degree = np.array([graph.out_degree(v) for v in nodes],
                          dtype=np.int64)
        # Edges in weighted_edges() order, as node slots.
        src = np.repeat(np.arange(n), degree)
        dst = np.fromiter(
            (slot[t] for v in nodes for t in graph.out_neighbors(v)),
            dtype=np.intp, count=len(src))
        inv_degree = 1.0 / degree[src]
        targets = np.bincount(dst, minlength=n) > 0
        teleport = (1.0 - self.damping) / n if n else 0.0
        current = np.zeros(n)
        for _ in range(self.iterations):
            sums = np.bincount(dst, weights=current[src] * inv_degree,
                               minlength=n)
            current = np.where(targets, self.damping * sums + teleport,
                               current)
        self._values = dict(zip(nodes, current.tolist()))


class _WarmStartView(StreamingView):
    """Shared machinery for the SQL-backed monotone views (WCC, SSSP):
    build a seed relation in V order, resume the recursive query from it
    via ``Engine.execute_detailed(..., warm_start=...)``."""

    cte_name = "?"

    def _seed(self, schema: Schema, rows: list[tuple]) -> Relation:
        """*rows* as a seed relation: on columnar storage as typed vectors
        when every column has an exact one, so the recursive relation
        starts out as the vectors the loop keeps (and its key plans fit
        from the second iteration on); else as the rows."""
        if self.manager.engine.database.storage == "columnar":
            from repro.relational.physical.blocks import (ArrayColumns,
                                                          exact_array)

            vectors = [exact_array(list(column)) for column in zip(*rows)]
            if vectors and None not in vectors:
                return Relation.from_batch(schema, ArrayColumns(vectors))
        return Relation(schema, rows)

    def _run(self, sql: str,
             seed: Relation | None = None) -> Relation:
        engine = self.manager.engine
        warm = {self.cte_name: seed} if seed is not None else None
        return engine.execute_detailed(sql, warm_start=warm).relation


class WccView(_WarmStartView):
    """Weakly connected components as a warm-started min-label flood.

    Labels are *integers* (the ``ID as vw`` initialisation's type
    survives the min), so seeds are built as integer rows to stay
    byte-identical with a cold run.
    """

    algorithm = "wcc"
    cte_name = "C"

    SEED_SCHEMA = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.INTEGER))

    def __init__(self, manager: "StreamingManager", name: str):
        super().__init__(manager, name)
        self.labels: dict[int, int] = {}
        self._affected_labels: set[int] = set()

    @property
    def values(self) -> dict[int, int]:
        return dict(self.labels)

    def full_refresh(self) -> None:
        from repro.core.algorithms import wcc

        self.manager.ensure_symmetric_edges()
        self.labels = dict(self._run(wcc.sql()).rows)

    def prepare(self, delta: "GraphDelta") -> None:
        labels = self.labels
        affected: set[int] = set()
        for u, v, _ in delta.removed_edges:
            affected.add(labels[u])
            affected.add(labels[v])
        for z in delta.removed_vertices:
            affected.add(labels[z])
        self._affected_labels = affected
        # Unit weights are the label-propagation gate: with ew != 1 the
        # min-times products are not component labels any more.
        if self.manager.nonunit_edges or any(
                w != 1.0 for _, _, w in delta.inserted_edges):
            self._plan = "full"
        else:
            self._plan = "incremental"

    def refresh(self, delta: "GraphDelta") -> str:
        from repro.core.algorithms import wcc

        if self._plan == "incremental" and self.manager.nonunit_edges:
            self._plan = "full"
        if self._plan == "incremental":
            affected = self._affected_labels
            new_vertices = set(delta.inserted_vertices)
            reset = [v for v, label in self.labels.items()
                     if label in affected]
            if self._too_large(len(reset) + len(new_vertices)):
                self._plan = "full"
        if self._plan == "full":
            self.full_refresh()
            self.mode_history.append("full")
            return "full"
        labels = self.labels
        rows = []
        for v in self.graph.nodes():
            prior = labels.get(v)
            if prior is None or prior in self._affected_labels:
                rows.append((v, v))  # own-ID, exactly the cold init
            else:
                rows.append((v, prior))
        seed = self._seed(self.SEED_SCHEMA, rows)
        self.labels = dict(self._run(wcc.sql(), seed).rows)
        self.mode_history.append("incremental")
        return "incremental"


class SsspView(_WarmStartView):
    """Single-source shortest paths as warm-started min-plus relaxation.

    Distances are kept *raw* (the 1e18 infinity sentinel included) so
    seeds and results stay bit-comparable with the engine; ``values``
    applies the same ``>= INF -> None`` mapping as
    :func:`repro.core.algorithms.bellman_ford.run_sql`.
    """

    algorithm = "sssp"
    cte_name = "D"

    SEED_SCHEMA = Schema.of(("ID", SqlType.INTEGER), ("d", SqlType.DOUBLE))

    def __init__(self, manager: "StreamingManager", name: str, source: int):
        super().__init__(manager, name)
        self.source = source
        self.distances: dict[int, float] = {}
        self._reset: set[int] = set()

    @property
    def values(self) -> dict[int, float | None]:
        return {v: (None if d >= INF else d)
                for v, d in self.distances.items()}

    def full_refresh(self) -> None:
        from repro.core.algorithms import bellman_ford

        self.distances = dict(self._run(
            bellman_ford.sql(self.source)).rows)

    def prepare(self, delta: "GraphDelta") -> None:
        # Forward closure of tight edges from every deleted edge's head:
        # exactly the vertices whose old shortest path may have used a
        # deleted edge.  Everything outside keeps a still-achievable
        # distance and warm-starts from it.
        graph = self.graph  # still pre-mutation
        dist = self.distances
        seeds: set[int] = set()
        for f, t, w in delta.removed_edges:
            if dist.get(t) == dist.get(f, INF) + w:
                seeds.add(t)
        for z in delta.removed_vertices:
            # remove_node drops z's out-edges too; they are already in
            # delta.removed_edges, so z only needs its own removal.
            seeds.discard(z)
        frontier = list(seeds)
        reset = set(seeds)
        while frontier:
            v = frontier.pop()
            base = dist.get(v)
            if base is None:
                continue
            for x, w in graph.out_neighbors(v).items():
                if x not in reset and dist.get(x) == base + w:
                    reset.add(x)
                    frontier.append(x)
        reset.discard(self.source)
        self._reset = reset
        self._plan = ("full" if self._too_large(len(reset))
                      else "incremental")

    def refresh(self, delta: "GraphDelta") -> str:
        from repro.core.algorithms import bellman_ford

        if self._plan == "full":
            self.full_refresh()
            self.mode_history.append("full")
            return "full"
        dist = self.distances
        reset = self._reset
        rows = []
        for v in self.graph.nodes():
            if v == self.source:
                rows.append((v, 0.0))
            elif v in reset or v not in dist:
                rows.append((v, INF))
            else:
                rows.append((v, dist[v]))
        seed = self._seed(self.SEED_SCHEMA, rows)
        self.distances = dict(self._run(
            bellman_ford.sql(self.source), seed).rows)
        self.mode_history.append("incremental")
        return "incremental"


def make_view(manager: "StreamingManager", name: str, algorithm: str,
              **params: Any) -> StreamingView:
    """Factory used by :meth:`StreamingManager.register_view`."""
    kind = algorithm.lower()
    if kind in ("pagerank", "pr"):
        return PageRankView(manager, name, **params)
    if kind == "wcc":
        return WccView(manager, name, **params)
    if kind == "sssp":
        if "source" not in params:
            raise ValueError("sssp view requires a source=<vertex> param")
        return SsspView(manager, name, **params)
    raise ValueError(f"unknown streaming algorithm {algorithm!r}"
                     " (expected pagerank, wcc or sssp)")
