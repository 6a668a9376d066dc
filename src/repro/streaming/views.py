"""Maintained algorithm results ("views") over a streaming graph.

Each view pins one registered algorithm result (PageRank, WCC or SSSP)
to the manager's live graph and refreshes it after every
:meth:`~repro.streaming.StreamingManager.apply_batch` — bit-identically
to a from-scratch run on the mutated graph.  Its state is typed vectors
aligned to the manager's node order (``manager.ids`` in
``graph.nodes()`` order, ``manager.slot`` id -> slot); the ``values``
dict is built when read:

* **PageRank** keeps the edge list a cold ``S`` scans: per-slot
  out-degrees and the target slot of every edge.  A batch rebuilds the
  segments of touched sources only (all after a vertex removal), then
  reruns the fixed iterations from zero; patching the values loses, as
  on a preferential-attachment graph the dirty frontier reaches most
  vertices within a few iterations.
* **WCC** is a monotone min-label flood: unaffected components keep
  their prior labels as the warm-start seed, every vertex of a
  deletion-affected component is reset to its own ID, and the engine
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

from repro.core.algorithms import bellman_ford, wcc
from repro.relational.physical.blocks import (ArrayColumns, ArrayVector,
                                              RowsColumns, _concat_arrays)
from repro.relational.recursive import WarmStart
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
        #: the node order the view's vectors are aligned to
        self._ids = manager.ids

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

    def _too_large(self, affected: int) -> bool:
        n = self.graph.num_nodes
        return affected > max(8, int(n * FULL_RERUN_FRACTION))


class PageRankView(StreamingView):
    """Fixed-iteration PageRank, recomputed after every batch.

    The engine's UBU semantics are reproduced exactly: per iteration,
    partial sums accumulate over the transition relation ``S`` in scan
    order (``sum(W[F] * (1/out_degree(F)))`` per target), the damped sum
    plus the teleport term replaces the value of every node that
    *appears as a target*, and non-appearing nodes keep their previous
    value.  A cold ``S`` scans in ``graph.weighted_edges()`` order, the
    order of :attr:`dst`, so the view never needs the relational engine
    — which also sidesteps the mutated edge table's append-reordered
    rows.  An iteration is one ``bincount`` over the edge vectors, which
    adds the weights into each target in edge order, as the engine's
    per-target sums do, so the two agree to the bit.  Every refresh
    reports mode ``"full"``.
    """

    algorithm = "pagerank"

    def __init__(self, manager: "StreamingManager", name: str,
                 damping: float = 0.85, iterations: int = 15):
        super().__init__(manager, name)
        self.damping = damping
        self.iterations = iterations
        #: out-degree per node slot, and the target slot of every edge in
        #: ``graph.weighted_edges()`` order — one segment per source
        self.degree = np.zeros(0, dtype=np.int64)
        self.dst = np.zeros(0, dtype=np.intp)

    @property
    def values(self) -> dict[int, float]:
        return dict(zip(self._ids.tolist(), self._current.tolist()))

    def refresh(self, delta: "GraphDelta") -> str:
        if delta.removed_vertices:
            self.full_refresh()
        else:
            changed = delta.removed_edges + delta.inserted_edges
            sources = {u for u, _, _ in changed}
            if not self.graph.directed:  # an edge lists both endpoints
                sources.update(v for _, v, _ in changed)
            self._patch(sources)
        self.mode_history.append("full")
        return "full"

    def full_refresh(self) -> None:
        graph, slot = self.graph, self.manager.slot
        adjacency = list(map(graph.out_neighbors, graph.nodes()))
        self.degree = np.array(list(map(len, adjacency)), dtype=np.int64)
        self.dst = np.fromiter(
            (slot[t] for targets in adjacency for t in targets),
            dtype=np.intp, count=int(self.degree.sum()))
        self._iterate()

    def _patch(self, sources: set[int]) -> None:
        """Rebuild the edge segments of *sources* from the graph (vertices
        appended since the last refresh own empty ones at the end)."""
        graph, slot = self.graph, self.manager.slot
        degree = np.zeros(len(slot), dtype=np.int64)
        degree[:len(self.degree)] = self.degree
        bounds = np.concatenate(([0], np.cumsum(degree)))
        pieces, done = [], 0
        for u in sorted(sources, key=slot.__getitem__):
            s, targets = slot[u], graph.out_neighbors(u)
            pieces.append(self.dst[done:bounds[s]])
            pieces.append(np.fromiter(map(slot.__getitem__, targets),
                                      dtype=np.intp, count=len(targets)))
            done, degree[s] = bounds[s + 1], len(targets)
        pieces.append(self.dst[done:])
        self.degree, self.dst = degree, np.concatenate(pieces)
        self._iterate()

    def _iterate(self) -> None:
        n, dst = len(self.degree), self.dst
        src = np.repeat(np.arange(n), self.degree)
        inv_degree = 1.0 / self.degree[src]
        targets = np.bincount(dst, minlength=n) > 0
        teleport = (1.0 - self.damping) / n if n else 0.0
        current = np.zeros(n)
        for _ in range(self.iterations):
            sums = np.bincount(dst, weights=current[src] * inv_degree,
                               minlength=n)
            current = np.where(targets, self.damping * sums + teleport,
                               current)
        self._ids, self._current = self.manager.ids, current


class _WarmStartView(StreamingView):
    """Shared machinery for the SQL-backed monotone views (WCC, SSSP):
    the result as one typed vector in node order, a seed carried over
    from it with vector masks, and the recursive query resumed from the
    seed via ``Engine.execute_detailed(..., warm_start=...)``, round 1
    stepping over the keys the batch touched (:meth:`_frontier`)."""

    cte_name = "?"
    #: whether the statement joins an edge table holding every edge in
    #: both directions (WCC's ``ES``) rather than ``E``
    symmetric = False

    @property
    def values(self) -> dict:
        return dict(zip(self._ids.tolist(), self._result.tolist()))

    def full_refresh(self) -> None:
        self._run(self._sql())

    def refresh(self, delta: "GraphDelta") -> str:
        seed = self._next_seed(delta) if self._plan == "incremental" else None
        if seed is None:
            self.full_refresh()
        else:
            self._run(self._sql(), seed, self._frontier(seed, delta))
        mode = "full" if seed is None else "incremental"
        self.mode_history.append(mode)
        return mode

    def _run(self, sql: str, seed: ArrayVector | None = None,
             frontier: np.ndarray | None = None) -> None:
        """Run *sql*, resumed from *seed* (values in node order) and its
        *frontier*; keep its result in node order, through the slot map
        if it is not."""
        manager = self.manager
        warm = None if seed is None else {self.cte_name: WarmStart(
            Relation.from_batch(self.SEED_SCHEMA, ArrayColumns(
                [ArrayVector(manager.ids), seed])), frontier)}
        relation = manager.engine.execute_detailed(
            sql, warm_start=warm).relation
        batch = relation.batch or RowsColumns(relation.rows, 2)
        ids, values = batch.array(0), batch.array(1)
        if ids is None:  # an empty column has no exact vector
            ids, values = ArrayVector(manager.ids), ArrayVector(np.zeros(0))
        elif not np.array_equal(ids.data, manager.ids):
            slots = list(map(manager.slot.__getitem__, ids.data.tolist()))
            values = values.take(np.argsort(slots))
        self._ids, self._result = manager.ids, values

    def _frontier(self, seed: ArrayVector, delta: "GraphDelta"
                  ) -> np.ndarray | None:
        """The keys whose seed rows may derive a better candidate than
        the seed holds, after the mutation: the vertices whose seed
        differs in any bit from the last result (the resets) or that are
        new, their in-neighbours in the joined edge table, and the
        sources of the inserted edges (an undirected graph's delta lists
        both directions).  Every other row keeps its last value and old
        out-edges, into targets that kept theirs: it derives nothing new.
        None — round 1 runs the plan — when vertices were removed (the
        slots moved) or the seed's type is not the result's."""
        old, new = self._result.data, seed.data
        if delta.removed_vertices or old.dtype != new.dtype \
                or old.dtype not in (np.int64, np.float64):
            return None
        differs = old.view(np.int64) != new[:len(old)].view(np.int64)
        moved = self.manager.ids[np.concatenate((
            np.flatnonzero(differs), np.arange(len(old), len(new))))].tolist()
        graph, keys = self.graph, set(moved)
        for v in moved:
            keys.update(graph.in_neighbors(v))
            if self.symmetric:
                keys.update(graph.out_neighbors(v))
        for u, v, _ in delta.inserted_edges:
            keys.add(u)
            if self.symmetric:
                keys.add(v)
        return np.fromiter(keys, dtype=np.int64, count=len(keys))

    def _seed(self, fill: np.ndarray, reset: np.ndarray) -> ArrayVector:
        """The last result carried over to the current node order, with
        *fill* (values in node order) at every vertex it has no value
        for or *reset* (a mask over the last result) marks."""
        old, m = self._ids, len(self._ids)
        ids, slot = self.manager.ids, self.manager.slot
        positions = m + np.arange(len(ids))
        if np.array_equal(ids[:m], old):  # vertices appended, if any
            kept = np.flatnonzero(~reset)
            positions[kept] = kept
        else:  # vertices removed: the slots moved
            slots = np.array([slot.get(v, -1) for v in old.tolist()], np.intp)
            kept = np.flatnonzero(~reset & (slots >= 0))
            positions[slots[kept]] = kept
        return _concat_arrays(self._result, ArrayVector(fill)).take(positions)


class WccView(_WarmStartView):
    """Weakly connected components as a warm-started min-label flood.

    Labels are *integers* (the ``ID as vw`` initialisation's type
    survives the min) under unit weights; a full run under non-unit ones
    may mix in floats, which the label vector flags (``ints``).
    """

    algorithm = "wcc"
    cte_name = "C"
    symmetric = True

    SEED_SCHEMA = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.INTEGER))

    def _sql(self) -> str:
        return wcc.sql()

    def full_refresh(self) -> None:
        self.manager.ensure_symmetric_edges()
        super().full_refresh()

    def prepare(self, delta: "GraphDelta") -> None:
        slot = self.manager.slot
        touched = [slot[z] for u, v, _ in delta.removed_edges
                   for z in (u, v)]
        touched += map(slot.__getitem__, delta.removed_vertices)
        self._affected = np.unique(self._result.data[touched])
        # Unit weights are the label-propagation gate: with ew != 1 the
        # min-times products are not component labels any more.
        self._plan = "full" if self.manager.nonunit_edges or any(
            w != 1.0 for _, _, w in delta.inserted_edges) else "incremental"

    def _next_seed(self, delta: "GraphDelta") -> ArrayVector | None:
        reset = np.isin(self._result.data, self._affected) \
            if len(self._affected) else np.zeros(len(self._ids), dtype=bool)
        if self.manager.nonunit_edges or self._too_large(
                int(reset.sum()) + len(set(delta.inserted_vertices))):
            return None
        # own-ID, exactly the cold init, for reset and new vertices
        return self._seed(self.manager.ids, reset)


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

    @property
    def values(self) -> dict[int, float | None]:
        return {v: (None if d >= INF else d)
                for v, d in super().values.items()}

    def _sql(self) -> str:
        return bellman_ford.sql(self.source)

    def prepare(self, delta: "GraphDelta") -> None:
        # Forward closure of tight edges from every deleted edge's head:
        # exactly the vertices whose old shortest path may have used a
        # deleted edge.  Everything outside keeps a still-achievable
        # distance and warm-starts from it.
        graph, slot = self.graph, self.manager.slot  # still pre-mutation
        dist = self._result.data
        seeds = {t for f, t, w in delta.removed_edges
                 if dist[slot[t]] == dist[slot[f]] + w}
        # remove_node drops z's out-edges too; they are already in
        # delta.removed_edges, so z only needs its own removal.
        seeds.difference_update(delta.removed_vertices)
        frontier = list(seeds)
        reset = set(seeds)
        while frontier:
            v = frontier.pop()
            base = dist[slot[v]]
            for x, w in graph.out_neighbors(v).items():
                if x not in reset and dist[slot[x]] == base + w:
                    reset.add(x)
                    frontier.append(x)
        reset.discard(self.source)
        self._plan = ("full" if self._too_large(len(reset))
                      else "incremental")
        # Removed (maybe re-added) vertices start over; the source takes 0.0.
        reset.update(delta.removed_vertices, [self.source])
        self._reset = np.zeros(len(dist), dtype=bool)
        self._reset[[slot[v] for v in reset if v in slot]] = True

    def _next_seed(self, delta: "GraphDelta") -> ArrayVector:
        fill = np.full(len(self.manager.ids), INF)
        if self.source in self.manager.slot:
            fill[self.manager.slot[self.source]] = 0.0
        return self._seed(fill, self._reset)


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
