"""The streaming ingest subsystem: batched graph/table mutations with
incrementally-maintained algorithm results.

A :class:`StreamingManager` hangs off an :class:`~repro.relational.engine.Engine`
(``engine.streaming``) and owns:

* **Batched mutations** — :meth:`apply_batch` takes per-table insert and
  delete row lists, applied deletes-first.  With a graph attached
  (:meth:`attach_graph`), mutations to ``E``/``V`` are interpreted as
  graph edits: the :class:`~repro.graphsystems.graph.Graph` object, the
  relational mirrors (``E``, ``V``, ``W``, ``L``) and any derived
  relations present (``ES`` — the symmetrised edges, ``S`` — the
  PageRank transition) are all kept consistent.  Everything else routes
  through the generic table path (keyed deletes when the table has a
  primary key, full-row deletes otherwise).
* **Views** — :meth:`register_view` pins an algorithm result
  (``pagerank`` / ``wcc`` / ``sssp``) that is refreshed after every
  batch: PageRank by an array recompute, WCC and SSSP incrementally
  where their cost rule allows and by bounded full re-derivation
  otherwise (see :mod:`repro.streaming.views`).

All table mutations go through storage paths that build no row tuple:
appends folded into the columnar store's vectors, deletes that keep the
survivors as new vectors, and keyed deletes that (on columnar
storage) find their rows by vector matching on the store's
typed key columns, with no Python pass over the table.  Each mirror or
derived table takes at most one delete and one insert call per batch,
and every mutation bumps table statistics versions, so cached join
indexes, cardinality estimates and plan fingerprints re-derive on the
next query.

Observability: ``repro_ingest_*`` counters and the ``repro_ingest_batch_ms``
histogram are always on; each batch runs under an ``ingest_batch`` span
when tracing is enabled; a failed batch is captured as a flight bundle
when the engine's telemetry has a flight recorder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.core.algorithms import wcc
from repro.core.algorithms.common import load_graph, prepare_transition

from .views import StreamingView, make_view

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphsystems.graph import Graph
    from repro.relational.engine import Engine


class StreamingError(ValueError):
    """A semantically invalid batch (missing edge, duplicate vertex...)."""


def _check_vertex(z) -> None:
    """Views hold ids and labels as typed vectors: ints exact in float64."""
    if type(z) is not int or abs(z) >= 2 ** 53:
        raise StreamingError(
            f"vertex id {z!r} is not an integer below 2**53 in magnitude")


@dataclass
class GraphDelta:
    """The net effect of one batch on the attached graph.

    Edges are stored directed edges: on an undirected graph each edge
    appears in both directions (a self-loop once), as the graph stores
    it.  Weight changes appear as a remove (old weight) plus an insert
    (new weight); a removed vertex contributes all its incident edges to
    ``removed_edges``.  Orders match the application order, so
    ``inserted_vertices`` is exactly the V-table append order.
    """

    inserted_edges: list[tuple[int, int, float]] = field(default_factory=list)
    removed_edges: list[tuple[int, int, float]] = field(default_factory=list)
    inserted_vertices: list[int] = field(default_factory=list)
    removed_vertices: list[int] = field(default_factory=list)
    #: vertex id -> node weight for explicit vertex inserts (implicit
    #: endpoints default to 0.0).
    vertex_weights: dict[int, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return (len(self.inserted_edges) + len(self.removed_edges)
                + len(self.inserted_vertices) + len(self.removed_vertices))


@dataclass
class BatchResult:
    """What one :meth:`StreamingManager.apply_batch` call did."""

    batch: int
    inserted_rows: int
    deleted_rows: int
    #: table name -> {"inserted": n, "deleted": n}
    tables: dict[str, dict[str, int]]
    #: view name -> refresh mode ("incremental" / "full")
    views: dict[str, str]
    duration_ms: float
    delta: GraphDelta | None = None


class StreamingManager:
    """Owns batched mutations and maintained views for one engine."""

    #: Graph-interpreted tables (when a graph is attached) and the
    #: derived relations kept consistent when they exist.
    EDGE_TABLE = "e"
    NODE_TABLE = "v"

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.graph: "Graph | None" = None
        self.views: dict[str, StreamingView] = {}
        self.batches_applied = 0
        #: count of edges with weight != 1.0 — the WCC incremental gate.
        self.nonunit_edges = 0
        #: the views' node order: ids in graph.nodes() order, id -> slot
        self.ids = np.zeros(0, dtype=np.int64)
        self.slot: dict[int, int] = {}

    # -- setup -------------------------------------------------------------------

    def attach_graph(self, graph: "Graph", load: bool = True) -> None:
        """Bind *graph* as the streaming subject.  With *load* (default)
        the paper's relations (E, V, W, L) are (re)created from it; ``S``
        and ``ES``, where present, and every view are derived anew."""
        self._index_nodes(graph)  # refuses before anything changes
        self.graph = graph
        if load:
            load_graph(self.engine, graph)
        self.nonunit_edges = sum(
            1 for _, _, w in graph.weighted_edges() if w != 1.0)
        for name, derive in (("S", prepare_transition),
                             ("ES", wcc.prepare_symmetric_edges)):
            if self.engine.database.exists(name):
                derive(self.engine)
        for view in self.views.values():
            view.full_refresh()

    def _index_nodes(self, graph: "Graph") -> None:
        nodes = list(graph.nodes())
        for z in nodes:
            _check_vertex(z)
        self.ids = np.array(nodes, dtype=np.int64)
        self.slot = dict(zip(nodes, range(len(nodes))))

    def ensure_symmetric_edges(self) -> None:
        """Create ``ES`` (= E ∪ Eᵀ) if absent — the WCC dependency."""
        if not self.engine.database.exists("ES"):
            wcc.prepare_symmetric_edges(self.engine)

    def register_view(self, name: str, algorithm: str,
                      **params: Any) -> StreamingView:
        """Register a maintained algorithm result; computes its baseline
        immediately (a full derivation on the current graph)."""
        if self.graph is None:
            raise StreamingError(
                "attach_graph(...) before registering streaming views")
        if name in self.views:
            raise StreamingError(f"view {name!r} already registered")
        view = make_view(self, name, algorithm, **params)
        view.full_refresh()
        self.views[name] = view
        self._metrics().counter(
            "repro_ingest_views_total",
            "Streaming views registered.", algorithm=view.algorithm).inc()
        return view

    # -- the batch entry point ---------------------------------------------------

    def apply_batch(self, inserts: dict | None = None,
                    deletes: dict | None = None) -> BatchResult:
        inserts = self._normalize(inserts)
        deletes = self._normalize(deletes)
        batch = self.batches_applied + 1
        telemetry = self.engine.telemetry
        metrics = telemetry.metrics
        started = time.perf_counter()
        try:
            with telemetry.tracer.span(
                    "ingest_batch", batch=batch,
                    insert_tables=sorted(inserts),
                    delete_tables=sorted(deletes)) as span:
                result = self._apply(batch, inserts, deletes, span)
        except Exception as error:
            elapsed_ms = (time.perf_counter() - started) * 1000
            metrics.counter("repro_ingest_failures_total",
                            "Batches that raised.",
                            error=type(error).__name__).inc()
            self._record_flight(error, batch, inserts, deletes, elapsed_ms)
            raise
        result.duration_ms = (time.perf_counter() - started) * 1000
        self.batches_applied = batch
        metrics.counter("repro_ingest_batches_total",
                        "Mutation batches applied.").inc()
        metrics.counter("repro_ingest_rows_total",
                        "Rows ingested.", op="insert").inc(result.inserted_rows)
        metrics.counter("repro_ingest_rows_total",
                        "Rows ingested.", op="delete").inc(result.deleted_rows)
        metrics.histogram("repro_ingest_batch_ms",
                          "apply_batch wall time.").observe(result.duration_ms)
        for view_name, mode in result.views.items():
            metrics.counter("repro_ingest_view_refresh_total",
                            "View refreshes by mode.",
                            view=view_name, mode=mode).inc()
        return result

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _normalize(section: dict | None) -> dict[str, list[tuple]]:
        out: dict[str, list[tuple]] = {}
        for name, rows in (section or {}).items():
            out[name] = [tuple(row) if isinstance(row, (tuple, list))
                         else (row,) for row in rows]
        return out

    def _metrics(self):
        return self.engine.telemetry.metrics

    def _apply(self, batch: int, inserts: dict, deletes: dict,
               span: Any) -> BatchResult:
        graph_names = ({self.EDGE_TABLE, self.NODE_TABLE}
                       if self.graph is not None else set())
        tables: dict[str, dict[str, int]] = {}
        inserted_rows = deleted_rows = 0
        delta: GraphDelta | None = None
        view_modes: dict[str, str] = {}

        if self.graph is not None and (
                any(k.lower() in graph_names for k in inserts)
                or any(k.lower() in graph_names for k in deletes)):
            delta = self._build_delta(
                inserts.get("E", inserts.get("e", [])),
                inserts.get("V", inserts.get("v", [])),
                deletes.get("E", deletes.get("e", [])),
                deletes.get("V", deletes.get("v", [])))
            for view in self.views.values():
                view.prepare(delta)
            self._apply_graph_delta(delta, tables)
            inserted_rows += sum(t["inserted"] for t in tables.values())
            deleted_rows += sum(t["deleted"] for t in tables.values())
            for name, view in self.views.items():
                view_modes[name] = view.refresh(delta)

        # Generic tables: deletes before inserts, here too.
        for name, rows in deletes.items():
            if name.lower() in graph_names:
                continue
            count = self._generic_delete(name, rows)
            tables.setdefault(name, {"inserted": 0, "deleted": 0})
            tables[name]["deleted"] += count
            deleted_rows += count
        for name, rows in inserts.items():
            if name.lower() in graph_names:
                continue
            count = self.engine.database.table(name).insert_many(rows)
            tables.setdefault(name, {"inserted": 0, "deleted": 0})
            tables[name]["inserted"] += count
            inserted_rows += count

        if span is not None:
            span.attrs.update(inserted=inserted_rows, deleted=deleted_rows,
                              views=view_modes)
        return BatchResult(batch=batch, inserted_rows=inserted_rows,
                           deleted_rows=deleted_rows, tables=tables,
                           views=view_modes, duration_ms=0.0, delta=delta)

    def _generic_delete(self, name: str, rows: list[tuple]) -> int:
        table = self.engine.database.table(name)
        if not rows:
            return 0
        key = table.schema.primary_key
        if key and len(rows[0]) == len(key):
            return table.delete_by_key(rows, key)
        # Keyless (or full-row) deletes match on a leading-column prefix;
        # every copy of a matched row is removed.
        width = len(rows[0])
        return table.delete_by_key(rows, tuple(table.schema.names[:width]))

    # -- graph-mode mutation -----------------------------------------------------

    def _build_delta(self, e_ins: list[tuple], v_ins: list[tuple],
                     e_del: list[tuple], v_del: list[tuple]) -> GraphDelta:
        """Simulate the batch against the pre-mutation graph, producing
        the net :class:`GraphDelta` (deletes first, then vertex inserts,
        then edge inserts) — the one canonical edge delta that the graph,
        ``E``, ``S``, ``ES`` and every view are patched from.  Its edges
        are the directed edges as the :class:`Graph` stores them: on an
        undirected graph an edge named either way stands for both
        directions (one for a self-loop), and naming both directions of
        one edge deletes or inserts it once."""
        graph = self.graph
        assert graph is not None
        delta = GraphDelta()
        removed_pairs: set[tuple[int, int]] = set()
        named: set[tuple[int, int]] = set()
        removed_vs: set[int] = set()
        added_vs: set[int] = set()
        inserted: dict[tuple[int, int], float] = {}

        def stored(u: int, v: int) -> tuple:
            """The directed edges the graph stores for edge u-v."""
            return ((u, v),) if graph.directed or u == v else ((u, v), (v, u))

        def present(u: int, v: int) -> bool:
            if (u, v) in inserted:
                return True
            if (u, v) in removed_pairs or u in removed_vs or v in removed_vs:
                return False
            return graph.has_edge(u, v)

        def node_present(z: int) -> bool:
            return z in added_vs or (graph.has_node(z)
                                     and z not in removed_vs)

        for row in e_del:
            u, v = row[0], row[1]
            if not graph.has_edge(u, v) or (u, v) in named:
                raise StreamingError(f"cannot delete missing edge {u}->{v}")
            named.add((u, v))
            if (u, v) in removed_pairs:
                continue  # the other direction of an edge named already
            for a, b in stored(u, v):
                delta.removed_edges.append((a, b, graph.out_neighbors(a)[b]))
                removed_pairs.add((a, b))
        for row in v_del:
            z = row[0]
            if not graph.has_node(z) or z in removed_vs:
                raise StreamingError(f"cannot delete missing vertex {z}")
            for x, w in graph.out_neighbors(z).items():
                if (z, x) not in removed_pairs:
                    delta.removed_edges.append((z, x, w))
                    removed_pairs.add((z, x))
            for x, w in graph.in_neighbors(z).items():
                if (x, z) not in removed_pairs:
                    delta.removed_edges.append((x, z, w))
                    removed_pairs.add((x, z))
            removed_vs.add(z)
            delta.removed_vertices.append(z)

        def add_vertex(z: int, weight: float) -> None:
            _check_vertex(z)
            added_vs.add(z)
            delta.inserted_vertices.append(z)
            delta.vertex_weights[z] = weight

        for row in v_ins:
            z = row[0]
            weight = float(row[1]) if len(row) > 1 else 0.0
            if node_present(z):
                raise StreamingError(
                    f"vertex {z} already exists (vertex rows are"
                    " immutable; delete it first to change its weight)")
            add_vertex(z, weight)
        for row in e_ins:
            u, v = row[0], row[1]
            weight = float(row[2]) if len(row) > 2 else 1.0
            if present(u, v):
                old = inserted.get((u, v))
                if old is None:
                    old = graph.out_neighbors(u)[v]
                if old == weight:
                    continue  # exact duplicate: a no-op
                if (u, v) in inserted:
                    for pair in stored(u, v):
                        inserted[pair] = weight  # last write wins
                    continue
                # weight change = remove old + insert new
                for pair in stored(u, v):
                    delta.removed_edges.append((*pair, old))
                    removed_pairs.add(pair)
            for z in (u, v):
                if not node_present(z):
                    add_vertex(z, 0.0)
            for pair in stored(u, v):
                inserted[pair] = weight
        delta.inserted_edges = [(u, v, w) for (u, v), w in inserted.items()]
        return delta

    def _apply_graph_delta(self, delta: GraphDelta,
                           tables: dict[str, dict[str, int]]) -> None:
        graph = self.graph
        assert graph is not None
        database = self.engine.database

        # 1. the graph object itself: one call per undirected edge, whose
        # two directions the delta carries
        for u, v, _ in delta.removed_edges:
            if graph.directed or u <= v:
                graph.remove_edge(u, v)
        for z in delta.removed_vertices:
            graph.remove_node(z)
        for z in delta.inserted_vertices:
            graph.add_node(z, weight=delta.vertex_weights.get(z, 0.0))
        for u, v, w in delta.inserted_edges:
            if graph.directed or u <= v:
                graph.add_edge(u, v, w)
        if delta.removed_vertices:
            self._index_nodes(graph)
        elif delta.inserted_vertices:  # appended, in this order
            self.slot.update((v, i) for i, v in enumerate(
                delta.inserted_vertices, len(self.slot)))
            self.ids = np.append(self.ids, delta.inserted_vertices)
        self.nonunit_edges += sum(
            1 for _, _, w in delta.inserted_edges if w != 1.0)
        self.nonunit_edges -= sum(
            1 for _, _, w in delta.removed_edges if w != 1.0)

        # 2. the relational mirrors
        def track(name: str, inserted: int, deleted: int) -> None:
            entry = tables.setdefault(name, {"inserted": 0, "deleted": 0})
            entry["inserted"] += inserted
            entry["deleted"] += deleted

        if database.exists("E"):
            table = database.table("E")
            deleted = table.delete_by_key(
                [(u, v) for u, v, _ in delta.removed_edges], ("F", "T"))
            inserted = table.insert_many(delta.inserted_edges)
            track(table.name, inserted, deleted)
        if database.exists("V"):
            table = database.table("V")
            deleted = table.delete_by_key(
                [(z,) for z in delta.removed_vertices], ("ID",))
            inserted = table.insert_many(
                [(z, delta.vertex_weights.get(z, 0.0))
                 for z in delta.inserted_vertices])
            track(table.name, inserted, deleted)
        for aux, value in (("W", lambda z: delta.vertex_weights.get(z, 0.0)),
                           ("L", lambda z: 0.0)):
            if not database.exists(aux):
                continue
            table = database.table(aux)
            deleted = table.delete_by_key(
                [(z,) for z in delta.removed_vertices], ("ID",))
            inserted = table.insert_many(
                [(z, value(z)) for z in delta.inserted_vertices])
            track(table.name, inserted, deleted)
        self._sync_transition(delta, track)
        self._sync_symmetric(delta, track)

    def _sync_transition(self, delta: GraphDelta, track) -> None:
        """Rebuild the ``S`` rows of every source whose out-edges changed
        (``ew`` is 1/out-degree, so *all* the source's rows reweight)."""
        database = self.engine.database
        if not database.exists("S"):
            return
        graph = self.graph
        table = database.table("S")
        touched = {u for u, _, _ in delta.removed_edges}
        touched |= {u for u, _, _ in delta.inserted_edges}
        deleted = table.delete_by_key([(u,) for u in touched], ("F",))
        fresh = []
        for u in touched:
            if not graph.has_node(u):
                continue
            degree = graph.out_degree(u)
            if degree:
                fresh.extend((u, v, 1.0 / degree)
                             for v in graph.out_neighbors(u))
        inserted = table.insert_many(fresh)
        track(table.name, inserted, deleted)

    def _sync_symmetric(self, delta: GraphDelta, track) -> None:
        """Keep ``ES`` = E ∪ Eᵀ under set semantics: a row (a, b, w) is
        present iff it is derivable from some surviving edge.

        One key lookup tells which candidates ``ES`` holds
        (``Table.positions_of``), one pass over the sorted candidates sorts
        them into rows to drop and rows to add, then one keyed delete and
        one bulk insert patch the table.  Every dropped row predates the
        batch, so this leaves the contents and row order a per-row
        delete/insert walk would."""
        database = self.engine.database
        if not database.exists("ES"):
            return
        graph = self.graph
        table = database.table("ES")
        candidates: set[tuple[int, int, float]] = set()
        for u, v, w in delta.removed_edges:
            candidates.add((u, v, w))
            candidates.add((v, u, w))
        for u, v, w in delta.inserted_edges:
            candidates.add((u, v, w))
            candidates.add((v, u, w))

        def derivable(row: tuple[int, int, float]) -> bool:
            a, b, w = row
            return (graph.out_neighbors(a).get(b) == w
                    or graph.out_neighbors(b).get(a) == w)

        ordered = sorted(candidates)
        held = set(table.rows.gather(table.positions_of(
            ordered, range(table.schema.arity))))
        doomed: list[tuple[int, int, float]] = []
        fresh: list[tuple[int, int, float]] = []
        for row in ordered:
            if derivable(row):
                if row not in held:
                    fresh.append(row)
            elif row in held:
                doomed.append(row)
        deleted = table.delete_by_key(doomed, tuple(table.schema.names))
        inserted = table.insert_many(fresh)
        track(table.name, inserted, deleted)

    # -- failure capture ---------------------------------------------------------

    def _record_flight(self, error: Exception, batch: int, inserts: dict,
                       deletes: dict, elapsed_ms: float) -> None:
        flight = self.engine.telemetry.flight
        if flight is None:
            return
        from .batches import dump_batch

        try:
            flight.record(
                self.engine, reason="ingest", kind="ingest",
                sql=f"apply_batch#{batch}: {dump_batch(inserts, deletes)}",
                total_ms=elapsed_ms, phases={}, error=error)
        except Exception:  # diagnostics must never mask the real failure
            pass
