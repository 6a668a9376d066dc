"""Columnar batch kernels for the hottest physical operators.

These are drop-in twins of the tuple-at-a-time operators in
:mod:`.joins` and :mod:`.aggregate`: same constructor signatures, same
``label`` strings (so ``EXPLAIN`` output stays comparable across the
two engine profiles), and bit-identical results.  What changes is the
execution style — instead of pulling one row at a time through nested
generators, each kernel materialises its inputs in chunks, extracts
join/grouping keys with precompiled ``operator.itemgetter`` calls over
whole row batches, and builds output rows with list comprehensions.
That moves the per-row interpreter overhead (generator resumption,
recursive expression evaluation, per-row arity checks) out of the hot
loop and into a handful of C-level bulk operations.

The cost-based planner of ``Engine()`` builds these classes; the
dialect planners of ``REFERENCE_PROFILE`` build the iterator-model
operators.  Only the hash family has batch twins —
``MergeJoin``/``SortAggregate``/``NotInAntiJoin`` are dialect cost models
in their own right and stay tuple-at-a-time.  Where the typed-array
kernels decline (TEXT, NULL, NaN or sparse keys, row storage), the list
kernels and row loops here answer.
"""

from __future__ import annotations

import time
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterator

import numpy as _np

from ..errors import ExecutionError
from ..expressions import BoundColumn, bind, single_column_getter
from ..relation import Relation, Row, require_numeric
from ..schema import Schema
from . import analyze
from .aggregate import _AggregateBase
from .base import PhysicalOperator
from .blocks import (
    ArrayColumns,
    ArrayVector,
    ColumnBatch,
    ConcatColumns,
    DerivedColumns,
    FilteredColumns,
    JoinColumns,
    RowsColumns,
    StoreColumns,
    SubsetColumns,
    _concat_arrays,
    _is_int64,
    GROUPED_FUNCTIONS,
    VALUE_ERRORS,
    GroupPlan,
    ProbePlan,
    array_grouped,
    compile_array,
    compile_mask,
    compile_vector,
    csr_index,
    distinct_rows,
    group_plan,
    pack_keys,
    position_index,
    probe_plan,
    single_group,
    sorted_index,
    unpack_keys,
)
from .filter import Filter
from .joins import _BinaryJoin, stable_input_fingerprint
from .project import Project
from .prune import ColumnPrune
from .rename import Requalify
from .scan import BindingScan, RelationScan, TableScan
from .setops import UnionAllOp, UnionDistinctOp

#: Rows pulled from a child iterator per batch.  Bounds peak memory for
#: the probe side of joins while keeping per-chunk Python overhead low.
CHUNK_SIZE = 4096


def _materialize(node: PhysicalOperator) -> list[Row]:
    """Pull every row of *node* into a list (one bulk drain)."""
    rows = node.rows()
    if isinstance(rows, list):
        return rows
    return list(rows)


def _chunks(node: PhysicalOperator) -> Iterator[list[Row]]:
    """Drain *node* in lists of at most :data:`CHUNK_SIZE` rows."""
    rows = node.rows()
    if isinstance(rows, list):
        if len(rows) <= CHUNK_SIZE:
            if rows:
                yield rows
            return
        for start in range(0, len(rows), CHUNK_SIZE):
            yield rows[start:start + CHUNK_SIZE]
        return
    while True:
        chunk = []
        append = chunk.append
        for row in rows:
            append(row)
            if len(chunk) >= CHUNK_SIZE:
                break
        if not chunk:
            return
        yield chunk
        if len(chunk) < CHUNK_SIZE:
            return


class _BatchBinaryJoin(_BinaryJoin):
    """Batch twin machinery: scalar key getters + trusted materialise."""

    def __init__(self, left, right, left_keys, right_keys):
        super().__init__(left, right, left_keys, right_keys)
        # Raw (untupled) getters for single-column keys; None for
        # composite keys, where the tuple-returning itemgetter from
        # _BinaryJoin is already a single C call.
        self._left_scalar = _scalar_key(left_keys, left.schema)
        self._right_scalar = _scalar_key(right_keys, right.schema)
        # Key column positions (all-plain-column keys only): what the
        # columnar store's cached hash indexes are keyed by.
        self._left_positions = _bound_positions(left_keys, left.schema)
        self._right_positions = _bound_positions(right_keys, right.schema)

    def execute(self) -> Relation:
        return Relation.from_trusted_rows(self.schema, self._compute())

    def rows(self) -> Iterator[Row]:
        return iter(self._compute())

    def _compute(self) -> list[Row]:
        raise NotImplementedError


def _scalar_key(keys, schema):
    return single_column_getter([bind(k, schema) for k in keys])


def _build_index_scalar(rows: list[Row], getter) -> dict[Any, list[Row]]:
    """key -> bucket over *rows*, skipping NULL keys (they match nothing)."""
    index: dict[Any, list[Row]] = {}
    for key, row in zip(map(getter, rows), rows):
        if key is None:
            continue
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
    return index


def _build_index_tuple(rows: list[Row], key_fn) -> dict[tuple, list[Row]]:
    index: dict[tuple, list[Row]] = {}
    for key, row in zip(map(key_fn, rows), rows):
        if None in key:
            continue
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
    return index


def _key_set(rows: list[Row], scalar, key_fn) -> set:
    """Non-NULL key set for semi/anti joins (build side)."""
    if scalar is not None:
        return {key for key in map(scalar, rows) if key is not None}
    return {key for key in map(key_fn, rows) if None not in key}


# -- block pipeline dispatch -------------------------------------------------
#
# When a plan subtree is anchored at a columnar table scan, the batch
# kernels switch from row tuples to the column batches of
# :mod:`.blocks`.  Dispatch is conservative two ways: (1) a subtree
# without a columnar anchor takes exactly the pre-existing row path, so
# row-storage engines are untouched; (2) the block computation is
# speculative — a kernel that cannot prove its result declines with
# None, and where values SQL rejects make a list kernel raise, the
# caller replays the operator through the row path, which reproduces the
# row engine's exact error.  A recording (EXPLAIN ANALYZE, tracing,
# profiling) runs the same pipeline (see :func:`_batch_source`).


def _columnar_store(node: PhysicalOperator):
    """The node's ColumnStore when it is a columnar table scan, bare or
    under a :class:`ColumnPrune` (same rows, fewer columns)."""
    if isinstance(node, ColumnPrune):
        node = node.child
    if isinstance(node, TableScan):
        store = node.table.rows
        if getattr(store, "storage", "rows") == "columnar":
            return store
    return None


def _store_positions(node: PhysicalOperator,
                     positions: tuple[int, ...]) -> tuple[int, ...]:
    """*positions* of *node*'s output as columns of its store."""
    if isinstance(node, ColumnPrune):
        return tuple(node.positions[p] for p in positions)
    return positions


def _tree_facts(node: PhysicalOperator) -> tuple:
    """``(anchored, binding scans)`` of *node*'s tree: whether a leaf is
    a columnar table scan or a scan of a relation backed by a column
    batch (the typed output of an earlier block pipeline, which only
    columnar storage produces), and the loop-slot scans whose binding
    decides that per execution.  Walked once per plan."""
    facts = node.__dict__.get("_tree_facts")
    if facts is not None:
        return facts
    anchored = _columnar_store(node) is not None or (
        isinstance(node, RelationScan) and node.relation.batch is not None)
    scans = (node,) if isinstance(node, BindingScan) else ()
    children = node.children()
    if not anchored:
        for child in children:
            child_anchored, child_scans = _tree_facts(child)
            anchored = anchored or child_anchored
            scans += child_scans
    facts = (anchored, () if anchored else scans)
    if children:  # a leaf is cheap, and a scan's facts would name itself
        node._tree_facts = facts
    return facts


def _block_eligible(node: PhysicalOperator) -> bool:
    anchored, scans = _tree_facts(node)
    if anchored:
        return True
    for scan in scans:
        # Peek without raising: an unbound slot fails on the row path.
        relation = scan.slots.get(scan.name)
        if relation is not None and relation.batch is not None:
            return True
    return False


def _bound_positions(keys, schema) -> tuple[int, ...] | None:
    """Column positions when every key is a plain column reference."""
    bound = [bind(k, schema) for k in keys]
    if bound and all(isinstance(b, BoundColumn) for b in bound):
        return tuple(b.index for b in bound)
    return None


def _batch_source(node: PhysicalOperator) -> ColumnBatch | None:
    """Resolve *node* into a column batch, or None to use the row path.
    A watched *node* is credited here with the rows it hands on; a
    declined resolution rolls back its subtree's credits."""
    sink = analyze.SINK.get()
    stats = None if sink is None else sink.get(node)
    if stats is None:
        return _resolve(node)
    mark, started = analyze.mark(), time.perf_counter()
    source = _resolve(node)
    if source is None:
        sink.rollback(mark)
    else:
        sink.credit(stats, source.length, time.perf_counter() - started)
    return source


def _resolve(node: PhysicalOperator) -> ColumnBatch | None:
    if isinstance(node, TableScan):
        store = _columnar_store(node)
        return StoreColumns(store) if store is not None else None
    if isinstance(node, (RelationScan, BindingScan)):
        # A relation a plan root handed over as a batch scans as that
        # batch: the recursive relation re-enters the pipeline as the
        # typed vectors it left it as.
        relation = node.relation
        if relation.batch is not None:
            return relation.batch
        return RowsColumns(relation.rows, node.schema.arity)
    if isinstance(node, Requalify):
        # Pure rename (ρ): rows pass through untouched.
        return _batch_source(node.child)
    if isinstance(node, ColumnPrune):
        child = _batch_source(node.child)
        if child is None:
            return None
        return SubsetColumns(child, node.positions, node._builder)
    if isinstance(node, BatchProject):
        if node.block_columns is None:
            return None
        child = _batch_source(node.child)
        if child is None:
            return None
        return DerivedColumns(child, *node.block_columns)
    if isinstance(node, BatchFilter):
        if node.block_mask is None and node.block_predicate is None:
            return None
        child = _batch_source(node.child)
        if child is None:
            return None
        selection = node.select(child)
        if selection is None:
            return None
        return FilteredColumns(child, selection)
    if isinstance(node, BatchUnionAll):
        left = _batch_source(node.left)
        if left is None:
            return None
        right = _batch_source(node.right)
        if right is None:
            return None
        return ConcatColumns(left, right,
                             node.concat_memo if node.key_plans else None)
    if isinstance(node, BatchUnion):
        return node.distinct()
    if type(node) is BatchHashJoin:
        return node._block_source()
    if type(node) is BatchHashAggregate:
        # Through rows(), the operator's own boundary: whoever watches it
        # (span tracing) sees the aggregate's work where it happens.
        return node.rows(batch=True)
    return None


def _reads_slot(node: PhysicalOperator, name: str) -> bool:
    if isinstance(node, BindingScan):
        return node.name == name
    return any(_reads_slot(child, name) for child in node.children())


def rebound_source(node: PhysicalOperator, name: str, batch: ColumnBatch,
                   rows) -> ColumnBatch | None:
    """*node*'s block output with its one scan of the loop slot *name*
    reading only *batch*'s rows at the positions *rows* — a
    union-by-update step's changed rows of R — or None where a node on
    the way has no such form.  Projections and filters evaluate their
    compiled block forms over the rebound child, and an inner join probes
    the CSR index of its other side, a columnar table scan, with the
    rebound side's keys; the pairs come probe-major, which a
    ``min``/``max`` over them does not see.  Nothing is recorded: the
    step runs beside the plan, not through it."""
    if isinstance(node, BindingScan):
        return FilteredColumns(batch, rows) if node.name == name else None
    if isinstance(node, Requalify):
        return rebound_source(node.child, name, batch, rows)
    if isinstance(node, ColumnPrune):
        child = rebound_source(node.child, name, batch, rows)
        return None if child is None else \
            SubsetColumns(child, node.positions, node._builder)
    if isinstance(node, BatchProject):
        if node.block_columns is None:
            return None
        child = rebound_source(node.child, name, batch, rows)
        return None if child is None else \
            DerivedColumns(child, *node.block_columns)
    if isinstance(node, BatchFilter):
        child = rebound_source(node.child, name, batch, rows)
        selection = None if child is None else node.select(child)
        return None if selection is None else \
            FilteredColumns(child, selection)
    if type(node) is not BatchHashJoin or len(node.left_keys) != 1 \
            or node._left_positions is None or node._right_positions is None:
        return None
    probe_is_left = _reads_slot(node.left, name)
    probe, build = (node.left, node.right) if probe_is_left \
        else (node.right, node.left)
    probe_key, build_key = (node._left_positions, node._right_positions) \
        if probe_is_left else (node._right_positions, node._left_positions)
    store = _columnar_store(build)
    if store is None:
        return None
    index_positions = _store_positions(build, build_key)
    index, _ = store.join_index(index_positions, "csr")
    probe_src = rebound_source(probe, name, batch, rows)
    if index is None or probe_src is None:
        return None
    if isinstance(probe_src, FilteredColumns):
        # Gather straight from the selected batch, R's own vectors when
        # the scan is the probe side: the index keeps their runs.
        keys = probe_src.child.array(probe_key[0])
        if not _is_int64(keys):
            return None
        selected = _np.asarray(probe_src.selection, dtype=_np.intp)
        probe_idx, build_pos = index.probe_rows(keys, selected)
        probe_src = probe_src.child
    else:
        keys = probe_src.array(probe_key[0])
        if not _is_int64(keys):
            return None
        probe_idx, build_pos = index.probe(keys.data)
    build_src = StoreColumns(store)
    if isinstance(build, ColumnPrune):
        build_src = SubsetColumns(build_src, build.positions, build._builder)
    return JoinColumns(probe_src, build_src, probe_idx, build_pos,
                       probe.schema.arity, build.schema.arity,
                       probe_is_left=probe_is_left)


def _typed_columns(source: ColumnBatch, arity: int) -> list | None:
    """Every column of *source* as a typed vector, or None when one has
    none (or there are no columns)."""
    vectors = []
    for j in range(arity):
        vector = source.array(j)
        if vector is None:
            return None
        vectors.append(vector)
    return vectors or None


class _BlockBuild:
    """The build side of a block join: its column batch plus position
    indexes over the key columns, each built on first use.

    Over a columnar scan the indexes live in the store's cache and
    survive every statement until the table mutates; otherwise they are
    built from the batch's key columns and live as long as this object —
    one execution, or (``cached_build`` joins) until the build input's
    fingerprint changes.
    """

    def __init__(self, build: PhysicalOperator,
                 positions: tuple[int, ...]):
        self.source = _batch_source(build)
        self.positions = positions
        self.scalar = len(positions) == 1
        self._store = _columnar_store(build)
        self._store_positions = _store_positions(build, positions)
        self._csr: tuple | None = None
        self._sorted: tuple | None = None
        self._dict: tuple | None = None
        self._unique: tuple | None = None

    def key_identity(self) -> tuple:
        """``(key vector, store version)``: the one key column's typed
        vector — what :meth:`csr` indexes — and the version of the store
        it came from (None off a store), which a :class:`ProbePlan` over
        this build side is validated against."""
        if self._store is not None:
            return (self._store.array(self._store_positions[0]),
                    self._store.version)
        return self.source.array(self.positions[0]), None

    def csr(self) -> tuple:
        """``(CsrIndex | None, build rows indexed)`` for a one-column key."""
        if self._store is not None:
            return self._store.join_index(self._store_positions, "csr")
        if self._csr is None:
            index = csr_index(self.source.array(self.positions[0]))
            self._csr = (index, 0 if index is None else len(index))
        return self._csr

    def sorted(self) -> tuple:
        """``(SortedIndex | None, build rows indexed)`` over the packed
        key columns of a composite key."""
        if self._store is not None:
            return self._store.join_index(self._store_positions, "sorted")
        if self._sorted is None:
            index = sorted_index([self.source.array(p)
                                  for p in self.positions])
            self._sorted = (index, 0 if index is None else len(index))
        return self._sorted

    def unique_index(self) -> dict | None:
        """``key -> build position`` when a one-column build outside a
        store has distinct, NULL-free keys — a consolidated delta keyed by
        vertex, the build side of a with+ branch planned without the cost
        policy — so ``map(index.get, probe_keys)`` resolves a whole probe
        column in one C pass.  None otherwise: probe the buckets."""
        if self._store is not None or not self.scalar:
            return None
        if self._unique is None:
            keys = self.source.column(self.positions[0])
            # dict(zip()) keeps one position per key: a size mismatch
            # detects duplicates.
            index = dict(zip(keys, range(len(keys))))
            distinct = len(index) == len(keys) and None not in index
            self._unique = (index if distinct else None,)
        return self._unique[0]

    def position_index(self) -> tuple:
        """``(key -> build positions, build rows indexed)``."""
        if self._store is not None:
            return self._store.join_index(self._store_positions, "positions")
        if self._dict is None:
            self._dict = position_index(
                [self.source.column(p) for p in self.positions])
        return self._dict


class BatchHashJoin(_BatchBinaryJoin):
    """Inner equi-join, batch build + chunked probe.

    NULL join keys never enter the build index, so probe lookups need no
    explicit NULL test — a NULL probe key simply misses.

    ``cached_build`` (set by the cost-based planner when the build input
    is stable across re-executions — a with+ branch probing a base table
    with each iteration's delta) keeps the build side's index between
    executions, keyed by :func:`stable_input_fingerprint`.

    A one-column int key probes a CSR index into a :class:`ProbePlan`;
    with ``key_plans`` (:func:`keep_key_plans`) the join keeps its last
    one, and a re-execution whose probe and build key vectors are the
    same objects skips the index and the probe altogether.
    """

    label = "Hash Join"
    key_plans = False

    def __init__(self, left, right, left_keys, right_keys,
                 build_side: str = "right", cached_build: bool = False):
        super().__init__(left, right, left_keys, right_keys)
        if build_side not in ("left", "right"):
            raise ValueError(f"bad build_side {build_side!r}")
        self.build_side = build_side
        self.cached_build = cached_build
        #: slot -> (build-input fingerprint, what was built from it)
        self._build_cache: dict[str, tuple] = {}
        self._key_plan: ProbePlan | None = None

    def detail(self) -> str:
        base = super().detail()
        if self.build_side == "left":
            base = f"{base}; build left"
        if self.cached_build:
            base = f"{base}; cached build"
        return base

    def _built(self, slot: str, build: PhysicalOperator, make):
        """``make()``, reused while the build input's contents stay put."""
        fingerprint = (stable_input_fingerprint(build)
                       if self.cached_build else None)
        if fingerprint is None:
            return make()
        hit = self._build_cache.get(slot)
        if hit is None or hit[0] != fingerprint:
            hit = self._build_cache[slot] = (fingerprint, make())
        return hit[1]

    def _block_source(self) -> JoinColumns | None:
        """Join output as gather vectors over a position index — no
        concatenated row tuples are built at all.

        An all-int key column on both sides probes a :class:`CsrIndex`
        with array arithmetic, all-int composite keys a
        :class:`SortedIndex` over packed keys; anything else probes a
        dict — of positions when the build keys are distinct, of position
        buckets row by row otherwise.  All emit pairs probe-major with
        ties in build order, the row path's output order.
        """
        if self.build_side == "right":
            build, probe = self.right, self.left
            build_positions = self._right_positions
            probe_positions = self._left_positions
        else:
            build, probe = self.left, self.right
            build_positions = self._left_positions
            probe_positions = self._right_positions
        if build_positions is None or probe_positions is None:
            return None
        probe_src = _batch_source(probe)
        if probe_src is None:
            return None
        built = self._built(
            "block", build, lambda: _BlockBuild(build, build_positions))
        if built.source is None:
            return None
        probe_idx = build_pos = plan = None
        if built.scalar:
            probe_keys = probe_src.array(probe_positions[0])
            if _is_int64(probe_keys):
                plan = self._probe_plan(built, probe_keys)
                if plan is not None:
                    probe_idx, build_pos = plan.probe_idx, plan.build_pos
                    observed = plan.observed
        else:
            index, observed = built.sorted()
            if index is not None:
                packed = pack_keys([probe_src.array(p)
                                    for p in probe_positions], index.packing)
                if packed is not None:
                    probe_idx, build_pos = index.probe(packed[0])
        unique = built.unique_index() if build_pos is None else None
        if unique is not None:
            observed = len(unique)
            hits = list(map(unique.get,
                            probe_src.column(probe_positions[0])))
            if None in hits:
                probe_idx = [i for i, hit in enumerate(hits)
                             if hit is not None]
                build_pos = [hit for hit in hits if hit is not None]
            else:
                probe_idx, build_pos = range(len(hits)), hits
        elif build_pos is None:
            index, observed = built.position_index()
            probe_idx, build_pos = [], []
            if built.scalar:
                keys = probe_src.column(probe_positions[0])
            else:
                keys = zip(*(probe_src.column(p) for p in probe_positions))
            if index:
                get = index.get
                extend_pos = build_pos.extend
                extend_idx = probe_idx.extend
                for i, key in enumerate(keys):
                    bucket = get(key)
                    if bucket is not None:
                        extend_pos(bucket)
                        extend_idx(repeat(i, len(bucket)))
        self.build_rows_observed += observed
        return JoinColumns(probe_src, built.source, probe_idx, build_pos,
                           probe.schema.arity, build.schema.arity,
                           probe_is_left=(self.build_side == "right"),
                           plan=plan)

    def _probe_plan(self, built: _BlockBuild,
                    probe_keys: ArrayVector) -> ProbePlan | None:
        """The kept :class:`ProbePlan` when it fits these key vectors,
        else a new one over the build side's CSR index (kept with
        ``key_plans``) — or None when the build keys have none."""
        build_keys, version = built.key_identity()
        plan = self._key_plan
        if plan is not None and plan.fits(probe_keys, build_keys, version):
            return plan
        self._key_plan = None
        index, observed = built.csr()
        if index is None:
            return None
        plan = probe_plan(index, observed, probe_keys, build_keys, version)
        if self.key_plans:
            self._key_plan = plan
        return plan

    def _compute(self) -> list[Row]:
        if _block_eligible(self):
            observed = self.build_rows_observed
            mark = analyze.mark()
            try:
                source = _batch_source(self)
                if source is not None:
                    return source.rows()
            except VALUE_ERRORS:
                # Replay through the row path for the exact error; it
                # counts the build rows itself.  Anything else is a bug
                # in a kernel and surfaces.
                self.build_rows_observed = observed
                analyze.rollback(mark)
        if self.build_side == "right":
            build, probe = self.right, self.left
            build_scalar, probe_scalar = self._right_scalar, self._left_scalar
            build_tuple, probe_tuple = self._right_key, self._left_key
        else:
            build, probe = self.left, self.right
            build_scalar, probe_scalar = self._left_scalar, self._right_scalar
            build_tuple, probe_tuple = self._left_key, self._right_key
        if build_scalar is not None:
            index = self._built("rows", build, lambda: _build_index_scalar(
                _materialize(build), build_scalar))
            probe_key = probe_scalar
        else:
            index = self._built("rows", build, lambda: _build_index_tuple(
                _materialize(build), build_tuple))
            probe_key = probe_tuple
        self.build_rows_observed += sum(map(len, index.values()))
        out: list[Row] = []
        extend = out.extend
        get = index.get
        build_is_right = self.build_side == "right"
        if not index:
            return out
        for chunk in _chunks(probe):
            if build_is_right:
                extend([row + match
                        for key, row in zip(map(probe_key, chunk), chunk)
                        for match in get(key, ())])
            else:
                extend([match + row
                        for key, row in zip(map(probe_key, chunk), chunk)
                        for match in get(key, ())])
        return out


class BatchHashLeftOuterJoin(_BatchBinaryJoin):
    """Left outer equi-join, NULL-padding unmatched left rows."""

    label = "Hash Left Join"

    def _compute(self) -> list[Row]:
        right_rows = _materialize(self.right)
        if self._right_scalar is not None:
            index = _build_index_scalar(right_rows, self._right_scalar)
            probe_key = self._left_scalar
        else:
            index = _build_index_tuple(right_rows, self._right_key)
            probe_key = self._left_key
        self.build_rows_observed += sum(map(len, index.values()))
        pad = (None,) * self.right.schema.arity
        out: list[Row] = []
        extend = out.extend
        append = out.append
        get = index.get
        for chunk in _chunks(self.left):
            for key, row in zip(map(probe_key, chunk), chunk):
                matches = get(key)
                if matches:
                    extend(row + match for match in matches)
                else:
                    append(row + pad)
        return out


class BatchHashFullOuterJoin(_BatchBinaryJoin):
    """Full outer equi-join — the paper's preferred union-by-update plan."""

    label = "Hash Full Join"

    def _compute(self) -> list[Row]:
        right_rows = _materialize(self.right)
        index: dict[Any, list[int]] = {}
        if self._right_scalar is not None:
            for pos, key in enumerate(map(self._right_scalar, right_rows)):
                if key is None:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [pos]
                else:
                    bucket.append(pos)
            probe_key = self._left_scalar
        else:
            for pos, key in enumerate(map(self._right_key, right_rows)):
                if None in key:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [pos]
                else:
                    bucket.append(pos)
            probe_key = self._left_key
        self.build_rows_observed += sum(map(len, index.values()))
        matched: set[int] = set()
        add_matched = matched.add
        pad_right = (None,) * self.right.schema.arity
        pad_left = (None,) * self.left.schema.arity
        out: list[Row] = []
        append = out.append
        get = index.get
        for chunk in _chunks(self.left):
            for key, row in zip(map(probe_key, chunk), chunk):
                positions = get(key)
                if positions:
                    for pos in positions:
                        add_matched(pos)
                        append(row + right_rows[pos])
                else:
                    append(row + pad_right)
        if len(matched) < len(right_rows):
            out.extend(pad_left + row
                       for pos, row in enumerate(right_rows)
                       if pos not in matched)
        return out


class BatchHashSemiJoin(_BatchBinaryJoin):
    """Left rows with at least one right match (EXISTS).

    The build set holds no NULL keys, so a NULL probe key misses the
    ``in`` test and is (correctly) dropped without an explicit check.
    """

    label = "Hash Semi Join"

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def _compute(self) -> list[Row]:
        keys = _key_set(_materialize(self.right),
                        self._right_scalar, self._right_key)
        probe_key = self._left_scalar or self._left_key
        out: list[Row] = []
        if not keys:
            return out
        for chunk in _chunks(self.left):
            out.extend(row for key, row in zip(map(probe_key, chunk), chunk)
                       if key in keys)
        return out


class BatchHashAntiJoin(_BatchBinaryJoin):
    """Left rows with no right match — NOT EXISTS / LEFT JOIN ... IS NULL.

    A NULL probe key never equals a build key, so it is not ``in`` the
    (NULL-free) build set and survives — EXISTS-style semantics fall out
    of the set test with no per-row NULL branch.
    """

    label = "Hash Anti Join"
    #: Rows removed, accumulated over executions.
    pruned_total = 0

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def _compute(self) -> list[Row]:
        keys = _key_set(_materialize(self.right),
                        self._right_scalar, self._right_key)
        probe_key = self._left_scalar or self._left_key
        if not keys:
            return _materialize(self.left)
        out: list[Row] = []
        seen = 0
        for chunk in _chunks(self.left):
            seen += len(chunk)
            out.extend(row for key, row in zip(map(probe_key, chunk), chunk)
                       if key not in keys)
        self.pruned_total += seen - len(out)
        return out


#: Sentinel distinguishing "group not seen" from a NULL accumulator.
_MISSING = object()


class BatchHashAggregate(_AggregateBase):
    """Hash aggregation over column batches, with row loops behind them.

    Grouped on plain columns (or on nothing) over a block pipeline, one
    grouping serves every aggregate: the array kernel reduces each over
    it, and the result leaves as typed vectors — to a projection above,
    or as rows at the plan root.  Where the kernel declines, a row loop
    answers: for a single aggregate (the fixpoints' ``sum`` / ``min``) a
    dict-get / compare / dict-set loop, for several the tuple operator's
    dict grouping.
    """

    label = "Hash Aggregate"
    key_plans = False

    def __init__(self, child, keys, aggregates, key_aliases=None):
        super().__init__(child, keys, aggregates, key_aliases)
        self._functions = tuple(spec.function for spec in self.aggregates)
        self._array_functions = all(f in GROUPED_FUNCTIONS
                                    for f in self._functions)
        # The block kernels' argument evaluators, compiled once.
        self._arg_arrays = [None if arg is None else compile_array(arg)
                            for arg in self._bound_args]
        #: the last grouping of one int64 key vector (with ``key_plans``)
        self._group_plan: GroupPlan | None = None
        self._scalar_key = single_column_getter(self._bound_keys)
        # Single-column key + single-column argument (PageRank, WCC, SSSP
        # all fit): one two-slot itemgetter yields (key, value) pairs in C
        # instead of two Python-level calls per row.
        self._kv_getter = None
        if (self._scalar_key is not None and len(self._bound_args) == 1
                and isinstance(self._bound_args[0], BoundColumn)):
            self._kv_getter = itemgetter(self._bound_keys[0].index,
                                         self._bound_args[0].index)
        # Group-key column positions when every key is a plain column —
        # none at all for a key-less aggregate — else None.
        self._key_positions = None
        if all(isinstance(k, BoundColumn) for k in self._bound_keys):
            self._key_positions = tuple(k.index for k in self._bound_keys)

    def execute(self) -> Relation:
        return Relation.from_trusted_rows(self.schema, self._compute())

    def rows(self, batch: bool = False):
        """The result rows; with *batch*, the result as a column batch
        (or None) instead — the hand-off to a block projection above."""
        if batch:
            return self._block_source()
        return iter(self._compute())

    def _compute(self) -> list[tuple]:
        source = self._block_source() if _block_eligible(self) else None
        return self._row_aggregate() if source is None else source.rows()

    # -- block path ----------------------------------------------------
    def _block_source(self) -> ColumnBatch | None:
        """The result as a column batch, so a projection above it
        (PageRank's ``c * sum + t``) computes on the kernel's typed
        output and rows are built once, at the plan root.  When the
        kernel declines, the batch wraps the row loop's result; a
        computed group key answers None (callers iterate ``rows``)."""
        if self._key_positions is None:
            return None
        fast = self._block_aggregate()
        if fast is not None:
            return fast
        return RowsColumns(self._row_aggregate(), self.schema.arity)

    def _block_aggregate(self) -> ColumnBatch | None:
        """Whole-column aggregation over a block pipeline: the array
        kernel when keys and arguments have typed views inside its
        exactness envelope, else None — the row loop answers.

        Where building the input batch meets values SQL arithmetic
        rejects (:data:`~.blocks.VALUE_ERRORS`), this returns None too
        and the row loop replays the child for the row engine's exact
        error.  Any other exception is a bug and surfaces.
        """
        mark = analyze.mark()
        try:
            src = _batch_source(self.child)
        except VALUE_ERRORS:
            src = None
        fast = None if src is None else self._array_aggregate(src)
        if fast is None:
            analyze.rollback(mark)  # the row loop reads the child again
        elif mark is not None:  # a recording is on
            analyze.note_path(self, "array")
        return fast

    def _array_aggregate(self, src: ColumnBatch) -> ColumnBatch | None:
        """Every aggregate over one grouping, or None when one declines.

        Key-less, ``count`` is the row count (a typed argument has no
        NULL) and the rest reduce over one group; an empty input is
        :meth:`_empty_row`.  Keyed, see :meth:`_grouping`."""
        if not self._array_functions:
            return None
        keyless = not self._key_positions
        if keyless and not src.length:
            return RowsColumns([self._empty_row()], self.schema.arity)
        arguments = []
        for arg, evaluate in zip(self._bound_args, self._arg_arrays):
            values = None
            if arg is not None:
                values = evaluate(src) if evaluate is not None else None
                if not isinstance(values, ArrayVector):
                    return None
            arguments.append(values)
        if keyless:
            plan, key_columns = None, []
        else:
            grouping = self._grouping(src)
            if grouping is None:
                return None
            plan, key_columns = grouping
        columns = []
        for function, values in zip(self._functions, arguments):
            if keyless and function == "count":
                columns.append(
                    ArrayVector(_np.array([src.length], dtype=_np.int64)))
                continue
            if plan is None:
                plan = single_group(src.length)
            grouped = array_grouped(function, plan.keys, values, plan=plan)
            if grouped is None:
                return None
            columns.append(grouped[1])
        return ArrayColumns([*key_columns, *columns])

    def _grouping(self, src: ColumnBatch) -> tuple | None:
        """``(GroupPlan, group key vectors)``, or None.  One key column
        groups on its int64 values; several group on their packed keys
        (:func:`pack_keys`), unpacked again on output.  An empty input
        has no group: zero-length int64 key vectors.  With
        ``key_plans``, a one-column grouping is kept and reused while the
        key vector is the same object — its group keys then come back as
        the same vector too."""
        key_positions = self._key_positions
        if len(key_positions) == 1:
            keys = src.array(key_positions[0])
            if not _is_int64(keys):
                return None
            key_data, packing = keys.data, None
        else:
            # An empty input packs on unit spans.
            packed = pack_keys([src.array(j) for j in key_positions],
                               None if src.length
                               else ((0, 1),) * len(key_positions))
            if packed is None:
                return None
            key_data, packing = packed
        plan = self._group_plan
        if plan is None or not plan.fits(key_data):
            self._group_plan = None
            plan = group_plan(key_data)
            if self.key_plans and packing is None:
                self._group_plan = plan
        if packing is None:
            return plan, [plan.group_vector]
        return plan, [ArrayVector(column) for column in
                      unpack_keys(plan.group_keys, packing)]

    # -- row loops -----------------------------------------------------
    def _row_aggregate(self) -> list[tuple]:
        """The result from the child's rows."""
        analyze.note_path(self, "rows")
        if len(self.aggregates) == 1:
            return self._row_single(self._functions[0], self._arg_fns[0])
        return list(self._hash_rows())

    def _row_single(self, function: str, arg) -> list[tuple]:
        key_fn = self._scalar_key or self._key_fn
        acc: dict[Any, Any] = {}
        get = acc.get
        child_rows = _materialize(self.child)
        if not child_rows and not self.keys:
            return [self._empty_row()]
        if arg is not None:
            if self._kv_getter is not None:
                pairs = map(self._kv_getter, child_rows)
            else:
                # Listcomp, not genexpr: the accumulation loops below then
                # unpack plain tuples with no generator frame switches.
                pairs = [(key_fn(row), arg(row)) for row in child_rows]
        if function == "count":
            if arg is None:
                for key in map(key_fn, child_rows):
                    acc[key] = get(key, 0) + 1
            else:
                for key, value in pairs:
                    if value is not None:
                        acc[key] = get(key, 0) + 1
                    elif key not in acc:
                        acc[key] = 0
        elif function == "sum":
            # The numeric guard runs only when a group's accumulator is
            # first written (cold path); heterogeneous late rows surface
            # as a TypeError from ``+`` and are normalised below so both
            # executors raise the same ExecutionError.
            try:
                for key, value in pairs:
                    current = get(key, _MISSING)
                    if current is _MISSING:
                        require_numeric(function, value)
                        acc[key] = value
                    elif value is not None:
                        if current is None:
                            require_numeric(function, value)
                            acc[key] = value
                        else:
                            acc[key] = current + value
            except TypeError:
                raise ExecutionError(
                    f"{function}() requires numeric values") from None
        elif function == "min":
            # NaN sorts above every number (relation._finish_aggregate's
            # rule): a number replaces a NaN, never the other way round.
            for key, value in pairs:
                current = get(key, _MISSING)
                if current is _MISSING:
                    acc[key] = value
                elif value is not None and (
                        current is None or value < current
                        or (current != current and value == value)):
                    acc[key] = value
        elif function == "max":
            for key, value in pairs:
                current = get(key, _MISSING)
                if current is _MISSING:
                    acc[key] = value
                elif value is not None and (
                        current is None or value > current
                        or (value != value and current == current)):
                    acc[key] = value
        else:  # avg
            counts: dict[Any, int] = {}
            try:
                for key, value in pairs:
                    if value is not None:
                        current = get(key)
                        if current is None:
                            require_numeric(function, value)
                            acc[key] = value
                        else:
                            acc[key] = current + value
                        counts[key] = counts.get(key, 0) + 1
                    elif key not in acc:
                        acc[key] = None
            except TypeError:
                raise ExecutionError(
                    f"{function}() requires numeric values") from None
            if self._scalar_key is not None:
                return [(key, None if key not in counts
                         else acc[key] / counts[key])
                        for key in acc]
            return [key + (None if key not in counts
                           else acc[key] / counts[key],)
                    for key in acc]
        if not self.keys and not acc:
            return [self._empty_row()]
        if self._scalar_key is not None:
            return [(key, value) for key, value in acc.items()]
        return [key + (value,) for key, value in acc.items()]

    def _empty_row(self) -> tuple:
        values = []
        for spec in self.aggregates:
            values.append(0 if spec.function == "count" else None)
        return tuple(values)


class BatchProject(Project):
    """Project twin: one list-comprehension pass with the compiled
    row-builder, and a trusted materialise at the plan root (skipping the
    per-row validation of ``Relation.__init__``).

    At the plan root a block pipeline whose every output column has a
    typed form is handed over as those vectors: the relation builds row
    tuples only if someone reads them, and a with+ branch's delta reaches
    the union-by-update merge — and the next iteration's scan — as it is.
    """

    def __init__(self, child, items):
        super().__init__(child, items)
        exprs = [bound for bound, _ in self.items]
        vectors = [compile_vector(expr) for expr in exprs]
        #: ``(expressions, list evaluators, array evaluators)`` for
        #: :class:`DerivedColumns`, compiled once — None when an
        #: expression has no list form (the row path then runs).
        self.block_columns = None if any(v is None for v in vectors) \
            else (exprs, vectors, [compile_array(expr) for expr in exprs])

    def execute(self) -> Relation:
        result = self._compute(root=True)
        if isinstance(result, ColumnBatch):
            return Relation.from_batch(self.schema, result)
        return Relation.from_trusted_rows(self.schema, result)

    def rows(self) -> Iterator[Row]:
        return iter(self._compute())

    def _compute(self, root: bool = False) -> list[Row] | ColumnBatch:
        if _block_eligible(self):
            mark = analyze.mark()
            try:
                source = _batch_source(self)
                if source is not None:
                    # Evaluated here, inside the speculation: what is
                    # handed over can only be decoded, not fail.
                    vectors = _typed_columns(source, len(self.items)) \
                        if root else None
                    if vectors is not None:
                        return ArrayColumns(vectors)
                    return source.rows()
            except VALUE_ERRORS:
                # Replay through the row path for the exact error.
                # Anything else is a bug in a kernel and surfaces.
                analyze.rollback(mark)
        return list(map(self._builder, _materialize(self.child)))


class BatchFilter(Filter):
    """Filter twin: over a block pipeline, a selection of the child
    batch's rows — from an array comparison mask where the predicate has
    one (:func:`~.blocks.compile_mask`), else from the list predicate;
    otherwise a whole-input list comprehension over the compiled
    predicate instead of a per-row generator."""

    def __init__(self, child, predicate):
        super().__init__(child, predicate)
        #: the predicate's array and list evaluators (None: none),
        #: compiled once
        self.block_mask = compile_mask(self.predicate)
        self.block_predicate = compile_vector(self.predicate)

    def select(self, source: ColumnBatch):
        """The positions of *source*'s rows the predicate keeps — an intp
        vector from the mask, a list from the list predicate — or None
        when neither answers."""
        mask = None if self.block_mask is None else self.block_mask(source)
        if mask is not None:
            analyze.note_path(self, "array")
            return _np.flatnonzero(mask)
        predicate = self.block_predicate
        if predicate is None:
            return None
        analyze.note_path(self, "list")
        return [i for i, keep in enumerate(predicate(source)) if keep is True]

    def execute(self) -> Relation:
        return Relation.from_trusted_rows(self.schema, self._compute())

    def rows(self) -> Iterator[Row]:
        return iter(self._compute())

    def _compute(self) -> list[Row]:
        if _block_eligible(self):
            mark = analyze.mark()
            try:
                source = _batch_source(self)
                if source is not None:
                    return source.rows()
            except VALUE_ERRORS:
                # Replay through the row path for the exact error.
                # Anything else is a bug in a kernel and surfaces.
                analyze.rollback(mark)
        analyze.note_path(self, "rows")
        evaluate = self._compiled
        return [row for row in _materialize(self.child)
                if evaluate(row) is True]


class BatchUnionAll(UnionAllOp):
    """UNION ALL twin: concatenate the materialised inputs in one list
    operation instead of chaining per-row generators.  With
    ``key_plans`` its block form memoises each typed column's
    concatenation (:class:`~.blocks.ConcatColumns`)."""

    key_plans = False

    def __init__(self, left, right):
        super().__init__(left, right)
        self.concat_memo: dict = {}

    def execute(self) -> Relation:
        return Relation.from_trusted_rows(self.schema, self._compute())

    def rows(self) -> Iterator[Row]:
        return iter(self._compute())

    def _compute(self) -> list[Row]:
        return _materialize(self.left) + _materialize(self.right)


class BatchUnion(UnionDistinctOp):
    """UNION twin: over a block pipeline, the distinct rows of both
    inputs' concatenated typed columns in first-seen order
    (:func:`~.blocks.distinct_rows`; none when both are empty), handed on
    as vectors; the row loop otherwise — for a column without a typed
    vector on either side, or with ``ints`` flags (an int64 side beside a
    float64 one) or a NaN."""

    def execute(self) -> Relation:
        result = self._compute()
        if isinstance(result, ColumnBatch):
            return Relation.from_batch(self.schema, result)
        return Relation.from_trusted_rows(self.schema, list(result))

    def rows(self) -> Iterator[Row]:
        result = self._compute()
        return iter(result.rows() if isinstance(result, ColumnBatch)
                    else result)

    def _compute(self) -> ColumnBatch | Iterator[Row]:
        if _block_eligible(self):
            mark = analyze.mark()
            try:
                source = _batch_source(self)
                if source is not None:
                    return source
            except VALUE_ERRORS:
                # Replay through the row path for the exact error.
                analyze.rollback(mark)
        return super().rows()

    def distinct(self) -> ArrayColumns | None:
        """The union as typed vectors, or None (see the class)."""
        left = _batch_source(self.left)
        if left is None:
            return None
        right = _batch_source(self.right)
        if right is None:
            return None
        columns = [_concat_arrays(left.array(j), right.array(j))
                   for j in range(self.schema.arity)]
        if any(column is None for column in columns):
            return None
        if len(columns[0].data) == 0:
            return ArrayColumns(columns)
        kept = distinct_rows(columns)
        if kept is None:
            return None
        return ArrayColumns([column.take(kept) for column in columns])


def keep_key_plans(root: PhysicalOperator) -> None:
    """Let the block operators of *root*'s tree keep their key plans
    between executions.  For the branch plans of a keyed union-by-update
    fixpoint: R's keys are distinct there and, once every vertex is in R,
    the same vectors iteration after iteration, so a kept plan hits and
    is bounded by the size of its inputs.  Anywhere else (a UNION
    fixpoint's R grows every round) the plans are built and dropped."""
    if isinstance(root, (BatchHashJoin, BatchHashAggregate, BatchUnionAll)):
        root.key_plans = True
    for child in root.children():
        keep_key_plans(child)
