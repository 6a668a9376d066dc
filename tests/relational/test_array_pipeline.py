"""The array-native block pipeline: join -> project -> aggregate on typed
arrays over a cached CSR index, and on packed composite keys.

The row path (tuple executor) is the oracle throughout.  Four layers:

* planner guard — a ``best``-profile with+ branch has no generator-model
  join, and its stable side is indexed once per table state;
* kernels — ``exact_array``, ``CsrIndex``, ``array_grouped``,
  ``pack_keys``, ``SortedIndex`` and ``key_set`` against the tuple
  aggregate's fold / plain dict loops / sets they stand in for;
* plans — batch plans over a columnar anchor against the same plan built
  from tuple operators, on inputs chosen to sit on and beyond every edge
  of the exactness envelope, and the reference profile running none of
  the array kernels at all;
* the loop — the UNION combine on packed keys against the set path, and
  TC / k-truss leaving no row tuples behind inside the fixpoint;
* key plans — a union-by-update fixpoint builds its probe pairs,
  grouping and merge map once while R's keys stay put, rebuilds them
  when they move, and nothing else keeps one.
"""

import gc
import math
import weakref
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, ktruss, mnm, pagerank, tc, wcc
from repro.core.algorithms.common import load_graph, prepare_transition
from repro.core.algorithms.registry import ALGORITHMS
from repro.datasets import preferential_attachment
from repro.datasets.generators import random_dag
from repro.graphsystems.graph import Graph
from repro.relational import REFERENCE_PROFILE, Engine, WarmStart
from repro.relational.columnar import store as store_module
from repro.relational.columnar.store import ColumnStore
from repro.relational.engine import parse_statement
from repro.relational.expressions import And, BinaryOp, BoundColumn, Literal, col
from repro.relational.physical import (
    BatchFilter,
    BatchHashAggregate,
    BatchHashJoin,
    BatchProject,
    BatchUnionAll,
    Filter,
    HashAggregate,
    HashJoin,
    MergeJoin,
    Project,
    RelationScan,
    TableScan,
    UnionAllOp,
)
from repro.relational.physical import batch, blocks
from repro.relational.physical.blocks import (
    array_grouped,
    csr_index,
    exact_array,
)
from repro.relational.recursive import RecursiveExecutor
from repro.relational.relation import AggregateSpec, Relation, _finish_aggregate
from repro.relational.schema import Column, Schema
from repro.streaming import StreamingManager
from repro.relational.sql.ast import UnionKind
from repro.relational.table import Table
from repro.relational.types import SqlType

from ..conftest import engine_over_row_tables, reference_engine


def identity(rows):
    """Rows as comparable values that also tell ``1`` from ``1.0`` from
    ``True`` and ``0.0`` from ``-0.0``, and equate NaNs."""
    def cell(value):
        if isinstance(value, float):
            if value != value:
                return ("nan",)
            return ("float", value, math.copysign(1.0, value))
        return (type(value).__name__, value)
    return [tuple(map(cell, row)) for row in rows]


def outcome(plan):
    """A plan's identity-exact rows, or the error it raises."""
    try:
        return identity(plan.execute().rows)
    except Exception as error:  # compared, not swallowed
        return (type(error).__name__, str(error))


# -- planner guard --------------------------------------------------------------


def fixpoint_graph(nodes=60):
    return preferential_attachment(nodes, 3.0, directed=True, seed=5)


def load_fixpoint_graph(engine, nodes=60):
    graph = fixpoint_graph(nodes)
    load_graph(engine, graph)
    prepare_transition(engine)
    wcc.prepare_symmetric_edges(engine)
    return graph


def fixpoint_engine(nodes=60, **kwargs):
    engine = Engine("oracle", **kwargs)
    return engine, load_fixpoint_graph(engine, nodes)


def fixpoint_statements(graph):
    return {"pr": pagerank.sql(graph.num_nodes, 0.85, 15),
            "wcc": wcc.sql(), "sssp": bellman_ford.sql(0)}


def walk(node):
    yield node
    for child in node.children():
        yield from walk(child)


@pytest.mark.parametrize("name", ["pr", "wcc", "sssp"])
def test_best_profile_branch_has_no_generator_model_join(name):
    engine, graph = fixpoint_engine()
    executor = RecursiveExecutor(
        engine.database, engine.dialect, engine.policy, mode=engine.mode,
        ubu_strategy=engine._ubu_strategy, temp_indexes=engine.temp_indexes,
        analyze=True)
    executor.execute(parse_statement(fixpoint_statements(graph)[name]))
    branches = [plan for label, plan, _ in executor.observed
                if label == "recursive branch"]
    assert branches
    for plan in branches:
        joins = [node for node in walk(plan) if "Join" in node.label]
        assert joins and all(type(j) is BatchHashJoin for j in joins)
        assert not any(isinstance(node, (HashJoin, MergeJoin))
                       for node in walk(plan))
        assert all(j.cached_build and "cached build" in j.detail()
                   for j in joins)


def test_stable_side_is_indexed_once_per_table_state(monkeypatch):
    engine, graph = fixpoint_engine()
    built = []
    original = store_module.csr_index

    def counting(keys):
        built.append(keys)
        return original(keys)

    monkeypatch.setattr(store_module, "csr_index", counting)
    statements = fixpoint_statements(graph)
    result = engine.execute_detailed(statements["pr"])
    assert result.iterations == 15
    assert len(built) == 1  # S.F, once for fifteen probes
    for sql in statements.values():  # a second statement sequence
        engine.execute(sql)
    # + ES.F and E.F, and R's key for the WCC and SSSP steps; S.F came
    # from the store cache
    assert len(built) == 5
    engine.database.table("S").insert((0, 1, 0.5))
    engine.execute(statements["pr"])
    assert len(built) == 5  # the append patched S's index: no build


def test_cached_build_survives_on_the_operator_for_row_storage(monkeypatch):
    """Row storage has no store cache: the join keeps its own build index
    while the build input's fingerprint stands."""
    engine = engine_over_row_tables(load_fixpoint_graph)
    graph = fixpoint_graph()
    scans = []
    original = TableScan.rows

    def counting(self):
        scans.append(self.table.name)
        return original(self)

    monkeypatch.setattr(TableScan, "rows", counting)
    result = engine.execute_detailed(fixpoint_statements(graph)["pr"])
    assert result.iterations == 15
    assert scans.count("S") == 1


# -- kernels against the loops they replace ------------------------------------

TRICKY_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e308, -1e308, float("inf"),
                 float("-inf"), float("nan"), 2.0 ** 53, 3.0]
TRICKY_INTS = [0, 1, -1, 3, 2 ** 53 - 1, 2 ** 53, -(2 ** 53), 2 ** 62,
               2 ** 63 - 1, -(2 ** 63), 2 ** 63, 2 ** 70]

ints = st.one_of(st.integers(-6, 6), st.sampled_from(TRICKY_INTS))
floats = st.one_of(st.sampled_from(TRICKY_FLOATS),
                   st.integers(-8, 8).map(float))
values = st.one_of(ints, floats, st.booleans(), st.none())
homogeneous = st.one_of(st.lists(ints, max_size=12),
                        st.lists(floats, max_size=12),
                        st.lists(st.one_of(ints, floats), max_size=12),
                        st.lists(values, max_size=12))


def has_array_view(column):
    """The documented envelope of ``exact_array``."""
    kinds = set(map(type, column))
    if not column or not kinds <= {int, float}:
        return False
    for value in column:
        if type(value) is float and value != value:
            return False
        if type(value) is int and not (
                -(2 ** 63) <= value < 2 ** 63 if kinds == {int}
                else abs(value) < 2 ** 53):
            return False
    return True


@given(column=homogeneous)
@settings(max_examples=300, deadline=None)
def test_exact_array_round_trips_or_declines(column):
    vector = exact_array(column)
    assert (vector is not None) == has_array_view(column)
    if vector is not None:
        assert identity([tuple(vector.tolist())]) == identity([tuple(column)])
        taken = vector.take(np.arange(len(column))[::-1])
        assert identity([tuple(taken.tolist())]) == \
            identity([tuple(column[::-1])])


def dict_probe(build_keys, probe_keys):
    index = {}
    for pos, key in enumerate(build_keys):
        index.setdefault(key, []).append(pos)
    pairs = [(i, pos) for i, key in enumerate(probe_keys)
             for pos in index.get(key, ())]
    return [i for i, _ in pairs], [pos for _, pos in pairs]


key_domains = st.sampled_from([(-3, 6), (-(2 ** 63), -(2 ** 63) + 5),
                               (2 ** 63 - 6, 2 ** 63 - 1), (0, 2 ** 40)])


@given(domain=key_domains, data=st.data())
@settings(max_examples=200, deadline=None)
def test_csr_probe_emits_the_dict_probe_sequence(domain, data):
    low, high = domain
    keys = st.one_of(st.integers(low, min(low + 8, high)),
                     st.integers(low, high))
    build = data.draw(st.lists(keys, max_size=14))
    probe = data.draw(st.lists(st.one_of(keys, st.sampled_from(
        [0, -(2 ** 63), 2 ** 63 - 1])), max_size=14))
    index = csr_index(exact_array(build))
    # An empty or sparse-keyed build has no CSR index: the dict probe runs.
    assert (index is None) == (
        not build or not blocks._dense(min(build), max(build), len(build)))
    if index is None:
        return
    assert len(index) == len(build)
    probe_idx, build_pos = index.probe(np.array(probe, dtype=np.int64))
    assert (probe_idx.tolist(), build_pos.tolist()) == \
        dict_probe(build, probe)


def loop_grouped(function, keys, values):
    """The scalar loop the kernels must reproduce, object for object."""
    acc = {}
    for key, value in zip(keys, values):
        if key not in acc:
            acc[key] = 1 if function == "count" else value
        elif function == "count":
            acc[key] += 1
        elif function == "sum":
            acc[key] = acc[key] + value
        elif function == "min":
            acc[key] = value if value < acc[key] else acc[key]
        else:
            acc[key] = value if value > acc[key] else acc[key]
    return list(acc.items())


def finished_grouped(function, keys, values):
    """The tuple aggregate's fold: each group's values in first-seen group
    order, reduced by ``_finish_aggregate``."""
    groups = {}
    for key, value in zip(keys, values):
        groups.setdefault(key, []).append(value)
    return [(key, _finish_aggregate(function, group))
            for key, group in groups.items()]


@given(function=st.sampled_from(["sum", "min", "max", "count"]),
       domain=key_domains, data=st.data())
@settings(max_examples=400, deadline=None)
def test_array_grouped_is_the_scalar_loop_or_declines(function, domain, data):
    low, high = domain
    n = data.draw(st.integers(1, 16))
    keys = data.draw(st.lists(
        st.one_of(st.integers(low, min(low + 4, high)),
                  st.integers(low, high)), min_size=n, max_size=n))
    column = data.draw(st.one_of(
        st.lists(ints, min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n),
        st.lists(st.one_of(st.integers(-4, 4), floats),
                 min_size=n, max_size=n)))
    vector = exact_array(column)
    if vector is None:
        return  # no array view: the pipeline never reaches the kernel
    grouped = array_grouped(function, np.array(keys, dtype=np.int64),
                            None if function == "count" else vector)
    declines = (
        function == "sum" and (
            vector.ints is not None  # ints beside floats
            or any(type(v) is float and v == 0.0
                   and math.copysign(1.0, v) < 0 for v in column)
            or (type(column[0]) is int  # a partial sum could leave int64
                and max(map(abs, column)) * n >= 2 ** 63)))
    assert (grouped is None) == declines
    if declines:
        return
    group_keys, aggregate = grouped
    got = list(zip(group_keys.tolist(), aggregate.tolist()))
    assert identity(got) == identity(loop_grouped(function, keys, column))
    assert identity(got) == identity(finished_grouped(function, keys, column))


def test_array_grouped_int_float_tie_keeps_the_first_object():
    keys = np.array([7, 7, 8, 8, 9], dtype=np.int64)
    vector = exact_array([3, 3.0, 3.0, 3, 4])
    group_keys, aggregate = array_grouped("min", keys, vector)
    assert identity([tuple(aggregate.tolist())]) == \
        identity([(3, 3.0, 4)])
    group_keys, aggregate = array_grouped("max", keys, vector)
    assert identity([tuple(aggregate.tolist())]) == \
        identity([(3, 3.0, 4)])
    assert group_keys.tolist() == [7, 8, 9]


#: min/max inputs, (keys, values): ties, signed zeros in both orders, an
#: int-flagged mixed column, int64, a single group.
EXTREME_CASES = {
    "ties": ([1, 2, 1, 2, 1], [2.5, 4.0, 2.5, 4.0, 7.0]),
    "+0.0 before -0.0": ([1, 1, 2, 2, 2], [0.0, -0.0, 0.0, -0.0, 1.0]),
    "-0.0 before +0.0": ([1, 1, 2, 2, 2], [-0.0, 0.0, -0.0, 0.0, -1.0]),
    "int-flagged": ([3, 3, 4, 4], [3, 3.0, 5.0, 5]),
    "int64": ([1, 2, 1, 2, 2], [5, -3, 5, 9, -3]),
    "single group": ([7, 7, 7, 7], [1.5, -2.0, -2.0, 9.25]),
}


@pytest.mark.parametrize("function", ["min", "max"])
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_min_max_one_pass_and_holder_pass_are_the_list_kernels(
        function, case, monkeypatch):
    """Where equal values are one SQL value the reduce takes one
    ``ufunc.at`` pass; elsewhere (an int beside an equal float, -0.0
    beside 0.0) a holder pass picks the first row holding each extreme.
    Both equal the tuple aggregate's fold, object for object."""
    keys, column = EXTREME_CASES[case]
    want = identity(finished_grouped(function, keys, column))
    vector = exact_array(column)
    plan = blocks.group_plan(np.array(keys, dtype=np.int64))

    def reduced():
        got = blocks._reduce_groups(function, plan, vector)
        return identity(zip(plan.group_keys.tolist(), got.tolist()))

    assert blocks._plain(vector) == (case in ("ties", "int64",
                                              "single group"))
    assert reduced() == want
    monkeypatch.setattr(blocks, "_plain", lambda values: False)
    assert reduced() == want  # the holder pass, on every case


def test_array_grouped_first_seen_order_on_dense_and_sparse_keys():
    """Dense keys group by ``key - min``, keys far sparser than the row
    count by ``np.unique`` rank: groups come out first-seen either way."""
    for keys in ([5, 2, 5, 9, 2, 0], [2 ** 40, -7, 2 ** 40, 3, -7]):
        grouped = array_grouped("count", np.array(keys, dtype=np.int64),
                                None)
        assert list(zip(grouped[0].tolist(), grouped[1].tolist())) == \
            finished_grouped("count", keys, keys)


# -- packed composite keys ------------------------------------------------------

wide_ints = st.one_of(st.integers(-4, 4), st.integers(-(2 ** 63), 2 ** 63 - 1))


def key_columns(rows, width):
    return [[row[j] for row in rows] for j in range(width)]


@given(data=st.data(), width=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_pack_keys_round_trips_and_orders_like_the_tuples(data, width):
    rows = data.draw(st.lists(st.tuples(*[wide_ints] * width), min_size=1,
                              max_size=12))
    columns = key_columns(rows, width)
    packed = blocks.pack_keys([exact_array(c) for c in columns])
    size = math.prod(max(c) - min(c) + 1 for c in columns)
    assert (packed is None) == (size >= 2 ** 62)
    if packed is None:
        return
    keys, packing = packed
    unpacked = blocks.unpack_keys(keys, packing)
    assert [c.tolist() for c in unpacked] == columns
    # equal exactly when the rows are, ordered as they are
    order = sorted(range(len(rows)), key=rows.__getitem__)
    assert sorted(range(len(rows)), key=keys.tolist().__getitem__) == order
    assert len(set(keys.tolist())) == len(set(rows))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_pack_keys_with_a_given_packing_marks_rows_outside_it(data):
    build = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                               min_size=1, max_size=10))
    probe = data.draw(st.lists(st.tuples(wide_ints, wide_ints), max_size=10))
    _, packing = blocks.pack_keys([exact_array(c)
                                   for c in key_columns(build, 2)])
    got, same = blocks.pack_keys(
        [blocks.ArrayVector(np.array(c, dtype=np.int64))
         for c in key_columns(probe, 2)], packing)
    assert same == packing
    for row, key in zip(probe, got.tolist()):
        inside = all(base <= v < base + span
                     for v, (base, span) in zip(row, packing))
        assert (key >= 0) == inside


def test_pack_keys_declines_what_has_no_int64_view():
    ints = exact_array([1, 2])
    assert blocks.pack_keys([ints, exact_array([1.5, 2.5])]) is None  # float
    assert blocks.pack_keys([ints, exact_array([True, 2])]) is None  # bool
    assert blocks.pack_keys([ints, exact_array([None, 2])]) is None  # NULL
    assert blocks.pack_keys([ints, exact_array(["a", "b"])]) is None  # text
    wide = exact_array([0, 2 ** 31])
    assert blocks.pack_keys([wide, wide]) is None  # spans multiply past 2**62
    empty = blocks.ArrayVector(np.zeros(0, dtype=np.int64))
    assert blocks.pack_keys([empty, empty]) is None


@given(data=st.data(), bound=st.sampled_from([1, 35, 36, 2 ** 24]))
@settings(max_examples=200, deadline=None)
def test_key_set_is_a_set_on_either_side_of_the_bitmap_bound(data, bound):
    """A bitmap within the bound, sorted keys past it: both answer
    membership as a Python set does, before and after keys are added."""
    pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
    stored = data.draw(st.lists(pairs, min_size=1, max_size=12))
    probe = data.draw(st.lists(pairs, max_size=12))
    packed, packing = blocks.pack_keys(
        [exact_array(c) for c in key_columns(stored + probe, 2)])
    keys, probe_keys = packed[:len(stored)], packed[len(stored):]
    with mock.patch.object(blocks, "_BITMAP_LIMIT", bound):
        seen = blocks.key_set(keys, packing)
    slots = math.prod(span for _, span in packing)
    assert (seen.dtype == bool) == (slots <= bound)
    every = np.arange(slots)
    expected = set(keys.tolist())
    assert blocks.key_set_member(every, seen).tolist() \
        == [slot in expected for slot in range(slots)]
    added = np.unique(probe_keys[~blocks.key_set_member(probe_keys, seen)])
    grown = blocks.key_set_add(seen, added)
    assert (grown is seen) == (seen.dtype == bool)  # a bitmap grows in place
    expected |= set(added.tolist())
    assert blocks.key_set_member(every, grown).tolist() \
        == [slot in expected for slot in range(slots)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_sorted_index_probe_emits_the_dict_probe_sequence(data):
    pairs = st.tuples(st.integers(0, 4), st.one_of(st.integers(0, 3),
                                                   st.just(2 ** 40)))
    build = data.draw(st.lists(pairs, min_size=1, max_size=14))
    probe = data.draw(st.lists(st.one_of(pairs, st.tuples(
        wide_ints, wide_ints)), max_size=14))
    index = blocks.sorted_index([exact_array(c)
                                 for c in key_columns(build, 2)])
    assert len(index) == len(build)
    packed, _ = blocks.pack_keys(
        [blocks.ArrayVector(np.array(c, dtype=np.int64))
         for c in key_columns(probe, 2)], index.packing)
    probe_idx, build_pos = index.probe(packed)
    assert (probe_idx.tolist(), build_pos.tolist()) == \
        dict_probe(build, probe)


@given(function=st.sampled_from(["sum", "min", "max", "count"]),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_multi_key_array_grouped_is_the_tuple_aggregate(function, data):
    n = data.draw(st.integers(1, 16))
    keys = data.draw(st.lists(st.tuples(
        st.integers(0, 3), st.one_of(st.integers(-2, 2), st.just(2 ** 40))),
        min_size=n, max_size=n))
    column = data.draw(st.one_of(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n)))
    vector = exact_array(column)
    if vector is None:
        return
    packed, packing = blocks.pack_keys([exact_array(c)
                                        for c in key_columns(keys, 2)])
    grouped = array_grouped(function, packed,
                            None if function == "count" else vector)
    if grouped is None:  # a NaN, -0.0 under sum: the value envelope
        return
    group_keys, aggregate = grouped
    got = list(zip(zip(*(c.tolist() for c in blocks.unpack_keys(
        group_keys, packing))), aggregate.tolist()))
    assert identity(got) == identity(finished_grouped(function, keys,
                                                      column))


# -- plans: batch over a columnar anchor vs the tuple operators -----------------

STABLE_SCHEMA = Schema((Column("K", SqlType.INTEGER, "B"),
                        Column("T", SqlType.INTEGER, "B"),
                        Column("W", SqlType.DOUBLE, "B")))


def stable_table(rows):
    table = Table("B", STABLE_SCHEMA, storage="columnar")
    table.insert_many(rows)
    return table


def branch_plan(batch, delta_rows, table, function, combine, union,
                build_side="right"):
    """``select g, f(x) from (select B.T g, <P.v combine B.W> x from P, B
    where P.k = B.K [union all select k, v from P]) group by g`` — the
    with+ branch shape, from batch or tuple operators.  *build_side*
    ``"right"`` builds on the stable table (the cost policy's plan),
    ``"left"`` on the delta (every other policy's)."""
    join_cls, project_cls, union_cls, aggregate_cls = (
        (BatchHashJoin, BatchProject, BatchUnionAll, BatchHashAggregate)
        if batch else (HashJoin, Project, UnionAllOp, HashAggregate))

    def delta():
        return RelationScan(Relation.from_pairs(("k", "v"), delta_rows), "P")

    join = join_cls(delta(), TableScan(table, "B"),
                    [col("P.k")], [col("B.K")], build_side)
    value = {"left": col("P.v"), "right": col("B.W")}.get(
        combine) or BinaryOp(combine, col("P.v"), col("B.W"))
    child = project_cls(join, [(col("B.T"), "g"), (value, "x")])
    if union:
        child = union_cls(child, project_cls(
            delta(), [(col("P.k"), "g"), (col("P.v"), "x")]))
    argument = None if function == "count*" else col("x")
    spec = [AggregateSpec(function.rstrip("*"), argument, "out")]
    return aggregate_cls(child, [col("g")], spec)


def assert_branch_matches_tuple(delta_rows, stable_rows, function, combine,
                                union, build_side="right"):
    table = stable_table(stable_rows)
    expected = outcome(branch_plan(False, delta_rows, table, function,
                                   combine, union, build_side))
    got = outcome(branch_plan(True, delta_rows, table, function, combine,
                              union, build_side))
    assert got == expected


delta_keys = st.one_of(st.integers(0, 5), st.none(), st.booleans(),
                       st.sampled_from([2 ** 63, -(2 ** 70), 2 ** 63 - 1]))
delta_values = st.one_of(
    st.lists(st.tuples(delta_keys, st.integers(-5, 5)), max_size=10),
    st.lists(st.tuples(delta_keys, floats), max_size=10),
    st.lists(st.tuples(delta_keys, st.one_of(st.integers(-5, 5), floats)),
             max_size=10),
    st.lists(st.tuples(delta_keys, st.one_of(ints, floats, st.none())),
             max_size=10))
stable_rows_strategy = st.lists(
    st.tuples(st.one_of(st.integers(0, 5), st.none()), st.integers(0, 4),
              st.one_of(floats, st.none())), max_size=10)


@given(delta_rows=delta_values, stable_rows=stable_rows_strategy,
       function=st.sampled_from(["sum", "min", "max", "count", "count*"]),
       combine=st.sampled_from(["left", "right", "*", "+", "-"]),
       union=st.booleans(), build_side=st.sampled_from(["left", "right"]))
@settings(max_examples=400, deadline=None)
def test_branch_shape_matches_tuple_operators(delta_rows, stable_rows,
                                              function, combine, union,
                                              build_side):
    assert_branch_matches_tuple(delta_rows, stable_rows, function, combine,
                                union, build_side)


CLEAN_STABLE = [(0, 1, 0.5), (1, 1, 0.25), (1, 2, 1.0), (2, 0, 2.0),
                (3, 2, 4.0)]

#: name -> (delta rows, stable rows, function, combine, union): one input
#: per edge of the envelope.  Either path must be the tuple operators'
#: result, object for object; the array kernel must decline each case
#: but those in :data:`DICT_PROBED_ON_ARRAYS`.
OUTSIDE_ENVELOPE = {
    "nan value": ([(0, float("nan")), (1, 1.0)], CLEAN_STABLE, "min", "left",
                  False),
    "nan weight": ([(0, 1.0), (1, 1.0)],
                   [(0, 1, float("nan")), (1, 1, 2.0)], "max", "*", False),
    "negative zero sum": ([(0, -0.0), (1, 0.0)], CLEAN_STABLE, "sum", "left",
                          False),
    "bool key": ([(True, 1.0), (2, 2.0)], CLEAN_STABLE, "sum", "*", False),
    "key outside int64": ([(2 ** 63, 1.0), (1, 2.0)], CLEAN_STABLE, "sum",
                          "*", False),
    "value outside int64": ([(0, 2 ** 70), (1, 1)], CLEAN_STABLE, "sum",
                            "left", False),
    "null key on the delta": ([(None, 1.0), (1, 2.0)], CLEAN_STABLE, "sum",
                              "*", False),
    "null key on the stable side": ([(0, 1.0), (1, 2.0)],
                                    CLEAN_STABLE + [(None, 1, 9.0)], "sum",
                                    "*", False),
    "null value": ([(0, None), (1, 2.0)], CLEAN_STABLE, "min", "left",
                   False),
    "int/float mix under sum": ([(0, 1), (1, 2.5), (1, 3)], CLEAN_STABLE,
                                "sum", "left", True),
    "int beyond 2**53 beside floats": ([(0, 2 ** 53 + 1), (1, 2.5)],
                                       CLEAN_STABLE, "min", "left", True),
    "int64 partial-sum overflow": ([(0, 2 ** 62), (1, 2 ** 62), (1, 2 ** 62),
                                    (2, 2 ** 62)], CLEAN_STABLE, "sum",
                                   "left", False),
    "int product outside int64": ([(0, 2 ** 40), (1, 2 ** 40)],
                                  [(0, 1, 1.0), (1, 1, 1.0)], "max", "left",
                                  False),
    "empty delta": ([], CLEAN_STABLE, "sum", "*", True),
    # keys far sparser than the row count have no dense slots: the join
    # probes the dict, the aggregate gathers through its positions and
    # numbers the groups by rank
    "sparse join keys": ([(0, 1.0), (2 ** 40, 2.0)],
                         CLEAN_STABLE + [(2 ** 40, 1, 3.0)], "sum", "*",
                         False),
    "sparse group keys": ([(0, 1.0), (1, 2.0)],
                          [(0, 2 ** 40, 0.5), (1, 3, 1.0), (1, 2 ** 40, 2.0)],
                          "sum", "*", False),
}


#: Cases outside the join's CSR envelope only: the join probes a dict,
#: and the aggregate above still groups its int64 / float64 columns on
#: arrays, gathered through the dict probe's positions.
DICT_PROBED_ON_ARRAYS = {"bool key", "key outside int64",
                         "null key on the delta",
                         "null key on the stable side", "sparse join keys",
                         "sparse group keys"}


@pytest.fixture
def array_kernel_runs(monkeypatch):
    """Records whether each aggregate's array kernel produced a result."""
    runs = []
    original = BatchHashAggregate._array_aggregate

    def recording(self, *args):
        result = original(self, *args)
        runs.append(result is not None)
        return result

    monkeypatch.setattr(BatchHashAggregate, "_array_aggregate", recording)
    return runs


@pytest.mark.parametrize("case", sorted(OUTSIDE_ENVELOPE))
def test_outside_the_envelope_falls_back_to_the_tuple_result(
        case, array_kernel_runs):
    if case == "int product outside int64":
        # int * int needs an int column on the stable side
        table = Table("B", Schema((Column("K", SqlType.INTEGER, "B"),
                                   Column("T", SqlType.INTEGER, "B"),
                                   Column("W", SqlType.INTEGER, "B"))),
                      storage="columnar")
        table.insert_many([(0, 1, 2 ** 40), (1, 1, 2 ** 40)])
        delta_rows = OUTSIDE_ENVELOPE[case][0]
        expected = outcome(branch_plan(False, delta_rows, table, "max", "*",
                                       False))
        assert outcome(branch_plan(True, delta_rows, table, "max", "*",
                                   False)) == expected
    else:
        assert_branch_matches_tuple(*OUTSIDE_ENVELOPE[case])
    assert array_kernel_runs == [case in DICT_PROBED_ON_ARRAYS]


INSIDE_ENVELOPE = {
    "float sum of products": ([(0, 1.5), (1, 2.0), (3, 0.25)], "sum", "*",
                              False),
    "int sum": ([(0, 3), (1, -2), (1, 7)], "sum", "left", True),
    "float min over union": ([(0, 1.5), (1, 0.25), (2, 8.0)], "min", "+",
                             True),
    "int/float tie under min": ([(0, 2), (1, 1), (2, 5)], "min", "right",
                                True),
    "int/float tie under max": ([(0, 1), (1, 1), (2, 2)], "max", "*", True),
    "duplicate build keys": ([(1, 1.0), (1, 2.0), (2, 3.0)], "max", "*",
                             False),
    "count": ([(0, 1.0), (1, 2.0), (1, 3.0)], "count", "left", True),
    "count star": ([(0, 1.0), (1, 2.0)], "count*", "left", False),
    "infinities": ([(0, float("inf")), (1, float("-inf")), (2, 1.0)], "min",
                   "+", True),
}


@pytest.mark.parametrize("case", sorted(INSIDE_ENVELOPE))
def test_inside_the_envelope_runs_on_arrays(case, array_kernel_runs):
    delta_rows, function, combine, union = INSIDE_ENVELOPE[case]
    assert_branch_matches_tuple(delta_rows, CLEAN_STABLE, function, combine,
                                union)
    assert array_kernel_runs == [True]


#: join key kind -> (column type, keys): each forces the join's dict
#: probe — no int64 view (float, bool, a NULL), or no dense CSR range
#: (both sides span 0..2**40).
DICT_PROBE_KEYS = {
    "float": (SqlType.DOUBLE, st.sampled_from([0.0, 1.0, 2.5, -3.0])),
    "bool": (SqlType.BOOLEAN, st.booleans()),
    "null": (SqlType.INTEGER, st.one_of(st.integers(0, 3), st.none())),
    "sparse": (SqlType.INTEGER, st.sampled_from([0, 1, 2 ** 40])),
}
DICT_PROBE_FORCED = {"float": (), "bool": (), "null": (None,),
                     "sparse": (0, 2 ** 40)}


@given(kind=st.sampled_from(sorted(DICT_PROBE_KEYS)), data=st.data(),
       function=st.sampled_from(["sum", "min", "max", "count", "avg"]),
       value_type=st.sampled_from([SqlType.INTEGER, SqlType.DOUBLE]))
@settings(max_examples=120, deadline=None)
def test_an_aggregate_over_a_dict_probed_join_groups_on_arrays(
        kind, data, function, value_type):
    """``select B.T, f(P.v) from P, B where P.k = B.K group by B.T`` on
    join keys the CSR probe cannot take: the join probes a dict, the
    aggregate gathers its own int64 / float64 columns through the probe's
    positions and groups them on arrays — and answers what the reference
    profile does, ``repr`` for ``repr``.  A NULL in the argument column
    (no typed view to gather from) leaves it to the row loop; an empty
    join groups on arrays too, into no group."""
    key_type, keys = DICT_PROBE_KEYS[kind]
    values = (st.integers(-4, 4) if value_type is SqlType.INTEGER
              else st.sampled_from([-1.5, 0.0, 0.5, 2.0, 3.25]))
    forced = DICT_PROBE_FORCED[kind]
    delta = data.draw(st.lists(st.tuples(keys, st.one_of(values, st.none())),
                               max_size=8))
    delta += [(key, data.draw(values)) for key in forced]
    stable = data.draw(st.lists(st.tuples(keys, st.sampled_from(
        [0, 1, 2, 2 ** 40])), max_size=8))
    stable += [(key, 0) for key in forced]
    engines = (Engine("oracle"),
               reference_engine("oracle"))
    for engine in engines:
        engine.database.register("P", Relation(Schema.of(
            ("k", key_type), ("v", value_type)), delta))
        engine.database.register("B", Relation(Schema.of(
            ("K", key_type), ("T", SqlType.INTEGER)), stable))
    sql = (f"select B.T, {function}(P.v) as a from P, B where P.k = B.K"
           " group by B.T")
    probes = []
    original = blocks.JoinColumns.__init__

    def watching(self, probe, build, probe_idx, build_pos, *args, **kwargs):
        probes.append(type(build_pos) is list)
        original(self, probe, build, probe_idx, build_pos, *args, **kwargs)

    with mock.patch.object(blocks.JoinColumns, "__init__", watching):
        got = repr_rows(engines[0], sql)
        report = engines[0].explain_analyze(sql)
    # The planners may orient the join apart, and groups come first-seen.
    assert sorted(got) == sorted(repr_rows(engines[1], sql))
    assert probes and all(probes)
    # An empty BOOLEAN-keyed table starts in the row overlay, where a
    # column without values has no typed view.
    typed = None not in [v for _, v in delta] and (
        kind != "bool" or bool(delta and stable))
    aggregate, = [line for line in report.splitlines()
                  if "Hash Aggregate" in line]
    assert f"path={'array' if typed else 'rows'})" in aggregate, report


def test_mnm_groups_over_its_dict_probed_join_on_arrays(monkeypatch):
    """MNM's ``CH`` joins on ``P.w = B.bw``, a float, so the join probes a
    dict; ``min(P.T) group by P.F`` above it still groups on arrays, and
    no aggregate over a dict-probed join runs the row loop — the last
    round's empty one, once every vertex is matched, included."""
    probed, fell_back = [], []
    declined = {}  # aggregate -> its last array attempt declined a dict probe
    original_array = BatchHashAggregate._array_aggregate
    original_rows = BatchHashAggregate._row_aggregate

    def array(self, src):
        result = original_array(self, src)
        dict_probed = (isinstance(src, blocks.JoinColumns)
                       and type(src.build_pos) is list)
        if dict_probed:
            probed.append(result is not None)
        declined[self] = dict_probed and result is None
        return result

    def rows(self):
        if declined.pop(self, False):
            fell_back.append(self)
        return original_rows(self)

    monkeypatch.setattr(BatchHashAggregate, "_array_aggregate", array)
    monkeypatch.setattr(BatchHashAggregate, "_row_aggregate", rows)
    graph = preferential_attachment(40, 3.0, seed=3)
    result = mnm.run_sql(Engine("oracle"), graph)
    assert result.values == mnm.run_sql(reference_engine("oracle"),
                                        graph).values
    assert len(probed) >= result.iterations - 2 and all(probed)
    assert fell_back == []


def test_the_default_engine_runs_pagerank_on_arrays(array_kernel_runs):
    """``Engine("oracle")`` with no other arguments is the array engine:
    every iteration's grouped aggregate of the PageRank branch runs on
    typed arrays."""
    engine, graph = fixpoint_engine()
    result = engine.execute_detailed(fixpoint_statements(graph)["pr"])
    assert result.iterations > 2
    assert len(array_kernel_runs) >= result.iterations
    assert all(array_kernel_runs)


@pytest.mark.parametrize("delta_keys, expected_idx", [
    ([1, 0, 3, 2], range(5)),   # distinct build keys, every probe row hits
    ([1, 3], [1, 2, 4]),        # distinct build keys, some probe rows miss
    ([1, 1, 3], [1, 1, 2, 2, 4]),  # duplicates: the bucket probe
])
def test_delta_on_build_probes_the_stable_column_in_one_pass(delta_keys,
                                                             expected_idx):
    """Without a CSR index (float keys here) a
    delta with distinct keys on the build side resolves the stable
    table's whole key column with one ``map(dict.get)``."""
    table = stable_table(CLEAN_STABLE)
    delta_rows = [(float(key), 1.0) for key in delta_keys]

    def join(cls):
        return cls(RelationScan(Relation.from_pairs(("k", "v"), delta_rows),
                                "P"),
                   TableScan(table, "B"), [col("P.k")], [col("B.K")], "left")

    batch = join(BatchHashJoin)
    source = batch._block_source()
    assert source.probe_idx == expected_idx
    assert type(source.probe_idx) is type(expected_idx)
    assert outcome(batch) == outcome(join(HashJoin))


def test_replayed_join_counts_its_build_rows_once(monkeypatch):
    table = stable_table(CLEAN_STABLE)
    join = BatchHashJoin(
        RelationScan(Relation.from_pairs(("k", "v"), [(0, 1.0), (1, 2.0)]),
                     "P"),
        TableScan(table, "B"), [col("P.k")], [col("B.K")], "right")

    def broken(self):
        raise TypeError("list kernel meets a value SQL rejects")

    monkeypatch.setattr(blocks.JoinColumns, "rows", broken)
    assert len(join.execute().rows) == 3  # the row path's answer
    assert join.build_rows_observed == len(CLEAN_STABLE)


def test_projection_above_the_aggregate_matches():
    """PageRank's ``c * sum(...) + t`` sits above the aggregate and
    computes on its typed output; rows are built once, at the root."""
    table = stable_table(CLEAN_STABLE)
    delta_rows = [(0, 1.5), (1, 2.0), (3, 0.25)]

    def plan(batch):
        aggregate = branch_plan(batch, delta_rows, table, "sum", "*", False)
        project_cls = BatchProject if batch else Project
        value = BinaryOp("+", BinaryOp("*", Literal(0.85), col("out")),
                         Literal(0.15))
        return project_cls(aggregate, [(col("g"), "g"), (value, "r")])

    assert outcome(plan(True)) == outcome(plan(False))


# -- two-key plans: packed keys vs the tuple operators -------------------------


def pair_plan(batch, delta_rows, table, function, build_side="right",
              snapshot=False):
    """``select P.a, P.b, f(B.W) from P, B where P.a = B.K and P.b = B.T
    group by P.a, P.b`` from batch or tuple operators — the k-truss
    support shape.  With *snapshot* the stable side is scanned as the
    table's batch-backed snapshot instead of the table."""
    join_cls, aggregate_cls = ((BatchHashJoin, BatchHashAggregate) if batch
                               else (HashJoin, HashAggregate))
    delta = RelationScan(Relation.from_pairs(("a", "b"), delta_rows), "P")
    stable = (RelationScan(table.snapshot(), "B") if snapshot
              else TableScan(table, "B"))
    join = join_cls(delta, stable, [col("P.a"), col("P.b")],
                    [col("B.K"), col("B.T")], build_side)
    argument = None if function == "count*" else col("B.W")
    return aggregate_cls(join, [col("P.a"), col("P.b")],
                         [AggregateSpec(function.rstrip("*"), argument, "out")])


def vector_table(rows):
    """A columnar ``B`` holding *rows* in its vector form (when the data
    allow), the way a with+ loop leaves its tables."""
    table = Table("B", STABLE_SCHEMA, storage="columnar")
    vectors = [stable_table(rows).rows.array(j) for j in range(3)]
    if any(vector is None for vector in vectors):
        table.insert_many(rows)
    else:
        table.insert_relation(Relation.from_batch(
            STABLE_SCHEMA, blocks.ArrayColumns(vectors)))
    return table


pair_keys = st.one_of(st.integers(0, 4), st.none(), st.booleans(),
                      st.integers(0, 4).map(float),
                      st.sampled_from([2 ** 40, -(2 ** 40), 2 ** 63 - 1]))


@given(delta_rows=st.lists(st.tuples(pair_keys, pair_keys), max_size=10),
       stable_rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                      floats), max_size=10),
       function=st.sampled_from(["sum", "min", "max", "count", "count*"]),
       build_side=st.sampled_from(["left", "right"]),
       snapshot=st.booleans())
@settings(max_examples=200, deadline=None)
def test_pair_shape_matches_tuple_operators(delta_rows, stable_rows, function,
                                            build_side, snapshot):
    table = vector_table(stable_rows)
    expected = outcome(pair_plan(False, delta_rows, table, function,
                                 build_side, snapshot))
    got = outcome(pair_plan(True, delta_rows, table, function, build_side,
                            snapshot))
    assert got == expected


@pytest.fixture
def pair_kernel_runs(monkeypatch):
    """Which packed-key kernels produced a result: ``"probe"`` per
    SortedIndex probe, ``"group"`` per array aggregate (False: declined)."""
    runs = []
    probe = blocks.SortedIndex.probe
    single = BatchHashAggregate._array_aggregate

    def probing(self, keys):
        runs.append("probe")
        return probe(self, keys)

    def grouping(self, *args):
        result = single(self, *args)
        runs.append(("group", result is not None))
        return result

    monkeypatch.setattr(blocks.SortedIndex, "probe", probing)
    monkeypatch.setattr(BatchHashAggregate, "_array_aggregate", grouping)
    return runs


CLEAN_PAIRS = [(0, 1), (1, 1), (1, 2), (3, 2), (0, 1)]

#: name -> (delta rows, stable rows, expected kernel runs): each edge of
#: the packed-key envelope in the two-key plan, and the result still the
#: tuple operators'.
PAIR_ENVELOPE = {
    "two int keys": (CLEAN_PAIRS, CLEAN_STABLE, ["probe", ("group", True)]),
    "probe keys outside the build's packing": (
        CLEAN_PAIRS + [(9, 9), (-(2 ** 63), 2 ** 63 - 1)], CLEAN_STABLE,
        ["probe", ("group", True)]),
    "null in a key": (CLEAN_PAIRS + [(None, 1)], CLEAN_STABLE,
                      [("group", False)]),
    "bool key": (CLEAN_PAIRS + [(True, 1)], CLEAN_STABLE,
                 [("group", False)]),
    "float key": (CLEAN_PAIRS + [(1.0, 1)], CLEAN_STABLE,
                  [("group", False)]),
    "key spans past 2**62": (CLEAN_PAIRS + [(2 ** 40, -(2 ** 40))],
                             CLEAN_STABLE + [(2 ** 40, -(2 ** 40), 1.0)],
                             [("group", False)]),
}


@pytest.mark.parametrize("case", sorted(PAIR_ENVELOPE))
@pytest.mark.parametrize("snapshot", [False, True],
                         ids=["table", "snapshot"])
def test_pair_envelope_edges(case, snapshot, pair_kernel_runs):
    delta_rows, stable_rows, expected_runs = PAIR_ENVELOPE[case]
    table = vector_table(stable_rows)
    expected = outcome(pair_plan(False, delta_rows, table, "sum",
                                 snapshot=snapshot))
    assert outcome(pair_plan(True, delta_rows, table, "sum",
                             snapshot=snapshot)) == expected
    assert pair_kernel_runs == expected_runs


def test_filter_hands_on_typed_columns():
    """k-truss's ``SUP.c >= k`` over a batch-backed relation: the
    selection gathers typed columns, so the projection above it ends the
    pipeline as vectors."""
    table = vector_table(CLEAN_STABLE)
    scan = RelationScan(table.snapshot(), "B")

    def plan(batch):
        filter_cls, project_cls = ((BatchFilter, BatchProject) if batch
                                   else (Filter, Project))
        kept = filter_cls(scan, BinaryOp(">=", col("B.W"), Literal(1.0)))
        return project_cls(kept, [(col("B.K"), "K"), (col("B.T"), "T")])

    result = plan(True).execute()
    assert identity(result.rows) == outcome(plan(False))
    assert result.batch is not None


# -- algorithms: best == default, byte for byte ---------------------------------
# ("default" here is REFERENCE_PROFILE, the row-path oracle.)


def repr_rows(engine, sql):
    return [repr(row) for row in engine.execute(sql).rows]


def test_fixpoints_best_equals_default():
    best, graph = fixpoint_engine(nodes=120)
    default, _ = fixpoint_engine(nodes=120, **REFERENCE_PROFILE)
    for name, sql in fixpoint_statements(graph).items():
        assert repr_rows(best, sql) == repr_rows(default, sql), name


def test_the_reference_profile_runs_no_array_kernel(monkeypatch):
    """The oracle is independent of the array engine by what it runs:
    ``REFERENCE_PROFILE`` builds no typed vector for PR, WCC, SSSP, TC or
    k-truss, while ``Engine()`` builds them (which shows the spy works)."""
    built = []
    original = blocks.ArrayVector.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(blocks.ArrayVector, "__init__", counting)
    directed = preferential_attachment(60, 3.0, directed=True, seed=5)
    undirected = preferential_attachment(50, 6.0, directed=False, seed=2)
    dag = random_dag(60, 2.0, seed=1)
    counts = []
    for make_engine in (reference_engine, Engine):
        built.clear()
        pagerank.run_sql(make_engine("oracle"), directed)
        wcc.run_sql(make_engine("oracle"), directed)
        bellman_ford.run_sql(make_engine("oracle"), directed, 0)
        tc.run_sql(make_engine("oracle"), dag)
        ktruss.run_sql(make_engine("oracle"), undirected)
        counts.append(len(built))
    assert counts[0] == 0
    assert counts[1] > 0


SQL_ALGORITHMS = sorted(key for key, info in ALGORITHMS.items()
                        if info.has_sql)


def value_identity(values):
    """An algorithm's ``{node or edge: value}`` as comparable cells that
    tell ``1`` from ``1.0`` (see :func:`identity`)."""
    return sorted(identity([(repr(key), value)
                            for key, value in values.items()]))


@pytest.mark.parametrize("key", SQL_ALGORITHMS)
def test_every_registry_algorithm_best_equals_default(key, monkeypatch):
    """All SQL algorithms of the registry, ``best`` against the reference
    profile: iterations and what every iteration's combine wrote — the
    MM-join shapes (APSP, FW, SR, MCL) included, which group and join on
    two columns.  Values are byte-identical to the same cost-based plans
    on the batch operators' row loops; against the dialect planner's join
    order, float sums may associate differently (HITS, MCL), so there
    they agree to rounding."""
    info = ALGORITHMS[key]
    graph = (random_dag(50, 2, seed=3) if info.needs_dag
             else preferential_attachment(60, 3, seed=3))
    best = info.run_sql(Engine("oracle"), graph)
    with monkeypatch.context() as patch:
        patch.setattr(batch, "_block_eligible", lambda node: False)
        same_plans = info.run_sql(Engine("oracle"), graph)
    default = info.run_sql(reference_engine("oracle"), graph)
    assert value_identity(best.values) == value_identity(same_plans.values)
    assert best.values.keys() == default.values.keys()
    for node, value in default.values.items():
        assert type(best.values[node]) is type(value)
        assert best.values[node] == pytest.approx(value, rel=1e-9), node
    for other in (same_plans, default):
        assert best.iterations == other.iterations
        assert [(s.inserted, s.overwritten) for s in best.per_iteration] \
            == [(s.inserted, s.overwritten) for s in other.per_iteration]


def test_closures_best_equals_default():
    dag = random_dag(60, 2.0, seed=1)
    undirected = preferential_attachment(50, 6.0, directed=False, seed=2)
    for graph, sql, symmetric in ((dag, tc.sql(), False),
                                  (undirected, ktruss.sql(3), True)):
        results = []
        for kwargs in ({}, REFERENCE_PROFILE):
            engine = Engine("oracle", **kwargs)
            load_graph(engine, graph)
            if symmetric:
                wcc.prepare_symmetric_edges(engine)
            # UNION / keyless union-by-update results are sets: the row
            # order follows the plan, the rows themselves must not differ.
            results.append(sorted(repr_rows(engine, sql)))
        assert results[0] == results[1]
        assert results[0]


# -- the loop on vectors: UNION combine and what stays unbuilt ------------------

UNION = SimpleNamespace(union_kind=UnionKind.UNION)
PAIRS = Schema((Column("F", SqlType.INTEGER), Column("T", SqlType.INTEGER)))


class SetPathExecutor(RecursiveExecutor):
    """The UNION combine on the set path only: the reference the array
    combine is held to."""

    def _union_arrays(self, table, deltas):
        return None


def batch_relation(rows, schema=PAIRS):
    """*rows* the way a block-pipeline plan root hands them over."""
    return Relation.from_batch(schema, blocks.RowsColumns(rows,
                                                          schema.arity))


#: A step of :func:`union_log` that is not a combine: a foreign delete of
#: every row whose T lies outside 0..3, narrowing the packed key space.
PRUNE = "prune"


def union_log(executor_cls, table, steps):
    """``(changed, inserted, working rows)`` per combine (a step listing
    its deltas), the count :data:`PRUNE` steps removed, then the table —
    or the error a combine raises."""
    engine = Engine("oracle")
    executor = executor_cls(engine.database, engine.dialect, engine.policy)
    log = []
    try:
        for deltas in steps:
            if deltas == PRUNE:
                log.append(table.delete_where(lambda row: not 0 <= row[1] <= 3))
                continue
            changed, working, counts = executor._combine(
                UNION, table, table.snapshot(), deltas)
            log.append((changed, counts.inserted, identity(working.rows)))
    except Exception as error:  # compared, not swallowed
        log.append((type(error).__name__, str(error)))
    return log, identity(table.rows)


def union_table(rows, schema=PAIRS, **kwargs):
    table = Table("R", schema, storage="columnar", **kwargs)
    table.insert_many(rows)
    return table


union_values = st.one_of(st.integers(0, 6), st.sampled_from(
    [2 ** 40, -(2 ** 40), 2 ** 63 - 1, -(2 ** 63)]))
union_pairs = st.tuples(st.integers(0, 6), union_values)


@given(table_rows=st.lists(union_pairs, max_size=10),
       steps=st.lists(st.one_of(
           st.lists(st.lists(union_pairs, max_size=8), min_size=1,
                    max_size=2),
           st.just(PRUNE)), max_size=5),
       bound=st.sampled_from([12, 48, blocks._BITMAP_LIMIT]))
@settings(max_examples=250, deadline=None)
def test_union_combine_on_arrays_is_the_set_path(table_rows, steps, bound):
    """Contents, row order, counts and the working set, over a sequence
    of combines — keys packed afresh when a batch leaves the kept
    packing, the set path taking over where a batch does not pack.  With
    the bitmap bound drawn low, a repack crosses it (bitmap → sorted
    keys), and a foreign delete narrowing the key space crosses back."""
    steps = [step if step == PRUNE else [batch_relation(rows)
                                         for rows in step]
             for step in steps]
    with mock.patch.object(blocks, "_BITMAP_LIMIT", bound):
        assert union_log(RecursiveExecutor, union_table(table_rows), steps) \
            == union_log(SetPathExecutor, union_table(table_rows), steps)


@pytest.fixture
def union_runs(monkeypatch):
    """Per UNION combine, the key set it ran on arrays against —
    ``"bitmap"`` or ``"sorted"`` — or None where it declined."""
    runs = []
    original = RecursiveExecutor._union_arrays

    def recording(self, table, deltas):
        result = original(self, table, deltas)
        if result is None:
            runs.append(None)
        else:
            bitmap = self._union_keys[3].dtype == bool
            runs.append("bitmap" if bitmap else "sorted")
        return result

    monkeypatch.setattr(RecursiveExecutor, "_union_arrays", recording)
    return runs


BASE_PAIRS = [(0, 1), (1, 2), (2, 3)]
DOUBLES = Schema((Column("F", SqlType.INTEGER), Column("T", SqlType.DOUBLE)))

#: name -> (table, delta batches, key set per combine — None where the
#: set path ran): one case per edge of the UNION combine's envelope.
UNION_ENVELOPE = {
    "int pairs": (lambda: union_table(BASE_PAIRS),
                  lambda: [[batch_relation([(1, 3), (0, 1), (1, 3)])]],
                  ["bitmap"]),
    "a batch outside the kept packing": (
        lambda: union_table(BASE_PAIRS),
        lambda: [[batch_relation([(0, 3)])], [batch_relation([(9, 9)])]],
        ["bitmap", "bitmap"]),
    # (0, 0) and (0, top) pack into top + 1 slots
    "packed space at the bitmap bound": (
        lambda: union_table([(0, 0)]),
        lambda: [[batch_relation([(0, blocks._BITMAP_LIMIT - 1), (0, 0)])]],
        ["bitmap"]),
    "one slot past it": (
        lambda: union_table([(0, 0)]),
        lambda: [[batch_relation([(0, blocks._BITMAP_LIMIT), (0, 0)])]],
        ["sorted"]),
    "keys spanning past 2**62": (
        lambda: union_table(BASE_PAIRS),
        lambda: [[batch_relation([(2 ** 62, -(2 ** 62))])]], [None]),
    "float delta column": (lambda: union_table(BASE_PAIRS),
                           lambda: [[batch_relation([(1, 3.0)])]], [None]),
    "DOUBLE table column": (
        lambda: union_table([(0, 1.0)], DOUBLES),
        lambda: [[batch_relation([(1, 2.0)], DOUBLES)]], [None]),
    "rows-backed delta": (
        lambda: union_table(BASE_PAIRS),
        lambda: [[Relation(PAIRS, [(1, 3)])]], [None]),
    # an empty table holds zero-length vectors of its column types
    "empty table": (lambda: union_table([]),
                    lambda: [[batch_relation([(1, 3)])]], ["bitmap"]),
    "key constraint": (
        lambda: union_table(BASE_PAIRS, Schema(PAIRS.columns, ("F",))),
        lambda: [[batch_relation([(5, 3)])]], [None]),
    "delta of another arity": (
        lambda: union_table(BASE_PAIRS),
        lambda: [[batch_relation([(1, 3, 4)], Schema(
            PAIRS.columns + (Column("W", SqlType.INTEGER),)))]], [None]),
}


@pytest.mark.parametrize("case", sorted(UNION_ENVELOPE))
def test_union_envelope_edges(case, union_runs):
    make_table, make_batches, expected_runs = UNION_ENVELOPE[case]
    expected = union_log(SetPathExecutor, make_table(), make_batches())
    union_runs.clear()
    assert union_log(RecursiveExecutor, make_table(), make_batches()) \
        == expected
    assert union_runs == expected_runs


def test_union_key_set_crosses_the_bitmap_bound_and_back(union_runs):
    """A batch outside the kept packing repacks it past the bound, so the
    bitmap gives way to sorted keys; a foreign delete narrowing the key
    space forces a rebuild, and the bitmap is back."""
    steps = [[batch_relation([(0, 3)])], [batch_relation([(1, 2 ** 40)])],
             [batch_relation([(2, 2 ** 40), (1, 2 ** 40)])], PRUNE,
             [batch_relation([(1, 1), (0, 3)])]]
    expected = union_log(SetPathExecutor, union_table(BASE_PAIRS), steps)
    union_runs.clear()
    assert union_log(RecursiveExecutor, union_table(BASE_PAIRS), steps) \
        == expected
    assert union_runs == ["bitmap", "sorted", "sorted", "bitmap"]
    assert expected[0][3] == 2  # the delete removed both far rows


def test_union_with_a_secondary_index_takes_the_set_path(union_runs):
    table = union_table(BASE_PAIRS)
    table.create_index("ix", ["F"])
    log, rows = union_log(RecursiveExecutor, table,
                          [[batch_relation([(1, 3), (0, 1)])]])
    assert log == [(True, 1, identity([(1, 3)]))]
    assert union_runs == [None]
    assert table.indexes["ix"].lookup((1,)) == [(1, 2), (1, 3)]


@pytest.mark.parametrize("name", ["tc", "ktruss"])
def test_closures_build_no_row_tuples_inside_the_loop(name, monkeypatch):
    """Under ``best`` TC's UNION and k-truss's two-key join, group-by,
    filter and keyless union-by-update all stay on vectors: the statement
    builds no row list at all, and the one its reader builds is the
    result's."""
    if name == "tc":
        graph, sql = random_dag(60, 2.0, seed=1), tc.sql()
    else:
        graph = preferential_attachment(50, 6.0, directed=False, seed=2)
        sql = ktruss.sql(3)
    engine = Engine("oracle")
    load_graph(engine, graph)
    wcc.prepare_symmetric_edges(engine)
    engine.execute(sql)  # warm the base tables' array views and indexes
    built = []

    def spy(owner, method, label):
        original = getattr(owner, method)

        def recording(self, *args):
            # (the engine publishes iteration statistics as __iterations__)
            if not getattr(self, "name", "").startswith("__"):
                built.append(label or type(self).__name__)
            return original(self, *args)

        monkeypatch.setattr(owner, method, recording)

    for batch_cls in (blocks.ArrayColumns, blocks.JoinColumns,
                      blocks.DerivedColumns, blocks.FilteredColumns,
                      blocks.ConcatColumns, blocks.SubsetColumns,
                      blocks.StoreColumns):
        spy(batch_cls, "rows", None)
    spy(blocks.RowsColumns, "__init__", "RowsColumns")
    spy(Table, "insert_many", "insert_many")
    result = engine.execute_detailed(sql)
    assert result.iterations > 1
    assert built == []  # the plan root hands its vectors over untupled
    result.relation.rows
    assert built == ["ArrayColumns"]  # the result, read once


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_an_unread_result_outlives_its_sources(storage):
    """A statement whose plan root is ``ArrayColumns`` returns without its
    row tuples; read after its source tables are mutated and the CTE's
    temp table is dropped, it equals the rows read at once."""
    graph = preferential_attachment(40, 3.0, directed=True, seed=4)

    def load(engine):
        load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)

    if storage == "rows":
        engine = engine_over_row_tables(load)
    else:
        engine = Engine("oracle")
        load(engine)
    statements = [wcc.sql(), bellman_ford.sql(0),
                  "select E.F, E.T, 1.0 / D.c as ew from E, (select F,"
                  " count(*) as c from E group by F) as D where E.F = D.F"]
    unread = [engine.execute(sql) for sql in statements]
    at_once = [engine.execute(sql).rows for sql in statements]
    if storage == "columnar":
        assert all(isinstance(relation.batch, blocks.ArrayColumns)
                   and relation._rows is None for relation in unread)
    database = engine.database
    database.table("E").delete_by_key([(u, v) for u, v, _ in
                                       list(graph.weighted_edges())[:20]],
                                      ("F", "T"))
    database.table("E").insert_many([(0, 39, 5.0), (39, 1, 0.5)])
    database.table("ES").insert_many([(0, 39, 5.0), (39, 0, 5.0)])
    database.table("V").delete_by_key([(0,), (1,)], ("ID",))
    for name in ("C", "D"):
        database.drop_table(name, if_exists=True)
    engine.execute(wcc.sql())  # a new temp table C, filled anew
    assert [relation.rows for relation in unread] == at_once


# -- key plans ------------------------------------------------------------------


@pytest.fixture
def plan_builds(monkeypatch):
    """Counts the key plans built, by kind: ``probe`` (a join's probe
    pairs), ``group`` (an aggregate's grouping), ``merge`` (the
    union-by-update merge's slot map)."""
    builds = Counter()
    for owner, name, kind in ((batch, "probe_plan", "probe"),
                              (batch, "group_plan", "group"),
                              (blocks, "merge_plan", "merge")):
        def counting(*args, _original=getattr(owner, name), _kind=kind,
                     **kwargs):
            builds[_kind] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return builds


@pytest.mark.parametrize("name", ["pr", "sssp"])
def test_constant_and_case_initial_queries_append_vectors(name, monkeypatch):
    """PageRank's ``select ID, 0.0 from V`` and SSSP's ``case when ID = 0
    then 0.0 else 1e18 end`` are evaluated on vectors: the recursive
    table's first contents reach ``ColumnStore.append_vectors``, and no
    row ``insert_many`` runs."""
    engine, graph = fixpoint_engine()
    appended, inserted = [], []
    append_vectors, insert_many = ColumnStore.append_vectors, \
        Table.insert_many

    def appending(self, vectors):
        result = append_vectors(self, vectors)
        appended.append(result)
        return result

    def inserting(self, rows):
        inserted.append(self.name)
        return insert_many(self, rows)

    monkeypatch.setattr(ColumnStore, "append_vectors", appending)
    monkeypatch.setattr(Table, "insert_many", inserting)
    sql = fixpoint_statements(graph)[name]
    rows = repr_rows(engine, sql)
    assert appended and all(appended)
    assert not [table for table in inserted if not table.startswith("__")]
    default, _ = fixpoint_engine(**REFERENCE_PROFILE)
    assert rows == repr_rows(default, sql)


LITERAL_CASES = {
    "int column, int key, float arms": ([(0,), (1,), (2,)], "0", "0.0",
                                        "1e18"),
    "int column, float key": ([(0,), (1,)], "1.0", "2.5", "-0.0"),
    "int arms": ([(0,), (1,)], "1", "7", "-3"),
    "float column, int key": ([(0.0,), (1.5,), (1.0,)], "1", "1.0", "2.0"),
    "mixed int/float column": ([(1,), (1.0,), (2.5,)], "1", "0.5", "4.0"),
    "NULL in the column": ([(0,), (None,), (2,)], "2", "1.0", "2.0"),
    "int and float arms": ([(0,), (1,)], "0", "0", "1.5"),
    "NULL arm": ([(0,), (1,)], "0", "NULL", "1.5"),
    "key outside int64": ([(0,), (1,)], str(2 ** 64), "1.0", "2.0"),
    "bool column": ([(True,), (False,)], "1", "1.0", "2.0"),
    "text column": ([("a",), ("b",)], "'a'", "1.0", "2.0"),
    "no rows": ([], "0", "1.0", "2.0"),
}


@pytest.mark.parametrize("case", sorted(LITERAL_CASES))
def test_literal_case_matches_the_row_path(case):
    """``CASE WHEN c = key THEN a ELSE b END`` over a columnar table, as
    the block projection computes it (on vectors where both arms are ints
    or both floats, else on lists) and as the row path does."""
    rows, key, then, otherwise = LITERAL_CASES[case]
    engine = Engine("oracle")
    default = reference_engine()
    for each in (engine, default):
        each.database.register("T", Relation.from_pairs(("c",), rows))
    sql = (f"select c, case when c = {key} then {then} else {otherwise}"
           " end as v from T")
    assert identity(engine.execute(sql).rows) \
        == identity(default.execute(sql).rows)


@pytest.mark.parametrize("name", ["pr", "sssp"])
def test_each_key_plan_is_built_at_most_once_per_statement(name, plan_builds):
    """On ``Engine()`` the 15-iteration PageRank statement and SSSP build
    their probe pairs, grouping and merge map once: from the second
    iteration on, R's key vector is the object the plans were built from
    (the merge hands it back when no key is appended)."""
    engine, graph = fixpoint_engine()
    plan_builds.clear()  # loading the graph ran aggregates of its own
    result = engine.execute_detailed(fixpoint_statements(graph)[name])
    assert result.iterations > 3
    assert plan_builds == {"probe": 1, "group": 1, "merge": 1}


def ring_graph(size=8):
    """A directed ring with two chords: every vertex reachable from 0,
    the farthest ``size - 1`` steps away."""
    graph = Graph(directed=True)
    for node in range(size):
        graph.add_edge(node, (node + 1) % size, 0.5)
    graph.add_edge(0, size // 2, 0.25)
    graph.add_edge(size - 1, 2, 0.75)
    return graph


#: A PageRank-like fold from vertex 0 alone: R gains keys for a few
#: iterations, then keeps them while the values move until the cap.
GROWING_SQL = """
with P(ID, W) as (
  (select ID, 1.0 from V where ID = 0)
  union by update ID
  (select E.T, 0.5 * sum(P.W * E.ew) + 0.25 from P, E where P.ID = E.F
   group by E.T)
  maxrecursion 16
)
select ID, W from P
"""


def test_key_plans_are_rebuilt_while_keys_grow_then_reused(plan_builds):
    graph = ring_graph()
    best, default = Engine("oracle"), reference_engine()
    for engine in (best, default):
        load_graph(engine, graph)
    plan_builds.clear()
    result = best.execute_detailed(GROWING_SQL)
    assert result.iterations == 16
    grown = [stat.inserted for stat in result.per_iteration]
    assert grown[0] and not grown[-1]
    # One plan per key vector R held: the initial one, and one per
    # iteration that appended keys.
    appending = sum(1 for inserted in grown if inserted)
    for kind in ("probe", "group", "merge"):
        assert plan_builds[kind] == appending + 1, kind
    assert [repr(row) for row in result.relation.rows] \
        == repr_rows(default, GROWING_SQL)


def test_key_plans_are_rebuilt_after_apply_batch_mutates_E(plan_builds):
    """The cached SSSP statement rerun after a streaming batch mutated E:
    the build store moved on (new key vector, new version), so the probe
    pairs are rebuilt, and the result is a cold engine's."""
    engine, graph = fixpoint_engine()
    manager = StreamingManager(engine)
    manager.attach_graph(graph, load=False)
    sql = fixpoint_statements(graph)["sssp"]
    engine.execute(sql)
    manager.apply_batch(inserts={"E": [(0, 7, 0.5), (3, 11, 2.0)]},
                        deletes={"E": [next(iter(graph.edges()))[:2]]})
    plan_builds.clear()
    rows = repr_rows(engine, sql)
    assert plan_builds["probe"] == 1
    cold = reference_engine()
    load_graph(cold, manager.graph)
    assert rows == repr_rows(cold, sql)


WCC_SEED = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.INTEGER))


def test_a_warm_start_seed_in_another_row_order(plan_builds):
    """The same WCC warm start seeded in V order, then reversed: the
    second seed's key vector is another object, so the statement builds
    its own plans instead of pairing keys by the first seed's order."""
    best, graph = fixpoint_engine()
    default, _ = fixpoint_engine(**REFERENCE_PROFILE)
    sql = fixpoint_statements(graph)["wcc"]
    best.execute(sql)  # plans cached: each run below builds key plans only
    labels = [(node, node if node % 3 else 0) for node in graph.nodes()]
    for seed_rows in (labels, labels[::-1]):
        seed = Relation.from_batch(WCC_SEED, blocks.ArrayColumns(
            [exact_array(list(column)) for column in zip(*seed_rows)]))
        plan_builds.clear()
        got = best.execute_detailed(sql, warm_start={"C": WarmStart(seed)})
        want = default.execute_detailed(
            sql, warm_start={"C": WarmStart(Relation(WCC_SEED, seed_rows))})
        assert [repr(row) for row in got.relation.rows] \
            == [repr(row) for row in want.relation.rows]
        assert plan_builds["probe"] == 1


@pytest.mark.parametrize("name", ["tc", "ktruss"])
def test_union_fixpoints_keep_no_key_plan(name, monkeypatch):
    """TC's R grows every round and k-truss updates without a key: their
    joins and aggregates build key plans and drop them — none is alive
    after the statement."""
    if name == "tc":
        graph, sql = random_dag(60, 2.0, seed=1), tc.sql()
    else:
        graph = preferential_attachment(50, 6.0, directed=False, seed=2)
        sql = ktruss.sql(3)
    engine = Engine("oracle")
    load_graph(engine, graph)
    wcc.prepare_symmetric_edges(engine)
    alive = []
    for owner, name_ in ((batch, "probe_plan"), (batch, "group_plan"),
                         (blocks, "merge_plan")):
        def watching(*args, _original=getattr(owner, name_), **kwargs):
            plan = _original(*args, **kwargs)
            if plan is not None:
                alive.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(owner, name_, watching)
    result = engine.execute_detailed(sql)
    assert result.iterations > 1
    gc.collect()
    assert alive  # the spies saw the plans being built
    assert not [ref for ref in alive if ref() is not None]
    default = reference_engine()
    load_graph(default, graph)
    wcc.prepare_symmetric_edges(default)
    # Set results: the row order follows the plan, the rows must not.
    assert sorted(repr(row) for row in result.relation.rows) \
        == sorted(repr_rows(default, sql))


def test_a_kernel_bug_surfaces_from_a_pagerank_statement(monkeypatch):
    """Only values SQL rejects send the aggregate back to the row path: a
    kernel raising anything else is a bug, and the statement fails with
    it instead of being replayed on rows."""
    engine, graph = fixpoint_engine()

    def broken(*args, **kwargs):
        raise RuntimeError("array_grouped bug")

    monkeypatch.setattr(batch, "array_grouped", broken)
    with pytest.raises(RuntimeError, match="array_grouped bug"):
        engine.execute(fixpoint_statements(graph)["pr"])


def test_a_join_kernel_bug_surfaces_from_a_tc_statement(monkeypatch):
    """The join, too, replays the row path on values SQL rejects only: a
    bug in its kernel fails the TC statement instead of being replayed on
    rows."""
    engine = Engine("oracle")
    load_graph(engine, random_dag(40, 2.0, seed=5))

    def broken(self):
        raise RuntimeError("join kernel bug")

    monkeypatch.setattr(batch.BatchHashJoin, "_block_source", broken)
    with pytest.raises(RuntimeError, match="join kernel bug"):
        engine.execute(tc.sql())


def test_a_projection_kernel_bug_surfaces_from_a_pagerank_statement(
        monkeypatch):
    """The projection, too, replays the row path on values SQL rejects
    only: a bug in its block form fails the statement instead of being
    replayed on rows."""
    engine, graph = fixpoint_engine()

    def broken(*args, **kwargs):
        raise RuntimeError("projection kernel bug")

    monkeypatch.setattr(batch, "DerivedColumns", broken)
    with pytest.raises(RuntimeError, match="projection kernel bug"):
        engine.execute(fixpoint_statements(graph)["pr"])


def test_a_filter_kernel_bug_surfaces_from_a_scan(monkeypatch):
    """So does the filter: a bug in its block form fails the statement."""
    engine = Engine("oracle")
    load_graph(engine, random_dag(40, 2.0, seed=5))

    def broken(*args, **kwargs):
        raise RuntimeError("filter kernel bug")

    monkeypatch.setattr(batch, "FilteredColumns", broken)
    with pytest.raises(RuntimeError, match="filter kernel bug"):
        engine.execute("select F, T from E where F < 20")


def test_a_mask_kernel_bug_surfaces_from_a_scan(monkeypatch):
    """The filter's array mask is held to the same rule: a bug raised
    inside it fails the statement instead of falling back to the list
    predicate or the row path."""
    engine = Engine("oracle")
    load_graph(engine, random_dag(40, 2.0, seed=5))

    def broken(*args, **kwargs):
        raise RuntimeError("mask kernel bug")

    monkeypatch.setattr(blocks, "_literal_mask", broken)
    with pytest.raises(RuntimeError, match="mask kernel bug"):
        engine.execute("select F, T from E where F < 20")


# -- ad-hoc SELECTs: the aggregate and the filter on arrays ---------------------

GROUP_SCHEMA = Schema(tuple(Column(name, SqlType.DOUBLE)
                            for name in ("k0", "k1", "a", "b")))

#: Argument values on either side of every aggregate edge: ties, signed
#: zeros, ints at 2**53 (no float64 image beside floats) and near 2**62
#: (an int64 sum overflows).
AGG_INTS = st.one_of(st.integers(-3, 3),
                     st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                                      2 ** 62, 2 ** 62 + 1, -(2 ** 62)]))
AGG_FLOATS = st.one_of(st.integers(-4, 4).map(lambda v: v / 4),
                       st.sampled_from([-0.0, 0.0, 1e308, 2.0 ** 53]))
agg_columns = st.sampled_from(["ints", "floats", "mixed", "nullable"])
AGG_FUNCTIONS = ["count*", "count", "sum", "min", "max", "avg"]


def agg_value(kind):
    return {"ints": AGG_INTS, "floats": AGG_FLOATS,
            "mixed": st.one_of(AGG_INTS, AGG_FLOATS),
            "nullable": st.one_of(st.integers(-3, 3), st.none())}[kind]


def aggregate_pair(rows, n_keys, specs):
    """``select k.., f(x).. from R group by k..`` as a batch aggregate over
    a batch-backed relation, and as the tuple operator over its rows."""
    keys = [col(f"R.k{i}") for i in range(n_keys)]
    aggregates = [AggregateSpec(function.rstrip("*"),
                                None if function == "count*"
                                else col(f"R.{column}"), f"out{i}")
                  for i, (function, column) in enumerate(specs)]
    batch_scan = RelationScan(Relation.from_batch(
        GROUP_SCHEMA, blocks.RowsColumns(rows, 4)), "R")
    tuple_scan = RelationScan(Relation(GROUP_SCHEMA, rows), "R")
    return (BatchHashAggregate(batch_scan, keys, aggregates),
            HashAggregate(tuple_scan, keys, aggregates))


@given(data=st.data(), n_keys=st.integers(0, 2),
       specs=st.lists(st.tuples(st.sampled_from(AGG_FUNCTIONS),
                                st.sampled_from(["a", "b"])),
                      min_size=1, max_size=4),
       kinds=st.tuples(agg_columns, agg_columns))
@settings(max_examples=400, deadline=None)
def test_the_array_aggregate_is_the_tuple_aggregate(data, n_keys, specs,
                                                    kinds):
    """Any number of aggregates over 0, 1 or 2 plain key columns: the
    batch aggregate's rows are the tuple operator's, ``repr`` for
    ``repr`` and in group order — on arrays inside the envelope, on the
    row loops outside it."""
    keys = st.one_of(st.integers(0, 3), st.sampled_from([2 ** 40]))
    rows = data.draw(st.lists(st.tuples(keys, keys, agg_value(kinds[0]),
                                        agg_value(kinds[1])),
                              max_size=12))
    batch_plan, tuple_plan = aggregate_pair(rows, n_keys, specs)
    assert [repr(row) for row in batch_plan.execute().rows] \
        == [repr(row) for row in tuple_plan.execute().rows]


AGG_RUNS = {
    # name -> (rows, keys, aggregates, answered on arrays)
    "three aggregates, one key": (
        [(0, 0, 1, 0.5), (1, 0, 2, 0.25), (0, 0, 3, 1.5)], 1,
        [("count*", "a"), ("sum", "b"), ("min", "a")], True),
    "avg of ints": ([(0, 0, 1, 0.5), (0, 0, 2, 0.25)], 1,
                    [("avg", "a")], True),
    "avg of floats, two keys": ([(0, 1, 1, 0.5), (0, 1, 2, 0.25)], 2,
                                [("avg", "b"), ("max", "b")], True),
    "key-less count and sum": ([(0, 0, 1, 0.5), (1, 1, 2, 0.25)], 0,
                               [("count*", "a"), ("sum", "a"),
                                ("count", "b")], True),
    "key-less count of a column holding a NULL": (
        [(0, 0, None, 0.5), (1, 1, 2, 0.25)], 0,
        [("count*", "a"), ("count", "a")], False),
    "avg of ints whose sum has no float64 image": (
        [(0, 0, 2 ** 52, 0.5), (0, 0, 2 ** 52, 0.5)], 1,
        [("avg", "a")], False),
    "avg over a negative zero": ([(0, 0, 1, -0.0), (0, 0, 1, 2.0)], 0,
                                 [("avg", "b")], False),
    "one declining aggregate declines them all": (
        [(0, 0, 2 ** 62, 0.5), (0, 0, 2 ** 62, 0.5)], 1,
        [("count*", "a"), ("sum", "a")], False),
}


@pytest.mark.parametrize("case", sorted(AGG_RUNS))
def test_aggregate_envelope_edges(case, array_kernel_runs):
    rows, n_keys, specs, on_arrays = AGG_RUNS[case]
    batch_plan, tuple_plan = aggregate_pair(rows, n_keys, specs)
    assert [repr(row) for row in batch_plan.execute().rows] \
        == [repr(row) for row in tuple_plan.execute().rows]
    assert array_kernel_runs == [on_arrays]


@pytest.mark.parametrize("n_keys, expected", [(0, ["(0, None, None)"]),
                                              (1, [])])
def test_an_empty_input_answers_the_empty_result(n_keys, expected,
                                                 monkeypatch):
    """Key-less, an empty input is ``(0,)`` / ``(None,)`` straight away —
    the row loops never read the child again; keyed, it is no rows."""
    batch_plan, tuple_plan = aggregate_pair(
        [], n_keys, [("count*", "a"), ("sum", "a"), ("avg", "b")])
    if n_keys == 0:
        monkeypatch.setattr(BatchHashAggregate, "_row_aggregate", None)
    assert [repr(row) for row in batch_plan.execute().rows] == expected
    assert [repr(row) for row in tuple_plan.execute().rows] == expected


MASK_OPS = ["=", "<>", "<", "<=", ">", ">="]
MASK_INTS = st.one_of(st.integers(-3, 3),
                      st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                                       -(2 ** 53), -(2 ** 53) - 1,
                                       2 ** 63 - 1, -(2 ** 63)]))
MASK_FLOATS = st.one_of(st.integers(-3, 3).map(float),
                        st.sampled_from([0.5, -0.0, 2.0 ** 53,
                                         float("inf"), -float("inf")]))
MASK_LITERALS = st.one_of(
    MASK_INTS, MASK_FLOATS,
    st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63, -(2 ** 63) - 1,
                     float("nan"), True, "x", None]))
mask_columns = st.sampled_from(["ints", "floats", "mixed", "nullable"])


def mask_column(kind):
    return {"ints": MASK_INTS, "floats": MASK_FLOATS,
            "mixed": st.one_of(st.integers(-3, 3), MASK_FLOATS),
            "nullable": st.one_of(st.integers(-3, 3), st.none())}[kind]


def masks_on_arrays(expr, columns) -> bool:
    """The documented envelope of ``compile_mask``."""
    if isinstance(expr, And):
        return all(masks_on_arrays(part, columns) for part in expr.operands)
    left, right = expr.left, expr.right
    if isinstance(left, Literal):
        left, right = right, left
    column = columns[left.index]
    if not has_array_view(column):
        return False
    is_int = set(map(type, column)) == {int}
    peak = max(map(abs, column))
    if isinstance(right, BoundColumn):
        other = columns[right.index]
        if not has_array_view(other):
            return False
        other_int = set(map(type, other)) == {int}
        if is_int == other_int:
            return True
        return (peak if is_int else max(map(abs, other))) < 2 ** 53
    value = right.value
    if type(value) is float:
        return value == value and (not is_int or peak < 2 ** 53)
    if type(value) is not int:
        return False
    return (-(2 ** 63) <= value < 2 ** 63 if is_int
            else abs(value) < 2 ** 53)


@given(data=st.data(), kinds=st.tuples(mask_columns, mask_columns),
       shape=st.sampled_from(["column op literal", "literal op column",
                              "column op column", "and"]))
@settings(max_examples=500, deadline=None)
def test_the_mask_selects_what_the_row_predicate_keeps(data, kinds, shape):
    """``compile_mask`` over int64, float64 and int-flagged float64
    columns, the literal on either side: where it answers (exactly inside
    its envelope), its selection is the rows the row predicate keeps."""
    n = data.draw(st.integers(1, 8))
    columns = [data.draw(st.lists(mask_column(kind), min_size=n,
                                  max_size=n)) for kind in kinds]
    rows = list(zip(*columns))

    def comparison():
        op = data.draw(st.sampled_from(MASK_OPS))
        column = BoundColumn(data.draw(st.integers(0, 1)))
        if shape == "column op column":
            return BinaryOp(op, column, BoundColumn(1 - column.index))
        literal = Literal(data.draw(MASK_LITERALS))
        if shape == "literal op column":
            return BinaryOp(op, literal, column)
        return BinaryOp(op, column, literal)

    expr = (And((comparison(), comparison())) if shape == "and"
            else comparison())
    evaluate = blocks.compile_mask(expr)
    assert evaluate is not None or not masks_on_arrays(expr, columns)
    mask = None if evaluate is None else \
        evaluate(blocks.RowsColumns(rows, 2))
    assert (mask is not None) == masks_on_arrays(expr, columns)
    if mask is not None:
        assert np.flatnonzero(mask).tolist() == [
            i for i, row in enumerate(rows) if expr.evaluate(row) is True]


@pytest.mark.parametrize("sql", [
    "select F, T from E where F > 3 or T > 3",
    "select F, T from E where not (F > 3)",
    "select F, T from E where F is not null",
    "select F, T from E where F in (1, 2, 3)",
])
def test_predicates_without_a_mask_keep_their_list_or_row_path(sql):
    engine = Engine("oracle")
    load_graph(engine, random_dag(30, 2.0, seed=5))
    reference = reference_engine("oracle")
    load_graph(reference, random_dag(30, 2.0, seed=5))
    assert repr_rows(engine, sql) == repr_rows(reference, sql)
    assert "path=array" not in engine.explain_analyze(sql)


def adhoc_statements(n):
    """The six statement shapes of the ad-hoc benchmark workload."""
    return {
        "point": f"select F, T, ew from E where F = {n // 3}",
        "scan_filter": f"select F, T from E where F < {n // 2}"
                       f" and T < {n // 2}",
        "group_agg": "select T, count(*) as c, sum(ew) as s, min(F) as m"
                     " from E group by T",
        "join2": "select count(*) as paths from E as A, E as B"
                 f" where A.T = B.F and A.F < {n // 10}",
        "join4": "select count(*) as paths from E as A, E as B, E as C, V"
                 " where A.T = B.F and B.T = C.F and C.T = V.ID"
                 f" and V.ID < {n // 10}",
        "triangle": "select count(*) as c from E as A, E as B, E as C"
                    " where A.T = B.F and B.T = C.T and C.F = A.F",
    }


def test_adhoc_selects_build_no_rows_below_the_plan_root(monkeypatch):
    """``Engine()`` answers each ad-hoc shape on arrays up to the plan
    root: no join, subset or store batch is drained into row tuples and
    no aggregate row loop runs — and every result is the reference
    profile's, ``repr`` for ``repr``."""
    graph = preferential_attachment(300, 3.0, directed=True, seed=11)
    engine = Engine("oracle")
    reference = reference_engine("oracle")
    load_graph(engine, graph)
    load_graph(reference, graph)
    called = []

    def spy(owner, name):
        original = getattr(owner, name)

        def watching(*args, **kwargs):
            called.append(f"{owner.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, watching)

    for owner, name in [(blocks.JoinColumns, "rows"),
                        (blocks.SubsetColumns, "rows"),
                        (blocks.StoreColumns, "rows"),
                        (BatchHashAggregate, "_row_aggregate")]:
        spy(owner, name)
    for name, sql in adhoc_statements(graph.num_nodes).items():
        got = repr_rows(engine, sql)
        assert called == [], name
        assert got == repr_rows(reference, sql), name
        called.clear()


@pytest.mark.parametrize("path", ["array", "list", "rows"])
def test_explain_analyze_names_the_path_that_answered(path):
    """The Hash Aggregate and Filter lines say which kernel answered:
    typed arrays or the row loops — and for the filter, the list kernels
    (an ``is not null`` has no array mask).  Keys 2**40 apart group on
    arrays too, numbered by ``np.unique``."""
    step = 2 ** 40 if path == "list" else 1

    def load(engine):
        engine.database.register("S", Relation.from_pairs(
            ("K", "W"), [(k * step, float(k)) for k in (0, 1, 1, 2)]))

    if path == "rows":
        engine = engine_over_row_tables(load)
    else:
        engine = Engine("oracle")
        load(engine)
    predicate = "W is not null" if path == "list" else "W > 0.5"
    report = engine.explain_analyze(
        f"select K, count(*) as c from S where {predicate} group by K")
    aggregate, = [line for line in report.splitlines()
                  if "Hash Aggregate" in line]
    filters = [line for line in report.splitlines() if "Filter" in line]
    assert len(filters) == 1
    assert f"path={'array' if path == 'list' else path})" in aggregate, \
        report
    assert f"path={path})" in filters[0], report
    assert "path=" not in engine.explain("select K from S where W > 0.5")
