"""The array-native block pipeline: join -> project -> aggregate on typed
arrays over a cached CSR index.

The row path (tuple executor) is the oracle throughout.  Three layers:

* planner guard — a ``best``-profile with+ branch has no generator-model
  join, and its stable side is indexed once per table state;
* kernels — ``exact_array``, ``CsrIndex`` and ``array_grouped`` against
  the list kernels / plain dict loops they stand in for (numpy only);
* plans — batch plans over a columnar anchor against the same plan built
  from tuple operators, on inputs chosen to sit on and beyond every edge
  of the exactness envelope; run with numpy and with ``blocks._np`` set
  to ``None``.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithms import bellman_ford, ktruss, pagerank, tc, wcc
from repro.core.algorithms.common import load_graph, prepare_transition
from repro.datasets import preferential_attachment
from repro.datasets.generators import random_dag
from repro.relational import Engine
from repro.relational.engine import parse_statement
from repro.relational.expressions import BinaryOp, Literal, col
from repro.relational.physical import (
    BatchHashAggregate,
    BatchHashJoin,
    BatchProject,
    BatchUnionAll,
    HashAggregate,
    HashJoin,
    MergeJoin,
    Project,
    RelationScan,
    TableScan,
    UnionAllOp,
)
from repro.relational.physical import blocks
from repro.relational.physical.blocks import (
    CsrIndex,
    array_grouped,
    csr_index,
    exact_array,
    grouped_count,
    grouped_max,
    grouped_min,
    grouped_sum,
)
from repro.relational.recursive import RecursiveExecutor
from repro.relational.relation import AggregateSpec, Relation
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

BEST = {"executor": "batch", "optimizer": "cost", "storage": "columnar"}

needs_numpy = pytest.mark.skipif(blocks._np is None,
                                 reason="array kernels need numpy")


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_mode(request, monkeypatch):
    """Every plan-level test runs twice: array kernels on, and off the
    way a numpy-less install has them."""
    if request.param == "no-numpy":
        monkeypatch.setattr(blocks, "_np", None)
    elif blocks._np is None:
        pytest.skip("numpy not installed")
    return request.param


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


def fixpoint_engine(nodes=60, **kwargs):
    graph = preferential_attachment(nodes, 3.0, directed=True, seed=5)
    engine = Engine("oracle", **kwargs)
    load_graph(engine, graph)
    prepare_transition(engine)
    wcc.prepare_symmetric_edges(engine)
    return engine, graph


def fixpoint_statements(graph):
    return {"pr": pagerank.sql(graph.num_nodes, 0.85, 15),
            "wcc": wcc.sql(), "sssp": bellman_ford.sql(0)}


def walk(node):
    yield node
    for child in node.children():
        yield from walk(child)


@pytest.mark.parametrize("name", ["pr", "wcc", "sssp"])
def test_best_profile_branch_has_no_generator_model_join(name):
    engine, graph = fixpoint_engine(**BEST)
    executor = RecursiveExecutor(
        engine.database, engine.dialect, engine.policy, mode=engine.mode,
        ubu_strategy=engine._ubu_strategy, temp_indexes=engine.temp_indexes,
        analyze=True)
    executor.execute(parse_statement(fixpoint_statements(graph)[name]))
    branches = [plan for label, plan, _ in executor._analyzed
                if label == "recursive branch"]
    assert branches
    for plan in branches:
        joins = [node for node in walk(plan) if "Join" in node.label]
        assert joins and all(type(j) is BatchHashJoin for j in joins)
        assert not any(isinstance(node, (HashJoin, MergeJoin))
                       for node in walk(plan))
        assert all(j.cached_build and "cached build" in j.detail()
                   for j in joins)


@needs_numpy
def test_stable_side_is_indexed_once_per_table_state(monkeypatch):
    engine, graph = fixpoint_engine(**BEST)
    built = []
    original = CsrIndex.__init__

    def counting(self, keys, base, top):
        built.append(len(keys))
        original(self, keys, base, top)

    monkeypatch.setattr(CsrIndex, "__init__", counting)
    statements = fixpoint_statements(graph)
    result = engine.execute_detailed(statements["pr"])
    assert result.iterations == 15
    assert len(built) == 1  # S.F, once for fifteen probes
    for sql in statements.values():  # a second statement sequence
        engine.execute(sql)
    assert len(built) == 3  # + ES.F and E.F; S.F came from the store cache
    engine.database.table("S").insert((0, 1, 0.5))
    engine.execute(statements["pr"])
    assert len(built) == 4  # the mutation dropped S's index, and only S's


def test_cached_build_survives_on_the_operator_for_row_storage(monkeypatch):
    """Row storage has no store cache: the join keeps its own build index
    while the build input's fingerprint stands."""
    engine, graph = fixpoint_engine(executor="batch", optimizer="cost",
                                    storage="rows")
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


@needs_numpy
@given(column=homogeneous)
@settings(max_examples=300, deadline=None)
def test_exact_array_round_trips_or_declines(column):
    vector = exact_array(column)
    assert (vector is not None) == has_array_view(column)
    if vector is not None:
        assert identity([tuple(vector.tolist())]) == identity([tuple(column)])
        taken = vector.take(blocks._np.arange(len(column))[::-1])
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


@needs_numpy
@given(domain=key_domains, data=st.data())
@settings(max_examples=200, deadline=None)
def test_csr_probe_emits_the_dict_probe_sequence(domain, data):
    low, high = domain
    keys = st.one_of(st.integers(low, min(low + 8, high)),
                     st.integers(low, high))
    build = data.draw(st.lists(keys, max_size=14))
    probe = data.draw(st.lists(st.one_of(keys, st.sampled_from(
        [0, -(2 ** 63), 2 ** 63 - 1])), max_size=14))
    np = blocks._np
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


@needs_numpy
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
    np = blocks._np
    vector = exact_array(column)
    if vector is None:
        return  # no array view: the pipeline never reaches the kernel
    grouped = array_grouped(function, np.array(keys, dtype=np.int64),
                            None if function == "count" else vector)
    declines = not blocks._dense(min(keys), max(keys), n) or (
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
    kernel = {"sum": grouped_sum, "min": grouped_min, "max": grouped_max}
    if function == "count":
        assert got == grouped_count(keys)
    else:
        assert identity(got) == identity(kernel[function](keys, column))


@needs_numpy
def test_array_grouped_int_float_tie_keeps_the_first_object():
    np = blocks._np
    keys = np.array([7, 7, 8, 8, 9], dtype=np.int64)
    vector = exact_array([3, 3.0, 3.0, 3, 4])
    group_keys, aggregate = array_grouped("min", keys, vector)
    assert identity([tuple(aggregate.tolist())]) == \
        identity([(3, 3.0, 4)])
    group_keys, aggregate = array_grouped("max", keys, vector)
    assert identity([tuple(aggregate.tolist())]) == \
        identity([(3, 3.0, 4)])
    assert group_keys.tolist() == [7, 8, 9]


@needs_numpy
def test_array_grouped_first_seen_group_order_and_sparse_keys_decline():
    np = blocks._np
    keys = [5, 2, 5, 9, 2, 0]
    grouped = array_grouped("count", np.array(keys, dtype=np.int64), None)
    assert list(zip(grouped[0].tolist(), grouped[1].tolist())) == \
        grouped_count(keys)
    sparse = np.array([2 ** 40, -7, 2 ** 40, 3, -7], dtype=np.int64)
    assert array_grouped("count", sparse, None) is None


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
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_branch_shape_matches_tuple_operators(numpy_mode, delta_rows,
                                              stable_rows, function, combine,
                                              union, build_side):
    assert_branch_matches_tuple(delta_rows, stable_rows, function, combine,
                                union, build_side)


CLEAN_STABLE = [(0, 1, 0.5), (1, 1, 0.25), (1, 2, 1.0), (2, 0, 2.0),
                (3, 2, 4.0)]

#: name -> (delta rows, stable rows, function, combine, union): one input
#: per edge of the envelope.  The array kernel must decline each and the
#: fallback must be the tuple operators' result, object for object.
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
    # probes the dict, the aggregate folds with the list kernel
    "sparse join keys": ([(0, 1.0), (2 ** 40, 2.0)],
                         CLEAN_STABLE + [(2 ** 40, 1, 3.0)], "sum", "*",
                         False),
    "sparse group keys": ([(0, 1.0), (1, 2.0)],
                          [(0, 2 ** 40, 0.5), (1, 3, 1.0), (1, 2 ** 40, 2.0)],
                          "sum", "*", False),
}


@pytest.fixture
def array_kernel_runs(monkeypatch):
    """Records whether each aggregate's array kernel produced a result."""
    runs = []
    original = BatchHashAggregate._array_single

    def recording(*args):
        result = original(*args)
        runs.append(result is not None)
        return result

    monkeypatch.setattr(BatchHashAggregate, "_array_single",
                        staticmethod(recording))
    return runs


@needs_numpy
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
    assert array_kernel_runs == [False]


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


@needs_numpy
@pytest.mark.parametrize("case", sorted(INSIDE_ENVELOPE))
def test_inside_the_envelope_runs_on_arrays(case, array_kernel_runs):
    delta_rows, function, combine, union = INSIDE_ENVELOPE[case]
    assert_branch_matches_tuple(delta_rows, CLEAN_STABLE, function, combine,
                                union)
    assert array_kernel_runs == [True]


@pytest.mark.parametrize("delta_keys, expected_idx", [
    ([1, 0, 3, 2], range(5)),   # distinct build keys, every probe row hits
    ([1, 3], [1, 2, 4]),        # distinct build keys, some probe rows miss
    ([1, 1, 3], [1, 1, 2, 2, 4]),  # duplicates: the bucket probe
])
def test_delta_on_build_probes_the_stable_column_in_one_pass(
        numpy_mode, delta_keys, expected_idx):
    """Without a CSR index (float keys here; any key without numpy) a
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
        raise RuntimeError("kernel failure after the probe")

    monkeypatch.setattr(blocks.JoinColumns, "rows", broken)
    assert len(join.execute().rows) == 3  # the row path's answer
    assert join.build_rows_observed == len(CLEAN_STABLE)


def test_projection_above_the_aggregate_matches(numpy_mode):
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


# -- algorithms: best == default, byte for byte ---------------------------------


def repr_rows(engine, sql):
    return [repr(row) for row in engine.execute(sql).rows]


def test_fixpoints_best_equals_default(numpy_mode):
    best, graph = fixpoint_engine(nodes=120, **BEST)
    default, _ = fixpoint_engine(nodes=120)
    for name, sql in fixpoint_statements(graph).items():
        assert repr_rows(best, sql) == repr_rows(default, sql), name


def test_closures_best_equals_default(numpy_mode):
    dag = random_dag(60, 2.0, seed=1)
    undirected = preferential_attachment(50, 6.0, directed=False, seed=2)
    for graph, sql, symmetric in ((dag, tc.sql(), False),
                                  (undirected, ktruss.sql(3), True)):
        results = []
        for kwargs in (BEST, {}):
            engine = Engine("oracle", **kwargs)
            load_graph(engine, graph)
            if symmetric:
                wcc.prepare_symmetric_edges(engine)
            # UNION / keyless union-by-update results are sets: the row
            # order follows the plan, the rows themselves must not differ.
            results.append(sorted(repr_rows(engine, sql)))
        assert results[0] == results[1]
        assert results[0]
