"""Oracle plumbing: injected engine faults must surface as divergences.

These tests break the engine on purpose (monkeypatched operators, via
pytest's undo-on-teardown) and assert the differential runner notices —
the end-to-end guarantee that a real regression in one execution path
cannot slip past the harness.
"""

import pytest

from repro.check.ir import (
    AggItemIR,
    ItemIR,
    JoinIR,
    Scenario,
    SelectIR,
    TableIR,
    WithIR,
)
from repro.check.oracles import default_matrix, relevant_matrix
from repro.check.runner import DifferentialRunner
from repro.relational import recursive as recursive_module
from repro.relational.physical import batch as batch_module
from repro.relational.physical.blocks import FilteredColumns

T0 = TableIR("T0", (("k0", "int"), ("c0", "int")),
             ((1, 10), (2, 20), (2, 21), (3, None)))

JOIN_SCENARIO = Scenario(
    seed=0, tables=(T0,),
    query=SelectIR(
        base_table="T0", base_alias="q0",
        joins=(JoinIR("join", "T0", "q1", "q0", "k0", "k0"),),
        items=(ItemIR(("col", "q0", "k0"), "o0"),
               ItemIR(("col", "q1", "c0"), "o1"))))

AGG_SCENARIO = Scenario(
    seed=0, tables=(T0,),
    query=SelectIR(
        base_table="T0", base_alias="q0",
        items=(ItemIR(("col", "q0", "k0"), "g0"),),
        agg_items=(AggItemIR("count", None, "a0"),)))

UBU_SCENARIO = Scenario(
    seed=0,
    tables=(TableIR("E", (("F", "int"), ("T", "int"), ("ew", "double")),
                    ((0, 1, 1.0), (1, 2, 0.5))),
            TableIR("V", (("ID", "int"), ("vw", "double")),
                    ((0, 0.0), (1, 1.0), (2, 2.0)))),
    query=WithIR(union_kind="union by update", seeds=(0,),
                 aggregate="min", maxrecursion=5))

#: A linear UNION whose branch adds E's DOUBLE ew to t's INTEGER d.
COERCED_SCENARIO = Scenario(
    seed=0, tables=UBU_SCENARIO.tables,
    query=WithIR(union_kind="union", seeds=(0,), coerced=True,
                 maxrecursion=3))


def test_healthy_engine_passes_all_oracles():
    runner = DifferentialRunner()
    for scenario in (JOIN_SCENARIO, AGG_SCENARIO, UBU_SCENARIO,
                     COERCED_SCENARIO):
        divergence = runner.check(scenario)
        assert divergence is None, divergence and divergence.detail


def test_injected_join_fault_is_caught(monkeypatch):
    """Drop one row from the batch hash join only: the reference and the
    array profile now answer differently and the matrix oracle must
    fire."""
    original = batch_module.BatchHashJoin._compute
    original_block = batch_module.BatchHashJoin._block_source

    def lossy(self):
        rows = original(self)
        return rows[:-1]

    def lossy_block(self):
        source = original_block(self)
        if source is None or not source.length:
            return source
        return FilteredColumns(source, list(range(source.length - 1)))

    monkeypatch.setattr(batch_module.BatchHashJoin, "_compute", lossy)
    monkeypatch.setattr(batch_module.BatchHashJoin, "_block_source",
                        lossy_block)
    divergence = DifferentialRunner().check(JOIN_SCENARIO)
    assert divergence is not None
    assert divergence.oracle == "matrix"
    assert "/array/" in divergence.detail


def test_injected_aggregate_fault_is_caught(monkeypatch):
    """Off-by-one in the batch count aggregate's row loop, which the
    array engine takes once its array path declines: caught by the
    matrix."""
    original = batch_module.BatchHashAggregate._compute

    def off_by_one(self):
        rows = original(self)
        if [spec.function for spec in self.aggregates] == ["count"]:
            rows = [(key_count[0], key_count[1] + 1)
                    if len(key_count) == 2 else key_count
                    for key_count in rows]
        return rows

    monkeypatch.setattr(batch_module.BatchHashAggregate,
                        "_compute", off_by_one)
    monkeypatch.setattr(batch_module.BatchHashAggregate, "_block_source",
                        lambda self: None)
    divergence = DifferentialRunner().check(AGG_SCENARIO)
    assert divergence is not None
    assert divergence.oracle == "matrix"


def test_injected_crash_is_caught(monkeypatch):
    """A raw exception escaping any cell is reported as a crash even if
    every configuration dies the same way."""

    def boom(self):
        raise RuntimeError("synthetic operator failure")

    monkeypatch.setattr(batch_module.BatchHashJoin, "_compute", boom)
    monkeypatch.setattr(batch_module.BatchHashJoin, "_block_source", boom)
    runner = DifferentialRunner()
    divergence = runner.check(JOIN_SCENARIO)
    assert divergence is not None
    assert divergence.oracle in ("matrix", "crash")


def test_the_optimizer_axis_is_the_binding_oracle(monkeypatch):
    """The reference profile's dialect planner binds a with+ UNION to the
    full R, the array engine's cost optimizer to the delta where the
    proof holds: proving it for a coercing branch (the type rule gone)
    makes the two cells disagree."""
    monkeypatch.setattr(recursive_module, "delta_binding_is_exact",
                        lambda cte, schema, outputs: True)
    divergence = DifferentialRunner().check(COERCED_SCENARIO)
    assert divergence is not None
    assert divergence.oracle == "matrix"
    assert "/reference/" in divergence.detail \
        and "/array/" in divergence.detail


def test_matrix_covers_every_strategy_and_executor():
    matrix = default_matrix()
    assert len(matrix) == 8
    assert {c.strategy for c in matrix} == {
        "merge", "full_outer_join", "update_from", "drop_alter"}
    assert {c.reference for c in matrix} == {True, False}
    # Plain selects collapse the strategy axis: one dialect a profile...
    reduced = relevant_matrix(JOIN_SCENARIO, matrix)
    assert len(reduced) == 2 * len({c.dialect for c in matrix})
    # ...recursive scenarios keep all 8 cells.
    assert relevant_matrix(UBU_SCENARIO, matrix) == matrix
