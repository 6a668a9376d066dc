"""Engine configuration matrix and the single-run oracle.

``run_scenario`` executes one scenario under one :class:`EngineConfig`
and returns a comparable *outcome*:

* ``("rows", column_names, Counter(rows))`` for plain queries —
  multiset semantics, so physical row order never matters;
* ``("rows", column_names, Counter(rows), iterations)`` for recursive
  queries — iteration counts must agree too (they are part of the
  ``maxrecursion`` contract and surface through ``__iterations__``);
* ``("error", ExceptionType, message)`` for :class:`RelationalError`
  subclasses — a *defined* failure that every configuration must agree
  on, message included;
* ``("crash", ExceptionType, message)`` for anything else escaping the
  engine — always a bug, never comparable away.

Outcomes are compared with ``==`` (never via ``repr``: ``Counter`` repr
order depends on insertion order and would fake divergences).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..relational import REFERENCE_PROFILE, Engine
from ..relational.errors import RelationalError
from ..relational.schema import Column, Schema, SqlType

from .ir import Scenario, TableIR

_SQL_TYPES = {
    "int": SqlType.INTEGER,
    "double": SqlType.DOUBLE,
    "text": SqlType.TEXT,
}

#: One representative dialect per union-by-update strategy (strategies are
#: dialect-gated: merge/drop_alter need oracle or db2, update_from needs
#: postgres; full_outer_join works everywhere).
STRATEGY_DIALECTS = (
    ("merge", "oracle"),
    ("full_outer_join", "oracle"),
    ("update_from", "postgres"),
    ("drop_alter", "db2"),
)


@dataclass(frozen=True)
class EngineConfig:
    """One cell of the differential matrix: a (strategy, dialect) pair on
    one of the two engine profiles — :data:`REFERENCE_PROFILE` by
    default."""

    dialect: str = "oracle"
    reference: bool = REFERENCE_PROFILE["reference"]
    strategy: str = "full_outer_join"

    def label(self) -> str:
        profile = "reference" if self.reference else "array"
        return f"{self.dialect}/{profile}/{self.strategy}"

    def build_engine(self) -> Engine:
        engine = Engine(dialect=self.dialect, reference=self.reference)
        engine.union_by_update_strategy = self.strategy
        return engine


#: ``Engine()``'s own configuration, the array engine.
ARRAY_ENGINE = EngineConfig(reference=False)


def default_matrix() -> tuple[EngineConfig, ...]:
    """The 8-cell matrix: 4 strategy/dialect pairs x the reference and
    the array profile.  Telemetry is no axis: a recorded statement runs
    the same plans as an unrecorded one (the on/off identity tests in
    ``tests/observability`` pin that)."""
    return tuple(
        EngineConfig(dialect=dialect, reference=reference, strategy=strategy)
        for strategy, dialect in STRATEGY_DIALECTS
        for reference in (True, False))


def relevant_matrix(scenario: Scenario,
                    matrix: tuple[EngineConfig, ...]) -> \
        tuple[EngineConfig, ...]:
    """Drop cells that cannot behave differently for this scenario: the
    union-by-update strategy only matters for recursive programs, so for
    plain SELECTs configs that differ only by strategy collapse."""
    if scenario.recursive:
        return matrix
    return collapse_strategies(matrix)


def collapse_strategies(matrix: tuple[EngineConfig, ...]) -> \
        tuple[EngineConfig, ...]:
    """The first cell of each (dialect, profile) pair."""
    cells: dict[tuple, EngineConfig] = {}
    for config in matrix:
        cells.setdefault((config.dialect, config.reference), config)
    return tuple(cells.values())


def load_tables(engine: Engine, tables: tuple[TableIR, ...],
                rename: dict[str, dict[str, str]] | None = None) -> None:
    """Materialise the scenario's tables in *engine*'s catalog, applying
    the column-rename mapping when the rename oracle asks for one."""
    mapping = rename or {}
    for table in tables:
        columns = tuple(
            Column(mapping.get(table.name, {}).get(name, name),
                   _SQL_TYPES[sql_type])
            for name, sql_type in table.columns)
        created = engine.database.create_table(
            table.name, Schema(columns), enforce_key=False)
        created.insert_many(table.rows)


Outcome = tuple


def run_scenario(scenario: Scenario, config: EngineConfig,
                 rename: dict[str, dict[str, str]] | None = None,
                 sql: str | None = None,
                 engine: Engine | None = None) -> Outcome:
    """Execute *scenario* under *config* and return its outcome.

    ``rename`` re-renders the program (and the DDL) under a column
    renaming; ``sql`` overrides the rendered text (for the TLP
    partition queries).  Row-order invariance is exercised by handing
    in a scenario whose tables were reshuffled upstream.  An *engine*
    with the tables loaded is run on as it is (the plan-reuse oracle);
    by default a new one is built and loaded.
    """
    try:
        if engine is None:
            engine = config.build_engine()
            load_tables(engine, scenario.tables, rename)
        text = sql if sql is not None else scenario.sql(rename)
        if scenario.recursive:
            result = engine.execute_detailed(text, mode=scenario.mode)
            relation = result.relation
            return ("rows", tuple(relation.schema.names),
                    Counter(relation.rows), result.iterations)
        relation = engine.execute(text)
        return ("rows", tuple(relation.schema.names),
                Counter(relation.rows))
    except RelationalError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 — crashes are outcomes too
        return ("crash", type(exc).__name__, str(exc))


def describe_outcome(outcome: Outcome) -> str:
    """A short human-readable rendering for divergence reports."""
    kind = outcome[0]
    if kind == "rows":
        names, rows = outcome[1], outcome[2]
        total = sum(rows.values())
        text = f"{total} row(s) of {', '.join(names)}"
        if len(outcome) > 3:
            text += f" after {outcome[3]} iteration(s)"
        sample = sorted(rows.items(), key=repr)[:4]
        if sample:
            text += " — " + "; ".join(
                f"{row!r}x{count}" for row, count in sample)
        return text
    return f"{kind}: {outcome[1]}: {outcome[2]}"
