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
    """One cell of the differential matrix; unset knobs take
    :data:`REFERENCE_PROFILE`'s values."""

    dialect: str = "oracle"
    executor: str = REFERENCE_PROFILE["executor"]
    optimizer: str = REFERENCE_PROFILE["optimizer"]
    strategy: str = "full_outer_join"
    storage: str = REFERENCE_PROFILE["storage"]

    def label(self) -> str:
        return (f"{self.dialect}/{self.executor}/opt={self.optimizer}"
                f"/{self.strategy}/{self.storage}")

    def build_engine(self) -> Engine:
        engine = Engine(dialect=self.dialect, executor=self.executor,
                        optimizer=self.optimizer, storage=self.storage)
        engine.union_by_update_strategy = self.strategy
        return engine


#: ``Engine()``'s own configuration, the array engine.
ARRAY_ENGINE = EngineConfig(executor="batch", optimizer="cost",
                            storage="columnar")


def default_matrix(executors=None, optimizers=None, storages=None
                   ) -> tuple[EngineConfig, ...]:
    """The full 32-cell matrix: 4 strategy/dialect pairs x 2 executors
    x 2 optimizer settings x 2 storage backends, or the cells with the
    given executors / optimizers / storages.  Telemetry is no axis: a
    recorded statement runs the same plans as an unrecorded one (the
    on/off identity tests in ``tests/observability`` pin that)."""
    return tuple(
        EngineConfig(dialect=dialect, executor=executor, optimizer=optimizer,
                     strategy=strategy, storage=storage)
        for strategy, dialect in STRATEGY_DIALECTS
        for executor in executors or ("tuple", "batch")
        for optimizer in optimizers or ("off", "cost")
        for storage in storages or ("rows", "columnar"))


def relevant_matrix(scenario: Scenario,
                    matrix: tuple[EngineConfig, ...]) -> \
        tuple[EngineConfig, ...]:
    """Drop cells that cannot behave differently for this scenario: the
    union-by-update strategy only matters for recursive programs, so for
    plain SELECTs configs that differ only by strategy collapse."""
    if scenario.recursive:
        return matrix
    seen: set[tuple] = set()
    out = []
    for config in matrix:
        key = (config.dialect, config.executor, config.optimizer,
               config.storage)
        if key in seen:
            continue
        seen.add(key)
        out.append(config)
    return tuple(out)


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
