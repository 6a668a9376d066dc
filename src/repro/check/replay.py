"""Replay helpers for generated (and hand-written) regression tests.

A minimized reproducer boils down to *tables + SQL text*.
:func:`assert_matrix_agreement` re-runs that program across the full
engine-configuration matrix and asserts every cell agrees — the exact
property the fuzzer checks, packaged as one assertion so regression
files stay short and dependency-free.
"""

from __future__ import annotations

from collections import Counter

from ..relational.errors import RelationalError

from .oracles import EngineConfig, collapse_strategies, default_matrix

#: tables are passed as literal triples so generated test files need no
#: IR imports: (name, ((column, "int"|"double"|"text"), ...), rows)
TableSpec = "tuple[str, tuple, tuple]"


def _run(tables, sql: str, recursive: bool, mode: str,
         config: EngineConfig):
    from .ir import TableIR
    from .oracles import load_tables

    try:
        engine = config.build_engine()
        load_tables(engine,
                    tuple(TableIR(name, tuple(columns), tuple(rows))
                          for name, columns, rows in tables))
        if recursive:
            result = engine.execute_detailed(sql, mode=mode)
            return ("rows", tuple(result.relation.schema.names),
                    Counter(result.relation.rows), result.iterations)
        relation = engine.execute(sql)
        return ("rows", tuple(relation.schema.names),
                Counter(relation.rows))
    except RelationalError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001
        return ("crash", type(exc).__name__, str(exc))


def assert_matrix_agreement(tables, sql: str, recursive: bool = False,
                            mode: str = "with+",
                            matrix: "tuple[EngineConfig, ...] | None" = None):
    """Assert the program crashes nowhere and every matrix cell agrees.

    Returns the (shared) outcome so callers can make further assertions
    about its content.
    """
    configs = matrix if matrix is not None else default_matrix()
    if not recursive:
        configs = collapse_strategies(configs)
    baseline_config = configs[0]
    baseline = _run(tables, sql, recursive, mode, baseline_config)
    assert baseline[0] != "crash", (
        f"{baseline_config.label()} crashed:"
        f" {baseline[1]}: {baseline[2]}\nsql: {sql}")
    for config in configs[1:]:
        outcome = _run(tables, sql, recursive, mode, config)
        assert outcome[0] != "crash", (
            f"{config.label()} crashed: {outcome[1]}: {outcome[2]}\n"
            f"sql: {sql}")
        assert outcome == baseline, (
            "configurations disagree:\n"
            f"  {baseline_config.label()}: {baseline!r}\n"
            f"  {config.label()}: {outcome!r}\n"
            f"sql: {sql}")
    return baseline
