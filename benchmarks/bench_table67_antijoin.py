"""Tables 6 & 7 — anti-join implementation strategies.

The paper's Exp-1, second half: run TopoSort on Web-Google-like and
U.S.-Patent-like DAGs with every anti-join spelled three ways — ``not
exists``, ``left outer join ... is null`` and ``not in``.

Shape to reproduce: marginal differences; ``not exists`` ≈ ``left outer
join`` (the engines produce the same plan family) and ``not in`` slightly
behind (NULL-aware bookkeeping).  Every variant plans its statements
once (the same ``plans_compiled`` in the engine's query log), so the
tables time the anti-joins, not planning.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    DIALECTS,
    dag_twin,
    fresh_engine,
    load_dataset,
    time_call,
)
from repro.bench.reporting import format_table
from repro.core.algorithms import toposort
from repro.core.algorithms.toposort import ANTI_JOIN_VARIANTS

DATASET_TABLES = (("WG", "Table 6 — anti-join, Web-Google-like DAG"),
                  ("PC", "Table 7 — anti-join, US-Patent-like DAG"))


def run_variant_matrix(dataset_key: str) -> tuple[list[list], dict]:
    """The table's rows, and per dialect each variant's plans compiled."""
    graph = dag_twin(load_dataset(dataset_key))
    rows = []
    plans: dict[str, list[int]] = {dialect: [] for dialect in DIALECTS}
    for variant in ("not_exists", "left_outer_join", "not_in"):
        row: list = [variant]
        for dialect in DIALECTS:
            engine = fresh_engine(dialect)
            _, seconds = time_call(
                lambda: toposort.run_sql(engine, graph, variant=variant))
            row.append(seconds * 1000)
            plans[dialect].append(sum(entry.plans_compiled
                                      for entry in engine.query_log))
        rows.append(row)
    return rows, plans


@pytest.mark.parametrize("dataset_key,title", DATASET_TABLES,
                         ids=[d for d, _ in DATASET_TABLES])
def test_antijoin_variants(benchmark, emit, dataset_key, title):
    rows, plans = benchmark.pedantic(run_variant_matrix,
                                     args=(dataset_key,),
                                     rounds=1, iterations=1)
    table = format_table(["variant (ms)", "oracle", "db2", "postgres"],
                         rows, title)
    emit(f"table67_antijoin_{dataset_key}", table)
    assert len(rows) == len(ANTI_JOIN_VARIANTS)
    # no variant pays for planning the others do not
    for dialect, compiled in plans.items():
        assert len(set(compiled)) == 1, (dialect, compiled)
    # every variant computes the same topological levelling
    engines = [fresh_engine("oracle") for _ in ANTI_JOIN_VARIANTS]
    graph = dag_twin(load_dataset(dataset_key))
    results = [toposort.run_sql(e, graph, variant=v).values
               for e, v in zip(engines, ANTI_JOIN_VARIANTS)]
    assert results[0] == results[1] == results[2]
