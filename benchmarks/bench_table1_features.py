"""Table 1 — the recursive-`with` feature matrix across the 3 RDBMSs.

Reproduced two ways: the dialect profiles' declared metadata, and (where a
probe query can exercise the feature) a behavioural check that the engine
in ``mode="with"`` actually accepts/rejects it.  The bench prints the
matrix in the paper's layout; the accompanying tests assert it matches
Table 1 cell by cell.
"""

from __future__ import annotations

from repro.bench.harness import fresh_engine
from repro.bench.reporting import format_table
from repro.relational import FeatureNotSupportedError
from repro.relational.dialects import DIALECTS, get_dialect
from repro.relational.dialects.base import FEATURE_ROWS

#: Probe queries exercising features in the plain with clause.  Each runs
#: against a trivial E(F, T) relation.
PROBES: dict[str, str] = {
    "linear_recursion": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, E.T from R, E where R.T = E.F and E.T < 0))
        select count(*) as c from R""",
    "nonlinear_recursion": """
        with R(F, T) as ((select F, T from E) union all
          (select R1.F, R2.T from R as R1, R as R2
           where R1.T = R2.F and R2.T < 0))
        select count(*) as c from R""",
    "multiple_recursive_queries": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, E.T from R, E where R.T = E.F and E.T < 0) union all
          (select E.F, R.T from E, R where E.T = R.F and R.T < -1))
        select count(*) as c from R""",
    "setop_across_initial_recursive": """
        with R(F, T) as ((select F, T from E) union
          (select R.F, E.T from R, E where R.T = E.F))
        select count(*) as c from R""",
    "negation": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, E.T from R, E where R.T = E.F
           and R.F not in (select T from E) and E.T < 0))
        select count(*) as c from R""",
    "aggregate_functions": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, max(E.T) from R, E where R.T = E.F and E.T < 0))
        select count(*) as c from R""",
    "group_by_having": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, max(E.T) from R, E where R.T = E.F and E.T < 0
           group by R.F))
        select count(*) as c from R""",
    "distinct": """
        with R(F, T) as ((select F, T from E) union all
          (select distinct R.F, E.T from R, E where R.T = E.F and E.T < 0))
        select count(*) as c from R""",
    "general_functions": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, abs(E.T) from R, E where R.T = E.F and E.T < 0))
        select count(*) as c from R""",
    "analytical_functions": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, sum(E.T) over (partition by R.F)
           from R, E where R.T = E.F and E.T < 0))
        select count(*) as c from R""",
    "subquery_without_recursive_ref": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, E.T from R, E where R.T = E.F
           and E.T in (select F from E) and E.T < 0))
        select count(*) as c from R""",
    "subquery_with_recursive_ref": """
        with R(F, T) as ((select F, T from E) union all
          (select R.F, E.T from R, E where R.T = E.F
           and E.T in (select F from R) and E.T < 0))
        select count(*) as c from R""",
    "cycle_clause": """
        with R(F, T) as ((select F, T from E) union all
          (select R.T as F, E.T as T from R, E where R.T = E.F))
        cycle T set c to 1 default 0
        select count(*) as c from R""",
    "search_clause": """
        with R(F, T) as ((select F, T from E) union all
          (select R.T as F, E.T as T from R, E where R.T = E.F))
        search breadth first by T set ord
        select count(*) as c from R""",
    "cycle_detection": """
        with R(F, T) as ((select F, T from E) union all
          (select R.T as F, E.T as T from R, E where R.T = E.F))
        cycle F set c to 1 default 0
        select count(*) as c from R""",
}


def probe_feature(dialect_name: str, feature: str) -> bool | None:
    """Run the probe in plain-`with` mode; True = accepted."""
    query = PROBES.get(feature)
    if query is None:
        return None
    engine = fresh_engine(dialect_name, mode="with")
    engine.database.load_edge_table("E", [(1, 2), (2, 3)], weighted=False)
    try:
        engine.execute(query)
        return True
    except FeatureNotSupportedError:
        return False


def build_matrix(source: str = "declared") -> list[list]:
    rows = []
    for group, feature in FEATURE_ROWS:
        row: list = [group, feature]
        for name in ("postgres", "db2", "oracle"):
            if source == "declared":
                supported = get_dialect(name).with_features.get(feature)
            else:
                supported = probe_feature(name, feature)
                if supported is None:
                    supported = get_dialect(name).with_features.get(feature)
        # fall through appends below
            row.append(supported)
        rows.append(row)
    return rows


def test_table1_feature_matrix(benchmark, emit):
    def run():
        return build_matrix("probed")

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["grp", "feature", "PostgreSQL", "DB2", "Oracle"], rows,
        "Table 1 — with-clause features (probed where possible)")
    emit("table1_features", table)
    assert len(rows) == len(FEATURE_ROWS)
