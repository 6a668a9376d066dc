"""Generator validity: every emitted program parses and executes.

The harness's power hinges on generated programs being *valid* — a
crash or parse failure wastes the scenario and, worse, a generator that
emits invalid SQL would bury real divergences in noise.  Property over
500 consecutive seeds: every scenario renders to SQL the parser accepts
and the engine either answers or rejects with a typed engine error
(never a raw Python exception).
"""

import pytest

from repro.check import generate_scenario
from repro.check.ir import SelectIR, WithIR
from repro.check.oracles import EngineConfig, run_scenario
from repro.check.runner import scenario_seed
from repro.relational.sql.parser import parse_statement

SEEDS = 500
BASELINE = EngineConfig()


def test_500_seeds_generate_only_valid_programs():
    crashes = []
    kinds = {"select": 0, "recursive": 0}
    errors = 0
    for seed in range(SEEDS):
        scenario = generate_scenario(seed)
        kinds["recursive" if scenario.recursive else "select"] += 1
        # Parses...
        parse_statement(scenario.sql())
        # ...and executes without escaping the engine's error hierarchy.
        outcome = run_scenario(scenario, BASELINE)
        if outcome[0] == "crash":
            crashes.append((seed, outcome[1], outcome[2]))
        elif outcome[0] == "error":
            errors += 1
    assert not crashes, crashes[:5]
    # The generator must exercise both program families...
    assert kinds["select"] > SEEDS // 4
    assert kinds["recursive"] > SEEDS // 8
    # ...and stay overwhelmingly on the happy path: engine errors are
    # legal outcomes (e.g. conflicting non-aggregated UBU deltas) but
    # must remain rare or the campaign stops testing result equality.
    assert errors < SEEDS // 10


def test_generation_is_deterministic():
    for seed in (0, 7, 12345):
        assert generate_scenario(seed) == generate_scenario(seed)
        assert generate_scenario(seed).sql() == generate_scenario(seed).sql()


def test_rendered_sql_round_trips_under_rename():
    scenario = generate_scenario(3)  # a plain select with a subquery
    rename = {table.name: {name: f"{name}_x" for name, _ in table.columns}
              for table in scenario.tables}
    renamed = scenario.sql(rename)
    parse_statement(renamed)
    for mapping in rename.values():
        for old, new in mapping.items():
            assert new in renamed or old not in renamed


@pytest.mark.parametrize("seed", range(0, 60))
def test_recursive_scenarios_always_cap_union_all_and_ubu(seed):
    scenario = generate_scenario(seed)
    if not isinstance(scenario.query, WithIR):
        return
    if scenario.query.union_kind in ("union all", "union by update"):
        assert scenario.query.maxrecursion is not None


def test_coerced_scenarios_are_capped_linear_unions():
    coerced = [generate_scenario(seed).query for seed in range(400)]
    coerced = [q for q in coerced if isinstance(q, WithIR) and q.coerced]
    assert coerced
    for query in coerced:
        assert query.union_kind == "union"
        assert not (query.nonlinear or query.pair)
        assert query.maxrecursion is not None


def test_signed_scenarios_meet_both_zeros_and_negative_weights():
    """The signed union-by-update variant draws its edge weights from a
    set holding 0.0, -0.0 and negatives, and starts from -0.0."""
    weights = set()
    signed = 0
    for seed in range(400):
        scenario = generate_scenario(seed)
        query = scenario.query
        if not (isinstance(query, WithIR) and query.signed):
            continue
        signed += 1
        assert query.union_kind == "union by update" and not query.pair
        assert query.maxrecursion is not None
        assert "-0.0 " in scenario.sql()
        weights.update(repr(row[2]) for row in scenario.tables[0].rows)
    assert signed
    assert {"0.0", "-0.0", "-1.0"} <= weights


def test_some_graphs_scatter_their_node_ids():
    """About one graph in four spreads its node ids 10**6 apart, so packed
    ``(F, T)`` keys outgrow the UNION combine's bitmap; edges and seeds
    always name nodes of the graph."""
    scattered = []
    for seed in range(200):
        scenario = generate_scenario(seed)
        if not isinstance(scenario.query, WithIR):
            continue
        edge, node = scenario.tables
        ids = [row[0] for row in node.rows]
        assert ids == sorted(set(ids))
        ends = {row[0] for row in edge.rows} | {row[1] for row in edge.rows}
        assert ends | set(scenario.query.seeds) <= set(ids)
        scattered.append(ids[-1] >= 10 ** 6)
    assert 0 < sum(scattered) < len(scattered) / 2


def test_select_scenarios_limit_only_under_total_order():
    for seed in range(200):
        scenario = generate_scenario(seed)
        if isinstance(scenario.query, SelectIR) \
                and scenario.query.order_limit is not None:
            # LIMIT is deterministic only under an ORDER BY over every
            # output column; the renderer enforces exactly that.
            sql = scenario.sql()
            aliases = ", ".join(scenario.query.output_aliases())
            assert f"order by {aliases} limit" in sql


NUMERIC_COLUMNS = (("k0", "int"), ("k1", "int"), ("c0", "int"),
                   ("c1", "double"))


def numeric_scenarios(seeds):
    return [scenario for scenario in map(generate_scenario, seeds)
            if scenario.tables[0].columns == NUMERIC_COLUMNS]


def test_numeric_variant_reaches_the_array_envelope_edges():
    """The NULL-free numeric variant draws ``-0.0``, ints at 2**53 beside
    doubles, ints near 2**62, key-less and two-key aggregates, ``avg``,
    column-to-column filters and ``AND``s — and nothing NULL."""
    scenarios = numeric_scenarios(range(600))
    assert len(scenarios) > 30
    values = [value for scenario in scenarios
              for row in scenario.tables[0].rows for value in row]
    assert None not in values
    assert any(type(v) is float and str(v) == "-0.0" for v in values)
    assert any(type(v) is int and 2 ** 53 <= v < 2 ** 62 for v in values)
    assert any(type(v) is int and v >= 2 ** 62 for v in values)
    queries = [scenario.query for scenario in scenarios]
    aggregated = [query for query in queries if query.agg_items]
    assert {len(query.items) for query in aggregated} == {0, 1, 2}
    assert any(item.function == "avg" for query in aggregated
               for item in query.agg_items)
    conjuncts = [c for query in queries for c in query.where]
    assert any(c[0] == "and" for c in conjuncts)
    assert any(c[0] == "bin" and c[3][0] == "col" for c in conjuncts)


def test_the_numeric_ci_campaign_draws_its_named_count():
    """CI's seed-52 campaign (budget 100) names 15 numeric scenarios."""
    seeds = [scenario_seed(52, index) for index in range(100)]
    assert len(numeric_scenarios(seeds)) == 15
