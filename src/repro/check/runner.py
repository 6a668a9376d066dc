"""The differential runner: config-matrix comparison plus metamorphic
oracles, and the ``fuzz`` campaign loop that drives generation,
shrinking, and regression reporting.

A scenario passes when:

* every cell of the engine-configuration matrix produces the *same*
  outcome (multiset of rows + iteration count, or the same normalised
  engine error) — and nobody crashes with a raw Python exception;
* the metamorphic oracles hold on the baseline configuration:

  - **TLP** (ternary logic partitioning): for a plain SELECT ``Q``,
    ``Q where p``, ``Q where not p`` and ``Q where p is null``
    partition ``Q`` — their union must equal ``Q``'s multiset exactly;
  - **row-order invariance**: shuffling base-table rows must not
    change the outcome;
  - **column-rename invariance**: re-rendering the same program under
    renamed base-table columns must not change the outcome;
  - **plan reuse**: re-running on one engine must reproduce the outcome,
    and after each in-bound base-table write a run on the kept plans
    must equal a fresh engine's run on the mutated tables;
  - **fixpoint stability**: for recursive programs, raising MAXRECURSION
    by one when the fixpoint was reached early must change nothing.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .generator import _predicate, generate_scenario
from .ir import Scenario, SelectIR
from .oracles import (
    ARRAY_ENGINE,
    EngineConfig,
    Outcome,
    default_matrix,
    describe_outcome,
    load_tables,
    relevant_matrix,
    run_scenario,
)
from .shrinker import shrink

#: In-bound writes the plan-reuse oracle makes (one one-row write missed
#: a cached IN subquery), each followed by a run on the kept plans.
REUSE_WRITES = 3


@dataclass
class Divergence:
    """One confirmed disagreement, before and after shrinking."""

    scenario: Scenario
    oracle: str  # matrix|crash|tlp|row-order|rename|plan-reuse|fixpoint
    detail: str
    shrunk: Scenario | None = None
    regression_path: str | None = None

    def summary(self) -> str:
        return (f"seed {self.scenario.seed} [{self.oracle}]"
                f" {self.detail.splitlines()[0]}")


@dataclass
class FuzzReport:
    seed: int
    budget: int
    scenarios: int = 0
    select_count: int = 0
    recursive_count: int = 0
    error_outcomes: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} budget={self.budget}"
            f" ran={self.scenarios}"
            f" (select={self.select_count},"
            f" recursive={self.recursive_count},"
            f" engine-errors={self.error_outcomes})",
        ]
        if self.ok:
            lines.append("no divergences")
        for divergence in self.divergences:
            lines.append("DIVERGENCE " + divergence.summary())
            if divergence.regression_path:
                lines.append(f"  reproducer: {divergence.regression_path}")
        return "\n".join(lines)


class DifferentialRunner:
    """Checks one scenario against the matrix + metamorphic oracles."""

    def __init__(self, matrix: tuple[EngineConfig, ...] | None = None,
                 metamorphic: bool = True):
        self.matrix = matrix if matrix is not None else default_matrix()
        self.metamorphic = metamorphic
        #: outcome of the most recent baseline run (campaign statistics)
        self.last_outcome: Outcome | None = None

    # -- matrix --------------------------------------------------------

    def check(self, scenario: Scenario) -> Divergence | None:
        """The first divergence this scenario exhibits, or ``None``."""
        matrix = relevant_matrix(scenario, self.matrix)
        baseline_config = matrix[0]
        baseline = run_scenario(scenario, baseline_config)
        self.last_outcome = baseline
        if baseline[0] == "crash":
            return Divergence(scenario, "crash",
                              f"{baseline_config.label()} crashed with"
                              f" {baseline[1]}: {baseline[2]}")
        for config in matrix[1:]:
            outcome = run_scenario(scenario, config)
            if outcome[0] == "crash":
                return Divergence(scenario, "crash",
                                  f"{config.label()} crashed with"
                                  f" {outcome[1]}: {outcome[2]}")
            if outcome != baseline:
                return Divergence(
                    scenario, "matrix",
                    f"{baseline_config.label()} vs {config.label()}\n"
                    f"  baseline: {describe_outcome(baseline)}\n"
                    f"  variant:  {describe_outcome(outcome)}")
        if self.metamorphic:
            return self._check_metamorphic(scenario, baseline_config,
                                           baseline)
        return None

    # -- metamorphic ---------------------------------------------------

    def _check_metamorphic(self, scenario: Scenario,
                           config: EngineConfig,
                           baseline: Outcome) -> Divergence | None:
        for oracle, check in (("tlp", self._check_tlp),
                              ("row-order", self._check_row_order),
                              ("rename", self._check_rename),
                              ("plan-reuse", self._check_plan_reuse),
                              ("fixpoint", self._check_fixpoint)):
            detail = check(scenario, config, baseline)
            if detail is not None:
                return Divergence(scenario, oracle, detail)
        return None

    def _check_tlp(self, scenario: Scenario, config: EngineConfig,
                   baseline: Outcome) -> str | None:
        query = scenario.query
        if not isinstance(query, SelectIR) or baseline[0] != "rows":
            return None
        if query.agg_items or query.distinct or query.having \
                or query.order_limit is not None:
            return None
        rng = random.Random(scenario.seed ^ 0x7e51)
        by_name = {t.name: t for t in scenario.tables}
        scope = [(alias, column, sql_type)
                 for alias, table in query.alias_tables().items()
                 for column, sql_type in by_name[table].columns]
        predicate, _ = _predicate(rng, scope, allow_sub=False)
        partitions = (predicate, ("not", predicate),
                      ("isnull", predicate, False))
        total: Counter = Counter()
        for arm in partitions:
            part = replace(query, where=query.where + (arm,))
            outcome = run_scenario(scenario, config, sql=part.render())
            if outcome[0] != "rows":
                # A partition erroring where the whole didn't (or vice
                # versa) is not a TLP violation by itself: the predicate
                # may divide by zero on rows the base query never
                # produces.  Skip quietly.
                return None
            total.update(outcome[2])
        if total != baseline[2]:
            return ("TLP partitions do not sum to the base query:"
                    f" base {sum(baseline[2].values())} row(s),"
                    f" partitions {sum(total.values())} row(s)"
                    f" for predicate {partitions[0]!r}")
        return None

    def _check_row_order(self, scenario: Scenario, config: EngineConfig,
                         baseline: Outcome) -> str | None:
        if baseline[0] != "rows":
            return None
        rng = random.Random(scenario.seed ^ 0x0dd5)
        shuffled_tables = []
        for table in scenario.tables:
            rows = list(table.rows)
            rng.shuffle(rows)
            shuffled_tables.append(replace(table, rows=tuple(rows)))
        shuffled = replace(scenario, tables=tuple(shuffled_tables))
        outcome = run_scenario(shuffled, config)
        if outcome != baseline:
            return ("shuffling base-table rows changed the outcome\n"
                    f"  original: {describe_outcome(baseline)}\n"
                    f"  shuffled: {describe_outcome(outcome)}")
        return None

    def _check_rename(self, scenario: Scenario, config: EngineConfig,
                      baseline: Outcome) -> str | None:
        if baseline[0] != "rows":
            # Error messages quote column names, so renamed runs differ
            # by design on error outcomes.
            return None
        rename = {
            table.name: {name: f"{name}_rn" for name, _ in table.columns}
            for table in scenario.tables}
        outcome = run_scenario(scenario, config, rename=rename)
        if outcome != baseline:
            return ("renaming base-table columns changed the outcome\n"
                    f"  original: {describe_outcome(baseline)}\n"
                    f"  renamed:  {describe_outcome(outcome)}")
        return None

    def _check_plan_reuse(self, scenario: Scenario, config: EngineConfig,
                          baseline: Outcome) -> str | None:
        if baseline[0] != "rows":
            return None
        # The matrix agreed on *baseline*.  On one engine of the baseline
        # cell and one of the array engine (whose kept plans hold cached
        # builds), re-runs must reproduce it — kept temp tables and plans
        # must not leak — and each in-bound write must
        # show in the next run on the kept plans.
        for cell in dict.fromkeys((config, ARRAY_ENGINE)):
            engine = cell.build_engine()
            load_tables(engine, scenario.tables)
            runs = [run_scenario(scenario, cell, engine=engine)
                    for _ in range(2)]
            if runs != [baseline, baseline]:
                return (f"re-executing on one {cell.label()} engine"
                        f" diverged\n  first:  {describe_outcome(runs[0])}"
                        f"\n  second: {describe_outcome(runs[1])}")
            rng = random.Random(scenario.seed ^ 0x9e05)
            mutated = scenario
            for _ in range(REUSE_WRITES):
                mutated = _mutate_one_table(engine, mutated, rng)
                if mutated is None:
                    break
                reused = run_scenario(mutated, cell, engine=engine)
                fresh = run_scenario(mutated, cell)
                if reused != fresh:
                    return (f"a run on kept {cell.label()} plans missed a"
                            " base-table write\n"
                            f"  kept plans: {describe_outcome(reused)}\n"
                            f"  fresh:      {describe_outcome(fresh)}")
        return None

    def _check_fixpoint(self, scenario: Scenario, config: EngineConfig,
                        baseline: Outcome) -> str | None:
        if not scenario.recursive or baseline[0] != "rows":
            return None
        cap = scenario.query.maxrecursion
        if cap is not None and len(baseline) > 3 and baseline[3] < cap:
            # The fixpoint arrived before the cap: one more headroom
            # iteration must change nothing.
            relaxed = replace(scenario,
                              query=replace(scenario.query,
                                            maxrecursion=cap + 1))
            outcome = run_scenario(relaxed, config)
            if outcome != baseline:
                return ("raising maxrecursion past an already-reached"
                        " fixpoint changed the outcome\n"
                        f"  cap {cap}:     {describe_outcome(baseline)}\n"
                        f"  cap {cap + 1}: {describe_outcome(outcome)}")
        return None




def _mutate_one_table(engine, scenario: Scenario,
                      rng: random.Random) -> Scenario | None:
    """One write to a non-empty table of *engine*, well inside the replan
    bound: insert up to as many rows (mixing stored values) as it holds,
    or delete every copy of up to half its rows.  Returns *scenario* with
    the rows the engine now stores, or None when every table is empty."""
    candidates = [t for t in scenario.tables if t.rows]
    if not candidates:
        return None
    chosen = rng.choice(candidates)
    table = engine.database.table(chosen.name)
    stored = list(table.rows)
    count = rng.randint(1, max(len(stored) // 2, 1))
    if rng.random() < 0.5:
        table.insert_many([
            tuple(rng.choice(stored)[j] for j in range(len(chosen.columns)))
            for _ in range(2 * count)])
    else:
        doomed = set(rng.sample(stored, count))
        table.delete_where(lambda row: row in doomed)
    mutated = replace(chosen, rows=tuple(table.rows))
    return replace(scenario, tables=tuple(
        mutated if t is chosen else t for t in scenario.tables))


# -- campaign ----------------------------------------------------------------


def scenario_seed(seed: int, index: int) -> int:
    """Derive the per-scenario seed for campaign position *index*."""
    return seed * 1_000_003 + index


def fuzz(seed: int, budget: int,
         matrix: tuple[EngineConfig, ...] | None = None,
         metamorphic: bool = True,
         regressions_dir: str | None = None,
         shrink_attempts: int = 400,
         on_progress=None) -> FuzzReport:
    """Run a fuzz campaign: *budget* scenarios derived from *seed*.

    Every divergence is delta-debugged to a minimal reproducer; when
    *regressions_dir* is given, a ready-to-run pytest case is written
    there for each one.
    """
    runner = DifferentialRunner(matrix=matrix, metamorphic=metamorphic)
    report = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        scenario = generate_scenario(scenario_seed(seed, index))
        report.scenarios += 1
        if scenario.recursive:
            report.recursive_count += 1
        else:
            report.select_count += 1
        divergence = runner.check(scenario)
        if runner.last_outcome is not None \
                and runner.last_outcome[0] == "error":
            report.error_outcomes += 1
        if divergence is not None:
            divergence.shrunk = shrink(
                scenario,
                lambda candidate: runner.check(candidate) is not None,
                max_attempts=shrink_attempts)
            if regressions_dir is not None:
                from .reporting import write_regression
                divergence.regression_path = write_regression(
                    divergence, regressions_dir)
            report.divergences.append(divergence)
        if on_progress is not None:
            on_progress(index + 1, report)
    return report
