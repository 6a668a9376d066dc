"""Differential correctness harness (``repro fuzz``).

The engine has several semantically-equivalent-by-construction execution
paths — the reference profile (the dialect planners over iterator-model
operators and row storage) vs the array engine (cost-based planner, batch
operators, columnar storage), four union-by-update strategies, cached vs
fresh recursive branch plans, three dialect profiles.  The paper's claim
is that all of them compute the *same* fixpoint; this package turns that
claim into a machine-checked property:

* :mod:`.generator` — a seeded generator of random-but-valid SQL and
  ``with+`` programs over generated NULL-heavy schemas;
* :mod:`.oracles` — the engine-configuration matrix and the outcome
  comparator (multiset result / normalised engine error / iteration
  counts);
* :mod:`.runner` — the differential runner: every program is executed
  under the full config matrix plus metamorphic oracles (TLP predicate
  partitioning, row-order and column-rename invariance, fixpoint
  idempotence);
* :mod:`.shrinker` — delta-debugs a failing program to a minimal
  reproducer;
* :mod:`.reporting` — writes minimized reproducers as ready-to-paste
  pytest cases under ``tests/regressions/``.

Everything is stdlib-only and fully deterministic from a seed.
"""

from .generator import generate_scenario
from .ir import Scenario, SelectIR, TableIR, WithIR, clause_count
from .oracles import EngineConfig, default_matrix, run_scenario
from .runner import Divergence, DifferentialRunner, FuzzReport, fuzz
from .shrinker import shrink
from .reporting import write_regression
from .replay import assert_matrix_agreement

__all__ = [
    "Scenario", "SelectIR", "TableIR", "WithIR", "clause_count",
    "EngineConfig", "default_matrix", "run_scenario",
    "Divergence", "DifferentialRunner", "FuzzReport", "fuzz",
    "generate_scenario", "shrink", "write_regression",
    "assert_matrix_agreement",
]
