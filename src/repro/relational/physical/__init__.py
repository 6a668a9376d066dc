"""Physical (executable) operators for the relational engine.

Operators follow the classic iterator model: each exposes an output
:class:`~repro.relational.schema.Schema` and a ``rows()`` generator.  The
planner (:mod:`repro.relational.planner`) assembles trees of these and the
executor materialises the root into a
:class:`~repro.relational.relation.Relation`.
"""

from .analyze import OperatorStats, StatsSink, recording, render_analysis
from .base import PhysicalOperator, explain_plan
from .scan import BindingScan, IndexOrderedScan, RelationScan, TableScan
from .filter import Filter
from .project import Project
from .joins import (
    HashAntiJoin,
    HashFullOuterJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    MergeJoin,
    NestedLoopJoin,
    NotInAntiJoin,
    contains_binding_scan,
    stable_input_fingerprint,
)
from .prune import ColumnPrune
from .aggregate import HashAggregate, SortAggregate
from .batch import (
    BatchFilter,
    BatchHashAggregate,
    BatchHashAntiJoin,
    BatchHashFullOuterJoin,
    BatchHashJoin,
    BatchHashLeftOuterJoin,
    BatchHashSemiJoin,
    BatchProject,
    BatchUnion,
    BatchUnionAll,
)
from .setops import ExceptOp, IntersectOp, UnionAllOp, UnionDistinctOp
from .sort import Sort
from .distinct import Distinct
from .limit import Limit
from .bind import Bind
from .rename import ReorderColumns, Requalify
from .window import WindowAggregate, WindowSpec

__all__ = [
    "ReorderColumns",
    "Requalify",
    "WindowAggregate",
    "WindowSpec",
    "PhysicalOperator",
    "explain_plan",
    "OperatorStats",
    "StatsSink",
    "recording",
    "render_analysis",
    "TableScan",
    "RelationScan",
    "BindingScan",
    "IndexOrderedScan",
    "Filter",
    "Project",
    "ColumnPrune",
    "HashJoin",
    "contains_binding_scan",
    "stable_input_fingerprint",
    "MergeJoin",
    "NestedLoopJoin",
    "HashLeftOuterJoin",
    "HashFullOuterJoin",
    "HashSemiJoin",
    "HashAntiJoin",
    "NotInAntiJoin",
    "HashAggregate",
    "SortAggregate",
    "BatchHashJoin",
    "BatchHashLeftOuterJoin",
    "BatchHashFullOuterJoin",
    "BatchHashSemiJoin",
    "BatchHashAntiJoin",
    "BatchHashAggregate",
    "BatchProject",
    "BatchFilter",
    "BatchUnion",
    "BatchUnionAll",
    "UnionAllOp",
    "UnionDistinctOp",
    "ExceptOp",
    "IntersectOp",
    "Sort",
    "Distinct",
    "Limit",
    "Bind",
]
