"""An in-memory relational engine: the RDBMS substrate of the reproduction.

This package stands in for the Oracle / DB2 / PostgreSQL installations the
paper ran on.  The public surface:

* :class:`Engine` — parse + execute SQL (including with+ recursion) under a
  dialect profile; ``Engine(dialect, **REFERENCE_PROFILE)`` is the paper's
  modelled RDBMS (the differential oracle), ``Engine(dialect)`` the array
  engine; a :class:`WarmStart` resumes a recursive CTE from a seed;
* :class:`Database`, :class:`Table`, :class:`Relation`, :class:`Schema` —
  the storage and algebra layer the paper's operators are defined over;
* :mod:`repro.relational.strategies` — the union-by-update strategies of
  the paper's Exp-1.
"""

from .database import Database
from .engine import REFERENCE_PROFILE, Engine
from .errors import (
    BindError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    FeatureNotSupportedError,
    ParseError,
    PlanError,
    RecursionLimitError,
    RelationalError,
    SchemaError,
    StratificationError,
)
from .recursive import WarmStart
from .relation import AggregateSpec, Relation
from .schema import Column, Schema
from .table import Table
from .types import INFINITY, SqlType

__all__ = [
    "Engine",
    "REFERENCE_PROFILE",
    "Database",
    "Table",
    "Relation",
    "WarmStart",
    "AggregateSpec",
    "Schema",
    "Column",
    "SqlType",
    "INFINITY",
    "RelationalError",
    "SchemaError",
    "CatalogError",
    "ParseError",
    "BindError",
    "PlanError",
    "ExecutionError",
    "ConstraintError",
    "FeatureNotSupportedError",
    "StratificationError",
    "RecursionLimitError",
]
