"""Mini-POSTGRES substrate: extensible types, storage, Postquel, indexes."""

from repro.db.database import Database
from repro.db.errors import (
    DatabaseError,
    DataTypeError,
    ExecutionError,
    IntegrityError,
    QueryError,
    RuleError,
    SchemaError,
)
from repro.db.executor import Executor, Result
from repro.db.index import CalendarProbe, OrderedIndex
from repro.db.ql.parser import parse_ql_expression, parse_statement
from repro.db.storage import Column, Relation, Schema
from repro.db.types import (
    ANY,
    DataType,
    FunctionRegistry,
    OperatorRegistry,
    TypeRegistry,
)

__all__ = [
    "Database", "Result", "Executor",
    "Column", "Schema", "Relation",
    "DataType", "TypeRegistry", "OperatorRegistry", "FunctionRegistry",
    "ANY", "OrderedIndex", "CalendarProbe",
    "parse_statement", "parse_ql_expression",
    "DatabaseError", "SchemaError", "DataTypeError", "QueryError",
    "ExecutionError", "IntegrityError", "RuleError",
]
