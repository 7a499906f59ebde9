"""The extensible type and operator system.

This is the substrate feature the paper leans on: POSTGRES lets users
*declare new abstract data types and operators over them*, and the calendar
system is implemented as exactly such declarations.  :class:`TypeRegistry`
holds data types (including the ``calendar`` ADT), and
:class:`OperatorRegistry` / :class:`FunctionRegistry` hold operators and
functions that the query language resolves by name and operand type.

Built-in types: ``int4``, ``float8``, ``text``, ``bool``, ``date`` (a
:class:`~repro.core.chrono.CivilDate`), ``abstime`` (an axis day tick) and
``calendar`` (an order-n :class:`~repro.core.calendar.Calendar`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.calendar import Calendar
from repro.core.chrono import CivilDate
from repro.db.errors import DataTypeError

__all__ = ["DataType", "TypeRegistry", "OperatorRegistry",
           "FunctionRegistry", "ANY"]

#: Wildcard operand type for operator/function registration.
ANY = "any"


@dataclass(frozen=True)
class DataType:
    """A named data type with a Python-level validity check."""

    name: str
    check: Callable[[object], bool]
    description: str = ""

    def validate(self, value: object) -> object:
        """Return ``value`` if it conforms (None always passes)."""
        if value is None:
            return None
        if not self.check(value):
            raise DataTypeError(
                f"value {value!r} is not a valid {self.name}")
        return value


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_float(v: object) -> bool:
    return (isinstance(v, float)
            or (isinstance(v, int) and not isinstance(v, bool)))


class TypeRegistry:
    """Data types known to one database."""

    def __init__(self) -> None:
        self._types: dict[str, DataType] = {}
        #: Bumped when ``define`` replaces a type: relations bind their
        #: columns' validators once and rebind when this moves.
        self.generation = 0
        for dtype in (
            DataType("int4", _is_int, "32-bit integer"),
            DataType("float8", _is_float, "double precision"),
            DataType("text", lambda v: isinstance(v, str), "string"),
            DataType("bool", lambda v: isinstance(v, bool), "boolean"),
            DataType("date", lambda v: isinstance(v, CivilDate),
                     "civil date"),
            DataType("abstime", _is_int,
                     "axis day tick (integer, no day 0)"),
            DataType("calendar", lambda v: isinstance(v, Calendar),
                     "order-n collection of intervals (the calendar ADT)"),
        ):
            self._types[dtype.name] = dtype

    def define(self, name: str, check: Callable[[object], bool],
               description: str = "", replace: bool = False) -> DataType:
        """Declare a new abstract data type (the POSTGRES extensibility hook)."""
        key = name.lower()
        if key in self._types and not replace:
            raise DataTypeError(f"type {name!r} is already defined")
        dtype = DataType(key, check, description)
        if key in self._types:
            self.generation += 1
        self._types[key] = dtype
        return dtype

    def get(self, name: str) -> DataType:
        """The type named ``name`` (raises DataTypeError if unknown)."""
        try:
            return self._types[name.lower()]
        except KeyError:
            raise DataTypeError(f"unknown type {name!r}") from None

    def names(self) -> list[str]:
        """Sorted names of all known types."""
        return sorted(self._types)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._types


@dataclass(frozen=True)
class _OpKey:
    name: str
    left: str
    right: str


class OperatorRegistry:
    """Binary operators resolved by (name, left type, right type).

    Resolution tries the exact signature, then wildcard variants
    (``ANY`` on either or both sides).  Answers, ``None`` included, are
    memoised per ``(name, left, right)``; :meth:`register`, the only
    writer of the operator table, starts a fresh memo.
    """

    def __init__(self) -> None:
        self._ops: dict[_OpKey, Callable] = {}
        #: Distinct operator names, kept in step by ``register`` (replaced,
        #: never mutated, so a concurrent reader sees one whole set).
        self._names: frozenset[str] = frozenset()
        self._memo: dict[tuple[str, str, str], Callable | None] = {}

    def register(self, name: str, left: str, right: str,
                 func: Callable[[object, object], object],
                 replace: bool = False) -> None:
        """Declare an operator implementation for a type signature."""
        key = _OpKey(name, left.lower(), right.lower())
        if key in self._ops and not replace:
            raise DataTypeError(
                f"operator {name!r}({left}, {right}) is already defined")
        self._ops[key] = func
        self._memo = {}
        if name not in self._names:
            self._names = self._names | {name}

    def resolve(self, name: str, left: str, right: str) -> Callable | None:
        """Best implementation for the operand types, or None."""
        # A lookup racing a ``register`` stores into the memo it began
        # with, which the register has already replaced.
        memo = self._memo
        key = (name, left, right)
        try:
            return memo[key]
        except KeyError:
            func = memo[key] = self._lookup(name, left, right)
            return func

    def _lookup(self, name: str, left: str, right: str) -> Callable | None:
        """The uncached resolution :meth:`resolve` memoises."""
        for lt, rt in ((left, right), (left, ANY), (ANY, right), (ANY, ANY)):
            func = self._ops.get(_OpKey(name, lt.lower(), rt.lower()))
            if func is not None:
                return func
        return None

    def __contains__(self, name: str) -> bool:
        """Whether any operator of this name is registered."""
        return name in self._names

    def names(self) -> list[str]:
        """Sorted distinct operator names."""
        return sorted(self._names)


class FunctionRegistry:
    """Named functions callable from the query language."""

    def __init__(self) -> None:
        self._functions: dict[str, Callable] = {}

    def register(self, name: str, func: Callable,
                 replace: bool = False) -> None:
        """Declare a named function callable from queries."""
        key = name.lower()
        if key in self._functions and not replace:
            raise DataTypeError(f"function {name!r} is already defined")
        self._functions[key] = func

    def resolve(self, name: str) -> Callable | None:
        """The function registered under ``name``, or None."""
        return self._functions.get(name.lower())

    def names(self) -> list[str]:
        """Sorted names of all registered functions."""
        return sorted(self._functions)
