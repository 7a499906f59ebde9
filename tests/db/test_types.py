"""Unit tests for the extensible type/operator/function registries."""

from unittest import mock

import pytest

from repro.core import Calendar, CivilDate
from repro.db import ANY, DataTypeError, FunctionRegistry, \
    OperatorRegistry, TypeRegistry


class TestTypeRegistry:
    def test_builtin_types_present(self):
        registry = TypeRegistry()
        for name in ("int4", "float8", "text", "bool", "date", "abstime",
                     "calendar"):
            assert name in registry

    def test_validate_accepts(self):
        registry = TypeRegistry()
        assert registry.get("int4").validate(5) == 5
        assert registry.get("text").validate("x") == "x"
        assert registry.get("calendar").validate(
            Calendar.point(1)) is not None
        assert registry.get("date").validate(CivilDate(1993, 1, 1))

    def test_validate_rejects(self):
        registry = TypeRegistry()
        with pytest.raises(DataTypeError):
            registry.get("int4").validate("five")
        with pytest.raises(DataTypeError):
            registry.get("bool").validate(1)
        with pytest.raises(DataTypeError):
            registry.get("int4").validate(True)  # bool is not int4

    def test_none_always_allowed(self):
        registry = TypeRegistry()
        assert registry.get("int4").validate(None) is None

    def test_float8_accepts_int(self):
        registry = TypeRegistry()
        assert registry.get("float8").validate(5) == 5

    def test_define_adt(self):
        registry = TypeRegistry()
        registry.define("money", lambda v: isinstance(v, int),
                        "cents as int")
        assert registry.get("money").validate(100) == 100

    def test_duplicate_type_rejected(self):
        registry = TypeRegistry()
        with pytest.raises(DataTypeError):
            registry.define("int4", lambda v: True)

    def test_unknown_type(self):
        with pytest.raises(DataTypeError):
            TypeRegistry().get("missing")


class TestOperatorRegistry:
    def test_register_and_resolve_exact(self):
        ops = OperatorRegistry()
        ops.register("+", "calendar", "calendar", lambda a, b: "cal+")
        assert ops.resolve("+", "calendar", "calendar")(None, None) == \
            "cal+"

    def test_wildcards(self):
        ops = OperatorRegistry()
        ops.register("~", "text", ANY, lambda a, b: "left-text")
        assert ops.resolve("~", "text", "int4") is not None
        assert ops.resolve("~", "int4", "int4") is None

    def test_exact_beats_wildcard(self):
        ops = OperatorRegistry()
        ops.register("+", ANY, ANY, lambda a, b: "any")
        ops.register("+", "int4", "int4", lambda a, b: "exact")
        assert ops.resolve("+", "int4", "int4")(1, 2) == "exact"

    def test_duplicate_rejected(self):
        ops = OperatorRegistry()
        ops.register("+", "int4", "int4", lambda a, b: 1)
        with pytest.raises(DataTypeError):
            ops.register("+", "int4", "int4", lambda a, b: 2)

    def test_replace(self):
        ops = OperatorRegistry()
        ops.register("+", "int4", "int4", lambda a, b: 1)
        ops.register("+", "int4", "int4", lambda a, b: 2, replace=True)
        assert ops.resolve("+", "int4", "int4")(0, 0) == 2

    def test_resolution_memoised_until_the_next_register(self):
        ops = OperatorRegistry()
        spy = mock.Mock(wraps=ops._lookup)
        with mock.patch.object(ops, "_lookup", spy):
            for _ in range(3):
                assert ops.resolve("+", "int4", "int4") is None
            assert spy.call_count == 1
            ops.register("+", ANY, "int4", lambda a, b: "any-int")
            assert ops.resolve("+", "int4", "int4")(0, 0) == "any-int"
            ops.register("+", "int4", "int4", lambda a, b: "exact")
            assert ops.resolve("+", "int4", "int4")(0, 0) == "exact"
            assert spy.call_count == 3

    def test_names_sorted_distinct_and_a_copy(self):
        ops = OperatorRegistry()
        ops.register("~", "text", ANY, lambda a, b: 1)
        ops.register("+", "int4", "int4", lambda a, b: 2)
        ops.register("+", "text", "text", lambda a, b: 3)
        names = ops.names()
        assert names == ["+", "~"]
        names.append("*")
        assert ops.names() == ["+", "~"]


class TestFunctionRegistry:
    def test_register_resolve(self):
        fns = FunctionRegistry()
        fns.register("triple", lambda x: 3 * x)
        assert fns.resolve("TRIPLE")(4) == 12

    def test_missing_is_none(self):
        assert FunctionRegistry().resolve("nope") is None

    def test_duplicate_rejected(self):
        fns = FunctionRegistry()
        fns.register("f", lambda: 1)
        with pytest.raises(DataTypeError):
            fns.register("F", lambda: 2)
