"""Unit tests for the extensible type/operator/function registries."""

from unittest import mock

import pytest

from repro.core import Calendar, CivilDate
from repro.db import ANY, DataTypeError, FunctionRegistry, \
    OperatorRegistry, TypeRegistry
from repro.db.storage import Relation, Schema


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


class TestColumnValidators:
    """A relation binds its columns' validators once and rebinds them
    when a type is replaced."""

    def _relation(self, types):
        return Relation("ledger", Schema([("who", "text"),
                                          ("amount", "money")]), types)

    def test_replaced_type_is_enforced_on_the_next_insert(self):
        types = TypeRegistry()
        types.define("money", lambda v: isinstance(v, int))
        ledger = self._relation(types)
        ledger.insert({"who": "ana", "amount": -5})
        types.define("money", lambda v: isinstance(v, int) and v >= 0,
                     replace=True)
        with pytest.raises(DataTypeError) as caught:
            ledger.insert({"who": "bo", "amount": -5})
        assert str(caught.value) == "value -5 is not a valid money"
        with pytest.raises(DataTypeError):
            ledger.insert_many([{"who": "cy", "amount": -1}])
        (tid,) = [row["_tid"] for row in ledger.scan()]
        with pytest.raises(DataTypeError):
            ledger.update(tid, {"amount": -2})
        ledger.insert({"who": "dee", "amount": 7})
        assert [row["amount"] for row in ledger.scan()] == [-5, 7]

    def test_defining_a_new_type_keeps_the_binding(self):
        types = TypeRegistry()
        types.define("money", lambda v: isinstance(v, int))
        ledger = self._relation(types)
        ledger.insert({"who": "ana", "amount": 1})
        bound = ledger._bound
        types.define("euro", lambda v: isinstance(v, int))
        ledger.insert({"who": "bo", "amount": 2})
        assert ledger._bound is bound

    def test_unknown_column_type_raises_on_every_insert(self):
        ledger = self._relation(TypeRegistry())
        for _ in range(2):
            with pytest.raises(DataTypeError, match="unknown type 'money'"):
                ledger.insert({"who": "ana", "amount": 1})
        assert ledger.scan() == []


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
