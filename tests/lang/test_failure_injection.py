"""Failure injection: malformed inputs must fail cleanly, never crash.

Every input below must raise a library error (never a bare TypeError /
AttributeError / RecursionError escape), with the original text context
preserved where applicable.
"""

import pytest

from repro.core.errors import CalendarError
from repro.db import Database, DatabaseError
from repro.lang import LanguageError, parse_expression, parse_script

BAD_CEL_SYNTAX = [
    "",                                   # empty
    "[",                                  # dangling bracket
    "[]/DAYS",                            # empty predicate
    "[0]/DAYS",                           # index zero
    "DAYS:during",                        # incomplete foreach
    "DAYS:during:",                       # missing right operand
    "DAYS::WEEKS",                        # missing listop
    ":during:WEEKS",                      # missing left operand
    "DAYS.during:WEEKS",                  # mixed separators
    "(DAYS",                              # unbalanced paren
    "DAYS)",                              # trailing paren
    "DAYS WEEKS",                         # juxtaposition
    "1993/",                              # dangling label select
    '"unterminated',                      # bad string
    "/* unterminated comment",            # bad comment
    "DAYS + ",                            # dangling setop
    "caloperate(",                        # dangling call
    "interval(1)",                        # wrong arity
    "interval(a, b)",                     # non-numeric endpoints
    "[4-2]/DAYS",                         # inverted range
]

BAD_CEL_SCRIPTS = [
    "{x = DAYS}",                         # missing semicolon
    "{return DAYS;}",                     # return without parens
    "{if DAYS return(DAYS);}",            # if without parens
    "{while (DAYS) }",                    # while without body or ';'
    "{x = ;}",                            # empty right side
    "{return(x);",                        # missing closing brace
]

BAD_CEL_SEMANTIC = [
    "NO_SUCH_CALENDAR",                   # unknown name
    "DAYS:zigzag:WEEKS",                  # unknown listop
    "mystery(DAYS)",                      # unknown function
    "today",                              # today unbound
    "5 + DAYS",                           # number as calendar
    "generate(DAYS)",                     # bad arity
    'generate(DAYS, MONTHS, "Jan 1 1993", "Dec 31 1993")',  # coarser unit
    "caloperate(DAYS, *; 0)",             # zero group size
    "(WEEKS:during:MONTHS) + DAYS",       # setop on order-2
    "1993/Mondays",                       # label select needs labels
]

BAD_QL = [
    "",                                    # empty
    "select * from t",                     # wrong dialect
    "retrieve s.name from s in t",         # missing parens
    "retrieve (s.name) from s t",          # missing 'in'
    "retrieve (s.name) where",             # dangling where
    "append t (x = )",                     # empty expression
    "append t (x 5)",                      # missing '='
    "delete",                              # missing variable
    "create table t (x)",                  # missing type
    "create table t (x int4) key x",       # key without parens
    "define rule r on append to t do append t (x = 1)",  # actions parens
    "retrieve (s.x) from s in t order by", # dangling order by
    'retrieve (s.x) from s in t on',       # dangling on
]

BAD_QL_SEMANTIC = [
    "retrieve (s.x) from s in no_such_relation",
    "retrieve (s.missing_col) from s in pg_class",
    "retrieve (t.relname) from s in pg_class",     # unbound var
    "append pg_class (nope = 1)",                  # unknown column
    "create table pg_class (x int4)",              # duplicate relation
    "drop table no_such",
    'retrieve (member("a", "Mondays"))',           # wrong member arg
    "retrieve (s.relname) from s in pg_class as of \"abc\"",
]


class TestCelSyntaxErrors:
    @pytest.mark.parametrize("text", BAD_CEL_SYNTAX)
    def test_expression_raises_language_error(self, text):
        with pytest.raises(LanguageError):
            parse_expression(text)

    @pytest.mark.parametrize("text", BAD_CEL_SCRIPTS)
    def test_script_raises_language_error(self, text):
        with pytest.raises(LanguageError):
            parse_script(text)


class TestCelSemanticErrors:
    @pytest.mark.parametrize("text", BAD_CEL_SEMANTIC)
    def test_evaluation_raises_calendar_error(self, registry, text):
        with pytest.raises(CalendarError):
            registry.eval_expression(text,
                                     window=("Jan 1 1993", "Dec 31 1993"))


class TestQlErrors:
    @pytest.mark.parametrize("text", BAD_QL)
    def test_parse_raises_database_error(self, db, text):
        with pytest.raises(DatabaseError):
            db.execute(text)

    @pytest.mark.parametrize("text", BAD_QL_SEMANTIC)
    def test_execution_raises_database_error(self, db, text):
        with pytest.raises(DatabaseError):
            db.execute(text)


class TestErrorQuality:
    def test_cel_error_carries_position(self):
        try:
            parse_expression("DAYS:during:\n   :")
        except LanguageError as exc:
            assert exc.line is not None
        else:
            pytest.fail("expected a LanguageError")

    def test_unknown_name_mentions_the_name(self, registry):
        with pytest.raises(CalendarError, match="NO_SUCH"):
            registry.eval_expression("NO_SUCH")

    def test_rule_action_failure_propagates(self, db):
        from repro.rules import RuleManager
        manager = RuleManager(db)
        db.create_table("src5", [("x", "int4")])
        manager.declare_event(
            "broken", event="append", relation="src5",
            actions=['append no_such_sink (x = new.x)'])
        with pytest.raises(DatabaseError):
            db.insert("src5", x=1)

    def test_script_error_does_not_poison_registry(self, registry):
        with pytest.raises(CalendarError):
            registry.eval_expression("NOPE_1")
        # The registry still works afterwards.
        cal = registry.eval_expression(
            "[2]/DAYS:during:[1]/WEEKS:during:1993/YEARS")
        assert len(cal) == 1
