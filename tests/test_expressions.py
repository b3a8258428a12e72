"""Tests for bound expression evaluation."""

import pytest

from repro.engine import expressions as e
from repro.engine.types import SqlType
from repro.errors import EvaluationError, TypeError_

CTX = e.DEFAULT_CONTEXT


def col(index, sql_type=SqlType.INT):
    return e.ColumnRef(index, sql_type)


def lit(value):
    return e.Literal(value)


class TestLiteralsAndColumns:
    def test_literal_infers_type(self):
        assert lit(1).type == SqlType.INT
        assert lit("x").type == SqlType.TEXT
        assert lit(None).type == SqlType.NULL

    def test_column_lookup(self):
        assert col(1).eval((10, 20), CTX) == 20

    def test_remap(self):
        remapped = col(0).remap({0: 3})
        assert remapped.index == 3

    def test_column_indices(self):
        expr = e.Arithmetic("+", col(0), col(2))
        assert expr.column_indices() == {0, 2}


class TestArithmetic:
    def test_basic(self):
        assert e.Arithmetic("+", lit(2), lit(3)).eval((), CTX) == 5
        assert e.Arithmetic("*", lit(4), lit(3)).eval((), CTX) == 12
        assert e.Arithmetic("-", lit(4), lit(3)).eval((), CTX) == 1
        assert e.Arithmetic("%", lit(7), lit(3)).eval((), CTX) == 1

    def test_division_is_float(self):
        expr = e.Arithmetic("/", lit(7), lit(2))
        assert expr.type == SqlType.FLOAT
        assert expr.eval((), CTX) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            e.Arithmetic("/", lit(1), lit(0)).eval((), CTX)

    def test_null_propagates(self):
        assert e.Arithmetic("+", lit(None), lit(1)).eval((), CTX) is None

    def test_int_float_widens(self):
        assert e.Arithmetic("+", lit(1), lit(2.5)).type == SqlType.FLOAT

    def test_text_rejected_statically(self):
        with pytest.raises(TypeError_):
            e.Arithmetic("+", lit("a"), lit(1))


class TestComparison:
    def test_operators(self):
        assert e.Comparison("<", lit(1), lit(2)).eval((), CTX) is True
        assert e.Comparison(">=", lit(2), lit(2)).eval((), CTX) is True
        assert e.Comparison("!=", lit(1), lit(1)).eval((), CTX) is False

    def test_null_yields_null(self):
        assert e.Comparison("=", lit(None), lit(1)).eval((), CTX) is None

    def test_incomparable_types_rejected(self):
        with pytest.raises(TypeError_):
            e.Comparison("=", lit("a"), lit(1))


class TestBooleans:
    def test_short_circuit_and(self):
        poison = e.Arithmetic("/", lit(1), lit(0))
        guarded = e.Comparison(">", poison, lit(0))
        expr = e.BooleanOp("and", (lit(False), guarded))
        assert expr.eval((), CTX) is False

    def test_or_with_null(self):
        assert e.BooleanOp("or", (lit(None), lit(True))).eval((), CTX) is True
        assert e.BooleanOp("or", (lit(None), lit(False))).eval((), CTX) is None

    def test_not(self):
        assert e.Not(lit(True)).eval((), CTX) is False
        assert e.Not(lit(None)).eval((), CTX) is None


class TestPredicates:
    def test_is_null(self):
        assert e.IsNull(lit(None)).eval((), CTX) is True
        assert e.IsNull(lit(1), negated=True).eval((), CTX) is True

    def test_in_list(self):
        expr = e.InList(col(0), (lit(1), lit(2)))
        assert expr.eval((1,), CTX) is True
        assert expr.eval((3,), CTX) is False

    def test_in_list_null_semantics(self):
        expr = e.InList(col(0), (lit(1), lit(None)))
        assert expr.eval((1,), CTX) is True
        assert expr.eval((3,), CTX) is None  # not found, NULL present
        assert expr.eval((None,), CTX) is None

    def test_not_in(self):
        expr = e.InList(col(0), (lit(1),), negated=True)
        assert expr.eval((2,), CTX) is True
        assert expr.eval((1,), CTX) is False

    def test_like(self):
        assert e.Like(lit("hello"), lit("h%o")).eval((), CTX) is True
        assert e.Like(lit("hello"), lit("h_llo")).eval((), CTX) is True
        assert e.Like(lit("hello"), lit("x%")).eval((), CTX) is False

    def test_like_escapes_regex_chars(self):
        assert e.Like(lit("a.b"), lit("a.b")).eval((), CTX) is True
        assert e.Like(lit("axb"), lit("a.b")).eval((), CTX) is False


class TestCaseCastPath:
    def test_case(self):
        expr = e.Case(
            ((e.Comparison(">", col(0), lit(0)), lit("pos")),),
            lit("neg"))
        assert expr.eval((5,), CTX) == "pos"
        assert expr.eval((-5,), CTX) == "neg"

    def test_case_null_condition_is_false(self):
        expr = e.Case(((lit(None), lit("x")),), lit("y"))
        assert expr.eval((), CTX) == "y"

    def test_cast(self):
        assert e.Cast(lit("42"), SqlType.INT).eval((), CTX) == 42

    def test_variant_path(self):
        expr = e.VariantPath(col(0, SqlType.VARIANT), ("a", "b"))
        assert expr.eval(({"a": {"b": 7}},), CTX) == 7
        assert expr.eval(({"a": {}},), CTX) is None
        assert expr.eval((None,), CTX) is None

    def test_variant_path_array_index(self):
        expr = e.VariantPath(col(0, SqlType.VARIANT), ("0",))
        assert expr.eval(([10, 20],), CTX) == 10


class TestFunctions:
    def lookup(self, name):
        return e.DEFAULT_REGISTRY.lookup(name)

    def test_scalar_functions(self):
        assert e.FunctionCall(self.lookup("abs"), (lit(-3),)).eval((), CTX) == 3
        assert e.FunctionCall(self.lookup("upper"), (lit("ab"),)).eval((), CTX) == "AB"
        assert e.FunctionCall(self.lookup("length"), (lit("abc"),)).eval((), CTX) == 3

    def test_null_on_null(self):
        assert e.FunctionCall(self.lookup("abs"), (lit(None),)).eval((), CTX) is None

    def test_coalesce_handles_nulls_itself(self):
        expr = e.FunctionCall(self.lookup("coalesce"),
                              (lit(None), lit(None), lit(3)))
        assert expr.eval((), CTX) == 3

    def test_iff(self):
        # IFF is bound as a lazy CASE (plan/builder.py), not looked up in
        # the registry: only the selected branch is evaluated.
        from repro.errors import BindError
        from repro.plan.builder import DictSchemaProvider, build_plan
        from repro.sql.parser import parse_query

        def bound(sql):
            plan = build_plan(parse_query(sql), DictSchemaProvider({}, {}))
            return plan.exprs[0]

        expr = bound("SELECT iff(true, 1, 2)")
        assert isinstance(expr, e.Case)
        assert expr.eval((), CTX) == 1
        assert bound("SELECT iff(NULL, 1, 2)").eval((), CTX) == 2
        assert bound("SELECT iff(false, 1 / 0, 7)").eval((), CTX) == 7
        with pytest.raises(TypeError_):
            self.lookup("iff")
        with pytest.raises(BindError):
            bound("SELECT iff(true, 1)")

    @pytest.mark.parametrize("args, expected", [
        ((0.5,), 1.0), ((1.5,), 2.0), ((2.5,), 3.0),       # ties: away from 0
        ((-0.5,), -1.0), ((-1.5,), -2.0), ((-2.5,), -3.0),
        ((2.4,), 2.0), ((-2.6,), -3.0),
        ((0.125, 2), 0.13), ((-0.125, 2), -0.13), ((2.675, 2), 2.68),
        ((3.14159, 3), 3.142), ((25, -1), 30), ((7,), 7),
        ((1e300, 2), 1e300),
    ])
    def test_round_half_away_from_zero(self, args, expected):
        call = e.FunctionCall(self.lookup("round"),
                              tuple(lit(arg) for arg in args))
        result = call.eval((), CTX)
        assert result == expected
        assert type(result) is type(expected)
        assert e.compile_expression_columnar(call)([], 1) == [expected]

    def test_round_null(self):
        for args in ((lit(None),), (lit(None), lit(2)), (lit(1.5), lit(None))):
            call = e.FunctionCall(self.lookup("round"), args)
            assert call.eval((), CTX) is None

    def test_date_trunc(self):
        hour_ns = 3_600_000_000_000
        expr = e.FunctionCall(self.lookup("date_trunc"),
                              (lit("hour"), lit(hour_ns + 5)))
        assert expr.eval((), CTX) == hour_ns

    def test_substr_one_based(self):
        expr = e.FunctionCall(self.lookup("substr"), (lit("hello"), lit(2), lit(3)))
        assert expr.eval((), CTX) == "ell"

    def test_unknown_function(self):
        with pytest.raises(TypeError_):
            self.lookup("no_such_fn")

    def test_udf_registration_and_volatility(self):
        registry = e.FunctionRegistry()
        registry.register_udf("double_it", lambda x: x * 2,
                              SqlType.INT, immutable=True)
        registry.register_udf("rng", lambda: 4, SqlType.INT, immutable=False)
        call = e.FunctionCall(registry.lookup("double_it"), (lit(5),))
        assert call.eval((), CTX) == 10
        assert call.is_deterministic
        volatile = e.FunctionCall(registry.lookup("rng"), ())
        assert not volatile.is_deterministic

    def test_udf_cannot_shadow_builtin(self):
        registry = e.FunctionRegistry()
        with pytest.raises(TypeError_):
            registry.register_udf("abs", lambda x: x)

    def test_function_error_wrapped(self):
        registry = e.FunctionRegistry()
        registry.register_udf("boom", lambda: 1 / 0, SqlType.INT)
        with pytest.raises(EvaluationError):
            e.FunctionCall(registry.lookup("boom"), ()).eval((), CTX)


class TestContextFunctions:
    def test_current_timestamp(self):
        ctx = e.EvalContext(timestamp=123)
        assert e.ContextFunction("current_timestamp").eval((), ctx) == 123

    def test_current_role(self):
        ctx = e.EvalContext(timestamp=0, role="analyst")
        assert e.ContextFunction("current_role").eval((), ctx) == "analyst"

    def test_uses_context_flag(self):
        assert e.ContextFunction("current_timestamp").uses_context
        assert not lit(1).uses_context
        wrapped = e.Arithmetic("+", e.Cast(e.ContextFunction(
            "current_timestamp"), SqlType.INT), lit(1))
        assert wrapped.uses_context


class TestConjuncts:
    def test_flatten(self):
        a = e.Comparison("=", col(0), lit(1))
        b = e.Comparison("=", col(1), lit(2))
        c = e.Comparison("=", col(2), lit(3))
        combined = e.BooleanOp("and", (e.BooleanOp("and", (a, b)), c))
        assert e.conjuncts(combined) == [a, b, c]

    def test_conjoin_empty_is_true(self):
        assert e.conjoin([]).eval((), CTX) is True

    def test_conjoin_single(self):
        a = e.Comparison("=", col(0), lit(1))
        assert e.conjoin([a]) is a
