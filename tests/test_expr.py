"""Tests for the potential-expression language."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmdisc.expr import (
    ExprError,
    PotentialExpr,
    as_polynomial,
    compile_node,
    parse_expr,
)


def eval_at(node, x):
    return complex(compile_node(node)(x))


class TestParsing:
    def test_constant(self):
        assert eval_at(parse_expr("3"), 0.7) == 3

    def test_imaginary_suffix(self):
        assert eval_at(parse_expr("2i"), 0.0) == 2j

    def test_precedence(self):
        assert eval_at(parse_expr("1 + 2 * 3"), 0.0) == 7
        assert eval_at(parse_expr("(1 + 2) * 3"), 0.0) == 9

    def test_unary_minus_inside_power(self):
        # grammar: '-' is part of the base, so -x^2 means (-x)^2
        assert eval_at(parse_expr("-x^2"), 3.0) == 9
        assert eval_at(parse_expr("-(x^2)"), 3.0) == -9

    def test_functions(self):
        x = 0.83
        got = eval_at(parse_expr("sin(x) * cos(x) + exp(x)"), x)
        want = math.sin(x) * math.cos(x) + math.exp(x)
        assert got == pytest.approx(want, rel=1e-15)

    def test_hyperbolic(self):
        x = 1.2
        assert eval_at(parse_expr("sinh(x) - cosh(x)"), x) == pytest.approx(
            math.sinh(x) - math.cosh(x), rel=1e-15
        )

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprError):
            parse_expr("2 x")

    def test_fractional_power_rejected(self):
        with pytest.raises(ExprError):
            parse_expr("x^0.5")

    def test_error_carries_offset(self):
        with pytest.raises(ExprError) as err:
            parse_expr("sin(x) + @")
        assert err.value.offset == 9

    def test_unknown_identifier(self):
        with pytest.raises(ExprError):
            parse_expr("tan(x)")


# strategy for random expression sources
_leaves = st.one_of(
    st.just("x"),
    st.floats(-5, 5, allow_nan=False).map(lambda v: "%.3f" % v),
    st.integers(0, 9).map(lambda v: f"{v}i"),
)


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_leaves)
    op = draw(st.sampled_from(["+", "-", "*", "/", "func", "pow", "neg"]))
    a = draw(expressions(depth=depth + 1))
    if op == "func":
        f = draw(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]))
        return f"{f}({a})"
    if op == "pow":
        n = draw(st.integers(0, 4))
        return f"({a})^{n}"
    if op == "neg":
        return f"-({a})"
    b = draw(expressions(depth=depth + 1))
    return f"({a}) {op} ({b})"


class TestNonFinite:
    @pytest.mark.parametrize(
        "src", ["1/0", "1e400", "10^400", "(1e300 * 1)^2", "exp(1000 * x)", "1/x"]
    )
    def test_rejected_at_construction(self, src):
        with pytest.raises(ExprError):
            PotentialExpr.parse(src)

    def test_piece_is_checked_on_its_own_interval(self):
        # 1/(x - 2) is finite on [0, 1] but reaches x = 2 on the second piece
        spec = [
            {"interval": [0.0, 1.0], "expr": "1/(x - 2)"},
            {"interval": [1.0, math.pi], "expr": "0"},
        ]
        PotentialExpr.from_spec(spec)
        spec[1]["expr"] = "1/(x - 1)"
        with pytest.raises(ExprError):
            PotentialExpr.from_spec(spec)

    def test_polynomial_divisor_root_between_samples(self):
        # x = 1 lies between the 9 sample points of [0, pi]
        with pytest.raises(ExprError, match="pole"):
            PotentialExpr.parse("1/(x - 1)")
        with pytest.raises(ExprError, match="pole"):
            PotentialExpr.parse("sin(x) + 2/((x - 1.2)^2 * (x + 3))")
        PotentialExpr.parse("1/(x - 4)")
        PotentialExpr.parse("1/(x^2 + 1)")

    @given(expressions())
    # x/0 is a constant divisor 0, and (x/0)^0 evaluates to 1 everywhere
    @example("(((x) + (x)) + ((x) + (x))) / (((x) / (0.000))^0)")
    @settings(max_examples=120, deadline=None)
    def test_parse_gives_finite_values_or_expr_error(self, src):
        try:
            q = PotentialExpr.parse(src)
        except ExprError:
            return
        assert np.isfinite(q(np.linspace(0.0, math.pi, 9))).all()


class TestPolynomialPath:
    def test_polynomial_detected(self):
        poly = as_polynomial(parse_expr("1 + 2 * x + x^3"))
        assert poly is not None
        assert poly(2.0) == pytest.approx(1 + 4 + 8)

    def test_transcendental_not_polynomial(self):
        assert as_polynomial(parse_expr("sin(x)")) is None


class TestPotentialExpr:
    def test_scalar_and_vector_evaluation_agree(self):
        q = PotentialExpr.parse("sin(x) + 1")
        xs = np.linspace(0.1, 3.0, 7)
        vec = q(xs)
        for x, v in zip(xs, vec):
            assert complex(v) == pytest.approx(q(float(x)), rel=1e-15)

    def test_piecewise_sides(self):
        q = PotentialExpr.from_spec(
            [
                {"interval": [0.0, 1.0], "expr": "0"},
                {"interval": [1.0, math.pi], "expr": "1"},
            ]
        )
        assert q(1.0, side="left") == 0
        assert q(1.0, side="right") == 1

    def test_pieces_must_tile(self):
        with pytest.raises(ValueError):
            PotentialExpr.from_spec(
                [
                    {"interval": [0.0, 1.0], "expr": "0"},
                    {"interval": [2.0, math.pi], "expr": "1"},
                ]
            )
