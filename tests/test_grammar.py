import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym import MultiIndex, Workspace, normalize, parse, print_expr
from jetsym.errors import (DivisionByZero, ExprSyntaxError, JetOrderExceeded,
                           UnknownSymbol)

from conftest import random_expr


def test_parse_wave_equation(ws2):
    u = ws2.dependent[0]
    e = parse("u_{x1,x2} - 2*u^3", ws2)
    jet = ws2.jet(0, MultiIndex((1, 1)))
    assert e == jet - 2 * u ** 3


def test_parse_additive_identity(ws2):
    x1 = ws2.independent[0]
    assert parse("0*u + x1", ws2) == x1


def test_parse_binomial_cancellation(ws2):
    assert parse("(u+1)^2 - u^2 - 2*u - 1", ws2) == 0


def test_jet_subscripts_order_insensitive(ws2):
    assert parse("u_{x1,x2}", ws2) == parse("u_{x2,x1}", ws2)
    assert parse("u_{x2,x1}", ws2, normalized=False).name == "u_{x1,x2}"


def test_jet_of_order_zero_is_dependent_symbol(ws2):
    # no duplicate u vs u_{}: a bare jet of order 0 cannot even be written,
    # and programmatic access returns the dependent symbol itself
    assert ws2.jet(0, MultiIndex((0, 0))) == ws2.dependent[0]


def test_parse_errors(ws2):
    with pytest.raises(UnknownSymbol):
        parse("u + q", ws2)
    with pytest.raises(ExprSyntaxError):
        parse("u + ", ws2)
    with pytest.raises(ExprSyntaxError):
        parse("u_{u}", ws2)
    with pytest.raises(JetOrderExceeded):
        parse("u_{x1,x1,x2}", ws2)  # order 3 > cap 2
    with pytest.raises(DivisionByZero):
        parse("1/0", ws2)
    err = None
    try:
        parse("u + $", ws2)
    except ExprSyntaxError as ex:
        err = ex
    assert err is not None and err.offset == 4


def test_parse_kernels_and_rational_powers(ws2):
    u = ws2.dependent[0]
    assert parse("exp(u/2)*exp(-u/2)", ws2) == 1
    assert parse("u^(1/2)", ws2) == sp.sqrt(u)
    assert parse("u^-2", ws2) == u ** -2


def test_unknown_function_calls(ws2):
    a = ws2.add_function("a")
    x1 = ws2.independent[0]
    assert parse("a(x1,x2)", ws2) == a
    assert parse("D(a(x1,x2),x1)", ws2) == sp.Derivative(a, x1)
    assert parse("D(a(x1,x2),x2,x1)", ws2) == parse("D(a(x1,x2),x1,x2)", ws2)
    with pytest.raises(ExprSyntaxError):
        parse("a(x1)", ws2)  # wrong signature
    with pytest.raises(UnknownSymbol):
        parse("b(x1,x2)", ws2)


def test_print_parse_round_trip_examples(ws2):
    ws2.add_function("a")
    for text in [
        "u_{x1,x2} - 2*u^3",
        "1 - u_{x1}",
        "exp(u/2) + sin(x1*u) - 3/4",
        "D(a(x1,x2),x1,x1) + lam*u",
        "-1/(x1 + x2 + lam)",
        "u^(1/2) + x1^3/(u + 1)",
        "cosh(u) - sinh(u)*log(x1)",
    ]:
        e = parse(text, ws2)
        assert parse(print_expr(e), ws2) == e, text


def test_print_parse_round_trip_random(ws2, rng):
    syms = list(ws2.independent) + list(ws2.dependent) + [ws2.jet(0, (1, 0))]
    for _ in range(60):
        e = normalize(random_expr(rng, syms))
        text = print_expr(e)
        assert parse(text, ws2) == e, text


def test_printer_deterministic(ws2):
    e1 = parse("u + x1 + x2", ws2)
    e2 = parse("x2 + x1 + u", ws2)
    assert print_expr(e1) == print_expr(e2)


def test_formal_integral_round_trip(ws2):
    u, x1 = ws2.dependent[0], ws2.independent[0]
    e = normalize(sp.Integral(u ** 2, x1) + sp.Integral(sp.exp(x1 * u), x1))
    assert parse(print_expr(e), ws2) == e


_WS = Workspace(["t", "x1"], ["u"], order_cap=2)
_WS.add_parameter("lam")
_WS.add_function("h", args=["t"])
_ATOMS = [_WS.parse(text) for text in (
    "x1", "u", "u_{x1}", "u_{t,x1}", "lam", "h(t)", "D(h(t),t)",
    "sin(u)", "cos(x1)", "sinh(u + x1)", "cosh(h(t))", "log(lam)")]
_t = _WS.independent[0]
_terms = st.builds(
    lambda c, powers, exps: c * sp.Mul(*(g ** k for g, k in powers)) * sp.Mul(*exps),
    st.builds(sp.Rational, st.integers(-9, 9), st.integers(1, 6)),
    st.lists(st.tuples(st.sampled_from(_ATOMS), st.integers(1, 2)), max_size=3),
    st.lists(st.builds(lambda k: sp.exp(sp.Rational(k, 2) * _t),
                       st.sampled_from([-3, -2, -1, 1, 2, 3])), max_size=2))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.builds(lambda terms: sp.Add(*terms), st.lists(_terms, max_size=4)))
def test_print_parse_round_trip_fuzz(e):
    """parse(print_expr(n)) is n node for node, for normal forms over jets,
    lam, h(t), D(h(t),t), kernels and exp(c*t), Laurent forms included."""
    n = normalize(e)
    assert sp.srepr(parse(print_expr(n), _WS)) == sp.srepr(n)
