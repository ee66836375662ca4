import re

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetsym import MultiIndex, Workspace, grammar, normalize, parse, print_expr
from jetsym.algebra import _memo
from jetsym.errors import (DivisionByZero, ExprSyntaxError, JetOrderExceeded,
                           JetsymError, UnknownSymbol)
from jetsym.grammar import KERNELS

from conftest import random_expr, same_tree


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
    assert parse("u_{x2,x1}", ws2).name == "u_{x1,x2}"


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


# grammar strings over jets, lam, h(t) and D(h(t),t): sums, differences,
# products, quotients and integer powers of leaves, kernel calls of such
# strings, rational powers of both and Int(...), never inside a kernel argument
def _operations(children):
    return st.one_of(
        st.builds("{} {} {}".format, children, st.sampled_from("+-*/"), children),
        st.builds("(-{})".format, children),
        st.builds("({})^{}".format, children, st.sampled_from(["2", "-1", "0", "(4/2)"])))


_SIMPLE = st.recursive(st.sampled_from(
    ["x1", "u", "u_{x1}", "u_{t,x1}", "lam", "h(t)", "D(h(t),t)", "3", "0", "(2/3)"]),
    _operations, max_leaves=4)
_RATIONAL = st.sampled_from(["1/2", "-3/2"])
_TREE_ONLY = st.one_of(st.builds("({})^({})".format, _SIMPLE, _RATIONAL),
                       st.builds("{}({})^({})".format, st.sampled_from(sorted(KERNELS)), _SIMPLE,
                                 _RATIONAL),
                       st.builds("Int({},t)".format, _SIMPLE))
_TEXTS = st.recursive(st.one_of(
    _SIMPLE, st.builds("{}({})".format, st.sampled_from(sorted(KERNELS)), _SIMPLE), _TREE_ONLY),
    _operations, max_leaves=5)


_NON_FINITE = (sp.zoo, sp.nan, sp.oo, -sp.oo)


@_memo
def _evaluated(e):
    """The parser's tree e as sympy's constructors build it: each sum,
    product and power rebuilt, its arguments first.  A node that sympy
    builds non-finite, 1/0 or 0**-1, is a division by zero, even where
    sympy goes on to a finite value, (1/0)**(-1/2) = 0."""
    if e.is_Add or e.is_Mul or e.is_Pow:
        e = e.func(*map(_evaluated, e.args))
        if e in _NON_FINITE or any(a in _NON_FINITE for a in e.args):
            raise DivisionByZero("division by zero")
    return e


def _tree_parse(text, ws):
    """sympy's tree of text, normalized: ``parse``'s reference."""
    return normalize(_evaluated(grammar._Parser(text, ws).run()))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_TEXTS)
@example("exp(u/2)*exp(-u/2) + 1/(x1 - x1 + 2*u) - (u + 1)^2/(u + 1)")
@example("-1/(x1 + lam) + h(t)^2/(2*h(t)*x1) - 3/(4*u_{x1} - 2*lam)")
@example("log(4*x1*u) - exp(t + 1/u)*(2/3)^-1 + sin(-u)/(h(t) + u)^2")
@example("2^(1/2)*3^(1/2) - 6^(1/2)")
@example("(3)^(1/2)*((2/3))^(1/2)")
@example("1/(x1 + (u^(-1/2))^2)")
@example("sin(x1)^(1/2)*sin(x1) - cos(u)^(-3/2)")
def test_value_parse_is_the_tree_parse(text):
    """``parse`` reads the text's unevaluated tree and gives the normal form
    of sympy's tree of the text, node for node, or raises its error; the
    reader reads rational powers and Int(...) too."""
    try:
        expected = _tree_parse(text, _WS)
    except JetsymError as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            parse(text, _WS)
        return
    assert same_tree(parse(text, _WS), expected)


_ZERO = "((x1+1)^2 - x1^2 - 2*x1 - 1)"     # 0, which sympy's tree does not show
_PARSE_ERRORS = [
    ("x1 + 1/0", DivisionByZero, "literal division by zero at offset 6", None),
    ("u^(1/0)", DivisionByZero, "zero denominator in exponent at offset 2", None),
    ("2*x1_{x1}", ExprSyntaxError, "jet base 'x1' is not a dependent variable (at offset 2)", 2),
    ("u + sin(u, x1)", ExprSyntaxError, "kernel sin takes one argument (at offset 4)", 4),
    ("u/(x1 - x1)", DivisionByZero, "literal division by zero at offset 1", None),
    ("u/(-0)", DivisionByZero, "literal division by zero at offset 1", None),
    ("u/(2/2 - 1)", DivisionByZero, "literal division by zero at offset 1", None),
    ("u^(1/2)/(x1 - x1)", DivisionByZero, "literal division by zero at offset 7", None),
    (f"u/{_ZERO}", DivisionByZero, "literal division by zero at offset 1", None),
    ("u/(2^(1/2)*3^(1/2) - 6^(1/2))", DivisionByZero, "literal division by zero at offset 1", None),
    (f"sin(1/{_ZERO}) + )", DivisionByZero, "literal division by zero at offset 5", None)]


@pytest.mark.parametrize("text, error, message, offset", _PARSE_ERRORS,
                         ids=[f"{t}-{e.__name__}-{o}" for t, e, _, o in _PARSE_ERRORS])
def test_value_parse_raises_the_tree_parse_errors(text, error, message, offset):
    """A literal 1/0, a zero exponent denominator, a jet of a non-dependent
    base, a kernel of two arguments, a divisor whose value is 0, and one in
    a call before a syntax error raise the error, message and offset of
    sympy's tree of the text."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        parse(text, _WS)
    assert getattr(raised.value, "offset", None) == offset


@pytest.mark.parametrize("text, expected", [
    ("((x1+1)*(x1+1))^(1/2)", "Abs(Add(Symbol('x1', real=True), Integer(1)))"),
    ("exp(log(x1))*u", "Mul(Symbol('u', real=True), Symbol('x1', real=True))"),
    ("-(u)^2 - 3/(4*u_{x1} - 2*t)", "Add(Mul(Integer(-1), Pow(Symbol('u', real=True), Integer(2))), "
     "Mul(Integer(-1), Integer(3), Pow(Add(Mul(Integer(-1), Integer(2), Symbol('t', real=True)), "
     "Mul(Integer(4), Symbol('u_{x1}', real=True))), Integer(-1))))")])
def test_evaluated_is_sympys_tree(text, expected):
    """The reference's ``_evaluated`` builds the parse tree as sympy's constructors build the
    text's operations, one after another: a power evaluates, a call
    evaluates, and -1 times a quotient keeps its two coefficients."""
    assert sp.srepr(_evaluated(grammar._Parser(text, _WS).run())) == expected
