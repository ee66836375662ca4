import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym import (Workspace, ZeroVerdict, diff, is_zero, normalize, parse,
                    print_expr, proportional, substitute, zero_verdict)
from jetsym.algebra import _is_plain_polynomial, evaluate_at
from jetsym.errors import CyclicBinding, DivisionByZero

from conftest import evaluable_points, random_expr


def test_normalize_constant_folding(ws2):
    u = ws2.dependent[0]
    assert normalize(sp.Mul(2, sp.Mul(3, u, evaluate=False), evaluate=False)) == 6 * u


def test_normalize_no_pythagorean_rewrite(ws2):
    u = ws2.dependent[0]
    e = sp.sin(u) ** 2 + sp.cos(u) ** 2
    assert normalize(e) == e  # documented non-rewrite


def test_normalize_exp_merge(ws2):
    u = ws2.dependent[0]
    assert normalize(sp.exp(u / 2) * sp.exp(-u / 2)) == 1
    assert normalize(sp.exp(u) * sp.exp(-u / 2)) == sp.exp(u / 2)
    # merge, then numerical cross-check at sample points
    e = sp.exp(u) * sp.exp(-u / 2) - sp.exp(u / 2)
    assert is_zero(e) is ZeroVerdict.ZERO


_PLAIN_WS = Workspace(["t", "x1"], ["u"], order_cap=2)
_PLAIN_WS.add_parameter("lam")
_PLAIN_WS.add_function("h", args=["t"])
_PLAIN_GENERATORS = [_PLAIN_WS.parse(text) for text in (
    "t", "x1", "u", "u_{x1}", "u_{t,x1}", "lam", "h(t)", "D(h(t),t)")]

_rationals = st.builds(sp.Rational, st.integers(-9, 9), st.integers(1, 6))
_monomials = st.builds(
    lambda c, powers: c * sp.Mul(*(g ** k for g, k in powers)),
    _rationals,
    st.lists(st.tuples(st.sampled_from(_PLAIN_GENERATORS), st.integers(1, 3)),
             max_size=3))
_sums = st.builds(lambda terms: sp.Add(*terms), st.lists(_monomials, max_size=4))
# products and powers of sums, so that normalize has to expand them
_plain = st.one_of(_sums, st.builds(lambda a, b: a * b, _sums, _sums),
                   st.builds(lambda a, k: a ** k, _sums, st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(_plain)
def test_normalize_plain_polynomial_matches_cancel(e):
    """On plain polynomials normalize (which skips cancel) matches cancel."""
    reference = sp.cancel(sp.expand(e))
    out = normalize(e)
    assert _is_plain_polynomial(sp.expand(e))
    assert out == reference
    assert print_expr(out) == print_expr(reference)


def test_normalize_cancels_non_plain(monkeypatch):
    ws = _PLAIN_WS
    u = ws.dependent[0]
    cases = [1 / (1 + u), u ** -2] + [ws.parse(text) for text in (
        "exp(-h(t)/2)*u_{x1} + 4*x1*exp(u/2)", "sin(u)*u_{x1}")]
    calls = []
    cancel = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda f, *a, **k: calls.append(f) or cancel(f, *a, **k))
    for e in cases:
        calls.clear()
        assert not _is_plain_polynomial(sp.expand(e))
        assert normalize(e) == cancel(sp.expand(e))
        assert calls, f"cancel was skipped on {e}"


def test_normalize_idempotent_random(ws2, rng):
    syms = list(ws2.independent) + list(ws2.dependent)
    for _ in range(40):
        e = random_expr(rng, syms)
        n1 = normalize(e)
        assert normalize(n1) == n1


def test_normalize_evaluation_preserving(ws2, rng):
    syms = list(ws2.independent) + list(ws2.dependent)
    for _ in range(15):
        e = random_expr(rng, syms)
        n = normalize(e)
        residual = sp.together(e - n)
        for point in evaluable_points(e + n, random.Random(rng.randint(0, 10 ** 9)), 8):
            v1 = evaluate_at(residual, point)
            scale = max(1.0, abs(evaluate_at(e, point)))
            assert abs(v1) <= 1e-9 * scale


def test_normalize_division_by_zero():
    with pytest.raises(DivisionByZero):
        normalize(sp.zoo)


def test_diff_basics(ws2):
    u = ws2.dependent[0]
    x1 = ws2.independent[0]
    ux1 = ws2.jet(0, (1, 0))
    # jet coordinates are independent symbols under partial differentiation
    assert diff(ux1 * x1, x1) == ux1
    assert diff(sp.exp(u / 2), u) == sp.exp(u / 2) / 2
    a = ws2.add_function("a")
    assert diff(a, x1) == sp.Derivative(a, x1)


def test_diff_is_a_derivation(ws2, rng):
    syms = list(ws2.independent) + list(ws2.dependent)
    for _ in range(10):
        a = random_expr(rng, syms)
        b = random_expr(rng, syms)
        s = rng.choice(syms)
        lhs = diff(a * b, s)
        rhs = diff(a, s) * b + a * diff(b, s)
        assert is_zero(lhs - rhs) is ZeroVerdict.ZERO


def test_diff_finite_difference_oracle(ws2, rng):
    # independent oracle: central differences at random points
    syms = list(ws2.independent) + list(ws2.dependent)
    h = sp.Rational(1, 100000)
    checked = 0
    while checked < 10:
        e = random_expr(rng, syms)
        s = rng.choice(sorted(e.free_symbols, key=str) or syms)
        d = diff(e, s)
        for point in evaluable_points(e + d, random.Random(rng.randint(0, 10 ** 9)), 1):
            up = dict(point)
            dn = dict(point)
            up[s] = point.get(s, 0) + h
            dn[s] = point.get(s, 0) - h
            try:
                fd = (evaluate_at(e, up) - evaluate_at(e, dn)) / (2 * float(h))
                exact = evaluate_at(d, point)
            except ValueError:
                continue
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) <= 1e-6 * scale
            checked += 1


def test_substitute_examples(ws2):
    u = ws2.dependent[0]
    x1, x2 = ws2.independent
    lam = ws2.parameters["lam"]
    ux = ws2.jet(0, (1, 0))
    assert substitute(ux - 1, {ux: 1}) == 0
    e = parse("u^2 + x1*u", ws2)
    assert substitute(e, {}) == normalize(e)
    target = substitute(u ** 2, {u: -1 / (x1 + x2 + lam)})
    assert target == normalize((x1 + x2 + lam) ** -2)
    assert sp.cancel(target - (x1 + x2 + lam) ** -2) == 0


def test_substitute_cyclic(ws2):
    u = ws2.dependent[0]
    x1 = ws2.independent[0]
    with pytest.raises(CyclicBinding):
        substitute(u + x1, {u: u + 1})
    with pytest.raises(CyclicBinding):
        substitute(u + x1, {u: x1, x1: u})


def test_substitute_resolves_formal_derivatives(ws2):
    ws = ws2
    a = ws.add_function("a")
    x1, x2 = ws.independent
    e = sp.Derivative(a, x1)
    assert substitute(e, {a: x1 ** 2 * x2}) == 2 * x1 * x2


def test_is_zero_trichotomy(ws2):
    u = ws2.dependent[0]
    ux1 = ws2.jet(0, (1, 0))
    ux2 = ws2.jet(0, (0, 1))
    assert is_zero(sp.exp(u) * sp.exp(-u) - 1) is ZeroVerdict.ZERO
    assert is_zero(ux1 - ux2) is ZeroVerdict.NONZERO
    a = ws2.add_function("a")
    d = sp.Derivative(a, ws2.independent[0])
    assert is_zero(d - d) is ZeroVerdict.ZERO
    assert is_zero(d) is ZeroVerdict.UNKNOWN


def test_zero_verdict_confidence_and_seed(ws2):
    u = ws2.dependent[0]
    r = zero_verdict(u - u)
    assert r.confidence == "structural"
    # a true identity that is not structurally zero for the normalizer
    e = sp.cos(2 * u) - sp.cos(u) ** 2 + sp.sin(u) ** 2
    r2 = zero_verdict(e)
    assert r2.verdict is ZeroVerdict.ZERO and r2.confidence == "probabilistic"
    assert r2.seed is not None
    r3 = zero_verdict(e, seed=0xBEEF)
    assert r3.verdict is ZeroVerdict.ZERO and r3.seed == 0xBEEF


def test_proportional():
    x, y = sp.symbols("x y", real=True)
    assert proportional(2 * x + 2 * y, x + y)
    assert proportional(-(x + y), x + y)
    assert not proportional(x + y, x - y)
    assert proportional(0, 0)
    assert not proportional(x, 0)
