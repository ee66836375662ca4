from pathlib import Path

import pytest
import sympy as sp

from jetsym import ZeroVerdict, is_zero, normalize, parse
from jetsym.cli import main
from jetsym.errors import FamilyNotClosed, NotInFamily
from jetsym.families import (EXPONENTIAL, HYPERBOLIC, POLYNOMIAL,
                             TRIGONOMETRIC, AnsatzFamily, check_closure,
                             collect_family)

from conftest import random_poly


def test_polynomial_basis_and_collect(ws2):
    ws2.add_function("a2")
    ws2.add_function("b2")
    ws2.add_function("a1")
    ws2.add_function("b1")
    u = ws2.dependent[0]
    fam = AnsatzFamily(POLYNOMIAL, 2)
    assert fam.basis([u]) == (1, u, u ** 2)
    e = parse("2*a2(x1,x2)*b2(x1,x2)*u^3 + (2*b2(x1,x2)*a1(x1,x2)"
              " + b1(x1,x2)*a2(x1,x2) + D(b2(x1,x2),x1))*u^2", ws2)
    coeffs = collect_family(e, fam, [u])
    a2, b2, a1, b1 = (ws2.functions[n] for n in ("a2", "b2", "a1", "b1"))
    x1 = ws2.independent[0]
    assert coeffs[u ** 3] == 2 * a2 * b2
    assert coeffs[u ** 2] == normalize(2 * b2 * a1 + b1 * a2 + sp.Derivative(b2, x1))
    assert set(coeffs) == {u ** 3, u ** 2}


def test_collect_zero_is_empty(ws2):
    u = ws2.dependent[0]
    assert collect_family(sp.Integer(0), AnsatzFamily(POLYNOMIAL, 2), [u]) == {}


def test_collect_not_in_family(ws2):
    u = ws2.dependent[0]
    with pytest.raises(NotInFamily):
        collect_family(sp.log(u), AnsatzFamily(POLYNOMIAL, 2), [u])
    with pytest.raises(NotInFamily):
        collect_family(u * sp.exp(u / 2), AnsatzFamily(EXPONENTIAL, 1), [u])
    with pytest.raises(NotInFamily):
        collect_family(sp.exp(u / 3), AnsatzFamily(EXPONENTIAL, 1), [u])
    with pytest.raises(NotInFamily):
        collect_family(sp.sin(u + ws2.independent[0]), AnsatzFamily(TRIGONOMETRIC, 1), [u])
    with pytest.raises(NotInFamily):
        collect_family(u * sp.exp(u), AnsatzFamily(HYPERBOLIC, 1), [u])


def test_collect_keeps_x_parts_outside_the_ring(ws2):
    u = ws2.dependent[0]
    x1 = ws2.independent[0]
    coeffs = collect_family(normalize(u ** 2 / (1 + x1) + u), AnsatzFamily(POLYNOMIAL, 2), [u])
    assert coeffs == {u ** 2: 1 / (x1 + 1), u: sp.Integer(1)}
    coeffs = collect_family(sp.pi * sp.exp(u) + x1, AnsatzFamily(EXPONENTIAL, 1), [u])
    assert coeffs == {sp.exp(u): sp.pi, sp.Integer(1): x1}


def test_exponential_collect_gauss_codazzi_shape(ws2):
    H = ws2.add_function("H")
    e2r = ws2.add_function("eta2r")
    e2i = ws2.add_function("eta2i")
    u = ws2.dependent[0]
    fam = AnsatzFamily(EXPONENTIAL, 1)
    e = (H ** 2 + e2r ** 2 + e2i ** 2) / 2 * sp.exp(u)
    coeffs = collect_family(e, fam, [u])
    assert list(coeffs) == [sp.exp(u)]
    assert coeffs[sp.exp(u)] == normalize((H ** 2 + e2r ** 2 + e2i ** 2) / 2)


def test_exponential_collect_merges_products(ws2):
    u = ws2.dependent[0]
    x1 = ws2.independent[0]
    fam = AnsatzFamily(EXPONENTIAL, 1)
    e = x1 * sp.exp(u) * sp.exp(-u / 2) + sp.exp(u / 2) * sp.exp(-u / 2)
    coeffs = collect_family(e, fam, [u])
    assert coeffs[sp.exp(u / 2)] == x1
    assert coeffs[sp.Integer(1)] == 1


def test_trigonometric_collect(ws1):
    u = ws1.dependent[0]
    x = ws1.independent[0]
    fam = AnsatzFamily(TRIGONOMETRIC, 2)
    assert sp.sin(2 * u) in fam.basis([u])
    e = x * sp.sin(u) * sp.cos(u) + sp.cos(u) ** 2
    coeffs = collect_family(e, fam, [u])
    assert coeffs[sp.sin(2 * u)] == x / 2
    assert coeffs[sp.cos(2 * u)] == sp.Rational(1, 2)
    assert coeffs[sp.Integer(1)] == sp.Rational(1, 2)


def test_hyperbolic_collect(ws1):
    u = ws1.dependent[0]
    fam = AnsatzFamily(HYPERBOLIC, 1)
    e = sp.cosh(u) + sp.sinh(u)
    coeffs = collect_family(e, fam, [u])
    assert coeffs == {sp.exp(u): sp.Integer(1)}


# factors whose pairwise products lie in each family's closure
CLOSURE_FACTORS = {
    POLYNOMIAL: lambda u: [1, u, u ** 2],
    EXPONENTIAL: lambda u: [sp.exp(k * u / 2) for k in (-2, -1, 0, 1, 3)],
    TRIGONOMETRIC: lambda u: [1, sp.sin(u), sp.cos(u), sp.sin(2 * u), sp.cos(3 * u)],
    HYPERBOLIC: lambda u: [1, sp.sinh(u), sp.cosh(2 * u), sp.exp(-u)],
}


@pytest.mark.parametrize("kind", list(CLOSURE_FACTORS))
def test_collect_reassembly_random(ws2, rng, kind):
    u = ws2.dependent[0]
    xs = list(ws2.independent)
    f = ws2.add_function("f")
    fam = AnsatzFamily(kind, 1)
    factors = CLOSURE_FACTORS[kind](u)
    for _ in range(10):
        e = normalize(sum((random_poly(rng, xs, degree=2, terms=2) + rng.randint(-2, 2) * f)
                          * rng.choice(factors) * rng.choice(factors) for _ in range(4)))
        coeffs = collect_family(e, fam, [u])
        assert not any(c.has(u) for c in coeffs.values())
        reassembled = sum(c * m for m, c in coeffs.items())
        # f stands as a symbol, so that the difference can be sampled
        residual = (reassembled - e).xreplace({f: sp.Symbol("F")})
        assert is_zero(residual) is ZeroVerdict.ZERO


def test_derive_determining_makes_no_cancel_call(monkeypatch, capsys):
    """Collection reads the ring's terms, so a sine-Gordon ladder rung, where
    products of sin and cos are rewritten, never calls sympy.cancel."""
    rung = Path(__file__).resolve().parent.parent / "perfbench/problems/sine-gordon-n2.jetsym"
    calls = []
    cancel = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda *a, **k: calls.append(a) or cancel(*a, **k))
    assert main(["derive-determining", str(rung), "--format", "json"]) == 0
    assert '"exit_code": 0' in capsys.readouterr().out
    assert calls == []


def test_closure_check(ws1):
    u = ws1.dependent[0]
    assert check_closure([1, u, u ** 2], [u])
    assert check_closure([1, sp.exp(u / 2), sp.exp(-u / 2)], [u])
    with pytest.raises(FamilyNotClosed):
        check_closure([u, u ** 2], [u])  # d/du(u) = 1 is missing
    with pytest.raises(FamilyNotClosed):
        check_closure([1, sp.sin(u)], [u])  # needs cos(u)


def test_family_basis_closed(ws1):
    u = ws1.dependent[0]
    for fam in (AnsatzFamily(POLYNOMIAL, 2), AnsatzFamily(EXPONENTIAL, 1),
                AnsatzFamily(TRIGONOMETRIC, 2), AnsatzFamily(HYPERBOLIC, 1)):
        assert check_closure(fam.basis([u]), [u])
