from pathlib import Path

import pytest
import sympy as sp
from sympy.simplify.fu import TR8
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from jetsym import Workspace, ZeroVerdict, algebra, condsym, families, is_zero, jets, normalize, parse
from jetsym.cli import main
from jetsym.condsym import build_ansatz
from jetsym.errors import FamilyNotClosed, NotInFamily
from jetsym.families import (EXPONENTIAL, HYPERBOLIC, POLYNOMIAL,
                             TRIGONOMETRIC, AnsatzFamily, _family_read, check_closure,
                             collect_family)
from jetsym.jets import compatibility_residuals, restrict_routes
from jetsym.problem import load_problem

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


def test_collect_family_rejects_fractional_powers(ws2):
    """sqrt(u) reads as u to the power 1/2, which no polynomial key holds."""
    u, x1 = ws2.dependent[0], ws2.independent[0]
    assert AnsatzFamily(POLYNOMIAL, 2).key({u: sp.Rational(1, 2)}, [u]) is None
    with pytest.raises(NotInFamily):
        collect_family(normalize(x1 * sp.sqrt(u) + u ** 2), AnsatzFamily(POLYNOMIAL, 2), [u])


def test_collect_not_in_family(ws2):
    u, x1 = ws2.dependent[0], ws2.independent[0]
    with pytest.raises(NotInFamily):
        collect_family(sp.log(u), AnsatzFamily(POLYNOMIAL, 2), [u])
    with pytest.raises(NotInFamily):
        collect_family(u * sp.exp(u / 2), AnsatzFamily(EXPONENTIAL, 1), [u])
    with pytest.raises(NotInFamily):
        collect_family(sp.exp(u / 3), AnsatzFamily(EXPONENTIAL, 1), [u])
    with pytest.raises(NotInFamily):
        collect_family(sp.sin(u + ws2.independent[0]), AnsatzFamily(TRIGONOMETRIC, 1), [u])
    # Euler's formula leaves an atom other than exp(i*u), or a power of it
    # that is not an integer
    for e in [u * sp.sin(u), sp.sin(u / 3) * sp.cos(u), sp.sin(u) * sp.cosh(u)]:
        with pytest.raises(NotInFamily):
            collect_family(normalize(e), AnsatzFamily(TRIGONOMETRIC, 3), [u])
    with pytest.raises(NotInFamily):
        collect_family(u * sp.exp(u), AnsatzFamily(HYPERBOLIC, 1), [u])
    # a kernel to a power that is no natural number is no sum through Euler's formula
    for family, kernel in [(TRIGONOMETRIC, sp.sin(u)), (HYPERBOLIC, sp.cosh(u))]:
        for power in (-1, sp.Rational(1, 2)):
            with pytest.raises(NotInFamily):
                collect_family(normalize(x1 * kernel ** power), AnsatzFamily(family, 2), [u])


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


def split_terms(e, deps):
    """(x-part, u-monomial {atom: k}) for each term of e, split by sympy
    alone: the terms of ``sympy.expand``, each cut by ``as_independent``
    (after factoring its denominator when the u-part meets other symbols),
    and the u-part read by ``_read`` when it is one monomial, else kept as
    one atom.  The reference for ``algebra.split_monomials``."""
    for term in sp.Add.make_args(sp.expand(e)):
        x, u = term.as_independent(*deps, as_Add=False)
        if u.free_symbols - set(deps):
            numerator, denominator = sp.fraction(term)
            x, u = (numerator / sp.factor(denominator)).as_independent(*deps, as_Add=False)
        value = algebra._read(u)
        if value is None or len(value[0]) != 1 or value[1]:
            yield x, {u: 1}
        else:
            (m, c), = value[0].items()
            yield QQ.to_sympy(c) * x, dict(m)


def _collect_reference(e, family, deps):
    """Collection by sympy: the x-parts of each key summed and normalized."""
    acc = {}
    for x, monomial in split_terms(e, deps):
        for r, key in _family_read(frozenset(monomial.items()), family, deps):
            acc.setdefault(key, []).append(QQ.to_sympy(r) * x)
    return dict(sorted(((family.monomial(key, deps), c) for key, parts in acc.items()
                        if (c := normalize(sp.Add(*parts))) != 0),
                       key=lambda kv: sp.default_sort_key(kv[0])))


_WS = Workspace(["x1", "x2"], ["u"], order_cap=2)
_X1, _X2 = _WS.independent
_U = _WS.dependent[0]
_X_ATOMS = [_X1, _X2, _WS.add_function("f"), sp.cos(_X1), sp.exp(_X2 / 2), sp.exp(-_X1),
            1 / (1 + _X2)]
_x_parts = st.builds(lambda terms: sp.Add(*terms), st.lists(st.builds(
    lambda c, atoms: c * sp.Mul(*atoms),
    st.builds(sp.Rational, st.integers(-5, 5), st.integers(1, 4)),
    st.lists(st.sampled_from(_X_ATOMS), max_size=2)), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(CLOSURE_FACTORS)), st.data())
def test_collect_family_matches_split_and_normalize(kind, data):
    """Collection in the ring -- and on the tree path, for x-parts such as
    1/(1 + x2) -- gives the split-and-normalize coefficients node for node."""
    factors = st.sampled_from(CLOSURE_FACTORS[kind](_U))
    e = normalize(sp.Add(*data.draw(st.lists(
        st.builds(lambda x, a, b: x * a * b, _x_parts, factors, factors),
        min_size=1, max_size=4))))
    family = AnsatzFamily(kind, 1)
    out, reference = collect_family(e, family, [_U]), _collect_reference(e, family, (_U,))
    assert ([(sp.srepr(m), sp.srepr(c)) for m, c in out.items()]
            == [(sp.srepr(m), sp.srepr(c)) for m, c in reference.items()])


# u-factors that take the Euler rewrite of _family_read, and sympy's
# rewrite that is the reference for it: TR8 for products of sin and cos,
# rewrite(exp) for sinh and cosh
_EULER_FACTORS = {
    TRIGONOMETRIC: ([sp.sin(n * _U / 2) for n in (1, 2, 4, 6)]
                    + [sp.cos(n * _U / 2) for n in (2, 3, 4)], TR8),
    HYPERBOLIC: ([sp.sinh(_U), sp.cosh(_U), sp.sinh(2 * _U), sp.cosh(3 * _U), sp.exp(-_U)],
                 lambda m: m.rewrite((sp.sinh, sp.cosh), sp.exp)),
}


def _trigonometric_key(monomial):
    """The key of 1, sin(n*u) or cos(n*u) with n a positive integer."""
    if not monomial:
        return ("one", 0)
    if len(monomial) > 1:
        return None
    ((g, k),) = monomial.items()
    n = g.args[0] / _U
    return (type(g).__name__, int(n)) if k == 1 and n.is_Integer and n > 0 else None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(_EULER_FACTORS)), st.data())
def test_family_terms_match_the_sympy_rewrites(kind, data):
    """Products of up to three trigonometric or hyperbolic factors give the
    (r, key) terms that sympy's rewrite and expansion give, or both leave
    the family."""
    factors, rewrite = _EULER_FACTORS[kind]
    family = AnsatzFamily(kind, 3)
    m = sp.Mul(*data.draw(st.lists(st.sampled_from(factors), min_size=1, max_size=3)))
    ((_, _, monomial),) = algebra.split_monomials(m, (_U,))
    u_monomial = frozenset(monomial.items())
    terms = [(c, family.key(u, (_U,)) if kind == HYPERBOLIC else _trigonometric_key(u))
             for c, u in split_terms(sp.expand(rewrite(m)), (_U,))]
    if any(key is None for _, key in terms):
        with pytest.raises(NotInFamily):
            _family_read(u_monomial, family, (_U,))
        return
    reference = {}
    for c, key in terms:
        reference[key] = reference.get(key, 0) + c
    assert ({key: QQ.to_sympy(r) for r, key in _family_read(u_monomial, family, (_U,))}
            == {key: c for key, c in reference.items() if c})


def test_determining_steps_stay_in_the_ring(monkeypatch):
    """On a ladder rung the ring reads, the compatibility residuals, the
    route restrictions and their collection neither normalize nor expand."""
    problem = load_problem(Path(__file__).resolve().parent.parent
                           / "perfbench/problems/wave-deg3.jetsym")
    ws = problem.ws
    ansatz = build_ansatz(problem.ansatz.family, ws)
    nf = ansatz.normal_form()
    ((_, delta),) = problem.pde.items()
    calls = []

    def spy(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for module in (algebra, jets, families, condsym):
        monkeypatch.setattr(module, "normalize", spy("normalize", module.normalize))
    monkeypatch.setattr(sp, "expand", spy("expand", sp.expand))
    sp.core.cache.clear_cache()
    residuals = [res for *_, res in compatibility_residuals(nf)]
    restricted = restrict_routes(delta, nf)
    collected = [collect_family(e, ansatz.family, ws.dependent) for e in residuals + restricted]
    assert calls == []
    assert len(restricted) == 2 and all(collected)


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


def test_family_basis_closed():
    """Every built-in basis is closed under d/du, for one and two dependent
    variables (trigonometric families take one), so loading a problem needs
    no closure check of its own."""
    ws = Workspace(["x"], ["u", "v"], order_cap=1)
    for q in (1, 2):
        deps = ws.dependent[:q]
        for kind in (POLYNOMIAL, EXPONENTIAL, TRIGONOMETRIC, HYPERBOLIC):
            for bound in range(5):
                family = AnsatzFamily(kind, bound)
                if kind == TRIGONOMETRIC and q == 2:
                    with pytest.raises(ValueError):
                        family.basis(deps)
                else:
                    assert check_closure(family.basis(deps), deps)
