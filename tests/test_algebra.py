import random
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym import algebra
from jetsym import (Workspace, ZeroVerdict, diff, is_zero, normalize, parse,
                    print_expr, substitute, zero_verdict)
from jetsym.algebra import (_read, _terms, _tree_normalize, derive, evaluate_at, substitutions,
                            sum_of_products)
from jetsym.errors import CyclicBinding, DivisionByZero
from jetsym.grammar import KERNEL_CLASSES
from jetsym.problem import load_problem

from conftest import evaluable_points, proportional, random_expr


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
    assert _terms(sp.expand(e)) is not None
    assert out == reference
    assert print_expr(out) == print_expr(reference)


_t, _x1, _u = (_PLAIN_WS.parse(text) for text in ("t", "x1", "u"))
_h = _PLAIN_WS.parse("h(t)")
_KERNELS = [sp.sin(_u), sp.cos(_x1), sp.sinh(_u + _x1), sp.cosh(_h), sp.log(_PLAIN_WS.parse("lam"))]
_halves = st.sampled_from([sp.Rational(k, 2) for k in (-4, -3, -2, -1, 1, 2, 3, 4)])
_exps = st.builds(lambda c, t: sp.exp(c * t), _halves, st.sampled_from([_t, _u, _h]))
_laurent_monomials = st.builds(
    lambda c, powers, exps: c * sp.Mul(*(g ** k for g, k in powers)) * sp.Mul(*exps),
    _rationals,
    st.lists(st.tuples(st.sampled_from(_PLAIN_GENERATORS + _KERNELS), st.integers(1, 2)),
             max_size=2),
    st.lists(_exps, max_size=2))
_laurent_sums = st.builds(lambda terms: sp.Add(*terms), st.lists(_laurent_monomials, max_size=4))
_laurent = st.one_of(_laurent_sums, st.builds(lambda a, b: a * b, _laurent_sums, _laurent_sums))


def _exponents(n):
    """The rational exponents of the exponentials along each direction in
    each term of the sum n, from the ring's own reader."""
    return [{g: k for g, k in monomial.items() if isinstance(g, sp.exp)}
            for _, monomial in _terms(n)]


@settings(max_examples=80, deadline=None)
@given(_laurent)
def test_laurent_normal_form(e):
    """normalize's Laurent form is idempotent, equal to e, shifted no
    further than it must be, and sympy.cancel's form when no exponential
    has a negative exponent."""
    n = normalize(e)
    assert sp.srepr(normalize(n)) == sp.srepr(n)
    assert sp.expand(n) == sp.expand(e)
    sums = [f for f in n.args if f.is_Add] if n.is_Mul else []
    if sums:
        # N * S**-1: N has no negative exponent, and along every direction
        # of the shift S some term of N has exponent 0
        (numerator,) = sums
        shift = _exponents(sp.Mul(*[f for f in n.args if not f.is_Add]))[0]
        terms = _exponents(numerator)
        assert all(k > 0 for monomial in terms for k in monomial.values())
        assert all(k < 0 for k in shift.values())
        assert all(any(g not in monomial for monomial in terms) for g in shift)
    elif len(sp.Add.make_args(n)) > 1:
        assert all(k > 0 for monomial in _exponents(n) for k in monomial.values())
    if all(k > 0 for monomial in _exponents(sp.expand(e)) for k in monomial.values()):
        assert sp.srepr(n) == sp.srepr(sp.cancel(sp.expand(e)))


def test_laurent_normal_form_shifts_minimally():
    a, b, x = (_PLAIN_WS.parse(text) for text in ("lam", "t", "x1"))
    e = a * sp.exp(-_u / 2) + b * sp.exp(-3 * _u / 2) + x
    n = normalize(e)
    assert n == (a * sp.exp(_u) + b + x * sp.exp(3 * _u / 2)) / sp.exp(3 * _u / 2)
    assert sp.exp(-2 * _u) in sp.Mul.make_args(sp.cancel(e))


def _tree_derive(e, images):
    """The expression-tree formula that ``derive`` falls back to."""
    return normalize(sp.Add(*[sp.diff(e, s) * v for s, v in images.items()]))


_CHART = [g for g in _PLAIN_GENERATORS if g.is_Symbol]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_plain, _laurent),
       st.dictionaries(st.sampled_from(_CHART), st.one_of(_sums, _laurent_sums), min_size=1))
def test_derive_ring_matches_tree(e, images):
    """On the ring -- polynomials, kernels and Laurent exponentials -- the
    sparse-ring derivation, including the chain rule through h(t),
    D(h(t),t), kernel atoms and exponentials, is the tree formula to the
    last node."""
    e = normalize(e)
    images = {s: normalize(v) for s, v in images.items()}
    assert _terms(e) is not None
    assert all(_terms(v) is not None for v in images.values())
    out, reference = derive(e, images), _tree_derive(e, images)
    assert out == reference
    assert sp.srepr(out) == sp.srepr(reference)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.one_of(_sums, _laurent_sums), st.one_of(_sums, _laurent_sums)),
                min_size=1, max_size=4))
def test_sum_of_products_ring_matches_tree(pairs):
    pairs = [(normalize(a), normalize(b)) for a, b in pairs]
    out = sum_of_products(pairs)
    reference = normalize(sp.Add(*[a * b for a, b in pairs]))
    assert sp.srepr(out) == sp.srepr(reference)


_JETS = [_PLAIN_WS.parse(text) for text in ("u_{x1}", "u_{t,x1}")]


@settings(max_examples=60, deadline=None)
@given(_laurent,
       st.lists(st.fixed_dictionaries({s: st.one_of(_sums, _laurent_sums) for s in _JETS}),
                min_size=1, max_size=3),
       st.sets(st.sampled_from(_JETS), min_size=1))
def test_substitutions_ring_matches_tree(e, combos, symbols):
    """Jet values substituted in the ring -- into polynomials, kernels,
    Laurent exponentials and h(t) -- give normalize's form of the
    substituted expression, node for node."""
    e = normalize(e)
    combos = [{s: normalize(v) for s, v in combo.items() if s in symbols} for combo in combos]
    assert _terms(e) is not None
    out = substitutions(e, combos)
    assert [sp.srepr(n) for n in out] == [sp.srepr(normalize(e.xreplace(c))) for c in combos]


def test_substitutions_fall_back_off_the_ring(monkeypatch):
    """A rational function in e or in a value, or an atom of e that meets a
    substituted symbol, takes the tree path with the same answer."""
    ws = _PLAIN_WS
    t, u, jet = ws.independent[0], ws.dependent[0], ws.parse("u_{x1}")
    cases = [(normalize(e), value) for e, value in [
        (t / (1 + u) * jet, t * u), (t * jet ** 2, t / (1 + u)), (sp.sin(jet) + jet, t)]]
    expected = [normalize(e.xreplace({jet: value})) for e, value in cases]
    calls = []
    monkeypatch.setattr(algebra, "normalize", lambda e: calls.append(e) or normalize(e))
    for (e, value), reference in zip(cases, expected):
        assert substitutions(e, [{jet: value}]) == [reference]
    assert len(calls) == len(cases)


def test_derive_falls_back_off_the_ring():
    """Input the ring does not read -- a rational function, a symbolic
    power, a constant exponential -- or an atom whose image it does not
    read (log u, whose image has 1/u) takes the tree path."""
    ws = _PLAIN_WS
    t, u, lam = ws.independent[0], ws.dependent[0], ws.parameters["lam"]
    for e, images in [(t / (1 + u), {t: 1, u: u ** 2}),
                      (u ** lam * t, {t: 1, u: 1}),
                      (sp.exp(-sp.Rational(1, 3)) * u ** 2, {u: t}),
                      (sp.log(u) * t, {t: 1, u: u ** 2}),
                      (u ** 2 * t, {t: 1 / (1 + u), u: 1})]:
        e = normalize(e)
        assert derive(e, images) == _tree_derive(e, images)


def test_atom_image_is_computed_once(monkeypatch):
    """Two derivations that share an atom and the images of its free
    symbols compute the atom's chain-rule image once."""
    ws = _PLAIN_WS
    t, x1, u = ws.independent + ws.dependent
    h = ws.parse("h(t)")
    sp.core.cache.clear_cache()
    calls = []
    real = sp.diff
    monkeypatch.setattr(sp, "diff", lambda f, *a, **k: calls.append(f) or real(f, *a, **k))
    first = derive(x1 * h, {t: 1, x1: 1})
    second = derive(u * sp.sin(h) * h ** 2, {t: 1, u: x1})
    assert first == h + x1 * ws.parse("D(h(t),t)")
    assert second == _tree_derive(u * sp.sin(h) * h ** 2, {t: 1, u: x1})
    assert calls.count(h) == 1


def test_normalize_cancels_non_plain(monkeypatch):
    """Rational functions go through sympy.cancel; kernel and Laurent sums
    are put in the same form without it.  Exponential factors of a rational
    function need no merging of their own: the forms below are those the
    engine gave when it still merged them."""
    ws = _PLAIN_WS
    u, x1 = ws.dependent[0], ws.independent[1]
    over = "Pow(Add(Symbol('u', real=True), Integer(1)), Integer(-1))"
    forms = {sp.exp(u) * sp.exp(x1) / (1 + u):
             f"Mul({over}, exp(Symbol('u', real=True)), exp(Symbol('x1', real=True)))",
             sp.exp(u) * sp.exp(-u / 2) / (1 + u):
             f"Mul({over}, exp(Mul(Rational(1, 2), Symbol('u', real=True))))"}
    cases = [(1 / (1 + u), True), (u ** -2, True), *((e, True) for e in forms)] + [
        (ws.parse(text), False) for text in (
            "exp(-h(t)/2)*u_{x1} + 4*x1*exp(u/2)", "sin(u)*u_{x1}")]
    calls = []
    cancel = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda f, *a, **k: calls.append(f) or cancel(f, *a, **k))
    for e, cancelled in cases:
        calls.clear()
        assert (_terms(sp.expand(e)) is None) is cancelled
        assert normalize(e) == cancel(sp.expand(e))
        assert bool(calls) is cancelled, e
    for e, form in forms.items():
        assert sp.srepr(normalize(e)) == form


_g = sp.Function("g")(_t, _x1)
# leaves of unexpanded trees: real coordinates, jets, lam, h(t), D(h(t),t)
# and two Derivatives whose variables are out of canonical order
_TREE_LEAVES = _PLAIN_GENERATORS + [sp.Derivative(_g, _x1, _t), sp.Derivative(_g, _x1, _t, _x1)]
_trees = st.recursive(
    st.one_of(st.sampled_from(_TREE_LEAVES), _rationals),
    lambda trees: st.one_of(
        st.builds(sp.Add, trees, trees),
        st.builds(sp.Mul, trees, trees),
        # integer powers of sums, and negative powers of exponentials and symbols
        st.builds(sp.Pow, trees, st.integers(-2, 3)),
        # kernels of unexpanded arguments; exp of sums with and without a constant term
        st.builds(lambda kernel, a: kernel(a), st.sampled_from(KERNEL_CLASSES), trees),
        st.builds(lambda c, a: sp.exp(c * a), _halves, trees),
        # log of products, with a positive rational factor that sympy.expand splits off
        st.builds(lambda c, a, b: sp.log(abs(c) * a * b), _rationals, trees, trees)),
    max_leaves=8)


def _normal_or_error(f, e):
    try:
        return sp.srepr(f(e))
    except DivisionByZero:
        return "DivisionByZero"


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_normalize_reader_matches_tree(e):
    """normalize, which reads trees straight into the ring's terms, gives
    the tree path's form (canonical derivatives, kernel arguments,
    sympy.expand, _terms, sympy.cancel) node for node."""
    assert _normal_or_error(normalize, e) == _normal_or_error(_tree_normalize, e)


def test_reader_leaves_expand_shaped_input_to_the_tree_path():
    """sympy.expand splits log(4*x1*x2), since the symbols are real, and
    writes exp(x1 + 1) as E*exp(x1): the reader takes neither, and
    normalize gives the tree path's form.  Sums, products, powers and
    exponentials of sums are read."""
    lam = _PLAIN_WS.parameters["lam"]
    x2 = sp.Symbol("x2", real=True)
    for e, form in [(_t + sp.log(4 * _x1 * x2), _t + sp.log(_x1 * x2) + 2 * sp.log(2)),
                    (sp.exp(_x1 + 1), sp.E * sp.exp(_x1))]:
        assert _read(e) is None
        assert sp.srepr(normalize(e)) == sp.srepr(_tree_normalize(e)) == sp.srepr(form)
    for e in [(_x1 + _u) ** 3 * sp.exp(_u / 2), sp.exp(_x1 * (_u + 2)) / sp.exp(_u),
              sp.sin(_x1 * (_x1 + lam)) ** 2 - sp.cos(-_x1), sp.log(_x1 * x2 + lam) * _h]:
        assert _read(e) is not None
        assert sp.srepr(normalize(e)) == sp.srepr(_tree_normalize(e))


def test_loading_problems_calls_neither_expand_nor_cancel(monkeypatch):
    """The rectify fixture and the benchmark's ansatz problems load from a
    cold cache without sympy.expand or sympy.cancel: the ring reads every
    expression in them."""
    root = Path(__file__).resolve().parent.parent
    paths = [root / "problems" / "rectify.jetsym",
             *sorted((root / "perfbench" / "problems").glob("*.jetsym"))]
    calls = []
    for name in ("expand", "cancel"):
        real = getattr(sp, name)
        monkeypatch.setattr(sp, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    for path in paths:
        sp.core.cache.clear_cache()
        load_problem(path)
    assert len(paths) == 13
    assert calls == []


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


def test_nonzero_rational_constant_is_structurally_nonzero(ws2):
    """A tiny rational constant is exact, so no float tolerance applies."""
    x = ws2.independent[0]
    for e in [(x + 1) ** 2 - x ** 2 - 2 * x - 1 + sp.Rational(1, 10 ** 15),
              sp.Rational(1, 10 ** 15)]:
        r = zero_verdict(e)
        assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, "structural")


def test_tiny_constant_is_structurally_nonzero():
    """A constant that is not Rational is decided by its value to 40
    significant digits, however small; only a constant that no precision
    settles stays a probabilistic Zero."""
    eps = sp.Rational(1, 10 ** 12)
    for e in [sp.exp(-36), sp.sin(eps / 1000), sp.exp(1 + eps) - sp.E]:
        r = zero_verdict(e)
        assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, "structural"), e
    r = zero_verdict(sp.sin(1) ** 2 + sp.cos(1) ** 2 - 1)
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "probabilistic")


def test_sampled_zero_evaluates_once_per_point(ws2, monkeypatch):
    """A value within tol passes whatever the term scale, so the terms are
    not evaluated one by one."""
    x1 = ws2.independent[0]
    u = ws2.dependent[0]
    calls = []
    real = algebra.evaluate_at
    monkeypatch.setattr(algebra, "evaluate_at",
                        lambda e, point: calls.append(e) or real(e, point))
    r = zero_verdict((sp.sin(x1) ** 2 + sp.cos(x1) ** 2 - 1) * (x1 + u))
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "probabilistic")
    assert len(calls) == 8


def test_proportional():
    x, y = sp.symbols("x y", real=True)
    assert proportional(2 * x + 2 * y, x + y)
    assert proportional(-(x + y), x + y)
    assert not proportional(x + y, x - y)
    assert proportional(0, 0)
    assert not proportional(x, 0)
