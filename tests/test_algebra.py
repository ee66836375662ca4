import random
import sys
from unittest import mock
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.core.sorting import default_sort_key
from sympy.external.pythonmpq import PythonMPQ
from sympy.polys.domains import QQ
from sympy.polys.polyerrors import PolynomialError
from sympy.polys.rings import PolyElement, PolyRing

from jetsym import algebra, grammar
from jetsym import (Workspace, ZeroVerdict, diff, is_zero, normalize, parse,
                    print_expr, substitute, zero_verdict)
from jetsym.algebra import (_E, _as_expr, _normal_form, _normal_kernel, _read,
                            _ring_elements, _substitute, _tree, derive, evaluate_at,
                            monomial_expr, normal_forms, split_monomials, sum_of_products)
from jetsym.cli import COMMANDS, main
from jetsym.errors import CyclicBinding, DivisionByZero
from jetsym.geometry import lie_bracket
from jetsym.grammar import KERNEL_CLASSES, ordered_terms
from jetsym.jets import VectorField, prolong
from jetsym.problem import load_problem

from conftest import evaluable_points, proportional, random_expr, same_tree as _same_tree


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
    assert _read(sp.expand(e)) is not None
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
# Laurent sums over 1 + g*s, which no polynomial g*s makes 0, or over
# (1 + g*s)**k * (1 + g'*s') for generators s and s', so that a sum and a
# derivative meet several denominator factors and powers.  Images and
# substituted values keep one factor: a value over (1 + g*s)**2 raised to a
# jet's fourth power makes the reference's gcd take seconds.
_generator = st.sampled_from(_PLAIN_GENERATORS)
_quotient = st.builds(lambda a, g, s: a / (1 + g * s), _laurent_sums, _generator, _sums)
_rational = st.one_of(
    _quotient,
    st.builds(lambda a, g, s, k, g2, s2: a / ((1 + g * s) ** k * (1 + g2 * s2)),
              _laurent_sums, _generator, _generator, st.integers(1, 2), _generator, _generator))


def _exponents(n):
    """The rational exponents of the exponentials along each direction in
    each term of the sum n, from the ring's own reader."""
    return [{g: k for g, k in monomial if isinstance(g, sp.exp)}
            for monomial, c in _read(n)[0].items() if c]


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
    """The expression-tree formula of ``derive``, its reference."""
    return normalize(sp.Add(*[sp.diff(e, s) * v for s, v in images.items()]))


_CHART = [g for g in _PLAIN_GENERATORS if g.is_Symbol]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_plain, _laurent, _rational),
       st.dictionaries(st.sampled_from(_CHART), st.one_of(_sums, _laurent_sums, _quotient),
                       min_size=1))
def test_derive_ring_matches_tree(e, images):
    """On the ring -- polynomials, kernels, Laurent exponentials and
    quotients -- the sparse-ring derivation, including the chain rule
    through h(t), D(h(t),t), kernel atoms and exponentials, is the tree
    formula to the last node."""
    e = normalize(e)
    images = {s: normalize(v) for s, v in images.items()}
    assert _read(e) is not None
    assert all(_read(v) is not None for v in images.values())
    assert _same_tree(derive(e, images), _tree_derive(e, images))


# a u^(1/2) factor, which the ring reads over the generator u^(1/2)
_off_ring = st.builds(lambda a: a * sp.sqrt(_u), _sums)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.one_of(_sums, _laurent_sums, _rational, _off_ring),
                          st.one_of(_sums, _laurent_sums, _rational)),
                min_size=1, max_size=4))
@example([(sp.sqrt(_u), _x1)])
def test_sum_of_products_ring_matches_tree(pairs):
    pairs = [(normalize(a), normalize(b)) for a, b in pairs]
    assert _same_tree(sum_of_products(pairs), normalize(sp.Add(*[a * b for a, b in pairs])))


_SPLIT_WS = Workspace(["x1", "x2"], ["u"], order_cap=1)
_SX1, _SX2 = _SPLIT_WS.independent
_SU = _SPLIT_WS.dependent[0]
# x-parts and u-parts on and off the ring; the last u-part is one fraction
# over a denominator that mixes x1 and u
_SPLIT_X = [sp.Integer(1), _SX1, 1 / (1 + _SX2), sp.sqrt(_SX1),
            _SPLIT_WS.add_function("f", args=["x1"])]
_SPLIT_U = [sp.Integer(1), _SU, sp.exp(_SU / 2), 1 / (1 + _SU),
            normalize(1 / ((1 + _SX1) * (1 + _SU)))]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(lambda c, x, u: c * x * u, _rationals, st.sampled_from(_SPLIT_X),
                          st.sampled_from(_SPLIT_U)), min_size=1, max_size=4))
def test_split_monomials_adds_up_to_its_input(terms):
    """On the ring and off it, the split of a normal form has no zero
    coefficient, keeps the atoms that meet u out of the x-monomials and in
    the u-monomials, and its terms c * x * u normalize back to the input."""
    e = normalize(sp.Add(*terms))
    split = split_monomials(e, (_SU,))
    assert all(c for c, _, _ in split)
    assert all(_SU not in g.free_symbols for _, x, _ in split for g, _ in x)
    assert all(_SU in g.free_symbols for _, _, u in split for g in u)
    assert normalize(sp.Add(*[QQ.to_sympy(c) * monomial_expr(dict(x)) * monomial_expr(u)
                              for c, x, u in split])) == e


def test_normal_forms_joins_the_atoms_of_the_split_off_the_ring():
    """1/(x2 + 1) and 1/(x2 + 2) stand as two atoms of the split, which
    normal_forms joins into normalize's quotient; _tree would keep them as
    two terms."""
    e = 1 / (_SX2 + 1) + 1 / (_SX2 + 2)
    split = split_monomials(e, ())
    assert len(split) == 2
    (out,) = normal_forms([{x: c for c, x, _ in split}])
    assert _same_tree(out, normalize(e))
    assert out == (2 * _SX2 + 3) / (_SX2 ** 2 + 3 * _SX2 + 2)


_JETS = [_PLAIN_WS.parse(text) for text in ("u_{x1}", "u_{t,x1}")]
_KEYS = _JETS + [_h]
# kernels and exponentials of the keys, and a denominator that meets one
_KEY_ATOMS = [sp.sin(_JETS[0]), sp.cos(_JETS[1] + _u), sp.exp(_JETS[0] / 2), sp.exp(-_h),
              sp.sinh(_h), _PLAIN_WS.parse("D(h(t),t)")]
_meets_keys = st.builds(lambda a, g, k, b, s: a * g ** k + b / (1 + s * _JETS[0]),
                        _laurent_sums, st.sampled_from(_KEY_ATOMS), st.integers(1, 2),
                        _laurent_sums, st.sampled_from(_KEYS))


def _replaced(e, combo):
    """``e.xreplace(combo)`` with its Derivatives evaluated, as ``substitute``
    documents it: D(h(t),t) with h(t) bound to v is dv/dt."""
    return e.xreplace(combo).replace(lambda n: isinstance(n, sp.Derivative), lambda n: n.doit())


@settings(max_examples=60, deadline=None)
@given(st.one_of(_laurent, _rational, _meets_keys),
       st.lists(st.fixed_dictionaries({s: st.one_of(_sums, _laurent_sums, _quotient)
                                       for s in _KEYS}),
                min_size=1, max_size=3),
       st.sets(st.sampled_from(_KEYS), min_size=1))
def test_substitutions_ring_matches_tree(e, combos, symbols):
    """Values substituted on ``_read`` values -- into polynomials, kernels,
    Laurent exponentials, quotients whose denominators meet a key, and h(t)
    with D(h(t),t) -- give normalize's form of the substituted expression,
    node for node."""
    e = normalize(e)
    combos = [{s: normalize(v) for s, v in combo.items() if s in symbols} for combo in combos]
    assert _read(e) is not None
    for combo in combos:
        assert _same_tree(_substitute(e, tuple(combo.items())), normalize(_replaced(e, combo)))


def test_substitutions_fall_back_off_the_ring(monkeypatch):
    """A rational function in e or in a value stays on values; only an atom
    of e that meets a key, sin(u_{x1}), is substituted on its own tree and
    read back.  All give normalize's answer.  A factor of D that maps to 0
    raises without substituting any tree."""
    ws = _PLAIN_WS
    t, u, jet = ws.independent[0], ws.dependent[0], ws.parse("u_{x1}")
    cases = [(normalize(e), value) for e, value in [
        (t / (1 + u) * jet, t * u), (t * jet ** 2, t / (1 + u)), (sp.sin(jet) + jet, t)]]
    expected = [normalize(e.xreplace({jet: value})) for e, value in cases]
    calls, depth = [], [0]
    real = sp.Basic.xreplace

    def xreplace(self, *args):
        if not depth[0]:
            calls.append(self)
        depth[0] += 1
        try:
            return real(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sp.Basic, "xreplace", xreplace)
    for (e, value), reference in zip(cases, expected):
        assert _substitute(e, ((jet, value),)) == reference
    assert calls == [sp.sin(jet)]
    with pytest.raises(DivisionByZero):
        substitute(normalize(t / (u - jet)), {jet: u})
    assert calls == [sp.sin(jet)]


def test_derive_falls_back_off_the_ring(monkeypatch):
    """Every input derives on values: a rational function, a symbolic power
    u**lam, which is one atom whose partial ``sp.diff`` takes, a constant
    exponential, log u (whose image has 1/u), an image 1/(1 + u) and a
    rational power sqrt(u).  All give the tree formula's answer."""
    ws = _PLAIN_WS
    t, u, lam = ws.independent[0], ws.dependent[0], ws.parameters["lam"]
    cases = [(normalize(e), images) for e, images in [
        (t / (1 + u), {t: 1, u: u ** 2}),
        (u ** lam * t, {t: 1, u: 1}),
        (sp.exp(-sp.Rational(1, 3)) * u ** 2, {u: t}),
        (sp.log(u) * t, {t: 1, u: u ** 2}),
        (u ** 2 * t, {t: 1 / (1 + u), u: 1}),
        (sp.sqrt(u) * t / (1 + u), {t: 1, u: u ** 2})]]
    expected = [_tree_derive(e, images) for e, images in cases]
    sp.core.cache.clear_cache()
    calls = []
    real = sp.diff
    monkeypatch.setattr(sp, "diff", lambda f, *a, **k: calls.append(f) or real(f, *a, **k))
    for (e, images), reference in zip(cases, expected):
        assert derive(e, images) == reference
    assert set(calls) == {u ** lam}


def test_derive_reads_kernel_arguments_normalized():
    """An exponential whose argument normalize leaves unreduced,
    exp(6*t*u_{x1}/(3*t**2*u_{x1}*D(h(t),t) + ...)), is read with its
    argument normalized, so derive gives normalize's form of the tree
    formula."""
    lam, jet, dh = _PLAIN_WS.parameters["lam"], _PLAIN_WS.parse("u_{x1}"), _PLAIN_WS.parse(
        "D(h(t),t)")
    e = normalize(sp.exp(-lam / (_t * dh + 1) + 2 - sp.Rational(1, 3) / (_t * jet + 1)))
    assert derive(e, {_t: 1}) == normalize(sp.diff(e, _t))


def test_atom_image_is_computed_once(monkeypatch):
    """Two derivations that share an atom and the images of its free
    symbols compute the atom's chain-rule image once."""
    ws = _PLAIN_WS
    t, x1, u = ws.independent + ws.dependent
    h = ws.parse("h(t)")
    sp.core.cache.clear_cache()
    calls = []
    real = algebra._partial
    monkeypatch.setattr(algebra, "_partial", lambda g, s: calls.append(g) or real(g, s))
    first = derive(x1 * h, {t: 1, x1: 1})
    second = derive(u * sp.sin(h) * h ** 2, {t: 1, u: x1})
    assert first == h + x1 * ws.parse("D(h(t),t)")
    assert second == _tree_derive(u * sp.sin(h) * h ** 2, {t: 1, u: x1})
    assert calls.count(h) == 1


def test_memo_keys_are_untyped_and_keep_identities():
    """jetsym's memos key on equality alone: (g, S.One, b) and (g, 1, b) are
    one key of ``_bound_image``, whose branches for an integer and a sympy
    exponent give equal values.  A normal e is its own normal form, the same
    object, however its value was read."""
    jet = _PLAIN_WS.parse("u_{x1}")
    bindings = algebra._Sum({jet: algebra._form(_PLAIN_WS.parse("u + 1"))})
    sp.core.cache.clear_cache()
    image = algebra._bound_image(jet, sp.S.One, bindings)
    assert algebra._bound_image(jet, 1, bindings) is image
    assert algebra._bound_image.__wrapped__(jet, 1, bindings) == image
    for text in ("u^2*x1 - 3/2", "exp(u/2)/(u + 1)", "sin(h(t))*D(h(t),t) + lam/x1",
                 "log(u + 1)^2 - u^(1/2)"):
        e = normalize(_PLAIN_WS.parse(text))
        assert _normal_form(e, _read(e)) is e
        assert normalize(e) is e


def test_normalize_cancels_non_plain(monkeypatch):
    """Rational functions, kernel and Laurent sums are put in sympy.cancel's
    form without it: the ring reads a rational function as a pair (N, D).
    Exponential factors of a rational function need no merging of their
    own: the forms below are those the engine gave when it still merged
    them."""
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
    for e, rational in cases:
        calls.clear()
        assert bool(_read(sp.expand(e))[1]) is rational
        assert normalize(e) == cancel(sp.expand(e))
        assert calls == [], e
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


def _tree_normalize(e):
    """``normalize`` on sympy's trees, the reader's reference: canonical
    Derivatives and kernels, ``sympy.expand``, ``sympy.cancel`` of a
    quotient, and a value with negative exponents put in its form."""
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZero("division by zero")
    e = e.replace(lambda n: isinstance(n, sp.Derivative), lambda n: n.canonical).replace(
        lambda n: isinstance(n, KERNEL_CLASSES), lambda k: _normal_kernel(k)[0])
    e = sp.expand(e)
    if _read(e)[1]:
        try:
            e = sp.cancel(e)
        except (PolynomialError, NotImplementedError, ZeroDivisionError):
            pass
        if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            raise DivisionByZero("division by zero")
    value = _read(e)
    return e if algebra._plain(value) else _normal_form(None, value)


def _normal_or_error(f, e):
    """f(e) with its srepr, which == then compares in stored argument order."""
    try:
        out = f(e)
    except DivisionByZero:
        return "DivisionByZero"
    return sp.srepr(out), out


# quotients whose numerator and denominator share a factor G, expanded so
# that only a gcd finds it
_shared = st.builds(lambda p, q, m, g: sp.expand(p * (m + g)) / sp.expand(q * (m + g)),
                    _laurent_sums, _sums, _monomials, st.sampled_from(_PLAIN_GENERATORS))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_trees, _shared))
def test_normalize_reader_matches_tree(e):
    """normalize, which reads trees straight into the ring's pairs, gives
    the tree path's form (canonical derivatives, kernel arguments,
    sympy.expand, _read, sympy.cancel) node for node."""
    assert _normal_or_error(normalize, e) == _normal_or_error(_tree_normalize, e)


def test_reader_reads_expand_shaped_input():
    """sympy.expand splits log(4*x1*x2), since the symbols are real: the
    reader splits it as sympy.expand_log does, with log(2) a constant atom,
    and normalize gives the tree path's form.  Sums, products, powers,
    exponentials of sums and exponentials with a rational constant term,
    which sympy.expand writes as E*exp(x1), are read."""
    lam = _PLAIN_WS.parameters["lam"]
    x2 = sp.Symbol("x2", real=True)
    e = _t + sp.log(4 * _x1 * x2)
    assert _read(e) is not None
    assert sp.srepr(normalize(e)) == sp.srepr(_tree_normalize(e)) == sp.srepr(
        _t + sp.log(_x1 * x2) + 2 * sp.log(2))
    assert sp.srepr(normalize(sp.exp(_x1 + 1))) == sp.srepr(sp.E * sp.exp(_x1))
    for e in [(_x1 + _u) ** 3 * sp.exp(_u / 2), sp.exp(_x1 * (_u + 2)) / sp.exp(_u),
              sp.sin(_x1 * (_x1 + lam)) ** 2 - sp.cos(-_x1), sp.log(_x1 * x2 + lam) * _h,
              sp.exp(_x1 + 1), sp.exp(-_x1 - sp.Rational(1, 3)) + _u]:
        assert _read(e) is not None
        assert sp.srepr(normalize(e)) == sp.srepr(_tree_normalize(e))


@pytest.mark.parametrize("e, form", [
    (sp.log(-4 * _x1), sp.log(-_x1) + 2 * sp.log(2)),
    (sp.log(6 * _x1), sp.log(_x1) + sp.log(6)),
    (sp.log(sp.exp(_x1) * _u), _x1 + sp.log(_u)),
    (sp.log(_x1 / 3), sp.log(_x1) - sp.log(3))])
def test_log_reads_as_sympy_expand_splits_it(e, form):
    """A log that sympy.expand_log splits is read as its split, and a log
    of a positive rational that it leaves whole is a constant atom: the
    normal form is sympy.expand's, which the tree path gave, without it."""
    n = normalize(e)
    assert _same_tree(n, form) and _same_tree(n, sp.expand(e))
    assert _same_tree(normalize(n), n)


def test_log_of_opposite_signs_stays_sampling_blocked(monkeypatch):
    """log(x) and log(-x) are never both real, so no point is accepted, and
    the log read, which cancels them, draws the points once."""
    draws, sample_points = [], algebra.sample_points
    monkeypatch.setattr(algebra, "sample_points", lambda *a: draws.append(a) or sample_points(*a))
    r = zero_verdict(sp.log(_x1) - sp.log(-_x1))
    assert (r.verdict, r.confidence) == (ZeroVerdict.UNKNOWN, "sampling-blocked")
    assert len(draws) == 1


# inputs on which the ring's two former readers disagreed: exp(sqrt(x)),
# log(4*x*y) and u*sin(sqrt(x)) were read by one, exp(x + 1), exp(x*(u + 1))
# and (u + 1)*(x + 1) by the other
_DISAGREED = [sp.exp(sp.sqrt(_x1)), sp.log(4 * _x1 * _t), _u * sp.sin(sp.sqrt(_x1)),
              sp.exp(_x1 + 1), sp.exp(_x1 * (_u + 1)), (_u + 1) * (_x1 + 1)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(_plain, _laurent, _rational, st.sampled_from(_DISAGREED)))
@example(_DISAGREED[0])
@example(_DISAGREED[1])
@example(_DISAGREED[2])
@example(_DISAGREED[3])
@example(_DISAGREED[4])
@example(_DISAGREED[5])
def test_ring_reads_normal_forms_back(e):
    """A normal form the ring reads converts back from the ring to itself,
    node for node."""
    n = normalize(e)
    value = _read(n)
    if value is not None:
        assert _same_tree(_as_expr(*_ring_elements([value])[0]), n)


# The atoms of a ring as ``_ring_elements`` builds it: exponentials on two or
# three directions and on the constant direction t = 1, then symbols, jets,
# h(t), its canonical derivative, sin/cos/sinh/cosh/log atoms and constant
# logs.
_DIRECTIONS = st.lists(st.sampled_from([_t, _x1, _u, _h]), min_size=2, max_size=3, unique=True)
_CONSTANT_LOGS = [sp.log(2), sp.log(6)]
_ATOMS = st.lists(st.sampled_from(_PLAIN_GENERATORS + _KERNELS + _CONSTANT_LOGS), max_size=4,
                  unique=True)
_coefficients = st.builds(QQ, st.integers(-9, 9).filter(bool), st.integers(1, 6))
_powers = st.one_of(st.just(0), st.integers(1, 6))


@st.composite
def _ring_values(draw):
    """A ring element whose exponential generators are exp(t/d)."""
    directions = draw(_DIRECTIONS) + [sp.S.One]
    gens = [sp.exp(t / draw(st.integers(1, 3))) for t in directions] + draw(_ATOMS)
    ring = PolyRing(tuple(gens), QQ)
    monomials = st.tuples(*[_powers] * ring.ngens)
    return ring.from_dict(draw(st.dictionaries(monomials, _coefficients, max_size=5)))


@st.composite
def _read_sums(draw):
    """A ``_read`` sum: exp(t) atoms with rational exponents of either sign,
    the other atoms with positive integer ones."""
    gens = [sp.exp(t) for t in draw(_DIRECTIONS)] + [_E] + draw(_ATOMS)
    n = sum(type(g) is sp.exp for g in gens)
    exponents = st.tuples(*[st.builds(sp.Rational, st.integers(-6, 6), st.integers(1, 3))] * n,
                          *[_powers] * (len(gens) - n))
    monomials = st.builds(lambda ks: frozenset((g, k) for g, k in zip(gens, ks) if k), exponents)
    return draw(st.dictionaries(monomials, _coefficients, max_size=5))


_RING = PolyRing((sp.exp(_x1 / 2), sp.exp(sp.Rational(1, 3)), _u, sp.sin(_u), sp.log(2)), QQ)


@settings(max_examples=200, deadline=None)
@given(_ring_values())
@example(_RING.zero)
@example(_RING(QQ(-7, 2)))
@example(_RING.from_dict({(3, 2, 6, 1, 0): QQ(-5, 3)}))
@example(_RING.from_dict({(0, 0, 0, 0, 0): QQ(1, 2), (1, 0, 2, 0, 2): QQ(-3)}))
def test_ring_element_tree_is_as_expr(p):
    """A ring element converts (``_as_expr`` with D = 1, which is ``_tree``
    of its terms) to the tree ``PolyElement.as_expr`` builds, node for
    node."""
    assert _same_tree(_as_expr(p, 1), p.as_expr())


@settings(max_examples=200, deadline=None)
@given(_read_sums())
@example({})
@example({frozenset(): QQ(3, 4)})
@example({frozenset(): QQ(3, 4), frozenset({(_u, 2)}): QQ(-1)})
@example({frozenset({(_E, sp.Rational(-1, 2)), (sp.exp(_u), 2), (_h, 6)}): QQ(-2)})
def test_read_sum_tree_is_the_constructors_tree(terms):
    """``_tree`` of a ``_read`` sum is the tree sympy's constructors build
    from its terms, node for node."""
    reference = sp.Add(*[QQ.to_sympy(c) * sp.Mul(*[
        sp.exp(k * g.args[0]) if type(g) is sp.exp else g ** k for g, k in m])
        for m, c in terms.items()])
    assert _same_tree(_tree(tuple((m, QQ.to_sympy(c)) for m, c in terms.items())), reference)


@settings(max_examples=200, deadline=None)
@given(_read_sums())
@example({frozenset({(sp.exp(_u), sp.Rational(-2))}): QQ(0),
          frozenset({(sp.exp(_u), sp.Rational(-1, 2)), (_E, sp.Rational(1, 3))}): QQ(1, 2),
          frozenset({(_x1, 1)}): QQ(2, 3)})
@example({frozenset({(_E, sp.Rational(-1)), (sp.log(2), 1)}): QQ(5, 4)})
def test_laurent_form_is_the_rings_cancel(terms):
    """A sum with negative exponents -- over exp(t) on several directions,
    t = 1 among them, with symbols, jets, h(t), kernels and constant logs
    and coefficients of mixed denominators -- is put in normal form without
    a ring, as the ring's ``PolyElement.cancel`` of N*S over S gives it
    (``_as_expr``), node for node.  A term 0 shifts nothing.  The one term
    built for N*S/S, with its sum factor P = N*S, is P / S as sympy's ``/``
    builds it, S = P / (N*S/S) in sympy's own form."""
    with mock.patch.object(algebra, "_ring_elements", side_effect=AssertionError):
        out = _normal_form(None, (terms, {}))
    assert _same_tree(out, _as_expr(*_ring_elements([(terms, {})])[0]))
    p = next((f for f in sp.Mul.make_args(out) if f.is_Add), None)
    if p is not None:
        assert _same_tree(out, p / (p / out))


@st.composite
def _quotients(draw):
    """A ``_read`` value N / D, and whether it cancels without a ring: N = 0,
    a D whose factors are each one term, or N one term over a D without exp
    atoms whose terms, multiplied out, share no atom; else N one term over a
    D with monomial content or exp atoms, or N and D sums.  The atoms are
    exp(t) with rational exponents of either sign, symbols, jets, h(t),
    D(h(t),t), kernels and constant logs; coefficients have either sign."""
    exps = [sp.exp(t) for t in draw(st.lists(st.sampled_from([_t, _x1, _u, _h]), max_size=2,
                                             unique=True))]
    atoms = exps + draw(st.lists(st.sampled_from(_PLAIN_GENERATORS + _KERNELS + _CONSTANT_LOGS),
                                 min_size=1, max_size=4, unique=True))
    monomials = st.builds(lambda ks: frozenset((g, k) for g, k in zip(atoms, ks) if k),
                          st.tuples(*[st.builds(sp.Rational, st.integers(-4, 4),
                                                st.integers(1, 2))] * len(exps),
                                    *[_powers] * (len(atoms) - len(exps))))
    kind = draw(st.sampled_from(["monomial N", "monomial D", "zero", "ring"]))
    size = (1, 1) if kind == "monomial D" else (2, 4)
    factors = draw(st.lists(st.tuples(st.dictionaries(monomials, _coefficients, min_size=size[0],
                                                      max_size=size[1]), st.integers(1, 2)),
                            min_size=1, max_size=2))
    den = {algebra._Sum(f): k for f, k in factors}
    product = algebra._scaled(algebra._ONE, {}, den)
    content = frozenset.intersection(*(frozenset(g for g, _ in m) for m, c in product.items() if c))
    num = draw(st.dictionaries(monomials, _coefficients, min_size=1,
                               max_size=1 if kind == "monomial N" else 4))
    if kind == "monomial N":
        assume(not content)
    if kind == "ring":
        assume(content or len(num) > 1)
    with_exps = any(type(g) is sp.exp for g in algebra._atoms([(num, den)]))
    return (({m: 0 * c for m, c in num.items()} if kind == "zero" else num), den,
            kind in ("monomial D", "zero") or kind == "monomial N" and not with_exps)


@settings(max_examples=200, deadline=None)
@given(_quotients())
@example(({frozenset(): QQ(-1)}, {algebra._Sum({frozenset({(_t, 1)}): QQ(1),
                                                 frozenset({(_x1, 1)}): QQ(1),
                                                 frozenset({(_u, 1)}): QQ(1)}): 1}, True))
@example(({frozenset({(_u, 2)}): QQ(-6, 5)}, {algebra._Sum({frozenset({(_x1, 1)}): QQ(-4, 3),
                                                             frozenset(): QQ(2, 9)}): 2}, True))
@example(({frozenset({(_x1, 1)}): QQ(2, 3), frozenset(): QQ(1)},
          {algebra._Sum({frozenset({(_u, 1)}): QQ(-4)}): 1}, True))
@example(({frozenset({(_x1, 1)}): QQ(2)}, {algebra._Sum({frozenset({(_x1, 1), (_u, 1)}): QQ(4),
                                                          frozenset({(_x1, 2)}): QQ(-2)}): 1},
          False))
@example(({frozenset(): QQ(1)},
          {algebra._Sum({frozenset({(_u, 1), (sp.exp(_u), sp.S.One)}): QQ(1)}): 1}, True))
@example(({frozenset({(_x1, 1)}): QQ(2, 3), frozenset({(sp.exp(_u), sp.Rational(1, 2))}): QQ(-1)},
          {algebra._Sum({frozenset({(_u, 2), (sp.exp(_u), sp.Rational(-3, 2)), (_h, 1)}):
                         QQ(-4, 5)}): 2}, True))
def test_quotients_cancel_without_a_ring(case):
    """N = 0, N over a one-term D, exp atoms and plain atoms mixed in it
    (1/(u*exp(u)) among them), and a one-term N over a D without exp atoms
    or monomial content are put in normal form without a ring; every
    quotient is ``_as_expr`` of its ring elements, node for node."""
    num, den, ring_free = case
    with mock.patch.object(algebra, "_ring_elements", side_effect=AssertionError
                           if ring_free else _ring_elements):
        out = _normal_form(None, (num, den))
    assert _same_tree(out, _as_expr(*_ring_elements([(num, den)])[0]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_read_sums().map(lambda terms: (terms, {})),
                 _quotients().map(lambda case: case[:2])))
@example(({frozenset(): QQ(0)}, {}))
@example(({frozenset({(_x1, sp.Rational(-1, 2))}): QQ(1), frozenset({(_x1, -1), (_u, 1)}): QQ(2)},
          {}))
@example(({frozenset({(_x1, sp.Rational(-3, 2))}): QQ(1), frozenset({(_x1, -1)}): QQ(-2)}, {}))
@example(({frozenset({(sp.sin(_u), -2), (sp.exp(_u), sp.Rational(-1, 2))}): QQ(3, 2)}, {}))
@example(({frozenset({(_h, -1)}): QQ(1), frozenset({(_u, 2)}): QQ(1)}, {}))
def test_normal_value_is_the_read_of_its_normal_form(value):
    """The value steps of the determining pipeline keep ``_normal(v)``, the
    form of the value of v's normal form, built without a tree for a sum or
    N*S/S, whose negative integer powers of atoms other than exp(t) ``_read``
    reads as one-term factors of D; its boundary tree is v's normal form."""
    tree = _normal_form(None, value)
    form = algebra._normal(value)
    assert form == algebra._form(tree)
    assert _same_tree(algebra._boundary(form), tree)


def test_forms_with_the_same_monomials_are_distinct_memo_keys():
    """A form hashes by its monomials alone, not by its coefficients: two
    forms that differ in a coefficient share a hash, and the memoized value
    steps give each its own result."""
    a, b, c = (algebra._form(_PLAIN_WS.parse(text)) for text in ("x1^2 + u", "x1^2 + 2*u", "x1^2"))
    assert hash(a) == hash(b) and a != b
    images = ((_x1, sp.S.One), (_u, sp.S.One))
    assert [algebra._boundary(algebra._derived(f, images)) for f in (a, b)] == [
        2 * _x1 + 1, 2 * _x1 + 2]
    assert [algebra._boundary(algebra._difference(f, c)) for f in (a, b)] == [_u, 2 * _u]


def test_determining_pipeline_hashes_no_coefficient(monkeypatch, capsys):
    """A cold derive-determining run on wave.jetsym and on a ladder rung
    hashes no QQ coefficient: forms hash by their monomials, and a factor of
    D is a key by its own monomials (``algebra._Sum``)."""
    if QQ.dtype is not PythonMPQ:
        pytest.skip("QQ's coefficients are gmpy2's, whose hash is C code")
    hashes, real = [], PythonMPQ.__hash__
    monkeypatch.setattr(PythonMPQ, "__hash__", lambda q: hashes.append(q) or real(q))
    root = Path(__file__).resolve().parent.parent
    for path in (root / "problems" / "wave.jetsym",
                 root / "perfbench" / "problems" / "sine-gordon-n2.jetsym"):
        sp.core.cache.clear_cache()
        assert main(["derive-determining", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    assert hashes == []


_FIXTURES = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.jetsym"))


def test_loading_the_fixtures_builds_no_ring(monkeypatch):
    """Each problem fixture loads from a cold cache without a ``PolyRing``:
    its quotients, such as -1/(x1 + x2 + lam) and the 1/u of exp(x2 + 1/u),
    cancel without a ring, and so does 1/(u*exp(u)), parsed or normalized."""
    rings = []
    real = PolyRing.__new__
    monkeypatch.setattr(PolyRing, "__new__", lambda cls, *a, **k: rings.append(a) or real(cls, *a, **k))
    for path in _FIXTURES:
        sp.core.cache.clear_cache()
        load_problem(path)
    sp.core.cache.clear_cache()
    assert _PLAIN_WS.parse("1/(u*exp(u))") == normalize(1 / (_u * sp.exp(_u))) == sp.exp(-_u) / _u
    assert len(_FIXTURES) == 6
    assert rings == []


def test_loading_the_fixtures_evaluates_no_kernel(monkeypatch):
    """Each problem fixture loads from a cold cache without a log or an exp
    ``eval``: the parser's kernel call is an unevaluated node, and
    ``_normal_kernel`` builds it once, on the argument it keeps, so
    exp(x2 + 1/u) is built on x2 + 1/u, which ``_kernel`` builds
    unevaluated, and never on its normal form (u*x2 + 1)/u, which it does
    not."""
    calls = {sp.exp: [], sp.log: []}
    for cls, seen in calls.items():
        monkeypatch.setattr(cls, "eval", classmethod(
            lambda c, a, *r, real=cls.eval.__func__, seen=seen: seen.append(a) or real(c, a, *r)))
    for path in _FIXTURES:
        sp.core.cache.clear_cache()
        load_problem(path)
    assert len(_FIXTURES) == 6 and calls == {sp.exp: [], sp.log: []}
    u, x2 = sp.symbols("u x2", real=True)
    sp.core.cache.clear_cache()
    algebra._kernel(sp.exp, (u * x2 + 1) / u)
    assert calls[sp.exp] == [(u * x2 + 1) / u]


def test_log_quotient_in_a_log_sum_is_split_as_expand_log_splits_it():
    """``_normal_kernel`` splits logs without ``sympy.expand_log`` but for a
    sum that holds a log: expand_log's first step rewrites the quotient
    log(12)/log(2) in it, and the normal form keeps that rewrite."""
    n = _PLAIN_WS.parse("log(x1 + sin(u*log(12)/log(2)))")
    assert _same_tree(n, sp.log(_x1 + sp.sin(2 * _u + _u * sp.log(3) / sp.log(2))))


# kernel arguments: Laurent monomials and their sums over symbols, jets, h(t)
# and D(h(t),t), which exp and log leave as they are, and shapes that they
# evaluate or that ``_kernel`` leaves to them
_NOT_INERT = [sp.S.Zero, sp.S.One, sp.S.NegativeOne, sp.S.Half, sp.Integer(4), _x1 + sp.log(_u),
              sp.log(_x1) * _u, sp.exp(_x1) + _u, sp.I * _x1, (_u * _x1 + 1) / _u]
_laurent_monomials_of_generators = st.builds(
    lambda c, powers: c * sp.Mul(*(g ** k for g, k in powers)), _rationals,
    st.lists(st.tuples(st.sampled_from(_PLAIN_GENERATORS), st.integers(-3, 3).filter(bool)),
             max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_CLASSES), st.one_of(
    _laurent_monomials_of_generators, st.sampled_from(_NOT_INERT),
    st.builds(lambda terms: sp.Add(*terms), st.lists(_laurent_monomials_of_generators, max_size=4))))
@example(sp.exp, sp.S.One)
@example(sp.log, sp.S.Half)
@example(sp.exp, _x1 + sp.log(_u))
@example(sp.exp, sp.log(_x1) * _u)
@example(sp.log, sp.Integer(4))
@example(sp.exp, (_u * _x1 + 1) / _u)
@example(sp.log, _x1 ** 2 - _u + _PLAIN_GENERATORS[-1] / 2)
def test_kernel_is_the_constructor(cls, a):
    """``_kernel(cls, a)``, which skips sympy's ``eval`` where it returns
    nothing, is cls(a), node for node, for exp, log, sin, cos, sinh and
    cosh."""
    assert _same_tree(algebra._kernel(cls, a), cls(a))


# negative and rational powers of the atoms, which ``_read`` sums do not hold
# and ``decompose_power`` splits into a base and an integer exponent
_EXPONENT_SCALES = st.sampled_from([1, 1, -1, sp.Rational(1, 2), sp.Rational(-3, 2)])


@st.composite
def _sums_to_order(draw):
    """A sum sympy's constructors build from the terms of a ``_read`` sum,
    exp(r) and constant logs among their number factors and each other atom
    raised to a power scaled by -1, 1/2 or -3/2 at times; or c - k*x, the
    two-term sum that sympy's key leaves as it is when c and k are positive."""
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.sampled_from([sp.Rational(3, 2), sp.Integer(2), sp.E, sp.log(2)]))
        x = sp.Mul(*draw(st.lists(st.sampled_from(_PLAIN_GENERATORS), min_size=1, max_size=2)))
        return c - draw(_rationals.filter(bool)) * x
    return sp.Add(*[QQ.to_sympy(c) * sp.Mul(*[
        sp.exp(k * g.args[0]) if type(g) is sp.exp else g ** (k * draw(_EXPONENT_SCALES))
        for g, k in m]) for m, c in draw(_read_sums()).items()])


@settings(max_examples=200, deadline=None)
@given(_sums_to_order())
@example(2 - 3 * _x1)
@example(sp.E - _u / 2)
@example(sp.log(2) * _u - 3 * _u + sp.E * _u)
@example(sp.Rational(-400, 11) * _u + sp.log(2) * _u / 5)
def test_ordered_terms_is_as_ordered_terms(e):
    """``ordered_terms`` gives sympy's ``as_ordered_terms``, node for node,
    and ``_sort_key``, which orders the bases of its monomials, is
    ``default_sort_key``."""
    out, reference = ordered_terms(e), e.as_ordered_terms()
    assert len(out) == len(reference) and all(map(_same_tree, out, reference))
    assert grammar._sort_key(e) == default_sort_key(e)


def test_tree_needs_distinct_ring_atoms():
    """``_tree`` only sorts, which is all ``flatten`` does to products of
    ring atoms.  A generator that is a sum, the atom b of an opaque power
    b**(1/2), is distributed over by ``flatten``, and ``_tree`` builds
    sympy's tree for it; two constant exponentials combine, which ``_tree``
    does not see, so ``Elimination`` keeps ``as_expr``."""
    p = PolyRing((_x1 + _u,), QQ).from_dict({(1,): QQ(2)})
    assert p.as_expr() == 2 * _x1 + 2 * _u
    assert _same_tree(_as_expr(p, 1), p.as_expr())
    constants = (sp.exp(sp.Rational(1, 2)), sp.exp(sp.Rational(1, 3)))
    q = PolyRing(constants, QQ).from_dict({(1, 1): QQ(1)})
    assert q.as_expr() == sp.exp(sp.Rational(5, 6))
    assert _as_expr(q, 1) == sp.Mul(*constants, evaluate=False)


def test_hot_path_builds_no_tree_with_as_expr(monkeypatch, capsys):
    """Ring values become trees through ``_tree``, never through
    ``PolyElement.as_expr`` and sympy's ``flatten``: a derive-determining
    ladder rung and a prolongation-bracket check call it 0 times from a cold
    cache.  On the problem fixtures the only calls left are those of
    ``Elimination.minor`` and ``Elimination.solution``, which keep it for
    their opaque generators.

    Derivatives, sums and substitutions run on ``_read`` values, and a ring
    is built only to cancel a quotient (``_normal_form``) and in
    ``Elimination``: neither the rung nor the bracket check builds one."""
    calls, rings = [], []
    real = PolyElement.as_expr
    monkeypatch.setattr(PolyElement, "as_expr", lambda p, *a: calls.append(p) or real(p, *a))
    monkeypatch.setattr(algebra, "PolyRing", lambda *a: rings.append(a) or PolyRing(*a))
    root = Path(__file__).resolve().parent.parent
    sp.core.cache.clear_cache()
    main(["derive-determining", str(root / "perfbench" / "problems" / "sine-gordon-n2.jetsym"),
          "--format", "json"])
    capsys.readouterr()
    assert rings == []
    ws = _PLAIN_WS
    t, x1, u = ws.independent + ws.dependent
    Y = VectorField(ws, (1 + 2 * x1, 3 - t), (u ** 2 - t,))
    Z = VectorField(ws, (2 + u, 1 - 3 * u), (x1 * u + 4,))
    sp.core.cache.clear_cache()
    rings.clear()
    PB, PY, PZ = prolong(lie_bracket(Y, Z), 2), prolong(Y, 2), prolong(Z, 2)
    for K in [(0, 0), (1, 0), (1, 1), (0, 2)]:
        lhs = PY.apply_to(PZ.coefficient(0, K)) - PZ.apply_to(PY.coefficient(0, K))
        assert is_zero(lhs - PB.coefficient(0, K)) is ZeroVerdict.ZERO
    assert calls == []
    assert rings == []


_F_WS = Workspace(["x1", "x2"], ["u"], order_cap=2)
_F_WS.add_function("f", args=["x1", "x2"])
_F_WS.add_function("g", args=["x2"])
_F, _G = _F_WS.parse("f(x1,x2)"), _F_WS.parse("g(x2)")


@st.composite
def _partials(draw):
    """(g, s): an unknown function, a Derivative of one in variables drawn
    with repeats and in any order, or an atom of another kind; s a symbol
    that is or is not among the function's arguments."""
    f = draw(st.sampled_from([_F, _G]))
    variables = draw(st.lists(st.sampled_from(f.args), max_size=4))
    g = draw(st.sampled_from([sp.Derivative(f, *variables) if variables else f, f ** 2,
                              sp.sin(f)]))
    return g, draw(st.sampled_from(_F_WS.independent + _F_WS.dependent))


@settings(max_examples=100, deadline=None)
@given(_partials())
@example((_F, _F_WS.dependent[0]))
@example((_F_WS.parse("D(f(x1,x2),x1,x1,x2)"), _F_WS.independent[1]))
@example((sp.Derivative(_F, *_F_WS.independent[::-1], _F_WS.independent[1]),
          _F_WS.independent[0]))
def test_partial_is_sympy_diff(case):
    """``_partial`` builds the tree ``sp.diff`` returns, node for node."""
    g, s = case
    assert _same_tree(algebra._partial(g, s), sp.diff(g, s))


def test_determining_systems_skip_sympys_term_order_and_diff(capsys):
    """A cold derive-determining run orders every sum it prints or signs by
    ``ordered_terms`` and takes each partial of an unknown function by
    ``_partial``: on wave.jetsym and on a ladder rung neither
    ``Expr.as_ordered_terms`` nor ``sympy.diff`` is called."""
    root = Path(__file__).resolve().parent.parent
    with mock.patch.object(sp.Expr, "as_ordered_terms", autospec=True,
                           side_effect=sp.Expr.as_ordered_terms) as terms, \
            mock.patch.object(sp, "diff", wraps=sp.diff) as diffs:
        for path in (root / "problems" / "wave.jetsym",
                     root / "perfbench" / "problems" / "kdv-deg2.jetsym"):
            sp.core.cache.clear_cache()
            assert main(["derive-determining", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    assert (terms.call_count, diffs.call_count) == (0, 0)


def test_nonzero_residuals_off_the_ring_stay_structural():
    """exp of a rational power is read, and a numerator is read without its
    denominator, which may be off the ring: each residual is a nonzero ring
    element over independent atoms."""
    lam, jet = _PLAIN_WS.parameters["lam"], _PLAIN_WS.parse("u_{t,x1}")
    for e in [sp.exp(sp.sqrt(_x1)) - 1, _u * sp.exp(sp.sqrt(_x1)) + _x1,
              sp.exp(-3 * sp.sqrt(lam)) / (jet * sp.sqrt(_x1) + 1)]:
        r = zero_verdict(e)
        assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, "structural"), e


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


def test_fixture_commands_call_no_cancel(monkeypatch, capsys):
    """The seven commands on the six fixtures, each from a cold cache, put
    their rational functions -- the kink -1/(x1 + x2 + lam), exp(x2 + 1/u),
    the Gauss-Codazzi residual over (lam + x1/2)^2 and liouville's
    log(4*x1*x2) -- in normal form without sympy.cancel or the tree path,
    and integrate their potentials without sympy.integrate.  A ring is
    built only to cancel a quotient, and in ``Elimination``."""
    root = Path(__file__).resolve().parent.parent / "problems"
    calls = []
    for module, name in [(sp, "cancel"), (sp, "integrate")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    real_elements = _ring_elements

    def ring_elements(values):
        if sys._getframe(1).f_code is not algebra.Elimination.__init__.__code__:
            assert all(den for _, den in values)
        return real_elements(values)
    monkeypatch.setattr(algebra, "_ring_elements", ring_elements)
    fixtures = sorted(root.glob("*.jetsym"))
    for fixture in fixtures:
        for command in COMMANDS:
            sp.core.cache.clear_cache()
            main([command, str(fixture), "--format", "json"])
    capsys.readouterr()
    assert len(fixtures) == 6
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
    # a rational power of a key takes the value as given, not its normal form
    assert substitute(sp.sqrt(u), {u: (x1 + 1) ** 2}) == normalize(sp.Abs(x1 + 1))


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
    # a true identity that the normalizer leaves, decided through Euler's
    # formula
    e = sp.cos(2 * u) - sp.cos(u) ** 2 + sp.sin(u) ** 2
    assert normalize(e) != 0
    r2 = zero_verdict(e)
    assert r2.verdict is ZeroVerdict.ZERO and r2.confidence == "structural"
    assert r2.seed is not None
    r3 = zero_verdict(e, seed=0xBEEF)
    assert (r3.verdict, r3.confidence, r3.seed) == (ZeroVerdict.ZERO, "structural", 0xBEEF)


def test_nonzero_rational_constant_is_structurally_nonzero(ws2):
    """A tiny rational constant is exact, so no float tolerance applies."""
    x = ws2.independent[0]
    for e in [(x + 1) ** 2 - x ** 2 - 2 * x - 1 + sp.Rational(1, 10 ** 15),
              sp.Rational(1, 10 ** 15)]:
        r = zero_verdict(e)
        assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, "structural")


def test_tiny_constant_is_structurally_nonzero():
    """A constant that is not Rational is decided structurally, however
    small: constant kernels are atoms that Euler's formula reads over e and
    e^i, which are algebraically independent (Lindemann-Weierstrass), so
    sin(1)**2 + cos(1)**2 - 1 is a structural Zero too."""
    eps = sp.Rational(1, 10 ** 12)
    for e in [sp.exp(-36), sp.sin(eps / 1000), sp.exp(1 + eps) - sp.E]:
        r = zero_verdict(e)
        assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, "structural"), e
    r = zero_verdict(sp.sin(1) ** 2 + sp.cos(1) ** 2 - 1)
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")


def test_constant_kernel_identity_is_structurally_zero():
    """sin(x1 + 1) - sin(x1)*cos(1) - cos(x1)*sin(1) cancels through Euler's
    formula over exp(i*x1) and exp(i), with cos(1) and sin(1) read as atoms."""
    r = zero_verdict(sp.sin(_x1 + 1) - sp.sin(_x1) * sp.cos(1) - sp.cos(_x1) * sp.sin(1))
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")


@pytest.mark.parametrize("e", [
    sp.sin(_x1) ** sp.Rational(1, 2) - _x1, sp.log(_x1) ** sp.Rational(1, 2) - 1,
    sp.cos(_u) ** sp.Rational(-1, 2) - _x1, sp.sinh(_x1) ** sp.Rational(3, 2) + 1])
def test_rational_powers_of_kernels_are_sampled(e):
    """A kernel to a rational power is an atom with that exponent, which
    Euler's formula and the log read leave as it is: the interval path
    decides it."""
    assert zero_verdict(e).verdict is ZeroVerdict.NONZERO


def test_nonzero_ring_element_is_structurally_nonzero():
    """A nonzero element of the ring over independent atoms is a nonzero
    function, however small its coefficients: no point is sampled."""
    t, x = sp.symbols("t x", real=True)
    for e in [x ** 2 / 10 ** 15 + x / 10 ** 14, -sp.exp(-t) * sp.exp(-x)]:
        r = zero_verdict(e)
        assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, "structural"), e


def test_exponentials_of_dependent_directions_are_sampled():
    """u/(x + 1) and u*x/(x + 1) are distinct directions whose sum is u, so
    the ring's three exponentials are not independent: the zero test samples
    the identity and finds it Zero."""
    u, x = sp.symbols("u x", real=True)
    e = sp.exp(u / (x + 1)) * sp.exp(u * x / (x + 1)) - sp.exp(u)
    assert zero_verdict(e).verdict is ZeroVerdict.ZERO


def test_sampled_zero_evaluates_once_per_point(ws2, monkeypatch):
    """A sampled Zero encloses the interval program once per precision of
    the ladder at exactly ZERO_SAMPLES accepted points, and never evaluates
    a float value."""
    x1 = ws2.independent[0]
    u = ws2.dependent[0]
    calls = []
    real = algebra._enclose
    monkeypatch.setattr(algebra, "_enclose", lambda program, point, ctx:
                        calls.append((tuple(point.items()), ctx.prec))
                        or real(program, point, ctx))
    monkeypatch.setattr(algebra, "evaluate_at", lambda *a: calls.append(a))
    # exponentials of dependent directions, which the ring cannot decide
    r = zero_verdict((sp.exp(u / (x1 ** 2 + 1)) * sp.exp(u * x1 ** 2 / (x1 ** 2 + 1))
                      - sp.exp(u)) * (x1 + u))
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "probabilistic")
    points = list(dict.fromkeys(point for point, _ in calls))
    assert len(points) == algebra.ZERO_SAMPLES
    assert calls == [(point, bits) for point in points for bits in (53, 212, 848)]


_X, _Y = sp.symbols("x y", real=True)
_LOG_IDENTITY = (sp.log(_X * _Y) - sp.log(_X) - sp.log(_Y)) * (2 * _X ** 2 - 3 * _X * _Y + _Y + 4)


def _epsilon_residual(e):
    return _LOG_IDENTITY + sp.exp(_X - 1) / 10 ** e


@pytest.mark.parametrize("e, confidence", [
    (sp.exp(_X + sp.Rational(1, 10 ** 12)) - sp.exp(_X), "structural"),
    (sp.sin(_Y + sp.Rational(1, 10 ** 10)) - sp.sin(_Y), "structural"),
    (_epsilon_residual(8), "interval"), (_epsilon_residual(12), "interval"),
    (_epsilon_residual(13), "interval")])
def test_tiny_differences_are_nonzero(e, confidence):
    """Residuals that a relative float tolerance read as Zero: an
    exponential or a sine shifted by a tiny rational, and a log identity
    times a polynomial plus exp(x - 1)/10^k.  The ring settles the first
    two, the sine through Euler's formula; an interval that excludes 0
    certifies the others."""
    r = zero_verdict(e)
    assert (r.verdict, r.confidence) == (ZeroVerdict.NONZERO, confidence)
    if confidence == "interval":
        point, bits = r.witness
        assert set(point) == e.free_symbols and bits in (53, 212, 848)


def test_hyperbolic_identity_is_structurally_zero():
    """cosh reads as (E + 1/E)/2 over the generator exp(x) that exp(x) and
    exp(-x) use, so the identity cancels in the ring."""
    e = sp.cosh(_X) - (sp.exp(_X) + sp.exp(-_X)) / 2
    assert normalize(e) != 0
    r = zero_verdict(e)
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")


def test_log_identity_is_structurally_zero():
    """log(x*y) = log(x) + log(y) holds wherever the logs are real: the log
    read cancels it, and its witness is a point where x*y, x and y are > 0."""
    r = zero_verdict(_LOG_IDENTITY)
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")
    assert all(a.xreplace(r.witness) > 0 for a in (_X * _Y, _X, _Y))


@pytest.mark.parametrize("e", [
    sp.log(sp.exp(_X / 2) + sp.exp(_X)) - sp.log(sp.exp(_X / 2) + 1) - _X / 2,
    sp.log(sp.exp(_X) + 1) - sp.log(sp.exp(-_X) + 1) - _X,
    sp.log(_Y * sp.exp(2 * _X * _Y) + _Y * sp.exp(_X * _Y)) - _X * _Y
    - sp.log(_Y) - sp.log(sp.exp(_X * _Y) + 1),
    sp.log(sp.exp(_X) - 1) - sp.log(sp.exp(_X / 2) - 1) - sp.log(sp.exp(_X / 2) + 1)])
def test_log_of_exponential_sum_is_structurally_zero(e):
    """A log argument with exponentials is factored over the generators
    exp(t/d), one per direction t for all the logs of the residual, and a
    factor exp(s) reads as s: log(exp(x/2) + exp(x)) is
    x/2 + log(exp(x/2) + 1), log(exp(-x) + 1) normalizes to
    log(exp(x) + 1) - x, and exp(x) - 1 factors over exp(x/2), which the
    other logs need.  Where the read decides, its witness is a point where
    the residual's 53-bit enclosure succeeds."""
    r = zero_verdict(e)
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")
    if normalize(e) != 0:
        algebra._enclose(algebra._program(normalize(e)), r.witness, algebra._LADDER[0][1])


@pytest.mark.parametrize("e, factored", [
    (sp.log(_X ** 2 - 1) - sp.log(_X - 1) - sp.log(_X + 1), 3),
    (sp.log(4 * _x1 + 4 * _u) - sp.log(_x1 + _u) - 2 * sp.log(2), 2),
    (_LOG_IDENTITY, 0)])
def test_log_identity_is_enclosed_only_at_53_bits(e, factored, monkeypatch):
    """A log identity is Zero, structural, after one draw of
    ``sample_points``: the residual is enclosed at 53 bits only, at each
    point until the first where that succeeds, which is the witness.  Only
    the sum arguments are factored, and the rational content of
    log(4*x1 + 4*u) reads as 2*log(2)."""
    draws, enclosed, factors = [], [], []
    sample_points, enclose, factor_list = algebra.sample_points, algebra._enclose, sp.factor_list
    monkeypatch.setattr(algebra, "sample_points", lambda *a: draws.append(a) or sample_points(*a))
    monkeypatch.setattr(algebra, "_enclose", lambda *a: enclosed.append(a) or enclose(*a))
    monkeypatch.setattr(sp, "factor_list", lambda f, **k: factors.append(f) or factor_list(f, **k))
    sp.core.cache.clear_cache()
    r = zero_verdict(e)
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")
    assert len(draws) == 1 and enclosed[-1][1] == r.witness
    assert {ctx for _, _, ctx in enclosed} == {algebra._LADDER[0][1]}
    assert len(factors) == factored
    assert all(g.args[0].xreplace(r.witness) > 0 for g in e.atoms(sp.log))


@pytest.mark.parametrize("name, error", [("factor_list", PolynomialError),
                                         ("factorrat", AttributeError)])
def test_log_read_that_fails_leaves_the_interval_path(name, error):
    """A log argument that sympy cannot factor, or whose content is not
    rational, leaves the residual to the interval path, as with no read."""
    sp.core.cache.clear_cache()
    with mock.patch.object(sp, name, side_effect=error):
        r = zero_verdict(sp.log(_X ** 2 - 1) - sp.log(_X - 1) - sp.log(_X + 1))
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "probabilistic")


# identities in sin, cos, sinh, cosh and exp of two arguments
_EULER_IDENTITIES = [
    lambda a, b: sp.sin(a) ** 2 + sp.cos(a) ** 2 - 1,
    lambda a, b: sp.cosh(a) ** 2 - sp.sinh(a) ** 2 - 1,
    lambda a, b: sp.sin(2 * a) - 2 * sp.sin(a) * sp.cos(a),
    lambda a, b: sp.cos(a + b) - sp.cos(a) * sp.cos(b) + sp.sin(a) * sp.sin(b),
    lambda a, b: sp.sinh(a + b) - sp.sinh(a) * sp.cosh(b) - sp.cosh(a) * sp.sinh(b),
    lambda a, b: sp.cosh(a) - (sp.exp(a) + sp.exp(-a)) / 2,
]
_small = st.sampled_from([-3, -2, -1, 1, 2, 3])
# a holds x and b holds y, so that neither is a constant; a + b may be one,
# whose kernels are atoms of the ring
_arguments = st.builds(lambda c, d, e: c * _X + d * _Y + e, _small, st.integers(-3, 3),
                       st.integers(-3, 3))
_y_arguments = st.builds(lambda c, d, e: c * _X + d * _Y + e, st.integers(-3, 3), _small,
                         st.integers(-3, 3))
_multipliers = st.builds(lambda c, i, j, d: c * _X ** i * _Y ** j + d,
                         _small, st.integers(1, 2), st.integers(0, 2), _small)
_epsilon_terms = st.one_of(st.just(0), st.builds(
    lambda k, c, d: sp.exp(c * _X + d) / 10 ** k, st.integers(0, 15), st.integers(-2, 2),
    st.integers(-2, 2)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_EULER_IDENTITIES), _arguments, _y_arguments, _multipliers,
       _epsilon_terms)
@example(_EULER_IDENTITIES[3], -3 * _X - _Y, 3 * _X + _Y + 1, _X + 1, 0)
@example(_EULER_IDENTITIES[4], -_X + 2 * _Y, _X - 2 * _Y - 3, _X * _Y - 2, sp.exp(_X) / 10 ** 12)
def test_euler_verdict_matches_the_interval_verdict(identity, a, b, multiplier, epsilon):
    """A trigonometric or hyperbolic identity times a polynomial, plus
    eps*exp(c*x + d) or not: the structural verdict through Euler's formula
    is the verdict of the interval test, which decides when the map is
    switched off."""
    e = identity(a, b) * multiplier + epsilon
    r = zero_verdict(e)
    with mock.patch.object(algebra, "euler", lambda terms: terms):
        sampled = zero_verdict(e)
    assert r.confidence == "structural" and sampled.confidence != "structural"
    assert r.verdict is sampled.verdict is (ZeroVerdict.NONZERO if epsilon else ZeroVerdict.ZERO)


_LOG_BASES = [_X, _Y, _X + 1, 1 - _X, _X - _Y, _X ** 2 + 1]
_log_factors = st.lists(st.tuples(st.sampled_from(_LOG_BASES), st.sampled_from([-2, -1, 1, 2, 3])),
                        min_size=1, max_size=3, unique_by=lambda factor: factor[0])
_contents = st.sampled_from([sp.Integer(4), sp.Rational(1, 3), sp.Integer(6), sp.Rational(9, 8)])


@settings(max_examples=30, deadline=None)
@given(_contents, _log_factors, _multipliers, _epsilon_terms)
@example(sp.Integer(4), [(1 - _X, 2)], _Y + 1, 0)
@example(sp.Rational(1, 3), [(_X - _Y, -1), (_Y, 1)], _X, sp.exp(_X) / 10 ** 15)
def test_log_read_matches_the_interval_verdict(c, factors, multiplier, epsilon):
    """log(c*prod p**k) - sum k*log(p) - log(c), times a polynomial, plus
    eps*exp(c*x + d) or not: the log read's structural Zero is the verdict
    of the interval test, which decides when the read is switched off, and
    a residual that it does not cancel takes the interval test unchanged."""
    identity = (sp.log(c * sp.Mul(*[p ** k for p, k in factors])) - sp.log(c)
                - sp.Add(*[k * sp.log(p) for p, k in factors]))
    # normalize itself cancels log(4*x) - log(x) - log(4), with no read
    assume(normalize(identity) != 0)
    e = identity * multiplier + epsilon
    r = zero_verdict(e)
    with mock.patch.object(algebra, "_log_read", lambda g, k: {frozenset({(g, k)}): QQ.one}):
        sampled = zero_verdict(e)
    assert sampled.verdict is (ZeroVerdict.NONZERO if epsilon else ZeroVerdict.ZERO)
    assert sampled.confidence != "structural"
    if epsilon:
        assert r == sampled
    else:
        assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")
        assert all(g.args[0].xreplace(r.witness) > 0 for g in e.atoms(sp.log))


def test_normalize_reduces_each_term_of_a_kernel_argument():
    """exp(P/Q) splits into the exponentials of the terms p_i/Q of P/Q, each
    in lowest terms, so that normalizing is idempotent and the tree and the
    parser give one form."""
    ws = Workspace(["t"], ["u"], order_cap=2)
    ws.add_parameter("lam")
    ws.add_function("h")
    (t,), lam, h, ut = ws.independent, ws.parameters["lam"], ws.functions["h"], ws.jet(0, (1,))
    tree = sp.exp(-lam / (t * sp.Derivative(h, t) + 1) + 2 - 1 / (3 * (t * ut + 1)))
    n = normalize(tree)
    assert normalize(n) == n
    assert parse("exp(-lam/(t*D(h(t),t) + 1) + 2 - 1/(3*(t*u_{t} + 1)))", ws) == n
    assert sp.exp(2 * t * ut / (t ** 2 * ut * sp.Derivative(h, t) + t * ut
                                + t * sp.Derivative(h, t) + 1)) in sp.Mul.make_args(n)
    x = sp.Symbol("x", real=True)
    for e in [sp.exp((6 * x + 5) / (3 * x + 3)), sp.exp((6 * sp.sqrt(x) + 5) / (3 * x + 3)),
              sp.sin((6 * x + 5) / (3 * x + 3))]:
        assert normalize(normalize(e)) == normalize(e)


def test_epsilon_residual_needs_neither_cancel_nor_float_values(monkeypatch):
    """exp(x - 1) stays on the ring, so an epsilon residual is normalized
    without sympy.cancel, and it is enclosed, not evaluated."""
    calls = []
    real = sp.cancel
    monkeypatch.setattr(sp, "cancel", lambda *a, **k: calls.append(a) or real(*a, **k))
    monkeypatch.setattr(algebra, "evaluate_at", lambda *a: calls.append(a))
    sp.core.cache.clear_cache()
    assert zero_verdict(_epsilon_residual(12)).verdict is ZeroVerdict.NONZERO
    assert calls == []


def test_residual_without_a_real_point_is_sampling_blocked():
    """log(-x^2 - 1) is real at no point, so every point is rejected when
    the ring cannot decide the residual, as for a log identity, and so is
    every point of a log identity over a root that is real only where its
    logs are not; a Pythagorean factor it decides through Euler's formula."""
    r = zero_verdict(sp.log(-_X ** 2 - 1) * (sp.log(_X * _Y) - sp.log(_X) - sp.log(_Y)))
    assert (r.verdict, r.confidence) == (ZeroVerdict.UNKNOWN, "sampling-blocked")
    # the logs need x > 0 and the root x < -1: a cancelled log read has no witness
    r = zero_verdict((sp.log(_X * _Y) - sp.log(_X) - sp.log(_Y)) / sp.sqrt(-_X - 1))
    assert (r.verdict, r.confidence) == (ZeroVerdict.UNKNOWN, "sampling-blocked")
    r = zero_verdict(sp.log(-_X ** 2 - 1) * (sp.sin(_X) ** 2 + sp.cos(_X) ** 2 - 1))
    assert (r.verdict, r.confidence) == (ZeroVerdict.ZERO, "structural")


def test_opaque_verdict_names_its_subterm():
    t = sp.Symbol("t", real=True)
    h = sp.Function("h")(t)
    r = zero_verdict(sp.Derivative(h, t) * _X + sp.sin(_X) ** 2)
    assert (r.verdict, r.confidence, r.witness) == (
        ZeroVerdict.UNKNOWN, "opaque", sp.Derivative(h, t))


_KERNEL_RESIDUALS = [
    (sp.sin(_X + _Y) ** 2 + sp.cos(_X + _Y) ** 2 - 1) * (_X ** 2 + _X * _Y - 2),
    (sp.cosh(2 * _X - 1) ** 2 - sp.sinh(2 * _X - 1) ** 2 - 1) * (_Y + 3),
    (sp.sin(2 * _Y) - 2 * sp.sin(_Y) * sp.cos(_Y)) * (_X - _Y),
    _LOG_IDENTITY,
    _epsilon_residual(10),
    (sp.log(_X ** 2) - 2 * sp.log(_X)) * (_Y - 1) + sp.exp(3 * _X + 2) / 10 ** 15,
]


def _verdicts(residuals):
    return [(r.verdict, r.confidence, r.witness)
            for r in map(zero_verdict, residuals)]


def test_zero_verdict_leaves_mpmath_precision():
    """The interval contexts are private: a caller's mpmath precision holds."""
    before = mpmath.mp.prec, mpmath.iv.prec
    try:
        mpmath.mp.prec, mpmath.iv.prec = 71, 97
        _verdicts(_KERNEL_RESIDUALS)
        assert (mpmath.mp.prec, mpmath.iv.prec) == (71, 97)
    finally:
        mpmath.mp.prec, mpmath.iv.prec = before


def test_zero_verdict_is_thread_safe():
    """Two threads give the serial verdicts and witnesses."""
    serial = _verdicts(_KERNEL_RESIDUALS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sp.core.cache.clear_cache()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_verdicts, _KERNEL_RESIDUALS[i::2]) for i in range(2)]
            halves = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [v for pair in zip(*halves) for v in pair] == serial


def test_proportional():
    x, y = sp.symbols("x y", real=True)
    assert proportional(2 * x + 2 * y, x + y)
    assert proportional(-(x + y), x + y)
    assert not proportional(x + y, x - y)
    assert proportional(0, 0)
    assert not proportional(x, 0)
