"""Core expression operations: normalize, diff, substitute, zero-testing.

Expressions are sympy objects built over workspace symbols; this module
pins down the canonical form and the engine-wide three-valued zero test.
Exact rational arithmetic throughout; floats only appear inside the
numerical sampling fallback.

The hot path is one sparse ring over QQ (``sympy.polys.rings.PolyRing``),
built per call on the atoms of its input (``_terms``, ``_ring_elements``).
Its generators are symbols, applied unknown functions, canonical
Derivatives, non-constant sin/cos/sinh/cosh/log atoms and, for each
direction t of an exponential exp(c*t) with c rational, one generator
exp(t/d), d the lcm of t's exponent denominators.  A sum with negative
exponents is a Laurent element N / S: N a polynomial and S the smallest
monomial in the exponential generators that clears them.  ``normalize``
(which reads its input tree straight into the ring's terms, ``_read``),
``derive``, ``sum_of_products`` and ``difference``, ``substitutions`` (jet
values put into an equation) and ``normal_forms`` (coefficients gathered
by family key) compute there and convert back once; input outside the
ring (rational functions, symbolic powers, constant kernels such as
exp(-1/3)) takes sympy's expression trees and ``sympy.cancel``.  The two
agree except that the ring's Laurent form never shifts further than it
must, where ``sympy.cancel``, reading exp(t) and exp(t/2) as unrelated
generators, can (see ``normalize``).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import islice

import sympy as sp
from sympy.core.cache import cacheit
from sympy.core.evalf import PrecisionExhausted
from sympy.core.function import AppliedUndef
from sympy.core.numbers import ilcm
from sympy.polys.domains import QQ
from sympy.polys.polyerrors import PolynomialError
from sympy.polys.rings import PolyRing

from .errors import CyclicBinding, DivisionByZero, UnknownSymbol
from .grammar import KERNEL_CLASSES
from .workspace import DEFAULT_SEED


class ZeroVerdict(Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    UNKNOWN = "Unknown"


class TriBool(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ZeroResult:
    verdict: ZeroVerdict
    confidence: str
    witness: object = None
    seed: int = None

    def __bool__(self):
        return self.verdict is ZeroVerdict.ZERO


_BAD_CONSTANTS = (sp.zoo, sp.nan, sp.oo, -sp.oo)


def _canonical_derivatives(e):
    return e.replace(lambda n: isinstance(n, sp.Derivative), lambda n: n.canonical)


@cacheit
def _normal_kernel(k):
    """The kernel k with its argument normalized (k itself when the argument
    is normal) and its ``_read`` terms, once per kernel.  exp(a) reads as
    the product of exp(t) over the terms t of a, as ``sympy.expand`` splits
    it.  The terms are None for a constant kernel, an argument off the ring
    or in Laurent form, exp of an argument with a constant term, and a log
    that ``sympy.expand_log`` changes."""
    terms, n = _read(k.args[0]), normalize(k.args[0])
    n = k if n is k.args[0] else type(k)(n)
    if type(n) is not type(k):
        return n, _read(n)
    if not _plain(terms) or type(n) is sp.log and sp.expand_log(n, deep=False) != n:
        return n, None
    factors = [sp.exp(t) for t in sp.Add.make_args(n.args[0])] if type(n) is sp.exp else [n]
    c, monomial = _monomial(factors) or (None, None)
    return n, None if c is None else {frozenset(monomial.items()): QQ(c.p, c.q)}


def _normalize_kernel_args(e):
    return e.replace(lambda n: isinstance(n, KERNEL_CLASSES), lambda k: _normal_kernel(k)[0])


_GENERATORS = (sp.Symbol, AppliedUndef, sp.Derivative)
# the kernels other than exp, which the ring reads as atoms, and their
# derivatives d kernel(a) / da; log's 1/a is off the ring, so X(log a)
# sends derive to the tree path unless X(a) = 0
_KERNEL_PARTIALS = {sp.sin: sp.cos, sp.cos: lambda a: -sp.sin(a), sp.sinh: sp.cosh,
                    sp.cosh: sp.sinh, sp.log: lambda a: 1 / a}
_KERNEL_ATOMS = tuple(_KERNEL_PARTIALS)


def _direction(arg):
    """exp(t) and c with arg = c*t, c Rational and t a product free of a
    rational factor; None for a constant or a sum."""
    c, rest = sp.S.One, []
    for f in sp.Mul.make_args(arg):
        if f.is_Rational:
            c *= f
        else:
            rest.append(f)
    c2, t = sp.Mul(*rest).as_coeff_Mul(rational=True)
    if not t.free_symbols or any(f.is_Add for f in sp.Mul.make_args(t)):
        return None
    g = sp.exp(t)
    return (g, c * c2) if isinstance(g, sp.exp) else None


def _monomial(factors):
    """(Rational, {atom: k}) for a product of ring factors, else None."""
    coeff, monomial, laurent = sp.S.One, {}, False
    for f in factors:
        k = 1
        if f.is_Pow:
            f, k = f.base, f.exp
            if not k.is_Integer:
                return None
            k = int(k)
            if k < 0 and not isinstance(f, sp.exp):
                return None
        if isinstance(f, _GENERATORS):
            if isinstance(f, sp.Derivative) and f != f.canonical:
                return None
            monomial[f] = monomial.get(f, 0) + k
        elif f.is_Rational:
            coeff *= f
        elif isinstance(f, _KERNEL_ATOMS):
            if not f.free_symbols:
                return None
            monomial[f] = monomial.get(f, 0) + k
        elif isinstance(f, sp.exp):
            direction = _direction(f.args[0])
            if direction is None:
                return None
            g, c = direction
            monomial[g] = monomial.get(g, 0) + c * k
            laurent = True
        else:
            return None
    if laurent:
        monomial = {g: k for g, k in monomial.items() if k}
    return coeff, monomial


def _terms(e):
    """[(Rational, {atom: k})] when e is a sum of QQ terms over the ring's
    atoms, else None.

    e is an expanded sum, or a normal form Rational * Add * monomial.  An atom
    is a Symbol, an applied unknown function, a canonical Derivative or a
    non-constant sin/cos/sinh/cosh/log, with k a positive integer; or
    exp(t) for a direction t, with k rational and of either sign, standing
    for exp(k*t).
    """
    outer = None
    if e.is_Mul:
        adds = [f for f in e.args if f.is_Add]
        if len(adds) == 1:
            outer = _monomial(f for f in e.args if not f.is_Add)
            if outer is None:
                return None
            e = adds[0]
    out = []
    for term in sp.Add.make_args(e):
        m = _monomial(sp.Mul.make_args(term))
        if m is None:
            return None
        out.append(m)
    if outer is None:
        return out
    c0, m0 = outer
    return [(c0 * c, {g: k for g in {**m0, **m} if (k := m0.get(g, 0) + m.get(g, 0))})
            for c, m in out]


def monomial_expr(monomial):
    """The product of a monomial {atom: k}, where exp(t) stands for exp(k*t)."""
    return sp.Mul(*[sp.exp(k * g.args[0]) if type(g) is sp.exp else g ** k
                    for g, k in monomial.items()])


def split_monomials(e, deps):
    """[(Rational, x-monomial, u-monomial)] for the terms of e as ``_terms``
    reads them, every atom of the u-monomial meeting deps and none of the
    x-monomial; None when the ring cannot read e."""
    terms = _terms(e)
    return None if terms is None else [
        (c, {g: k for g, k in m.items() if g.free_symbols.isdisjoint(deps)},
         {g: k for g, k in m.items() if not g.free_symbols.isdisjoint(deps)}) for c, m in terms]


def split_terms(e, deps):
    """(x-part, u-monomial {atom: k}) for each term of e, the x-part free of
    deps and every atom of the u-monomial meeting them.  Where the ring cannot
    read e, its expanded terms are split by sympy: an x-part such as
    1/(1 + x) is kept, and a u-part outside the ring stands as one atom, after
    factoring its denominator if it meets other symbols: 1/(u*x + u + x + 1)
    splits as 1/(x + 1) times 1/(u + 1)."""
    split = split_monomials(e, deps)
    if split is None:
        for term in sp.Add.make_args(sp.expand(e)):
            x, u = term.as_independent(*deps, as_Add=False)
            if u.free_symbols - set(deps):
                numerator, denominator = sp.fraction(term)
                x, u = (numerator / sp.factor(denominator)).as_independent(*deps, as_Add=False)
            c, monomial = _monomial(sp.Mul.make_args(u)) or (1, {u: 1})
            yield c * x, monomial
        return
    for c, x, u in split:
        yield c * monomial_expr(x), u


def _ring_elements(term_lists):
    """Sums given by their ``_terms`` as Laurent elements (N, shift) of one
    sparse ring over QQ on their atoms; also each atom's generator index and
    the denominator d of each exp(t).

    The generator of exp(t) is exp(t/d), d the lcm of t's exponent
    denominators, so its exponents are integers.  These generators come
    first, and an element stands for N / prod g**shift over them: its shift
    is the smallest that makes every exponent nonnegative, and () on a ring
    without exponentials.
    """
    atoms = dict.fromkeys(g for terms in term_lists for _, monomial in terms for g in monomial)
    dens = {g: 1 for g in atoms if type(g) is sp.exp}
    if dens:
        for terms in term_lists:
            for _, monomial in terms:
                for g in dens.keys() & monomial.keys():
                    dens[g] = ilcm(dens[g], monomial[g].q)
    index = {g: i for i, g in enumerate([*dens, *(g for g in atoms if g not in dens)])}
    ring = PolyRing(tuple(sp.exp(g.args[0] / dens[g]) if g in dens else g for g in index), QQ)
    elements = []
    for terms in term_lists:
        element = {}
        for coeff, monomial in terms:
            key = [0] * ring.ngens
            for g, k in monomial.items():
                key[index[g]] = k
            if dens:
                for i, d in enumerate(dens.values()):
                    key[i] = int(key[i] * d)
            key = tuple(key)
            element[key] = element.get(key, QQ.zero) + QQ(coeff.p, coeff.q)
        shift = ()
        if dens:
            shift = tuple(max(0, -min(key[i] for key in element)) for i in range(len(dens)))
            element = {tuple(map(operator.add, key, shift)) + key[len(shift):]: c
                       for key, c in element.items()}
        elements.append((ring.from_dict(element), shift))
    return elements, index, dens


def _laurent_mul(a, b):
    return a[0] * b[0], tuple(map(operator.add, a[1], b[1]))


def _laurent_sum(parts, ring):
    """The sum of Laurent elements, over the largest shift of each generator."""
    shifts = {s for _, s in parts}
    shift = tuple(map(max, zip(*shifts)))
    total = ring.zero
    for element, s in parts:
        if s != shift:
            element = element.mul_monom(_padded(ring, tuple(map(operator.sub, shift, s))))
        total += element
    return total, shift


def _padded(ring, shift):
    return shift + (0,) * (ring.ngens - len(shift))


def _as_expr(element, shift):
    """N / S as ``P.as_expr() / Q.as_expr()`` with (P, Q) =
    ``PolyElement.cancel(N, S)``: the common monomial factor of N and the
    shift S is cancelled, and P has integer coefficients."""
    if not any(shift):
        return element.as_expr()
    p, q = element.cancel(element.ring({_padded(element.ring, shift): 1}))
    return p.as_expr() / q.as_expr()


def derive(e, images):
    """X(e) = sum_g de/dg * images[g], normalized: the derivation of the jet
    chart that maps each symbol g in ``images`` to ``images[g]`` and every
    other symbol to 0.  Any other atom follows the chain rule through its
    free symbols: X(h(t)) = images[t] dh/dt for an opaque function,
    X(sin a) = cos a X(a) for a kernel and X(exp(c t)) = c X(t) exp(c t).

    e and the images are normal forms.  When ``_terms`` reads them and the
    atoms' images, X runs in one sparse ring over QQ (``_ring_elements``):
    a Laurent element N / S derives as (X(N) - N sum_E s_E X(t_E) / d_E) / S
    for the shift S = prod_E E**s_E of the generators E = exp(t_E / d_E).
    Otherwise it is ``sp.diff`` on the expression tree, summed and
    normalized.  Both give the same normal form, which sympy's cache keeps,
    as it keeps ``sp.diff``'s.
    """
    return _derive(sp.sympify(e), tuple(images.items()))


@cacheit
def _derive(e, images):
    images = dict(images)
    terms = _terms(e)
    if terms is not None:
        needed = {}
        for g in dict.fromkeys(g for _, monomial in terms for g in monomial):
            if g in images:
                needed[g] = _terms(sp.sympify(images[g]))
            elif not g.is_Symbol:
                own = tuple((s, images[s]) for s in sorted(g.free_symbols, key=str)
                            if s in images)
                if own:
                    needed[g] = _terms(_image(g, own))
        if all(t is not None for t in needed.values()):
            ((element, shift), *values), index, dens = _ring_elements(
                [terms, *needed.values()])
            parts = []
            for g, value in zip(needed, values):
                i = index[g]
                if g in dens:
                    # E**m / E**shift -> (m - shift)/d X(t) E**m / E**shift
                    de = element.ring.from_dict({m: c * QQ(m[i] - shift[i], dens[g])
                                                 for m, c in element.items()})
                else:
                    de = element.diff(i)
                parts.append(_laurent_mul((de, shift), value))
            return _as_expr(*_laurent_sum(parts, element.ring))
    return normalize(sp.Add(*[sp.diff(e, s) * v for s, v in images.items()]))


@cacheit
def _image(g, images):
    """X(g) for an atom g of the ring that is not a chart symbol, given the
    images of its own free symbols: computed once per atom and images, in
    the ring where ``sum_of_products`` can.  For g = exp(t) it is X(t)."""
    images = dict(images)
    if isinstance(g, sp.exp):
        return derive(g.args[0], images)
    if isinstance(g, _KERNEL_ATOMS):
        a = g.args[0]
        return sum_of_products([(_KERNEL_PARTIALS[type(g)](a), derive(a, images))])
    return sum_of_products([(v, sp.diff(g, s)) for s, v in images.items()])


def sum_of_products(pairs):
    """sum a * b over the (a, b) pairs, normalized; in the sparse ring of
    ``derive`` when ``_terms`` reads every factor."""
    factors = [sp.sympify(f) for pair in pairs for f in pair]
    term_lists = [_terms(f) for f in factors]
    if None in term_lists:
        return normalize(sp.Add(*[a * b for a, b in pairs]))
    elements, _, _ = _ring_elements(term_lists)
    return _as_expr(*_laurent_sum(list(map(_laurent_mul, elements[::2], elements[1::2])),
                                  elements[0][0].ring))


def difference(a, b):
    """a - b for normal forms, normalized: 0 when they are equal, which
    needs no ring, else in the ring of ``sum_of_products``."""
    return sp.S.Zero if a == b else sum_of_products([(1, a), (-1, b)])


def normal_forms(term_lists):
    """``normalize`` of each sum given by its [(Rational, monomial)] terms,
    converted from one sparse ring."""
    return [_as_expr(*element) for element in _ring_elements(term_lists)[0]]


def substitutions(e, combos):
    """normalize(e.xreplace(combo)) for each combo, a map from the same
    symbols to normal forms.  When ``_terms`` reads e and the values, and
    no other atom of e meets the symbols, e's terms are grouped by their
    monomial in the symbols, and each combo is the sum of the groups'
    coefficients times the values' powers in one ring that holds them all.
    """
    e = sp.sympify(e)
    symbols = set().union(*combos)
    values = list(dict.fromkeys(v for combo in combos for v in combo.values()))
    term_lists = [_terms(e), *(_terms(sp.sympify(v)) for v in values)]
    if None in term_lists or any(g not in symbols and not g.free_symbols.isdisjoint(symbols)
                                 for _, monomial in term_lists[0] for g in monomial):
        return [normalize(e.xreplace(combo)) for combo in combos]
    groups = {}
    for c, monomial in term_lists[0]:
        inner = frozenset((g, k) for g, k in monomial.items() if g in symbols)
        groups.setdefault(inner, []).append(
            (c, {g: k for g, k in monomial.items() if g not in symbols}))
    elements, _, _ = _ring_elements([*groups.values(), *term_lists[1:]])
    value_of = dict(zip(values, elements[len(groups):]))
    out = []
    for combo in combos:
        parts = []
        for inner, coeff in zip(groups, elements):
            for g, k in inner:
                value, shift = value_of[combo[g]]
                coeff = _laurent_mul(coeff, (value ** k, tuple(k * s for s in shift)))
            parts.append(coeff)
        out.append(_as_expr(*_laurent_sum(parts, elements[0][0].ring)))
    return out


def _times(a, b):
    """The product of two sums of ``_read`` terms."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = dict(ma)
            for g, k in mb:
                m[g] = m.get(g, 0) + k
            m = frozenset((g, k) for g, k in m.items() if k)
            out[m] = out.get(m, QQ.zero) + ca * cb
    return out


def _plain(terms):
    """True when ``_read`` took its input, and with no negative exponent."""
    return terms is not None and all(k > 0 for m, c in terms.items() if c for _, k in m)


def _read(e):
    """The terms {monomial: c} that ``_terms`` reads from ``sympy.expand``
    of e with canonical derivatives and normal kernel arguments, read off
    the tree e: a monomial is a frozenset of (atom, k), c is in QQ.  None
    when e takes the tree path."""
    if e.is_Add or e.is_Mul:
        out = {} if e.is_Add else {frozenset(): QQ.one}
        for f in e.args:
            if (t := _read(f)) is None:
                return None
            if e.is_Mul:
                out = _times(out, t)
            else:
                for m, c in t.items():
                    out[m] = out.get(m, QQ.zero) + c
        return out
    if e.is_Pow:
        if not e.exp.is_Integer or (base := _read(e.base)) is None:
            return None
        if e.exp > 0:
            return reduce(_times, [base] * int(e.exp))
        # a negative power only of an exponential monomial, a unit of the ring
        units = [(m, c) for m, c in base.items() if c]
        if len(units) != 1 or any(type(g) is not sp.exp for g, _ in units[0][0]):
            return None
        ((m, c),) = units
        return {frozenset((g, k * e.exp) for g, k in m): (1 / c) ** -int(e.exp)}
    if e.is_Rational:
        return {frozenset(): QQ(e.p, e.q)}
    f = e
    if isinstance(e, sp.Derivative):
        e, f = e.canonical, e.expr
    if e.is_Symbol or isinstance(f, AppliedUndef) and all(a.is_Symbol for a in f.args):
        return {frozenset({(e, 1)}): QQ.one}
    return _normal_kernel(e)[1] if isinstance(e, KERNEL_CLASSES) else None


def normalize(e):
    """Canonical form: the expanded sum over symbols and kernels, or its
    Laurent form; a rational normal form where neither applies.

    Kernel arguments are normalized first; sympy's construction rules
    apply the parity of sin/cos/sinh/cosh and write exp(u)*exp(-u/2) as
    exp(u/2), and exp(a + b) is split into exp(a)*exp(b) as
    ``sympy.expand`` splits it.  No Pythagorean or other identity rewriting
    takes place.  The form is idempotent and exact:

    - When the ring reads the expanded sum and no exponential in it has a
      negative exponent, the expanded sum is the form, as ``sympy.cancel``
      would also return it.
    - When some do, the form is N / S as ``P.as_expr() / Q.as_expr()``
      (``_as_expr``): each direction t of an exponential exp(c*t) is one
      generator E = exp(t/d), d the lcm of t's exponent denominators, and S
      is the smallest monomial in the E whose product with every term has
      no negative exponent.  ``sympy.cancel`` returns the same shape but can
      shift further, because it reads exp(t) and exp(t/2) as unrelated
      generators: a*exp(-u/2) + b*exp(-3*u/2) + x is
      (a*exp(u) + b + x*exp(3*u/2))*exp(-3*u/2) here and
      (a*exp(3*u/2) + b*exp(u/2) + x*exp(2*u))*exp(-2*u) there.
    - Any other input -- rational functions such as 1/(1 + u), symbolic
      powers, constants such as exp(-1/3) -- is put in ``sympy.cancel``'s
      form.

    The ring's terms are read off the input tree (``_read``), multiplied
    out in QQ and converted once, with no ``sympy.expand``.  The tree path
    (canonical derivatives, kernel arguments, ``sympy.expand``, ``_terms``)
    keeps what ``sympy.expand`` would shape otherwise: exp of an argument
    with a constant term (exp(x + 1) is E*exp(x)), a kernel of a Laurent
    argument, and a log that ``sympy.expand`` splits.  Symbols are real, so
    log(4*x1*x2) expands to log(x1*x2) + 2*log(2); a log is an atom only
    when ``sympy.expand_log`` leaves its normalized form unchanged.

    ``derive`` and ``sum_of_products`` return this form from the ring.
    """
    e = sp.sympify(e)
    return _normal_form(e, _read(e))


def _normal_form(e, terms):
    """``normalize(e)`` given ``_read(e)``; e itself when it is normal."""
    if terms is None:
        return _tree_normalize(e)
    if _plain(terms):
        out = sp.Add(*[QQ.to_sympy(c) * monomial_expr(dict(m)) for m, c in terms.items() if c])
        return e if out == e else out
    (element,), _, _ = _ring_elements([[(QQ.to_sympy(c), dict(m))
                                        for m, c in terms.items() if c]])
    return _as_expr(*element)


def _tree_normalize(e):
    """``normalize`` on sympy's expression trees, for input ``_read`` rejects."""
    if e.has(*_BAD_CONSTANTS):
        raise DivisionByZero(f"undefined constant while normalizing {e}")
    e = _canonical_derivatives(e)
    e = _normalize_kernel_args(e)
    e = sp.expand(e)
    terms = _terms(e)
    if terms is not None:
        if any(k < 0 for _, monomial in terms for k in monomial.values()):
            (element,), _, _ = _ring_elements([terms])
            e = _as_expr(*element)
        return e
    try:
        e = sp.cancel(e)
    except (PolynomialError, NotImplementedError, ZeroDivisionError):
        pass
    if e.has(*_BAD_CONSTANTS):
        raise DivisionByZero(f"undefined constant while normalizing {e}")
    return e


def diff(e, s, ws=None):
    """Partial derivative treating every jet coordinate as an independent symbol."""
    if ws is not None and ws.kind(s) is None and not (
            isinstance(s, sp.Symbol) and s in sp.sympify(e).free_symbols):
        raise UnknownSymbol(str(s))
    return normalize(sp.diff(sp.sympify(e), s))


def substitute(e, bindings, ws=None):
    """Simultaneous substitution followed by normalization.

    Keys may be symbols or applied unknown functions; pending formal
    derivatives of substituted functions are evaluated.
    """
    e = sp.sympify(e)
    bindings = {sp.sympify(k): sp.sympify(v) for k, v in bindings.items()}
    keys = list(bindings)
    for v in bindings.values():
        if v.has(*keys):
            raise CyclicBinding(f"replacement {v} mentions a bound symbol")
    out = e.xreplace(bindings)
    out = out.replace(lambda n: isinstance(n, sp.Derivative), lambda n: n.doit())
    return normalize(out)


# ---------------------------------------------------------------------------
# numerical sampling
# ---------------------------------------------------------------------------

def random_rational(rng, span=12):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return sp.Rational(num, den)


def evaluate_at(e, point):
    """High-precision numerical value; raises ValueError when not finite/real."""
    v = sp.N(e.xreplace(point), 40)
    if v.free_symbols:
        raise ValueError(f"unbound symbols {v.free_symbols}")
    c = complex(v)
    if not (abs(c.real) < 1e200 and abs(c.imag) < 1e200):
        raise ValueError("non-finite value")
    if abs(c.imag) > 1e-30 * max(1.0, abs(c.real)):
        raise ValueError("complex value (outside real domain)")
    return c.real


def sample_points(syms, rng, evaluate, draws):
    """The engine's generic-point sampler.

    Draws up to ``draws`` random exact-rational points for ``syms`` (in that
    order) and yields ``(point, evaluate(point))`` for each point where
    ``evaluate`` succeeds; points outside its domain are skipped.
    """
    for _ in range(draws):
        point = {s: random_rational(rng) for s in syms}
        try:
            value = evaluate(point)
        except (ValueError, TypeError, ZeroDivisionError):
            continue
        yield point, value


def nonzero_constant(c):
    """True when the constant c is certainly not 0: a nonzero Rational is
    exact, and any other constant is decided by its value to 40 significant
    digits, however small that value is.  False when no precision settles
    it, as for sin(1)**2 + cos(1)**2 - 1."""
    if c.is_Rational:
        return c != 0
    try:
        return c.evalf(40, strict=True) != 0
    except PrecisionExhausted:
        return False


ZERO_SAMPLES = 8   # points at which a residual with free symbols is sampled
ZERO_TOL = 1e-9    # relative tolerance of a sampled value


def zero_verdict(e, seed=None):
    """Three-valued zero test.

    Zero when the normal form is literally 0 (structural) or the residual
    vanishes at ``ZERO_SAMPLES`` random exact-rational points within relative
    tolerance ``ZERO_TOL`` (probabilistic).  NonZero on a witness point, or
    for a constant whose value is not 0 (structural); Unknown when opaque
    unknown functions block sampling.
    """
    seed = DEFAULT_SEED if seed is None else seed
    n = normalize(e)
    if n is sp.S.Zero or n == 0:
        return ZeroResult(ZeroVerdict.ZERO, "structural", seed=seed)
    if n.has(AppliedUndef, sp.Derivative, sp.Integral):
        return ZeroResult(ZeroVerdict.UNKNOWN, "opaque", seed=seed)
    if not n.free_symbols:
        if nonzero_constant(n):
            return ZeroResult(ZeroVerdict.NONZERO, "structural", seed=seed)
        return ZeroResult(ZeroVerdict.ZERO, "probabilistic", seed=seed)
    syms = sorted(n.free_symbols, key=lambda s: s.name)
    points = sample_points(syms, random.Random(seed),
                           lambda point: evaluate_at(n, point), ZERO_SAMPLES * 40)
    terms = sp.Add.make_args(n)
    checked = 0
    for point, value in islice(points, ZERO_SAMPLES):
        # the term scale only raises the threshold above ZERO_TOL, so a
        # value within it passes without evaluating the terms
        if abs(value) > ZERO_TOL:
            try:
                scale = max(abs(evaluate_at(t, point)) for t in terms)
            except (ValueError, TypeError, ZeroDivisionError):
                scale = 1.0
            if abs(value) > ZERO_TOL * max(1.0, scale):
                return ZeroResult(ZeroVerdict.NONZERO, "probabilistic",
                                  witness=point, seed=seed)
        checked += 1
    if checked == 0:
        return ZeroResult(ZeroVerdict.UNKNOWN, "sampling-blocked", seed=seed)
    return ZeroResult(ZeroVerdict.ZERO, "probabilistic", seed=seed)


def is_zero(e, seed=None):
    return zero_verdict(e, seed=seed).verdict

