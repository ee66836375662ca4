"""Core expression operations: normalize, diff, substitute, zero-testing.

Expressions are sympy objects built over workspace symbols; this module
pins down the canonical form and the engine-wide three-valued zero test.
Exact rational arithmetic throughout; the zero test encloses values in
interval arithmetic, and no float decides a verdict.

Every operation runs on the values of one reader, ``_read``, which turns
any finite tree into sums of monomials over QQ.  Atoms are symbols,
applied unknown functions and canonical Derivatives, with rational
exponents; sin/cos/sinh/cosh/log atoms, constants such as sin(1) among
them, and logs of positive rationals; for each direction t of an
exponential exp(c*t) with c rational (t = 1 for a rational constant), one
atom exp(t) with rational exponents; and any other node, Int(...), |x| or
the base b of b**(1/2), as one opaque atom.  A log that
``sympy.expand_log`` splits reads as its split.  A value is a pair (N, D)
that stands for N / D, D a product of sums {factor: k}: empty for a
polynomial.  ``derive``, ``sum_of_products``, ``difference`` and
``_substitute`` multiply and add values without cancelling (``_product``,
``_plus``, ``_derivation``) and put the result in normal form once
(``_normal_form``), a tree built at once for a value without a
denominator; ``grammar.parse`` reads its unevaluated tree.  The steps of a determining system
(``_derived``, ``_difference``, ``_substitution``) stay on values: a form
is a normal value whose N and D are ``_Sum``s, hashed by their monomials
and factors (``_form``, ``_normal``), and each step maps forms to forms,
memoized on them, and builds no tree (``_boundary`` builds one on request).
A sparse ring over QQ (``sympy.polys.rings.PolyRing``) is built only to
cancel a quotient (``_ring_elements``, ``_as_expr``), and in
``Elimination``; a quotient cancels without one when N is 0 or D one term
(``_laurent``) and, without exp atoms or rational exponents, when N is one
term over a D without monomial content (``_over_sum``).  Trees are built
without sympy's ``flatten`` and ``eval``: ``_tree`` sorts factors and
terms, N*S/S among them, and ``_kernel`` builds exp and log atoms
unevaluated where evaluation is the identity.  For the zero test and family collection, ``euler``
rewrites sin, cos, sinh and cosh through Euler's formula over the Gaussian
rationals QQ_I, so that their identities cancel as sums; normal forms stay
in sin and cos; the zero test alone reads logs (``_log_read``).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import combinations, islice
from math import gcd

import sympy as sp
from mpmath.ctx_iv import MPIntervalContext
from sympy.core.basic import _args_sortkey
from sympy.core.cache import CACHE, SYMPY_CACHE_SIZE, USE_CACHE
from sympy.core.evalf import PrecisionExhausted
from sympy.core.exprtools import decompose_power
from sympy.core.function import AppliedUndef
from sympy.core.numbers import ilcm
from sympy.ntheory import perfect_power
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.polyerrors import BasePolynomialError
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from .errors import CyclicBinding, DivisionByZero, PreconditionFailed, UnknownSymbol
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


KERNEL_CLASSES = (sp.exp, sp.log, sp.sin, sp.cos, sp.sinh, sp.cosh)


def _memo(f):
    """f in an LRU cache with untyped keys, (g, 1) and (g, S.One) one key:
    typed keys hash h(t)'s type, whose hash rebuilds its class_key.  Sized,
    switched and emptied (``clear_cache``) as sympy's own caches are."""
    if USE_CACHE != "no":
        CACHE.append(f := lru_cache(SYMPY_CACHE_SIZE)(f))
    return f


def _normal_kernel(k, unevaluated=False):
    """The kernel k with its argument normalized and its ``_read`` value, for
    ``_read`` and the parser: k itself when its argument is normal, but for
    an ``unevaluated`` node, the parser's, which ``_kernel`` builds, so that
    sympy's sign rule sin(-y) = -sin(y) applies.  An argument that is
    not a polynomial stands expanded, the kernel built once on it (a log on
    the normal argument first, for its split): exp(a) reads as the
    product of exp(t) over the terms t of a, exp(x2 + 1/u) as
    exp(x2)*exp(1/u).  A log that
    ``sympy.expand_log`` splits reads as its split, log(4*x) as
    log(x) + 2*log(2), and a log of a positive rational it leaves whole is
    an atom; the split is made here, with no ``eval``, of a sum without a
    log, which stays whole, and of c*m with no factor of m of known sign:
    log|c| + log(sign(c)*m), log(p/q) = log(p) - log(q) and log(b**e) =
    e*log(b), e the largest.  Any other kernel is one atom, constants such
    as sin(1) and exp(pi) among them."""
    a = k.args[0]
    value = _read(a)
    n = _normal_form(a, value)
    if not _plain(value) and type(k) is not sp.log:     # built once, on the argument kept
        n = sp.Add(*map(normalize, sp.Add.make_args(sp.expand(n))))
    n = k if n is a and not unevaluated else _kernel(type(k), n)
    if type(n) is not type(k):
        return n, _read(n)
    if type(n) is sp.log:    # expand_log rewrites a log quotient inside a sum
        c, m = n.args[0].as_coeff_Mul(rational=True)
        if m.has(sp.log) if m.is_Add else any(
                f.is_positive or f.is_negative for f in sp.Mul.make_args(m) if f is not sp.S.One):
            if (split := sp.expand_log(n, deep=False)) != n:
                return n, _read(split)
        elif abs(c) != 1:
            return n, _plus([({frozenset({(_kernel(sp.log, sp.Integer(b)), 1)}): QQ(s * e)}, {})
                             for p, s in ((abs(c.p), 1), (c.q, -1)) if p > 1
                             for b, e in [perfect_power(p) or (p, 1)]]
                            + ([] if m is sp.S.One else [_read(_kernel(sp.log, m if c > 0 else -m))]))
    if type(n) is sp.log and not _plain(value):
        n = _kernel(sp.log, sp.Add(*map(normalize, sp.Add.make_args(sp.expand(n.args[0])))))
        if type(n) is not type(k):
            return n, _read(n)
    m = _exponent(n.args[0]) if type(n) is sp.exp else None
    return n, ({frozenset({(n, 1)}) if m is None else m: QQ.one}, {})


@_memo
def _kernel(cls, a):
    """cls(a), built without sympy's ``eval`` where that provably returns
    nothing, since its assumption queries on a fresh tree cost up to a
    millisecond: exp or log of a non-number each of whose terms is a nonzero
    Rational or a Rational times integer powers of symbols, unknown functions
    and Derivatives (no branch of ``eval`` matches: no pi*I or log factor,
    nothing comparable, and a nonzero Laurent polynomial is never zero); log
    of a sum that is no number, whose ``eval`` asks is_zero only, which no
    nonzero normal form answers True; and log of an integer > 1.  Cached, as
    sympy caches cls(a)."""
    if cls is sp.log and a.is_Integer and a > 1 or not a.is_number and (
            cls is sp.log and a.is_Add or cls in (sp.exp, sp.log) and all(
                f.is_Rational and f.p or isinstance(f.as_base_exp()[0], _GENERATORS)
                and f.as_base_exp()[1].is_Integer
                for t in sp.Add.make_args(a) for f in sp.Mul.make_args(t))):
        return cls(a, evaluate=False)
    return cls(a)


def _exponent(a):
    """The monomial {exp(t): c} of exp(a), the product of exp(c*t) over the
    terms c*t of a (``_direction``); None when a term has no direction."""
    monomial = {}
    for t in sp.Add.make_args(a):
        if (direction := _direction(t)) is None:
            return None
        g, c = direction
        monomial[g] = monomial.get(g, 0) + c
    return frozenset((g, c) for g, c in monomial.items() if c)


_GENERATORS = (sp.Symbol, AppliedUndef, sp.Derivative)
# the atoms whose powers sympy leaves as they are (``_evaluates``)
_READ_ATOMS = _GENERATORS + KERNEL_CLASSES
# the kernels other than exp, which the ring reads as atoms, and their
# derivatives d kernel(a) / da
_KERNEL_PARTIALS = {sp.sin: sp.cos, sp.cos: lambda a: -sp.sin(a), sp.sinh: sp.cosh,
                    sp.cosh: sp.sinh, sp.log: lambda a: 1 / a}


def _independent(atoms):
    """True for algebraically independent ring atoms: symbols, jets, unknown
    functions and their derivatives, and exp(t) and exp(i*t) (``euler``)
    with t a rational times a product of rational powers of those.  Distinct
    such directions t and i*t are Q-linearly independent modulo constants,
    so their exponentials are algebraically independent (Ax, Ann. Math.
    1971); e and e^i (t = 1) are algebraically independent over Q, since 1
    and i are (Lindemann-Weierstrass).  Not sin/cos, sinh/cosh or log, which
    ``euler`` rewrites or keeps, and not exp(t) for other t:
    exp(u/(x + 1))*exp(u*x/(x + 1)) is exp(u)."""
    return all(isinstance(g, _GENERATORS) or type(g) is sp.exp and all(
        f.is_Rational or f is sp.I or isinstance(base, _GENERATORS) and k.is_Rational
        for f in sp.Mul.make_args(g.args[0]) for base, k in [f.as_base_exp()]) for g in atoms)


# Euler's formula: sin, cos, sinh and cosh of a as c*E + c'/E, with
# E = exp(i*a) for sin and cos and E = exp(a) for sinh and cosh
_EULER = {sp.sin: (QQ_I(0, QQ(-1, 2)), QQ_I(0, QQ(1, 2))), sp.cos: (QQ(1, 2), QQ(1, 2)),
          sp.sinh: (QQ(1, 2), QQ(-1, 2)), sp.cosh: (QQ(1, 2), QQ(1, 2))}


@_memo
def _euler(g, k):
    """g**k as a ``_read`` sum over QQ_I, through Euler's formula for a ring
    atom g in ``_EULER`` whose argument a has an ``_exponent``: E = exp(a)
    is a monomial in the generators exp(t) that exp(a) reads, and
    E = exp(i*a) one in atoms exp(i*t).  {g: k} for any other atom, and for
    k not a natural number: sqrt(sin(x)) and 1/sin(x) are no sums in E."""
    if type(g) not in _EULER or k < 1 or k != int(k) or (m := _exponent(g.args[0])) is None:
        return {frozenset({(g, k)}): QQ.one}
    if type(g) in (sp.sin, sp.cos):
        m = frozenset((sp.exp(sp.I * t.args[0], evaluate=False), j) for t, j in m)
    c, c_inverse = _EULER[type(g)]
    return reduce(_times, [{m: c, frozenset((t, -j) for t, j in m): c_inverse}] * int(k))


def euler(terms):
    """A ``_read`` sum {monomial: c} with each atom power replaced by its
    ``_euler`` image: equal as a function, and 0 exactly when the sum is 0
    where the atoms left are algebraically independent (``_independent``).
    Zero terms are dropped."""
    return {m: c for m, c in _mapped(terms, lambda g, k: (_euler(g, k), {}))[0].items() if c}


def _mapped(terms, image):
    """The value of a ``_read`` sum with each atom power g**k replaced by the
    value image(g, k)."""
    return _plus([reduce(_product, [image(g, k) for g, k in m], ({frozenset(): c}, {}))
                  for m, c in terms.items()])


@_memo
def _log_read(g, k, *gens):
    """log(a)**k, for a log atom g = log(a), as a sum over QQ in atoms |p|
    that stand for log|p|: a = c*prod p**j, p the primes of the rational c
    and a's primitive factors of normalized sign, read off ``_read`` for a
    quotient of monomials, else by ``sympy.factor_list`` over the generators
    exp(t/d), one for each pair (exp(t), d) in gens, which cover a's exp
    atoms.  A factor exp(s)**j reads as j*s, since log|exp(s)| = s for real
    s.  {g: k} otherwise, and for k not a natural number."""
    if type(g) is not sp.log or k < 1 or k != int(k):
        return {frozenset({(g, k)}): QQ.one}
    value = _read(a := g.args[0])
    laurent = _laurent(*value)
    if laurent is not None and len(laurent) == 1:
        (m, c), = laurent.items()
        factors, c = [*m], QQ.to_sympy(c)
    else:
        gens = {h: (sp.Dummy(), d) for h, d in gens}
        powers = {n: _exponent(n.args[0]) for n in a.atoms(sp.exp)}
        c, numer, denom = sp.factor_list(a.xreplace({
            n: sp.Mul(*[gens[h][0] ** (j * gens[h][1]) for h, j in m])
            for n, m in powers.items() if m and all(h in gens for h, _ in m)}), frac=True)
        back = {z: sp.exp(h.args[0] / d) for h, (z, d) in gens.items()}
        factors = [(p.xreplace(back), j) for p, j in numer + [(p, -j) for p, j in denom]]
    # j*log|exp(s)| is j*s when that reads without a denominator
    terms, _ = _plus([v if type(p) is sp.exp and (v := _read(j * p.args[0])) and not v[1] else
                      ({frozenset({(sp.Abs(p, evaluate=False), 1)}): QQ.convert(j)}, {})
                      for p, j in [*factors, *sp.factorrat(abs(c)).items()]])
    return reduce(_times, [terms] * int(k))


# the atom of the direction t = 1, unevaluated since exp(1) is E
_E = sp.exp(1, evaluate=False)


def _direction(arg):
    """exp(t) and c with arg = c*t, c Rational and t a product free of a
    rational factor, or t = 1 for a Rational arg; None for any other
    constant or a sum."""
    c, rest = sp.S.One, []
    for f in sp.Mul.make_args(arg):
        if f.is_Rational:
            c *= f
        else:
            rest.append(f)
    c2, t = sp.Mul(*rest).as_coeff_Mul(rational=True)
    if t is sp.S.One:
        return _E, c * c2
    if not t.free_symbols or any(f.is_Add for f in sp.Mul.make_args(t)):
        return None
    g = _kernel(sp.exp, t)
    return (g, c * c2) if isinstance(g, sp.exp) else None


@_memo
def _tree(terms):
    """The sum of c * prod(g**k) over (monomial, c) pairs, a monomial being
    (atom, k) pairs and exp(t)**k standing for exp(k*t), as ``sympy.Add``
    and ``sympy.Mul`` build it but without their ``flatten``: factors and
    terms sorted by sympy's private ``_args_sortkey``, c first, and joined
    by ``AssocOp._from_args``; exp atoms by ``_kernel``.  Exact for distinct
    ring atoms with one constant exp at most, and one sum among them besides
    another atom, whose products ``flatten`` only sorts.  A power that sympy
    evaluates (``_evaluates``) makes the sum sympy's tree, normalized.
    Cached, like the constructors, on monomials and coefficients, which hold
    no ring."""
    out, constant = [], []
    for monomial, c in terms:
        if _evaluates(monomial):
            return normalize(sp.Add(*[sp.Mul(c, *[sp.Pow(g, k) for g, k in m]) for m, c in terms]))
        factors = sorted((_power_tree(g, k) for g, k in monomial if k), key=_args_sortkey)
        term = sp.Mul._from_args(factors if c is sp.S.One else [c, *factors], True)
        (out if factors else constant).append(term)
    return sp.Add._from_args(constant + sorted(out, key=_args_sortkey), True)


def _power_tree(g, k):
    """The factor g**k of a ``_tree`` term, exp(t)**k being exp(k*t)."""
    return _kernel(sp.exp, sp.Mul(k, g.args[0])) if type(g) is sp.exp else g if k == 1 else sp.Pow(g, k)


def _evaluates(monomial):
    """True for a monomial that sympy builds as another node: sqrt(6)**2,
    |x|**2, b**(1/2)*b**(1/2) for a sum, product or number atom b, and
    powers of numbers that sympy's Mul merges, sqrt(2)*sqrt(3)."""
    powers = [(g, k, sp.Pow(g, k)) for g, k in monomial if k and not isinstance(g, _READ_ATOMS)]
    numbers = {f for g, _, f in powers if g.is_Number}
    return any((g.is_Add or g.is_Mul or g.is_Number) and k == int(k) or k != 1 and not (
        f.is_Pow and f.base == g) for g, k, f in powers) or len(numbers) > 1 and set(
            sp.Mul.make_args(sp.Mul(*numbers))) != numbers


def monomial_expr(monomial):
    """The product of a monomial {atom: k}, where exp(t) stands for exp(k*t)."""
    return _tree(((tuple(monomial.items()), sp.S.One),))


def split_monomials(e, deps):
    """[(c, x-monomial, u-monomial {atom: k})] with sum c * x * u = e, c in QQ
    and not 0, the x-monomial a frozenset of (atom, k) none of whose atoms
    meets deps, and every atom of the u-monomial meeting them, split as
    ``_read`` reads e, N / D, or as e is for the form of a value, each factor
    of D as its ``_factors``: 1/(u*x + u + x + 1) is 1/(x + 1) times
    1/(u + 1)."""
    terms, den = e if type(e) is tuple else _read(e)
    c, inverse = QQ.one, {}      # 1/D as c * inverse
    for f, k in den.items():
        r, monomial = _factors(f, deps)
        c /= r ** k
        for g, i in monomial.items():
            inverse[g] = inverse.get(g, 0) - i * k
    if den:
        terms = _times(terms, {frozenset(inverse.items()): c})
    return [(q, frozenset((g, k) for g, k in m if g.free_symbols.isdisjoint(deps)),
             {g: k for g, k in m if not g.free_symbols.isdisjoint(deps)})
            for m, q in terms.items() if q]


def _factors(f, deps):
    """(r, {atom: i}) with f = r * prod atom**i, for a sum f of ``_read``
    terms: a one-term f is its monomial, exp(u/2)**3 as exp(u)**(3/2); a sum
    whose atoms all meet deps, or none do, is one atom, the sum f / r with
    integer coprime coefficients and a positive leading term, as
    ``sympy.cancel`` writes a denominator; any other is the product of the
    factors of ``factor_list`` on its ring element, each read so."""
    f = {m: c for m, c in f.items() if c}
    if len(f) == 1:
        (m, r), = f.items()
        return r, dict(m)
    atoms = _atoms([(f, {})])
    if len({g.free_symbols.isdisjoint(deps) for g in atoms}) > 1 and deps:
        (a, s), = _ring_elements([(f, {})])
        gens = [(g, atoms[g]) for g in _ring_order(atoms)]
        (r, factors), monomial = a.factor_list(), {}
        for p, j in [(s, -1)] * (s != 1) + factors:
            q, m = _factors({frozenset((g, sp.Rational(k, d)) for (g, d), k in zip(gens, key) if k): c
                             for key, c in p.items()}, ())
            r *= q ** j
            for g, i in m.items():
                monomial[g] = monomial.get(g, 0) + i * j
        return r, {g: i for g, i in monomial.items() if i}
    r = QQ(gcd(*(c.numerator for c in f.values())), reduce(ilcm, (c.denominator for c in f.values())))
    if _negative_lead([(dict(m), c) for m, c in f.items()]):
        r = -r
    return r, {_tree(tuple((m, QQ.to_sympy(c / r)) for m, c in f.items())): 1}


def _atoms(values):
    """The atoms of ``_read`` values (N, D), in order of appearance, each
    with the lcm of its exponents' denominators."""
    atoms = {}
    for num, den in values:
        for s in (num, *den):
            for m in s:
                for g, k in m:
                    atoms[g] = atoms.get(g, 1) if type(k) is int else ilcm(atoms.get(g, 1), k.q)
    return atoms


def _ring_order(atoms):
    """The atoms in the order of their ring generators, exponentials first."""
    return sorted(atoms, key=lambda g: type(g) is not sp.exp)


def _ring_elements(values):
    """``_read`` values (N, D) as pairs of one sparse ring over QQ on their
    atoms, exponentials first, each factor of D multiplied in the ring.

    The generator of exp(t) is exp(t/d), and that of another atom x is
    x**(1/d), d the lcm of the atom's exponent denominators, so that its
    exponents are integers.  A sum with negative exponents is N / S, S the
    smallest monomial in these generators that clears them.
    """
    atoms = _atoms(values)
    index = {g: i for i, g in enumerate(_ring_order(atoms))}
    ring = PolyRing(tuple(sp.exp(g.args[0] / atoms[g]) if type(g) is sp.exp else
                          g if atoms[g] == 1 else sp.Pow(g, sp.Rational(1, atoms[g]))
                          for g in index), QQ)

    def pair(terms):
        element = {}
        for m, c in terms.items():
            if c:
                key = [0] * ring.ngens
                for g, k in m:
                    key[index[g]] = k * atoms[g] if type(k) is int else int(k * atoms[g])
                element[tuple(key)] = c
        shift = tuple(max(0, -min(column)) for column in zip(*element))
        if not any(shift):
            return ring.from_dict(element), 1
        return (ring.from_dict({tuple(map(operator.add, key, shift)): c
                                for key, c in element.items()}),
                ring.from_dict({shift: QQ.one}))

    elements = []
    for num, den in values:
        a, s = pair(num)
        for f, k in den.items():
            b, t = pair(f)
            a, s = a * t ** k, s * b ** k
        elements.append((a, s))
    return elements


def _as_expr(n, d):
    """N / D as ``P.as_expr() / Q.as_expr()``, built by ``_tree``, with (P, Q) =
    ``PolyElement.cancel(N, D)`` and the sign that ``sympy.cancel`` gives:
    Q's leading coefficient is positive in lex order of sympy's sorted
    generators (``decompose_power`` of each factor).  N itself when D = 1."""
    p, q = (n, n.ring.one) if d == 1 else n.cancel(d)
    if len(q) > 1 and _negative_lead([(dict(decompose_power(g ** k) for g, k in zip(
            q.ring.symbols, monom) if k), c) for monom, c in q.terms()]):
        p, q = -p, -q
    to_sympy = n.ring.domain.to_sympy
    gens = [(g.base, g.exp) if g.is_Pow and g.exp.is_Rational else (g, 1) for g in n.ring.symbols]
    p, q = (_tree(tuple((tuple((g, k * e) for (g, e), k in zip(gens, monom) if k), to_sympy(c))
                        for monom, c in f.items())) for f in (p, q))
    return p if q is sp.S.One else p / q


def _negative_lead(terms):
    """True when the leading term of a sum of (powers {g: k}, c) terms, in lex
    order of sympy's sorted generators, has c < 0."""
    order = _sort_gens({g for powers, _ in terms for g in powers})
    return max(terms, key=lambda term: [term[0].get(g, 0) for g in order])[1] < 0


def _over_sum(num, den):
    """N / D as ``_as_expr`` of its ring elements, without a ring, for N one
    term c*m over a D whose terms, multiplied out, share no atom: gcd(N, D)
    is a number, so ``PolyElement.cancel`` scales c*m and D to integer
    coefficients with coprime contents, by lcm(denominators) /
    gcd(numerators), and D's leading term takes a positive sign.  None for
    any other N / D, and for a negative exponent, 1/(x + u**-1)."""
    terms = [(m, c) for m, c in num.items() if c]
    d = {m: c for m, c in _scaled(_ONE, {}, den).items() if c}
    if len(terms) != 1 or any(k < 0 for m in (terms[0][0], *d) for _, k in m) or (
            frozenset.intersection(*(frozenset(g for g, _ in m) for m in d))):
        return None
    (m, c), = terms
    scale = QQ(reduce(ilcm, (q.denominator for q in [c, *d.values()])),
               gcd(*(q.numerator for q in [c, *d.values()])))
    if _negative_lead([(dict(m2), q) for m2, q in d.items()]):
        scale = -scale
    return _tree(((tuple(m), QQ.to_sympy(c * scale)),)) / _tree(
        tuple((tuple(m2), QQ.to_sympy(q * scale)) for m2, q in d.items()))


def _derivation(value, images):
    """X(N / D) for a ``_read`` value, given the values X(g) of its atoms g
    by atom (X(t) for g = exp(t)); an atom without one has X(g) = 0.  The
    product rule on each monomial, where g**k gives k g**(k - 1) X(g) for
    rational k and exp(t)**k gives k X(t) exp(k t), and the quotient rule on
    each factor f**k of D: X(N / D) = X(N) / D - sum k N X(f) / (f D).
    Nothing is cancelled."""
    num, den = value
    partials = {}
    for m, c in num.items():
        for g, k in m:
            if g in images and c:
                c2 = c * (k if type(k) is int else QQ(k.p, k.q))
                rest = m if type(g) is sp.exp else m - {(g, k)} | ({(g, k - 1)} if k != 1 else set())
                partial = partials.setdefault(g, {})
                partial[rest] = partial[rest] + c2 if rest in partial else c2
    out = _plus(_product((partial, {}), images[g]) for g, partial in partials.items())
    if not den:
        return out
    return _plus([_product(out, (_ONE, den)), *(
        _product(({m: -k * c for m, c in num.items()}, {**den, f: k + 1}),
                 _derivation((f, {}), images)) for f, k in den.items())])


def derive(e, images):
    """X(e) = sum_g de/dg * images[g], normalized: the derivation of the jet
    chart that maps each symbol g in ``images`` to ``images[g]`` and every
    other symbol to 0.  Any other atom follows the chain rule through its
    free symbols: X(h(t)) = images[t] dh/dt for an opaque function,
    X(sin a) = cos a X(a) for a kernel, X(log a) = X(a) / a and
    X(exp(c t)) = c X(t) exp(c t).

    e and the images are normal forms.  X runs on their ``_read`` values and
    the atoms' images (``_derivative``), and the result is put in normal form
    once (``_normal_form``), which builds a ring only to cancel a quotient.
    Cached, as sympy caches ``sp.diff``; ``_derived`` is the same step kept
    on values.
    """
    return _derive(sp.sympify(e), tuple(images.items()))


@_memo
def _derive(e, images):
    return _normal_form(None, _derivative(_read(e), images))


@_memo
def _derived(form, images):
    """The form of ``derive`` on the value of a form: its step on values."""
    return _normal(_derivative(form, images))


def _derivative(value, images):
    """X(value), not normalized: ``_derivation`` given the values of the
    images of the value's atoms (``_image`` for an atom that meets them)."""
    images, needed = dict(images), {}
    for g in _atoms([value]):
        if g in images:
            needed[g] = _read(sp.sympify(images[g]))
        elif not g.is_Symbol:
            own = tuple((s, images[s]) for s in sorted(g.free_symbols, key=str) if s in images)
            if own:
                needed[g] = _read(_image(g, own))
    return _derivation(value, needed)


@_memo
def _image(g, images):
    """X(g) for an atom g of a ``_read`` value that is not a chart symbol,
    given the images of its own free symbols: computed once per atom and
    images.  For g = exp(t) it is X(t); for any other atom it sums
    ``_partial(g, s)`` times the image of s."""
    images = dict(images)
    if isinstance(g, sp.exp):
        return derive(g.args[0], images)
    if isinstance(g, KERNEL_CLASSES):   # no dict lookup: h(t)'s type hashes slowly
        return sum_of_products([(_KERNEL_PARTIALS[type(g)](a := g.args[0]), derive(a, images))])
    return sum_of_products([(v, _partial(g, s)) for s, v in images.items()])


def _partial(g, s):
    """``sp.diff(g, s)``, built directly for an unknown function of symbols
    f(x1, ...) or a Derivative of one: 0 when s is not an argument of f, else
    the canonical Derivative with s counted once more."""
    f, counts = (g.expr, g.variable_count) if isinstance(g, sp.Derivative) else (g, ())
    if not (isinstance(f, AppliedUndef) and all(a.is_Symbol for a in f.args)):
        return sp.diff(g, s)
    return sp.Derivative(f, *counts, (s, 1), evaluate=False).canonical if s in f.args else sp.S.Zero


def sum_of_products(pairs):
    """sum a * b over the (a, b) pairs, normalized: on their ``_read``
    values (``_product``, ``_plus``), put in normal form once."""
    values = [_read(sp.sympify(f)) for pair in pairs for f in pair]
    return _normal_form(None, _plus(map(_product, values[::2], values[1::2])))


def difference(a, b):
    """a - b for normal forms, normalized: 0 when they are equal, else
    ``sum_of_products``."""
    return sp.S.Zero if a == b else sum_of_products([(1, a), (-1, b)])


def normal_forms(sums):
    """``normalize`` of each sum {monomial: c} of ``split_monomials`` terms; a
    sum atom, a factor of D that the split keeps whole, takes ``normalize``,
    which joins 1/(x + 1) + 1/(x + 2), and ``_tree`` not."""
    return [normalize(sp.Add(*[sp.Mul(QQ.to_sympy(c), *[monomial_expr({g: k}) for g, k in m])
                               for m, c in s.items()]))
            if any(g.is_Add or g.is_Mul or g.is_Pow for m in s for g, _ in m)
            else _normal_form(None, (s, {})) for s in sums]


def _times(a, b):
    """The product of two sums of ``_read`` terms."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = dict(ma)
            for g, k in mb:
                m[g] = m.get(g, 0) + k
            m = frozenset((g, k) for g, k in m.items() if k)
            out[m] = out.get(m, QQ.zero) + ca * cb
    return out


def _product(a, b):
    """The product of two ``_read`` values (N, D): ``_times`` of the
    numerators over the product of the denominators, equal factors merged."""
    (n, d), (m, e) = a, b
    if d and e:
        e = {**d, **{f: d.get(f, 0) + k for f, k in e.items()}}
    return _times(n, m), e or d


def _plus(values):
    """The sum of ``_read`` values (N, D): the numerators summed over each
    distinct denominator, and the sums over the least common multiple of
    their factors.  No numerator is cancelled; a value 0 is left out."""
    groups = {}     # the numerators summed over each distinct denominator
    for n, d in values:
        if not any(n.values()):
            continue
        group = groups.setdefault(frozenset(d.items()) if d else None, ({}, d))[0]
        for m, c in n.items():
            group[m] = group[m] + c if m in group else c
    if len(groups) == 1:
        return next(iter(groups.values()))
    num, lcm = {}, {}
    for _, d in groups.values():
        lcm.update((f, k) for f, k in d.items() if k > lcm.get(f, 0))
    for n, d in groups.values():
        for m, c in _scaled(n, d, lcm).items():
            num[m] = num[m] + c if m in num else c
    return num, lcm


def _scaled(num, den, lcm):
    """num times the factors of the denominator lcm that den lacks."""
    return reduce(_times, [f for f, k in lcm.items() for _ in range(k - den.get(f, 0))], num)


def _plain(value):
    """True for a ``_read`` value that is a polynomial: denominator 1 and no
    negative exponent."""
    num, den = value
    return not den and all(k > 0 for m, c in num.items() if c for _, k in m)


# the terms of 1
_ONE = {frozenset(): QQ.one}


class _Sum(dict):
    """A map that no caller changes, hashed once, by its keys: a ``_read``
    sum by its monomials (a hash of a QQ coefficient runs Python code), D by
    its factors, bindings {key: form} by their keys.  Equal as dicts.  The N
    of ``_form(e)`` keeps e (``tree``), any other None."""
    __slots__ = ("hash", "tree")

    def __init__(self, mapping, tree=None):
        super().__init__(mapping)
        self.hash, self.tree = hash(frozenset(self)), tree

    def __hash__(self):
        return self.hash


@_memo
def _read(e):
    """The value (N, D) of e, N / D as the ring reads ``sympy.expand`` of e
    with canonical derivatives and normal kernel arguments, read off the
    tree e.  N is a sum {monomial: c}, a monomial a frozenset of (atom, k)
    and c in QQ; D is the product of its factors {factor: k}, each factor a
    ``_Sum``, empty for a polynomial, so that a sum of quotients is over the
    least common multiple of their factors.  An atom is a Symbol, an
    applied unknown function of symbols or a canonical Derivative of one,
    with k rational; a kernel (``_normal_kernel``), with k rational; exp(t)
    for a direction t, with k rational, standing for exp(k*t); or any other
    node as sympy builds it from normal arguments (``_built``), read again
    if that is another node: b**k, k rational, as the atom b, and u**lam,
    |x|, I, pi and Int(...) as themselves.  A product's atoms and one-term
    factors multiply into one monomial.  Non-finite input (zoo, nan, oo,
    0**-k) raises ``DivisionByZero``.  Cached, since the engine reads the
    same normal forms again and again; no caller changes a value."""
    if e.is_Add:
        return _plus([_read(f) for f in e.args])
    if e.is_Mul:
        c, monomial, num, den = sp.S.One, {}, _ONE, {}
        for f in e.args:
            if f.is_Rational:
                c = f if c is sp.S.One else c * f
                continue
            base, k = f.args if f.is_Pow else (f, 1)
            if base.is_Symbol and (k == 1 or k.is_Integer and k.p > 0):
                monomial[base] = monomial[base] + int(k) if base in monomial else int(k)
                continue
            n, d = value = _read(f)
            if len(n) == 1 and not d:
                (m, q), = n.items()
                if q is QQ.one:
                    for g, k in m:
                        monomial[g] = monomial[g] + k if g in monomial else k
                    continue
            num, den = _product((num, den), value)
        m = frozenset((g, k) for g, k in monomial.items() if k)
        return _times(num, {m: QQ.dtype(c.p, c.q)}), den
    if e.is_Pow and e.exp.is_Rational:
        if e.exp.is_Integer:
            return _power(_read(e.base), int(e.exp))
        num, den = _read(e.base)
        if not den and len(num) == 1 and len(m := next(iter(num))) == 1 and num[m] == 1:
            (g, j), = m     # a rational power of one atom
            if type(g) is sp.exp or j == 1 and isinstance(g, _GENERATORS):
                return {frozenset({(g, j * e.exp)}): QQ.one}, {}
    if e.is_Rational:
        return {frozenset(): QQ(e.p, e.q)}, {}
    e, f = (e.canonical, e.expr) if isinstance(e, sp.Derivative) else (e, e)
    if e.is_Symbol or isinstance(f, AppliedUndef) and all(a.is_Symbol for a in f.args):
        return {frozenset({(e, 1)}): QQ.one}, {}
    if e is sp.E:
        e = _E
    if isinstance(e, KERNEL_CLASSES):
        return _normal_kernel(e)[1]
    if e in (sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZero("division by zero")
    n = sp.Pow(_built(e.base), e.exp) if e.is_Pow else e.func(
        *(normalize(a) if isinstance(a, sp.Expr) else a for a in e.args)) if e.args else e
    if n != e:
        return _read(n)
    return {frozenset({(n.base, n.exp) if n.is_Pow and n.exp.is_Rational else (n, 1)}): QQ.one}, {}


def _built(e):
    """e as sympy builds it from normal forms, products and integer powers
    rebuilt from their factors: ((x + u)**2)**(1/2) is |u + x|."""
    if e.is_Mul or e.is_Pow and e.exp.is_Integer:
        return e.func(*map(_built, e.args))
    return normalize(e)


def _power(value, k):
    """A ``_read`` value N / D to the integer power k, (N / D)**-1 being
    D / N with N one factor; 0**k with k < 0 raises ``DivisionByZero``."""
    num, den = value
    if k < 0:
        if not any(num.values()):
            raise DivisionByZero("division by zero")
        num, den, k = _scaled(_ONE, {}, den), {_Sum(num): 1}, -k
    return reduce(_times, [num] * k, _ONE), {f: j * k for f, j in den.items() if k}


def _laurent(num, den):
    """N / D as one sum, with negative exponents, when each factor of D is
    one term; else None."""
    if any(len(f) != 1 for f in den):
        return None
    return reduce(_times, [{frozenset((g, -i * j) for g, i in m): 1 / c ** j}
                           for f, j in den.items() for m, c in f.items()], num)


def normalize(e):
    """Canonical form: the expanded sum over symbols and kernels, or a
    quotient of two in lowest terms; a rational normal form otherwise.

    Kernel arguments are normalized first; sympy's construction rules
    apply the parity of sin/cos/sinh/cosh and write exp(u)*exp(-u/2) as
    exp(u/2), and exp(a + b) and logs are split as ``sympy.expand`` splits
    them: symbols are real, so log(4*x1*x2) is log(x1*x2) + 2*log(2).  No
    Pythagorean or other identity rewriting takes place.  The form is
    idempotent and exact:

    - A polynomial with no negative exponent, or one term, is the expanded
      sum, as ``sympy.cancel`` would return it.
    - A sum N with negative exponents is N*S / S, ``sympy.cancel``'s form,
      with S the smallest monomial that clears them times the lcm of the
      coefficients' denominators.  Each direction t of an exponential
      exp(c*t) counts as one generator, so ``sympy.cancel``, which reads
      exp(t) and exp(t/2) as unrelated, can shift further:
      a*exp(-u/2) + b*exp(-3*u/2) + x is
      (a*exp(u) + b + x*exp(3*u/2))*exp(-3*u/2) here and
      (a*exp(3*u/2) + b*exp(u/2) + x*exp(2*u))*exp(-2*u) there.
    - A quotient (N, D) is ``_as_expr(N, D)``, ``sympy.cancel``'s form of
      a rational function such as 1/(1 + u); N over a one-term D is the
      sum N/D.
    - x**(p/q) for an atom x is read over the generator x**(1/d), so a
      quotient cancels further than ``sympy.cancel``, which reads u and
      sqrt(u) as unrelated: (u - 1)/(sqrt(u) - 1) is sqrt(u) + 1.

    The value is read off the input tree (``_read``), multiplied out in QQ
    and converted once, with no ``sympy.expand`` or ``sympy.cancel``;
    exp(c*x + c0) with c0 rational reads as exp(c0)*exp(c*x).
    ``derive``, ``sum_of_products`` and ``_substitute`` return this form
    of the values they compute.
    """
    e = sp.sympify(e)
    return _normal_form(e, _read(e))


def _normal_form(e, value):
    """``normalize(e)`` given ``_read(e)``, e itself when it is normal; the
    form of the value for e None.  A value without a denominator is built
    at once (``_tree``), with no ring, N*S/S as one term with P = N*S a
    factor; so is a quotient that cancels without one (see the module
    docstring), and any other in its sparse ring."""
    num, den = value
    if den and not any(num.values()):
        num, den = {}, {}
    # N over a one-term D is a Laurent sum, and without exp atoms or rational
    # exponents a one-term N over a D without monomial content cancels (_over_sum)
    if den and (laurent := _laurent(num, den)) is not None:
        num, den = laurent, {}
    if _plain((num, den)) or not den and sum(map(bool, num.values())) == 1:
        # a polynomial, or one term with negative exponents, as it stands
        out = _tree(tuple((m, QQ.to_sympy(c)) for m, c in num.items() if c))
    elif any(map(_evaluates, (m for f in (num, *den) for m in f))):
        # sympy builds a power of an opaque atom as another node: read its tree
        out = normalize(sp.Mul(*[_tree(tuple((m, QQ.to_sympy(c)) for m, c in f.items())) ** j
                                 for f, j in [(num, 1), *((f, -k) for f, k in den.items())]]))
    elif den:
        exps = any(type(g) is sp.exp or d != 1 for g, d in _atoms([value]).items())
        out = not exps and _over_sum(num, den) or _as_expr(*_ring_elements([value])[0])
    else:
        # N*S / S for negative exponents, S = L*prod g**s_g with least shifts
        # s_g and L the lcm of the denominators: coprime, as PolyElement.cancel
        # finds; P / S is the term P/L*prod g**-s_g, P = N*S a sum of 2 terms or more
        shift = {}
        for m, c in num.items():
            shift.update((g, -k) for g, k in m if c and k < -shift.get(g, 0))
        lcm = QQ(reduce(ilcm, (c.denominator for c in num.values())))
        p = _normal_form(None, (_times(num, {frozenset(shift.items()): lcm}), {}))
        s = _tree(((tuple((g, -k) for g, k in shift.items()), QQ.to_sympy(1 / lcm)),))
        out = sp.Mul._from_args(sorted([*sp.Mul.make_args(s), p], key=_args_sortkey), True)
    return e if e is not None and out == e else out


@_memo
def _form(e):
    """The form of ``_read(e)``: the value with N and D ``_Sum``s, N keeping e."""
    num, den = _read(e)
    return _Sum(num, e), _Sum(den)


def _boundary(form):
    """The normal form of a form's value: e for ``_form(e)``, else the tree of
    a value step, built only where a tree is asked for (``_step_tree``)."""
    return _step_tree(form) if form[0].tree is None else form[0].tree


@_memo
def _step_tree(form):
    """The normal form of a form's value, built once per form."""
    return _normal_form(None, form)


def _normal(value):
    """The form of ``_read(_normal_form(None, value))``, built on the value
    where its normal form is a sum or N*S/S: the terms but 0, each negative
    integer power g**-s of an atom other than exp(t), the largest, moved to
    D as the one-term factor g to the power s, as ``_read`` reads a power
    g**-s; 0 is the term 0.  Read off the normal form for a quotient, a
    negative power of an opaque atom or a power that sympy evaluates."""
    num, den = value
    if den and (laurent := _laurent(num, den)) is not None:
        num, den = laurent, {}
    terms = {m: c for m, c in num.items() if c}
    if den and terms or any(map(_evaluates, terms)) or any(
            k < 0 and not isinstance(g, _READ_ATOMS) for m in terms for g, k in m):
        return _form(_normal_form(None, value))
    shift = {}
    for m in terms:
        shift.update((g, -k) for g, k in m if k < -shift.get(g, 0) and type(g) is not sp.exp)
    shift = {g: int(s) for g, s in shift.items() if s == int(s)}
    if shift:
        terms = _times(terms, {frozenset(shift.items()): QQ.one})
    return (_Sum(terms or {frozenset(): QQ.zero}),
            _Sum({_Sum({frozenset({(g, 1)}): QQ.one}): s for g, s in shift.items()}))


@_memo
def _difference(a, b):
    """The form of a - b for forms a and b."""
    m, e = b
    return _normal(_plus([a, ({k: -c for k, c in m.items()}, e)]))


def diff(e, s, ws=None):
    """Partial derivative, jet coordinates as independent symbols: ``derive`` with s -> 1."""
    if ws is not None and ws.kind(s) is None and not (
            isinstance(s, sp.Symbol) and s in sp.sympify(e).free_symbols):
        raise UnknownSymbol(str(s))
    return derive(e, {s: sp.S.One})


def substitute(e, bindings):
    """Simultaneous substitution of symbols or applied unknown functions,
    pending formal derivatives evaluated, then normalization (``_substitute``);
    a value that mentions a key raises ``CyclicBinding``."""
    bindings = tuple((sp.sympify(k), sp.sympify(v)) for k, v in bindings.items())
    for _, v in bindings:
        if v.has(*(k for k, _ in bindings)):
            raise CyclicBinding(f"replacement {v} mentions a bound symbol")
    return _substitute(sp.sympify(e), bindings)


def _substitute(e, bindings):
    """normalize(e.xreplace(dict(bindings))), Derivatives evaluated: the
    normal form of ``_substitution`` on the forms of e and the values."""
    return _boundary(_substitution(_form(e), tuple((k, _form(v)) for k, v in bindings)))


@_memo
def _substitution(form, bindings):
    """The form of the one substitution, of (key, form) pairs at once, keys
    symbols or applied unknown functions, on a form's value N / D.  An atom
    power g**k becomes the value of g to the power k where g is a key
    (``_power``; sympy's g**k, read, for k not an integer), and where g meets
    one (a kernel, an exponential, a Derivative of a bound function) its own
    one-atom tree, substituted and read back; N and each factor of D are
    mapped so (``_mapped``).  A factor of D that maps to 0 raises
    ``DivisionByZero``."""
    (num, den), bound = form, _Sum(bindings)
    image = lambda g, k: _bound_image(g, k, bound)
    return _normal(reduce(_product, [_mapped(num, image), *(
        _power(_mapped(d, image), -k) for d, k in den.items())]))


@_memo
def _bound_image(g, k, bound):
    """The value of the atom power g**k under the bindings {key: form}, once
    per atom power and bindings for all the residuals substituted; a bound
    tree is built only for an xreplace or a rational power."""
    if g in bound:
        return _power(bound[g], k) if type(k) is int else _read(
            sp.Pow(_boundary(bound[g]), k))
    if not g.is_Symbol and g.has(*bound):
        return _read(monomial_expr({g: k}).xreplace(
            {s: _boundary(v) for s, v in bound.items() if g.has(s)}).replace(
            lambda n: isinstance(n, sp.Derivative), lambda n: n.doit()))
    return {frozenset({(g, k)}): QQ.one}, {}


# ---------------------------------------------------------------------------
# sampling and interval certificates
# ---------------------------------------------------------------------------

def evaluate_at(e, point):
    """Float value to 40 digits, for test oracles; ValueError when not finite/real."""
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
        point = {s: sp.Rational(rng.randint(-12, 12), rng.randint(1, 12)) for s in syms}
        try:
            value = evaluate(point)
        except (ValueError, TypeError, ZeroDivisionError):
            continue
        yield point, value


ZERO_SAMPLES = 8   # accepted points at which a residual with free symbols is enclosed
# the precision ladder, on private interval contexts whose precision never changes
_LADDER = tuple((bits, MPIntervalContext()) for bits in (53, 212, 848))
for _bits, _ctx in _LADDER:
    _ctx.prec = _bits


def _program(e):
    """e as a straight-line program: its distinct subterms, each after its
    operands, as (node, operand indices); the last is e."""
    index = {}
    for node in sp.postorder_traversal(e):
        index.setdefault(node, len(index))
    return [(node, tuple(index[a] for a in node.args)) for node in index]


def _enclose(program, point, ctx):
    """An interval, in ctx's precision, that holds the value of a
    ``_program`` at an exact-rational point.  Raises ValueError where an
    interval leaves the real domain (log or a non-integer power of one that
    reaches 0, division by one that holds 0) and on a node it cannot
    enclose."""
    values = []
    for node, args in program:
        a = [values[i] for i in args]
        if node.is_Rational or node.is_Symbol:
            r = point.get(node, node)
            v = ctx.mpf(r.p) / r.q
        elif node.is_Add or node.is_Mul:
            v = reduce(operator.add if node.is_Add else operator.mul, a)
        elif node.is_Pow and node.exp.is_Integer:
            if node.exp < 0 and 0 in a[0]:
                raise ValueError("division by an interval that contains 0")
            v = a[0] ** int(node.exp)
        elif node.is_Pow or type(node) is sp.log:
            if not a[0] > 0:
                raise ValueError(f"{node}: log of an interval that reaches 0")
            v = ctx.ln(a[0]) if type(node) is sp.log else ctx.exp(a[1] * ctx.ln(a[0]))
        elif node is sp.E:
            v = ctx.exp(ctx.one)
        elif type(node) in (sp.exp, sp.sin, sp.cos):
            v = getattr(ctx, type(node).__name__)(a[0])
        elif type(node) in (sp.sinh, sp.cosh):
            p, m = ctx.exp(a[0]), ctx.exp(-a[0])
            v = (p + m if type(node) is sp.cosh else p - m) / 2
        else:
            raise ValueError(f"no enclosure of {node}")
        values.append(v)
    return values[-1]


def zero_verdict(e, seed=None):
    """Three-valued zero test of the normal form n of e.

    Zero, structural, when n is 0.  Unknown, opaque, when n holds an unknown
    function, a Derivative or an Integral; the first is the witness.  The
    factors of n but its negative powers and exponentials are read in the
    ring and sin, cos, sinh and cosh rewritten through Euler's formula
    (``euler``): Zero, structural, when that is 0, and NonZero, structural,
    when it is not and its atoms are algebraically independent
    (``_independent``).  Then logs are read as sums of log|p|
    (``_log_read``): an image 0 is Zero, structural, witness the first point
    from ``sample_points`` where n's 53-bit enclosure succeeds (n is real
    there, each log argument > 0), else Unknown, sampling-blocked.  A
    constant is NonZero, structural, when its value to 40 significant digits
    is not 0.  Any other n -- a nonzero log read, a direction that is no
    monomial, an opaque atom -- is a straight-line program (``_program``)
    enclosed in interval arithmetic (Moore, 1966) at 53, 212 and 848 bits,
    at exact-rational points from ``sample_points``: an interval that
    excludes 0 certifies NonZero (``interval``, witness (point, bits)), a
    point where one leaves the real domain is rejected, and Zero,
    probabilistic, needs 0 in every precision's interval at ``ZERO_SAMPLES``
    accepted points, since no test decides every residual (Richardson,
    1968).  Unknown, sampling-blocked, when none is accepted.
    """
    seed = DEFAULT_SEED if seed is None else seed
    n = normalize(e)
    if n is sp.S.Zero or n == 0:
        return ZeroResult(ZeroVerdict.ZERO, "structural", seed=seed)
    opaque = next((s for s in sp.preorder_traversal(n)
                   if isinstance(s, (AppliedUndef, sp.Derivative, sp.Integral))), None)
    if opaque is not None:
        return ZeroResult(ZeroVerdict.UNKNOWN, "opaque", witness=opaque, seed=seed)
    syms = sorted(n.free_symbols, key=lambda s: s.name)
    # negative powers and exponentials are nonzero where n is defined, so n
    # is 0 exactly when the numerator of the other factors is
    value = _read(sp.Mul(*[f for f in sp.Mul.make_args(n) if not (
        type(f) is sp.exp or f.is_Pow and f.exp.could_extract_minus_sign())]))
    terms, cancels = euler(value[0]), False
    if not terms:
        return ZeroResult(ZeroVerdict.ZERO, "structural", seed=seed)
    if _independent(g for m in terms for g, _ in m):
        return ZeroResult(ZeroVerdict.NONZERO, "structural", seed=seed)
    # exp(t/d) per direction t, d the lcm over all logs, so that their factors meet
    gens = [(h, d) for h, d in _atoms([_read(g.args[0]) for m in terms for g, _ in m
                                       if type(g) is sp.log]).items() if type(h) is sp.exp]
    try:
        read, _ = _mapped(terms, lambda g, k: (_log_read(g, k, *gens), {}))
        cancels = not any(read.values())
    except (BasePolynomialError, NotImplementedError, AttributeError):
        pass   # factorrat raises AttributeError on irrational content
    if not cancels and not n.free_symbols:
        # decided by its value to 40 significant digits, however small;
        # none settles a constant such as sin(pi/7)**2 + cos(pi/7)**2 - 1
        try:
            if n.evalf(40, strict=True) != 0:
                return ZeroResult(ZeroVerdict.NONZERO, "structural", seed=seed)
        except PrecisionExhausted:
            pass
        return ZeroResult(ZeroVerdict.ZERO, "probabilistic", seed=seed)
    program = _program(n)

    def certify(point):
        """The first precision whose enclosure excludes 0, else None; 53 bits
        only for a cancelled log read, whose first accepted point is its witness."""
        return next((bits for bits, ctx in (_LADDER[:1] if cancels else _LADDER)
                     if (v := _enclose(program, point, ctx)) > 0 or v < 0), None)

    point = None
    for point, bits in islice(sample_points(syms, random.Random(seed), certify,
                                            ZERO_SAMPLES * 40), ZERO_SAMPLES):
        if cancels:
            return ZeroResult(ZeroVerdict.ZERO, "structural", witness=point, seed=seed)
        if bits is not None:
            return ZeroResult(ZeroVerdict.NONZERO, "interval", witness=(point, bits), seed=seed)
    if point is None:
        return ZeroResult(ZeroVerdict.UNKNOWN, "sampling-blocked", seed=seed)
    return ZeroResult(ZeroVerdict.ZERO, "probabilistic", seed=seed)


def is_zero(e, seed=None):
    return zero_verdict(e, seed=seed).verdict


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

class Elimination:
    """Gauss-Jordan elimination of a matrix of normal forms over the field
    ``ring.to_domain().get_field()`` of the ring of ``_ring_elements`` on
    the entries' ``_read`` values.

    Column by column, except the last ``carried``, the pivot is the first
    nonzero entry, in input order, of a row without one: the ring decides
    when its numerator's atoms are read and ``_independent``, else the zero
    test, whose Unknown raises ``PreconditionFailed``.  Carried columns come
    out as combinations of the pivot columns (``solution``).  Pivot k is
    (``rows[k]``, ``cols[k]``); a pivot the ring decides is not normalized.
    """

    def __init__(self, matrix, carried=0, seed=None):
        entries = [sp.sympify(e) for row in matrix for e in row]
        elements = _ring_elements([_read(e) for e in entries])
        ring = elements[0][0].ring
        field = ring.to_domain().get_field().field

        def nonzero(v):
            atoms = {g for monom in v.numer.monoms() for g, k in zip(ring.symbols, monom) if k}
            if not v or _independent(atoms):
                return bool(v)
            # the rank is generic in the unknown functions too: the zero test
            # reads each of their atoms as one more symbol
            n = v.numer.as_expr()
            fresh = {g: sp.Symbol(str(g), real=True) for g in n.atoms(AppliedUndef, sp.Derivative)}
            verdict = zero_verdict(n.xreplace(fresh), seed=seed).verdict
            if verdict is ZeroVerdict.UNKNOWN:
                raise PreconditionFailed("decidable pivot", f"the zero test cannot decide {n}")
            return verdict is ZeroVerdict.NONZERO

        elements = iter(elements)
        self._m = m = [[field.new(*map(ring, next(elements))) for _ in row] for row in matrix]
        self.rows, self.cols, self._minors = [], [], [field.one]
        for c in range(len(matrix[0]) - carried):
            r = next((i for i in range(len(m)) if i not in self.rows and nonzero(m[i][c])), None)
            if r is None:
                continue
            pivot = m[r][c]
            m[r] = [v / pivot for v in m[r]]
            for i, row in enumerate(m):
                if i != r and row[c]:
                    m[i] = [a - row[c] * b for a, b in zip(row, m[r])]
            self.rows.append(r)
            self.cols.append(c)
            self._minors.append(self._minors[-1] * pivot)

    def minor(self, k):
        """The normalized determinant of the first k pivots' rows and
        columns, both ascending."""
        det = self._minors[k]
        if sum(a > b for a, b in combinations(self.rows[:k], 2)) % 2:
            det = -det
        return normalize(det.as_expr())

    def solution(self, c):
        """Column c, which holds no pivot, as a combination of the pivot
        columns: its coefficients, in pivot order, which match it on the
        pivot rows, and the residual (combination minus column) on each
        other row, ascending; normalized."""
        return ([normalize(self._m[r][c].as_expr()) for r in self.rows],
                [normalize((-row[c]).as_expr()) for i, row in enumerate(self._m)
                 if i not in self.rows])
