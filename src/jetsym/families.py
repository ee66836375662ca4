"""Ansatz families and collection of coefficients against a family basis.

A family fixes the u-dependence allowed on the right-hand sides of the
differential constraints: polynomials in the dependent variables,
half-integer exponentials exp(k*u/2), trigonometric combinations
1/sin(n*u)/cos(n*u), or integer exponentials exp(k*u) (the hyperbolic
basis in exponential form).  Families are closed under d/du, products,
and linear combinations, which is what makes coefficient collection of
the determining equations possible.  Collection reads the terms of a
normal form as the ring of ``algebra`` does (``algebra._terms``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp
from sympy.simplify.fu import TR8

from .algebra import _monomial, _terms, normalize
from .errors import FamilyNotClosed, NotInFamily

POLYNOMIAL = "polynomial"
EXPONENTIAL = "exponential"
TRIGONOMETRIC = "trigonometric"
HYPERBOLIC = "hyperbolic"

_KINDS = (POLYNOMIAL, EXPONENTIAL, TRIGONOMETRIC, HYPERBOLIC)


@dataclass(frozen=True)
class AnsatzFamily:
    """A function family in the dependent variables with a bounded ansatz basis.

    ``bound`` limits the basis used to *build* ansaetze (max total degree,
    max |k| in exp(k*u/2), or max n in sin(n*u)); collection accepts any
    member of the family closure, which products of basis elements produce.
    A basis element's key is its exponents (k_1, ..., k_q) of u, of
    exp(u/2) or of exp(u), or ("one", 0), ("sin", n) or ("cos", n).
    """

    kind: str
    bound: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.bound < 0:
            raise ValueError("family bound must be non-negative")

    def keys(self, q):
        """The basis keys, in the order the ansatz names its unknowns."""
        b = self.bound
        if self.kind == POLYNOMIAL:
            return [k for k in itertools.product(range(b + 1), repeat=q) if sum(k) <= b]
        if self.kind == TRIGONOMETRIC:
            if q != 1:
                raise ValueError("trigonometric families support a single dependent variable")
            return [("one", 0)] + [(f, n) for n in range(1, b + 1) for f in ("cos", "sin")]
        return sorted(itertools.product(range(-b, b + 1), repeat=q),
                      key=lambda key: tuple((abs(k), k > 0) for k in key))

    def suffix(self, key):
        """The suffix of the unknown coefficient of the basis element ``key``."""
        if self.kind == POLYNOMIAL:
            return "".join(str(k) for k in key)
        if self.kind == TRIGONOMETRIC:
            return "0" if key[0] == "one" else f"{key[0][0]}{key[1]}"
        # k = 0 -> 0, k = -1 -> 1, k = +1 -> 2, k = -2 -> 3, ...
        return "".join(str(2 * abs(k) - (k < 0)) for k in key)

    def basis(self, deps):
        return tuple(self.monomial(key, deps) for key in self.keys(len(deps)))

    def monomial(self, key, deps):
        if self.kind == POLYNOMIAL:
            return sp.Mul(*[d ** k for d, k in zip(deps, key)])
        if self.kind == TRIGONOMETRIC:
            head, n = key
            return sp.Integer(1) if head == "one" else getattr(sp, head)(n * deps[0])
        den = 2 if self.kind == EXPONENTIAL else 1
        return sp.exp(sp.Add(*[sp.Rational(k, den) * d for d, k in zip(deps, key)]))

    def key(self, monomial, deps):
        """The key of a u-monomial {atom: k} as ``algebra._terms`` reads it,
        or None when it is no single element of the family closure."""
        if self.kind == POLYNOMIAL:
            if monomial.keys() <= set(deps):
                return tuple(monomial.get(d, 0) for d in deps)
            return None
        if self.kind == TRIGONOMETRIC:
            if not monomial:
                return ("one", 0)
            (g, k), *rest = monomial.items()
            if rest or k != 1 or not isinstance(g, (sp.sin, sp.cos)):
                return None
            n = g.args[0] / deps[0]
            return (type(g).__name__, int(n)) if n.is_Integer and n > 0 else None
        den = 2 if self.kind == EXPONENTIAL else 1
        key = [0] * len(deps)
        for g, k in monomial.items():
            if type(g) is not sp.exp or g.args[0] not in deps or not (k * den).is_Integer:
                return None
            key[deps.index(g.args[0])] = int(k * den)
        return tuple(key)


# rewrites a u-monomial that is no single basis element into a sum of them
_REWRITES = {TRIGONOMETRIC: TR8,
             HYPERBOLIC: lambda m: m.rewrite((sp.sinh, sp.cosh), sp.exp)}


def _power(g, k):
    """The ring atom g to the k, where exp(t) stands for exp(k*t)."""
    return sp.exp(k * g.args[0]) if type(g) is sp.exp else g ** k


def _split_terms(e, deps):
    """(x-part, u-monomial {atom: k}) for each term of e, the x-part free of
    deps.  Where the ring cannot read e, its expanded terms are split by
    sympy: an x-part such as 1/(1 + x) is kept, and a u-part outside the ring
    stands as one atom, which no family reads."""
    terms = _terms(e)
    if terms is None:
        for term in sp.Add.make_args(sp.expand(e)):
            x, u = term.as_independent(*deps, as_Add=False)
            c, monomial = _monomial(sp.Mul.make_args(u)) or (1, {u: 1})
            yield c * x, monomial
        return
    for c, monomial in terms:
        u = {g: k for g, k in monomial.items() if not g.free_symbols.isdisjoint(deps)}
        yield c * sp.Mul(*[_power(g, k) for g, k in monomial.items() if g not in u]), u


def _family_terms(monomial, family, deps):
    """[(r, key)] with sum r * basis element = the u-monomial; NotInFamily
    when there is none."""
    key = family.key(monomial, deps)
    if key is not None:
        return [(1, key)]
    m = sp.Mul(*[_power(g, k) for g, k in monomial.items()])
    rewrite = _REWRITES.get(family.kind, lambda expr: expr)
    out = [(c, family.key(u, deps)) for c, u in _terms(sp.expand(rewrite(m))) or ()]
    if not out or any(key is None for _, key in out):
        raise NotInFamily(m, family.kind)
    return out


def collect_family(e, family, deps):
    """Write e = sum coeff(m) * m over the family basis monomials.

    ``e`` must be a normal form (the output of ``normalize`` or of an engine
    operation), which is not normalized again here.  Each distinct
    u-monomial of its terms is read into family keys once, and the x-parts
    are summed per key and normalized.  A u-monomial that cannot be matched
    raises NotInFamily.
    """
    deps = tuple(deps)
    read, acc = {}, {}
    for x, monomial in _split_terms(sp.sympify(e), deps):
        u = frozenset(monomial.items())
        if u not in read:
            read[u] = _family_terms(monomial, family, deps)
        for r, key in read[u]:
            acc.setdefault(key, []).append(r * x)
    out = {}
    for key, parts in acc.items():
        coeff = normalize(sp.Add(*parts))
        if coeff != 0:
            out[family.monomial(key, deps)] = coeff
    return out


def check_closure(basis, deps):
    """Verify a custom basis is closed under d/du with constant coefficients."""
    deps = tuple(deps)
    basis = tuple(sp.sympify(b) for b in basis)
    span = {normalize(b) for b in basis}
    for b in basis:
        for d in deps:
            derived = sp.expand(sp.diff(b, d))
            for term in sp.Add.make_args(derived):
                coeff, mono = term.as_independent(*deps, as_Add=False)
                if not coeff.is_Rational:
                    raise FamilyNotClosed(
                        f"d/d{d} of {b} produced non-constant coefficient {coeff}")
                if mono != 0 and normalize(mono) not in span:
                    raise FamilyNotClosed(
                        f"d/d{d} of {b} leaves the basis span (term {term})")
    return True
