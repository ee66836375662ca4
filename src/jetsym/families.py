"""Ansatz families and collection of coefficients against a family basis.

A family fixes the u-dependence allowed on the right-hand sides of the
differential constraints: polynomials in the dependent variables,
half-integer exponentials exp(k*u/2), trigonometric combinations
1/sin(n*u)/cos(n*u), or integer exponentials exp(k*u) (the hyperbolic
basis in exponential form).  Families are closed under d/du, products,
and linear combinations, which is what makes coefficient collection of
the determining equations possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp

from .algebra import normalize
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
    """

    kind: str
    bound: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.bound < 0:
            raise ValueError("family bound must be non-negative")

    def basis(self, deps):
        deps = tuple(deps)
        q = len(deps)
        if self.kind == POLYNOMIAL:
            keys = [k for k in itertools.product(range(self.bound + 1), repeat=q)
                    if sum(k) <= self.bound]
        elif self.kind == EXPONENTIAL:
            keys = list(itertools.product(range(-self.bound, self.bound + 1), repeat=q))
        elif self.kind == HYPERBOLIC:
            keys = list(itertools.product(range(-self.bound, self.bound + 1), repeat=q))
        else:
            if q != 1:
                raise ValueError("trigonometric families support a single dependent variable")
            keys = [("one", 0)] + [(f, n) for n in range(1, self.bound + 1)
                                   for f in ("cos", "sin")]
            return tuple(self.monomial(k, deps) for k in keys)
        keys.sort()
        return tuple(self.monomial(k, deps) for k in keys)

    def monomial(self, key, deps):
        deps = tuple(deps)
        if self.kind == POLYNOMIAL:
            return sp.Mul(*[d ** k for d, k in zip(deps, key)])
        if self.kind == EXPONENTIAL:
            return sp.exp(sp.Add(*[sp.Rational(k, 2) * d for d, k in zip(deps, key)]))
        if self.kind == HYPERBOLIC:
            return sp.exp(sp.Add(*[k * d for d, k in zip(deps, key)]))
        head, n = key
        if head == "one":
            return sp.Integer(1)
        return {"sin": sp.sin, "cos": sp.cos}[head](n * deps[0])

    def term_key(self, m, deps):
        """Family key of a pure u-monomial, or None when outside the closure."""
        deps = tuple(deps)
        m = sp.sympify(m)
        if self.kind == POLYNOMIAL:
            powers = m.as_powers_dict()
            key = [0] * len(deps)
            for base, ex in powers.items():
                if base == 1:
                    continue
                if base not in deps or not (ex.is_Integer and ex >= 0):
                    return None
                key[deps.index(base)] = int(ex)
            return tuple(key)
        if self.kind in (EXPONENTIAL, HYPERBOLIC):
            den = 2 if self.kind == EXPONENTIAL else 1
            total = sp.Integer(0)
            for base, ex in m.as_powers_dict().items():
                if base == 1:
                    continue
                if base is sp.S.Exp1:
                    total += ex
                elif isinstance(base, sp.exp):
                    total += base.args[0] * ex
                else:
                    return None
            total = sp.expand(total)
            key = []
            rest = total
            for d in deps:
                r = total.coeff(d, 1)
                if not (r * den).is_Integer:
                    return None
                key.append(int(r * den))
                rest -= r * d
            if sp.expand(rest) != 0:
                return None
            return tuple(key)
        # trigonometric
        if m == 1:
            return ("one", 0)
        if isinstance(m, (sp.sin, sp.cos)):
            arg = sp.expand(m.args[0])
            n = sp.cancel(arg / deps[0])
            if n.is_Integer and n > 0:
                return (type(m).__name__, int(n))
        return None


def _rewrite_for_family(e, family, deps):
    if family.kind == TRIGONOMETRIC:
        from sympy.simplify.fu import TR8
        return sp.expand(TR8(sp.expand(e)))
    if family.kind == HYPERBOLIC:
        e = e.replace(sp.sinh, lambda a: (sp.exp(a) - sp.exp(-a)) / 2)
        e = e.replace(sp.cosh, lambda a: (sp.exp(a) + sp.exp(-a)) / 2)
    return e


def collect_family(e, family, deps):
    """Write e = sum coeff(m) * m over the family basis monomials.

    ``e`` must be a normal form (the output of ``normalize`` or of an engine
    operation), which is not normalized again here.  Coefficients are
    normalized and free of the dependent variables; a term that cannot be
    matched raises NotInFamily with the offending residue.
    """
    deps = tuple(deps)
    e = sp.expand(_rewrite_for_family(e, family, deps))
    if e == 0:
        return {}
    acc = {}
    for term in sp.Add.make_args(e):
        coeff, mono = term.as_independent(*deps, as_Add=False)
        key = family.term_key(mono, deps)
        if key is None:
            raise NotInFamily(term, family.kind)
        acc[key] = acc.get(key, sp.Integer(0)) + coeff
    out = {}
    for key, coeff in acc.items():
        coeff = normalize(coeff)
        if coeff == 0:
            continue
        if coeff.free_symbols & set(deps):
            raise NotInFamily(coeff, family.kind)
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
