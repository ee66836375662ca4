"""Ansatz families and collection of coefficients against a family basis.

A family fixes the u-dependence allowed on the right-hand sides of the
differential constraints: polynomials in the dependent variables,
half-integer exponentials exp(k*u/2), trigonometric combinations
1/sin(n*u)/cos(n*u), or integer exponentials exp(k*u) (the hyperbolic
basis in exponential form).  Families are closed under d/du, products,
and linear combinations, which is what makes coefficient collection of
the determining equations possible.  Collection and the closure check
split a normal form into QQ coefficients times x-monomials times
u-monomials with the one x/u splitter (``algebra.split_monomials``), and
collection sums the coefficients over x-monomials per key.  A product of
sin and cos, or of sinh, cosh and exp, goes to the basis through Euler's
formula (``algebra.euler``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp
from sympy.polys.domains import QQ, QQ_I

from .algebra import (_memo, derive, euler, monomial_expr, normal_forms, normalize,
                      split_monomials)
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
        """The key of a u-monomial {atom: k} as ``algebra.split_monomials`` reads it,
        or None when it is no single element of the family closure, such as
        sqrt(u) in the polynomial family; a trigonometric family reads its
        monomials through ``_fourier``."""
        if self.kind == POLYNOMIAL:
            if monomial.keys() <= set(deps) and all(k == int(k) for k in monomial.values()):
                return tuple(monomial.get(d, 0) for d in deps)
            return None
        den = 2 if self.kind == EXPONENTIAL else 1
        key = [0] * len(deps)
        for g, k in monomial.items():
            if type(g) is not sp.exp or g.args[0] not in deps or not (k * den).is_Integer:
                return None
            key[deps.index(g.args[0])] = int(k * den)
        return tuple(key)


@_memo
def _family_read(u, family, deps):
    """[(r, key)], r in QQ, with sum r * basis element = the u-monomial u, a
    frozenset of (atom, k); NotInFamily when there is none.  Read once per
    u-monomial, family and deps.  A u-monomial that is no single basis
    element is rewritten through Euler's formula (``algebra.euler``): sinh
    and cosh into exponentials of u, and sin and cos into powers of
    exp(i*u), which ``_fourier`` reads.  A u-part outside the ring, which
    ``split_monomials`` keeps as one atom, has no key."""
    trigonometric = family.kind == TRIGONOMETRIC
    if not trigonometric and (key := family.key(dict(u), deps)) is not None:
        return [(QQ.one, key)]
    terms = euler({u: QQ.one})
    terms = (_fourier(terms, deps[0]) if trigonometric
             else {family.key(dict(m), deps): c for m, c in terms.items()})
    out = [(c.x, key) for key, c in terms.items() for c in [QQ_I.convert(c)]
           if key is not None and not c.y]
    if len(out) < len(terms):
        raise NotInFamily(monomial_expr(dict(u)), family.kind)
    return out


def _fourier(terms, u):
    """{key: c} of a sum over E = exp(i*u), where c*E**n is
    c*cos(n*u) + i*c*sin(n*u); {None: 1} when a term holds another atom or a
    power of E that is not an integer."""
    E, out = sp.exp(sp.I * u), {}
    for m, c in terms.items():
        n = sp.S(dict(m).get(E, 0))
        if not (m <= {(E, n)} and n.is_Integer):
            return {None: 1}
        k = abs(int(n))
        for key, r in ([(("one", 0), c)] if n == 0 else
                       [(("cos", k), c), (("sin", k), c * QQ_I(0, 1 if n > 0 else -1))]):
            out[key] = out[key] + r if key in out else r
    return {key: c for key, c in out.items() if c}


def collect_family(e, family, deps):
    """Write e = sum coeff(m) * m over the family basis monomials.

    ``e`` must be a normal form (the output of ``normalize`` or of an engine
    operation), or the form of its value (``algebra._form``), which is not
    normalized again here.  Each u-monomial of its ``split_monomials`` terms
    is read into family keys (``_family_read``), the QQ coefficients are
    summed over x-monomials per key, and the sums are built together
    (``normal_forms``), in ``default_sort_key`` order of the basis
    monomials.  A u-monomial that cannot be matched raises NotInFamily.
    """
    deps, acc = tuple(deps), {}
    for c, x, monomial in split_monomials(e if type(e) is tuple else sp.sympify(e), deps):
        for r, key in _family_read(frozenset(monomial.items()), family, deps):
            group = acc.setdefault(key, {})
            group[x] = group[x] + r * c if x in group else r * c
    return dict(sorted(((family.monomial(key, deps), coeff) for key, coeff
                        in zip(acc, normal_forms(acc.values())) if coeff != 0),
                       key=lambda kv: sp.default_sort_key(kv[0])))


def check_closure(basis, deps):
    """Verify a custom basis is closed under d/du with constant coefficients."""
    deps = tuple(deps)
    basis = [normalize(b) for b in basis]
    span = set(basis)
    for b in basis:
        for d in deps:
            for c, x, monomial in split_monomials(derive(b, {d: 1}), deps):
                term = QQ.to_sympy(c) * monomial_expr(dict(x))
                if x:
                    raise FamilyNotClosed(
                        f"d/d{d} of {b} produced non-constant coefficient {term}")
                mono = monomial_expr(monomial)
                if normalize(mono) not in span:
                    raise FamilyNotClosed(
                        f"d/d{d} of {b} leaves the basis span (term {term * mono})")
    return True
