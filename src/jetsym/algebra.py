"""Core expression operations: normalize, diff, substitute, zero-testing.

Expressions are sympy objects built over workspace symbols; this module
pins down the canonical form and the engine-wide three-valued zero test.
Exact rational arithmetic throughout; floats only appear inside the
numerical sampling fallback.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import sympy as sp
from sympy.core.cache import cacheit
from sympy.core.evalf import PrecisionExhausted
from sympy.core.function import AppliedUndef
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


def _merge_exp_factors(e):
    """Exponent-addition rule: combine all exp factors of a product."""

    def fix(m):
        exps, rest = [], []
        for f in m.args:
            if isinstance(f, sp.exp):
                exps.append(f.args[0])
            elif f.is_Pow and f.base is sp.S.Exp1:
                exps.append(f.exp)
            elif f.is_Pow and isinstance(f.base, sp.exp):
                exps.append(f.base.args[0] * f.exp)
            else:
                rest.append(f)
        if len(exps) < 2:
            return m
        combined = sp.exp(sp.expand(sp.Add(*exps)))
        return sp.Mul(*rest) * sp.expand_power_exp(combined)

    return e.replace(lambda x: x.is_Mul, fix)


def _canonical_derivatives(e):
    return e.replace(lambda n: isinstance(n, sp.Derivative), lambda n: n.canonical)


def _normalize_kernel_args(e):
    return e.replace(lambda n: isinstance(n, KERNEL_CLASSES),
                     lambda n: type(n)(normalize(n.args[0])))


_GENERATORS = (sp.Symbol, AppliedUndef, sp.Derivative)


def _plain_terms(e):
    """[(Rational, {g: k})] when e is a plain polynomial -- a sum of terms
    Rational * prod g**k, with each generator g a Symbol, applied unknown
    function or canonical Derivative and each k a positive Integer -- else
    None."""
    out = []
    for term in sp.Add.make_args(e):
        coeff, monomial = sp.S.One, {}
        for f in sp.Mul.make_args(term):
            k = 1
            if f.is_Pow:
                f, k = f.base, f.exp
                if not (k.is_Integer and k > 0):
                    return None
            if f.is_Rational:
                coeff *= f
            elif isinstance(f, _GENERATORS) and not (
                    isinstance(f, sp.Derivative) and f != f.canonical):
                monomial[f] = monomial.get(f, 0) + int(k)
            else:
                return None
        out.append((coeff, monomial))
    return out


def _ring_elements(term_lists):
    """Plain polynomials, given by their ``_plain_terms``, as elements of one
    sparse ring over QQ on their atoms; also each atom's generator index."""
    index = {g: i for i, g in enumerate(dict.fromkeys(
        g for terms in term_lists for _, monomial in terms for g in monomial))}
    ring = PolyRing(tuple(index), QQ)
    elements = []
    for terms in term_lists:
        element = {}
        for coeff, monomial in terms:
            key = [0] * ring.ngens
            for g, k in monomial.items():
                key[index[g]] = k
            key = tuple(key)
            element[key] = element.get(key, QQ.zero) + QQ(coeff.p, coeff.q)
        elements.append(ring.from_dict(element))
    return elements, index


def derive(e, images):
    """X(e) = sum_g de/dg * images[g], normalized: the derivation of the jet
    chart that maps each symbol g in ``images`` to ``images[g]`` and every
    other symbol to 0.  An opaque atom g (an applied unknown function or a
    Derivative of one) follows the chain rule, X(g) = sum_s images[s] dg/ds.

    On plain polynomials (``_plain_terms``) X runs in a sparse ring over QQ
    on their atoms and converts back once; otherwise it is ``sp.diff`` on the
    expression tree, summed and normalized.  Both give the same normal form,
    which sympy's cache keeps, as it keeps ``sp.diff``'s.
    """
    return _derive(sp.sympify(e), tuple(images.items()))


@cacheit
def _derive(e, images):
    images = dict(images)
    terms = _plain_terms(e)
    if terms is not None:
        needed = {}
        for g in dict.fromkeys(g for _, monomial in terms for g in monomial):
            if g in images:
                needed[g] = _plain_terms(sp.sympify(images[g]))
            elif isinstance(g, (AppliedUndef, sp.Derivative)):
                needed[g] = _plain_terms(normalize(sp.Add(
                    *[images[s] * sp.diff(g, s) for s in g.free_symbols if s in images])))
        if all(t is not None for t in needed.values()):
            (element, *values), index = _ring_elements([terms, *needed.values()])
            out = element.ring.zero
            for g, value in zip(needed, values):
                out += element.diff(index[g]) * value
            return out.as_expr()
    return normalize(sp.Add(*[sp.diff(e, s) * v for s, v in images.items()]))


def sum_of_products(pairs):
    """sum a * b over the (a, b) pairs, normalized; in the sparse ring of
    ``derive`` when every factor is a plain polynomial."""
    factors = [sp.sympify(f) for pair in pairs for f in pair]
    term_lists = [_plain_terms(f) for f in factors]
    if None in term_lists:
        return normalize(sp.Add(*[a * b for a, b in pairs]))
    elements, _ = _ring_elements(term_lists)
    return sum(map(operator.mul, elements[::2], elements[1::2]), elements[0].ring.zero).as_expr()


def normalize(e):
    """Canonical form: expanded rational normal form over symbols and kernels.

    Idempotent; exact; kernels with structurally equal arguments merge by
    exponent addition (exp) and parity (sin/cos/sinh/cosh are handled by
    the construction rules themselves).  No Pythagorean or other identity
    rewriting takes place.

    ``sympy.cancel`` runs only when the expanded form is not a plain
    polynomial (see ``_plain_terms``).  On a plain polynomial it would
    return the content times the expanded numerator over the denominator 1,
    which is the expanded form itself, so skipping it changes nothing.
    Kernels, negative powers and symbolic powers still go through it.
    ``derive`` returns this form directly from its sparse ring.
    """
    e = sp.sympify(e)
    if e.has(*_BAD_CONSTANTS):
        raise DivisionByZero(f"undefined constant while normalizing {e}")
    e = _canonical_derivatives(e)
    e = _normalize_kernel_args(e)
    e = sp.expand(e)
    e = _merge_exp_factors(e)
    e = sp.expand(e)
    if _plain_terms(e) is None:
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
        # a nonzero Rational is exact; any other constant is decided by its
        # value to 40 significant digits, however small that value is
        try:
            if n.is_Rational or n.evalf(40, strict=True) != 0:
                return ZeroResult(ZeroVerdict.NONZERO, "structural", seed=seed)
        except PrecisionExhausted:
            pass
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


def proportional(e1, e2):
    """True when e1 = r*e2 for a nonzero rational constant r (or both are 0)."""
    n1, n2 = normalize(e1), normalize(e2)
    if n1 == 0 or n2 == 0:
        return n1 == 0 and n2 == 0
    try:
        r = sp.cancel(n1 / n2)
    except (PolynomialError, NotImplementedError):
        return False
    return r.is_Rational and r != 0

