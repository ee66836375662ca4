"""Core expression operations: normalize, diff, substitute, zero-testing.

Expressions are sympy objects built over workspace symbols; this module
pins down the canonical form and the engine-wide three-valued zero test.
Exact rational arithmetic throughout; floats only appear inside the
numerical sampling fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.polyerrors import PolynomialError

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


def _is_plain_polynomial(e):
    """True for a sum of terms Rational * prod g**k, with each generator g a
    Symbol, applied unknown function or Derivative and each k a positive
    Integer."""
    for term in sp.Add.make_args(e):
        for f in sp.Mul.make_args(term):
            if f.is_Pow:
                f, k = f.base, f.exp
                if not (k.is_Integer and k > 0):
                    return False
            if not (f.is_Rational or isinstance(f, _GENERATORS)):
                return False
    return True


def normalize(e):
    """Canonical form: expanded rational normal form over symbols and kernels.

    Idempotent; exact; kernels with structurally equal arguments merge by
    exponent addition (exp) and parity (sin/cos/sinh/cosh are handled by
    the construction rules themselves).  No Pythagorean or other identity
    rewriting takes place.

    ``sympy.cancel`` runs only when the expanded form is not a plain
    polynomial (see ``_is_plain_polynomial``).  On a plain polynomial it
    would return the content times the expanded numerator over the
    denominator 1, which is the expanded form itself, so skipping it
    changes nothing.  Kernels, negative powers and symbolic powers still
    go through it.
    """
    e = sp.sympify(e)
    if e.has(*_BAD_CONSTANTS):
        raise DivisionByZero(f"undefined constant while normalizing {e}")
    e = _canonical_derivatives(e)
    e = _normalize_kernel_args(e)
    e = sp.expand(e)
    e = _merge_exp_factors(e)
    e = sp.expand(e)
    if not _is_plain_polynomial(e):
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


def zero_verdict(e, seed=None, samples=8, tol=1e-9):
    """Three-valued zero test.

    Zero when the normal form is literally 0 (structural) or the residual
    vanishes at ``samples`` random exact-rational points within relative
    tolerance (probabilistic).  NonZero on a witness point; Unknown when
    opaque unknown functions block sampling.
    """
    seed = DEFAULT_SEED if seed is None else seed
    n = normalize(e)
    if n is sp.S.Zero or n == 0:
        return ZeroResult(ZeroVerdict.ZERO, "structural", seed=seed)
    if n.has(AppliedUndef, sp.Derivative, sp.Integral):
        return ZeroResult(ZeroVerdict.UNKNOWN, "opaque", seed=seed)
    if not n.free_symbols:
        value = evaluate_at(n, {})
        if abs(value) > tol:
            return ZeroResult(ZeroVerdict.NONZERO, "structural", seed=seed)
        return ZeroResult(ZeroVerdict.ZERO, "probabilistic", seed=seed)
    syms = sorted(n.free_symbols, key=lambda s: s.name)
    points = sample_points(syms, random.Random(seed),
                           lambda point: evaluate_at(n, point), samples * 40)
    terms = sp.Add.make_args(n)
    checked = 0
    for point, value in islice(points, samples):
        try:
            scale = max(abs(evaluate_at(t, point)) for t in terms)
        except (ValueError, TypeError, ZeroDivisionError):
            scale = 1.0
        if abs(value) > tol * max(1.0, scale):
            return ZeroResult(ZeroVerdict.NONZERO, "probabilistic",
                              witness=point, seed=seed)
        checked += 1
    if checked == 0:
        return ZeroResult(ZeroVerdict.UNKNOWN, "sampling-blocked", seed=seed)
    return ZeroResult(ZeroVerdict.ZERO, "probabilistic", seed=seed)


def is_zero(e, seed=None, samples=8, tol=1e-9):
    return zero_verdict(e, seed=seed, samples=samples, tol=tol).verdict


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

