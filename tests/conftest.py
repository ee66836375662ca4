import random
from itertools import islice

import pytest
import sympy as sp
from hypothesis import settings
from sympy.polys.polyerrors import PolynomialError

from jetsym import Workspace
from jetsym.algebra import evaluate_at, normalize, sample_points, substitute, zero_verdict
from jetsym.jets import NormalFormSystem, VectorField

# every property test draws the same examples on every run; each keeps its
# own max_examples
settings.register_profile("jetsym", derandomize=True, deadline=None, database=None)
settings.load_profile("jetsym")


def same_tree(a, b):
    """a and b node for node: srepr shows each node's class and assumptions
    but prints the arguments of a sum or product in its own order, and ==
    compares them in stored order."""
    return sp.srepr(a) == sp.srepr(b) and a == b


@pytest.fixture
def ws2():
    """p=2, q=1 workspace in the wave-equation style."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    ws.add_parameter("lam")
    return ws


@pytest.fixture
def ws1():
    """p=1, q=1 workspace (ODE-like)."""
    return Workspace(["x"], ["u"], order_cap=3)


@pytest.fixture
def rng():
    return random.Random(20260809)


def random_poly(rng, syms, degree=2, terms=4, span=4):
    """Random sparse polynomial with small rational coefficients."""
    out = sp.Integer(0)
    for _ in range(terms):
        c = sp.Rational(rng.randint(-span, span), rng.randint(1, span))
        if c == 0:
            continue
        mono = sp.Integer(1)
        for s in syms:
            mono *= s ** rng.randint(0, degree)
        out += c * mono
    return out


def random_expr(rng, syms, depth=3):
    """Random expression over syms using +, *, integer powers, and kernels."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.4:
            return rng.choice(list(syms))
        if kind < 0.7:
            return sp.Rational(rng.randint(-5, 5), rng.randint(1, 5))
        return rng.choice(list(syms)) ** rng.randint(1, 3)
    op = rng.random()
    if op < 0.35:
        return random_expr(rng, syms, depth - 1) + random_expr(rng, syms, depth - 1)
    if op < 0.7:
        return random_expr(rng, syms, depth - 1) * random_expr(rng, syms, depth - 1)
    if op < 0.85:
        arg = random_poly(rng, syms, degree=1, terms=2)
        return rng.choice([sp.sin, sp.cos, sp.exp])(arg)
    return random_expr(rng, syms, depth - 1) ** rng.randint(1, 2)


def evaluable_points(e, rng, count):
    """Up to count random points where e evaluates, from the engine's sampler."""
    syms = sorted(e.free_symbols, key=lambda s: s.name)
    draws = sample_points(syms, rng, lambda point: evaluate_at(e, point), count * 40)
    return [point for point, _ in islice(draws, count)]


def add_fields(*fields):
    """The coefficientwise sum of vector fields on one workspace."""
    ws = fields[0].ws
    if any(f.ws is not ws for f in fields):
        raise ValueError("vector fields live on different workspaces")
    return VectorField(ws, tuple(normalize(sp.Add(*es)) for es in zip(*(f.xi for f in fields))),
                       tuple(normalize(sp.Add(*es)) for es in zip(*(f.phi for f in fields))))


def linear_combination(fields, coeffs):
    return add_fields(*(VectorField(f.ws, tuple(normalize(c * e) for e in f.xi),
                                    tuple(normalize(c * e) for e in f.phi))
                        for f, c in zip(fields, coeffs)))


def field_from_strings(ws, xi_texts, phi_texts):
    return VectorField(ws, tuple(ws.parse(t) for t in xi_texts),
                       tuple(ws.parse(t) for t in phi_texts))


def instantiate_ansatz(ansatz, bindings):
    """Substitute concrete coefficient functions; returns the induced normal form."""
    rhs = {key: substitute(e, bindings) for key, e in ansatz.rhs.items()}
    return NormalFormSystem(ansatz.ws, rhs)


def verify_instance(dsys, bindings, seed=None):
    """Check a concrete coefficient instance against every determining equation."""
    return [zero_verdict(substitute(eq, bindings), seed=seed) for eq in dsys.all_equations()]


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
