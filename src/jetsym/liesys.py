"""PDE Lie systems: Vessiot-Guldberg structure, matrix Riccati shape, and
integration of solvable single-dependent-variable systems.

A normal form whose right-hand sides split as x-dependent coefficients times
u-only vector fields closing into a finite-dimensional Lie algebra is a PDE
Lie system.  The split, the u-fields' coordinates and the Riccati and affine
shapes are read off the QQ coefficients, x-monomials and u-monomials of the
one x/u splitter (``algebra.split_monomials``), which splits a quotient on
its value; a u-exponent that is not a natural number, sqrt(u) or 1/u, is
outside both shapes.  The sums formed from them
are built by ``algebra.normal_forms`` and ``algebra.sum_of_products``, and a
u-field's coordinates over the generators come from one exact reduction over
QQ (``DomainMatrix.rref``).  For q = 1 and an algebra that a catalogued change of variable
maps into the affine algebra <d/dw, w d/dw>, the system integrates by the
homogeneous-times-particular quadrature scheme, with potentials integrated
term by term (``_antiderivative``); an integrand of another shape takes
``sympy.integrate``, and one that resists elementary integration stays a
formal integral node and downgrades the verification verdict to Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import perm

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from .algebra import (ZeroVerdict, _substitute, derive, difference, is_zero, monomial_expr,
                      normal_forms, normalize, split_monomials, sum_of_products, zero_verdict)
from .condsym import compatibility_residuals, verify_solution
from .errors import CapExceeded, NotSeparable, NotSolvableShape, PreconditionFailed
from .grammar import print_expr
from .jets import NormalFormSystem

__all__ = ["PDELieSystem", "Q1Solution", "RiccatiData", "VGAlgebra",
           "build_pde_lie_system", "recognize_riccati", "solve_solvable_q1",
           "u_bracket", "vg_closure"]

# ---------------------------------------------------------------------------
# separation and exact rational span arithmetic
# ---------------------------------------------------------------------------

def separate(nf):
    """Per slot: the rhs vector as sum of x-coefficients times u-fields.

    Terms sharing the same structural x-coefficient (up to a rational
    multiple) are grouped into one q-component u-field: a coefficient
    appearing in several components couples them into a single generator
    (the projective fields of a matrix Riccati system need this).  A u-field
    is given by its coordinates {(component, u-monomial): rational}.
    """
    ws = nf.ws
    deps, xs = ws.dependent, set(ws.independent)
    out = {}
    for j in range(ws.p):
        groups = {}
        for a in range(ws.q):
            for c, x, monomial in split_monomials(nf.rhs[(a, j)], deps):
                key, m = monomial_expr(dict(x)), monomial_expr(monomial)
                if any(g.free_symbols & xs or g.atoms(AppliedUndef) for g in monomial):
                    raise NotSeparable(print_expr(QQ.to_sympy(c) * key * m))
                coords = groups.setdefault(key, {})
                coords[(a, m)] = coords.get((a, m), 0) + QQ.to_sympy(c)
        out[j] = [(key, nonzero) for key, coords in
                  sorted(groups.items(), key=lambda kv: sp.default_sort_key(kv[0]))
                  if (nonzero := {k: v for k, v in coords.items() if v != 0})]
    return out


def _coordinates(ufield, deps):
    """Exact rational coordinates {(component, u-monomial): rational} of a
    u-field; a factor without u that is no rational, such as sqrt(2), stays
    in the u-monomial."""
    coords = {}
    for a, comp in enumerate(ufield):
        for c, x, monomial in split_monomials(comp, deps):
            key = (a, monomial_expr(dict(x)) * monomial_expr(monomial))
            coords[key] = coords.get(key, 0) + QQ.to_sympy(c)
    return {k: v for k, v in coords.items() if v != 0}


def _solve_rational(generators_coords, target_coords):
    """Coordinates of target over the generators, free ones 0, or None when
    there are none: one reduction of the augmented matrix over QQ."""
    columns = (*generators_coords, target_coords)
    keys = dict.fromkeys(k for c in columns for k in c)
    n = len(generators_coords)
    rows = [[QQ.convert(c.get(k, 0)) for c in columns] for k in keys]
    reduced, pivots = DomainMatrix(rows, (len(keys), n + 1), QQ).rref()
    if n in pivots:
        return None
    reduced = reduced.to_Matrix()
    out = [sp.Integer(0)] * n
    for row, col in enumerate(pivots):
        out[col] = reduced[row, n]
    return out


def u_bracket(X, Y, deps):
    """Commutator of two u-fields (q-tuples of u-only expressions):
    X(Y^c) - Y(X^c), each applied through ``derive``."""
    x_images, y_images = dict(zip(deps, X)), dict(zip(deps, Y))
    return tuple(difference(derive(yc, x_images), derive(xc, y_images)) for xc, yc in zip(X, Y))


# ---------------------------------------------------------------------------
# Vessiot-Guldberg closure
# ---------------------------------------------------------------------------

@dataclass
class VGAlgebra:
    generators: tuple            # q-tuples of u-only expressions
    structure_constants: dict    # (i, j) with i < j -> tuple of rationals
    pieces: dict                 # slot j -> [(x-coefficient, coordinates)], per ``separate``

    @property
    def dimension(self):
        return len(self.generators)

    def constant(self, i, j):
        if i == j:
            return tuple(sp.Integer(0) for _ in self.generators)
        if i < j:
            return self.structure_constants[(i, j)]
        return tuple(-c for c in self.structure_constants[(j, i)])


def _check_jacobi(vg):
    dim = vg.dimension
    for i, j, k in combinations(range(dim), 3):
        for m in range(dim):
            total = sp.Integer(0)
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                cxy = vg.constant(x, y)
                for r in range(dim):
                    total += cxy[r] * vg.constant(r, z)[m]
            if total != 0:
                raise AssertionError("structure constants violate the Jacobi identity")


def vg_closure(nf, cap=10):
    """Close the u-only factors of a separable normal form under brackets.

    Returns the algebra with exact rational structure constants and the
    pieces' coordinates, or raises NotSeparable / CapExceeded (no finite
    structure found up to the cap).  Each round of brackets adds a generator
    or ends the closure, so the cap bounds the rounds too.  Each piece and
    each pair's bracket is solved once; as the generators stay independent,
    its coordinates keep, padded with zeros.
    """
    deps = nf.ws.dependent
    gens, gen_coords = [], []

    def solve(coords):
        """The u-field's coordinates over the generators; outside their span
        it joins them, and is a multiple of the new last generator."""
        existing = _solve_rational(gen_coords, coords)
        if existing is not None:
            return tuple(existing)
        if len(gens) + 1 > cap:
            raise CapExceeded(cap)
        # store with rational content 1 and a positive leading coordinate
        lead = min(coords, key=lambda k: (k[0], sp.default_sort_key(k[1])))
        content = sp.Integer(0)
        for v in coords.values():
            content = sp.gcd(content, v)
        if coords[lead] < 0:
            content = -content
        gen_coords.append({k: v / content for k, v in coords.items()})
        gens.append(tuple(sum_of_products([(r, m) for (a, m), r in gen_coords[-1].items() if a == i])
                          for i in range(nf.ws.q)))
        return (sp.Integer(0),) * (len(gens) - 1) + (content,)

    pieces = {j: [(c, solve(coords)) for c, coords in pairs] for j, pairs in separate(nf).items()}
    structure, size = {}, None
    while size != len(gens):
        size = len(gens)
        for i, j in combinations(range(size), 2):
            if (i, j) not in structure:
                structure[(i, j)] = solve(_coordinates(u_bracket(gens[i], gens[j], deps), deps))

    def padded(c):
        return c + (sp.Integer(0),) * (size - len(c))

    vg = VGAlgebra(tuple(gens),
                   {pair: padded(structure[pair]) for pair in combinations(range(size), 2)},
                   {j: [(c, padded(x)) for c, x in pairs] for j, pairs in pieces.items()})
    _check_jacobi(vg)
    return vg


@dataclass
class PDELieSystem:
    nf: NormalFormSystem
    vg: VGAlgebra
    b: dict                     # (slot j, generator beta) -> Expr in x
    notes: list = field(default_factory=list)


def build_pde_lie_system(nf, cap=10, seed=None):
    """Detect VG structure and express the rhs as sum_b b_j^b(x) X_b."""
    ws = nf.ws
    vg = vg_closure(nf, cap=cap)
    b = {(j, beta): sum_of_products([(coords[beta], c) for c, coords in vg.pieces[j]])
         for j in range(ws.p) for beta in range(vg.dimension)}
    # decomposition exactness
    for j in range(ws.p):
        for a in range(ws.q):
            total = sp.Add(*[b[(j, beta)] * vg.generators[beta][a]
                             for beta in range(vg.dimension)])
            if is_zero(total - nf.rhs[(a, j)]) is ZeroVerdict.NONZERO:
                raise AssertionError("VG decomposition does not reproduce the rhs")
    notes = []
    for _, _, _, res in compatibility_residuals(nf):
        v = zero_verdict(res, seed=seed).verdict
        if v is ZeroVerdict.NONZERO:
            notes.append(f"compatibility residual nonzero: {print_expr(res)}")
        elif v is ZeroVerdict.UNKNOWN:
            notes.append("compatibility verdict undetermined (opaque coefficients)")
    return PDELieSystem(nf, vg, b, notes)


# ---------------------------------------------------------------------------
# matrix Riccati recognition
# ---------------------------------------------------------------------------

@dataclass
class RiccatiData:
    """Slotwise rhs_j = A_j + B_j u + u (D_j u)."""
    A: dict
    B: dict
    D: dict


def recognize_riccati(sys):
    """Riccati shape test; returns (RiccatiData | None, violating term | None).

    The violating term is the first term of degree above 2 or outside the
    polynomials in u, or else the first quadratic term by which a component
    departs from u^a (d . u), d_b read off u^b u^b in component b.
    """
    ws = sys.nf.ws
    deps = ws.dependent
    q = ws.q

    def mono(*factors):
        """The exponents over deps of the product of u^b for b in factors."""
        return tuple(factors.count(b) for b in range(q))

    A, B, D = {}, {}, {}
    for j in range(ws.p):
        parts = [{} for _ in range(q)]     # per component: exponents -> {x-monomial: c}
        for a in range(q):
            for c, x, monomial in split_monomials(sys.nf.rhs[(a, j)], deps):
                if not monomial.keys() <= set(deps) or sum(monomial.values()) > 2 or any(
                        k < 0 or k != int(k) for k in monomial.values()):
                    return None, print_expr(
                        QQ.to_sympy(c) * monomial_expr(dict(x)) * monomial_expr(monomial))
                group = parts[a].setdefault(tuple(monomial.get(d, 0) for d in deps), {})
                group[x] = group.get(x, QQ.zero) + c
        coeff = [dict(zip(p, normal_forms(p.values()))) for p in parts]
        d_row = tuple(coeff[b].get(mono(b, b), sp.Integer(0)) for b in range(q))
        for a in range(q):
            expected = {mono(a, b): d_row[b] for b in range(q)}
            for m in sorted({m for m in coeff[a] if sum(m) == 2} | set(expected)):
                rest = difference(coeff[a].get(m, sp.S.Zero), expected.get(m, sp.S.Zero))
                if rest != 0:
                    return None, print_expr(rest * monomial_expr(dict(zip(deps, m))))
        A[j] = tuple(c.get(mono(), sp.Integer(0)) for c in coeff)
        B[j] = tuple(tuple(c.get(mono(b), sp.Integer(0)) for b in range(q)) for c in coeff)
        D[j] = d_row
    return RiccatiData(A, B, D), None


# ---------------------------------------------------------------------------
# q = 1 integration
# ---------------------------------------------------------------------------

@dataclass
class Q1Solution:
    u_expr: object
    transform: str
    w_homogeneous: object
    w_particular: object
    unresolved: bool
    verdicts: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)


def _transform_catalog(ws):
    u = ws.dependent[0]
    w = sp.Symbol("_w_", real=True, positive=True)
    return [
        ("w = u", w, u, w),
        ("w = exp(u/2)", w, sp.exp(u / 2), 2 * sp.log(w)),
        ("w = exp(-u/2)", w, sp.exp(-u / 2), -2 * sp.log(w)),
    ]


def _affine_coefficients(expr, w):
    """(c, d) with expr = c*w + d, c and d free of w, or None."""
    parts = ({}, {})
    for c, x, monomial in split_monomials(expr, (w,)):
        if not monomial.keys() <= {w} or monomial.get(w, 0) not in (0, 1):
            return None
        group = parts[monomial.get(w, 0)]
        group[x] = group.get(x, QQ.zero) + c
    return tuple(normal_forms(reversed(parts)))


def _antiderivative(e, x):
    """F with dF/dx = e, term by term as ``split_monomials`` splits e, in
    normal form: a factor free of x stays, 1/(1 + y) too, x**k gives
    x**(k + 1)/(k + 1) for rational k other than -1, x**k*exp(a*x) for
    natural k the sum that integration by parts gives and D(h, x) gives h.
    None for a term of another shape, or a quotient by a sum in x."""
    out = {}
    for c, rest, m in split_monomials(e, (x,)):
        k, a, d = m.pop(x, 0), m.pop(sp.exp(x), 0), next(iter(m), None)
        if k == -1 or a and k != abs(int(k)) or m and (
                k or a or m != {d: 1} or not isinstance(d, sp.Derivative)
                or d.variable_count != ((x, 1),)):
            return None
        parts = [({d.expr: 1}, 1)] if m else [({x: k + 1}, sp.Rational(1, k + 1))] if not a else [
            ({x: k - i, sp.exp(x): a}, (-1) ** i * perm(k, i) / a ** (i + 1)) for i in range(k + 1)]
        for powers, q in parts:
            key = rest | {(f, i) for f, i in powers.items() if i}
            out[key] = out.get(key, QQ.zero) + c * QQ.convert(q)
    return normal_forms([out])[0]


def _potential(coeffs, ws):
    """P with dP/dx_j = coeffs[j], built by iterated antiderivatives
    (``_antiderivative``); ``sympy.integrate`` takes an integrand of another
    shape, and a formal integral that it leaves sets unresolved."""
    P = sp.Integer(0)
    unresolved = False
    for j, x in enumerate(ws.independent):
        r = difference(coeffs[j], derive(P, {x: sp.S.One}))
        if r == 0:
            continue
        g = _antiderivative(r, x)
        if g is None:
            g = sp.integrate(r, x)
            unresolved = unresolved or g.has(sp.Integral)
        P = sum_of_products([(1, P), (1, g)])
    for j, x in enumerate(ws.independent):
        res = difference(derive(P, {x: sp.S.One}), coeffs[j])
        if res != 0 and not unresolved:
            v = zero_verdict(res).verdict
            if v is ZeroVerdict.NONZERO:
                raise NotSolvableShape(
                    f"slot coefficients are not a closed form: residual {print_expr(res)}")
    return P, unresolved


def solve_solvable_q1(sys, seed=None):
    """Integrate a q = 1 PDE Lie system whose algebra maps into <d/dw, w d/dw>.

    w = w_H * (w_N + lam): the homogeneous factor is the exponential of a
    slotwise potential of the linear coefficients, the particular factor a
    quadrature of the inhomogeneity divided by w_H.
    """
    nf = sys.nf
    ws = nf.ws
    if ws.q != 1:
        raise PreconditionFailed("q = 1", f"system has q = {ws.q}")
    u = ws.dependent[0]
    last_reason = None
    for label, w, w_of_u, u_of_w in _transform_catalog(ws):
        dwdu = sp.diff(w_of_u, u)
        # each generator, then each slot's rhs, pushed forward to w: affine in w
        affine = []
        for what, f in [*((f"generator {print_expr(g[0])}", g[0]) for g in sys.vg.generators),
                        *((f"slot {j} rhs", nf.rhs[(0, j)]) for j in range(ws.p))]:
            affine.append(_affine_coefficients(_substitute(dwdu * f, ((u, u_of_w),)), w))
            if affine[-1] is None:
                last_reason = f"{label}: {what} not affine"
                break
        if affine[-1] is None:
            continue
        cs, ds = zip(*affine[len(sys.vg.generators):])
        P, unresolved_h = _potential(cs, ws)
        w_h = normalize(sp.exp(P))
        quotients = [normalize(d * sp.exp(-P)) for d in ds]
        w_n, unresolved_n = _potential(quotients, ws)
        unresolved = unresolved_h or unresolved_n
        lam = ws.parameters.get("lam")
        if lam is None:
            lam = ws.add_parameter("lam")
        w_expr = normalize(w_h * (w_n + lam))
        u_sol = _substitute(u_of_w, ((w, w_expr),))
        verdicts = verify_solution([nf], {u: u_sol}, ws, seed=seed)
        assumptions = ["integration parameter: lam"]
        if unresolved:
            assumptions.append("formal integrals remain; verification is Unknown")
        return Q1Solution(u_sol, label, w_h, w_n, unresolved,
                          verdicts, assumptions)
    raise NotSolvableShape(last_reason or "no catalogued change of variables applies")
