"""PDE Lie systems: Vessiot-Guldberg structure, matrix Riccati shape, and
integration of solvable single-dependent-variable systems.

A normal form whose right-hand sides split as x-dependent coefficients times
u-only vector fields closing into a finite-dimensional Lie algebra is a PDE
Lie system.  For q = 1 and an algebra that a catalogued change of variable
maps into the affine algebra <d/dw, w d/dw>, the system integrates by the
homogeneous-times-particular quadrature scheme; antiderivatives that resist
elementary integration stay as formal integral nodes and downgrade the
verification verdict to Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.polyerrors import PolynomialError

from .algebra import ZeroVerdict, derive, is_zero, normalize, substitute, zero_verdict
from .condsym import compatibility_residuals, verify_solution
from .errors import CapExceeded, NotSeparable, NotSolvableShape, PreconditionFailed
from .grammar import print_expr
from .jets import NormalFormSystem

__all__ = ["PDELieSystem", "Q1Solution", "RiccatiData", "VGAlgebra",
           "build_pde_lie_system", "recognize_riccati", "solve_solvable_q1",
           "u_bracket", "vg_closure"]

MAX_ROUNDS = 12  # bracket rounds that vg_closure tries before giving up


# ---------------------------------------------------------------------------
# separation and exact rational span arithmetic
# ---------------------------------------------------------------------------

def _separate_term(term, ws):
    """Split one multiplicative term into (x-part, u-part)."""
    deps = set(ws.dependent)
    xpart, upart = sp.Integer(1), sp.Integer(1)
    for f in sp.Mul.make_args(term):
        has_u = bool(f.free_symbols & deps)
        if not has_u:
            xpart *= f
            continue
        blockers = (f.free_symbols & set(ws.independent)) or f.atoms(AppliedUndef)
        if blockers:
            raise NotSeparable(term)
        upart *= f
    return normalize(xpart), normalize(upart)


def separate(nf):
    """Per slot: the rhs vector as sum of x-coefficients times u-fields.

    Terms sharing the same structural x-coefficient (up to a rational
    multiple) are grouped into one q-component u-field: a coefficient
    appearing in several components couples them into a single generator
    (the projective fields of a matrix Riccati system need this).
    """
    ws = nf.ws
    out = {}
    for j in range(ws.p):
        groups = {}
        for a in range(ws.q):
            for term in sp.Add.make_args(sp.expand(nf.rhs[(a, j)])):
                c, g = _separate_term(term, ws)
                r, key = c.as_coeff_Mul()
                if not r.is_Rational:
                    r, key = sp.Integer(1), c
                field = groups.setdefault(normalize(key),
                                          [sp.Integer(0)] * ws.q)
                field[a] += r * g
        out[j] = [(key, tuple(normalize(v) for v in field))
                  for key, field in sorted(groups.items(),
                                           key=lambda kv: sp.default_sort_key(kv[0]))
                  if any(v != 0 for v in field)]
    return out


def _decompose(ufield, deps):
    """Exact rational coordinates of a u-field in a structural-term basis."""
    coords = {}
    for a, comp in enumerate(ufield):
        for term in sp.Add.make_args(sp.expand(comp)):
            c, m = term.as_coeff_Mul()
            if not c.is_Rational:
                c, m = sp.Integer(1), term
            key = (a, normalize(m))
            coords[key] = coords.get(key, sp.Rational(0)) + c
    return {k: v for k, v in coords.items() if v != 0}


def _solve_rational(generators_coords, target_coords):
    """Coordinates of target over the generators, or None (exact over Q)."""
    keys = sorted({k for g in generators_coords for k in g}
                  | set(target_coords), key=lambda k: (k[0], sp.default_sort_key(k[1])))
    if not generators_coords:
        return None if target_coords else []
    A = sp.Matrix([[g.get(k, 0) for g in generators_coords] for k in keys])
    b = sp.Matrix([[target_coords.get(k, 0)] for k in keys])
    try:
        sol, residual_params = A.gauss_jordan_solve(b)
    except ValueError:
        return None
    if residual_params.rows:
        sol = sol.xreplace({p: sp.Integer(0) for p in residual_params})
    if any(sp.expand(v) != 0 for v in (A * sol - b)):
        return None
    out = [sp.Rational(v) if v.is_Rational else None for v in sol]
    return None if None in out else out


def u_bracket(X, Y, deps):
    """Commutator of two u-fields (q-tuples of u-only expressions):
    X(Y^c) - Y(X^c), each applied through ``derive``."""
    x_images, y_images = dict(zip(deps, X)), dict(zip(deps, Y))
    return tuple(normalize(derive(yc, x_images) - derive(xc, y_images))
                 for xc, yc in zip(X, Y))


# ---------------------------------------------------------------------------
# Vessiot-Guldberg closure
# ---------------------------------------------------------------------------

@dataclass
class VGAlgebra:
    generators: tuple            # q-tuples of u-only expressions
    structure_constants: dict    # (i, j) with i < j -> tuple of rationals
    closure_depth: int

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

    Returns the algebra with exact rational structure constants, or raises
    NotSeparable / CapExceeded (no finite structure found up to the cap).
    """
    ws = nf.ws
    deps = ws.dependent
    pieces = separate(nf)
    gens, gen_coords = [], []

    def try_add(ufield):
        coords = _decompose(ufield, deps)
        if not coords:
            return None
        existing = _solve_rational(gen_coords, coords)
        if existing is not None:
            return existing
        if len(gens) + 1 > cap:
            raise CapExceeded(cap)
        # store with rational content 1 and a positive leading coordinate
        keys = sorted(coords, key=lambda k: (k[0], sp.default_sort_key(k[1])))
        content = sp.Integer(0)
        for k in keys:
            content = sp.gcd(content, coords[k])
        if coords[keys[0]] < 0:
            content = -content
        gens.append(tuple(normalize(c / content) for c in ufield))
        gen_coords.append({k: v / content for k, v in coords.items()})
        return None

    for j in sorted(pieces):
        for _, ufield in pieces[j]:
            try_add(ufield)

    depth = 0
    for round_idx in range(MAX_ROUNDS):
        added = False
        current = list(gens)
        for i, j in combinations(range(len(current)), 2):
            br = u_bracket(current[i], current[j], deps)
            if all(c == 0 for c in br):
                continue
            if try_add(br) is None and len(gens) > len(current):
                added = True
        if not added and len(gens) == len(current):
            depth = round_idx
            break
    else:
        raise CapExceeded(cap)

    structure = {}
    for i, j in combinations(range(len(gens)), 2):
        br = u_bracket(gens[i], gens[j], deps)
        coords = _solve_rational(gen_coords, _decompose(br, deps))
        if coords is None:
            raise CapExceeded(cap)
        structure[(i, j)] = tuple(coords)
    vg = VGAlgebra(tuple(gens), structure, depth)
    _check_jacobi(vg)
    return vg


@dataclass
class PDELieSystem:
    nf: NormalFormSystem
    vg: VGAlgebra
    b: dict                     # (slot j, generator beta) -> Expr in x
    integrable: bool = True
    notes: list = field(default_factory=list)


def build_pde_lie_system(nf, cap=10, seed=None):
    """Detect VG structure and express the rhs as sum_b b_j^b(x) X_b."""
    ws = nf.ws
    deps = ws.dependent
    vg = vg_closure(nf, cap=cap)
    gen_coords = [_decompose(g, deps) for g in vg.generators]
    b = {(j, beta): sp.Integer(0) for j in range(ws.p) for beta in range(vg.dimension)}
    pieces = separate(nf)
    for j, pairs in pieces.items():
        for c, ufield in pairs:
            coords = _solve_rational(gen_coords, _decompose(ufield, deps))
            if coords is None:
                raise NotSeparable(ufield)
            for beta, r in enumerate(coords):
                b[(j, beta)] = normalize(b[(j, beta)] + r * c)
    # decomposition exactness
    for j in range(ws.p):
        for a in range(ws.q):
            total = sp.Add(*[b[(j, beta)] * vg.generators[beta][a]
                             for beta in range(vg.dimension)])
            if is_zero(total - nf.rhs[(a, j)]) is ZeroVerdict.NONZERO:
                raise AssertionError("VG decomposition does not reproduce the rhs")
    notes = []
    integrable = True
    for _, _, _, res in compatibility_residuals(nf):
        v = zero_verdict(res, seed=seed).verdict
        if v is ZeroVerdict.NONZERO:
            integrable = False
            notes.append(f"compatibility residual nonzero: {print_expr(res)}")
        elif v is ZeroVerdict.UNKNOWN:
            notes.append("compatibility verdict undetermined (opaque coefficients)")
    return PDELieSystem(nf, vg, b, integrable, notes)


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
    """Riccati shape test; returns (RiccatiData | None, violating term | None)."""
    ws = sys.nf.ws
    deps = ws.dependent
    q = ws.q
    A, B, D = {}, {}, {}
    for j in range(ws.p):
        quad = {}
        lin = [[sp.Integer(0)] * q for _ in range(q)]
        const = [sp.Integer(0)] * q
        for a in range(q):
            rhs = sp.expand(sys.nf.rhs[(a, j)])
            try:
                poly = sp.Poly(rhs, *deps)
            except PolynomialError:
                return None, print_expr(rhs)
            if poly.total_degree() > 2:
                bad = max(poly.as_dict(), key=sum)
                term = poly.as_dict()[bad] * sp.Mul(*[d ** k for d, k in zip(deps, bad)])
                return None, print_expr(term)
            for mono, coeff in poly.as_dict().items():
                degree = sum(mono)
                if degree == 0:
                    const[a] = coeff
                elif degree == 1:
                    lin[a][list(mono).index(1)] = coeff
                else:
                    quad[(a, mono)] = coeff
        # factor the quadratic part as u^a * (d . u): the coefficient of
        # u_b u_a in component a must be d_b for every component it meets
        d_row = [sp.Integer(0)] * q
        for (a, mono), coeff in quad.items():
            betas = [i for i, k in enumerate(mono) for _ in range(k)]
            if a in betas:
                other = betas[0] if betas[1] == a else betas[1]
                if d_row[other] == 0:
                    d_row[other] = normalize(coeff)
        for (a, mono), coeff in quad.items():
            betas = [i for i, k in enumerate(mono) for _ in range(k)]
            if a not in betas:
                return None, print_expr(
                    coeff * sp.Mul(*[deps[b] for b in betas]))
            other = betas[0] if betas[1] == a else betas[1]
            if normalize(coeff - d_row[other]) != 0:
                return None, print_expr(coeff * sp.Mul(*[deps[b] for b in betas]))
        A[j] = tuple(normalize(v) for v in const)
        B[j] = tuple(tuple(normalize(v) for v in row) for row in lin)
        D[j] = tuple(normalize(v) for v in d_row)
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
    parameter: object
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
    try:
        poly = sp.Poly(sp.expand(expr), w)
    except PolynomialError:
        return None
    if poly.total_degree() > 1:
        return None
    c = normalize(poly.as_dict().get((1,), sp.Integer(0)))
    d = normalize(poly.as_dict().get((0,), sp.Integer(0)))
    if c.has(w) or d.has(w):
        return None
    return c, d


def _potential(coeffs, ws):
    """P with dP/dx_j = coeffs[j], built by iterated antiderivatives."""
    P = sp.Integer(0)
    unresolved = False
    for j, x in enumerate(ws.independent):
        r = normalize(coeffs[j] - sp.diff(P, x))
        if r == 0:
            continue
        g = sp.integrate(r, x)
        if g.has(sp.Integral):
            unresolved = True
        P = normalize(P + g)
    for j, x in enumerate(ws.independent):
        res = normalize(sp.diff(P, x) - coeffs[j])
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
        ok = True
        for gen in sys.vg.generators:
            transformed = substitute(normalize(dwdu * gen[0]), {u: u_of_w})
            if _affine_coefficients(transformed, w) is None:
                ok = False
                last_reason = f"{label}: generator {print_expr(gen[0])} not affine"
                break
        if not ok:
            continue
        cs, ds = [], []
        for j in range(ws.p):
            transformed = substitute(normalize(dwdu * nf.rhs[(0, j)]), {u: u_of_w})
            cd = _affine_coefficients(transformed, w)
            if cd is None:
                ok = False
                last_reason = f"{label}: slot {j} rhs not affine"
                break
            cs.append(cd[0])
            ds.append(cd[1])
        if not ok:
            continue
        P, unresolved_h = _potential(cs, ws)
        w_h = normalize(sp.exp(P))
        quotients = [normalize(d * sp.exp(-P)) for d in ds]
        w_n, unresolved_n = _potential(quotients, ws)
        unresolved = unresolved_h or unresolved_n
        lam = ws.parameters.get("lam")
        if lam is None:
            lam = ws.add_parameter("lam")
        w_expr = normalize(w_h * (w_n + lam))
        u_sol = normalize(u_of_w.xreplace({w: w_expr}))
        verdicts = verify_solution([nf], {u: u_sol}, ws, seed=seed)
        assumptions = ["integration parameter: lam"]
        if unresolved:
            assumptions.append("formal integrals remain; verification is Unknown")
        return Q1Solution(u_sol, label, w_h, w_n, lam, unresolved,
                          verdicts, assumptions)
    raise NotSolvableShape(last_reason or "no catalogued change of variables applies")
