"""The Clairin conditional-symmetry pipeline.

Characteristic systems from vector-field families, integrability residuals
of normal forms, ansatz construction over the closed function families,
determining-system generation by coefficient collection, and verification
of conditional symmetries (via rectification, or directly by prolonged
tangency) and of explicit solutions.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import sympy as sp
from sympy.core.function import AppliedUndef

from .algebra import TriBool, ZeroVerdict, normalize, zero_verdict
from .errors import JetsymError, ReductionIncomplete
from .families import AnsatzFamily, collect_family
from .geometry import analyze_distribution, rectify
from .grammar import print_expr
from .jets import (NormalFormSystem, ProlongedVectorField, compatibility_residuals,
                   restrict_routes, restrict_to_section)
from .multiindex import MultiIndex, indices_up_to

__all__ = [
    "AnsatzSystem", "CharacteristicSystem", "DeterminingSystem",
    "NormalFormSystem", "PdeSystem", "SymmetryReport", "build_ansatz",
    "characteristic_system", "compatibility_residuals", "determining_system",
    "verify_conditional_symmetry", "verify_solution",
]


@dataclass(frozen=True)
class PdeSystem:
    """Delta^mu = 0: the target system of PDEs on the jet chart."""

    ws: object
    deltas: tuple  # ordered (name, Expr) pairs

    def __post_init__(self):
        deltas = tuple((name, normalize(e)) for name, e in self.deltas)
        if not deltas:
            raise ValueError("a PDE system needs at least one equation")
        for name, e in deltas:
            if not e.free_symbols:
                raise ValueError(f"equation {name} is constant")
        object.__setattr__(self, "deltas", deltas)

    @property
    def order(self):
        return max(max(self.ws.max_jet_order(e) for _, e in self.deltas), 1)

    def items(self):
        return self.deltas


@dataclass
class CharacteristicSystem:
    """Residual table D_K Q^a_j for |K| <= n-1; its zero set is S^n_L."""

    order: int
    residuals: dict  # (member j, alpha, K counts) -> Expr
    inconsistent: list = field(default_factory=list)
    prolonged: tuple = ()  # j^n Y_j, which owns the residuals of member j

    def rows(self, ws):
        out = []
        for (j, a, counts), e in sorted(
                self.residuals.items(),
                key=lambda kv: (kv[0][0], kv[0][1], MultiIndex(kv[0][2]).sort_key())):
            out.append((f"member {j}, D_{counts} Q^{ws.dependent[a].name}",
                        print_expr(e)))
        return out


def characteristic_system(F, n, seed=None):
    """The residuals D_K Q^a of every family member, for |K| <= n-1.

    These are the contact contractions of j^n Y, read from one
    ``ProlongedVectorField`` per member, which derives each D_K Q^a once and
    no psi^a_K.  The workspace's order cap is left as it is.
    """
    if n < 1:
        raise ValueError("characteristic systems need order n >= 1")
    ws = F.ws
    prolonged = tuple(ProlongedVectorField(Y, n) for Y in F.members)
    keys = [(a, K) for K in [MultiIndex.zero(ws.p)] + indices_up_to(ws.p, n - 1)
            for a in range(ws.q)]
    residuals = {}
    inconsistent = []
    for j, PY in enumerate(prolonged):
        for a, K in keys:
            e = residuals[(j, a, K.counts)] = PY.characteristic_derivative(a, K)
            if _nonzero_constant(e, ws, seed):
                inconsistent.append((j, a, K.counts))
    return CharacteristicSystem(n, residuals, inconsistent, prolonged)


def _nonzero_constant(e, ws, seed):
    """True for a residual that is constant on the chart (free of all but
    parameters, with no opaque functions) and certified NonZero."""
    return (e != 0 and not (e.free_symbols - set(ws.parameters.values()))
            and not e.has(AppliedUndef, sp.Derivative)
            and zero_verdict(e, seed=seed).verdict is ZeroVerdict.NONZERO)


# ---------------------------------------------------------------------------
# ansatz systems
# ---------------------------------------------------------------------------

@dataclass
class AnsatzSystem:
    """phi^a_j = sum_K a^a_{jK}(x) u^K with x-only unknown coefficients."""

    ws: object
    family: AnsatzFamily
    rhs: dict                      # (alpha, j) -> Expr
    unknowns: tuple                # applied unknown functions

    def normal_form(self):
        return NormalFormSystem(self.ws, self.rhs)

    @classmethod
    def from_explicit(cls, family, ws, rhs_map):
        """Wrap explicit right-hand sides; unknowns are the functions they use."""
        rhs = {k: normalize(v) for k, v in rhs_map.items()}
        unknowns = dict.fromkeys(f for e in rhs.values()
                                 for f in sorted(e.atoms(AppliedUndef), key=str))
        return cls(ws, family, rhs, tuple(unknowns))


def build_ansatz(family, ws):
    """Fresh unknown coefficient functions per (slot, dependent, basis monomial).

    For q = 1 the slots are lettered a, b, c, ... with the basis suffix
    appended (a2 u^2 + a1 u + a0 in the polynomial-degree-2 case); the
    general case prefixes the dependent index.
    """
    deps = ws.dependent
    keys = family.keys(ws.q)
    rhs = {}
    unknowns = []
    for j in range(ws.p):
        letter = string.ascii_lowercase[j] if j < 26 else f"a{j}"
        for a in range(ws.q):
            total = sp.Integer(0)
            for key in keys:
                suffix = family.suffix(key)
                name = f"{letter}{suffix}" if ws.q == 1 else f"{letter}{a + 1}_{suffix}"
                fn = ws.add_function(name)
                unknowns.append(fn)
                total += fn * family.monomial(key, deps)
            rhs[(a, j)] = normalize(total)
    return AnsatzSystem(ws, family, rhs, tuple(unknowns))


# ---------------------------------------------------------------------------
# determining systems
# ---------------------------------------------------------------------------

def _canonical_equation(e):
    """Fix the overall sign so structurally equal equations deduplicate."""
    if e == 0:
        return e
    lead = e.as_ordered_terms()[0]
    if lead.could_extract_minus_sign():
        return normalize(-e)
    return e


@dataclass
class DeterminingSystem:
    """E^r = 0 (integrability) and f_R = 0 (PDE) on the unknown coefficients."""

    ws: object
    family: AnsatzFamily
    compatibility_eqs: list
    pde_eqs: list

    def all_equations(self):
        return list(self.compatibility_eqs) + list(self.pde_eqs)


def determining_system(pde, ansatz):
    """Collect the coefficients whose vanishing makes the ansatz a Lie algebra
    of conditional symmetries of the PDE system.

    A mixed jet restricted to the ansatz section resolves differently along
    each peel route off shell; every route is collected so no condition is
    lost, and duplicates are removed structurally.
    """
    ws = ansatz.ws
    deps = ws.dependent
    family = ansatz.family
    nf = ansatz.normal_form()

    compat_eqs, seen = [], set()
    for _, _, _, res in compatibility_residuals(nf):
        for _, coeff in sorted(collect_family(res, family, deps).items(),
                               key=lambda kv: sp.default_sort_key(kv[0])):
            eq = _canonical_equation(coeff)
            if eq != 0 and eq not in seen:
                seen.add(eq)
                compat_eqs.append(eq)

    pde_eqs, seen_pde = [], set()
    for _, delta in pde.items():
        for restricted in restrict_routes(delta, nf):
            for _, coeff in sorted(collect_family(restricted, family, deps).items(),
                                   key=lambda kv: sp.default_sort_key(kv[0])):
                eq = _canonical_equation(coeff)
                if eq == 0 or eq in seen_pde:
                    continue
                seen_pde.add(eq)
                pde_eqs.append(eq)

    return DeterminingSystem(ws, family, compat_eqs, pde_eqs)


# ---------------------------------------------------------------------------
# symmetry verification
# ---------------------------------------------------------------------------

@dataclass
class SymmetryReport:
    route: str
    justification: str
    verdicts: list                     # (label, ZeroResult)
    unsatisfiable: bool = False
    assumptions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    nf: NormalFormSystem = None

    def overall(self):
        if self.unsatisfiable:
            return TriBool.NO
        vs = [r.verdict for _, r in self.verdicts]
        if any(v is ZeroVerdict.NONZERO for v in vs):
            return TriBool.NO
        if any(v is ZeroVerdict.UNKNOWN for v in vs):
            return TriBool.UNKNOWN
        return TriBool.YES


def verify_conditional_symmetry(pde, F, n=None, force_direct=False, seed=None):
    """Route A: rectify and restrict each Delta to the section (sufficient by
    the tangency theorem for rectified families; rectifiability transfers the
    verdict).  Route B: direct prolonged-tangency check modulo the constraint
    set, used as the fallback or on request."""
    n = n if n is not None else pde.order
    notes = []
    if not force_direct:
        try:
            report = analyze_distribution(F, seed=seed)
            nf = rectify(F, seed=seed, precomputed=report).nf
            justification = ("tangency criterion for rectified families (Thm 7.6)"
                             if report.nf is not None else
                             "rectification equivalence + tangency criterion (Thm 7.4 + 7.6)")
            verdicts = []
            for name, delta in pde.items():
                res = restrict_to_section(delta, nf)
                verdicts.append((name, zero_verdict(res, seed=seed)))
            if any(r.verdict is ZeroVerdict.NONZERO for _, r in verdicts):
                notes.append("restricted residual nonzero: the family is not a "
                             "conditional symmetry algebra of this system")
            assumptions = list(report.assumptions)
            route_a = SymmetryReport("A", justification, verdicts,
                                     assumptions=assumptions, notes=notes, nf=nf)
            if route_a.overall() is not TriBool.UNKNOWN:
                return route_a
            # indefinite via restriction: also run the direct check and
            # report both (a disagreement would indicate a defect)
            route_b = _direct_tangency(pde, F, n, seed=seed, notes=[])
            route_a.notes.append(
                f"route A verdict Unknown; direct route B says "
                f"{route_b.overall().value}")
            route_a.verdicts.extend(route_b.verdicts)
            route_a.assumptions.extend(route_b.assumptions)
            route_a.route = "A+B"
            return route_a
        except JetsymError as err:
            notes.append(f"route A unavailable: {err}")
    return _direct_tangency(pde, F, n, seed=seed, notes=notes)


def _leading_jet(e, ws):
    jets = ws.jet_atoms(e)
    if not jets:
        return None
    return max(jets, key=lambda t: (t[2].sort_key(), t[1], t[0].name))


def _solve_for_leading_jet(e, ws):
    """e = A*jet + B -> (jet symbol, value, coefficient) or None."""
    lead = _leading_jet(e, ws)
    if lead is None:
        return None
    s = lead[0]
    A = sp.diff(e, s)
    if A == 0 or A.has(s):
        return None
    value = normalize(s - e / A)
    return s, value, normalize(A)


def _reduce(e, mapping):
    """Rewrite a normalized e with mapping until no mapped jet is left."""
    out = e
    for _ in range(10):
        if not out.free_symbols & mapping.keys():
            break
        out = normalize(out.xreplace(mapping))
    return out


def _direct_tangency(pde, F, n, seed=None, notes=None):
    ws = F.ws
    notes = list(notes or [])
    assumptions = []

    char = characteristic_system(F, n, seed=seed)
    char_map = {}
    for key in sorted(char.residuals,
                      key=lambda k: (MultiIndex(k[2]).sort_key(), k[0], k[1])):
        res = _reduce(char.residuals[key], char_map)
        if res == 0:
            continue
        solved = _solve_for_leading_jet(res, ws)
        if solved is None:
            notes.append(f"characteristic residual {print_expr(res)} not solvable "
                         "for its leading jet")
            continue
        s, value, coeff = solved
        char_map[s] = value
        if coeff.free_symbols:
            assumptions.append(f"nonvanishing coefficient: {print_expr(coeff)}")

    delta_map = {}
    for name, delta in pde.items():
        red = _reduce(delta, delta_map)
        solved = _solve_for_leading_jet(red, ws)
        if solved is None:
            if ws.jet_atoms(red):
                raise ReductionIncomplete(
                    f"cannot solve {name} for its leading jet: {print_expr(red)}")
            continue
        s, value, coeff = solved
        delta_map[s] = value
        if coeff.free_symbols:
            assumptions.append(f"nonvanishing coefficient: {print_expr(coeff)}")

    # joint-consistency: the constraints must admit common points at all
    unsat = []
    for key, res in char.residuals.items():
        red = _reduce(res, delta_map)
        red = _reduce(red, char_map)
        if _nonzero_constant(red, ws, seed):
            unsat.append(print_expr(res))
    if char.inconsistent:
        unsat.extend(print_expr(char.residuals[k]) for k in char.inconsistent)
    if unsat:
        notes.append("constraint set unsatisfiable: residual(s) "
                     + "; ".join(sorted(set(unsat)))
                     + " reduce to nonzero constants on the PDE locus "
                     "(S_Delta intersect S_L is empty)")
        return SymmetryReport("B", "direct tangency check (Def. 7.1)", [],
                              unsatisfiable=True, assumptions=assumptions,
                              notes=notes)

    mapping = dict(char_map)
    mapping.update(delta_map)
    verdicts = []
    for j, P in enumerate(char.prolonged):
        for name, delta in pde.items():
            e = P.apply_to(delta)
            e = _reduce(e, mapping)
            verdicts.append((f"j^{n}Z_{j + 1}({name})", zero_verdict(e, seed=seed)))
    return SymmetryReport("B", "direct tangency check (Def. 7.1)", verdicts,
                          assumptions=assumptions, notes=notes)


# ---------------------------------------------------------------------------
# solution verification
# ---------------------------------------------------------------------------

def verify_solution(systems, candidate, ws, seed=None):
    """Substitute jets by actual partial derivatives of the candidate and test
    each equation for zero.  The candidate maps dependent symbols to jet-free
    expressions in x and parameters (opaque unknown functions allowed)."""
    candidate = {ws.resolve(k) if isinstance(k, str) else k: normalize(v)
                 for k, v in candidate.items()}
    for u, e in candidate.items():
        if ws.max_jet_order(e) >= 1:
            raise ValueError(f"candidate for {u} contains jet symbols")
    equations = []
    for system in systems:
        if isinstance(system, PdeSystem):
            equations.extend(system.items())
        elif isinstance(system, NormalFormSystem):
            equations.extend(zip(system.format_rows(), system.equations()))
        else:
            raise TypeError(f"cannot verify against {type(system).__name__}")

    mapping = dict(candidate)
    for _, e in equations:
        for s, a, K in ws.jet_atoms(e):
            if s in mapping:
                continue
            val = candidate.get(ws.dependent[a])
            if val is None:
                raise ValueError(f"candidate missing dependent {ws.dependent[a]}")
            mapping[s] = sp.diff(val, *[x for x, count in zip(ws.independent, K.counts)
                                         for _ in range(count)])

    out = []
    for label, e in equations:
        residual = normalize(e.xreplace(mapping))
        out.append((label, zero_verdict(residual, seed=seed)))
    return out
