"""Vector-field algebra on the base chart: Lie brackets, distribution rank,
projection onto the independent directions, involutivity, and rectification.

Rank and projection verdicts are generic: the coefficient matrix is
specialized at random exact-rational points (majority of three trials) and
degeneracy loci are reported through the vanishing pivot minors rather than
computed exhaustively.  Structure-function solving divides by those minors;
the report carries them as declared nonvanishing assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, islice

import sympy as sp

from .algebra import (TriBool, ZeroVerdict, evaluate_at, normalize,
                      sample_points, zero_verdict)
from .errors import PreconditionFailed, SingularXi, SpecializationFailed
from .grammar import print_expr
from .jets import NormalFormSystem, VectorField
from .workspace import DEFAULT_SEED


@dataclass(frozen=True)
class VectorFieldFamily:
    ws: object
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a vector-field family needs at least one member")
        for m in members:
            if m.ws is not self.ws:
                raise ValueError("family members live on different workspaces")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def coefficient_rows(self):
        return [m.coefficient_row() for m in self.members]

    def xi_rows(self):
        return [list(m.xi) for m in self.members]


def lie_bracket(Y, Z):
    """[Y, Z] on J0: the usual commutator of first-order operators."""
    if Y.ws is not Z.ws:
        raise ValueError("vector fields live on different workspaces")
    xi = tuple(Y.apply_to(Z.xi[k]) - Z.apply_to(Y.xi[k]) for k in range(Y.ws.p))
    phi = tuple(Y.apply_to(Z.phi[a]) - Z.apply_to(Y.phi[a]) for a in range(Y.ws.q))
    return VectorField(Y.ws, xi, phi)


# ---------------------------------------------------------------------------
# generic rank machinery
# ---------------------------------------------------------------------------

def _numeric_rows(rows, point):
    out = []
    for row in rows:
        out.append([evaluate_at(e, point) for e in row])
    return out


def _chart_samples(rows, ws, seed, draws):
    """(point, numeric rows) at random chart points where every entry evaluates."""
    syms = list(ws.independent) + list(ws.dependent) + list(ws.parameters.values())
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    return sample_points(syms, rng, lambda point: _numeric_rows(rows, point), draws)


def _float_rank_with_pivots(M, tol=1e-9):
    """Rank by Gaussian elimination; returns (rank, pivot rows, pivot cols)."""
    rows = [list(r) for r in M]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    scale = max((abs(v) for r in rows for v in r), default=0.0)
    if scale == 0.0:
        return 0, [], []
    row_idx = list(range(nrows))
    piv_rows, piv_cols = [], []
    r = 0
    for c in range(ncols):
        best, best_i = 0.0, None
        for i in range(r, nrows):
            if abs(rows[i][c]) > best:
                best, best_i = abs(rows[i][c]), i
        if best <= tol * scale:
            continue
        rows[r], rows[best_i] = rows[best_i], rows[r]
        row_idx[r], row_idx[best_i] = row_idx[best_i], row_idx[r]
        piv_rows.append(row_idx[r])
        piv_cols.append(c)
        for i in range(r + 1, nrows):
            factor = rows[i][c] / rows[r][c]
            for j in range(c, ncols):
                rows[i][j] -= factor * rows[r][j]
        r += 1
        if r == nrows:
            break
    return r, piv_rows, piv_cols


def _minor_note(rows, piv_rows, piv_cols, label):
    """Describe where the generically-nonzero pivot minor vanishes."""
    if not piv_rows:
        return None
    sub = sp.Matrix([[rows[i][j] for j in piv_cols] for i in piv_rows])
    det = normalize(sub.det())
    if det.free_symbols:
        return f"{label} rank drops where {print_expr(det)} = 0"
    return None


@dataclass
class RankReport:
    rank: int
    notes: list = field(default_factory=list)


def _generic_rank_of_rows(rows, ws, seed, label):
    results = []
    pivots = None
    for _, M in islice(_chart_samples(rows, ws, seed, 60), 3):
        r, pr, pc = _float_rank_with_pivots(M)
        results.append(r)
        if pivots is None or r >= max(results):
            pivots = (pr, pc)
    if not results:
        raise SpecializationFailed(
            f"no evaluable specialization found for the {label} coefficient matrix")
    rank = max(set(results), key=results.count)
    notes = []
    if len(set(results)) > 1:
        notes.append(f"{label} rank disagreed across trials: {results}")
    note = _minor_note(rows, *pivots, label)
    if note:
        notes.append(note)
    return RankReport(rank=rank, notes=notes)


def generic_rank(F, seed=None):
    """Generic rank of the l x (p+q) coefficient matrix, majority of 3 trials."""
    return _generic_rank_of_rows(F.coefficient_rows(), F.ws, seed, "distribution")


def projects_onto_tx(F, seed=None):
    """True iff the xi-block has generic rank p; degeneracy loci in the notes."""
    report = _generic_rank_of_rows(F.xi_rows(), F.ws, seed, "xi-block")
    return report.rank == F.ws.p, report.notes


def is_abelian(F, seed=None):
    """Yes iff all pairwise brackets vanish (three-valued)."""
    verdict = TriBool.YES
    for j, k in combinations(range(len(F)), 2):
        br = lie_bracket(F.members[j], F.members[k])
        for e in br.coefficient_row():
            v = zero_verdict(e, seed=seed).verdict
            if v is ZeroVerdict.NONZERO:
                return TriBool.NO
            if v is ZeroVerdict.UNKNOWN:
                verdict = TriBool.UNKNOWN
    return verdict


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

@dataclass
class InvolutivityReport:
    verdict: TriBool
    structure_functions: dict = None
    spanning_subset: tuple = ()
    assumptions: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _spanning_subset(F, rank, seed):
    """Indices of `rank` members whose rows are generically independent."""
    rows = F.coefficient_rows()
    for point, M in _chart_samples(rows, F.ws, seed, 40):
        chosen = []
        for i in range(len(rows)):
            trial = chosen + [i]
            sub = [M[t] for t in trial]
            r, _, _ = _float_rank_with_pivots(sub)
            if r == len(trial):
                chosen.append(i)
            if len(chosen) == rank:
                return tuple(chosen), point
    raise SpecializationFailed("could not select a spanning subset numerically")


def _solve_in_span(F, subset, bracket, point):
    """Solve bracket = sum_m f^m V_m over the function field.

    Returns (coeffs, residuals, det) or None when every square subsystem is
    symbolically singular.
    """
    ws = F.ws
    cols = [F.members[i].coefficient_row() for i in subset]
    m = len(cols)
    b = bracket.coefficient_row()
    nrows = ws.p + ws.q
    Mnum = []
    for r in range(nrows):
        Mnum.append([evaluate_at(cols[c][r], point) for c in range(m)])
    _, piv_rows, _ = _float_rank_with_pivots(Mnum)
    candidates = [tuple(piv_rows)] if len(piv_rows) == m else []
    candidates += [c for c in combinations(range(nrows), m) if c != tuple(piv_rows)]
    for rowsel in candidates:
        S = sp.Matrix([[cols[c][r] for c in range(m)] for r in rowsel])
        det = normalize(S.det())
        if det == 0:
            continue
        rhs = sp.Matrix([[b[r]] for r in rowsel])
        sol = S.solve(rhs)
        coeffs = [normalize(v) for v in sol]
        residuals = []
        for r in range(nrows):
            lhs = sp.Add(*[cols[c][r] * coeffs[c] for c in range(m)])
            residuals.append(normalize(lhs - b[r]))
        return coeffs, residuals, det
    return None


def is_involutive(F, seed=None):
    """Each bracket solvable as a C-infinity combination of a spanning subset."""
    rank_report = generic_rank(F, seed=seed)
    report = _involutivity(F, rank_report.rank, seed)
    report.notes[:0] = rank_report.notes
    return report


def _involutivity(F, rank, seed):
    """``is_involutive`` for a known generic rank; its notes omit the rank's."""
    subset, point = _spanning_subset(F, rank, seed)
    verdict = TriBool.YES
    structure = {}
    assumptions = []
    notes = []
    for j, k in combinations(range(len(F)), 2):
        br = lie_bracket(F.members[j], F.members[k])
        if br.is_zero_field():
            structure[(j, k)] = tuple(sp.Integer(0) for _ in subset)
            continue
        solved = _solve_in_span(F, subset, br, point)
        if solved is None:
            verdict = TriBool.UNKNOWN
            notes.append(f"bracket [{j},{k}]: all square subsystems singular")
            continue
        coeffs, residuals, det = solved
        pair_verdict = TriBool.YES
        for e in residuals:
            v = zero_verdict(e, seed=seed).verdict
            if v is ZeroVerdict.NONZERO:
                notes.append(
                    f"bracket [{j},{k}] leaves the span: residual {print_expr(e)}")
                return InvolutivityReport(TriBool.NO, None, subset, assumptions, notes)
            if v is ZeroVerdict.UNKNOWN:
                pair_verdict = TriBool.UNKNOWN
        if det.free_symbols:
            assumptions.append(f"nonvanishing minor: {print_expr(det)}")
        if pair_verdict is TriBool.UNKNOWN:
            verdict = TriBool.UNKNOWN
            notes.append(f"bracket [{j},{k}]: span membership undetermined")
        else:
            structure[(j, k)] = tuple(coeffs)
    if verdict is not TriBool.YES:
        structure = None
    seen = set()
    assumptions = [a for a in assumptions if not (a in seen or seen.add(a))]
    return InvolutivityReport(verdict, structure, subset, assumptions, notes)


# ---------------------------------------------------------------------------
# distribution report and rectification
# ---------------------------------------------------------------------------

@dataclass
class DistributionReport:
    generic_rank: int
    projects_onto_tx: bool
    involutive: TriBool
    abelian: TriBool
    structure_functions: dict = None
    spanning_subset: tuple = ()
    assumptions: list = field(default_factory=list)
    degeneracy_notes: list = field(default_factory=list)


def analyze_distribution(F, seed=None):
    rank_report = generic_rank(F, seed=seed)
    projects, proj_notes = projects_onto_tx(F, seed=seed)
    abelian = is_abelian(F, seed=seed)
    if abelian is TriBool.YES:
        inv = InvolutivityReport(TriBool.YES, {}, tuple(range(len(F))), [], [])
    else:
        inv = _involutivity(F, rank_report.rank, seed)
    notes = rank_report.notes + proj_notes + inv.notes
    return DistributionReport(
        generic_rank=rank_report.rank,
        projects_onto_tx=projects,
        involutive=inv.verdict,
        abelian=abelian,
        structure_functions=inv.structure_functions,
        spanning_subset=inv.spanning_subset,
        assumptions=inv.assumptions,
        degeneracy_notes=notes,
    )


@dataclass
class RectifyResult:
    nf: NormalFormSystem
    subset: tuple
    det: object
    assumptions: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def rectify(F, seed=None, precomputed=None):
    """Rewrite a rectifiable family in the basis Z_k = d/dx^k + phi^a_k d/du^a.

    Inverts the p x p xi-submatrix of a spanning subset (first usable subset
    in input order).  Preconditions: generic rank p, projection onto the
    independent directions, involutivity.
    """
    ws = F.ws
    report = precomputed if precomputed is not None else analyze_distribution(F, seed=seed)
    if report.generic_rank != ws.p:
        raise PreconditionFailed(
            "rank", f"generic rank {report.generic_rank} != p = {ws.p}")
    if not report.projects_onto_tx:
        raise PreconditionFailed("projection", "xi-block has generic rank < p")
    if report.involutive is TriBool.NO:
        raise PreconditionFailed("involutivity", "a bracket escapes the span")
    if report.involutive is TriBool.UNKNOWN:
        raise PreconditionFailed("involutivity", "involutivity undetermined")
    last_error = None
    for subset in combinations(range(len(F)), ws.p):
        Xi = sp.Matrix([[F.members[j].xi[i] for i in range(ws.p)] for j in subset])
        det = normalize(Xi.det())
        det_verdict = zero_verdict(det, seed=seed).verdict
        if det_verdict is not ZeroVerdict.NONZERO:
            last_error = f"subset {subset}: xi-minor {print_expr(det)} not invertible"
            continue
        W = Xi.T.inv()
        rhs = {}
        for k in range(ws.p):
            for a in range(ws.q):
                rhs[(a, k)] = sp.Add(*[W[j, k] * F.members[subset[j]].phi[a]
                                       for j in range(ws.p)])
        nf = NormalFormSystem(ws, rhs)
        assumptions = []
        if det.free_symbols:
            assumptions.append(f"nonvanishing xi-minor: {print_expr(det)}")
        notes = []
        rect_abelian = is_abelian(VectorFieldFamily(ws, tuple(nf.fields())), seed=seed)
        if rect_abelian is TriBool.NO:
            raise PreconditionFailed(
                "rectify postcondition", "rectified family is not Abelian")
        if rect_abelian is TriBool.UNKNOWN:
            notes.append("rectified family Abelian check undetermined (opaque coefficients)")
        return RectifyResult(nf, subset, det, assumptions, notes)
    raise SingularXi(last_error or "no invertible xi-submatrix found")
