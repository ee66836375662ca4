"""Vector-field algebra on the base chart: Lie brackets, distribution rank,
projection onto the independent directions, involutivity, and rectification.

A family in Z_j-form (``z_form``) is read off exactly, with brackets from
its compatibility residuals.  For any other family, rank and projection
verdicts are generic: the coefficient matrix is specialized at random
exact-rational points (majority of three trials) and degeneracy loci are
reported through the vanishing pivot minors rather than computed
exhaustively.  Structure-function solving divides by those minors; the
report carries them as declared nonvanishing assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, islice

import sympy as sp

from .algebra import (TriBool, ZeroVerdict, derive, evaluate_at, normalize,
                      sample_points, zero_verdict)
from .errors import PreconditionFailed, SingularXi, SpecializationFailed
from .grammar import print_expr
from .jets import NormalFormSystem, VectorField, compatibility_residuals
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


def lie_bracket(Y, Z):
    """[Y, Z] on J0: the commutator of first-order operators, whose
    coefficients are Y(Z^c) - Z(Y^c), each applied through ``derive``."""
    ws = Y.ws
    if ws is not Z.ws:
        raise ValueError("vector fields live on different workspaces")
    chart = ws.independent + ws.dependent
    ys, zs = Y.coefficient_row(), Z.coefficient_row()
    y_images, z_images = dict(zip(chart, ys)), dict(zip(chart, zs))
    out = [derive(zc, y_images) - derive(yc, z_images) for yc, zc in zip(ys, zs)]
    return VectorField(ws, tuple(out[:ws.p]), tuple(out[ws.p:]))


# ---------------------------------------------------------------------------
# generic rank machinery
# ---------------------------------------------------------------------------

def _chart_samples(rows, ws, seed, draws):
    """(point, numeric rows) at random chart points where every entry evaluates."""
    syms = list(ws.independent) + list(ws.dependent) + list(ws.parameters.values())
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    return sample_points(
        syms, rng, lambda point: [[evaluate_at(e, point) for e in row] for row in rows],
        draws)


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
    report = _generic_rank_of_rows([list(m.xi) for m in F.members], F.ws, seed, "xi-block")
    return report.rank == F.ws.p, report.notes


def _all_zero(exprs, seed):
    """Yes iff every expression is Zero; No at the first NonZero (three-valued)."""
    verdict = TriBool.YES
    for e in exprs:
        v = zero_verdict(e, seed=seed).verdict
        if v is ZeroVerdict.NONZERO:
            return TriBool.NO
        if v is ZeroVerdict.UNKNOWN:
            verdict = TriBool.UNKNOWN
    return verdict


def is_abelian(F, seed=None):
    """Yes iff all pairwise brackets vanish (three-valued)."""
    return _all_zero((e for j, k in combinations(range(len(F)), 2)
                      for e in lie_bracket(F.members[j], F.members[k]).coefficient_row()),
                     seed)


def _member_bracket(F):
    return lambda j, k: lie_bracket(F.members[j], F.members[k])


# ---------------------------------------------------------------------------
# families in Z_j-form
# ---------------------------------------------------------------------------

def z_form(F):
    """The normal form u^a_{x_j} = phi^a_j of a family in Z_j-form, else None.

    Such a family has p members d/dx^j + phi^a_j d/du^a, one for each slot j,
    in any order.  It is rectified as it stands: its xi-block is a
    permutation matrix, so its rank is p and it projects onto TX exactly.
    """
    ws = F.ws
    units = [tuple(int(i == j) for i in range(ws.p)) for j in range(ws.p)]
    slots = [units.index(m.xi) for m in F.members if m.xi in units]
    if len(F) != ws.p or sorted(slots) != list(range(ws.p)):
        return None
    return NormalFormSystem(ws, {(a, j): m.phi[a] for j, m in zip(slots, F.members)
                                 for a in range(ws.q)})


def _nf_abelian(nf, seed):
    """Yes iff the induced fields Z_j commute: every compatibility residual is Zero."""
    return _all_zero((res for *_, res in compatibility_residuals(nf)), seed)


def _z_bracket(F, nf):
    """Member brackets of a family in Z_j-form, read off its compatibility
    residuals."""
    phi = {}
    for a, j, k, res in compatibility_residuals(nf):
        phi[(a, j, k)], phi[(a, k, j)] = res, -res
    ws, slot = F.ws, [m.xi.index(1) for m in F.members]
    return lambda j, k: VectorField(ws, (sp.S.Zero,) * ws.p, tuple(
        phi[(a, slot[j], slot[k])] for a in range(ws.q)))


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
    Mnum = [[evaluate_at(cols[c][r], point) for c in range(m)] for r in range(nrows)]
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
        residuals = [normalize(sp.Add(*[cols[c][r] * coeffs[c] for c in range(m)]) - b[r])
                     for r in range(nrows)]
        return coeffs, residuals, det
    return None


def is_involutive(F, seed=None):
    """Each bracket solvable as a C-infinity combination of a spanning subset."""
    rank_report = generic_rank(F, seed=seed)
    report = _involutivity(F, rank_report.rank, seed, _member_bracket(F))
    report.notes[:0] = rank_report.notes
    return report


def _involutivity(F, rank, seed, bracket):
    """``is_involutive`` for a known generic rank, with ``bracket(j, k)`` the
    bracket of members j and k; its notes omit the rank's."""
    subset, point = _spanning_subset(F, rank, seed)
    verdict = TriBool.YES
    structure = {}
    assumptions = []
    notes = []
    for j, k in combinations(range(len(F)), 2):
        br = bracket(j, k)
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
    nf: NormalFormSystem = None  # the normal form of a Z_j-form family


def analyze_distribution(F, seed=None):
    """Rank, projection, involutivity and the Abelian test of a family.

    A family in Z_j-form is read off exactly, without sampling: rank p,
    projection onto TX, and brackets from its compatibility residuals.
    """
    nf = z_form(F)
    if nf is None:
        rank_report = generic_rank(F, seed=seed)
        projects, proj_notes = projects_onto_tx(F, seed=seed)
        rank, notes = rank_report.rank, rank_report.notes + proj_notes
        abelian, bracket = is_abelian(F, seed=seed), _member_bracket(F)
    else:
        rank, projects, notes = F.ws.p, True, []
        abelian, bracket = _nf_abelian(nf, seed), _z_bracket(F, nf)
    if abelian is TriBool.YES:
        inv = InvolutivityReport(TriBool.YES, {}, tuple(range(len(F))), [], [])
    else:
        inv = _involutivity(F, rank, seed, bracket)
    return DistributionReport(rank, projects, inv.verdict, abelian, inv.structure_functions,
                              inv.spanning_subset, inv.assumptions, notes + inv.notes, nf)


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
    in input order).  A family already in Z_j-form keeps the normal form of
    its distribution report.  Preconditions: generic rank p, projection onto
    the independent directions, involutivity.
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
        if zero_verdict(det, seed=seed).verdict is not ZeroVerdict.NONZERO:
            last_error = f"subset {subset}: xi-minor {print_expr(det)} not invertible"
            continue
        if report.nf is not None:
            nf, abelian = report.nf, report.abelian
        else:
            W = Xi.T.inv()
            nf = NormalFormSystem(ws, {
                (a, k): sp.Add(*[W[j, k] * F.members[subset[j]].phi[a]
                                 for j in range(ws.p)])
                for k in range(ws.p) for a in range(ws.q)})
            # the jet values behind the residuals stay memoized in nf for
            # the restrictions that follow
            abelian = _nf_abelian(nf, seed)
        if abelian is TriBool.NO:
            raise PreconditionFailed(
                "rectify postcondition", "rectified family is not Abelian")
        assumptions = ([f"nonvanishing xi-minor: {print_expr(det)}"]
                       if det.free_symbols else [])
        notes = (["rectified family Abelian check undetermined (opaque coefficients)"]
                 if abelian is TriBool.UNKNOWN else [])
        return RectifyResult(nf, subset, det, assumptions, notes)
    raise SingularXi(last_error or "no invertible xi-submatrix found")
