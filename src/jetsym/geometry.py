"""Vector-field algebra on the base chart: Lie brackets, distribution rank,
projection onto the independent directions, involutivity, and rectification.

A family in Z_j-form (``z_form``) is read off exactly, with brackets from
its compatibility residuals.  For any other family, rank and projection
verdicts are generic: the coefficient matrix is specialized at random
exact-rational points and eliminated exactly there (``_pivots``), and
degeneracy loci are reported through the vanishing pivot minors rather than
computed exhaustively.  Structure-function solving divides by those minors;
the report carries them as declared nonvanishing assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import sympy as sp

from .algebra import (TriBool, ZeroVerdict, derive, evaluate_at, nonzero_constant,
                      normalize, sample_points, zero_verdict)
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
    """(point, rows specialized exactly) at random chart points where every
    entry evaluates to a finite real number."""
    syms = list(ws.independent) + list(ws.dependent) + list(ws.parameters.values())
    rng = random.Random(DEFAULT_SEED if seed is None else seed)

    def specialize(point):
        M = [[e.xreplace(point) for e in row] for row in rows]
        for v in chain.from_iterable(M):
            evaluate_at(v, {})
        return M

    return sample_points(syms, rng, specialize, draws)


def _pivots(M):
    """(pivot rows, pivot columns) of an exact Gaussian elimination of the
    specialized rows M.

    In each column the candidates are tried in order of float magnitude, the
    first row winning a tie; floats only order them.  The pivot is the first
    candidate that ``nonzero_constant`` finds nonzero, which for a Rational
    is an exact comparison with 0.
    """
    rows = [list(r) for r in M]
    row_idx = list(range(len(rows)))
    piv_rows, piv_cols = [], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(piv_rows)
        if r == len(rows):
            break
        candidates = sorted(range(r, len(rows)),
                            key=lambda i: -abs(evaluate_at(rows[i][c], {})))
        best = next((i for i in candidates if nonzero_constant(rows[i][c])), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        row_idx[r], row_idx[best] = row_idx[best], row_idx[r]
        piv_rows.append(row_idx[r])
        piv_cols.append(c)
        for i in range(r + 1, len(rows)):
            factor = rows[i][c] / rows[r][c]
            rows[i][c:] = [a - factor * b for a, b in zip(rows[i][c:], rows[r][c:])]
    return piv_rows, piv_cols


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
    """Rank of the rows at the first sample point where it is full, else the
    highest rank at up to three points.  The exact rank at a point falls
    below the generic rank only on the zero set of a pivot minor."""
    pivots = None
    for _, M in islice(_chart_samples(rows, ws, seed, 60), 3):
        trial = _pivots(M)
        if pivots is None or len(trial[0]) > len(pivots[0]):
            pivots = trial
        if len(pivots[0]) == min(len(rows), len(rows[0])):
            break
    if pivots is None:
        raise SpecializationFailed(
            f"no evaluable specialization found for the {label} coefficient matrix")
    note = _minor_note(rows, *pivots, label)
    return RankReport(rank=len(pivots[0]), notes=[note] if note else [])


def generic_rank(F, seed=None):
    """Generic rank of the l x (p+q) coefficient matrix, exact at sample points."""
    return _generic_rank_of_rows(F.coefficient_rows(), F.ws, seed, "distribution")


def projects_onto_tx(F, seed=None):
    """True iff the xi-block has generic rank p; degeneracy loci in the notes."""
    report = _generic_rank_of_rows([list(m.xi) for m in F.members], F.ws, seed, "xi-block")
    return report.rank == F.ws.p, report.notes


def _all_zero(exprs, seed):
    """(Yes, None) iff every expression is Zero; (No, i) at the first NonZero
    exprs[i]; (Unknown, None) otherwise."""
    verdict = TriBool.YES
    for i, e in enumerate(exprs):
        v = zero_verdict(e, seed=seed).verdict
        if v is ZeroVerdict.NONZERO:
            return TriBool.NO, i
        if v is ZeroVerdict.UNKNOWN:
            verdict = TriBool.UNKNOWN
    return verdict, None


def is_abelian(F, seed=None):
    """Yes iff all pairwise brackets vanish (three-valued)."""
    return _all_zero((e for j, k in combinations(range(len(F)), 2)
                      for e in lie_bracket(F.members[j], F.members[k]).coefficient_row()),
                     seed)[0]


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
    """The Abelian verdict of the induced fields Z_j, Yes iff every
    compatibility residual is Zero, and the first NonZero residual
    (a, j, k, residual) or None."""
    residuals = compatibility_residuals(nf)
    verdict, i = _all_zero([res for *_, res in residuals], seed)
    return verdict, None if i is None else residuals[i]


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
    """The first `rank` members, in input order, whose rows are independent at
    a sample point, and the chart rows on which their minor there is nonzero."""
    for _, M in _chart_samples(F.coefficient_rows(), F.ws, seed, 40):
        rows, members = _pivots(list(zip(*M)))
        if len(members) >= rank:
            return tuple(members[:rank]), tuple(rows[:rank])
    raise SpecializationFailed("could not select a spanning subset")


def _solve_in_span(F, subset, rowsel, bracket):
    """Solve bracket = sum_m f^m V_m over the function field on the chart
    rows ``rowsel``, whose minor is nonzero; returns (coeffs, residuals, det)."""
    cols = [F.members[i].coefficient_row() for i in subset]
    b = bracket.coefficient_row()
    S = sp.Matrix([[col[r] for col in cols] for r in rowsel])
    det = normalize(S.det())
    coeffs = [normalize(v) for v in S.solve(sp.Matrix([b[r] for r in rowsel]))]
    residuals = [normalize(sp.Add(*[col[r] * f for col, f in zip(cols, coeffs)]) - b[r])
                 for r in range(len(b))]
    return coeffs, residuals, det


def is_involutive(F, seed=None):
    """Each bracket solvable as a C-infinity combination of a spanning subset."""
    rank_report = generic_rank(F, seed=seed)
    report = _involutivity(F, rank_report.rank, seed)
    report.notes[:0] = rank_report.notes
    return report


def _involutivity(F, rank, seed):
    """``is_involutive`` for a known generic rank; its notes omit the rank's."""
    subset, rowsel = _spanning_subset(F, rank, seed)
    verdict = TriBool.YES
    structure = {}
    assumptions = []
    notes = []
    for j, k in combinations(range(len(F)), 2):
        br = lie_bracket(F.members[j], F.members[k])
        if br.is_zero_field():
            structure[(j, k)] = tuple(sp.Integer(0) for _ in subset)
            continue
        coeffs, residuals, det = _solve_in_span(F, subset, rowsel, br)
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
    projection onto TX, and the Abelian verdict from its compatibility
    residuals.  Its bracket [Z_j, Z_k] has xi-part 0, so it lies in the span
    only when it is 0: the family is involutive exactly when it is Abelian.
    """
    nf = z_form(F)
    if nf is None:
        rank_report = generic_rank(F, seed=seed)
        projects, proj_notes = projects_onto_tx(F, seed=seed)
        rank, notes = rank_report.rank, rank_report.notes + proj_notes
        abelian = is_abelian(F, seed=seed)
    else:
        rank, projects, notes = F.ws.p, True, []
        abelian, escape = _nf_abelian(nf, seed)
    if abelian is TriBool.YES:
        inv = InvolutivityReport(TriBool.YES, {}, tuple(range(len(F))), [], [])
    elif nf is None:
        inv = _involutivity(F, rank, seed)
    else:
        inv = InvolutivityReport(abelian, None, tuple(range(len(F))), [], [])
        if escape is not None:
            # [Z_j, Z_k] = res d/du^a for slots j < k, and the residual of
            # the zero combination is minus the bracket
            _, j, k, res = escape
            slots = [m.xi.index(1) for m in F.members]
            j, k = slots.index(j), slots.index(k)
            inv.notes.append(f"bracket [{min(j, k)},{max(j, k)}] leaves the span: "
                             f"residual {print_expr(-res if j < k else res)}")
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
            abelian = _nf_abelian(nf, seed)[0]
        if abelian is TriBool.NO:
            raise PreconditionFailed(
                "rectify postcondition", "rectified family is not Abelian")
        assumptions = ([f"nonvanishing xi-minor: {print_expr(det)}"]
                       if det.free_symbols else [])
        notes = (["rectified family Abelian check undetermined (opaque coefficients)"]
                 if abelian is TriBool.UNKNOWN else [])
        return RectifyResult(nf, subset, det, assumptions, notes)
    raise SingularXi(last_error or "no invertible xi-submatrix found")
