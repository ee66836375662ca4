"""Vector-field algebra on the base chart: Lie brackets, distribution rank,
projection onto the independent directions, involutivity, and rectification.

A family in Z_j-form (``z_form``) is read off exactly, with brackets from
its compatibility residuals.  Otherwise an exact elimination (``Elimination``)
of the coefficient rows gives rank, projection and the rectifying inverse,
and one of their columns the spanning subset and the span solve.
Degeneracy loci are reported through the pivot minors rather than computed
exhaustively; structure-function solving divides by those minors, and the
report carries them as declared nonvanishing assumptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import sympy as sp

from .algebra import Elimination, TriBool, ZeroVerdict, derive, difference, zero_verdict
from .errors import PreconditionFailed
from .grammar import print_expr
from .jets import NormalFormSystem, VectorField, compatibility_residuals


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
    coefficients are the normal forms Y(Z^c) - Z(Y^c), through ``derive``."""
    ws = Y.ws
    if ws is not Z.ws:
        raise ValueError("vector fields live on different workspaces")
    chart = ws.independent + ws.dependent
    ys, zs = Y.coefficient_row(), Z.coefficient_row()
    y_images, z_images = dict(zip(chart, ys)), dict(zip(chart, zs))
    out = [difference(derive(zc, y_images), derive(yc, z_images)) for yc, zc in zip(ys, zs)]
    return VectorField(ws, tuple(out[:ws.p]), tuple(out[ws.p:]))


# ---------------------------------------------------------------------------
# generic rank
# ---------------------------------------------------------------------------

@dataclass
class RankReport:
    rank: int
    notes: list = field(default_factory=list)
    elimination: Elimination = None  # of the coefficient rows


def _minor_notes(elimination, k, label):
    """Where the minor of the first k pivots vanishes: nowhere for a
    rational times exponentials."""
    det = elimination.minor(k)
    if not det.free_symbols:
        return []
    if all(type(f) is sp.exp for f in sp.Mul.make_args(det.as_coeff_Mul()[1])):
        return [f"{label} pivot minor {print_expr(det)} is nonvanishing"]
    return [f"{label} rank drops where {print_expr(det)} = 0"]


def generic_rank(F, seed=None):
    """Generic rank of the l x (p+q) coefficient matrix, by one exact
    elimination of its rows, whose first pivots are the xi-block's."""
    elimination = Elimination(F.coefficient_rows(), seed=seed)
    rank = len(elimination.cols)
    return RankReport(rank, _minor_notes(elimination, rank, "distribution"), elimination)


def projects_onto_tx(F, seed=None, rank_report=None):
    """True iff the xi-block has generic rank p, read off the elimination of
    ``generic_rank``; degeneracy loci in the notes."""
    elimination = (rank_report or generic_rank(F, seed=seed)).elimination
    k = sum(c < F.ws.p for c in elimination.cols)
    return k == F.ws.p, _minor_notes(elimination, k, "xi-block")


def _all_zero(exprs, seed):
    """(Yes, None) iff every expression is Zero; (No, i) at the first NonZero
    exprs[i]; (Unknown, i) at the first undecided exprs[i] otherwise."""
    verdict, first = TriBool.YES, None
    for i, e in enumerate(exprs):
        v = zero_verdict(e, seed=seed).verdict
        if v is ZeroVerdict.NONZERO:
            return TriBool.NO, i
        if v is ZeroVerdict.UNKNOWN and first is None:
            verdict, first = TriBool.UNKNOWN, i
    return verdict, first


def _bracket_note(j, k, verdict, residual):
    """The note on bracket [j,k], whose residual escapes the span (No) or is undecided."""
    status = " leaves the span:" if verdict is TriBool.NO else ": span membership undetermined,"
    return f"bracket [{j},{k}]{status} residual {print_expr(residual)}"


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


def is_involutive(F, seed=None):
    """Each bracket solvable as a C-infinity combination of a spanning subset."""
    rank_report = generic_rank(F, seed=seed)
    report = _involutivity(F, seed)
    report.notes[:0] = rank_report.notes
    return report


def _involutivity(F, seed):
    """``is_involutive`` without the rank's notes.  One elimination of the
    members' coefficient columns picks the spanning subset (the first
    independent members) and its chart rows, and carries every bracket to
    its coefficients over the subset and its residuals on the other rows."""
    pairs = list(combinations(range(len(F)), 2))
    brackets = [lie_bracket(F.members[j], F.members[k]) for j, k in pairs]
    columns = F.coefficient_rows() + [br.coefficient_row() for br in brackets]
    elimination = Elimination(list(zip(*columns)), carried=len(brackets), seed=seed)
    subset = tuple(elimination.cols)
    det = elimination.minor(len(subset))
    minor = [f"nonvanishing minor: {print_expr(det)}"] if det.free_symbols else []
    verdict = TriBool.YES
    structure = {}
    assumptions = []
    notes = []
    for i, ((j, k), br) in enumerate(zip(pairs, brackets)):
        if br.is_zero_field():
            structure[(j, k)] = tuple(sp.Integer(0) for _ in subset)
            continue
        coeffs, residuals = elimination.solution(len(F) + i)
        pair_verdict, escape = _all_zero(residuals, seed)
        if escape is not None:
            notes.append(_bracket_note(j, k, pair_verdict, residuals[escape]))
        if pair_verdict is TriBool.NO:
            return InvolutivityReport(TriBool.NO, None, subset, assumptions, notes)
        assumptions = minor
        if pair_verdict is TriBool.UNKNOWN:
            verdict = TriBool.UNKNOWN
        else:
            structure[(j, k)] = tuple(coeffs)
    if verdict is not TriBool.YES:
        structure = None
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
    elimination: Elimination = None  # of the coefficient rows, when nf is None


def analyze_distribution(F, seed=None):
    """Rank, projection, involutivity and the Abelian test of a family.

    A family in Z_j-form is read off as it stands: rank p,
    projection onto TX, and the Abelian verdict from its compatibility
    residuals.  Its bracket [Z_j, Z_k] has xi-part 0, so it lies in the span
    only when it is 0: the family is involutive exactly when it is Abelian.
    """
    nf, elimination = z_form(F), None
    if nf is None:
        rank_report = generic_rank(F, seed=seed)
        projects, proj_notes = projects_onto_tx(F, rank_report=rank_report)
        rank, notes = rank_report.rank, rank_report.notes + proj_notes
        elimination = rank_report.elimination
        abelian = is_abelian(F, seed=seed)
    else:
        rank, projects, notes = F.ws.p, True, []
        abelian, escape = _nf_abelian(nf, seed)
    if abelian is TriBool.YES:
        inv = InvolutivityReport(TriBool.YES, {}, tuple(range(len(F))), [], [])
    elif nf is None:
        inv = _involutivity(F, seed)
    else:
        inv = InvolutivityReport(abelian, None, tuple(range(len(F))), [], [])
        if escape is not None:
            # [Z_j, Z_k] = res d/du^a for slots j < k, and the residual of
            # the zero combination is minus the bracket
            _, j, k, res = escape
            slots = [m.xi.index(1) for m in F.members]
            j, k = slots.index(j), slots.index(k)
            inv.notes.append(_bracket_note(min(j, k), max(j, k), abelian, -res if j < k else res))
    return DistributionReport(rank, projects, inv.verdict, abelian, inv.structure_functions,
                              inv.spanning_subset, inv.assumptions, notes + inv.notes, nf,
                              elimination)


@dataclass
class RectifyResult:
    nf: NormalFormSystem
    subset: tuple
    det: object
    assumptions: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def rectify(F, seed=None, precomputed=None):
    """Rewrite a rectifiable family in the basis Z_k = d/dx^k + phi^a_k d/du^a.

    The elimination of the members' coefficient rows in the distribution
    report has, at rank p with projection, its p pivots in the xi-block: its
    pivot rows are the members whose xi-minor is inverted, reduced to the
    Z_k.  A family already in Z_j-form keeps the normal form of its report,
    and its xi-minor is the sign of its slot order.  Preconditions: generic
    rank p, projection onto the independent directions, involutivity.
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
    if report.nf is not None:
        # involutive, so Abelian
        slots = [m.xi.index(1) for m in F.members]
        inversions = sum(a > b for a, b in combinations(slots, 2))
        return RectifyResult(report.nf, tuple(range(ws.p)), sp.Integer(-1) ** inversions)
    elimination = report.elimination
    phi = [elimination.solution(ws.p + a)[0] for a in range(ws.q)]
    nf = NormalFormSystem(ws, {(a, k): phi[a][k] for k in range(ws.p) for a in range(ws.q)})
    # the jet values behind the residuals stay memoized in nf for
    # the restrictions that follow
    abelian = _nf_abelian(nf, seed)[0]
    if abelian is TriBool.NO:
        raise PreconditionFailed(
            "rectify postcondition", "rectified family is not Abelian")
    det = elimination.minor(ws.p)
    assumptions = ([f"nonvanishing xi-minor: {print_expr(det)}"]
                   if det.free_symbols else [])
    notes = (["rectified family Abelian check undetermined (opaque coefficients)"]
             if abelian is TriBool.UNKNOWN else [])
    return RectifyResult(nf, tuple(sorted(elimination.rows)), det, assumptions, notes)
