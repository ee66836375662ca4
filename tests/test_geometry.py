import random
from pathlib import Path

import pytest
import sympy as sp

from jetsym import TriBool, Workspace, ZeroVerdict, algebra, geometry, is_zero, normalize
from jetsym.errors import PreconditionFailed
from jetsym.geometry import (VectorFieldFamily, analyze_distribution,
                             generic_rank, is_abelian, is_involutive,
                             lie_bracket, projects_onto_tx, rectify, z_form)
from jetsym.jets import VectorField, prolong
from jetsym.problem import load_problem

from conftest import add_fields, random_poly

ONE = sp.Integer(1)
ZERO = sp.Integer(0)


@pytest.fixture
def nonlie(ws2):
    """The non-Lie pair {dx1 + du, dx2 + x1 du}."""
    x1 = ws2.independent[0]
    Y1 = VectorField(ws2, (ONE, ZERO), (ONE,))
    Y2 = VectorField(ws2, (ZERO, ONE), (x1,))
    return VectorFieldFamily(ws2, (Y1, Y2))


@pytest.fixture
def wave_pair(ws2):
    u = ws2.dependent[0]
    Z1 = VectorField(ws2, (ONE, ZERO), (u ** 2,))
    Z2 = VectorField(ws2, (ZERO, ONE), (u ** 2,))
    return VectorFieldFamily(ws2, (Z1, Z2))


@pytest.fixture
def wave_rectifiable(ws2):
    """{Y1, Y2 = exp(x2 + 1/u) (dx2 + u^2 du)}: non-Abelian but rectifiable."""
    u = ws2.dependent[0]
    x2 = ws2.independent[1]
    f = sp.exp(x2 + 1 / u)
    Y1 = VectorField(ws2, (ONE, ZERO), (u ** 2,))
    Y2 = VectorField(ws2, (ZERO, f), (u ** 2 * f,))
    return VectorFieldFamily(ws2, (Y1, Y2))


def test_bracket_nonlie_pair(nonlie):
    br = lie_bracket(nonlie.members[0], nonlie.members[1])
    assert br.xi == (0, 0)
    assert br.phi == (1,)  # = d/du, outside the span


def test_bracket_antisymmetry_and_jacobi(ws2, rng):
    xs = list(ws2.independent) + list(ws2.dependent)

    def rand_field():
        return VectorField(ws2, (random_poly(rng, xs, 1, 2), random_poly(rng, xs, 1, 2)),
                           (random_poly(rng, xs, 2, 2),))

    for _ in range(4):
        Y, Z, W = rand_field(), rand_field(), rand_field()
        same = lie_bracket(Y, Y)
        assert all(is_zero(c) is ZeroVerdict.ZERO for c in same.coefficient_row())
        anti = add_fields(lie_bracket(Y, Z), lie_bracket(Z, Y))
        assert all(is_zero(c) is ZeroVerdict.ZERO for c in anti.coefficient_row())
        jac = add_fields(lie_bracket(Y, lie_bracket(Z, W)), lie_bracket(Z, lie_bracket(W, Y)),
                         lie_bracket(W, lie_bracket(Y, Z)))
        assert all(is_zero(c) is ZeroVerdict.ZERO for c in jac.coefficient_row())


def test_bracket_wave_rectifiable_pair(wave_rectifiable):
    """[Y1, Y2] = -Y2 exactly."""
    Y1, Y2 = wave_rectifiable.members
    br = lie_bracket(Y1, Y2)
    diff = add_fields(br, Y2)
    assert all(normalize(c) == 0 for c in diff.coefficient_row())


def test_generic_rank(nonlie, ws2):
    assert generic_rank(nonlie).rank == 2
    u = ws2.dependent[0]
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ZERO, ZERO), (ONE,)),
                                VectorField(ws2, (ZERO, ZERO), (sp.Integer(2),))))
    assert generic_rank(F).rank == 1


def test_rank_degeneracy_note():
    ws = Workspace(["x"], ["u"], order_cap=1)
    x = ws.independent[0]
    F = VectorFieldFamily(ws, (VectorField(ws, (x,), (ONE,)),))
    assert generic_rank(F).rank == 1
    ok, notes = projects_onto_tx(F)
    assert ok  # generically true
    assert any("x = 0" in n or "x" in n for n in notes)  # x = 0 locus flagged


@pytest.mark.parametrize("tiny", [sp.Rational(1, 10 ** 12), sp.exp(-40)])
def test_tiny_pivot_is_exact(ws2, tiny):
    """A pivot far below any float tolerance still counts: the rank is exact
    at the sample point."""
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ONE, ZERO), (ZERO,)),
                                VectorField(ws2, (ONE, tiny), (ZERO,))))
    assert generic_rank(F).rank == 2
    assert projects_onto_tx(F) == (True, [])


def test_pivots_decide_constants_without_normalize(monkeypatch):
    """The kernel constants of rectify.jetsym's rows specialized at a sample
    point are decided by their values, with no normalize call."""
    problem = load_problem(Path(__file__).resolve().parent.parent / "problems" / "rectify.jetsym")
    rows = problem.fields().coefficient_rows()
    _, M = next(geometry._chart_samples(rows, problem.ws, None, 60))
    assert any(not e.is_Rational for e in M[0])
    calls = []
    real = algebra.normalize
    for module in (algebra, geometry):
        monkeypatch.setattr(module, "normalize", lambda e: calls.append(e) or real(e))
    assert geometry._pivots(M) == ([0, 1], [0, 1])
    assert calls == []


def test_generic_rank_is_exact_on_scaled_rows():
    """Random rational matrices of known rank, each row scaled by 10^-k with
    k in 0..20: the generic rank is the exact rank."""
    rng = random.Random(0x5CA1E)
    ws = Workspace(["x1", "x2"], ["u", "v"], order_cap=1)

    def rational():
        return sp.Rational(rng.randint(-9, 9), rng.randint(1, 9))

    for _ in range(30):
        nrows = rng.randint(1, 4)
        rank = rng.randint(0, nrows)
        A = sp.Matrix(nrows, rank, lambda i, j: rational())
        B = sp.Matrix(rank, 4, lambda i, j: rational())
        rows = [[e / 10 ** k for e in row]
                for row, k in zip((A * B).tolist(), [rng.randint(0, 20) for _ in range(nrows)])]
        F = VectorFieldFamily(ws, tuple(VectorField(ws, tuple(r[:2]), tuple(r[2:]))
                                        for r in rows))
        assert generic_rank(F).rank == sp.Matrix(rows).rank()


def test_projects_onto_tx(nonlie, ws2):
    ok, _ = projects_onto_tx(nonlie)
    assert ok
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ZERO, ZERO), (ONE,)),))
    ok, _ = projects_onto_tx(F)
    assert not ok


def test_is_involutive_nonlie(nonlie):
    report = is_involutive(nonlie)
    assert report.verdict is TriBool.NO


def test_is_involutive_single_field(ws2):
    u = ws2.dependent[0]
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ONE, ZERO), (u ** 2,)),))
    assert is_involutive(F).verdict is TriBool.YES


def test_is_involutive_wave_rectifiable(wave_rectifiable):
    report = is_involutive(wave_rectifiable)
    assert report.verdict is TriBool.YES
    f = report.structure_functions[(0, 1)]
    assert tuple(f) == (0, -1)


def test_analyze_distribution_ranks_once(monkeypatch):
    """A non-Abelian family: one generic rank, and its note appears once."""
    ws = Workspace(["t", "x"], ["u"], order_cap=1)
    t = ws.independent[0]
    F = VectorFieldFamily(ws, (VectorField(ws, (ONE, ZERO), (ZERO,)),
                               VectorField(ws, (ZERO, sp.exp(t)), (ZERO,))))
    calls = []
    real = geometry.generic_rank
    monkeypatch.setattr(geometry, "generic_rank",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    report = analyze_distribution(F)
    assert (report.abelian, report.involutive) == (TriBool.NO, TriBool.YES)
    assert report.degeneracy_notes == ["distribution pivot minor exp(t) is nonvanishing",
                                       "xi-block pivot minor exp(t) is nonvanishing"]
    assert len(calls) == 1
    assert is_involutive(F).notes == ["distribution pivot minor exp(t) is nonvanishing"]


def _random_z_family(rng, p, q, kind):
    """A family d/dx^j + phi^a_j d/du^a, j = 1..p, with its members out of
    slot order.  About half the families are Abelian by construction:
    phi^a_j = d_j G^a, times psi(u) when q = 1, has symmetric section
    derivatives."""
    ws = Workspace([f"x{i + 1}" for i in range(p)], ["u", "v"][:q], order_cap=1)
    xs, us = ws.independent, ws.dependent

    def term(syms):
        c = sp.Rational(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3))
        arg = c * rng.choice(syms)
        return arg if kind == "polynomial" else rng.choice([sp.exp, sp.sin])(arg)

    if rng.random() < 0.5:
        potentials = [term(xs) * term(xs) + term(xs) for _ in us]
        psi = 1 + term(us) if q == 1 else ONE
        phi = [[sp.diff(G, x) * psi for G in potentials] for x in xs]
    else:
        phi = [[term(xs + us) + term(xs + us) for _ in us] for _ in xs]
    members = [VectorField(ws, tuple(ONE if i == j else ZERO for i in range(p)),
                           tuple(phi[j])) for j in range(p)]
    order = list(range(p))
    while order == sorted(order):
        rng.shuffle(order)
    return VectorFieldFamily(ws, tuple(members[j] for j in order))


def test_z_form_family_is_read_off_exactly(monkeypatch):
    """For families in Z_j-form, analyze_distribution takes the Abelian
    verdict from the compatibility residuals: it agrees with the brackets,
    and no point is sampled and no bracket is taken."""
    rng = random.Random(0x2F0)
    families = [_random_z_family(rng, p, q, kind)
                for p in (2, 3) for q in (1, 2) for kind in ("polynomial", "exp-sin")]
    expected = [is_abelian(F) for F in families]
    assert {TriBool.YES, TriBool.NO} <= set(expected)
    calls = []
    for name in ("generic_rank", "projects_onto_tx", "lie_bracket", "_spanning_subset",
                 "sample_points"):
        monkeypatch.setattr(geometry, name,
                            lambda *args, name=name, **kw: calls.append(name))
    for F, abelian in zip(families, expected):
        report = analyze_distribution(F)
        assert report.abelian is abelian
        assert report.involutive is abelian
        assert (report.generic_rank, report.projects_onto_tx) == (F.ws.p, True)
        # no rank or projection notes; a non-Abelian family notes only the
        # bracket that leaves the span
        assert all(n.startswith("bracket [") for n in report.degeneracy_notes)
        assert not report.degeneracy_notes or abelian is TriBool.NO
        assert report.nf is not None
    assert calls == []


def test_z_form(ws2, wave_pair):
    x1, x2 = ws2.independent
    u = ws2.dependent[0]
    Z1, Z2 = wave_pair.members
    swapped = z_form(VectorFieldFamily(ws2, (VectorField(ws2, (ZERO, ONE), (x1,)),
                                             VectorField(ws2, (ONE, ZERO), (u,)))))
    assert swapped.rhs == {(0, 0): u, (0, 1): x1}
    assert z_form(wave_pair).rhs == {(0, 0): u ** 2, (0, 1): u ** 2}
    not_z = [
        (VectorField(ws2, (2 * ONE, ZERO), (u,)), Z2),      # a xi entry of 2
        (Z1, VectorField(ws2, (ONE, ZERO), (x2,))),         # two members on one slot
        (Z1, Z2, VectorField(ws2, (ONE, ZERO), (ZERO,))),   # p + 1 members
        (VectorField(ws2, (x1, ZERO), (u,)), Z2),           # a non-constant xi
    ]
    for members in not_z:
        assert z_form(VectorFieldFamily(ws2, members)) is None


def test_is_abelian(ws2, wave_pair, nonlie):
    assert is_abelian(wave_pair) is TriBool.YES
    assert is_abelian(nonlie) is TriBool.NO
    single = VectorFieldFamily(ws2, (wave_pair.members[0],))
    assert is_abelian(single) is TriBool.YES


def test_rectify_paper_fixture():
    ws = Workspace(["t", "x"], ["u"], order_cap=1)
    t, x = ws.independent
    Y1 = VectorField(ws, (sp.exp(-t), sp.exp(-x)), (sp.Integer(2),))
    Y2 = VectorField(ws, (sp.exp(-t), ZERO), (ONE,))
    result = rectify(VectorFieldFamily(ws, (Y1, Y2)))
    assert result.nf.rhs[(0, 0)] == sp.exp(t)
    assert result.nf.rhs[(0, 1)] == sp.exp(x)


def test_rectify_already_rectified(wave_pair):
    result = rectify(wave_pair)
    u = wave_pair.ws.dependent[0]
    assert result.nf.rhs[(0, 0)] == u ** 2
    assert result.nf.rhs[(0, 1)] == u ** 2


def test_rectify_rectifiable_pair(wave_rectifiable):
    result = rectify(wave_rectifiable)
    u = wave_rectifiable.ws.dependent[0]
    assert result.nf.rhs[(0, 0)] == u ** 2
    assert result.nf.rhs[(0, 1)] == u ** 2
    fields = result.nf.fields()
    assert is_abelian(VectorFieldFamily(wave_rectifiable.ws, tuple(fields))) is TriBool.YES


def test_rectify_precondition_failure(nonlie):
    with pytest.raises(PreconditionFailed) as err:
        rectify(nonlie)
    assert err.value.check == "involutivity"


def test_analyze_distribution_report(wave_rectifiable):
    report = analyze_distribution(wave_rectifiable)
    assert report.generic_rank == 2
    assert report.projects_onto_tx
    assert report.involutive is TriBool.YES
    assert report.abelian is TriBool.NO
    assert report.structure_functions[(0, 1)] == (0, -1)


def test_rectified_section_annihilates_input_characteristics(wave_rectifiable):
    """Operational S^n_L = S^n_L': the characteristics of every input member
    vanish on the rectified section."""
    from jetsym.jets import characteristic, restrict_to_section
    nf = rectify(wave_rectifiable).nf
    for Y in wave_rectifiable.members:
        for q in characteristic(Y):
            assert is_zero(restrict_to_section(q, nf)) is ZeroVerdict.ZERO


def test_prolonged_fields_tangent_to_section(wave_rectifiable):
    """Tangency criterion, operationally: j^n Z applied to each contact
    residual vanishes after restriction to the rectified section."""
    from jetsym.jets import contract_contact, restrict_to_section
    nf = rectify(wave_rectifiable).nf
    fields = nf.fields()
    n = 2
    prolonged = [prolong(Z, n) for Z in fields]
    for PZ in prolonged:
        for PY in prolonged:
            for K in [(0, 0), (1, 0), (0, 1)]:
                residual = contract_contact(PY, 0, K)
                val = PZ.apply_to(residual)
                assert is_zero(restrict_to_section(val, nf)) is ZeroVerdict.ZERO


def test_prolongation_commutes_with_bracket(ws2, rng):
    """prolong([Y,Z], n) equals [prolong(Y,n), prolong(Z,n)] coefficientwise."""
    xs = list(ws2.independent) + list(ws2.dependent)
    for _ in range(3):
        Y = VectorField(ws2, (random_poly(rng, xs, 1, 2), random_poly(rng, xs, 1, 2)),
                        (random_poly(rng, xs, 2, 2),))
        Z = VectorField(ws2, (random_poly(rng, xs, 1, 2), random_poly(rng, xs, 1, 2)),
                        (random_poly(rng, xs, 2, 2),))
        n = 2
        PB = prolong(lie_bracket(Y, Z), n)
        PY, PZ = prolong(Y, n), prolong(Z, n)
        # bracket of the prolonged fields, coefficient by coefficient
        for i, xsym in enumerate(ws2.independent):
            lhs = PY.apply_to(PZ.base.xi[i]) - PZ.apply_to(PY.base.xi[i])
            assert is_zero(lhs - PB.base.xi[i]) is ZeroVerdict.ZERO
        coords = [(0, K) for K in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]]
        for a, K in coords:
            jet = ws2.jet(a, K, auto_raise=True)
            lhs = PY.apply_to(PZ.coefficient(a, K)) - PZ.apply_to(PY.coefficient(a, K))
            assert is_zero(lhs - PB.coefficient(a, K)) is ZeroVerdict.ZERO
