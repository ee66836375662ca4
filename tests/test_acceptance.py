"""Acceptance suite: the exit criteria, one test per criterion.

Each criterion prints a PASS line on success (run with ``pytest -s`` to see
them inline); a failing assertion is the FAIL line.  Golden forms are written
out explicitly and matched structurally up to a nonzero rational multiple.
"""

import json
import random
from pathlib import Path

import pytest
import sympy as sp

from jetsym import (TriBool, Workspace, ZeroVerdict, diff, is_zero, normalize,
                    parse)
from jetsym.algebra import evaluate_at
from jetsym.cli import main
from jetsym.condsym import NormalFormSystem, build_ansatz, compatibility_residuals
from jetsym.errors import PreconditionFailed
from jetsym.families import AnsatzFamily, collect_family
from jetsym.geometry import (VectorFieldFamily, is_abelian, is_involutive,
                             lie_bracket, rectify)
from jetsym.jets import VectorField, prolong, total_derivative
from jetsym.liesys import build_pde_lie_system, solve_solvable_q1
from jetsym.problem import load_problem

from conftest import add_fields, evaluable_points, proportional, random_expr, random_poly

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _pass(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def run_json(capsys, *args):
    rc = main([str(a) for a in args] + ["--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


def equations_from(data, prefix):
    out = []
    for line in data["equations"]:
        if line.startswith(prefix):
            body = line[len(prefix):].strip()
            assert body.endswith("= 0")
            out.append(body[:-3].strip())
    return out


def match_up_to_constant(ws, generated_texts, golden_texts):
    generated = [parse(t, ws) for t in generated_texts]
    golden = [parse(t, ws) for t in golden_texts]
    remaining = list(generated)
    for g in golden:
        hits = [e for e in remaining if proportional(e, g)]
        assert len(hits) == 1, f"golden form {g} matched {len(hits)} equations"
        remaining.remove(hits[0])
    assert not remaining, f"extra equations beyond the golden set: {remaining}"


# -- 1 -----------------------------------------------------------------------

WAVE_GOLDEN_PDE = [
    "2*a2(x1,x2)*b2(x1,x2) - c3",
    "2*b2(x1,x2)*a1(x1,x2) + b1(x1,x2)*a2(x1,x2) + D(b2(x1,x2),x1) - c2",
    "2*b2(x1,x2)*a0(x1,x2) + b1(x1,x2)*a1(x1,x2) + D(b1(x1,x2),x1) - c1",
    "a0(x1,x2)*b1(x1,x2) + D(b0(x1,x2),x1) - c0",
    "2*a2(x1,x2)*b1(x1,x2) + a1(x1,x2)*b2(x1,x2) + D(a2(x1,x2),x2) - c2",
    "2*a2(x1,x2)*b0(x1,x2) + a1(x1,x2)*b1(x1,x2) + D(a1(x1,x2),x2) - c1",
    "a1(x1,x2)*b0(x1,x2) + D(a0(x1,x2),x2) - c0",
]
WAVE_GOLDEN_COMPAT = [
    "2*b2(x1,x2)*a1(x1,x2) + b1(x1,x2)*a2(x1,x2) + D(b2(x1,x2),x1)"
    " - (2*a2(x1,x2)*b1(x1,x2) + a1(x1,x2)*b2(x1,x2) + D(a2(x1,x2),x2))",
    "2*b2(x1,x2)*a0(x1,x2) + b1(x1,x2)*a1(x1,x2) + D(b1(x1,x2),x1)"
    " - (2*a2(x1,x2)*b0(x1,x2) + a1(x1,x2)*b1(x1,x2) + D(a1(x1,x2),x2))",
    "a0(x1,x2)*b1(x1,x2) + D(b0(x1,x2),x1)"
    " - (a1(x1,x2)*b0(x1,x2) + D(a0(x1,x2),x2))",
]


def test_criterion_1_wave_determining_system(capsys):
    """Degree-2 polynomial ansatz into u_{x1,x2} = c3 u^3 + ... + c0: exactly
    the seven coefficient equations plus three compatibility equalities."""
    rc, data = run_json(capsys, "derive-determining", PROBLEMS / "wave.jetsym")
    assert rc == 0
    pde_eqs = equations_from(data, "pde:")
    compat_eqs = equations_from(data, "compatibility:")
    assert len(pde_eqs) == 7
    assert len(compat_eqs) == 3
    problem = load_problem(PROBLEMS / "wave.jetsym")
    build_ansatz(AnsatzFamily("polynomial", 2), problem.ws)  # register a*/b*
    match_up_to_constant(problem.ws, pde_eqs, WAVE_GOLDEN_PDE)
    match_up_to_constant(problem.ws, compat_eqs, WAVE_GOLDEN_COMPAT)
    _pass(1, "seven wave determining equations + three compatibility equalities")


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_wave_symmetry_instance(capsys):
    """a2 = b2 = 1 instance: verify-symmetry Yes on u_{x1,x2} = 2u^3 and
    verify-solution Zero for u = -1/(x1 + x2 + lam) on the DCs and the PDE."""
    rc, data = run_json(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym")
    assert rc == 0
    head = data["verdicts"][0]
    assert head["verdict"] == "Yes"
    assert "7.6" in head["justification"]
    rc, data = run_json(capsys, "verify-solution", PROBLEMS / "wave.jetsym")
    assert rc == 0
    labels = {row["name"] for row in data["verdicts"]}
    assert len(labels) == 3  # the PDE and both differential constraints
    assert all(row["verdict"] == "Zero" for row in data["verdicts"])
    _pass(2, "Z1, Z2 verified via tangency; u = -1/(x1+x2+lam) solves DCs + PDE")


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_rectifiable_family(capsys):
    """{Y1, Y2 = exp(x2 + 1/u)(dx2 + u^2 du)} is verified via rectification
    and the bracket reproduces [Y1, Y2] = -Y2 exactly."""
    rc, data = run_json(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym",
                        "--fields", "rectifiable")
    assert rc == 0
    head = data["verdicts"][0]
    assert head["verdict"] == "Yes"
    assert "7.4" in head["justification"]
    problem = load_problem(PROBLEMS / "wave.jetsym")
    Y1, Y2 = problem.fields("rectifiable").members
    br = lie_bracket(Y1, Y2)
    residual = add_fields(br, Y2)  # [Y1, Y2] + Y2 must vanish coefficientwise
    assert all(normalize(c) == 0 for c in residual.coefficient_row())
    _pass(3, "rectifiable family verified; [Y1,Y2] = -Y2 exactly")


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_rectification_fixture(capsys):
    """rectify({e^-t dt + e^-x dx + 2 du, e^-t dt + du})
    = {dt + e^t du, dx + e^x du} exactly."""
    problem = load_problem(PROBLEMS / "rectify.jetsym")
    ws = problem.ws
    t, x = ws.independent
    result = rectify(problem.fields())
    assert result.nf.rhs[(0, 0)] == sp.exp(t)
    assert result.nf.rhs[(0, 1)] == sp.exp(x)
    rc, data = run_json(capsys, "analyze-distribution", PROBLEMS / "rectify.jetsym")
    assert rc == 0
    assert any("u_{t} = exp(t)" in e for e in data["equations"])
    assert any("u_{x} = exp(x)" in e for e in data["equations"])
    _pass(4, "rectified basis {dt + e^t du, dx + e^x du} reproduced exactly")


# -- 5 -----------------------------------------------------------------------

GC_GOLDEN_PDE = [
    # Re(con1), Re(con2), Re(con3), con4, con5 (con4/con5 are purely real)
    "D(eta0r(x1,x2),x1) - D(eta0i(x1,x2),x2)",
    "D(eta1r(x1,x2),x1) - D(eta1i(x1,x2),x2)"
    " - eta0r(x1,x2)*eta1r(x1,x2) - eta0i(x1,x2)*eta1i(x1,x2)",
    "D(eta2r(x1,x2),x1) - D(eta2i(x1,x2),x2)"
    " + eta0r(x1,x2)*eta2r(x1,x2) + eta0i(x1,x2)*eta2i(x1,x2)",
    "H(x1,x2)^2 + eta2r(x1,x2)^2 + eta2i(x1,x2)^2",
    "eta1r(x1,x2)^2 + eta1i(x1,x2)^2 + 4*Qr(x1,x2)^2 + 4*Qi(x1,x2)^2",
]
GC_GOLDEN_COMPAT = [
    # Im(con1), Im(con2), Im(con3)
    "D(eta0i(x1,x2),x1) + D(eta0r(x1,x2),x2)"
    " + 2*eta1r(x1,x2)*eta2i(x1,x2) - 2*eta1i(x1,x2)*eta2r(x1,x2)",
    "D(eta1i(x1,x2),x1) + D(eta1r(x1,x2),x2)"
    " - eta0r(x1,x2)*eta1i(x1,x2) + eta0i(x1,x2)*eta1r(x1,x2)",
    "D(eta2i(x1,x2),x1) + D(eta2r(x1,x2),x2)"
    " + eta0r(x1,x2)*eta2i(x1,x2) - eta0i(x1,x2)*eta2r(x1,x2)",
]


def test_criterion_5_gauss_codazzi_determining(capsys):
    """The exponential ansatz in the first Gauss-Codazzi equation yields the
    five conditions after real/imaginary splitting: the PDE rows carry the
    real parts (with H^2 + |eta2|^2 and |eta1|^2 + 4|Q|^2 purely real) and
    the compatibility rows carry the imaginary parts."""
    rc, data = run_json(capsys, "derive-determining",
                        PROBLEMS / "gauss-codazzi.jetsym")
    assert rc == 0
    pde_eqs = equations_from(data, "pde:")
    compat_eqs = equations_from(data, "compatibility:")
    assert len(pde_eqs) == 5
    assert len(compat_eqs) == 3
    ws = load_problem(PROBLEMS / "gauss-codazzi.jetsym").ws
    match_up_to_constant(ws, pde_eqs, GC_GOLDEN_PDE)
    match_up_to_constant(ws, compat_eqs, GC_GOLDEN_COMPAT)
    _pass(5, "five Gauss-Codazzi conditions recovered in split real form")


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_gauss_codazzi_integration(capsys):
    """solve-liesys on the eta0 = 0, alpha = 1 instance integrates to
    u = 2 log(x1/2 + lam), verified Zero symbolically and within 1e-9
    relative at 5 random points."""
    rc, data = run_json(capsys, "solve-liesys", PROBLEMS / "gauss-codazzi.jetsym")
    assert rc == 0
    assert all(row["verdict"] == "Zero" for row in data["verdicts"])
    problem = load_problem(PROBLEMS / "gauss-codazzi.jetsym")
    ws = problem.ws
    u_sol = parse(data["solution"]["u"], ws)
    x1 = ws.independent[0]
    lam = ws.parameters["lam"]
    assert normalize(u_sol - 2 * sp.log(x1 / 2 + lam)) == 0
    # numerical spot check of both constraints at 5 random points
    u = ws.dependent[0]
    residuals = [sp.diff(u_sol, x1) - sp.exp(-u_sol / 2),
                 sp.diff(u_sol, ws.independent[1])]
    rng = random.Random(0x6C6)
    checked = 0
    while checked < 5:
        point = {x1: sp.Rational(rng.randint(1, 12), rng.randint(1, 6)),
                 ws.independent[1]: sp.Rational(rng.randint(-12, 12), 5),
                 lam: sp.Rational(rng.randint(1, 12), rng.randint(1, 6))}
        vals = [evaluate_at(r, point) for r in residuals]
        assert all(abs(v) <= 1e-9 for v in vals)
        checked += 1
    _pass(6, "PDELieImm instance integrated to u = 2*log(x1/2 + lam), checked "
             "symbolically and at 5 random points")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_liouville_pipeline(capsys):
    """u = h(t) - 2 log(x1^2 - x2^2 + lam) solves the generalized Liouville
    equation and its DCs exactly; the multi-mode instance with g(t) = e^t,
    omega_j = x_j^2 verifies Zero."""
    rc, data = run_json(capsys, "verify-solution", PROBLEMS / "liouville.jetsym")
    assert rc == 0
    rows = {row["name"]: row for row in data["verdicts"]}
    backlund = [r for name, r in rows.items() if name.startswith("backlund:")]
    multimode = [r for name, r in rows.items() if name.startswith("multimode:")]
    assert len(backlund) == 4   # GLE + three differential constraints
    assert len(multimode) == 1  # GLE only
    assert all(r["verdict"] == "Zero" for r in backlund + multimode)
    assert all(r["confidence"] == "structural" for r in backlund)
    # the solver reproduces the same superposition formula from the DCs
    problem = load_problem(PROBLEMS / "liouville.jetsym")
    ws = problem.ws
    nf = rectify(problem.fields()).nf
    sol = solve_solvable_q1(build_pde_lie_system(nf))
    h = ws.functions["h"]
    t, x1, x2 = ws.independent
    lam = ws.parameters["lam"]
    expected = h - 2 * sp.log(x1 ** 2 - x2 ** 2 + lam)
    assert normalize(sp.exp(sol.u_expr - expected)) == 1
    _pass(7, "Liouville superposition u = h(t) - 2*log(x1^2 - x2^2 + lam) "
             "verified exactly; multi-mode instance Zero")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8a_compatibility_iff_abelian():
    rng = random.Random(0x8A)
    per_class = {True: 0, False: 0}
    while min(per_class.values()) < 10:
        ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
        x1, x2 = ws.independent
        u = ws.dependent[0]
        if per_class[True] < 10 and rng.random() < 0.5:
            G = random_poly(rng, [x1, x2], degree=2, terms=3)
            psi = random_poly(rng, [u], degree=2, terms=2)
            nf = NormalFormSystem(ws, {(0, 0): sp.diff(G, x1) * psi,
                                       (0, 1): sp.diff(G, x2) * psi})
        else:
            nf = NormalFormSystem(ws, {(0, 0): random_poly(rng, [x1, x2, u], 2, 3),
                                       (0, 1): random_poly(rng, [x1, x2, u], 2, 3)})
        residuals = [r for _, _, _, r in compatibility_residuals(nf)]
        all_zero = all(is_zero(r) is ZeroVerdict.ZERO for r in residuals)
        abelian = is_abelian(VectorFieldFamily(ws, tuple(nf.fields()))) is TriBool.YES
        assert all_zero == abelian
        if per_class[all_zero] < 10:
            per_class[all_zero] += 1
    _pass("8a", "compatibility residuals all Zero <=> Abelian fields "
                "(10 random systems per class)")


def test_criterion_8b_prolongation_bracket_commutation():
    rng = random.Random(0x8B)
    n = 2
    for _ in range(20):
        ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
        xs = list(ws.independent) + list(ws.dependent)

        def rand_field():
            return VectorField(ws, (random_poly(rng, xs, 1, 2),
                                    random_poly(rng, xs, 1, 2)),
                               (random_poly(rng, xs, 2, 2),))

        Y, Z = rand_field(), rand_field()
        PB = prolong(lie_bracket(Y, Z), n)
        PY, PZ = prolong(Y, n), prolong(Z, n)
        for i in range(ws.p):
            lhs = PY.apply_to(PZ.base.xi[i]) - PZ.apply_to(PY.base.xi[i])
            assert is_zero(lhs - PB.base.xi[i]) is ZeroVerdict.ZERO
        for K in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            lhs = PY.apply_to(PZ.coefficient(0, K)) - PZ.apply_to(PY.coefficient(0, K))
            assert is_zero(lhs - PB.coefficient(0, K)) is ZeroVerdict.ZERO
    _pass("8b", "prolongation commutes with the bracket on 20 random pairs, n=2")


def test_criterion_8c_total_derivative_commutation():
    rng = random.Random(0x8C)
    for _ in range(20):
        ws = Workspace(["x1", "x2"], ["u"], order_cap=4, hard_cap=8)
        syms = [ws.independent[0], ws.independent[1], ws.dependent[0],
                ws.jet(0, (1, 0)), ws.jet(0, (0, 1))]
        e = random_expr(rng, syms)
        d12 = total_derivative(total_derivative(e, 0, ws), 1, ws)
        d21 = total_derivative(total_derivative(e, 1, ws), 0, ws)
        assert is_zero(d12 - d21) is ZeroVerdict.ZERO
    _pass("8c", "D_i D_j = D_j D_i on 20 random expressions")


def test_criterion_8d_finite_difference_oracle():
    rng = random.Random(0x8D)
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    syms = list(ws.independent) + list(ws.dependent)
    h = sp.Rational(1, 100000)
    checked = 0
    while checked < 10:
        e = random_expr(rng, syms)
        free = sorted(e.free_symbols, key=str)
        if not free:
            continue
        s = rng.choice(free)
        d = diff(e, s)
        for point in evaluable_points(e + d, random.Random(rng.randint(0, 10 ** 9)), 1):
            up, dn = dict(point), dict(point)
            up[s] = point[s] + h
            dn[s] = point[s] - h
            try:
                fd = (evaluate_at(e, up) - evaluate_at(e, dn)) / (2 * float(h))
                exact = evaluate_at(d, point)
            except ValueError:
                continue
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
            checked += 1
    _pass("8d", "finite differences agree with diff at 10 random points, 1e-6")


def test_criterion_8e_collect_reassembly():
    rng = random.Random(0x8E)
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    u = ws.dependent[0]
    xs = list(ws.independent)
    fam = AnsatzFamily("polynomial", 3)
    for _ in range(20):
        e = sum(random_poly(rng, xs, degree=2, terms=2) * u ** k for k in range(4))
        coeffs = collect_family(e, fam, [u])
        reassembled = sum(c * m for m, c in coeffs.items())
        assert is_zero(reassembled - e) is ZeroVerdict.ZERO
    _pass("8e", "collect reassembles 20 random family members exactly")


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_negative_fixtures(capsys):
    """The non-Lie pair yields involutive = No and a rectify precondition
    failure; the empty-intersection example reports unsatisfiable constraints."""
    rc, data = run_json(capsys, "analyze-distribution", PROBLEMS / "nonlie.jetsym")
    assert rc == 1
    rows = {row["name"]: row["verdict"] for row in data["verdicts"]}
    assert rows["involutive"] == "No"
    assert rows["rectifiable"] == "No"
    problem = load_problem(PROBLEMS / "nonlie.jetsym")
    assert is_involutive(problem.fields()).verdict is TriBool.NO
    with pytest.raises(PreconditionFailed) as err:
        rectify(problem.fields())
    assert err.value.check == "involutivity"

    rc, data = run_json(capsys, "verify-symmetry", PROBLEMS / "empty.jetsym")
    assert rc == 1
    rows = {row["name"]: row["verdict"] for row in data["verdicts"]}
    assert rows["constraint set"] == "unsatisfiable"
    assert any("empty" in n for n in data["notes"])
    _pass(9, "non-Lie pair rejected (involutive No, rectify precondition); "
             "empty intersection reported unsatisfiable")
