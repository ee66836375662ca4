import contextlib
import io
import json
import random
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetsym import Workspace, ZeroVerdict, is_zero, liesys, normalize
from jetsym.algebra import derive
from jetsym.cli import main
from jetsym.errors import CapExceeded, NotSeparable, NotSolvableShape
from jetsym.grammar import parse
from jetsym.jets import NormalFormSystem
from jetsym.liesys import (PDELieSystem, _antiderivative, _solve_rational,
                           build_pde_lie_system, recognize_riccati, solve_solvable_q1,
                           u_bracket, vg_closure)

from conftest import same_tree

ROOT = Path(__file__).resolve().parent.parent


def wave_style_nf():
    """u_{x_i} = a_i(x) u^2 + b_i(x) u + c_i(x) with concrete coefficients."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    x1, x2 = ws.independent
    u = ws.dependent[0]
    rhs1 = x1 * u ** 2 + 2 * u + x2
    rhs2 = x2 * u ** 2 - u + 1
    return ws, NormalFormSystem(ws, {(0, 0): rhs1, (0, 1): rhs2})


def test_vg_closure_wave_style_sl2():
    ws, nf = wave_style_nf()
    u = ws.dependent[0]
    vg = vg_closure(nf, cap=10)
    assert vg.dimension == 3
    gens = {g[0] for g in vg.generators}
    assert gens == {sp.Integer(1), u, u ** 2}


def test_vg_closure_gauss_codazzi_style():
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    x1, x2 = ws.independent
    u = ws.dependent[0]
    rhs1 = normalize(x1 + x2 * sp.exp(-u / 2) + sp.exp(u / 2))
    rhs2 = normalize(1 + sp.exp(-u / 2))
    nf = NormalFormSystem(ws, {(0, 0): rhs1, (0, 1): rhs2})
    vg = vg_closure(nf, cap=10)
    assert vg.dimension == 3
    gens = {g[0] for g in vg.generators}
    assert gens == {sp.Integer(1), sp.exp(-u / 2), sp.exp(u / 2)}


def test_vg_closure_cap_exceeded():
    # x sin(u) + u: brackets of sin(u) d/du and u d/du keep generating
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    x1 = ws.independent[0]
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): x1 * sp.sin(u) + u, (0, 1): sp.Integer(0)})
    with pytest.raises(CapExceeded):
        vg_closure(nf, cap=6)


def test_structure_constants_sl2():
    ws, nf = wave_style_nf()
    vg = vg_closure(nf)
    # in the basis (1, u, u^2) d/du: [1,u] = 1, [1,u^2] = 2u, [u,u^2] = u^2
    by_first = {g[0]: i for i, g in enumerate(vg.generators)}
    u = ws.dependent[0]
    i1, iu, iuu = by_first[sp.Integer(1)], by_first[u], by_first[u ** 2]
    c = vg.constant(i1, iu)
    assert c[i1] == 1 and c[iu] == 0 and c[iuu] == 0
    c = vg.constant(i1, iuu)
    assert c[iu] == 2 and c[i1] == 0 and c[iuu] == 0
    c = vg.constant(iu, iuu)
    assert c[iuu] == 1 and c[i1] == 0 and c[iu] == 0


def test_build_pde_lie_system_decomposition():
    ws, nf = wave_style_nf()
    sys = build_pde_lie_system(nf)
    assert sys.vg.dimension == 3
    for j in range(ws.p):
        total = sp.Add(*[sys.b[(j, beta)] * sys.vg.generators[beta][0]
                         for beta in range(sys.vg.dimension)])
        assert is_zero(total - nf.rhs[(0, j)]) is ZeroVerdict.ZERO


def test_build_pde_lie_system_separates_once(monkeypatch):
    """The decomposition reuses the pieces and coordinates of the closure."""
    from jetsym import liesys
    calls = []
    separate = liesys.separate
    monkeypatch.setattr(liesys, "separate", lambda nf: calls.append(nf) or separate(nf))
    ws, nf = wave_style_nf()
    build_pde_lie_system(nf)
    assert calls == [nf]


def test_build_pde_lie_system_solves_each_piece_once(monkeypatch):
    """The closure solves each piece and each bracket once, also a bracket
    that joins the generators (u d/du here), and the decomposition reads the
    pieces' coordinates off the closure."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    x1, x2 = ws.independent
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): x1, (0, 1): x2 * u ** 2})
    calls = []
    monkeypatch.setattr(liesys, "_solve_rational",
                        lambda *args: calls.append(args) or _solve_rational(*args))
    vg = vg_closure(nf)
    assert len(calls) == 2 + 3      # two pieces, three pairs of generators
    sys = build_pde_lie_system(nf)
    assert len(calls) == 2 * 5
    assert sys.b == {(0, 0): x1, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): x2, (1, 2): 0}
    assert vg.pieces == {0: [(x1, (1, 0, 0))], 1: [(x2, (0, 1, 0))]}


def test_recognize_riccati_scalar():
    ws, nf = wave_style_nf()
    sys = build_pde_lie_system(nf)
    data, violation = recognize_riccati(sys)
    assert violation is None
    x1, x2 = ws.independent
    assert data.A[0] == (x2,)
    assert data.B[0] == ((2,),)
    assert data.D[0] == (x1,)


def test_recognize_riccati_rejects_cubic():
    ws = Workspace(["x1"], ["u", "v"], order_cap=1)
    u, v = ws.dependent
    x1 = ws.independent[0]
    nf = NormalFormSystem(ws, {(0, 0): u ** 2, (1, 0): x1 * u ** 3 + v})
    sys = PDELieSystem(nf, vg=None, b={})
    data, violation = recognize_riccati(sys)
    assert data is None
    assert "u^3" in violation


def test_recognize_riccati_zero_rhs():
    ws = Workspace(["x1"], ["u"], order_cap=1)
    nf = NormalFormSystem(ws, {(0, 0): sp.Integer(0)})
    sys = PDELieSystem(nf, vg=None, b={})
    data, violation = recognize_riccati(sys)
    assert violation is None
    assert data.A[0] == (0,) and data.D[0] == (0,)


def test_riccati_implies_vg_dimension_bound(rng):
    """Riccati shape implies dim VG <= (q+1)^2 - 1, on random instances."""
    for q in (1, 2):
        for _ in range(3):
            ws = Workspace(["x1", "x2"], [f"u{i}" for i in range(1, q + 1)],
                           order_cap=1)
            deps = ws.dependent
            rhs = {}
            for j in range(2):
                d_row = [sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(q)]
                for a in range(q):
                    val = sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
                    for b in range(q):
                        val += sp.Rational(rng.randint(-3, 3), rng.randint(1, 3)) * deps[b]
                    val += deps[a] * sp.Add(*[d_row[b] * deps[b] for b in range(q)])
                    rhs[(a, j)] = sp.expand(val)
            nf = NormalFormSystem(ws, rhs)
            sys = build_pde_lie_system(nf, cap=(q + 1) ** 2)
            data, violation = recognize_riccati(sys)
            assert violation is None, violation
            assert sys.vg.dimension <= (q + 1) ** 2 - 1


def test_solve_homogeneous_constant_system():
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    ws.add_parameter("lam")
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): 2 * u, (0, 1): 3 * u})
    sys = build_pde_lie_system(nf)
    sol = solve_solvable_q1(sys)
    x1, x2 = ws.independent
    lam = ws.parameters["lam"]
    assert sol.transform == "w = u"
    assert normalize(sol.u_expr - lam * sp.exp(2 * x1 + 3 * x2)) == 0
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in sol.verdicts)


def test_solve_gauss_codazzi_instance():
    """u_x1 = exp(-u/2), u_x2 = 0 -> u = 2 log(x1/2 + lam)."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    ws.add_parameter("lam")
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): sp.exp(-u / 2), (0, 1): sp.Integer(0)})
    sys = build_pde_lie_system(nf)
    sol = solve_solvable_q1(sys)
    assert sol.transform == "w = exp(u/2)"
    assert not sol.unresolved
    x1 = ws.independent[0]
    lam = ws.parameters["lam"]
    assert normalize(sol.u_expr - 2 * sp.log(x1 / 2 + lam)) == 0
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in sol.verdicts)


def test_solve_liouville_backlund():
    """DCs of the generalized Liouville pipeline with opaque u_p = h(t):
    the solver reproduces u = h - 2 log(x1^2 - x2^2 + lam)."""
    ws = Workspace(["t", "x1", "x2"], ["u"], order_cap=1)
    ws.add_parameter("lam")
    h = ws.add_function("h", args=["t"])
    t, x1, x2 = ws.independent
    u = ws.dependent[0]
    ehalf = sp.exp(u / 2) * sp.exp(-h / 2)
    nf = NormalFormSystem(ws, {
        (0, 0): sp.Derivative(h, t),
        (0, 1): -4 * x1 * ehalf,
        (0, 2): 4 * x2 * ehalf,
    })
    sys = build_pde_lie_system(nf)
    assert sys.vg.dimension == 2
    sol = solve_solvable_q1(sys)
    assert sol.transform == "w = exp(-u/2)"
    assert not sol.unresolved
    lam = ws.parameters["lam"]
    expected = h - 2 * sp.log(x1 ** 2 - x2 ** 2 + lam)
    # compare via exp to dodge log-of-product ambiguity
    assert normalize(sp.exp(sol.u_expr - expected)) == 1
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in sol.verdicts)


def test_solve_not_solvable_shape():
    ws = Workspace(["x1"], ["u"], order_cap=1)
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): u ** 2 + 1})
    sys = build_pde_lie_system(nf)
    with pytest.raises(NotSolvableShape):
        solve_solvable_q1(sys)


def test_potential_of_a_non_gradient_is_not_solvable(ws2):
    """Slot coefficients (x2, 0) are no gradient: the potential x1*x2 of
    the first, corrected to 0 by the second, leaves the residual -x2."""
    x2 = ws2.independent[1]
    with pytest.raises(NotSolvableShape,
                       match=r"^slot coefficients are not a closed form: residual -x2$"):
        liesys._potential([x2, sp.Integer(0)], ws2)


_WS = Workspace(["t", "x1"], ["u"], order_cap=2)
_WS.add_parameter("lam")
_WS.add_function("h", args=["t"])
_T, _H, _DH = (_WS.parse(text) for text in ("t", "h(t)", "D(h(t),t)"))
# factors free of t: symbols, jets, a parameter, kernels, an exponential
# and a constant log
_FREE = [_WS.parse(text) for text in (
    "x1", "u", "u_{x1}", "u_{t,x1}", "lam", "sin(u)", "cosh(u + x1)", "log(lam)", "exp(-u/2)")]
_rationals = st.builds(sp.Rational, st.integers(-9, 9), st.integers(1, 6))
_shapes = st.one_of(
    st.builds(lambda k: _T ** k, st.integers(0, 3)),
    st.builds(lambda k, a: _T ** k * sp.exp(a * _T), st.integers(0, 3),
              st.sampled_from([sp.Rational(k, 2) for k in (-3, -2, -1, 1, 2, 3)])),
    st.just(_DH))
_terms = st.builds(lambda c, factors, shape: c * sp.Mul(*factors) * shape, _rationals,
                   st.lists(st.sampled_from(_FREE + [sp.log(2)]), max_size=2), _shapes)


@settings(max_examples=200, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=3))
@example([-_DH / 2])
@example([_T ** 3 * sp.exp(-_T / 2) * _FREE[0], _T / 3])
def test_antiderivative_is_sympy_integrate(terms):
    """A sum of powers of t, powers of t times exp(a*t) and D(h(t),t),
    times factors free of t, integrates term by term to the sum of
    sympy.integrate's antiderivatives of its terms, and derives back to the
    integrand, node for node.  (sympy.integrate of the whole normal form, a
    product with exp(-3*t/2), took over 5 s on one draw.)"""
    e = normalize(sp.Add(*terms))
    F = _antiderivative(e, _T)
    assert same_tree(derive(F, {_T: 1}), e)
    assert same_tree(F, normalize(sp.Add(*[sp.integrate(t, _T) for t in terms])))


def test_antiderivative_leaves_other_shapes():
    """A quotient, an opaque function or a derivative times t, and an
    exponential whose direction is not t itself take sympy.integrate."""
    for e in [_T / (_T + 1), _T * _H, _T * _DH, sp.exp(_T * _FREE[0]), sp.exp(_T ** 2), 1 / _T,
              sp.sqrt(_T) * sp.exp(_T)]:
        assert _antiderivative(normalize(e), _T) is None, e
    assert _antiderivative(normalize(3 * sp.sqrt(_T)), _T) == 2 * _T ** sp.Rational(3, 2)


def test_solve_with_unresolved_integral():
    """A non-elementary slot coefficient leaves a formal integral node in the
    solution and flags it; differentiating the formal node is still exact, so
    the per-equation residuals here verify structurally."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    g = ws.add_function("g", args=["x1"])
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): g * u, (0, 1): sp.Integer(0)})
    sys = build_pde_lie_system(nf)
    sol = solve_solvable_q1(sys)
    assert sol.unresolved
    assert sol.u_expr.has(sp.Integral)
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in sol.verdicts)


def test_u_bracket():
    ws = Workspace(["x1"], ["u"], order_cap=1)
    u = ws.dependent[0]
    br = u_bracket((sp.exp(-u / 2),), (sp.exp(u / 2),), [u])
    assert br == (sp.Integer(1),)


def _riccati_violation(rhs):
    ws = Workspace(["x1"], ["u", "v"], order_cap=1)
    u, v = ws.dependent
    nf = NormalFormSystem(ws, {(0, 0): rhs[0](u, v), (1, 0): rhs[1](u, v)})
    return recognize_riccati(PDELieSystem(nf, vg=None, b={}))


def test_recognize_riccati_rejects_a_quadratic_part_without_d():
    """u*v in the u-component alone is not u (d . u) in every component."""
    data, violation = _riccati_violation((lambda u, v: u * v, lambda u, v: 0))
    assert data is None and violation == "u*v"


def test_recognize_riccati_rejects_an_extra_quadratic_term():
    """v^2 fixes d = (0, 1), so the v-component's 5*u*v has no place."""
    data, violation = _riccati_violation((lambda u, v: u * v,
                                          lambda u, v: v ** 2 + 5 * u * v))
    assert data is None and violation == "5*u*v"


def test_recognize_riccati_rejects_fractional_and_negative_powers():
    """sqrt(u) and 1/u are u-monomials of exponent 1/2 and -1, outside the
    polynomials in u."""
    for rhs, term in [(lambda u, v: sp.sqrt(u) + v, "u^(1/2)"), (lambda u, v: 1 / u, "1/u")]:
        data, violation = _riccati_violation((rhs, lambda u, v: 0))
        assert data is None and violation == term


def test_affine_coefficients_reject_fractional_and_negative_powers():
    w, x1 = sp.Symbol("w", real=True, positive=True), _WS.parse("x1")
    assert liesys._affine_coefficients(normalize(x1 * w + 2), w) == (x1, 2)
    for e in [x1 * sp.sqrt(w) + w, x1 / w]:
        assert liesys._affine_coefficients(normalize(e), w) is None, e


def test_recognize_riccati_reads_d_from_every_component():
    data, violation = _riccati_violation((lambda u, v: 3 * u ** 2 - 2 * u * v + 1,
                                          lambda u, v: 3 * u * v - 2 * v ** 2))
    assert violation is None
    assert data.D[0] == (3, -2) and data.A[0] == (1, 0)


@pytest.mark.parametrize("rhs,term", [("sin(x1*u)", "sin(u*x1)"),
                                      ("exp(u*h(x1))", "exp(u*h(x1))")])
def test_vg_closure_not_separable(rhs, term):
    """A u-atom that meets x, or holds an unknown function, is rejected and
    printed in input syntax."""
    ws = Workspace(["x1"], ["u"], order_cap=1)
    ws.add_function("h", args=["x1"])
    nf = NormalFormSystem(ws, {(0, 0): parse(rhs, ws)})
    with pytest.raises(NotSeparable) as err:
        vg_closure(nf)
    assert str(err.value) == f"term {term} does not separate into (x-part)*(u-part)"


def test_solve_liesys_not_separable_exits_3(capsys, tmp_path):
    path = tmp_path / "inseparable.jetsym"
    path.write_text("""[variables]
independent = x1 x2
dependent = u

[fields]
Z1 = "1" | "0" ; "sin(x1*u)"
Z2 = "0" | "1" ; "0"
""")
    assert main(["solve-liesys", str(path), "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == (
        "term sin(u*x1) does not separate into (x-part)*(u-part)")


def test_vg_closure_outside_the_ring():
    """A u-field 1/(1 + u) and an x-coefficient 1/(1 + x2), which the ring
    cannot read, split by sympy: [1/(1 + u), 1 + u] = 2/(1 + u) closes."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    x1, x2 = ws.independent
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): x1 / (1 + u), (0, 1): (1 + u) / (1 + x2)})
    sys = build_pde_lie_system(nf)
    assert sys.vg.dimension == 2
    assert {g[0] for g in sys.vg.generators} == {1 / (u + 1), u + 1}
    for j in range(ws.p):
        total = sp.Add(*[sys.b[(j, beta)] * sys.vg.generators[beta][0]
                         for beta in range(sys.vg.dimension)])
        assert normalize(total - nf.rhs[(0, j)]) == 0
    assert sorted(map(str, sys.b.values())) == ["0", "0", "1/(x2 + 1)", "x1"]


def test_separate_factors_a_product_denominator():
    """1/((1 + x1)*(1 + u)) normalizes to one fraction over an expanded
    denominator; factoring it separates the term again.  The constructor
    takes normal forms, so the test normalizes its input."""
    ws = Workspace(["x1"], ["u"], order_cap=1)
    x1, u = ws.independent[0], ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): normalize(1 / ((1 + x1) * (1 + u)))})
    assert nf.rhs[(0, 0)] == 1 / (u * x1 + u + x1 + 1)
    sys = build_pde_lie_system(nf)
    assert sys.vg.generators == ((1 / (1 + u),),)
    assert sys.b == {(0, 0): 1 / (1 + x1)}


def test_vg_closure_brackets_each_pair_once(monkeypatch):
    """d/du and u^2 d/du close into sl(2) in two rounds: the bracket runs
    once per pair of the three generators, and the structure constants are
    those found by bracketing every pair again in each round."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    x1, x2 = ws.independent
    u = ws.dependent[0]
    nf = NormalFormSystem(ws, {(0, 0): x1, (0, 1): x2 * u ** 2})
    calls = []
    monkeypatch.setattr(liesys, "u_bracket", lambda *args: calls.append(args) or u_bracket(*args))
    vg = vg_closure(nf)
    assert vg.generators == ((1,), (u ** 2,), (u,))
    assert len(calls) == 3
    assert vg.structure_constants == {(0, 1): (0, 0, 2), (0, 2): (1, 0, 0), (1, 2): (0, -1, 0)}
    assert all(isinstance(c, sp.Integer) for cs in vg.structure_constants.values() for c in cs)


def test_solve_rational_agrees_with_gauss_jordan():
    """On seeded rational systems, rank-deficient and inconsistent ones
    included, the exact reduction finds sympy's solution with every free
    parameter 0, or None where sympy finds none."""
    rng = random.Random(11)
    outcomes = set()
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        A = sp.Matrix(rows, cols, lambda i, j: sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
                      if rng.random() < 0.6 else 0)
        if rng.random() < 0.5:
            A[:, -1] = A[:, 0] * sp.Rational(rng.randint(-2, 2), 3)   # rank-deficient
        b = (A * sp.Matrix(cols, 1, lambda i, j: rng.randint(-2, 2)) if rng.random() < 0.6
             else sp.Matrix(rows, 1, lambda i, j: rng.randint(-2, 2)))
        gens = [{i: A[i, c] for i in range(rows) if A[i, c] != 0} for c in range(cols)]
        target = {i: b[i] for i in range(rows) if b[i] != 0}
        try:
            sol, params = A.gauss_jordan_solve(b)
            expected = list(sol.xreplace({t: 0 for t in params}))
        except ValueError:
            expected = None
        assert _solve_rational(gens, target) == expected
        outcomes.add((expected is None, A.rank() < cols))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_solve_liesys_reads_no_tree_polynomials(monkeypatch):
    """The Lie-system layer reads terms through the ring's splitter and
    solves by its own reduction: with sympy.Poly and gauss_jordan_solve
    failing, solve-liesys still writes every fixture's golden report."""
    def fail(*args, **kwargs):
        raise AssertionError("tree path called")

    monkeypatch.setattr(sp, "Poly", fail)
    monkeypatch.setattr(sp.Matrix, "gauss_jordan_solve", fail)
    for path in sorted((ROOT / "problems").glob("*.jetsym")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["solve-liesys", str(path), "--format", "json"])
        golden = ROOT / "tests" / "golden" / f"{path.stem}.solve-liesys.json"
        assert out.getvalue() == golden.read_text(), path.stem
