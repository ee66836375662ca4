import json
import sys
from pathlib import Path

import sympy as sp

from jetsym import geometry, jets
from jetsym import TriBool, Workspace, ZeroVerdict, is_zero, normalize, parse
from jetsym.cli import main
from jetsym.condsym import (AnsatzSystem, NormalFormSystem, PdeSystem,
                            build_ansatz, characteristic_system,
                            compatibility_residuals, determining_system,
                            verify_conditional_symmetry,
                            verify_solution)
from jetsym.families import AnsatzFamily
from jetsym.geometry import VectorFieldFamily, is_abelian, rectify
from jetsym.jets import VectorField

from conftest import instantiate_ansatz, proportional, random_poly, verify_instance

ONE = sp.Integer(1)
ZERO = sp.Integer(0)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def wave_workspace():
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    ws.add_parameter("lam")
    for c in ("c0", "c1", "c2", "c3"):
        ws.add_parameter(c)
    return ws


def test_characteristic_system_nonlie(ws2):
    x1 = ws2.independent[0]
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ONE, ZERO), (ONE,)),
                                VectorField(ws2, (ZERO, ONE), (x1,))))
    cs = characteristic_system(F, 1)
    assert cs.residuals[(0, 0, (0, 0))] == normalize(1 - ws2.jet(0, (1, 0)))
    assert cs.residuals[(1, 0, (0, 0))] == normalize(x1 - ws2.jet(0, (0, 1)))
    assert not cs.inconsistent


def test_characteristic_system_inconsistent(ws2):
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ZERO, ZERO), (ONE,)),))
    cs = characteristic_system(F, 1)
    assert cs.residuals[(0, 0, (0, 0))] == 1
    assert cs.inconsistent == [(0, 0, (0, 0))]


def test_characteristic_system_wave_order2(ws2):
    u = ws2.dependent[0]
    F = VectorFieldFamily(ws2, (VectorField(ws2, (ONE, ZERO), (u ** 2,)),
                                VectorField(ws2, (ZERO, ONE), (u ** 2,))))
    cs = characteristic_system(F, 2)
    # includes D_1(u^2 - u_{x1}) and D_2(u^2 - u_{x1})
    d1 = normalize(2 * u * ws2.jet(0, (1, 0)) - ws2.jet(0, (2, 0)))
    d2 = normalize(2 * u * ws2.jet(0, (0, 1)) - ws2.jet(0, (1, 1)))
    assert cs.residuals[(0, 0, (1, 0))] == d1
    assert cs.residuals[(0, 0, (0, 1))] == d2


def test_compatibility_wave_case(ws2):
    u = ws2.dependent[0]
    nf = NormalFormSystem(ws2, {(0, 0): u ** 2, (0, 1): u ** 2})
    assert all(r == 0 for _, _, _, r in compatibility_residuals(nf))


def test_compatibility_nonintegrable(ws2):
    x1 = ws2.independent[0]
    nf = NormalFormSystem(ws2, {(0, 0): ONE, (0, 1): x1})
    residuals = [r for _, _, _, r in compatibility_residuals(nf)]
    assert residuals == [sp.Integer(1)]


def test_compatibility_ode_case(ws1):
    nf = NormalFormSystem(ws1, {(0, 0): ws1.dependent[0]})
    assert compatibility_residuals(nf) == []


def test_compatibility_iff_abelian_random(rng):
    """Prop 2.1 equivalence on random degree <= 2 systems, both classes."""
    abelian_seen = nonabelian_seen = 0
    for trial in range(10):
        ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
        x1, x2 = ws.independent
        u = ws.dependent[0]
        if trial % 2 == 0:
            # integrable class: phi_j = dG/dx_j * psi(u) is always compatible
            G = random_poly(rng, [x1, x2], degree=2, terms=3)
            psi = random_poly(rng, [u], degree=2, terms=2)
            nf = NormalFormSystem(ws, {(0, 0): normalize(sp.diff(G, x1) * psi),
                                       (0, 1): normalize(sp.diff(G, x2) * psi)})
        else:
            nf = NormalFormSystem(ws, {(0, 0): random_poly(rng, [x1, x2, u], 2, 3),
                                       (0, 1): random_poly(rng, [x1, x2, u], 2, 3)})
        residuals = [r for _, _, _, r in compatibility_residuals(nf)]
        all_zero = all(is_zero(r) is ZeroVerdict.ZERO for r in residuals)
        abelian = is_abelian(VectorFieldFamily(ws, tuple(nf.fields()))) is TriBool.YES
        assert all_zero == abelian
        abelian_seen += all_zero
        nonabelian_seen += not all_zero
    assert abelian_seen and nonabelian_seen


def test_build_ansatz_polynomial_names():
    ws = wave_workspace()
    ansatz = build_ansatz(AnsatzFamily("polynomial", 2), ws)
    names = sorted(ws.functions)
    assert names == ["a0", "a1", "a2", "b0", "b1", "b2"]
    u = ws.dependent[0]
    a0, a1, a2 = (ws.functions[n] for n in ("a0", "a1", "a2"))
    assert ansatz.rhs[(0, 0)] == normalize(a2 * u ** 2 + a1 * u + a0)


def test_build_ansatz_exponential_names(ws2):
    ansatz = build_ansatz(AnsatzFamily("exponential", 1), ws2)
    assert sorted(ws2.functions) == ["a0", "a1", "a2", "b0", "b1", "b2"]
    u = ws2.dependent[0]
    a0, a1, a2 = (ws2.functions[n] for n in ("a0", "a1", "a2"))
    # eta-numbering: a0 + a1 e^{-u/2} + a2 e^{u/2}
    assert ansatz.rhs[(0, 0)] == normalize(
        a0 + a1 * sp.exp(-u / 2) + a2 * sp.exp(u / 2))


def test_build_ansatz_constant():
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    ansatz = build_ansatz(AnsatzFamily("polynomial", 0), ws)
    assert sorted(ws.functions) == ["a0", "b0"]


def wave_determining():
    ws = wave_workspace()
    pde = PdeSystem(ws, ((
        "wave", parse("u_{x1,x2} - (c3*u^3 + c2*u^2 + c1*u + c0)", ws)),))
    ansatz = build_ansatz(AnsatzFamily("polynomial", 2), ws)
    return ws, pde, ansatz, determining_system(pde, ansatz)


def test_determining_system_derives_each_jet_value_once(monkeypatch):
    """The compatibility residual and both peel routes of u_{x1,x2} read the
    same two section derivatives, so each is derived once.  A jet value is
    derived on values by ``jets._section_derivative``; every module's binding
    of it is counted."""
    calls = _count_calls(monkeypatch, jets, "_section_derivative")
    wave_determining()
    assert len({(form, slot) for form, slot, _ in calls}) == len(calls) == 2


def _count_calls(monkeypatch, module, name):
    """Calls of ``module.name`` through every jetsym module that binds it."""
    calls = []
    real = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("jetsym.") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name,
                                lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def test_verify_symmetry_reads_a_normal_form_once(monkeypatch, capsys):
    """verify-symmetry on the wave fixture, a family in Z_j-form, brackets
    nothing: its Abelian test and route A's restriction of u_{x1,x2} share
    the normal form's two section derivatives D~_1 phi_2 and D~_2 phi_1,
    each derived on values by ``jets._section_derivative``."""
    brackets = _count_calls(monkeypatch, geometry, "lie_bracket")
    derivatives = _count_calls(monkeypatch, jets, "_section_derivative")
    assert main(["verify-symmetry", str(PROBLEMS / "wave.jetsym")]) == 0
    capsys.readouterr()
    assert (len(brackets), len(derivatives)) == (0, 2)


def golden_wave_forms(ws):
    """The seven PDE coefficient equations and three compatibility equalities."""
    texts = [
        "2*a2(x1,x2)*b2(x1,x2) - c3",
        "2*b2(x1,x2)*a1(x1,x2) + b1(x1,x2)*a2(x1,x2) + D(b2(x1,x2),x1) - c2",
        "2*b2(x1,x2)*a0(x1,x2) + b1(x1,x2)*a1(x1,x2) + D(b1(x1,x2),x1) - c1",
        "a0(x1,x2)*b1(x1,x2) + D(b0(x1,x2),x1) - c0",
        "2*a2(x1,x2)*b1(x1,x2) + a1(x1,x2)*b2(x1,x2) + D(a2(x1,x2),x2) - c2",
        "2*a2(x1,x2)*b0(x1,x2) + a1(x1,x2)*b1(x1,x2) + D(a1(x1,x2),x2) - c1",
        "a1(x1,x2)*b0(x1,x2) + D(a0(x1,x2),x2) - c0",
    ]
    compat = [
        "2*b2(x1,x2)*a1(x1,x2) + b1(x1,x2)*a2(x1,x2) + D(b2(x1,x2),x1)"
        " - (2*a2(x1,x2)*b1(x1,x2) + a1(x1,x2)*b2(x1,x2) + D(a2(x1,x2),x2))",
        "2*b2(x1,x2)*a0(x1,x2) + b1(x1,x2)*a1(x1,x2) + D(b1(x1,x2),x1)"
        " - (2*a2(x1,x2)*b0(x1,x2) + a1(x1,x2)*b1(x1,x2) + D(a1(x1,x2),x2))",
        "a0(x1,x2)*b1(x1,x2) + D(b0(x1,x2),x1)"
        " - (a1(x1,x2)*b0(x1,x2) + D(a0(x1,x2),x2))",
    ]
    return [parse(t, ws) for t in texts], [parse(t, ws) for t in compat]


def match_up_to_constant(generated, golden):
    """Each golden form must match exactly one generated equation up to a
    nonzero rational multiple, and nothing may be left over."""
    remaining = list(generated)
    for g in golden:
        hits = [e for e in remaining if proportional(e, g)]
        assert len(hits) == 1, f"golden form {g} matched {len(hits)} equations"
        remaining.remove(hits[0])
    assert not remaining, f"unexpected extra equations: {remaining}"


def test_wave_determining_system_matches_paper():
    ws, pde, ansatz, dsys = wave_determining()
    golden_pde, golden_compat = golden_wave_forms(ws)
    assert len(dsys.pde_eqs) == 7
    assert len(dsys.compatibility_eqs) == 3
    match_up_to_constant(dsys.pde_eqs, golden_pde)
    match_up_to_constant(dsys.compatibility_eqs, golden_compat)


def test_wave_determining_reassembly():
    """Substituting the ansatz into Delta and re-expanding equals the
    collected coefficient rows (is_zero check)."""
    from jetsym.families import collect_family
    from jetsym.jets import restrict_to_section
    ws, pde, ansatz, dsys = wave_determining()
    nf = ansatz.normal_form()
    restricted = restrict_to_section(pde.items()[0][1], nf)
    coeffs = collect_family(restricted, ansatz.family, ws.dependent)
    total = sum(c * m for m, c in coeffs.items())
    assert is_zero(total - restricted) is ZeroVerdict.ZERO


def test_wave_instance_satisfies_determining():
    ws, pde, ansatz, dsys = wave_determining()
    bindings = {ws.functions["a2"]: 1, ws.functions["b2"]: 1}
    for name in ("a0", "a1", "b0", "b1"):
        bindings[ws.functions[name]] = 0
    for p, v in zip(("c3", "c2", "c1", "c0"), (2, 0, 0, 0)):
        bindings[ws.parameters[p]] = v
    results = verify_instance(dsys, bindings)
    assert all(r.verdict is ZeroVerdict.ZERO for r in results)
    nf = instantiate_ansatz(ansatz, bindings)
    u = ws.dependent[0]
    assert nf.rhs[(0, 0)] == u ** 2 and nf.rhs[(0, 1)] == u ** 2


def test_determining_instance_closes_to_symmetry():
    """A coefficient instance satisfying the determining system induces
    fields that verify as a conditional symmetry algebra."""
    ws, pde, ansatz, dsys = wave_determining()
    bindings = {ws.functions["a2"]: 1, ws.functions["b2"]: 1}
    for name in ("a0", "a1", "b0", "b1"):
        bindings[ws.functions[name]] = 0
    for p, v in zip(("c3", "c2", "c1", "c0"), (2, 0, 0, 0)):
        bindings[ws.parameters[p]] = v
    assert all(r.verdict is ZeroVerdict.ZERO for r in verify_instance(dsys, bindings))
    nf = instantiate_ansatz(ansatz, bindings)
    from jetsym import substitute
    pde_inst = PdeSystem(ws, tuple((n, substitute(d, bindings)) for n, d in pde.items()))
    F = VectorFieldFamily(ws, tuple(nf.fields()))
    report = verify_conditional_symmetry(pde_inst, F, n=2)
    assert report.overall() is TriBool.YES


def test_tautological_constraint_gives_empty_pde_eqs(ws2):
    phi = ws2.add_function("phi")
    # Delta = u_{x1} - phi with ansatz rhs exactly phi
    pde = PdeSystem(ws2, (("dc", normalize(ws2.jet(0, (1, 0)) - phi)),))
    ansatz = AnsatzSystem.from_explicit(
        AnsatzFamily("polynomial", 0), ws2,
        {(0, 0): phi, (0, 1): phi})
    dsys = determining_system(pde, ansatz)
    assert dsys.pde_eqs == []


def wave_instance_problem():
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2)
    ws.add_parameter("lam")
    u = ws.dependent[0]
    pde = PdeSystem(ws, (("wave", parse("u_{x1,x2} - 2*u^3", ws)),))
    Z1 = VectorField(ws, (ONE, ZERO), (u ** 2,))
    Z2 = VectorField(ws, (ZERO, ONE), (u ** 2,))
    return ws, pde, VectorFieldFamily(ws, (Z1, Z2))


def test_verify_symmetry_wave_route_a():
    ws, pde, F = wave_instance_problem()
    report = verify_conditional_symmetry(pde, F, n=2)
    assert report.route == "A"
    assert report.overall() is TriBool.YES
    assert "7.6" in report.justification
    assert "7.4" not in report.justification


def test_verify_symmetry_wave_rectifiable_family():
    ws, pde, F = wave_instance_problem()
    u = ws.dependent[0]
    x2 = ws.independent[1]
    f = sp.exp(x2 + 1 / u)
    Y2 = VectorField(ws, (ZERO, normalize(f)), (normalize(u ** 2 * f),))
    F2 = VectorFieldFamily(ws, (F.members[0], Y2))
    report = verify_conditional_symmetry(pde, F2, n=2)
    assert report.route == "A"
    assert report.overall() is TriBool.YES
    assert "7.4" in report.justification


def test_verify_symmetry_wave_route_b_forced():
    ws, pde, F = wave_instance_problem()
    report = verify_conditional_symmetry(pde, F, n=2, force_direct=True)
    assert report.route == "B"
    assert report.overall() is TriBool.YES


def test_charsys_and_route_b_on_one_workspace_in_either_order():
    """Neither call changes what the other sees: same results, same cap."""
    def run(charsys_first):
        ws, pde, F = wave_instance_problem()
        calls = [lambda: characteristic_system(F, 3),
                 lambda: verify_conditional_symmetry(pde, F, n=3, force_direct=True)]
        if charsys_first:
            cs, rb = calls[0](), calls[1]()
        else:
            rb, cs = calls[1](), calls[0]()
        assert ws.order_cap == 2
        return (cs.rows(ws), cs.inconsistent, rb.route, rb.overall(),
                [(label, r.verdict, r.confidence) for label, r in rb.verdicts],
                rb.notes, rb.assumptions)

    first = run(True)
    assert first == run(False)
    assert first[2:4] == ("B", TriBool.YES)


def test_verify_symmetry_negative():
    ws, pde, F = wave_instance_problem()
    u = ws.dependent[0]
    bad = VectorFieldFamily(ws, (VectorField(ws, (ONE, ZERO), (u,)),
                                 VectorField(ws, (ZERO, ONE), (u,))))
    report = verify_conditional_symmetry(pde, bad, n=2)
    assert report.overall() is TriBool.NO


def test_verify_symmetry_empty_intersection():
    """Delta = {u_x, u_t} with L = {dx + du, dt + u du}: S is empty."""
    ws = Workspace(["x", "t"], ["u"], order_cap=1)
    u = ws.dependent[0]
    pde = PdeSystem(ws, (("dx", ws.jet(0, (1, 0))), ("dt", ws.jet(0, (0, 1)))))
    F = VectorFieldFamily(ws, (VectorField(ws, (ONE, ZERO), (ONE,)),
                               VectorField(ws, (ZERO, ONE), (u,))))
    report = verify_conditional_symmetry(pde, F, n=1)
    assert report.route == "B"
    assert report.unsatisfiable
    assert report.overall() is TriBool.NO
    assert any("unsatisfiable" in n for n in report.notes)


def test_verify_solution_wave():
    ws, pde, F = wave_instance_problem()
    u = ws.dependent[0]
    x1, x2 = ws.independent
    lam = ws.parameters["lam"]
    nf = rectify(F).nf
    candidate = {u: -1 / (x1 + x2 + lam)}
    results = verify_solution([pde, nf], candidate, ws)
    assert len(results) == 3
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in results)
    assert all(r.confidence == "structural" for _, r in results)


def test_verify_solution_zero_candidate():
    ws, pde, F = wave_instance_problem()
    results = verify_solution([pde], {ws.dependent[0]: sp.Integer(0)}, ws)
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in results)


def test_verify_solution_rejects_wrong_candidate():
    ws, pde, F = wave_instance_problem()
    u, (x1, x2) = ws.dependent[0], ws.independent
    results = verify_solution([pde], {u: x1 + x2}, ws)
    assert any(r.verdict is ZeroVerdict.NONZERO for _, r in results)


def test_solutions_satisfy_higher_order_consequences(rng):
    """Solutions of S^1_L satisfy every order-n consequence D_K(u_i - phi_i)."""
    from jetsym.jets import total_derivative_multi
    ws = Workspace(["x1", "x2"], ["u"], order_cap=3)
    x1, x2 = ws.independent
    u = ws.dependent[0]
    lam = ws.add_parameter("lam")
    nf = NormalFormSystem(ws, {(0, 0): u ** 2, (0, 1): u ** 2})
    candidate = {u: -1 / (x1 + x2 + lam)}
    consequences = []
    for eq in nf.equations():
        for K in [(1, 0), (0, 1), (1, 1)]:
            consequences.append(("cons", total_derivative_multi(eq, K, ws)))
    pde = PdeSystem(ws, tuple(consequences))
    results = verify_solution([pde], candidate, ws)
    assert all(r.verdict is ZeroVerdict.ZERO for _, r in results)


def test_route_b_lists_each_assumption_once(tmp_path, capsys):
    """Route B solves three constraints of the scaled family for leading jets
    with the coefficient -x1^2 - 1: the report lists that assumption once."""
    path = tmp_path / "scaled.jetsym"
    path.write_text("""[variables]
independent = x1 x2
dependent = u
[options]
order = 2
[pde]
wave = "u_{x1,x2} - 2*u^3 - u^2"
[fields]
Z1 = "x1^2 + 1" | "0" ; "(x1^2 + 1)*u^2"
Z2 = "0" | "1" ; "u^2"
""")
    argv = ["verify-symmetry", str(path), "--force-direct", "--format", "json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["assumptions"] == ["nonvanishing coefficient: -x1^2 - 1"]
    assert report["verdicts"][0]["verdict"] == "No"
