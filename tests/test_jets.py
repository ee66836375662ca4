import random
import warnings

import pytest
import sympy as sp

from jetsym import MultiIndex, Workspace, ZeroVerdict, is_zero, normalize, parse
from jetsym.condsym import characteristic_system
from jetsym.errors import HardJetLimitExceeded, JetOrderExceeded, PreconditionFailed
from jetsym.geometry import VectorFieldFamily
from jetsym.jets import (NormalFormSystem, ProlongedVectorField, VectorField,
                         characteristic, contract_contact,
                         linear_combination, prolong,
                         restrict_routes, restrict_to_section,
                         total_derivative, total_derivative_multi)
from jetsym.multiindex import indices_up_to

from conftest import evaluable_points, random_expr, random_poly


def test_total_derivative_basics(ws2):
    u = ws2.dependent[0]
    assert total_derivative(u, 0, ws2) == ws2.jet(0, (1, 0))
    assert total_derivative(u ** 2, 0, ws2) == 2 * u * ws2.jet(0, (1, 0))


def test_total_derivative_of_unknown_function(ws2):
    phi = ws2.add_function("phi")
    x2 = ws2.independent[1]
    u = ws2.dependent[0]
    # D_2 phi(x1,x2), with phi also allowed to depend on u through composition:
    e = phi * u
    d = total_derivative(e, 1, ws2)
    assert d == normalize(sp.Derivative(phi, x2) * u + phi * ws2.jet(0, (0, 1)))


def test_total_derivative_multi_identity(ws2):
    e = parse("u^2 + x1*u", ws2)
    assert total_derivative_multi(e, MultiIndex((0, 0)), ws2) == normalize(e)


def test_total_derivative_multi_mixed(ws2):
    u = ws2.dependent[0]
    assert total_derivative_multi(u, (1, 1), ws2) == ws2.jet(0, (1, 1))


def test_total_derivatives_commute(rng):
    for _ in range(20):
        ws = Workspace(["x1", "x2"], ["u"], order_cap=2, hard_cap=8)
        syms = [ws.independent[0], ws.independent[1], ws.dependent[0],
                ws.jet(0, (1, 0)), ws.jet(0, (0, 1))]
        e = random_expr(rng, syms)
        d12 = total_derivative(total_derivative(e, 0, ws), 1, ws)
        d21 = total_derivative(total_derivative(e, 1, ws), 0, ws)
        assert is_zero(d12 - d21) is ZeroVerdict.ZERO


def test_hard_jet_limit(ws1):
    u = ws1.dependent[0]
    ws1.hard_cap = 3
    e = ws1.jet(0, (3,))
    with pytest.raises(HardJetLimitExceeded):
        total_derivative(e, 0, ws1)


def test_prolong_respects_hard_cap():
    # j^2 Y needs jets of order 3 on the way; a hard cap of 2 forbids them
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2, hard_cap=2)
    u = ws.dependent[0]
    Y = VectorField(ws, (u, sp.Integer(0)), (u ** 2,))
    with pytest.raises(HardJetLimitExceeded):
        prolong(Y, 2)
    assert ws.order_cap == 2 and ws.hard_cap == 2
    assert prolong(Y, 1).order == 1


def test_engine_jets_leave_the_order_cap():
    """Total derivatives, every psi of j^3 Y and a characteristic system
    create jets past the order cap without moving it or warning; the parser
    is still held to the cap, also for a jet the engine already made."""
    ws = Workspace(["x1", "x2"], ["u"], order_cap=1)
    x1 = ws.independent[0]
    u = ws.dependent[0]
    Y = VectorField(ws, (u, x1), (u ** 2,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert total_derivative(ws.jet(0, (1, 0)), 0, ws) == ws.jet(0, (2, 0), auto_raise=True)
        assert ws.order_cap == 1
        P = prolong(Y, 3)
        assert len(P.psi) == len(indices_up_to(2, 3))
        assert ws.order_cap == 1
        cs = characteristic_system(VectorFieldFamily(ws, (Y,)), 3)
        assert len(cs.residuals) == 1 + len(indices_up_to(2, 2))
        assert ws.order_cap == 1
    with pytest.raises(JetOrderExceeded):
        parse("u_{x1,x1}", ws)


def test_hard_cap_guards_lazy_psi_and_total_derivatives():
    ws = Workspace(["x1", "x2"], ["u"], order_cap=2, hard_cap=3)
    u = ws.dependent[0]
    Y = VectorField(ws, (u, sp.Integer(0)), (u ** 2,))
    P = ProlongedVectorField(Y, 3)  # psi of order 3 needs jets of order 4
    assert P.coefficient(0, (2, 0)) is not None
    with pytest.raises(HardJetLimitExceeded):
        P.coefficient(0, (3, 0))
    with pytest.raises(HardJetLimitExceeded):
        total_derivative(ws.jet(0, (2, 1), auto_raise=True), 1, ws)
    with pytest.raises(HardJetLimitExceeded):
        characteristic_system(VectorFieldFamily(ws, (Y,)), 4)
    assert ws.order_cap == 2 and ws.hard_cap == 3


def test_characteristic_examples(ws2):
    u = ws2.dependent[0]
    one = sp.Integer(1)
    zero = sp.Integer(0)
    # Y = d/dx1 + d/du -> Q = 1 - u_{x1}
    Y = VectorField(ws2, (one, zero), (one,))
    assert characteristic(Y) == (normalize(1 - ws2.jet(0, (1, 0))),)
    # Y = d/du -> Q = 1
    Y = VectorField(ws2, (zero, zero), (one,))
    assert characteristic(Y) == (one,)
    # Y = d/dx1 + u^2 d/du -> Q = u^2 - u_{x1}
    Y = VectorField(ws2, (one, zero), (u ** 2,))
    assert characteristic(Y) == (normalize(u ** 2 - ws2.jet(0, (1, 0))),)


def test_characteristic_linearity(ws2, rng):
    xs = list(ws2.independent) + list(ws2.dependent)
    for _ in range(5):
        Y1 = VectorField(ws2, (random_poly(rng, xs, 1, 2), random_poly(rng, xs, 1, 2)),
                         (random_poly(rng, xs, 2, 2),))
        Y2 = VectorField(ws2, (random_poly(rng, xs, 1, 2), random_poly(rng, xs, 1, 2)),
                         (random_poly(rng, xs, 2, 2),))
        a, b = sp.Rational(3, 2), sp.Integer(-2)
        lhs = characteristic(linear_combination([Y1, Y2], [a, b]))[0]
        rhs = a * characteristic(Y1)[0] + b * characteristic(Y2)[0]
        assert is_zero(lhs - rhs) is ZeroVerdict.ZERO


def test_prolong_translation_and_vertical(ws2):
    one, zero = sp.Integer(1), sp.Integer(0)
    # Y = d/du prolongs to itself
    P = prolong(VectorField(ws2, (zero, zero), (one,)), 2)
    assert all(v == 0 for v in P.psi.values())
    # Y = d/dx1 prolongs to itself
    P = prolong(VectorField(ws2, (one, zero), (zero,)), 2)
    assert all(v == 0 for v in P.psi.values())


def test_prolong_scaling_field(ws1):
    # Y = u d/du on p=q=1: j^1 Y = u d/du + u_x d/du_x
    u = ws1.dependent[0]
    P = prolong(VectorField(ws1, (sp.Integer(0),), (u,)), 1)
    assert P.psi[(0, (1,))] == ws1.jet(0, (1,))


def test_prolong_first_order_flow_oracle(ws1, rng):
    """Finite differences of a vertical flow reproduce psi at order 1."""
    ws = ws1
    x = ws.independent[0]
    u = ws.dependent[0]
    ux = ws.jet(0, (1,))
    for _ in range(5):
        phi = random_poly(rng, [x, u], degree=2, terms=3)
        P = prolong(VectorField(ws, (sp.Integer(0),), (phi,)), 1)
        psi = P.psi[(0, (1,))]
        f = random_poly(rng, [x], degree=3, terms=3)
        fx = sp.diff(f, x)
        t = 1e-6
        for point in evaluable_points(x, random.Random(rng.randint(0, 10 ** 9)), 3):
            x0 = point[x]
            u0 = f.subs(x, x0)
            phi_f = phi.subs({x: x0, u: u0})
            # transformed section evaluated through its x-derivative
            moved = sp.diff(f + t * phi.subs(u, f), x).subs(x, x0)
            fd = (moved - fx.subs(x, x0)) / t
            exact = psi.subs({x: x0, u: u0, ux: fx.subs(x, x0)})
            assert abs(float(fd - exact)) <= 1e-4 * max(1.0, abs(float(exact)))


def test_contract_contact_matches_total_derivative(ws2, rng):
    """iota_{j^n Y} theta^a_K == D_K Q^a for random fields."""
    xs = list(ws2.independent) + list(ws2.dependent)
    for _ in range(6):
        Y = VectorField(ws2, (random_poly(rng, xs, 1, 2), random_poly(rng, xs, 1, 2)),
                        (random_poly(rng, xs, 2, 2),))
        P = prolong(Y, 2)
        Q = characteristic(Y)[0]
        for K in [MultiIndex((0, 0)), MultiIndex((1, 0)), MultiIndex((0, 1))]:
            lhs = contract_contact(P, 0, K)
            rhs = total_derivative_multi(Q, K, ws2)
            assert is_zero(lhs - rhs) is ZeroVerdict.ZERO


def test_contract_contact_examples(ws2):
    one, zero = sp.Integer(1), sp.Integer(0)
    x1 = ws2.independent[0]
    # Y = dx1 + du, theta^0: 1 - u_{x1}
    P = prolong(VectorField(ws2, (one, zero), (one,)), 2)
    assert contract_contact(P, 0, (0, 0)) == normalize(1 - ws2.jet(0, (1, 0)))
    # Y = dx2 + x1 du, theta^0: x1 - u_{x2}
    P2 = prolong(VectorField(ws2, (zero, one), (x1,)), 2)
    assert contract_contact(P2, 0, (0, 0)) == normalize(x1 - ws2.jet(0, (0, 1)))
    with pytest.raises(PreconditionFailed):
        contract_contact(P, 0, (1, 1))  # |K| = n rejected


def test_restrict_to_section_wave_case(ws2):
    u = ws2.dependent[0]
    nf = NormalFormSystem(ws2, {(0, 0): u ** 2, (0, 1): u ** 2})
    e = parse("u_{x1,x2} - 2*u^3", ws2)
    assert restrict_to_section(e, nf) == 0


def test_restrict_to_section_simple(ws2):
    u = ws2.dependent[0]
    x2 = ws2.independent[1]
    phi = ws2.add_function("phi")
    nf = NormalFormSystem(ws2, {(0, 0): phi, (0, 1): phi})
    assert restrict_to_section(ws2.jet(0, (1, 0)), nf) == phi
    nf2 = NormalFormSystem(ws2, {(0, 0): x2, (0, 1): sp.Integer(0)})
    assert restrict_to_section(ws2.jet(0, (2, 0)), nf2) == 0


def test_restrict_routes_differ_off_shell(ws2):
    # two unknown-function right-hand sides that are not compatible:
    # peel order matters, so both route values must be reported
    a = ws2.add_function("a")
    b = ws2.add_function("b")
    u = ws2.dependent[0]
    nf = NormalFormSystem(ws2, {(0, 0): a * u, (0, 1): b * u})
    values = restrict_routes(ws2.jet(0, (1, 1)), nf)
    assert len(values) == 2


def test_holonomic_annihilation(ws2, rng):
    """Substituting an explicit section into its own field's contact
    contractions yields zero."""
    x1, x2 = ws2.independent
    u = ws2.dependent[0]
    for _ in range(5):
        f = random_poly(rng, [x1, x2], degree=2, terms=3)
        nf = NormalFormSystem(ws2, {(0, 0): sp.diff(f, x1), (0, 1): sp.diff(f, x2)})
        fields = nf.fields()
        jet_map = {ws2.jet(0, K, auto_raise=True): sp.diff(f, x1, K[0], x2, K[1])
                   for K in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}
        jet_map[u] = f
        for Z in fields:
            P = prolong(Z, 2)
            for K in [(0, 0), (1, 0), (0, 1)]:
                residual = contract_contact(P, 0, K).xreplace(jet_map)
                assert is_zero(residual) is ZeroVerdict.ZERO


def _table_matches_chain(Y, n):
    ws = Y.ws
    PY = ProlongedVectorField(Y, n)
    Q = characteristic(Y)
    for K in [MultiIndex.zero(ws.p)] + indices_up_to(ws.p, n):
        for a in range(ws.q):
            # structural equality: the recursion repeats the chain's last step
            assert PY.characteristic_derivative(a, K) == total_derivative_multi(Q[a], K, ws)
    assert len(PY._dq) == ws.q * (1 + len(indices_up_to(ws.p, n)))


def test_characteristic_derivatives_match_chain(rng):
    """j^n Y's D_K Q equals total_derivative_multi entry by entry."""
    cases = [(p, ["u"], n) for p in (2, 3) for n in (1, 2, 3)] + [(2, ["u", "v"], 2)]
    for p, deps, n in cases:
        ws = Workspace([f"x{i + 1}" for i in range(p)], deps, order_cap=1)
        xs = list(ws.independent) + list(ws.dependent)
        Y = VectorField(ws, tuple(random_poly(rng, xs, 1, 2) for _ in range(p)),
                        tuple(random_poly(rng, xs, 2, 3) for _ in deps))
        _table_matches_chain(Y, n)


def test_characteristic_derivatives_liouville_member():
    ws = Workspace(["t", "x1", "x2"], ["u"], order_cap=1)
    ws.add_function("h", args=["t"])
    Y = VectorField.from_strings(
        ws, ["1", "x1", "0"], ["D(h(t),t) - 4*x1*exp(u/2)*exp(-h(t)/2)"])
    _table_matches_chain(Y, 2)
