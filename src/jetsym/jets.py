"""Jet-bundle calculus: total derivatives, prolongation, contact residuals.

Vector fields live on the base chart (x, u); prolongation lifts them to the
jet coordinates via iterated total derivatives of their characteristics.
Contracting a prolonged field with a basic contact form gives exactly the
total derivative of a characteristic, which is the residual whose zero set
defines a characteristic system.

On a section in normal form the jet values, their compatibility residuals
and the peel-route restrictions are forms, ``_read`` values whose N and D
hash by their monomials (``algebra._form``): section derivatives,
differences and substitutions run on them from the right-hand sides to the
restricted equations, each step memoized on its forms, and a tree is built
only where a public function returns one (``algebra._boundary``, which
gives back the tree a form was read off).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import sympy as sp

from .algebra import (_boundary, _derived, _difference, _form, _substitution, derive,
                      normalize, sum_of_products)
from .errors import HardJetLimitExceeded, PreconditionFailed
from .grammar import print_expr
from .multiindex import MultiIndex, indices_up_to

ROUTE_LIMIT = 128  # jet resolution routes that restrict_routes enumerates at most


@dataclass(frozen=True)
class VectorField:
    """First-order operator xi^i d/dx^i + phi^a d/du^a with coefficients on J0:
    normal forms (from ``parse``, ``normalize`` or the engine), checked, not normalized."""

    ws: object
    xi: tuple
    phi: tuple

    def __post_init__(self):
        ws = self.ws
        xi = tuple(map(sp.sympify, self.xi))
        phi = tuple(map(sp.sympify, self.phi))
        if len(xi) != ws.p or len(phi) != ws.q:
            raise ValueError("coefficient count does not match workspace dimensions")
        for e in xi + phi:
            if ws.max_jet_order(e) >= 1:
                raise ValueError(f"coefficient {e} contains jet symbols")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "phi", phi)

    def coefficient_row(self):
        return list(self.xi) + list(self.phi)

    def is_zero_field(self):
        return all(e == 0 for e in self.xi + self.phi)


def _as_index(K):
    return K if isinstance(K, MultiIndex) else MultiIndex(tuple(K))


def total_derivative(e, i, ws):
    """D_i e = de/dx_i + sum u^a_{K,i} de/du^a_K, i a 0-based slot: ``derive``
    with x_i -> 1 and u^a_K -> u^a_{K,i}.  The jets of order |K| + 1 it needs
    are created up to the hard cap; the order cap stays as it is."""
    e = sp.sympify(e)
    images = {s: ws.jet(a, K.inc(i), auto_raise=True) for s, a, K in ws.dependent_atoms(e)}
    images[ws.independent[i]] = sp.S.One
    return derive(e, images)


def total_derivative_multi(e, K, ws):
    """D_K = D_1^{k_1} o ... o D_p^{k_p}; the identity when |K| = 0."""
    K = _as_index(K)
    out = sp.sympify(e)
    for i, count in enumerate(K.counts):
        for _ in range(count):
            out = total_derivative(out, i, ws)
    return out


def characteristic(Y):
    """Q^a = phi^a - sum_i xi^i u^a_i, affine in the first-order jets."""
    ws = Y.ws
    return tuple(sum_of_products(
        [(sp.S.One, phi)] + [(xi, -ws.jet(a, MultiIndex.unit(ws.p, i), auto_raise=True))
                             for i, xi in enumerate(Y.xi)]) for a, phi in enumerate(Y.phi))


class ProlongedVectorField:
    """j^n Y: the base field plus psi^a_K coefficients for 1 <= |K| <= n.

    Each D_K Q^a and psi^a_K is derived once, when first read.  Jets of
    order n + 1 appear on the way, up to the workspace's hard cap.
    """

    def __init__(self, base, order):
        self.base = base
        self.order = order
        self._dq = {}
        self._psi = {}

    @property
    def ws(self):
        return self.base.ws

    def characteristic_derivative(self, alpha, K):
        """D_K Q^a: one total derivative, in the highest nonzero slot j of K,
        of D_{K - e_j} Q^a -- the last step of ``total_derivative_multi``'s
        chain, so the result equals ``total_derivative_multi(Q^a, K, ws)``."""
        K = _as_index(K)
        if K.order > self.order:
            raise PreconditionFailed(
                "prolongation order", f"|K| = {K.order} > {self.order}")
        key = (alpha, K.counts)
        if key not in self._dq:
            if K.order == 0:
                self._dq.update(((a, K.counts), q)
                                for a, q in enumerate(characteristic(self.base)))
            else:
                j = max(i for i, k in enumerate(K.counts) if k)
                lower = list(K.counts)
                lower[j] -= 1
                self._dq[key] = total_derivative(
                    self.characteristic_derivative(alpha, lower), j, self.ws)
        return self._dq[key]

    def coefficient(self, alpha, K):
        """psi^a_K = D_K Q^a + sum_i xi^i u^a_{K,i}, or phi^a when |K| = 0; an
        order-(n+1) jet that survives indicates a corrupted input and raises."""
        K = _as_index(K)
        if K.order == 0:
            return self.base.phi[alpha]
        key = (alpha, K.counts)
        if key not in self._psi:
            ws = self.ws
            val = sum_of_products(
                [(sp.S.One, self.characteristic_derivative(alpha, K))]
                + [(xi, ws.jet(alpha, K.inc(i), auto_raise=True))
                   for i, xi in enumerate(self.base.xi)])
            if ws.max_jet_order(val) > self.order:
                raise PreconditionFailed(
                    "prolongation", f"order-{self.order + 1} jets survived in psi_{K.counts}")
            self._psi[key] = val
        return self._psi[key]

    @property
    def psi(self):
        """{(a, K.counts): psi^a_K} for 1 <= |K| <= n, every entry derived."""
        ws = self.ws
        return {(a, K.counts): self.coefficient(a, K)
                for K in indices_up_to(ws.p, self.order) for a in range(ws.q)}

    def apply_to(self, f):
        """Apply j^n Y as a derivation to a function on the jet chart."""
        ws = self.ws
        f = sp.sympify(f)
        if ws.max_jet_order(f) > self.order:
            raise PreconditionFailed(
                "prolongation order",
                f"expression has jets of order {ws.max_jet_order(f)} > {self.order}")
        images = dict(zip(ws.independent, self.base.xi))
        images.update((s, self.coefficient(a, K)) for s, a, K in ws.dependent_atoms(f))
        return derive(f, images)


def prolong(Y, n):
    """j^n Y; raises at once when its order-(n+1) jets would pass the hard cap."""
    if n < 1:
        raise ValueError("prolongation order must be >= 1")
    if n + 1 > Y.ws.hard_cap:
        raise HardJetLimitExceeded(
            f"prolongation to order {n} needs jets of order {n + 1}, "
            f"beyond the hard limit {Y.ws.hard_cap}")
    return ProlongedVectorField(Y, n)


def contract_contact(PY, alpha, K):
    """iota_{j^n Y} theta^a_K = psi^a_K - sum_i u^a_{K,i} xi^i = D_K Q^a."""
    K = _as_index(K)
    if K.order > PY.order - 1:
        raise PreconditionFailed(
            "contact order", f"basic contact forms on J^{PY.order} need |K| <= {PY.order - 1}")
    return PY.characteristic_derivative(alpha, K)


# ---------------------------------------------------------------------------
# sections in normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalFormSystem:
    """First-order constraints u^a_{x_i} = phi^a_i(x, u): the computational
    face of a characteristic-system section.

    Each phi^a_i is a normal form (from ``parse``, ``normalize`` or the
    engine), checked, not normalized.  Each jet value is derived once, when first read.
    """

    ws: object
    rhs: dict
    _jets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = self.ws
        rhs = {}
        for a in range(ws.q):
            for i in range(ws.p):
                if (a, i) not in self.rhs:
                    raise ValueError(f"normal form is missing slot (alpha={a}, i={i})")
                e = sp.sympify(self.rhs[(a, i)])
                if ws.max_jet_order(e) >= 1:
                    raise ValueError(f"normal-form rhs {e} contains jet symbols")
                rhs[(a, i)] = e
        object.__setattr__(self, "rhs", rhs)

    def jet_value(self, alpha, route):
        """u^a_K on the section along a peel route of K, outermost slot first:
        the normal form of ``_jet``."""
        return _boundary(self._jet(alpha, route))

    def _jet(self, alpha, route):
        """The form of u^a_K along the route: phi^a_i's for the route (i,),
        else ``_section_derivative`` in slot route[0] of the form along
        route[1:]."""
        route = tuple(route)
        key = (alpha, route)
        if key not in self._jets:
            self._jets[key] = (
                _section_derivative(self._jet(alpha, route[1:]), route[0], self)
                if len(route) > 1 else _form(self.rhs[(alpha, route[0])]))
        return self._jets[key]

    def fields(self):
        """The induced fields Z_j = d/dx^j + sum phi^a_j d/du^a."""
        ws = self.ws
        out = []
        for j in range(ws.p):
            xi = tuple(sp.Integer(1) if i == j else sp.Integer(0) for i in range(ws.p))
            phi = tuple(self.rhs[(a, j)] for a in range(ws.q))
            out.append(VectorField(ws, xi, phi))
        return out

    def equations(self):
        """Constraint residuals u^a_i - phi^a_i as jet expressions."""
        ws = self.ws
        return [normalize(ws.jet(a, MultiIndex.unit(ws.p, i), auto_raise=True) - self.rhs[(a, i)])
                for a in range(ws.q) for i in range(ws.p)]

    def format_rows(self):
        ws = self.ws
        rows = []
        for a in range(ws.q):
            for i in range(ws.p):
                jet = ws.jet(a, MultiIndex.unit(ws.p, i), auto_raise=True)
                rows.append(f"{jet.name} = {print_expr(self.rhs[(a, i)])}")
        return rows


def section_derivative(e, i, nf):
    """D-tilde_i = d/dx_i + sum_b phi^b_i d/du^b acting on a J0 expression,
    i a 0-based slot: the normal form of ``_section_derivative``."""
    return _boundary(_section_derivative(_form(sp.sympify(e)), i, nf))


def _section_derivative(form, i, nf):
    """D-tilde_i of a form: ``derive``'s value step with x_i -> 1 and
    u^b -> phi^b_i."""
    ws = nf.ws
    images = {u: nf.rhs[(b, i)] for b, u in enumerate(ws.dependent)}
    images[ws.independent[i]] = sp.S.One
    return _derived(form, tuple(images.items()))


def compatibility_residuals(nf):
    """Integrability of u^a_i = phi^a_i: mixed section derivatives must agree.

    Returns (alpha, j, k, residual) with residual = D~_j phi^a_k - D~_k phi^a_j
    for j < k.  It is the phi^a-part of the bracket [Z_j, Z_k] of the induced
    fields, whose xi-part is 0, so all residuals vanish iff the fields commute.
    """
    return [(a, j, k, _boundary(res)) for a, j, k, res in _residuals(nf)]


def _residuals(nf):
    """``compatibility_residuals`` with each residual a form."""
    ws, value = nf.ws, nf._jet
    return [(a, j, k, _difference(value(a, (j, k)), value(a, (k, j))))
            for a in range(ws.q) for j in range(ws.p) for k in range(j + 1, ws.p)]


def restrict_to_section(e, nf):
    """Replace every jet by recursive section derivatives of the normal form.

    Uses the canonical peel route (lowest slot first); for an integrable
    normal form all routes agree because total derivatives commute.
    """
    e = sp.sympify(e)
    return _boundary(_substitution(_form(e), tuple((s, nf._jet(a, K.slots()))
                                                   for s, a, K in nf.ws.jet_atoms(e))))


def restrict_routes(e, nf):
    """All structurally-distinct restrictions over the jet peel routes.

    Off an integrable section the peel order matters; the determining
    machinery collects coefficients from every route so that no condition
    implied by a resolution order is lost.
    """
    return [_boundary(form) for form in _routes(sp.sympify(e), nf)]


def _routes(e, nf):
    """``restrict_routes`` with each restriction a form."""
    atoms = sorted(nf.ws.jet_atoms(e), key=lambda t: t[0].name)
    alternatives = [list(dict.fromkeys(nf._jet(a, route) for route in K.routes()))
                    for _, a, K in atoms]
    combos = math.prod(map(len, alternatives))
    if combos > ROUTE_LIMIT:
        raise PreconditionFailed(
            "route enumeration", f"{combos} jet resolution routes exceed limit {ROUTE_LIMIT}")
    # the first atom varies slowest, each over its distinct values last-first
    symbols, form = [s for s, _, _ in atoms], _form(e)
    return list(dict.fromkeys(_substitution(form, tuple(zip(symbols, combo)))
                              for combo in product(*(values[::-1] for values in alternatives))))
