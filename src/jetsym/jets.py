"""Jet-bundle calculus: total derivatives, prolongation, contact residuals.

Vector fields live on the base chart (x, u); prolongation lifts them to the
jet coordinates via iterated total derivatives of their characteristics.
Contracting a prolonged field with a basic contact form gives exactly the
total derivative of a characteristic, which is the residual whose zero set
defines a characteristic system.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .algebra import normalize
from .errors import HardJetLimitExceeded, PreconditionFailed
from .grammar import print_expr
from .multiindex import MultiIndex, indices_up_to


@dataclass(frozen=True)
class VectorField:
    """First-order operator xi^i d/dx^i + phi^a d/du^a with coefficients on J0."""

    ws: object
    xi: tuple
    phi: tuple

    def __post_init__(self):
        ws = self.ws
        xi = tuple(normalize(e) for e in self.xi)
        phi = tuple(normalize(e) for e in self.phi)
        if len(xi) != ws.p or len(phi) != ws.q:
            raise ValueError("coefficient count does not match workspace dimensions")
        for e in xi + phi:
            if ws.max_jet_order(e) >= 1:
                raise ValueError(f"coefficient {e} contains jet symbols")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_strings(cls, ws, xi_texts, phi_texts):
        return cls(ws, tuple(ws.parse(t) for t in xi_texts),
                   tuple(ws.parse(t) for t in phi_texts))

    def apply_to(self, f):
        """Directional derivative of a J0 function along the field."""
        f = sp.sympify(f)
        out = sp.Integer(0)
        for i, x in enumerate(self.ws.independent):
            out += self.xi[i] * sp.diff(f, x)
        for a, u in enumerate(self.ws.dependent):
            out += self.phi[a] * sp.diff(f, u)
        return normalize(out)

    def coefficient_row(self):
        return list(self.xi) + list(self.phi)

    def is_zero_field(self):
        return all(e == 0 for e in self.xi + self.phi)

    def scaled(self, factor):
        factor = sp.sympify(factor)
        return VectorField(self.ws, tuple(factor * e for e in self.xi),
                           tuple(factor * e for e in self.phi))

    def __add__(self, other):
        if other.ws is not self.ws:
            raise ValueError("vector fields live on different workspaces")
        return VectorField(self.ws,
                           tuple(a + b for a, b in zip(self.xi, other.xi)),
                           tuple(a + b for a, b in zip(self.phi, other.phi)))

    def format(self):
        parts = []
        for i, x in enumerate(self.ws.independent):
            if self.xi[i] != 0:
                c = "" if self.xi[i] == 1 else f"({print_expr(self.xi[i])})*"
                parts.append(f"{c}d/d{x.name}")
        for a, u in enumerate(self.ws.dependent):
            if self.phi[a] != 0:
                c = "" if self.phi[a] == 1 else f"({print_expr(self.phi[a])})*"
                parts.append(f"{c}d/d{u.name}")
        return " + ".join(parts) if parts else "0"


def linear_combination(fields, coeffs):
    out = fields[0].scaled(coeffs[0])
    for f, c in zip(fields[1:], coeffs[1:]):
        out = out + f.scaled(c)
    return out


def _as_index(K):
    return K if isinstance(K, MultiIndex) else MultiIndex(tuple(K))


def _slot_index(ws, slot):
    if isinstance(slot, int):
        return slot
    return ws.slot(slot)


def total_derivative(e, slot, ws):
    """D_i e = de/dx_i + sum u^a_{K,i} de/du^a_K, order raised lazily."""
    i = _slot_index(ws, slot)
    e = sp.sympify(e)
    out = sp.diff(e, ws.independent[i])
    for s, a, K in ws.dependent_atoms(e):
        d = sp.diff(e, s)
        if d != 0:
            out += ws.jet(a, K.inc(i), auto_raise=True) * d
    return normalize(out)


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
    out = []
    for a in range(ws.q):
        q = Y.phi[a]
        for i in range(ws.p):
            q = q - Y.xi[i] * ws.jet(a, MultiIndex.unit(ws.p, i), auto_raise=True)
        out.append(normalize(q))
    return tuple(out)


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
            val = self.characteristic_derivative(alpha, K)
            for i in range(ws.p):
                val += self.base.xi[i] * ws.jet(alpha, K.inc(i), auto_raise=True)
            val = normalize(val)
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
        out = sp.Integer(0)
        for i, x in enumerate(ws.independent):
            out += self.base.xi[i] * sp.diff(f, x)
        for s, a, K in ws.dependent_atoms(f):
            out += self.coefficient(a, K) * sp.diff(f, s)
        return normalize(out)


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
    face of a characteristic-system section."""

    ws: object
    rhs: dict

    def __post_init__(self):
        ws = self.ws
        rhs = {}
        for a in range(ws.q):
            for i in range(ws.p):
                if (a, i) not in self.rhs:
                    raise ValueError(f"normal form is missing slot (alpha={a}, i={i})")
                e = normalize(self.rhs[(a, i)])
                if ws.max_jet_order(e) >= 1:
                    raise ValueError(f"normal-form rhs {e} contains jet symbols")
                rhs[(a, i)] = e
        object.__setattr__(self, "rhs", rhs)

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
        out = []
        for a in range(ws.q):
            for i in range(ws.p):
                jet = ws.jet(a, MultiIndex.unit(ws.p, i), auto_raise=True)
                out.append(normalize(jet - self.rhs[(a, i)]))
        return out

    def format_rows(self):
        ws = self.ws
        rows = []
        for a in range(ws.q):
            for i in range(ws.p):
                jet = ws.jet(a, MultiIndex.unit(ws.p, i), auto_raise=True)
                rows.append(f"{jet.name} = {print_expr(self.rhs[(a, i)])}")
        return rows


def section_derivative(e, slot, nf):
    """D-tilde_i = d/dx_i + sum_b phi^b_i d/du^b acting on a J0 expression."""
    ws = nf.ws
    i = _slot_index(ws, slot)
    out = sp.diff(sp.sympify(e), ws.independent[i])
    for b, u in enumerate(ws.dependent):
        out += nf.rhs[(b, i)] * sp.diff(e, u)
    return normalize(out)


def _route_value(alpha, route, nf):
    val = nf.rhs[(alpha, route[-1])]
    for slot in route[-2::-1]:
        val = section_derivative(val, slot, nf)
    return val


def jet_section_value(alpha, K, nf, route=None):
    """The J0 value of u^a_K on the section, resolved along a peel route."""
    K = _as_index(K)
    if K.order == 0:
        return nf.ws.dependent[alpha]
    if route is None:
        route = K.slots()
    return _route_value(alpha, tuple(route), nf)


def restrict_to_section(e, nf):
    """Replace every jet by recursive section derivatives of the normal form.

    Uses the canonical peel route (lowest slot first); for an integrable
    normal form all routes agree because total derivatives commute.
    """
    ws = nf.ws
    e = sp.sympify(e)
    mapping = {}
    for s, a, K in ws.jet_atoms(e):
        mapping[s] = jet_section_value(a, K, nf)
    return normalize(e.xreplace(mapping))


def restrict_routes(e, nf, limit=128):
    """All structurally-distinct restrictions over the jet peel routes.

    Off an integrable section the peel order matters; the determining
    machinery collects coefficients from every route so that no condition
    implied by a resolution order is lost.
    """
    ws = nf.ws
    e = sp.sympify(e)
    alternatives = []
    for s, a, K in sorted(ws.jet_atoms(e), key=lambda t: t[0].name):
        values = []
        for route in K.routes():
            v = jet_section_value(a, K, nf, route)
            if all(v != w for w in values):
                values.append(v)
        alternatives.append((s, values))
    combos = 1
    for _, values in alternatives:
        combos *= len(values)
    if combos > limit:
        raise PreconditionFailed(
            "route enumeration", f"{combos} jet resolution routes exceed limit {limit}")
    results = []
    stack = [(dict(), 0)]
    while stack:
        mapping, idx = stack.pop()
        if idx == len(alternatives):
            r = normalize(e.xreplace(mapping))
            if all(r != seen for seen in results):
                results.append(r)
            continue
        sym, values = alternatives[idx]
        for v in values:
            m2 = dict(mapping)
            m2[sym] = v
            stack.append((m2, idx + 1))
    return results
