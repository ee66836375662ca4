"""Hand-written expectations for the benchmark's jobs, and the checks.

Every expectation is written from the README fixture table, the acceptance
criteria in ``tests/test_acceptance.py`` or ``PAPER.md``, never copied from
what the code prints today.  A pair that none of those sources covers expects
a verdict (exit 0, 1 or 2) or a typed error that names what is missing, and
never a traceback.

A job's outcome is one of ``ok``, ``failed`` (it raised, or exited 3 where a
verdict was expected) and ``wrong`` (it answered, but the exit code, a
verdict row, an equation count or the solution differs).  A ``Known`` entry
records a defect that the seed commit already has, with its ROADMAP item: a
miss that matches it is still counted as failed or wrong, but does not make
the run incorrect.  Any other miss does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import sympy as sp

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass(frozen=True)
class Known:
    """A defect present at the seed commit: the miss it causes, and where it is tracked."""

    item: str        # ROADMAP item that fixes it
    outcome: str     # FAILED or WRONG
    marker: str      # text the miss's detail contains

    def covers(self, outcome, detail):
        return outcome == self.outcome and self.marker in detail


@dataclass(frozen=True)
class Verdict:
    """A verdict is expected: exit code in ``exit`` and the listed facts."""

    exit: tuple = (0, 1, 2)
    rows: dict = field(default_factory=dict)         # verdict row name -> verdict
    equations: dict = field(default_factory=dict)    # line prefix -> count
    solution: dict = field(default_factory=dict)     # solution key -> expression
    # An instance that must satisfy every equation: coefficient functions
    # (constant on it), the functions that vanish on it, and parameter values.
    instance: dict = field(default_factory=dict)
    zero_functions: tuple = ()
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Error:
    """A typed error (exit 3) whose message contains ``text``."""

    text: str


# -- the CLI fixture table ---------------------------------------------------

def _wave_instance(degree):
    """u_x1 = u_x2 = u^2 solves u_{x1,x2} = 2 u^3 for every ansatz degree >= 2."""
    zero = tuple(f"{s}{k}" for s in "ab" for k in range(degree + 1) if k != 2)
    return dict(instance={"a2": 1, "b2": 1}, zero_functions=zero,
                parameters={"c3": 2, "c2": 0, "c1": 0, "c0": 0})


_LIOUVILLE_AD = Known("ROADMAP item 4", FAILED, "no evaluable specialization")
_ANALYZED = {"generic rank = p": "Yes", "projects onto TX": "Yes",
             "involutive": "Yes", "abelian": "Yes", "rectifiable": "Yes"}

# (command, problem, extra arguments, expectation, known defect, source)
CLI_TABLE = (
    # wave.jetsym: the a2 = b2 = 1 instance of the degree-2 ansatz, u_x1 =
    # u_x2 = u^2, is a commuting normal-form pair (README, criteria 1-3).
    ("analyze-distribution", "wave", (), Verdict((0,), _ANALYZED), None,
     "criterion 2: Z1, Z2 are a rectified Abelian family"),
    ("charsys", "wave", (), Verdict((0,), {"consistent": "Yes"}), None,
     "criterion 2: u = -1/(x1 + x2 + lam) lies in the zero set"),
    ("compatibility", "wave", (), Verdict((0,)), None,
     "criterion 2: the constraints have a common solution"),
    ("derive-determining", "wave", (),
     Verdict((0,), {"determining system generated": "ok"},
             {"pde:": 7, "compatibility:": 3},
             **_wave_instance(2)), None,
     "criterion 1: seven PDE and three compatibility equations"),
    ("verify-symmetry", "wave", (),
     Verdict((0,), {"conditional symmetry algebra": "Yes", "wave": "Zero"}), None,
     "criterion 2"),
    ("verify-solution", "wave", (),
     Verdict((0,), {"kink: wave": "Zero", "kink: u_{x1} = u^2": "Zero",
                    "kink: u_{x2} = u^2": "Zero"}), None,
     "criterion 2"),
    ("solve-liesys", "wave", (), Error("affine"), None,
     "README: sl(2)-type algebra, outside the catalog of affine transforms"),
    ("verify-symmetry", "wave", ("--fields", "rectifiable"),
     Verdict((0,), {"conditional symmetry algebra": "Yes"}), None,
     "criterion 3"),

    # gauss-codazzi.jetsym (README, criteria 5-6): the eta0 = 0, alpha = 1
    # instance u_x1 = exp(-u/2), u_x2 = 0.
    ("analyze-distribution", "gauss-codazzi", (), Verdict((0,), _ANALYZED), None,
     "criterion 6: the instance is a commuting normal-form pair"),
    ("charsys", "gauss-codazzi", (), Verdict((0,), {"consistent": "Yes"}), None,
     "criterion 6: u = 2 log(x1/2 + lam) lies in the zero set"),
    ("compatibility", "gauss-codazzi", (), Verdict((0,)), None,
     "criterion 6: the instance integrates"),
    ("derive-determining", "gauss-codazzi", (),
     Verdict((0,), {"determining system generated": "ok"},
             {"pde:": 5, "compatibility:": 3}), None,
     "criterion 5: five conditions (real parts) plus three imaginary parts"),
    ("verify-symmetry", "gauss-codazzi", (), Verdict(), None,
     "not covered: the PDE keeps the opaque H, Qr, Qi"),
    ("verify-solution", "gauss-codazzi", (),
     Verdict(rows={"flat: u_{x1} = exp(-u/2)": "Zero", "flat: u_{x2} = 0": "Zero"}),
     None, "README: verify-solution on the integrable instance (the PDE row "
           "keeps opaque functions, so any verdict)"),
    ("solve-liesys", "gauss-codazzi", (),
     Verdict((0,), {"u_{x1} = exp(-u/2)": "Zero", "u_{x2} = 0": "Zero"},
             solution={"u": "2*log(x1/2 + lam)"}), None,
     "criterion 6"),

    # liouville.jetsym (README, criterion 7, PAPER.md): a conditional
    # symmetry algebra in normal form whose constraints integrate.
    ("analyze-distribution", "liouville", (), Verdict((0,), _ANALYZED), _LIOUVILLE_AD,
     "compatibility holds, so the normal-form family is Abelian"),
    ("charsys", "liouville", (), Verdict((0,), {"consistent": "Yes"}), None,
     "criterion 7: the superposition formula lies in the zero set"),
    ("compatibility", "liouville", (), Verdict((0,)), None,
     "criterion 7: the constraints integrate"),
    ("derive-determining", "liouville", (), Error("ansatz section"), None,
     "no [ansatz] section"),
    ("verify-symmetry", "liouville", (),
     Verdict((0,), {"conditional symmetry algebra": "Yes"}), _LIOUVILLE_AD,
     "PAPER.md: the exponential constraints are a conditional symmetry"),
    ("verify-symmetry", "liouville", ("--force-direct",),
     Verdict((0,), {"conditional symmetry algebra": "Yes"}), None,
     "ROADMAP item 4: route B answers Yes"),
    ("verify-solution", "liouville", (),
     Verdict((0,), {"backlund: gle": "Zero", "multimode: gle": "Zero"}), None,
     "criterion 7"),
    ("solve-liesys", "liouville", (),
     Verdict((0,), solution={"u": "h(t) - 2*log(x1^2 - x2^2 + lam)"}), None,
     "criterion 7: the solver reproduces the superposition formula"),

    # rectify.jetsym (criterion 4): rectifies to u_t = e^t, u_x = e^x.
    ("analyze-distribution", "rectify", (),
     Verdict((0,), {"rectifiable": "Yes"},
             {"rectified: u_{t} = exp(t)": 1, "rectified: u_{x} = exp(x)": 1}), None,
     "criterion 4"),
    ("charsys", "rectify", (), Verdict(), None, "not covered"),
    ("compatibility", "rectify", (), Verdict((0,)), None,
     "criterion 4: the rectified system integrates to u = e^t + e^x + c"),
    ("derive-determining", "rectify", (), Error("ansatz section"), None, "no [ansatz]"),
    ("verify-symmetry", "rectify", (), Error("pde section"), None, "no [pde]"),
    ("verify-solution", "rectify", (), Error("candidates section"), None,
     "no [candidates]"),
    ("solve-liesys", "rectify", (), Verdict(), None, "not covered"),

    # nonlie.jetsym (README, criterion 9): non-involutive, non-integrable.
    ("analyze-distribution", "nonlie", (),
     Verdict((1,), {"involutive": "No", "rectifiable": "No"}), None, "criterion 9"),
    ("charsys", "nonlie", (), Verdict(), None, "not covered"),
    ("compatibility", "nonlie", (), Verdict((1,)), None,
     "README: the induced normal form is not integrable"),
    ("derive-determining", "nonlie", (), Error("ansatz section"), None, "no [ansatz]"),
    ("verify-symmetry", "nonlie", (), Error("pde section"), None, "no [pde]"),
    ("verify-solution", "nonlie", (), Error("candidates section"), None,
     "no [candidates]"),
    ("solve-liesys", "nonlie", (), Error("involutivity"), None,
     "README: the span is not involutive"),

    # empty.jetsym (criterion 9): constraints unsatisfiable with the PDE.
    ("analyze-distribution", "empty", (), Verdict(), None, "not covered"),
    ("charsys", "empty", (), Verdict(), None, "not covered"),
    ("compatibility", "empty", (), Verdict(), None, "not covered"),
    ("derive-determining", "empty", (), Error("ansatz section"), None, "no [ansatz]"),
    ("verify-symmetry", "empty", (),
     Verdict((1,), {"constraint set": "unsatisfiable"}), None, "criterion 9"),
    ("verify-solution", "empty", (), Error("candidates section"), None,
     "no [candidates]"),
    ("solve-liesys", "empty", (), Error("involutivity"), None,
     "by hand: [Y1, Y2] = d/du is not in the span of Y1 and Y2"),
)


# -- the determining ladder --------------------------------------------------

def _ladder(pde, compat, **extra):
    return Verdict((0,), {"determining system generated": "ok"},
                   {"pde:": pde, "compatibility:": compat}, **extra)


# Equation counts, derived by hand.  With q = 1, slot j's ansatz phi_j of
# family degree d, the mixed jet u_{x1,x2} resolves along two peel routes,
# each giving D~_k(phi_j) = (phi_j)_{x_k} + phi_j' phi_k; the two routes
# agree only on the top product coefficient (polynomial, exponential,
# hyperbolic) or the two top-frequency ones (trigonometric).  The
# compatibility residual D~_1 phi_2 - D~_2 phi_1 loses the same terms.
#   polynomial degree d: product powers u^0 .. u^(2d-1); pde 2(2d) - 1, compat 2d - 1
#   exponential |k| <= K (exp(k u/2)), hyperbolic |k| <= K (exp(k u)):
#       4K + 1 product keys; pde 2(4K + 1) - 2, compat 4K - 1
#   trigonometric n <= N: 4N + 1 product keys; pde 2(4N + 1) - 2, compat 4N - 1
#   KdV (single route, u_{x,x,x} of degree 3d - 2): pde 3d - 1, compat 2d - 1
#   two-component, degree 1: 3 keys per route, 2 routes, 2 PDEs: 12; compat 2 * 3
#   p = 3, pure second derivatives (one route, degree 3): pde 4; 3 pairs * 3 = 9
LADDER_TABLE = (
    ("wave-deg2", _ladder(7, 3, **_wave_instance(2)), "criterion 1 and the paper's instance"),
    ("wave-deg3", _ladder(11, 5, **_wave_instance(3)), "polynomial ladder"),
    ("wave-deg4", _ladder(15, 7, **_wave_instance(4)), "polynomial ladder"),
    ("sine-gordon-n2", _ladder(16, 7), "trigonometric family"),
    ("sine-gordon-n3", _ladder(24, 11), "trigonometric family"),
    ("liouville-k2", _ladder(16, 7), "exponential family"),
    ("sinh-gordon-k1", _ladder(8, 3), "hyperbolic family"),
    ("sinh-gordon-k2", _ladder(16, 7), "hyperbolic family"),
    ("kdv-deg2", _ladder(5, 3), "third order"),
    ("kdv-deg3", _ladder(8, 5), "third order"),
    ("two-component", _ladder(12, 6), "q = 2"),
    ("wave-p3", _ladder(4, 9), "p = 3"),
)


# -- checks -------------------------------------------------------------------

def _instance_residuals(expect, equations):
    """Values of every equation at the expected instance (all must be 0)."""
    names = {"D": sp.diff}
    for name in expect.zero_functions:
        names[name] = lambda *args: sp.Integer(0)
    for name, value in expect.instance.items():
        names[name] = lambda *args, v=value: sp.Integer(v)
    for name, value in expect.parameters.items():
        names[name] = sp.Integer(value)
    out = []
    for line in equations:                       # "pde: <expr> = 0"
        body = line.split(":", 1)[1].strip().removesuffix("= 0")
        out.append(sp.expand(sp.sympify(body, locals=names, convert_xor=True)))
    return out


def check_cli(expect, rc, data):
    """(outcome, detail) of one CLI job's exit code and JSON report."""
    if isinstance(expect, Error):
        message = data.get("error", "")
        if rc == 3 and expect.text in message:
            return OK, ""
        return WRONG, f"exit {rc}, expected a typed error naming {expect.text!r}"
    if rc == 3:
        return FAILED, data.get("error", "exit 3")
    if rc not in expect.exit:
        return WRONG, f"exit {rc}, expected {expect.exit}"
    rows = {row["name"]: row["verdict"] for row in data["verdicts"]}
    for name, verdict in expect.rows.items():
        if rows.get(name) != verdict:
            return WRONG, f"row {name!r} is {rows.get(name)}, expected {verdict}"
    equations = data["equations"]
    for prefix, count in expect.equations.items():
        got = sum(line.startswith(prefix) for line in equations)
        if got != count:
            return WRONG, f"{got} {prefix!r} equations, expected {count}"
    for key, text in expect.solution.items():
        got = data["solution"].get(key)
        if got is None or sp.expand(sp.sympify(got, convert_xor=True)
                                    - sp.sympify(text, convert_xor=True)) != 0:
            return WRONG, f"solution {key} = {got}, expected {text}"
    if expect.instance:
        bad = [r for r in _instance_residuals(expect, equations) if r != 0]
        if bad:
            return WRONG, f"instance leaves {len(bad)} equations nonzero, e.g. {bad[0]}"
    return OK, ""


def check_cli_report(expect, report):
    head, _, body = report.partition("\n")
    return check_cli(expect, int(head.split()[1]), json.loads(body))
