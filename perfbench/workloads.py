"""The benchmark's four workloads: seeded job lists over jetsym's public entry points.

Each workload is a closed loop with one client: its jobs run one after
another, and each job returns a deterministic text report that its check
compares with a hand-written expectation (``expectations.py``).  The seed is
the only input the benchmark chooses; every generated expression has a fixed
shape and takes only its coefficients from it, so the work per pass hardly
depends on the seed.

- ``cli-fixtures``: the 7 commands x 6 ``problems/*.jetsym`` fixtures plus two
  flag variants, through ``jetsym.cli.main`` with ``--format json``.
- ``prolong-poly``: prolongation commutes with the bracket on polynomial
  fields; no kernels, so zero tests stay structural.
- ``zero-kernels``: residuals with known answers for ``jetsym.zero_verdict``,
  which needs sampling for every one of them.
- ``determining-ladder``: ``derive-determining`` over the ansatz families,
  orders and chart sizes in ``perfbench/problems``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import sympy as sp

import jetsym
from jetsym import cli, jets
from jetsym.geometry import lie_bracket
from jetsym.multiindex import indices_up_to
from jetsym.problem import load_problem

from expectations import CLI_TABLE, LADDER_TABLE, OK, WRONG, Known, check_cli_report

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "problems"
LADDER = Path(__file__).resolve().parent / "problems"


@dataclass
class Job:
    name: str
    run: Callable[[], str]               # executes the job; returns its report
    check: Callable[[str], tuple]        # report -> (outcome, detail)
    known: Known | None = None


def _cli_job(name, argv, expect, known=None):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv + ["--format", "json"])
        return f"exit {rc}\n{out.getvalue()}"
    return Job(name, run, lambda report: check_cli_report(expect, report), known)


# -- cli-fixtures ------------------------------------------------------------

def cli_fixtures(seed):
    jseed = f"{seed:X}"
    jobs = []
    for command, problem, extra, expect, known, _source in CLI_TABLE:
        argv = [command, str(FIXTURES / f"{problem}.jetsym"), *extra, "--seed", jseed]
        jobs.append(_cli_job(" ".join([command, problem, *extra]), argv, expect, known))
    return jobs


def load_cli_fixtures(seed):
    return [load_problem(path) for path in sorted(FIXTURES.glob("*.jetsym"))]


# -- determining-ladder --------------------------------------------------------

def determining_ladder(seed):
    jseed = f"{seed:X}"
    return [_cli_job(f"derive-determining {name}",
                     ["derive-determining", str(LADDER / f"{name}.jetsym"), "--seed", jseed],
                     expect)
            for name, expect, _source in LADDER_TABLE]


def load_determining_ladder(seed):
    return [load_problem(LADDER / f"{name}.jetsym") for name, _e, _s in LADDER_TABLE]


# -- generated inputs ----------------------------------------------------------

def _coefficient(rng):
    """A nonzero small integer, so no term of a fixed shape ever drops out."""
    return sp.Integer(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))


def _combination(rng, monomials):
    return sp.Add(*[_coefficient(rng) * m for m in monomials])


# -- prolong-poly ------------------------------------------------------------

# (p, n) of the pairs in one pass: two charts, prolonged at n = 2 and n = 3.
PROLONG_CHARTS = ((2, 2), (2, 3), (3, 2))


def _field_pair_spec(rng, p):
    """Coefficients for two fields of fixed shape on a p-chart with one u.

    Y: xi^i = c + c x_{i+1},   phi = c u^2 + c x_1
    Z: xi^i = c + c u,         phi = c x_p u + c
    """
    return [[_coefficient(rng) for _ in range(2 * p + 2)] for _ in range(2)]


def _build_pair(p, spec):
    ws = jetsym.Workspace([f"x{i + 1}" for i in range(p)], ["u"], order_cap=2)
    x, u = ws.independent, ws.dependent[0]
    cy, cz = spec
    y_xi = tuple(cy[2 * i] + cy[2 * i + 1] * x[(i + 1) % p] for i in range(p))
    y_phi = cy[-2] * u ** 2 + cy[-1] * x[0]
    z_xi = tuple(cz[2 * i] + cz[2 * i + 1] * u for i in range(p))
    z_phi = cz[-2] * x[-1] * u + cz[-1]
    return ws, jets.VectorField(ws, y_xi, (y_phi,)), jets.VectorField(ws, z_xi, (z_phi,))


def _commutation_report(p, n, spec, corrupt):
    """Zero verdicts of [prY, prZ] - pr[Y, Z], coefficient by coefficient.

    ``corrupt`` adds u^2 d/du to the bracket before prolonging it, so the
    comparison must find a NonZero and cannot pass vacuously.
    """
    ws, Y, Z = _build_pair(p, spec)
    bracket = lie_bracket(Y, Z)
    if corrupt:
        u = ws.dependent[0]
        bracket = jets.VectorField(ws, bracket.xi, (bracket.phi[0] + u ** 2,))
    PB = jets.prolong(bracket, n)
    PY, PZ = jets.prolong(Y, n), jets.prolong(Z, n)
    verdicts = []
    for i in range(p):
        lhs = PY.apply_to(PZ.base.xi[i]) - PZ.apply_to(PY.base.xi[i])
        verdicts.append(jetsym.zero_verdict(lhs - PB.base.xi[i]).verdict.value)
    for K in [(0,) * p] + [K.counts for K in indices_up_to(p, n)]:
        lhs = PY.apply_to(PZ.coefficient(0, K)) - PZ.apply_to(PY.coefficient(0, K))
        verdicts.append(jetsym.zero_verdict(lhs - PB.coefficient(0, K)).verdict.value)
    return " ".join(verdicts)


def _check_commutation(corrupt, report):
    verdicts = report.split()
    if corrupt:
        ok = "NonZero" in verdicts and "Unknown" not in verdicts
        return (OK, "") if ok else (WRONG, f"corrupted pair not caught: {report}")
    if all(v == "Zero" for v in verdicts):
        return OK, ""
    return WRONG, f"prolongation does not commute: {report}"


def _prolong_specs(seed):
    rng = random.Random(f"prolong-poly:{seed}")
    specs = [(p, n, _field_pair_spec(rng, p), False) for p, n in PROLONG_CHARTS]
    specs.append((2, 2, _field_pair_spec(rng, 2), True))
    return specs


def prolong_poly(seed):
    jobs = []
    for k, (p, n, spec, corrupt) in enumerate(_prolong_specs(seed)):
        label = "corrupted" if corrupt else "pair"
        jobs.append(Job(
            f"prolong {label} {k} p={p} n={n}",
            lambda p=p, n=n, spec=spec, corrupt=corrupt:
                _commutation_report(p, n, spec, corrupt),
            lambda report, corrupt=corrupt: _check_commutation(corrupt, report)))
    return jobs


def load_prolong_poly(seed):
    return [_build_pair(p, spec) for p, _n, spec, _c in _prolong_specs(seed)]


# -- zero-kernels ------------------------------------------------------------

X, Y = sp.symbols("x y")
KERNEL_IDENTITIES = (
    lambda a: sp.sin(a) ** 2 + sp.cos(a) ** 2 - 1,
    lambda a: sp.cosh(a) ** 2 - sp.sinh(a) ** 2 - 1,
    lambda a: sp.sin(2 * a) - 2 * sp.sin(a) * sp.cos(a),
)
# Identities that hold only where every logarithm is real: sample points
# with x < 0 (or y < 0) evaluate to complex values and must be rejected.
LOG_IDENTITIES = (
    lambda: sp.log(X * Y) - sp.log(X) - sp.log(Y),
    lambda: sp.log(X ** 2) - 2 * sp.log(X),
)
# eps = 10^-e: two controls with eps = 1, which no tolerance can hide, then
# 10^-6 .. 10^-15, below or near the zero test's float tolerance.
EPSILON_EXPONENTS = (0, 0) + tuple(range(6, 16))
ZERO_ROUNDS = 2                              # identity residuals per kind
TOLERANCE_DEFECT = Known("ROADMAP item 3", WRONG, "verdict Zero")


def _multiplier(rng):
    """A random polynomial of fixed shape, c x^2 + c x y + c y + c."""
    return _combination(rng, (X ** 2, X * Y, Y, 1))


def _zero_specs(seed):
    """(name, residual, expected verdict, known defect) for one pass, from the seed."""
    rng = random.Random(f"zero-kernels:{seed}")
    specs = []
    for r in range(ZERO_ROUNDS):
        for k, identity in enumerate(KERNEL_IDENTITIES):
            arg = _combination(rng, (X, Y, 1))
            specs.append((f"kernel{k}.{r}", identity(arg) * _multiplier(rng), "Zero", None))
        for k, identity in enumerate(LOG_IDENTITIES):
            specs.append((f"log{k}.{r}", identity() * _multiplier(rng), "Zero", None))
    for k, e in enumerate(EPSILON_EXPONENTS):
        base_name, base = specs[k % len(specs)][:2]
        residual = base + sp.Rational(1, 10 ** e) * sp.exp(_combination(rng, (X, 1)))
        specs.append((f"{base_name}+1e-{e}", residual, "NonZero",
                      TOLERANCE_DEFECT if e > 0 else None))
    return specs


def _check_zero(expected, report):
    verdict = report.split()[0]
    if verdict == expected:
        return OK, ""
    return WRONG, f"verdict {verdict}, expected {expected}"


def zero_kernels(seed):
    jobs = []
    for name, residual, expected, known in _zero_specs(seed):
        def run(residual=residual):
            result = jetsym.zero_verdict(residual)
            return f"{result.verdict.value} {result.confidence} {result.witness}"
        jobs.append(Job(f"zero {name}", run,
                        lambda report, expected=expected: _check_zero(expected, report),
                        known))
    return jobs


def load_zero_kernels(seed):
    return [spec[1] for spec in _zero_specs(seed)]


WORKLOADS = {
    "cli-fixtures": (cli_fixtures, load_cli_fixtures),
    "prolong-poly": (prolong_poly, load_prolong_poly),
    "zero-kernels": (zero_kernels, load_zero_kernels),
    "determining-ladder": (determining_ladder, load_determining_ladder),
}


def generated_inputs(name, seed):
    """Text form of a workload's inputs, to show that a seed fixes them."""
    return json.dumps([sp.srepr(x) for x in _flatten(WORKLOADS[name][1](seed))])


def _flatten(items):
    for item in items:
        if isinstance(item, (tuple, list)):
            yield from _flatten(item)
        elif isinstance(item, jets.VectorField):
            yield from item.xi + item.phi
        elif isinstance(item, sp.Basic):
            yield item
