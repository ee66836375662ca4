"""The jetsym command-line interface.

Exit status: 0 when every verdict is affirmative/Zero, 1 when any verdict is
negative, 2 when any verdict is Unknown, 3 on errors, a malformed command
line and an exception that escapes a command among them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algebra import TriBool, zero_verdict
from .condsym import (AnsatzSystem, build_ansatz,
                      characteristic_system, compatibility_residuals,
                      determining_system, verify_conditional_symmetry,
                      verify_solution)
from .errors import JetsymError, PreconditionFailed
from .geometry import (VectorFieldFamily, analyze_distribution, is_abelian, rectify,
                       z_form)
from .grammar import print_expr, print_value
from .liesys import build_pde_lie_system, recognize_riccati, solve_solvable_q1
from .problem import load_problem
from .report import Report
from .workspace import DEFAULT_SEED


def _seed(text):
    """The value of a non-negative hex literal, with or without 0x."""
    if not re.fullmatch(r"(0[xX])?[0-9a-fA-F]+", text):
        raise argparse.ArgumentTypeError(f"not a non-negative hex literal: {text!r}")
    return int(text, 16)


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # main reports it, in the format asked for
        raise argparse.ArgumentError(None, message)


def build_parser():
    parser = _Parser(
        prog="jetsym",
        description="Jet-bundle calculus and Clairin conditional symmetries")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="problem file (.jetsym)")
    parser.add_argument("--order", type=int, default=None,
                        help="jet order n (default: problem file, else 2)")
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="hex RNG seed for probabilistic checks")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--force-direct", action="store_true",
                        help="use the direct tangency route for verify-symmetry")
    parser.add_argument("--cap", type=int, default=10,
                        help="Vessiot-Guldberg closure dimension cap")
    parser.add_argument("--fields", default="default",
                        help="which [fields] group to use")
    return parser


def _pde_system(problem):
    if problem.pde is None:
        raise PreconditionFailed("pde section", "this command needs [pde] equations")
    return problem.pde


def cmd_analyze(report, problem, args, seed):
    F = problem.fields(args.fields)
    ws = problem.ws
    dist = analyze_distribution(F, seed=seed)
    report.add("generic rank = p", "Yes" if dist.generic_rank == ws.p else "No",
               detail=f"rank {dist.generic_rank}, p = {ws.p}")
    report.add("projects onto TX", "Yes" if dist.projects_onto_tx else "No")
    report.add("involutive", dist.involutive.value)
    report.add("abelian", dist.abelian.value)
    if dist.structure_functions:
        for (j, k), coeffs in sorted(dist.structure_functions.items()):
            rendered = ", ".join(print_expr(c) for c in coeffs)
            report.equations.append(
                f"[Y{j + 1},Y{k + 1}] = ({rendered}) over members "
                f"{tuple(i + 1 for i in dist.spanning_subset)}")
    report.assumptions.extend(dist.assumptions)
    report.notes.extend(dist.degeneracy_notes)
    try:
        result = rectify(F, seed=seed, precomputed=dist)
        report.add("rectifiable", "Yes",
                   detail=f"xi-minor {print_expr(result.det)} inverted on members "
                          f"{tuple(i + 1 for i in result.subset)}")
        for row in result.nf.format_rows():
            report.equations.append(f"rectified: {row}")
        report.assumptions.extend(result.assumptions)
        report.notes.extend(result.notes)
    except JetsymError as err:
        # rank and projection held, so undetermined involutivity is the only cause
        undecided = (dist.involutive is TriBool.UNKNOWN
                     and getattr(err, "check", None) == "involutivity")
        report.add("rectifiable", "Unknown" if undecided else "No", detail=str(err))


def cmd_charsys(report, problem, args, seed):
    F = problem.fields(args.fields)
    n = problem.ws.order_cap
    cs = characteristic_system(F, n, seed=seed)
    for label, rendered in cs.rows(problem.ws):
        report.equations.append(f"{label}: {rendered} = 0")
    if cs.inconsistent:
        report.add("consistent", "No",
                   detail="constant nonzero residual: the zero set is empty")
    else:
        report.add("consistent", "Yes")


def _constraints(F, seed):
    """(nf, rectified): F in Z_j-form is its characteristic system (Def. 7.1)."""
    nf = z_form(F)
    return (nf, False) if nf is not None else (rectify(F, seed=seed).nf, True)


def cmd_compatibility(report, problem, args, seed):
    nf, rectified = _constraints(problem.fields(args.fields), seed)
    if rectified:
        report.notes.append("fields rectified before the compatibility check")
    ws = problem.ws
    all_zero = True
    for a, j, k, res in compatibility_residuals(nf):
        v = zero_verdict(res, seed=seed)
        if v.verdict.value != "Zero":
            all_zero = False
        x, u = ws.independent, ws.dependent[a]
        name = f"D_{x[j]}(phi^{u}_{x[k]}) - D_{x[k]}(phi^{u}_{x[j]})"
        report.add(name, v.verdict.value, confidence=v.confidence,
                   detail=print_expr(res))
    abelian = is_abelian(VectorFieldFamily(ws, tuple(nf.fields())), seed=seed)
    report.notes.append(f"cross-check: induced fields Abelian = {abelian.value}")
    if all_zero != (abelian is TriBool.YES):
        report.notes.append("WARNING: compatibility and Abelian verdicts disagree")


def cmd_derive_determining(report, problem, args, seed):
    ws = problem.ws
    if problem.ansatz is None:
        raise PreconditionFailed("ansatz section",
                                 "derive-determining needs an [ansatz] section")
    pde = _pde_system(problem)
    spec = problem.ansatz
    ansatz = (build_ansatz(spec.family, ws) if spec.explicit_rhs is None
              else AnsatzSystem.from_explicit(spec.family, ws, spec.explicit_rhs))
    dsys = determining_system(pde, ansatz)
    for kind, eqs in (("compatibility", dsys.compatibility), ("pde", dsys.pde)):
        report.equations.extend(f"{kind}: {print_value(eq)} = 0" for eq in eqs)
    report.add("determining system generated", "ok",
               detail=f"{len(dsys.pde)} PDE equations, "
                      f"{len(dsys.compatibility)} compatibility equations "
                      f"in {len(ansatz.unknowns)} unknown functions")
    report.notes.append(
        "unknowns: " + ", ".join(print_expr(f) for f in ansatz.unknowns))


def cmd_verify_symmetry(report, problem, args, seed):
    pde = _pde_system(problem)
    F = problem.fields(args.fields)
    result = verify_conditional_symmetry(pde, F, n=problem.ws.order_cap,
                                         force_direct=args.force_direct,
                                         seed=seed)
    overall = result.overall()
    report.add("conditional symmetry algebra", overall.value,
               justification=f"route {result.route}: {result.justification}")
    if result.unsatisfiable:
        report.add("constraint set", "unsatisfiable")
    for label, r in result.verdicts:
        report.add(label, r.verdict.value, confidence=r.confidence)
    report.assumptions.extend(result.assumptions)
    report.notes.extend(result.notes)
    if result.nf is not None:
        for row in result.nf.format_rows():
            report.equations.append(f"section: {row}")


def cmd_verify_solution(report, problem, args, seed):
    ws = problem.ws
    if not problem.candidates:
        raise PreconditionFailed("candidates section",
                                 "verify-solution needs a [candidates] section")
    dc = problem.field_groups and any(c.target in ("dc", "both") for c in problem.candidates)
    nf = _constraints(problem.fields(args.fields), seed)[0] if dc else None
    for cand in problem.candidates:
        systems = []
        if cand.target in ("pde", "both") and problem.pde is not None:
            systems.append(problem.pde)
        if cand.target in ("dc", "both") and nf is not None:
            systems.append(nf)
        if not systems:
            raise PreconditionFailed(
                "verify-solution", f"candidate {cand.name}: nothing to check against")
        for label, r in verify_solution(systems, cand.exprs, ws, seed=seed):
            report.add(f"{cand.name}: {label}", r.verdict.value,
                       confidence=r.confidence)


def cmd_solve_liesys(report, problem, args, seed):
    ws = problem.ws
    F = problem.fields(args.fields)
    nf = rectify(F, seed=seed).nf
    sys_ = build_pde_lie_system(nf, cap=args.cap, seed=seed)
    gens = ", ".join("(" + ", ".join(print_expr(c) for c in g) + ")"
                     for g in sys_.vg.generators)
    report.solution["vg_dimension"] = sys_.vg.dimension
    report.solution["vg_generators"] = gens
    riccati, violation = recognize_riccati(sys_)
    report.solution["riccati_shape"] = "yes" if riccati else f"no ({violation})"
    report.notes.extend(sys_.notes)
    sol = solve_solvable_q1(sys_, seed=seed)
    report.solution["transform"] = sol.transform
    report.solution["w_homogeneous"] = print_expr(sol.w_homogeneous)
    report.solution["w_particular"] = print_expr(sol.w_particular)
    report.solution[ws.dependent[0].name] = print_expr(sol.u_expr)
    report.assumptions.extend(sol.assumptions)
    if sol.unresolved:
        report.add("solution fully explicit", "Unknown",
                   detail="formal integral nodes remain in the solution")
    for label, r in sol.verdicts:
        report.add(label, r.verdict.value, confidence=r.confidence)


_HANDLERS = {
    "analyze-distribution": cmd_analyze,
    "charsys": cmd_charsys,
    "compatibility": cmd_compatibility,
    "derive-determining": cmd_derive_determining,
    "verify-symmetry": cmd_verify_symmetry,
    "verify-solution": cmd_verify_solution,
    "solve-liesys": cmd_solve_liesys,
}
COMMANDS = tuple(_HANDLERS)
# the instance-level commands: they get the problem with [instance] bound,
# the others the problem as written
BOUND_COMMANDS = frozenset({"verify-symmetry", "verify-solution", "solve-liesys"})


def run(args):
    seed = args.seed
    problem = load_problem(args.problem, order=args.order)
    if args.command in BOUND_COMMANDS:
        problem = problem.bound
    options = {
        "order": problem.ws.order_cap,
        "seed": f"0x{seed:X}",
        "fields": args.fields,
        "cap": args.cap,
        "force_direct": args.force_direct,
    }
    report = Report(command=args.command, problem=os.path.basename(problem.path),
                    options=options)
    _HANDLERS[args.command](report, problem, args, seed)
    return report


def _error(command, message, fmt):
    """Exit 3: the message on stderr, or under --format json an error object."""
    if fmt == "json":
        print(json.dumps({"command": command, "error": message, "exit_code": 3},
                         sort_keys=True, indent=2))
    else:
        print(f"jetsym{f' {command}' if command else ''}: error: {message}", file=sys.stderr)
    return 3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:              # --help
        return 0
    except argparse.ArgumentError as err:
        # a usage error exits 3, not argparse's 2, the code of an Unknown
        # verdict; --format is read from what parses of the command line
        asked = _Parser(add_help=False)
        asked.add_argument("--format")
        try:
            fmt = asked.parse_known_args(argv)[0].format
        except argparse.ArgumentError:
            fmt = None
        if fmt == "json":
            return _error(next((a for a in argv if a in COMMANDS), None), str(err), fmt)
        parser.print_usage(sys.stderr)
        return _error(None, str(err), fmt)
    try:
        report = run(args)
    except Exception as err:    # a defect too ends in the error object, never a traceback
        message = str(err) if isinstance(err, JetsymError) else f"{type(err).__name__}: {err}"
        return _error(args.command, message, args.format)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
