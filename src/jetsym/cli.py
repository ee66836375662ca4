"""The jetsym command-line interface.

Exit status: 0 when every verdict is affirmative/Zero, 1 when any verdict is
negative, 2 when any verdict is Unknown, 3 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import TriBool, substitute, zero_verdict
from .condsym import (AnsatzSystem, PdeSystem, build_ansatz,
                      characteristic_system, compatibility_residuals,
                      determining_system, fields_to_normal_form,
                      verify_conditional_symmetry, verify_solution)
from .errors import JetsymError, PreconditionFailed
from .geometry import VectorFieldFamily, analyze_distribution, is_abelian, rectify
from .grammar import print_expr
from .jets import NormalFormSystem
from .liesys import build_pde_lie_system, recognize_riccati, solve_solvable_q1
from .problem import load_problem
from .report import Report
from .workspace import DEFAULT_SEED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jetsym",
        description="Jet-bundle calculus and Clairin conditional symmetries")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="problem file (.jetsym)")
    parser.add_argument("--order", type=int, default=None,
                        help="jet order n (default: problem file, else 2)")
    parser.add_argument("--seed", default=None,
                        help="hex RNG seed for probabilistic checks")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--force-direct", action="store_true",
                        help="use the direct tangency route for verify-symmetry")
    parser.add_argument("--cap", type=int, default=10,
                        help="Vessiot-Guldberg closure dimension cap")
    parser.add_argument("--fields", default="default",
                        help="which [fields] group to use")
    return parser


def _apply_instance(problem, exprs):
    if not problem.instance:
        return exprs
    return [(name, substitute(e, problem.instance)) for name, e in exprs]


def _pde_system(problem, instanced=False):
    pdes = _apply_instance(problem, problem.pdes) if instanced else problem.pdes
    if not pdes:
        raise PreconditionFailed("pde section", "this command needs [pde] equations")
    return PdeSystem(problem.ws, tuple(pdes))


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
        report.add("rectifiable", "No", detail=str(err))


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


def cmd_compatibility(report, problem, args, seed):
    F = problem.fields(args.fields)
    nf, direct = fields_to_normal_form(F, seed=seed, require_abelian=False)
    if not direct:
        report.notes.append("fields rectified before the compatibility check")
    ws = problem.ws
    all_zero = True
    for a, j, k, res in compatibility_residuals(nf):
        v = zero_verdict(res, seed=seed)
        if v.verdict.value != "Zero":
            all_zero = False
        name = (f"D_{ws.independent[j].name}(phi^{ws.dependent[a].name}"
                f"_{ws.independent[k].name}) - "
                f"D_{ws.independent[k].name}(phi^{ws.dependent[a].name}"
                f"_{ws.independent[j].name})")
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
    if spec.explicit_rhs is not None:
        rhs = {}
        idx = 0
        for j in range(ws.p):
            for a in range(ws.q):
                rhs[(a, j)] = spec.explicit_rhs[idx]
                idx += 1
        ansatz = AnsatzSystem.from_explicit(spec.family, ws, rhs)
    else:
        ansatz = build_ansatz(spec.family, ws)
    dsys = determining_system(pde, ansatz)
    for eq in dsys.compatibility_eqs:
        report.equations.append(f"compatibility: {print_expr(eq)} = 0")
    for eq in dsys.pde_eqs:
        report.equations.append(f"pde: {print_expr(eq)} = 0")
    report.add("determining system generated", "ok",
               detail=f"{len(dsys.pde_eqs)} PDE equations, "
                      f"{len(dsys.compatibility_eqs)} compatibility equations "
                      f"in {len(ansatz.unknowns)} unknown functions")
    report.notes.append(
        "unknowns: " + ", ".join(print_expr(f) for f in ansatz.unknowns))


def cmd_verify_symmetry(report, problem, args, seed):
    pde = _pde_system(problem, instanced=True)
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
    pde = _pde_system(problem, instanced=True) if problem.pdes else None
    nf = None
    if problem.field_groups:
        F = problem.fields(args.fields)
        nf, _ = fields_to_normal_form(F, seed=seed)
        if problem.instance:
            nf = NormalFormSystem(ws, {k: substitute(v, problem.instance)
                                       for k, v in nf.rhs.items()})
    for cand in problem.candidates:
        systems = []
        if cand.target in ("pde", "both") and pde is not None:
            systems.append(pde)
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
    nf, _ = fields_to_normal_form(F, seed=seed)
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


def run(args):
    seed = int(args.seed, 16) if args.seed else DEFAULT_SEED
    problem = load_problem(args.problem, order=args.order)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
    except JetsymError as err:
        message = f"jetsym {args.command}: error: {err}"
        if args.format == "json":
            print(json.dumps({"command": args.command, "error": str(err),
                              "exit_code": 3}, sort_keys=True, indent=2))
        else:
            print(message, file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
