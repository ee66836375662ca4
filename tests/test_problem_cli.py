import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym import algebra, cli, condsym, families, grammar
from jetsym import problem as problem_module
from jetsym.cli import COMMANDS, main
from jetsym.errors import NotSeparable, SchemaError
from jetsym.problem import load_problem
from jetsym.report import Report

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
LADDER = Path(__file__).resolve().parent.parent / "perfbench" / "problems"


def run_cli(capsys, *args):
    rc = main([str(a) for a in args])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *args):
    rc, out, _ = run_cli(capsys, *args, "--format", "json")
    return rc, json.loads(out)


def test_load_wave_problem():
    problem = load_problem(PROBLEMS / "wave.jetsym")
    assert problem.ws.p == 2 and problem.ws.q == 1
    assert problem.ws.order_cap == 2
    assert [name for name, _ in problem.pde.items()] == ["wave"]
    assert set(problem.field_groups) == {"default", "rectifiable"}
    assert problem.ansatz.family.kind == "polynomial"
    assert len(problem.candidates) == 1
    assert len(problem.instance) == 4


def test_load_problem_distribution_only():
    problem = load_problem(PROBLEMS / "rectify.jetsym")
    assert problem.pde is None
    assert "default" in problem.field_groups


def test_order_flag_overrides_file():
    problem = load_problem(PROBLEMS / "wave.jetsym", order=3)
    assert problem.ws.order_cap == 3


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.jetsym"
    bad.write_text("independent = x\n")
    with pytest.raises(SchemaError):
        load_problem(bad)
    bad.write_text("[variables]\nindependent = x\ndependent = u\n"
                   "[fields]\nY = \"1\"\n")
    with pytest.raises(SchemaError) as err:
        load_problem(bad)
    assert "xi1" in str(err.value)
    bad.write_text("[variables]\nindependent = x\ndependent = u\n"
                   "[pde]\np = \"u_{x} + nope\"\n")
    with pytest.raises(SchemaError) as err:
        load_problem(bad)
    assert "nope" in str(err.value)


HEADER = "[variables]\nindependent = x t\ndependent = u\n[pde]\np = \"u_{x}\"\n"


@pytest.mark.parametrize("body,line", [
    ("[options]\norder = two\n", 7),
    ("[options]\norder = 0\n", 7),
    ("[ansatz]\nfamily = polynomial\ndegree = 2x\n", 8),
    ("[ansatz]\nfamily = polynomial\ndegree = -1\n", 8),
    ("[ansatz]\nfamily = polynomal\n", 7),
    ("[pde]\nq = \"u_{t}\"\n", 6),
    ("[fields]\n[options]\norder = 1\n", 6),
    ("[ansatz]\ndegree = 2\n", 6),
    ("[ansatz]\nfamily = polynomial\ndegre = 2\n", 8),
    ("[instnace]\nc = \"1\"\n", 6),
    ("[ansatz]\nfamily = polynomial\nkmax = 2\n", 8),
    ("[options]\norder = 2\ndegree = 2\n", 8),
    ("[parameters]\nnames = c\n[fields]\nY = \"1\" | \"0\" ; \"c\"\n"
     "[instance]\nc = \"u_{x}\"\n", 11),
    ("[instance]\nc = \"1\"\n", 7),
    ("[fields]\nY = \"1\" ; \"0\"\n", 7),
    ("[candidates]\nk = \"1\" @ pdf\n", 7),
    ("[candidates]\nk = \"1\" | \"2\"\n", 7),
    ("[parameters]\nnames = a b\n[instance]\na = \"b\"\nb = \"a\"\n", 9),
], ids=["order-not-int", "order-zero", "degree-not-int", "degree-negative",
        "unknown-family", "duplicate-section", "empty-fields", "missing-key",
        "misspelled-key", "unknown-section", "key-of-another-family", "unknown-option",
        "jet-valued-binding", "binding-of-no-name", "field-entry-count",
        "candidate-target", "candidate-count", "cyclic-binding"])
def test_malformed_problem_reports_its_line(capsys, tmp_path, body, line):
    """Malformed numbers, sections, keys and lines exit 3 with FILE:LINE
    and no traceback."""
    path = tmp_path / "bad.jetsym"
    path.write_text(HEADER + body)
    rc, out, err = run_cli(capsys, "derive-determining", path)
    assert rc == 3
    assert f"{path}:{line}: " in err
    assert "Traceback" not in out + err


def test_trigonometric_ansatz_needs_one_dependent(capsys, tmp_path):
    """A trigonometric family over two dependent variables is refused at
    its family line when the problem loads, with no traceback."""
    path = tmp_path / "bad.jetsym"
    path.write_text(HEADER.replace("dependent = u", "dependent = u v")
                    + "[ansatz]\nfamily = trigonometric\n")
    rc, out, err = run_cli(capsys, "derive-determining", path)
    assert rc == 3
    assert f"{path}:7: trigonometric families support a single dependent variable" in err
    assert "Traceback" not in out + err


def test_unknown_field_group_is_an_error(capsys):
    rc, out, err = run_cli(capsys, "analyze-distribution", PROBLEMS / "wave.jetsym",
                           "--fields", "nope")
    assert rc == 3
    assert "no field group named 'nope'" in err
    assert ":0:" not in err
    assert "Traceback" not in out + err


def test_instance_binds_the_instance_level_commands_only(capsys, tmp_path):
    """liouville.jetsym with h(t) bound to t.  verify-solution checks the
    bound candidate against the bound constraints, and solve-liesys reads
    the bound section; analyze-distribution, charsys and compatibility see
    the problem as written, h(t) included."""
    path = tmp_path / "liouville.jetsym"
    path.write_text((PROBLEMS / "liouville.jetsym").read_text() + '[instance]\nh = "t"\n')
    rc, data = run_json(capsys, "verify-solution", path)
    assert rc == 0
    rows = [row for row in data["verdicts"] if row["name"].startswith("backlund: ")]
    assert [row["name"] for row in rows][:2] == ["backlund: gle", "backlund: u_{t} = 1"]
    assert len(rows) == 4
    assert {(row["verdict"], row["confidence"]) for row in rows} == {("Zero", "structural")}
    rc, data = run_json(capsys, "solve-liesys", path)
    assert rc == 0
    assert "u_{t} = 1" in [row["name"] for row in data["verdicts"]]
    golden = Path(__file__).resolve().parent / "golden"
    for command in ("analyze-distribution", "charsys", "compatibility"):
        rc, data = run_json(capsys, command, path)
        assert data == json.loads((golden / f"liouville.{command}.json").read_text())
        if command != "compatibility":
            assert "h(t)" in json.dumps(data)


def test_cli_exit_codes(capsys):
    rc, _, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym")
    assert rc == 0
    rc, _, _ = run_cli(capsys, "compatibility", PROBLEMS / "nonlie.jetsym")
    assert rc == 1
    rc, _, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "empty.jetsym")
    assert rc == 1
    rc, _, err = run_cli(capsys, "charsys", PROBLEMS / "missing.jetsym")
    assert rc == 3


@pytest.mark.parametrize("flag,value", [("--seed", "xyz"), ("--seed", "-5"), ("--seed", "0x"),
                                        ("--order", "abc"), ("--cap", "abc")])
def test_malformed_flag_exits_3(capsys, flag, value):
    """A flag value that does not parse ends in exit 3, the error code, with a
    message that names the flag: no traceback, and not 1 or 2, the codes of
    a verdict.  A negative seed is refused, not run as its absolute value."""
    rc, out, err = run_cli(capsys, "charsys", PROBLEMS / "wave.jetsym", flag, value)
    assert rc == 3 and out == ""
    assert f"error: argument {flag}: " in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--seed", "xyz"), ("--seed", "-5"), ("--seed", "0x"),
                                        ("--order", "abc"), ("--cap", "abc")])
def test_malformed_flag_under_json_prints_the_error_object(capsys, flag, value):
    """Under --format json a flag value that does not parse prints the
    object every other exit-3 error prints, and nothing on stderr."""
    rc, out, err = run_cli(capsys, "charsys", PROBLEMS / "wave.jetsym", flag, value,
                           "--format", "json")
    assert rc == 3 and err == ""
    data = json.loads(out)
    assert data == {"command": "charsys", "error": data["error"], "exit_code": 3}
    assert data["error"].startswith(f"argument {flag}: ")


def test_seed_flag_takes_hex_literals(capsys):
    for value, echo in [("0x1F", "0x1F"), ("1f", "0x1F"), ("BEEF", "0xBEEF")]:
        rc, data = run_json(capsys, "charsys", PROBLEMS / "wave.jetsym", "--seed", value)
        assert rc == 0 and data["options"]["seed"] == echo
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0 and out.startswith("usage: jetsym")


def test_cli_error_reports_are_wrapped(capsys, tmp_path):
    bad = tmp_path / "bad.jetsym"
    bad.write_text("[variables]\nindependent = x\ndependent = u\n")
    rc, _, err = run_cli(capsys, "derive-determining", bad)
    assert rc == 3
    assert "ansatz" in err


def test_machine_report_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym",
                         "--format", "json")
    report = Report.from_json(out)
    assert report.to_json() == out
    again = Report.from_json(report.to_json())
    assert again.to_json() == out


def test_report_determinism_same_seed(capsys):
    rc1, out1, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym",
                           "--seed", "BEEF", "--format", "json")
    rc2, out2, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym",
                           "--seed", "BEEF", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_exit_status_contract_across_fixtures(capsys):
    """0 = all affirmative/Zero, 1 = any negative, 2 = any Unknown, 3 = error."""
    cases = [
        (0, ["analyze-distribution", PROBLEMS / "rectify.jetsym"]),
        (0, ["verify-solution", PROBLEMS / "liouville.jetsym"]),
        (0, ["solve-liesys", PROBLEMS / "gauss-codazzi.jetsym"]),
        (1, ["analyze-distribution", PROBLEMS / "nonlie.jetsym"]),
        (1, ["verify-symmetry", PROBLEMS / "empty.jetsym"]),
    ]
    for expected, argv in cases:
        rc, data = run_json(capsys, *argv)
        assert rc == expected, argv
        assert data["exit_code"] == expected
        states = {row["verdict"] for row in data["verdicts"]}
        if expected == 0:
            assert states <= {"Zero", "Yes", "ok"}
        elif expected == 1:
            assert states & {"NonZero", "No", "unsatisfiable", "failed"}


def test_exit_code_2_on_unknown(capsys, tmp_path):
    """Formal integrals leave Unknown verdicts, which exit with status 2."""
    path = tmp_path / "unresolved.jetsym"
    path.write_text(
        "[variables]\nindependent = x1 x2\ndependent = u\n"
        "[functions]\ndecl = g(x1)\n"
        "[options]\norder = 1\n"
        "[fields]\nZ1 = \"1\" | \"0\" ; \"g(x1)*u\"\n"
        "Z2 = \"0\" | \"1\" ; \"0\"\n")
    rc, data = run_json(capsys, "solve-liesys", path)
    assert rc == 2
    assert any(row["verdict"] == "Unknown" for row in data["verdicts"])
    assert "Int(" in data["solution"]["u"]


@pytest.mark.parametrize("args", [
    ("verify-symmetry", "wave.jetsym", "--seed", "BEEF"),
    # notes and assumptions from pivots chosen at sample points
    ("analyze-distribution", "rectify.jetsym"),
    ("verify-symmetry", "wave.jetsym", "--fields", "rectifiable"),
], ids=["verify-symmetry-wave", "analyze-distribution-rectify",
        "verify-symmetry-wave-rectifiable"])
def test_cross_process_determinism(args):
    """Identical problem + seed gives a byte-identical machine report, also
    across processes with different string hashing."""
    command, fixture, *flags = args
    cmd = [sys.executable, "-m", "jetsym.cli", command, str(PROBLEMS / fixture),
           *flags, "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": hash_seed})
            for hash_seed in ("1", "2")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_clear_cache_empties_every_memo(capsys):
    """jetsym's memos are registered in sympy's cache, so that
    ``clear_cache`` empties each of them after commands and zero tests that
    fill them all, and a cold pass stays cold.  ``_normal_kernel`` has none:
    ``_read`` is memoized on the same kernel, and ``grammar._kernel_call``
    on the parser's call.  The value
    steps of a determining system (``_derived``, ``_difference``,
    ``_substitution``), ``families._family_read`` and the value printer's
    ``grammar._monomial`` are filled by derive-determining on a
    trigonometric ladder rung."""
    memos = {f.__name__: f for module in (algebra, grammar, families)
             for f in vars(module).values() if hasattr(f, "cache_info")}
    assert sorted(memos) == ["_bound_image", "_derive", "_derived", "_difference", "_euler",
                             "_factor", "_family_read", "_form", "_image", "_kernel",
                             "_kernel_call", "_log_read", "_monomial", "_read", "_sort_key",
                             "_step_tree", "_substitution", "_tree", "ordered_terms"]
    assert all(any(f is c for c in sp.core.cache.CACHE) for f in memos.values())
    for command, path, *extra in [("verify-symmetry", PROBLEMS / "wave.jetsym", "--force-direct"),
                                  ("solve-liesys", PROBLEMS / "liouville.jetsym"),
                                  ("derive-determining", LADDER / "sine-gordon-n2.jetsym")]:
        assert run_json(capsys, command, path, *extra)[0] == 0
    ws = load_problem(PROBLEMS / "wave.jetsym").ws
    for text in ("sin(u)^2 + cos(u)^2 - 1", "log(exp(u)*(x1^2 + 1)) - u - log(x1^2 + 1)"):
        assert algebra.zero_verdict(ws.parse(text)).verdict.value == "Zero"
    assert all(f.cache_info().currsize for f in memos.values())
    sp.core.cache.clear_cache()
    assert {name: f.cache_info().currsize for name, f in memos.items()} == dict.fromkeys(memos, 0)


@pytest.mark.parametrize("tiny", ["1/1000000000000", "exp(-40)"])
def test_tiny_pivot_family_is_rectifiable(capsys, tmp_path, tiny):
    path = tmp_path / "tiny.jetsym"
    path.write_text("[variables]\nindependent = x1 x2\ndependent = u\n"
                    "[fields]\nY1 = \"1\" | \"0\" ; \"0\"\n"
                    f"Y2 = \"1\" | \"{tiny}\" ; \"0\"\n")
    rc, out, _ = run_cli(capsys, "analyze-distribution", path)
    assert rc == 0
    assert "[Yes] rectifiable" in out


def _scaled_liouville(tmp_path):
    """liouville.jetsym with its first member scaled by 2: out of Z_j-form,
    with the opaque h(t) and its derivative in the coefficients."""
    path = tmp_path / "liouville-scaled.jetsym"
    text = (PROBLEMS / "liouville.jetsym").read_text()
    scaled = text.replace('"1" | "0" | "0" ; "D(h(t),t)"', '"2" | "0" | "0" ; "2*D(h(t),t)"')
    assert scaled != text
    path.write_text(scaled)
    return path


def test_scaled_liouville_is_analyzed_exactly(capsys, tmp_path):
    """The opaque h(t) is a generator of the ring, so the elimination
    answers where no sample point could bind it, and route A answers."""
    path = _scaled_liouville(tmp_path)
    rc, data = run_json(capsys, "analyze-distribution", path)
    rows = {row["name"]: row for row in data["verdicts"]}
    assert rc == 0
    assert rows["generic rank = p"]["detail"] == "rank 3, p = 3"
    assert rows["projects onto TX"]["verdict"] == "Yes"
    rc, data = run_json(capsys, "verify-symmetry", path)
    assert rc == 0
    assert data["verdicts"][0]["verdict"] == "Yes"
    assert data["verdicts"][0]["justification"].startswith("route A: ")
    assert not any(n.startswith("route A unavailable") for n in data["notes"])


def test_route_a_error_falls_back_to_route_b(capsys, tmp_path, monkeypatch):
    """Any typed error on route A, not only a failed precondition, hands the
    question to route B."""
    def fail(*args, **kw):
        raise NotSeparable("forced")

    monkeypatch.setattr(condsym, "rectify", fail)
    rc, data = run_json(capsys, "verify-symmetry", _scaled_liouville(tmp_path))
    assert rc == 0
    assert data["verdicts"][0]["verdict"] == "Yes"
    assert "route B" in data["verdicts"][0]["justification"]
    assert ("route A unavailable: term forced does not separate into (x-part)*(u-part)"
            in data["notes"])


def test_load_problem_normalizes_each_equation_once_per_side(monkeypatch, tmp_path):
    """An equation is put in normal form by the parser, and once more only
    where an [instance] binding changes it; neither the one-line system that
    checks it at its own line nor the combined system normalizes it again.
    Counted from a cold cache: a substitution's tree may come from a memo."""
    sp.core.cache.clear_cache()
    path = tmp_path / "two.jetsym"
    path.write_text("[variables]\nindependent = x1 x2\ndependent = u\n"
                    "[parameters]\nnames = c\n"
                    '[pde]\nwave = "u_{x1,x2} - c*u^3"\nheat = "u_{x1} - u_{x2,x2}"\n'
                    '[instance]\nc = "2"\n')
    calls, label = [], ["parse"]
    real_form, real_normalize = algebra._normal_form, condsym.normalize
    real_substitute = problem_module.substitute

    def substitute(e, bindings):
        label[0] = "substitute"
        try:
            return real_substitute(e, bindings)
        finally:
            label[0] = "parse"

    # a normal form is labelled by the step it runs in: inside substitute
    # or, outside it, the parser
    monkeypatch.setattr(algebra, "_normal_form", lambda e, value: calls.append(label[0])
                        or real_form(e, value))
    monkeypatch.setattr(problem_module, "substitute", substitute)
    monkeypatch.setattr(condsym, "normalize", lambda e: calls.append("condsym") or real_normalize(e))
    problem = load_problem(path)
    # the binding parsed, then each equation parsed and the first one bound
    assert calls == ["parse", "parse", "substitute", "parse"]
    assert [str(e) for _, e in problem.bound.pde.items()] == [
        "-2*u**3 + u_{x1,x2}", "u_{x1} - u_{x2,x2}"]


def test_substituting_commands_make_no_xreplace_call(monkeypatch, capsys):
    """Route B on wave, and verify-solution and solve-liesys on liouville,
    substitute on values: no outermost ``xreplace`` call comes from
    condsym, liesys, jets or problem, and the substitution itself makes one
    only on a one-atom tree that meets a key, exp(u/2) or log(w) here."""
    calls, depth = [], [0]
    real = sp.Basic.xreplace

    def xreplace(self, *args, **kwargs):
        if not depth[0]:
            frame = sys._getframe(1)
            calls.append((frame.f_globals["__name__"], frame.f_code.co_name, self))
        depth[0] += 1
        try:
            return real(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sp.Basic, "xreplace", xreplace)
    sp.core.cache.clear_cache()
    for command, fixture, extra in [("verify-symmetry", "wave", ["--force-direct"]),
                                    ("verify-solution", "liouville", []),
                                    ("solve-liesys", "liouville", [])]:
        rc, _ = run_json(capsys, command, PROBLEMS / f"{fixture}.jetsym", *extra)
        assert rc == 0
    assert not {name for name, _, _ in calls} & {
        "jetsym.condsym", "jetsym.liesys", "jetsym.jets", "jetsym.problem"}
    substituted = [tree for name, f, tree in calls
                   if name == "jetsym.algebra" and f == "_bound_image"]
    assert substituted
    assert all(type(tree) in (sp.exp, sp.log) for tree in substituted)


def test_force_direct_flag(capsys):
    rc, data = run_json(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym",
                        "--force-direct")
    assert rc == 0
    assert any("route B" in row["justification"] for row in data["verdicts"])


def test_charsys_of_a_constant_field_is_inconsistent(capsys, tmp_path):
    """Y1 = du alone: its characteristic equation Q^u = 1 has no solution."""
    path = tmp_path / "constant.jetsym"
    path.write_text("[variables]\nindependent = x1 x2\ndependent = u\n"
                    "[fields]\nY1 = \"0\" | \"0\" ; \"1\"\n")
    rc, data = run_json(capsys, "charsys", path)
    assert rc == 1
    assert [(v["name"], v["verdict"]) for v in data["verdicts"]] == [("consistent", "No")]
    assert "member 0, D_(0, 0) Q^u: 1 = 0" in data["equations"]


def test_direct_route_needs_a_solvable_leading_jet(capsys, tmp_path):
    """Route B solves each equation for its leading jet; the eikonal
    equation is quadratic in it, which is a typed error, exit 3."""
    path = tmp_path / "eikonal.jetsym"
    path.write_text("[variables]\nindependent = x1 x2\ndependent = u\n[options]\norder = 1\n"
                    "[pde]\nq = \"u_{x1}^2 + u_{x2}^2 - 1\"\n[fields]\n"
                    "Z1 = \"1\" | \"0\" ; \"u\"\nZ2 = \"0\" | \"1\" ; \"u\"\n")
    rc, _, err = run_cli(capsys, "verify-symmetry", path, "--force-direct")
    assert rc == 3
    assert err.strip() == ("jetsym verify-symmetry: error: "
                           "cannot solve q for its leading jet: u_{x1}^2 + u_{x2}^2 - 1")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetsym.cli", "charsys",
         str(PROBLEMS / "wave.jetsym")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "D_" in proc.stdout


def test_charsys_reports_residual_table(capsys):
    rc, data = run_json(capsys, "charsys", PROBLEMS / "wave.jetsym")
    assert rc == 0
    assert any("u^2 - u_{x1}" in e or "-u_{x1} + u^2" in e
               for e in data["equations"])


@pytest.mark.parametrize("old,new,command,line", [
    ("names = lam c0 c1 c2 c3", "names = c[1", "charsys", 9),
    ("names = lam c0 c1 c2 c3", "names = lam lam c0 c1 c2 c3", "charsys", 9),
    ('wave = "u_{x1,x2} - (c3*u^3 + c2*u^2 + c1*u + c0)"', 'wave = "3"',
     "derive-determining", 15),
    ('Z1 = "1" | "0" ; "u^2"', 'Z1 = "u_{x1}" | "0" ; "u^2"', "verify-symmetry", 23),
    ('kink = "-1/(x1 + x2 + lam)"', 'kink = "u_{x1}"', "verify-solution", 33),
    ('wave = "u_{x1,x2} - (c3*u^3 + c2*u^2 + c1*u + c0)"', 'wave = "c1 + 1"',
     "verify-solution", 15),
    ("degree = 2", 'degree = 2\nrhs = "u_{x1}" | "0"', "derive-determining", 20),
], ids=["bad-identifier", "duplicate-parameter", "constant-equation", "jet-in-field",
        "jet-in-candidate", "constant-instanced-equation", "jet-in-explicit-rhs"])
def test_invalid_problem_object_reports_its_line(capsys, tmp_path, old, new, command, line):
    """A problem-file line whose object fails validation exits 3 with a
    typed error at FILE:LINE, never a traceback."""
    text = (PROBLEMS / "wave.jetsym").read_text()
    assert old in text
    path = tmp_path / "wave.jetsym"
    path.write_text(text.replace(old, new))
    rc, out, err = run_cli(capsys, command, path)
    assert rc == 3
    assert f"{path}:{line}: " in err
    assert "Traceback" not in out + err


_FIXTURE_TEXTS = {path.name: path.read_text() for path in sorted(PROBLEMS.glob("*.jetsym"))}
# pieces of the problem-file and expression grammars
_TOKENS = ["[", "]", "[fields]", "[pde]", "[candidates]", "[instance]", "=", ":", '"', "|",
           ";", "@", "#", "\n", " ", "(", ")", ",", "^", "*", "/", "+", "-", "1/", "0",
           "u", "x1", "t", "lam", "u_{x1}", "u_{x1,x1}", "exp(", "log(", "sin(", "D(",
           "names = ", "decl = h(t)", "family = ", "degree", "kmax", "nmax", "dc", "both"]


@st.composite
def _mutated_problems(draw):
    """A fixture after one to three edits, each on a line that is not a
    comment: a grammar token inserted, a span of up to 12 characters
    deleted, or the line duplicated."""
    name = draw(st.sampled_from(sorted(_FIXTURE_TEXTS)))
    lines = _FIXTURE_TEXTS[name].splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        content = [k for k, line in enumerate(lines) if line.strip()[:1] not in ("", "#")]
        k = draw(st.sampled_from(content or [0]))
        line = lines[k] if lines else ""
        kind = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        at = draw(st.integers(0, max(len(line) - 1, 0)))
        if kind == "insert":
            line = line[:at] + draw(st.sampled_from(_TOKENS)) + line[at:]
        elif kind == "delete":
            line = line[:at] + line[draw(st.integers(at + 1, at + 12)):]
        else:
            line += line
        lines[k:k + 1] = [line]
    return name, "".join(lines)


@settings(max_examples=200, deadline=None)
@given(_mutated_problems(), st.sampled_from(COMMANDS))
def test_mutated_problem_files_end_in_a_verdict_or_a_typed_error(problem, command):
    """Every mutated fixture, under any command, exits 0-3 without an
    exception escaping main, and exit 3 reports a JetsymError."""
    name, text = problem
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, str(path)])
    assert rc in (0, 1, 2, 3)
    if rc == 3:
        assert err.getvalue().startswith(f"jetsym {command}: error: ")


# [Z1, Z2] = h''(x1)*u^2 d/du: involutive, Abelian and rectifiable exactly
# when h'' = 0, which an opaque h leaves undetermined
_KINK = ("[variables]\nindependent = x1 x2\ndependent = u\n"
         "[parameters]\nnames = lam\n[functions]\ndecl = h(x1)\n[options]\norder = 2\n"
         '[pde]\nwave = "u_{x1,x2} - 2*u^3"\n'
         '[fields]\nZ1 = "1" | "0" ; "u^2"\nZ2 = "0" | "1" ; "PHI"\n'
         '[candidates]\nkink = "-1/(x1 + x2 + lam)" @ pde\n')


def test_verify_solution_rectifies_only_for_a_dc_candidate(capsys, tmp_path):
    """A candidate checked against the PDE alone is checked whatever the
    family is: undetermined involutivity no longer stops it.  A candidate on
    the constraints of a family in Z_j-form is checked against its own
    equations, its characteristic system (Def. 7.1), with no rectification;
    one of a family that must be rectified still needs it."""
    path = tmp_path / "kink.jetsym"
    path.write_text(_KINK.replace("PHI", "D(h(x1),x1)*u^2"))
    rc, data = run_json(capsys, "verify-solution", path)
    assert rc == 0
    assert [(v["name"], v["verdict"], v["confidence"]) for v in data["verdicts"]] == [
        ("kink: wave", "Zero", "structural")]
    path.write_text(_KINK.replace("PHI", "D(h(x1),x1)*u^2").replace("@ pde", "@ both"))
    rc, data = run_json(capsys, "verify-solution", path)
    assert rc == 2
    assert [(v["name"], v["verdict"], v["confidence"]) for v in data["verdicts"]] == [
        ("kink: wave", "Zero", "structural"), ("kink: u_{x1} = u^2", "Zero", "structural"),
        ("kink: u_{x2} = u^2*D(h(x1),x1)", "Unknown", "opaque")]
    # the same family written off Z_j-form, Z2 + Z1, is rectified first
    path.write_text(_KINK.replace("PHI", "D(h(x1),x1)*u^2").replace("@ pde", "@ both").replace(
        '"0" | "1" ; "D(h(x1),x1)*u^2"', '"1" | "1" ; "u^2 + D(h(x1),x1)*u^2"'))
    rc, data = run_json(capsys, "verify-solution", path)
    assert rc == 3
    assert "involutivity undetermined" in data["error"]


def test_undetermined_bracket_note_names_its_residual(capsys, tmp_path):
    """An Unknown involutivity or Abelian verdict names the residual it
    could not decide, as a No names the one that escapes: [Z1, Z2] is
    h''(x1)*u^2 d/du, on the Z_j-form family and off it."""
    path = tmp_path / "kink.jetsym"
    for z2 in ('"0" | "1" ; "D(h(x1),x1)*u^2"', '"1" | "1" ; "u^2 + D(h(x1),x1)*u^2"'):
        path.write_text(_KINK.replace('"0" | "1" ; "PHI"', z2))
        rc, data = run_json(capsys, "analyze-distribution", path)
        assert rc == 2
        notes = [n for n in data["notes"] if "span membership undetermined" in n]
        assert len(notes) == 1
        residual = notes[0].split("residual ")[1]
        assert residual.lstrip("-") == "u^2*D(h(x1),x1,x1)", notes


def test_rational_powers_and_constant_kernels_verify_structurally(capsys, tmp_path):
    """The reader takes x1^(1/2) and the constant kernels sin(1) and cos(1):
    a solution of u_{x1} = sin(x1 + 1) + (3/2)*x1^(1/2) is Zero, structural,
    through Euler's formula over exp(i*x1) and exp(i)."""
    path = tmp_path / "roots.jetsym"
    path.write_text("[variables]\nindependent = x1\ndependent = u\n[options]\norder = 1\n"
                    '[pde]\nroot = "u_{x1} - sin(x1 + 1) - (3/2)*x1^(1/2)"\n'
                    '[candidates]\nc = "-cos(x1)*cos(1) + sin(x1)*sin(1) + x1^(3/2)" @ pde\n')
    rc, data = run_json(capsys, "verify-solution", path)
    assert rc == 0
    assert [(v["name"], v["verdict"], v["confidence"]) for v in data["verdicts"]] == [
        ("c: root", "Zero", "structural")]


def test_rational_powers_of_kernels_verify(capsys, tmp_path):
    """sin(x1)^(1/2) is an atom with exponent 1/2: its derivative cancels
    against the PDE, and a residual that holds it is sampled."""
    path = tmp_path / "root_of_sin.jetsym"
    path.write_text("[variables]\nindependent = x1\ndependent = u\n[options]\norder = 1\n"
                    '[pde]\nroot = "u_{x1} - cos(x1)/(2*sin(x1)^(1/2))"\n'
                    '[candidates]\nc = "sin(x1)^(1/2)" @ pde\nd = "x1 + sin(x1)^(3/2)" @ pde\n')
    rc, data = run_json(capsys, "verify-solution", path)
    assert rc == 1
    assert [(v["name"], v["verdict"], v["confidence"]) for v in data["verdicts"]] == [
        ("c: root", "Zero", "structural"), ("d: root", "NonZero", "interval")]


@pytest.mark.parametrize("phi,verdict,rc", [("D(h(x1),x1)*u^2", "Unknown", 2),
                                            ("x1*u^2", "No", 1)])
def test_rectifiable_is_unknown_when_involutivity_is(capsys, tmp_path, phi, verdict, rc):
    """rectify's failure on undetermined involutivity leaves ``rectifiable``
    Unknown; on a bracket that escapes the span it stays No."""
    path = tmp_path / "kink.jetsym"
    path.write_text(_KINK.replace("PHI", phi))
    code, data = run_json(capsys, "analyze-distribution", path)
    verdicts = {v["name"]: v for v in data["verdicts"]}
    assert verdicts["involutive"]["verdict"] == ("Unknown" if verdict == "Unknown" else "No")
    assert verdicts["rectifiable"]["verdict"] == verdict
    assert verdicts["rectifiable"]["detail"].startswith("precondition failed (involutivity)")
    assert code == rc


def test_an_exception_that_escapes_a_command_exits_3(capsys, monkeypatch):
    """A command that raises anything, a ValueError from a defect too, ends
    in exit 3 with the command's error object under --format json, and in
    the error line on stderr otherwise; no traceback, never exit 1."""
    def broken(report, problem, args, seed):
        raise ValueError("cannot print expression node X")
    monkeypatch.setitem(cli._HANDLERS, "charsys", broken)
    rc, data = run_json(capsys, "charsys", PROBLEMS / "wave.jetsym")
    assert (rc, data) == (3, {"command": "charsys", "exit_code": 3,
                              "error": "ValueError: cannot print expression node X"})
    rc, out, err = run_cli(capsys, "charsys", PROBLEMS / "wave.jetsym")
    assert (rc, out) == (3, "")
    assert err == "jetsym charsys: error: ValueError: cannot print expression node X\n"


def test_abs_problem_file_ends_in_a_report_or_an_error_object(capsys, tmp_path):
    """|u| in the [pde] and |x1| in a phi, written as rational powers of
    squares: solve-liesys, whose potential sympy integrates to a Piecewise
    that the printer refuses, ends in exit 3 with its error object, and
    every command in a report or an error object, with no traceback."""
    path = tmp_path / "abs.jetsym"
    path.write_text("[variables]\nindependent = x1 x2\ndependent = u\n[options]\norder = 2\n"
                    "[pde]\nwave = \"(u^2)^(1/2) - u_{x1,x2}\"\n[fields]\n"
                    "Z1 = \"1\" | \"0\" ; \"(x1^2)^(1/2)*u\"\nZ2 = \"0\" | \"1\" ; \"u\"\n")
    rc, data = run_json(capsys, "solve-liesys", path)
    assert rc == data["exit_code"] == 3 and "ExprCondPair" in data["error"]
    for command in COMMANDS:
        rc, data = run_json(capsys, command, path)
        assert rc == data["exit_code"]
