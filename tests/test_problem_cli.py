import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetsym.cli import main
from jetsym.errors import SchemaError
from jetsym.problem import load_problem
from jetsym.report import Report

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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
    assert [name for name, _ in problem.pdes] == ["wave"]
    assert set(problem.field_groups) == {"default", "rectifiable"}
    assert problem.ansatz.family.kind == "polynomial"
    assert len(problem.candidates) == 1
    assert len(problem.instance) == 4


def test_load_problem_distribution_only():
    problem = load_problem(PROBLEMS / "rectify.jetsym")
    assert problem.pdes == []
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
], ids=["order-not-int", "order-zero", "degree-not-int", "degree-negative",
        "unknown-family", "duplicate-section", "empty-fields", "missing-key"])
def test_malformed_problem_reports_its_line(capsys, tmp_path, body, line):
    """Malformed numbers and sections exit 3 with FILE:LINE and no traceback."""
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


def test_cli_exit_codes(capsys):
    rc, _, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym")
    assert rc == 0
    rc, _, _ = run_cli(capsys, "compatibility", PROBLEMS / "nonlie.jetsym")
    assert rc == 1
    rc, _, _ = run_cli(capsys, "verify-symmetry", PROBLEMS / "empty.jetsym")
    assert rc == 1
    rc, _, err = run_cli(capsys, "charsys", PROBLEMS / "missing.jetsym")
    assert rc == 3


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


@pytest.mark.parametrize("tiny", ["1/1000000000000", "exp(-40)"])
def test_tiny_pivot_family_is_rectifiable(capsys, tmp_path, tiny):
    path = tmp_path / "tiny.jetsym"
    path.write_text("[variables]\nindependent = x1 x2\ndependent = u\n"
                    "[fields]\nY1 = \"1\" | \"0\" ; \"0\"\n"
                    f"Y2 = \"1\" | \"{tiny}\" ; \"0\"\n")
    rc, out, _ = run_cli(capsys, "analyze-distribution", path)
    assert rc == 0
    assert "[Yes] rectifiable" in out


def test_route_a_error_falls_back_to_route_b(capsys, tmp_path):
    """Scaling liouville's first member takes the family out of Z_j-form, and
    the opaque h(t) then blocks route A's sampling: route B answers."""
    path = tmp_path / "liouville-scaled.jetsym"
    text = (PROBLEMS / "liouville.jetsym").read_text()
    scaled = text.replace('"1" | "0" | "0" ; "D(h(t),t)"', '"2" | "0" | "0" ; "2*D(h(t),t)"')
    assert scaled != text
    path.write_text(scaled)
    rc, data = run_json(capsys, "verify-symmetry", path)
    assert rc == 0
    assert data["verdicts"][0]["verdict"] == "Yes"
    assert "route B" in data["verdicts"][0]["justification"]
    assert any(n.startswith("route A unavailable: ") for n in data["notes"])


def test_force_direct_flag(capsys):
    rc, data = run_json(capsys, "verify-symmetry", PROBLEMS / "wave.jetsym",
                        "--force-direct")
    assert rc == 0
    assert any("route B" in row["justification"] for row in data["verdicts"])


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
