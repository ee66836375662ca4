"""Golden reports: every command on every fixture, byte for byte.

Each file in ``tests/golden/`` is the ``--format json`` stdout of one
``jetsym COMMAND problems/FIXTURE.jetsym`` run at the default seed, error
reports (exit 3) included; the exit code is the report's ``exit_code``.
Five flag variants that take other code paths (route B through
``--force-direct`` on three fixtures, a second ``[fields]`` group under
verify-symmetry and analyze-distribution) have their own files, named after
the flags.  The rungs of the benchmark's determining ladder,
``perfbench/problems/RUNG.jetsym``, have one ``derive-determining`` file
each, so their determining equations are locked as well as counted.
The files change only with an intended report change.  Rewrite them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetsym.cli import COMMANDS, main
from jetsym.report import Report

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
LADDER = ROOT / "perfbench" / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
SOURCES = {p.stem: p for folder in (LADDER, PROBLEMS) for p in folder.glob("*.jetsym")}
FIXTURES = sorted(p.stem for p in PROBLEMS.glob("*.jetsym"))
RUNGS = sorted(p.stem for p in LADDER.glob("*.jetsym"))
CASES = ([(fixture, command) for fixture in FIXTURES for command in COMMANDS]
         + [(rung, "derive-determining") for rung in RUNGS])
VARIANTS = [("liouville", "verify-symmetry", ("--force-direct",)),
            ("wave", "verify-symmetry", ("--force-direct",)),
            ("gauss-codazzi", "verify-symmetry", ("--force-direct",)),
            ("wave", "verify-symmetry", ("--fields", "rectifiable")),
            ("wave", "analyze-distribution", ("--fields", "rectifiable"))]


def run_json(fixture, command, extra=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([command, str(SOURCES[fixture]), *extra,
                   "--format", "json"])
    return rc, out.getvalue()


def golden_path(fixture, command, extra=()):
    flags = "".join(f".{arg.lstrip('-')}" for arg in extra)
    return GOLDEN / f"{fixture}.{command}{flags}.json"


# golden reports of jobs that the benchmark's CLI table does not run
UNBENCHED = [golden_path("wave", "analyze-distribution", ("--fields", "rectifiable")),
             golden_path("wave", "verify-symmetry", ("--force-direct",)),
             golden_path("gauss-codazzi", "verify-symmetry", ("--force-direct",))]


def test_golden_set_is_complete():
    assert len(SOURCES) == len(FIXTURES) + len(RUNGS)
    assert len(CASES) + len(VARIANTS) == 59
    assert sorted(GOLDEN.glob("*.json")) == sorted(
        golden_path(*c) for c in CASES + VARIANTS)


def _check(expected, rc, out):
    assert out == expected
    assert rc == json.loads(expected)["exit_code"]
    if rc != 3:
        assert Report.from_json(out).to_json() == out


@pytest.mark.parametrize("fixture,command", CASES)
def test_golden_report(fixture, command):
    _check(golden_path(fixture, command).read_text(), *run_json(fixture, command))


@pytest.mark.parametrize("fixture,command,extra", VARIANTS,
                         ids=[golden_path(*v).stem for v in VARIANTS])
def test_golden_variant_report(fixture, command, extra):
    _check(golden_path(fixture, command, extra).read_text(),
           *run_json(fixture, command, extra))


@pytest.mark.parametrize("fixture,command,extra", [("wave", "derive-determining", ()),
                                                   ("wave", "verify-symmetry", ("--force-direct",))],
                         ids=["derive-determining", "verify-symmetry.force-direct"])
def test_report_without_caches(fixture, command, extra):
    """With sympy's caches and jetsym's memos off (SYMPY_USE_CACHE=no), a
    fresh process prints the golden report: no result rests on a memo."""
    proc = subprocess.run([sys.executable, "-m", "jetsym.cli", command, str(SOURCES[fixture]),
                           *extra, "--format", "json"], capture_output=True, text=True,
                          env={**os.environ, "SYMPY_USE_CACHE": "no"})
    _check(golden_path(fixture, command, extra).read_text(), proc.returncode, proc.stdout)


def load_expectations():
    """The benchmark's hand-written expectations, ``perfbench/expectations.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_expectations", ROOT / "perfbench" / "expectations.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_golden_reports_meet_the_benchmark_expectations():
    """Every golden report passes the benchmark's hand-written check for its
    job: the golden files and ``perfbench/expectations.py`` agree."""
    exp = load_expectations()
    expected = {golden_path(fixture, command, extra): expect
                for command, fixture, extra, expect, _, _ in exp.CLI_TABLE}
    expected.update((golden_path(rung, "derive-determining"), expect)
                    for rung, expect, _ in exp.LADDER_TABLE)
    assert sorted(expected) == sorted(set(GOLDEN.glob("*.json")) - set(UNBENCHED))
    outcomes = {}
    for path, expect in expected.items():
        data = json.loads(path.read_text())
        outcomes[path.name] = exp.check_cli(expect, data["exit_code"], data)
    assert {name: o for name, o in outcomes.items() if o[0] != exp.OK} == {}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES + VARIANTS:
        golden_path(*case).write_text(run_json(*case)[1])
