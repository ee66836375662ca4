"""Golden reports: every command on every fixture, byte for byte.

Each file in ``tests/golden/`` is the ``--format json`` stdout of one
``jetsym COMMAND problems/FIXTURE.jetsym`` run at the default seed, error
reports (exit 3) included; the exit code is the report's ``exit_code``.
The files change only with an intended report change.  Rewrite them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from jetsym.cli import COMMANDS, main
from jetsym.report import Report

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(p.stem for p in PROBLEMS.glob("*.jetsym"))
CASES = [(fixture, command) for fixture in FIXTURES for command in COMMANDS]


def run_json(fixture, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([command, str(PROBLEMS / f"{fixture}.jetsym"), "--format", "json"])
    return rc, out.getvalue()


def golden_path(fixture, command):
    return GOLDEN / f"{fixture}.{command}.json"


def test_golden_set_is_complete():
    assert len(CASES) == 42
    assert sorted(GOLDEN.glob("*.json")) == sorted(golden_path(*c) for c in CASES)


@pytest.mark.parametrize("fixture,command", CASES)
def test_golden_report(fixture, command):
    expected = golden_path(fixture, command).read_text()
    rc, out = run_json(fixture, command)
    assert out == expected
    assert rc == json.loads(expected)["exit_code"]
    if rc != 3:
        assert Report.from_json(out).to_json() == out


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture, command in CASES:
        golden_path(fixture, command).write_text(run_json(fixture, command)[1])
