"""Golden reports: every command on every fixture, byte for byte.

Each file in ``tests/golden/`` is the ``--format json`` stdout of one
``jetsym COMMAND problems/FIXTURE.jetsym`` run at the default seed, error
reports (exit 3) included; the exit code is the report's ``exit_code``.
Two flag variants that take other code paths (route B through
``--force-direct``, a second ``[fields]`` group) have their own files,
named after the flags.
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
VARIANTS = [("liouville", "verify-symmetry", ("--force-direct",)),
            ("wave", "verify-symmetry", ("--fields", "rectifiable"))]


def run_json(fixture, command, extra=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([command, str(PROBLEMS / f"{fixture}.jetsym"), *extra,
                   "--format", "json"])
    return rc, out.getvalue()


def golden_path(fixture, command, extra=()):
    flags = "".join(f".{arg.lstrip('-')}" for arg in extra)
    return GOLDEN / f"{fixture}.{command}{flags}.json"


def test_golden_set_is_complete():
    assert len(CASES) + len(VARIANTS) == 44
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES + VARIANTS:
        golden_path(*case).write_text(run_json(*case)[1])
