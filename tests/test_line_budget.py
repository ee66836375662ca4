from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "jetsym"
# the line count of src/jetsym/*.py, as `wc -l` counts it, that ROADMAP item 6
# (at most 3300) is worked down from
BUDGET = 4433


def test_source_stays_within_the_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py"))
    assert lines <= BUDGET, (
        f"src/jetsym/*.py has {lines} lines, over the budget of {BUDGET}; a change "
        "that raises BUDGET must justify the lines it adds in CHANGES.md")
