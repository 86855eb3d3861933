"""The library's size stays within its line budget.

Lines are counted as the benchmark's `repo.src_lines` counts them: the
newlines in every .py file under src/.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SRC_LINE_BUDGET = 2460


def test_src_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_BUDGET, (
        f"src/ holds {lines} lines, over the budget of {SRC_LINE_BUDGET} "
        f"set by ROADMAP item 5 (get src/ back toward the seed's 2305)")
