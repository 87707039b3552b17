"""The package stays within its line budget.

``src/iseq`` was 2,993 lines at its largest; deleting code that only
duplicates another path counts as progress, so the package may not grow
past that again.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iseq"
BUDGET = 2993


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= BUDGET, f"src/iseq has {lines} lines, over its budget of {BUDGET}"
