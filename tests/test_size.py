"""The package stays within its line budget.

``src/iseq`` was 2,993 lines at its largest; deleting code that only
duplicates another path counts as progress, so the package may not grow
past that again.  Run as a script, ``python tests/test_size.py`` prints the
count against the budget and exits 1 when it is over.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iseq"
BUDGET = 2993


def package_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))


def test_package_stays_within_its_line_budget():
    lines = package_lines()
    assert lines <= BUDGET, f"src/iseq has {lines} lines, over its budget of {BUDGET}"


if __name__ == "__main__":
    lines = package_lines()
    print(f"src/iseq has {lines} lines against a budget of {BUDGET}: {BUDGET - lines} to spare")
    sys.exit(lines > BUDGET)
