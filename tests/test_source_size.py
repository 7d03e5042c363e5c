"""The size of ``src/powertrace`` is tracked like a performance number.

The package's line count may not exceed ``MAX_SRC_LINES``. A change that
raises the ceiling says why in CHANGES.md, as for a golden table hash: the
count should grow only with a new capability. A change that shrinks the
package lowers the ceiling to the new count.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "powertrace"
MAX_SRC_LINES = 2770


def test_source_stays_under_its_line_ceiling():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES, f"src/powertrace is {lines} lines, ceiling {MAX_SRC_LINES}"
