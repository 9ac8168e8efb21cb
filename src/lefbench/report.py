"""Line-oriented report assembly.

Reports are plain text, one ``key: value`` pair per line, with a PROOF
TRACE block of numbered tagged steps at the end of a full run.  Everything
is rendered deterministically so reports can be compared byte for byte.
"""

from __future__ import annotations

from .fibration import HomologyTable


class Report:
    def __init__(self):
        self._lines: list[str] = []

    def line(self, key: str, value) -> None:
        self._lines.append(f"{key}: {value}")

    def raw(self, text: str) -> None:
        self._lines.append(text)

    def blank(self) -> None:
        if self._lines and self._lines[-1] != "":
            self._lines.append("")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def fmt_group(free: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def homology_lines(table: HomologyTable) -> list[tuple[str, str]]:
    out = [(f"H{deg}", fmt_group(free, torsion))
           for deg, free, torsion in table.groups]
    out.append(("euler", str(table.euler())))
    out.extend((f"mod2 H{deg}", str(rank)) for deg, rank in table.mod2_table())
    return out


def thimble(label: str) -> str:
    """Report notation for the thimble with vanishing cycle ``label``."""
    return f"Th({label})"
