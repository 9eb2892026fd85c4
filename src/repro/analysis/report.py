"""Markdown rendering helpers for experiment reports and generated doc blocks."""

from __future__ import annotations

import re
from typing import List, Sequence


def markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], escape_pipes: bool = False
) -> str:
    """A GitHub-flavoured markdown table.

    Cells are stringified; floats get a compact 4-significant-digit form.
    *escape_pipes* writes a ``|`` inside a cell as ``\\|``, which a table
    embedded in a rendered page needs and terminal output does not.
    """
    if not headers:
        raise ValueError("a table needs at least one column")

    def fmt(cell: object) -> str:
        text = f"{cell:.4g}" if isinstance(cell, float) else str(cell)
        return text.replace("|", "\\|") if escape_pipes else text

    lines: List[str] = []
    lines.append("| " + " | ".join(fmt(h) for h in headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def replace_block(text: str, begin: str, end: str, body: str) -> str:
    """*text* with the lines between the *begin* and *end* marker lines set to *body*.

    How a generated table lives in a hand-written page (``docs/SCENARIOS.md``,
    ``EXPERIMENTS.md``); ``ValueError`` when the marker pair is missing.
    """
    pattern = re.compile(re.escape(begin) + r"\n.*?" + re.escape(end), re.DOTALL)
    if not pattern.search(text):
        raise ValueError(f"missing the {begin!r} marker block")
    return pattern.sub(lambda _match: f"{begin}\n{body}\n{end}", text)
