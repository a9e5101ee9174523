"""One result, two renderings.

Commands build a report once and emit it either as human text or as a
machine document.  Both forms are fully deterministic: the text is
exactly the lines added, the machine form is the data dictionary with
sorted keys, so identical inputs render identical bytes.
"""

from __future__ import annotations

import json


class ReportBuilder:
    """Collects display lines and a data tree side by side."""

    def __init__(self, command: str):
        self._lines: list[str] = []
        self._data: dict = {"command": command}

    def line(self, text: str = "") -> None:
        self._lines.append(text)

    def lines(self, seq) -> None:
        for text in seq:
            self._lines.append(text)

    def set(self, key: str, value) -> None:
        self._data[key] = value

    def text(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else ""

    def json(self) -> str:
        return json.dumps(self._data, sort_keys=True, indent=2) + "\n"

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.json()
        return self.text()
