"""One result, two renderings.

Commands build a report once and emit it either as human text or as a
machine document.  Both forms are fully deterministic: the text is
exactly the lines added, the machine form is the data dictionary with
sorted keys, so identical inputs render identical bytes.  The machine
form is written directly, with the same bytes as
``json.dumps(data, sort_keys=True, indent=2)``, in about half the time
and memory of that encoder, which is pure Python when it indents.  A
command that writes part of its data itself stores that part as
``Encoded`` text.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii


class Encoded(str):
    """JSON text already written at the indent where it is placed;
    ``_dumps`` copies it as it is."""


def _dumps(value, pad: str) -> str:
    """The JSON text of value, nested at indent pad.

    Handles what reports hold: dicts with string keys, lists, tuples,
    strings, ints, booleans, None and ``Encoded`` text.  Each container
    joins the text of its members, so only one branch's pieces are alive
    at a time.
    """
    if isinstance(value, str):
        return value if type(value) is Encoded else encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join([
            f"{encode_basestring_ascii(key)}: {_dumps(value[key], inner)}"
            for key in sorted(value)])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        body = (",\n" + inner).join([_dumps(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} as report JSON")


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
        return _dumps(self._data, "") + "\n"

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.json()
        return self.text()
