"""One result, two renderings.

A report is human text or a machine document, both deterministic: the
text is exactly the lines built, the machine form the data dictionary
with sorted keys, so identical inputs render identical bytes.  The
machine form is written directly, with the bytes of
``json.dumps(data, sort_keys=True, indent=2)``, in about half the time
and memory of that encoder, which is pure Python when it indents.  A
command that writes part of its data itself stores that part as
``Encoded`` text.  ``write_report`` writes each document's block when
it is built, so the report of a stream is never held whole.
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


# The indent of an item of the streamed list, inside the report's dict.
ITEM_PAD = " " * 4


def write_report(out, fmt: str, data: dict, key: str, blocks, gap: str) -> None:
    """Write to out the report of data holding, under key, the item of
    each (text lines, data item) block, each as blocks yields it.

    Text is the blocks' lines, with gap before each block but the first.
    JSON is ``_dumps`` of that data: the entries that sort before key
    are written with the first item, the rest after the last, so blocks
    may fill them in.  Nothing is written before the first block, and if
    blocks raises, out holds the blocks before.
    """
    if fmt != "json":
        for i, (lines, _) in enumerate(blocks):
            out.write("".join([gap if i else "", *(f"{line}\n" for line in lines)]))
        return

    def entries(keep):
        return [f"{encode_basestring_ascii(k)}: {_dumps(data[k], '  ')}"
                for k in sorted(data) if keep(k)]

    opening = "{\n  " + ",\n  ".join(
        [*entries(lambda k: k < key), encode_basestring_ascii(key) + ": ["])
    sep = opening
    for _, item in blocks:
        out.write(f"{sep}\n{ITEM_PAD}{_dumps(item, ITEM_PAD)}")
        sep = ","
    out.write("".join(["\n  ]" if sep == "," else opening + "]",
                       *(f",\n  {e}" for e in entries(lambda k: k > key)), "\n}\n"]))
