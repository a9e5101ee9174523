"""Plain-text exchange format for finite algebras.

A document names its elements and gives the four operation tables row
by row:

    # anything after a hash is ignored
    label: a7
    elements: 0 a b c d e 1
    bottom: 0
    top: 1
    join:
    0 a b c d e 1
    a a b c d e 1
    ...          (one row per element, n names each; then meet:,
                  prod:, impl: the same way)

Blank lines are free.  A stream holds several documents separated by
lines containing only ``---``; a stream of comments alone, as a search
that matched nothing renders, holds none.  A stream is split and
parsed a document at a time, as it is read.  Parsing is strict: every
problem is reported with its line number, and unknown names are gathered
exhaustively rather than stopping at the first.  Rendering produces one
canonical form, and parsing a rendered document returns the identical
algebra.
"""

from __future__ import annotations

from collections.abc import Iterator

from .algebra import (MAX_ELEMENTS, InvalidAlgebraError, ResiduatedLattice,
                      validate)
from .errors import PreconditionError
from .record import Record

SECTION_NAMES = ("label", "elements", "bottom", "top")
TABLE_NAMES = ("join", "meet", "prod", "impl")

BUNDLED = ("a7", "bool4", "chain2", "chain3")


class ParseError(PreconditionError):
    """Malformed document text, with 1-based line numbers in the message."""


class NamedAlgebra(Record):
    """An algebra together with the label its document carried."""

    label: str | None
    algebra: ResiduatedLattice


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def check_document(lines, offset: int) -> DocumentCheck:
    """Parse and validate one document of ``split_stream``, given as
    (absolute line number, text) pairs.  Malformed text raises
    ParseError; law violations are collected in the verdict."""
    fields: dict[str, tuple[str, int]] = {}
    tables: dict[str, list[tuple[list[str], int]]] = {}
    names: list[str] | None = None
    elements_line = 0
    current_table: str | None = None

    for lineno, text in lines:
        head, sep, rest = text.partition(":")
        key = head.strip().lower() if sep else None
        if sep and key in SECTION_NAMES:
            current_table = None
            if key in fields or (key == "elements" and names is not None):
                raise ParseError(f"line {lineno}: repeated section {key!r}")
            if key == "elements":
                names = rest.split()
                elements_line = lineno
                if not names:
                    raise ParseError(f"line {lineno}: no element names given")
                if len(names) > MAX_ELEMENTS:
                    raise ParseError(
                        f"line {lineno}: {len(names)} elements given; "
                        f"at most {MAX_ELEMENTS} are supported")
                dupes = sorted({v for v in names if names.count(v) > 1})
                if dupes:
                    raise ParseError(
                        f"line {lineno}: repeated element names: "
                        + ", ".join(dupes))
                bad = sorted({v for v in names if ":" in v or v == "---"})
                if bad:
                    raise ParseError(
                        f"line {lineno}: unusable element names: "
                        + ", ".join(bad))
            elif not rest.strip():
                raise ParseError(f"line {lineno}: empty {key}")
            else:
                fields[key] = (rest.strip(), lineno)
            continue
        if sep and key in TABLE_NAMES:
            if rest.strip():
                raise ParseError(
                    f"line {lineno}: table header {key!r} takes no value")
            if key in tables:
                raise ParseError(f"line {lineno}: repeated table {key!r}")
            if names is None:
                raise ParseError(
                    f"line {lineno}: table {key!r} before the elements line")
            tables[key] = []
            current_table = key
            continue
        if current_table is not None:
            rows = tables[current_table]
            if len(rows) == len(names):
                raise ParseError(
                    f"line {lineno}: too many rows for table "
                    f"{current_table!r}; expected {len(names)}")
            rows.append((text.split(), lineno))
            continue
        raise ParseError(f"line {lineno}: unrecognized line {text!r}")

    if names is None:
        raise ParseError(
            f"line {offset}: document has no elements line")
    missing = [k for k in ("bottom", "top") if k not in fields]
    missing += [k for k in TABLE_NAMES if k not in tables]
    if missing:
        raise ParseError(
            f"line {offset}: document is missing: " + ", ".join(missing))
    for key, rows in tables.items():
        if len(rows) != len(names):
            raise ParseError(
                f"line {offset}: table {key!r} has {len(rows)} rows; "
                f"expected {len(names)}")
        for row, lineno in rows:
            if len(row) != len(names):
                raise ParseError(
                    f"line {lineno}: row has {len(row)} entries; "
                    f"expected {len(names)}")

    pos = {v: i for i, v in enumerate(names)}
    unknown: dict[str, list[int]] = {}

    def look(value: str, lineno: int) -> int:
        if value in pos:
            return pos[value]
        unknown.setdefault(value, []).append(lineno)
        return 0

    bottom = look(*fields["bottom"])
    top = look(*fields["top"])
    index_tables = {}
    for key, rows in tables.items():
        index_tables[key] = [[look(v, lineno) for v in row]
                             for row, lineno in rows]
    if unknown:
        listing = "; ".join(
            f"{value!r} at line {', '.join(map(str, sorted(set(ls))))}"
            for value, ls in sorted(unknown.items()))
        raise ParseError(
            f"names not on the elements line (line {elements_line}): "
            + listing)

    label = fields["label"][0] if "label" in fields else None
    try:
        alg = validate(tuple(names), index_tables["join"], index_tables["meet"],
                       index_tables["prod"], index_tables["impl"], bottom, top)
    except InvalidAlgebraError as exc:
        return DocumentCheck(label, None, exc.violations)
    return DocumentCheck(label, alg, ())


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, a piece of about 64 KB at a time; a piece
    ends after a line feed, which ends a line whatever ends the others."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + 65536) + 1 or len(text)
        yield from text[pos:end].splitlines()
        pos = end


def split_stream(text: str) -> Iterator[tuple[list[tuple[int, str]], int]]:
    """Each document as (its (line number, text without comment) pairs
    with text, its first line number), split off when the separator after
    it or the end of the text is reached.  A last separator ends nothing;
    an empty document is passed on to be rejected, but an empty first one
    only once another follows, since alone it is an empty stream."""
    doc: list[tuple[int, str]] = []
    start, separators, held = 1, 0, []
    for lineno, raw in enumerate(_lines(text), start=1):
        stripped = _strip(raw)
        if stripped != "---":
            if stripped:
                doc.append((lineno, stripped))
            continue
        if separators or doc:
            yield from held
            yield doc, start
        held = [] if separators or doc else [([], 1)]
        separators += 1
        doc, start = [], lineno + 1
    if doc:
        yield from held
        yield doc, start
    elif held or not (separators or text.strip()):
        raise ParseError("line 1: empty stream")


class DocumentCheck(Record):
    """One document's validation verdict: the algebra when the tables
    satisfy every law, otherwise the list of violations."""

    label: str | None
    algebra: ResiduatedLattice | None
    violations: tuple

    @property
    def valid(self) -> bool:
        return self.algebra is not None


def check_stream(text: str) -> Iterator[DocumentCheck]:
    """Validate every document, in order, each split off and parsed when
    reached, as ``check_document`` does."""
    for lines, start in split_stream(text):
        yield check_document(lines, start)


def parse_stream(text: str) -> tuple[NamedAlgebra, ...]:
    """Every document in the text, in order; the first invalid one
    raises InvalidAlgebraError."""
    docs = []
    for check in check_stream(text):
        if not check.valid:
            raise InvalidAlgebraError(check.violations)
        docs.append(NamedAlgebra(check.label, check.algebra))
    return tuple(docs)


def render_algebra(alg: ResiduatedLattice, label: str | None = None) -> str:
    """Canonical document text; parsing it returns an equal algebra."""
    lines = []
    if label is not None:
        lines.append(f"label: {label}")
    lines.append("elements: " + " ".join(alg.names))
    lines.append(f"bottom: {alg.names[alg.bottom]}")
    lines.append(f"top: {alg.names[alg.top]}")
    for key, table in (("join", alg.join), ("meet", alg.meet),
                       ("prod", alg.prod), ("impl", alg.impl)):
        lines.append(key + ":")
        for row in table:
            lines.append(" ".join(alg.names[v] for v in row))
    return "\n".join(lines) + "\n"


def render_stream(docs) -> str:
    """Join rendered documents with separator lines."""
    parts = [render_algebra(d.algebra, d.label) for d in docs]
    return "---\n".join(parts)


def bundled_text(name: str) -> str:
    """The document text of one of the algebras shipped with the
    package, by name."""
    if name not in BUNDLED:
        raise PreconditionError(
            f"no bundled algebra {name!r}; available: " + ", ".join(BUNDLED))
    # Imported here, not at the top: it is slow to import and only
    # bundled names need it.
    from importlib import resources

    return (resources.files("reslat") / "fixtures" / f"{name}.alg").read_text()


def load_bundled(name: str) -> NamedAlgebra:
    """One of the algebras shipped with the package, by name."""
    return parse_stream(bundled_text(name))[0]
