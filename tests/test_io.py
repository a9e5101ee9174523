from __future__ import annotations

import pytest

import tables as tb
from conftest import build
from reslat import PreconditionError
from reslat.io import (
    BUNDLED,
    NamedAlgebra,
    ParseError,
    bundled_text,
    check_stream,
    load_bundled,
    parse_stream,
    render_algebra,
    render_stream,
)

GOOD = """\
label: two
elements: 0 1
bottom: 0
top: 1
join:
0 1
1 1
meet:
0 0
0 1
prod:
0 0
0 1
impl:
1 1
0 1
"""


def parse_document(text):
    """Exactly one document."""
    docs = parse_stream(text)
    if len(docs) != 1:
        raise ParseError(f"expected one document, found {len(docs)}")
    return docs[0]


def test_parse_minimal_document():
    doc = parse_document(GOOD)
    assert doc.label == "two"
    assert doc.algebra.n == 2
    assert doc.algebra.names == ("0", "1")
    assert doc.algebra == build(tb.CHAIN2)


def test_label_is_optional():
    text = "\n".join(GOOD.splitlines()[1:]) + "\n"
    doc = parse_document(text)
    assert doc.label is None
    assert doc.algebra == build(tb.CHAIN2)


def test_round_trip_every_table():
    for spec in tb.ALL_TABLES.values():
        alg = build(spec)
        text = render_algebra(alg, label="probe")
        doc = parse_document(text)
        assert doc.algebra == alg
        assert doc.label == "probe"
        # rendering what we parsed gives the same bytes back
        assert render_algebra(doc.algebra, doc.label) == text


def test_render_without_label_has_no_label_line():
    text = render_algebra(build(tb.CHAIN3))
    assert not text.startswith("label:")
    assert parse_document(text).label is None


def test_comments_and_blank_lines_are_ignored():
    noisy = "# header comment\n\n" + GOOD.replace(
        "top: 1", "top: 1   # the unit") + "\n# trailing\n"
    assert parse_document(noisy).algebra == build(tb.CHAIN2)


def test_parse_stream_multiple_documents():
    text = GOOD + "---\n" + render_algebra(build(tb.CHAIN3), label="three")
    docs = parse_stream(text)
    assert [d.label for d in docs] == ["two", "three"]
    assert docs[1].algebra.n == 3


def test_render_stream_round_trip():
    docs = (NamedAlgebra("a", build(tb.CHAIN2)),
            NamedAlgebra(None, build(tb.BOOL4)))
    text = render_stream(docs)
    back = parse_stream(text)
    assert [d.label for d in back] == ["a", None]
    assert [d.algebra for d in back] == [d.algebra for d in docs]


def test_trailing_separator_is_tolerated():
    docs = parse_stream(GOOD + "---\n\n# nothing here\n")
    assert len(docs) == 1


def test_empty_middle_document_is_an_error():
    with pytest.raises(ParseError, match="no elements line"):
        parse_stream(GOOD + "---\n---\n" + GOOD)


def test_empty_stream():
    with pytest.raises(ParseError, match="line 1: empty stream"):
        parse_stream("")
    with pytest.raises(ParseError, match="line 1: empty stream"):
        parse_stream("\n   \n")
    # Comments alone, as a search that matched nothing renders, hold no
    # documents; one document is still required where one is expected.
    assert parse_stream("# only a comment\n\n# and another\n") == ()
    with pytest.raises(ParseError, match="expected one document, found 0"):
        parse_document("# only a comment\n")


@pytest.mark.parametrize("text", [
    "---\n", "---", "---\n# only a comment\n", "# a comment\n---\n",
    "\n---\n\n", "", "\n  \n\t\n",
], ids=["lone-separator", "lone-separator-no-newline", "separator-comment",
        "comment-separator", "blank-separator-blank", "empty", "blank"])
def test_streams_with_no_document_text_are_empty(text):
    with pytest.raises(ParseError, match=r"^line 1: empty stream$"):
        parse_stream(text)


@pytest.mark.parametrize("text", [
    "# only a comment\n", "\n# a comment\n\n# and another", "#\n   # indented\n",
])
def test_comment_only_streams_hold_no_document(text):
    assert parse_stream(text) == ()


@pytest.mark.parametrize("tail", ["---\n", "---", "---\n\n", "---\n# end\n"])
def test_one_trailing_separator_closes_the_last_document(tail):
    docs = parse_stream(GOOD + tail)
    assert [d.label for d in docs] == ["two"]
    docs = parse_stream(GOOD + "---\n" + GOOD + tail)
    assert [d.label for d in docs] == ["two", "two"]


@pytest.mark.parametrize("text, line", [
    (GOOD + "---\n---\n" + GOOD, 18),
    (GOOD + "---\n# nothing\n\n---\n" + GOOD, 18),
    ("---\n" + GOOD, 1),
    ("---\n---\n", 1),
    (GOOD + "---\n---\n---\n", 18),
], ids=["middle", "middle-comment", "leading", "two-separators",
        "two-trailing"])
def test_empty_document_between_separators_names_its_line(text, line):
    """An empty document followed by a separator or by another document
    is an error at its first line, which is the line after the separator
    before it."""
    with pytest.raises(ParseError,
                       match=rf"^line {line}: document has no elements line$"):
        parse_stream(text)


@pytest.mark.parametrize("end", ["\r\n", "\r", "\f"], ids=["crlf", "cr", "ff"])
def test_other_line_ends_keep_line_numbers(end):
    """Line ends are those of str.splitlines: a form feed ends a line as
    CRLF and CR do, and errors give the same line numbers as with LF."""
    docs = parse_stream((GOOD + "---\n" + GOOD).replace("\n", end))
    assert [d.label for d in docs] == ["two", "two"]
    bad = GOOD + "---\n" + GOOD.replace("meet:\n0 0\n0 1\n", "meet:\n0 0 0\n0 1\n")
    with pytest.raises(ParseError, match=r"^line 26: row has 3 entries; expected 2$"):
        parse_stream(bad.replace("\n", end))
    with pytest.raises(ParseError, match=r"^line 1: empty stream$"):
        parse_stream(f"---{end}{end}")


def test_streams_longer_than_a_read_piece_keep_line_numbers():
    """The splitter reads 64 KB at a time; over 1,200 documents (about
    130 KB) with CRLF, CR and LF line ends in turn, every document is
    read and an error in the last one names its line."""
    ends = ["\r\n", "\r", "\n"]
    lines = "---\n".join([GOOD] * 1200).splitlines()
    text = "".join(line + ends[i % 3] for i, line in enumerate(lines))
    assert len(text) > 65536
    assert len(parse_stream(text)) == 1200
    bad = text[:text.rindex("meet:")] + "meet:\n0 0 0\n0 1\nprod:\n0 0\n0 1\nimpl:\n1 1\n0 1\n"
    with pytest.raises(ParseError, match=rf"^line {17 * 1199 + 9}: row has 3 entries"):
        parse_stream(bad)


def test_parse_document_rejects_streams():
    with pytest.raises(ParseError, match="expected one document, found 2"):
        parse_document(GOOD + "---\n" + GOOD)


def test_errors_in_later_documents_use_absolute_line_numbers():
    first_len = len(GOOD.splitlines())
    text = GOOD + "---\n" + GOOD.replace("label: two", "label: two\nlabel: again")
    with pytest.raises(ParseError) as err:
        parse_stream(text)
    assert f"line {first_len + 3}" in str(err.value)
    assert "repeated section 'label'" in str(err.value)


def test_repeated_table_is_rejected():
    text = GOOD + "join:\n0 1\n1 1\n"
    with pytest.raises(ParseError, match="repeated table 'join'"):
        parse_document(text)


def test_table_before_elements_is_rejected():
    text = "join:\n0 1\n1 1\n" + GOOD
    with pytest.raises(ParseError, match="line 1: table 'join' before the elements line"):
        parse_document(text)


def test_table_header_takes_no_value():
    with pytest.raises(ParseError, match="table header 'prod' takes no value"):
        parse_document(GOOD.replace("prod:", "prod: 0 0"))


def test_too_many_rows():
    with pytest.raises(ParseError, match="too many rows for table 'impl'"):
        parse_document(GOOD + "0 1\n")


def test_short_table():
    text = GOOD.replace("impl:\n1 1\n0 1\n", "impl:\n1 1\n")
    with pytest.raises(ParseError, match="table 'impl' has 1 rows; expected 2"):
        parse_document(text)


def test_row_length_reported_on_its_own_line():
    text = GOOD.replace("meet:\n0 0\n0 1\n", "meet:\n0 0 0\n0 1\n")
    with pytest.raises(ParseError, match="line 9: row has 3 entries; expected 2"):
        parse_document(text)


def test_unrecognized_line():
    with pytest.raises(ParseError, match="unrecognized line 'what is this'"):
        parse_document(GOOD.replace("label: two", "what is this"))


def test_no_element_names():
    with pytest.raises(ParseError, match="no element names given"):
        parse_document(GOOD.replace("elements: 0 1", "elements:"))


# The line number and text of each one-value section in GOOD.
SECTION_LINES = {"label": (1, "label: two"), "bottom": (3, "bottom: 0"), "top": (4, "top: 1")}


@pytest.mark.parametrize("line", ["label:", "label:   # comment", "bottom:",
                                  "bottom:  # none", "top:", "top:   # none"])
def test_empty_label(line):
    """An empty label, bottom or top line is refused by its key, with or
    without a comment."""
    key = line.split(":")[0]
    lineno, text = SECTION_LINES[key]
    with pytest.raises(ParseError, match=rf"^line {lineno}: empty {key}$"):
        parse_document(GOOD.replace(text, line))


def test_repeated_element_names():
    with pytest.raises(ParseError, match="repeated element names: x"):
        parse_document(GOOD.replace("elements: 0 1", "elements: x x"))


def test_unusable_element_names():
    with pytest.raises(ParseError, match="unusable element names: a:b"):
        parse_document(GOOD.replace("elements: 0 1", "elements: a:b 1"))


def test_missing_sections_listed_together():
    text = "elements: 0 1\nbottom: 0\n"
    with pytest.raises(ParseError,
                       match="missing: top, join, meet, prod, impl"):
        parse_document(text)


def test_unknown_names_collected_with_line_numbers():
    text = GOOD.replace("join:\n0 1\n1 1\n", "join:\n0 z\nz 1\n").replace(
        "top: 1", "top: q")
    with pytest.raises(ParseError) as err:
        parse_document(text)
    message = str(err.value)
    assert "not on the elements line (line 2)" in message
    assert "'q' at line 4" in message
    assert "'z' at line 6, 7" in message


def _break_product(text):
    """Swap two product entries; for the bundled seven element algebra
    this demonstrably breaks the adjunction."""
    lines = text.splitlines()
    i = lines.index("prod:") + 2
    cells = lines[i].split()
    cells[0], cells[1] = cells[1], cells[0]
    lines[i] = " ".join(cells)
    return "\n".join(lines) + "\n"


def test_invalid_tables_raise_through_parse(a7):
    broken = _break_product(render_algebra(a7))
    with pytest.raises(ValueError, match="not a residuated lattice"):
        parse_stream(broken)


def test_check_stream_reports_instead_of_raising(a7):
    good = render_algebra(a7, label="fine")
    broken = _break_product(good).replace("label: fine", "label: broken")
    checks = tuple(check_stream(good + "---\n" + broken))
    assert [c.label for c in checks] == ["fine", "broken"]
    assert checks[0].valid and checks[0].algebra == a7
    assert checks[0].violations == ()
    assert not checks[1].valid and checks[1].algebra is None
    assert checks[1].violations
    assert all(v.law for v in checks[1].violations)


def test_check_stream_still_rejects_malformed_text(a7):
    """Each document is checked when reached: a malformed one raises
    after the verdicts of the documents before it."""
    with pytest.raises(ParseError):
        tuple(check_stream("elements: 0 1\n"))
    checks = check_stream(render_algebra(a7) + "---\nelements: 0 1\n")
    assert next(checks).algebra == a7
    with pytest.raises(ParseError):
        next(checks)


def test_bundled_names_and_loading():
    assert BUNDLED == ("a7", "bool4", "chain2", "chain3")
    for name in BUNDLED:
        assert load_bundled(name).label == name
        assert parse_stream(bundled_text(name)) == (load_bundled(name),)
    assert load_bundled("a7").algebra == build(tb.A7)
    assert load_bundled("chain2").algebra == build(tb.CHAIN2)
    assert load_bundled("chain3").algebra == build(tb.CHAIN3)
    assert load_bundled("bool4").algebra == build(tb.BOOL4)


def test_load_bundled_unknown_name():
    with pytest.raises(PreconditionError, match="no bundled algebra 'nope'"):
        load_bundled("nope")
