from __future__ import annotations

import io
import json

import pytest

from reslat.report import write_report


def as_report(data) -> str:
    """data's entries around a list written a block at a time, holding
    data itself and an empty dict."""
    out = io.StringIO()
    write_report(out, "json", {"command": "test", **data}, "stream",
                 [((), data), ((), {})], "")
    return out.getvalue()


@pytest.mark.parametrize("data", [
    {},
    {"empty": {}, "none": [], "nested": [{}, [], [[]], {"a": {}}]},
    {"tuple": (1, (2, 3), ()), "list": [(), [4]]},
    {"null": None, "items": [None, {"k": None}]},
    {"text": "Łukasiewicz → chain", "quote": 'a "b" \\ c\n\t', "ctl": "\x00\x1f"},
    {"Ł": "key outside ASCII", "b": 1, "a": 2, "A": 3, "": 4},
    {"flags": [True, False, 1, 0, -1], "one": True, "zero": False, "big": 2 ** 70},
])
def test_writer_matches_the_standard_encoder(data):
    """bool is an int subclass, so True and False must not come out as
    1 and 0; keys are sorted as json sorts them."""
    full = {"command": "test", **data, "stream": [data, {}]}
    assert as_report(data) == json.dumps(full, sort_keys=True, indent=2) + "\n"


def test_writer_refuses_what_reports_never_hold():
    with pytest.raises(TypeError):
        as_report({"ratio": 0.5})
    with pytest.raises(TypeError):
        as_report({"keys": {1: "one"}})


def test_writer_with_no_blocks():
    """No block: JSON holds an empty list among the other entries, text
    is empty."""
    for fmt, want in (("json", json.dumps({"command": "test", "stream": [], "z": 1},
                                          sort_keys=True, indent=2) + "\n"),
                      ("text", "")):
        out = io.StringIO()
        write_report(out, fmt, {"command": "test", "z": 1}, "stream", [], "\n")
        assert out.getvalue() == want
