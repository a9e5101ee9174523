"""Byte-for-byte replay of pinned CLI reports.

``tests/data/cli_golden.json`` maps each command line to the sha256 of
its stdout and to its exit code.  The inputs are the bundled fixtures,
one multi-document file of every algebra on at most five elements
(``catalog5.alg``, rendered from the search), and the 12-element
Lukasiewicz and Goedel chains.  Any change to a report's bytes, text or
json, fails here.

After a deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from conftest import catalog5
from gen import godel, luk
from reslat.cli import main
from reslat.io import NamedAlgebra, render_algebra, render_stream

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = ("validate", "info", "filters", "spectrum", "coann", "alpha",
            "classify", "verify")
SMALL_INPUTS = ("a7", "bool4", "chain2", "chain3", "catalog5.alg")
LARGE_COMMANDS = ("info", "coann", "classify")
LARGE_INPUTS = ("luk12.alg", "godel12.alg")


def write_inputs(directory: Path) -> None:
    docs = [NamedAlgebra(None, alg) for alg in catalog5()]
    (directory / "catalog5.alg").write_text(render_stream(docs))
    (directory / "luk12.alg").write_text(render_algebra(luk(12), "luk12"))
    (directory / "godel12.alg").write_text(render_algebra(godel(12), "godel12"))


def command_lines() -> list[str]:
    lines = []
    for fmt in ("", " --format json"):
        for cmd in COMMANDS:
            lines.extend(f"{cmd} {src}{fmt}" for src in SMALL_INPUTS)
        for cmd in LARGE_COMMANDS:
            lines.extend(f"{cmd} {src}{fmt}" for src in LARGE_INPUTS)
    return lines


def replay(line: str) -> dict:
    """Run one command line in the current directory; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(line.split())
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_covers_every_command_line():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(command_lines())


@pytest.mark.parametrize("line", command_lines())
def test_report_bytes_unchanged(line, input_dir, monkeypatch):
    monkeypatch.chdir(input_dir)
    assert replay(line) == json.loads(GOLDEN.read_text())[line]


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            pinned = {line: replay(line) for line in command_lines()}
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} command lines to {GOLDEN}")
