"""Byte-for-byte replay of pinned CLI reports.

``tests/data/cli_golden.json`` maps each command line to the sha256 of
its stdout and to its exit code.  The inputs are the bundled fixtures,
one multi-document file of every algebra on at most five elements
(``catalog5.alg``, rendered from the search), the 12-element
Lukasiewicz and Goedel chains, the 64-element Lukasiewicz chain and
Boolean algebra, and ``broken.alg``: documents with corrupted tables,
among them one for each law checked over triples.  Any change to a
report's bytes, text or json, fails here.

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
from gen import boolean, godel, luk
from reslat.algebra import ResiduatedLattice
from reslat.cli import main
from reslat.io import NamedAlgebra, load_bundled, render_algebra, render_stream

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = ("validate", "info", "filters", "spectrum", "coann", "alpha",
            "classify", "verify")
SMALL_INPUTS = ("a7", "bool4", "chain2", "chain3", "catalog5.alg")
LARGE_COMMANDS = ("info", "coann", "classify")
LARGE_INPUTS = ("luk12.alg", "godel12.alg")
VALIDATE_INPUTS = ("broken.alg", "luk64.alg", "boolean6.alg")

# Each document of broken.alg: (label, bundled algebra, table, cells),
# the table's entry at (x, y) set to v for every (x, y, v) in cells.
# The label names a law checked over triples that the change breaks.
LAW_BREAKERS = (
    ("join-associative", "chain3", "join", ((0, 2, 1),)),
    ("meet-associative", "chain3", "meet", ((2, 0, 1),)),
    ("prod-associative", "a7", "prod", ((1, 1, 0),)),
    ("adjointness", "a7", "impl", ((3, 5, 4),)),
    ("adjointness-commuted", "chain3", "prod", ((1, 1, 0),)),
    ("prod-join-distributive", "chain3", "join", ((0, 1, 0),)),
    ("join-prod-superdistributive", "bool4", "prod", ((1, 1, 0),)),
    ("prod-monotone", "bool4", "meet", ((3, 0, 3),)),
)


def corrupted(alg, table, cells):
    """The algebra with table[x][y] = v for each (x, y, v), unvalidated."""
    rows = [list(row) for row in getattr(alg, table)]
    for x, y, v in cells:
        rows[x][y] = v
    ops = {op: getattr(alg, op) for op in ("join", "meet", "prod", "impl")}
    ops[table] = tuple(map(tuple, rows))
    return ResiduatedLattice(names=alg.names, bottom=alg.bottom, top=alg.top,
                             up=alg.up, down=alg.down, **ops)


def broken_documents() -> str:
    a7 = load_bundled("a7").algebra
    l12 = luk(12)
    docs = [
        # b*d and c*d swapped
        NamedAlgebra("a7-prod-swapped", corrupted(
            a7, "prod", ((2, 4, a7.prod[3][4]), (3, 4, a7.prod[2][4])))),
        # 5 -> 7 is 11 in the chain, not 10
        NamedAlgebra("luk12-impl", corrupted(l12, "impl", ((5, 7, 10),))),
    ]
    for law, base, table, cells in LAW_BREAKERS:
        docs.append(NamedAlgebra(f"breaks-{law}", corrupted(
            load_bundled(base).algebra, table, cells)))
    return render_stream(docs)


def write_inputs(directory: Path) -> None:
    docs = [NamedAlgebra(None, alg) for alg in catalog5()]
    (directory / "catalog5.alg").write_text(render_stream(docs))
    (directory / "luk12.alg").write_text(render_algebra(luk(12), "luk12"))
    (directory / "godel12.alg").write_text(render_algebra(godel(12), "godel12"))
    (directory / "broken.alg").write_text(broken_documents())
    (directory / "luk64.alg").write_text(render_algebra(luk(64), "luk64"))
    (directory / "boolean6.alg").write_text(render_algebra(boolean(6), "boolean6"))


def command_lines() -> list[str]:
    lines = []
    for fmt in ("", " --format json"):
        for cmd in COMMANDS:
            lines.extend(f"{cmd} {src}{fmt}" for src in SMALL_INPUTS)
        for cmd in LARGE_COMMANDS:
            lines.extend(f"{cmd} {src}{fmt}" for src in LARGE_INPUTS)
        lines.extend(f"validate {src}{fmt}" for src in VALIDATE_INPUTS)
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
