from __future__ import annotations

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import tables as tb
from conftest import build
import reslat.cli
from reslat.cli import main
from reslat.io import parse_stream, render_algebra, render_stream, NamedAlgebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_bundled(capsys):
    code, out = run(capsys, "validate", "a7", "chain2")
    assert code == 0
    assert out == "a7: valid (7 elements)\nchain2: valid (2 elements)\n"


def test_validate_reports_violations(capsys, tmp_path):
    text = render_algebra(build(tb.A7), label="wonky")
    lines = text.splitlines()
    i = lines.index("prod:") + 2
    cells = lines[i].split()
    cells[0], cells[1] = cells[1], cells[0]
    lines[i] = " ".join(cells)
    path = tmp_path / "wonky.alg"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert out.startswith("wonky: INVALID (")
    assert "adjointness" in out


def test_validate_json(capsys):
    code, out = run(capsys, "validate", "a7", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "validate"
    assert data["invalid"] == 0
    assert data["documents"] == [
        {"label": "a7", "valid": True, "elements": 7}]


def test_info_text(capsys):
    code, out = run(capsys, "info", "a7")
    assert code == 0
    assert "a7: 7 elements, bottom 0, top 1" in out
    assert "order: 0 < a; a < b, c; b < d; c < d, e; d < 1; e < 1" in out
    assert "dense elements: {0, a, c}" in out
    assert "quasicomplemented yes, disjunctive no, weakly disjunctive no" in out


def test_info_json_counts(capsys):
    code, out = run(capsys, "info", "a7", "--format", "json")
    entry = json.loads(out)["algebras"][0]
    assert entry["counts"] == {
        "filters": 5, "prime_filters": 3, "minimal_primes": 2,
        "maximal_filters": 1, "coannulets": 4, "coannihilators": 4,
        "lattice_ideals": 7, "alpha_filters": 4}
    assert entry["quasicomplemented"] is True
    assert entry["weakly_disjunctive"] is False


def test_filters_listing(capsys):
    code, out = run(capsys, "filters", "a7")
    assert code == 0
    assert out.splitlines() == [
        "a7: 5 filters",
        "  {1}: generator 1; alpha",
        "  {e, 1}: generator e; prime minimal alpha",
        "  {b, d, 1}: generator b; prime minimal alpha",
        "  {a, b, c, d, e, 1}: generator a; prime maximal",
        "  {0, a, b, c, d, e, 1}: generator 0; alpha",
    ]


def test_spectrum_text(capsys):
    code, out = run(capsys, "spectrum", "a7")
    assert code == 0
    assert "points: P0 = {e, 1}, P1 = {b, d, 1}" in out
    assert "opens: {}; {P0}; {P1}; {P0, P1}" in out
    assert ("compact yes, zero dimensional yes, totally disconnected yes, "
            "dual topology agrees yes") in out


def test_coann_text(capsys):
    code, out = run(capsys, "coann", "a7")
    assert code == 0
    assert "    e -> {b, d, 1}" in out
    assert "coannulets give every coannihilator: yes" in out
    assert "dense elements: {0, a, c}" in out


def test_alpha_text(capsys):
    code, out = run(capsys, "alpha", "a7")
    assert code == 0
    assert "a7: 4 alpha filters" in out
    assert "    {a, b, c, d, e, 1} -> {0, a, b, c, d, e, 1}" in out
    assert "prime alpha filters are the minimal primes: yes" in out


def test_classify_text(capsys):
    code, out = run(capsys, "classify", "chain3n")
    # chain3n is not bundled, so feed it from a file
    assert code == 64
    code, out = run(capsys, "classify", "a7")
    assert code == 0
    lines = out.splitlines()
    assert "  quasicomplemented: yes" in lines
    assert "  disjunctive: no" in lines
    assert "  weakly disjunctive: no" in lines
    assert ("  element classes sharing a coannulet: "
            "{0, a, c} | {b, d} | {e} | {1}") in lines


def test_classify_nucleus_fixture(capsys, tmp_path):
    path = tmp_path / "nuc.alg"
    path.write_text(render_algebra(build(tb.CHAIN3N)))
    code, out = run(capsys, "classify", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nuc:"
    assert "  weakly disjunctive: yes" in lines
    assert "  lattice Boolean: no" in lines
    assert "  filter lattice Boolean: yes" in lines


def test_verify_all_pass(capsys):
    code, out = run(capsys, "verify", "a7")
    assert code == 0
    assert "a7: 44 statements" in out
    assert out.count("  pass ") == 44
    assert "FAIL" not in out
    assert "a7: 44 passed, 0 failed" in out


def test_verify_selection(capsys):
    code, out = run(capsys, "verify", "a7", "--only",
                    "alpha-closure-laws,transfer-isomorphism")
    assert code == 0
    assert "a7: 2 statements" in out
    code, out = run(capsys, "verify", "bool4", "--group", "topology")
    assert code == 0
    assert "bool4: 1 statement" in out
    assert main(["verify", "a7", "--only", "nope"]) == 64
    capsys.readouterr()
    assert main(["verify", "a7", "--group", "nope"]) == 64
    capsys.readouterr()


def test_verify_json_shape(capsys):
    code, out = run(capsys, "verify", "chain2", "--format", "json")
    entry = json.loads(out)["algebras"][0]
    assert entry["failed"] == 0
    assert entry["passed"] == 44
    idents = [r["ident"] for r in entry["results"]]
    assert len(idents) == 44 and len(set(idents)) == 44
    first = entry["results"][0]
    assert set(first) == {"ident", "group", "statement", "passed",
                          "witness", "sides"}


QC_ROUTES = (
    "every element has a coannulet matching its double coannihilator",
    "every element has a join complement with dense meet",
    "coannulet lattice is Boolean",
    "element quotient by shared coannulet is Boolean",
    "filter quotient by shared cohull is Boolean",
    "primes without dense elements are minimal",
    "hull and dual hull topologies coincide",
)


def test_route_disagreement_is_a_verify_failure(capsys, monkeypatch):
    """A route that answers wrongly fails its equivalence statement with
    every route's answer as the witness, and classify still prints every
    route; neither run is aborted."""
    import reslat.classify
    real = reslat.classify.topologies_equal
    monkeypatch.setattr(reslat.classify, "topologies_equal",
                        lambda alg: not real(alg))
    code, out = run(capsys, "verify", "--only",
                    "quasicomplemented-equivalences", "a7")
    assert code == 1
    sides = "; ".join(f"{label}: {'no' if label.startswith('hull') else 'yes'}"
                      for label in QC_ROUTES)
    assert out.splitlines()[1] == \
        f"  FAIL [classification] quasicomplemented-equivalences ({sides})"
    assert "a7: 0 passed, 1 failed" in out
    code, out = run(capsys, "classify", "a7")
    assert code == 0
    assert "  quasicomplemented: yes\n" in out
    assert "    - hull and dual hull topologies coincide: no\n" in out


@pytest.mark.parametrize("face", ["_prime_in_alpha_lattice",
                                  "_alpha_meet_irreducible",
                                  "_prime_coannulet_image"])
def test_prime_alpha_face_disagreement_is_a_verify_failure(capsys, monkeypatch,
                                                           face):
    import reslat.suite
    real = getattr(reslat.suite, face)
    monkeypatch.setattr(reslat.suite, face, lambda *args: not real(*args))
    code, out = run(capsys, "verify", "--only", "prime-alpha-four-way", "a7")
    assert code == 1
    assert out.splitlines()[1] == \
        "  FAIL [alpha] prime-alpha-four-way (fails at four routes agree at {1})"


def test_search_text(capsys):
    code, out = run(capsys, "search", "--max-size", "3")
    assert code == 0
    assert out.splitlines() == [
        "# search through carriers of at most 3 elements",
        "# predicate: true",
        "#   size 1: 1 lattice, 1 algebra, 1 matching",
        "#   size 2: 1 lattice, 1 algebra, 1 matching",
        "#   size 3: 1 lattice, 2 algebras, 2 matching",
        "# total: 3 lattices, 4 algebras, 4 matching",
        "# tables examined 4, branches pruned 0, duplicates dropped 0",
    ]


def test_search_render_round_trips(capsys):
    code, out = run(capsys, "search", "--max-size", "3", "--predicate",
                    "not weakly_disjunctive", "--render")
    assert code == 0
    # The whole report parses: its summary lines are comments.
    docs = parse_stream(out)
    assert [d.label for d in docs] == ["match-1"]
    assert docs[0].algebra.n == 3


def test_empty_search_result_verifies(capsys, monkeypatch):
    """A search that matches nothing renders comments alone, and the
    commands reading it see no documents: exit 0, empty reports."""
    import io as stdlib_io
    code, rendered = run(capsys, "search", "--max-size", "3", "--predicate",
                         "not quasicomplemented", "--render")
    assert code == 0 and rendered.startswith("#")
    for fmt, want in (("text", ""), ("json", {"algebras": [], "command": "verify"})):
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(rendered))
        code, out = run(capsys, "verify", "-", "--format", fmt)
        assert code == 0
        assert (out if fmt == "text" else json.loads(out)) == want
    monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(rendered))
    assert run(capsys, "validate", "-", "--format", "json")[0] == 0
    monkeypatch.setattr("sys.stdin", stdlib_io.StringIO("\n  \n"))
    assert run(capsys, "verify", "-")[0] == 64


def test_search_argument_validation(capsys):
    assert main(["search", "--max-size", "9"]) == 64
    capsys.readouterr()
    assert main(["search", "--max-size", "2", "--jobs", "2"]) == 64
    capsys.readouterr()
    assert main(["search", "--max-size", "2", "--strategy", "direct"]) == 64
    capsys.readouterr()
    assert main(["search", "--max-size", "2", "--predicate", "nope"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("predicate, code", [
    (" and ".join(["true"] * 20000), 0),
    ("(" * 2000 + "true" + ")" * 2000, 64),
    ("not " * 20000 + "true", 0),
], ids=["and-chain", "parentheses", "nots"])
def test_long_predicates_exit_0_or_64(capsys, predicate, code):
    assert main(["search", "--max-size", "2", "--predicate", predicate]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err.startswith("usage error: malformed predicate: ")
    else:
        assert "# total: 2 lattices, 2 algebras, 2 matching\n" in out


def test_usage_errors(capsys):
    assert main(["info", "/no/such/file.alg"]) == 64
    capsys.readouterr()
    assert main(["bogus"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("command", ["info", "validate"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_is_a_usage_error(capsys, tmp_path, command, kind):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (64, "")
    # One usage error line, then the elapsed-time line.
    first, elapsed = err.splitlines()
    assert first.startswith(f"usage error: cannot read {str(path)!r}: ")
    assert elapsed.startswith("elapsed ")


def test_invalid_algebra_blocks_analysis(capsys, tmp_path):
    text = render_algebra(build(tb.A7))
    lines = text.splitlines()
    i = lines.index("prod:") + 2
    cells = lines[i].split()
    cells[0], cells[1] = cells[1], cells[0]
    lines[i] = " ".join(cells)
    path = tmp_path / "bad.alg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["info", str(path)]) == 1
    capsys.readouterr()


def test_stdin_input(capsys, monkeypatch):
    import io as stdlib_io
    text = render_algebra(build(tb.CHAIN3))
    monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(text))
    code, out = run(capsys, "info", "-")
    assert code == 0
    assert out.startswith("stdin: 3 elements")


def _chain_document(n: int) -> str:
    """The n-element Lukasiewicz chain as document text, never validated."""
    rng, top = range(n), n - 1
    ops = {"join": max, "meet": min,
           "prod": lambda x, y: max(0, x + y - top),
           "impl": lambda x, y: min(top, top - x + y)}
    lines = [f"label: luk{n}", "elements: " + " ".join(map(str, rng)),
             "bottom: 0", f"top: {top}"]
    for key, op in ops.items():
        lines.append(f"{key}:")
        lines.extend(" ".join(str(op(x, y)) for y in rng) for x in rng)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["validate", "info", "filters", "spectrum",
                                     "coann", "alpha", "classify", "verify"])
def test_documents_over_64_elements_are_refused(capsys, tmp_path, command):
    path = tmp_path / "luk65.alg"
    path.write_text(_chain_document(65))
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (64, "")
    assert err.startswith(
        "parse error: line 2: 65 elements given; at most 64 are supported\n")


def test_documents_of_64_elements_are_read(capsys, tmp_path):
    path = tmp_path / "luk64.alg"
    path.write_text(_chain_document(64))
    assert run(capsys, "validate", str(path)) == (0, "luk64: valid (64 elements)\n")


def test_multi_document_labels(capsys, tmp_path):
    stream = render_stream((NamedAlgebra(None, build(tb.CHAIN2)),
                            NamedAlgebra(None, build(tb.CHAIN3))))
    path = tmp_path / "pair.alg"
    path.write_text(stream)
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert out == "pair#1: valid (2 elements)\npair#2: valid (3 elements)\n"
    code, out = run(capsys, "classify", str(path), "chain2")
    assert code == 0
    assert [b.split(":")[0] for b in out.split("\n\n")] == ["pair#1", "pair#2", "chain2"]


def test_each_algebra_is_freed_before_the_next_is_analysed(capsys, monkeypatch):
    real = reslat.cli._build_classify
    seen, alive = [], []

    def build(args, rep, item, label, alg):
        alive.append(sum(ref() is not None for ref in seen))
        seen.append(weakref.ref(alg))
        return real(args, rep, item, label, alg)

    monkeypatch.setattr(reslat.cli, "_build_classify", build)
    code, _ = run(capsys, "classify", "a7", "chain2", "chain3", "bool4")
    assert code == 0
    assert alive == [0, 0, 0, 0]


def test_argument_errors_outrank_unreadable_documents(capsys, tmp_path):
    # A bad --only is refused while the arguments are parsed, before any
    # document is read; without it, the invalid document is reported.
    text = render_algebra(build(tb.A7))
    path = tmp_path / "bad.alg"
    path.write_text(text.replace("prod:\n0 0", "prod:\n0 a", 1))
    assert main(["verify", "chain2", str(path), "--only", "bogus"]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "usage error: argument --only: unknown statement ids: bogus\n")
    assert main(["verify", "chain2", str(path)]) == 1
    assert "bad.alg: not a residuated lattice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--only", "bogus"], "argument --only: unknown statement ids: bogus"),
    (["--only", ","], "argument --only: empty selection list"),
    (["--group", ","], "argument --group: empty selection list"),
    (["--group", "nope,topology"],
     "argument --group: unknown statement groups: nope"),
], ids=["only-unknown", "only-empty", "group-empty", "group-unknown"])
def test_bad_selection_is_refused_before_input_is_read(capsys, monkeypatch,
                                                       argv, message):
    import io as stdlib_io
    stdin = stdlib_io.StringIO("# only a comment\n")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["verify", "-", *argv])
    out, err = capsys.readouterr()
    assert (code, out) == (64, "")
    assert err.startswith(f"usage error: {message}\n")
    assert stdin.tell() == 0


def test_reports_are_byte_stable(capsys):
    commands = (
        ["info", "a7"],
        ["filters", "bool4"],
        ["spectrum", "chain3"],
        ["coann", "chain2"],
        ["alpha", "a7"],
        ["classify", "bool4"],
        ["verify", "chain3"],
        ["search", "--max-size", "3", "--predicate", "disjunctive"],
    )
    for argv in commands:
        for fmt in ((), ("--format", "json")):
            first = run(capsys, *argv, *fmt)
            second = run(capsys, *argv, *fmt)
            assert first == second, argv
            if fmt:
                json.loads(first[1])


def test_multiple_algebras_one_report(capsys):
    code, out = run(capsys, "classify", "chain2", "chain3")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("chain2:")
    assert blocks[1].startswith("chain3:")


# Modules that cost start-up time and that no command needs before it
# reads its input.
HEAVY_AT_START = ("dataclasses", "inspect", "typing", "importlib.resources",
                  "ast")


def test_cli_import_leaves_heavy_modules_unloaded():
    # -S skips site, whose .pth files may import some of these first.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, reslat.cli; "
             f"print(' '.join(m for m in {HEAVY_AT_START!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
