"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from reslat.cli import main as cli_main  # noqa: E402
from reslat.coann import coannulet_family  # noqa: E402
from reslat.filters import all_filters  # noqa: E402
from reslat.io import parse_stream, render_algebra  # noqa: E402
from reslat.spectrum import maximal_filters, prime_filters  # noqa: E402

EXPECTED = wl.load_expected()


def cli_report(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_luk_has_closed_form_counts(n):
    alg = gen.luk(n)
    assert alg.n == n
    assert len(all_filters(alg)) == min(n, 2)
    assert len(coannulet_family(alg)) == min(n, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_godel_has_closed_form_counts(n):
    alg = gen.godel(n)
    assert len(all_filters(alg)) == n
    assert len(prime_filters(alg)) == n - 1
    assert all(alg.prod[x][x] == x for x in range(n))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_boolean_has_closed_form_counts(k):
    alg = gen.boolean(k)
    assert alg.n == 2 ** k
    assert len(all_filters(alg)) == 2 ** k
    assert len(prime_filters(alg)) == k
    assert len(maximal_filters(alg)) == k
    assert alg.boolean_center == alg.universe


def test_product_filters_are_products_of_filters():
    a, b = gen.luk(3), gen.godel(4)
    p = gen.product(a, b)
    assert p.n == 12
    assert len(all_filters(p)) == len(all_filters(a)) * len(all_filters(b))
    assert (len(prime_filters(p))
            == len(prime_filters(a)) + len(prime_filters(b)))


@pytest.mark.parametrize("key", ["luk7", "godel7"])
def test_closed_form_matches_the_cli(key, tmp_path):
    alg = gen.luk(7) if key.startswith("luk") else gen.godel(7)
    doc = tmp_path / f"{key}.alg"
    doc.write_text(render_algebra(alg, key))
    code, out = cli_report(["info", "--format", "json", str(doc)])
    item = json.loads(out)["algebras"][0]
    got = {"counts": item["counts"],
           "verdicts": [item[k] for k in wl.CLASS_VERDICTS],
           "dense": item["dense"], "nilpotents": item["nilpotents"],
           "boolean_center": item["boolean_center"]}
    assert code == 0
    assert got == wl.closed_form_info(key)


def test_catalog_matches_the_published_counts():
    docs = wl.catalog_documents()
    sizes = [parse_stream(text)[0].algebra.n for _, text in docs]
    assert [sizes.count(n) for n in range(1, 7)] == [1, 1, 2, 7, 26, 129]
    assert len({label for label, _ in docs}) == len(docs) == 166


def test_every_drawable_algebra_has_a_pinned_answer():
    by_size = wl.catalog_by_size(wl.catalog_documents())
    keys = {key for key, _, _ in wl.product_menu(by_size)}
    keys |= {f"luk{wl.LARGE}", f"godel{wl.LARGE}"}
    for kind in ("info", "coann", "classify"):
        assert set(EXPECTED[kind]) == keys
    rows = EXPECTED["search"]["search7"]
    assert [r[1] for r in rows] == list(wl.LATTICES_PER_SIZE)
    assert [r[2] for r in rows] == list(wl.ALGEBRAS_PER_SIZE)
    assert [r[3] for r in rows] == [0, 0, 1, 2, 7, 34, 191]
    assert len(EXPECTED["registry"]) == 44


def test_builds_repeat_for_a_seed(tmp_path):
    for name in wl.WORKLOADS:
        first = wl.build(name, 7, tmp_path / "a")
        second = wl.build(name, 7, tmp_path / "b")
        assert [(op.kind, op.keys) for op in first] == \
            [(op.kind, op.keys) for op in second]
        for x, y in zip(first, second):
            assert [Path(p).read_bytes() for p in x.inputs] == \
                [Path(p).read_bytes() for p in y.inputs]
    orders = {wl.build("catalog6", s, tmp_path / "c")[0].keys
              for s in range(3)}
    assert len(orders) == 3


def test_large12_round_has_eleven_ops(tmp_path):
    ops = wl.build("large12", 3, tmp_path)
    assert len(ops) == 11
    assert [op.kind for op in ops].count("verify") == 1
    assert {op.keys[0] for op in ops if op.kind == "verify"} == {"luk12"}


def _small_info_op(tmp_path, key="luk5"):
    path = tmp_path / f"{key}.alg"
    path.write_text(render_algebra(gen.luk(5), key))
    return wl.Op("info", (), (str(path),), (key,), 1, 5)


def test_right_answer_passes_and_wrong_answer_fails(tmp_path):
    op = _small_info_op(tmp_path)
    code, out = cli_report(op.argv())
    item = json.loads(out)["algebras"][0]
    right = {"info": {"luk5": wl.pinned("info", item)}}
    assert wl.check(op, code, out, right) == []

    wrong_item = dict(item, disjunctive=True)
    wrong = {"info": {"luk5": wl.pinned("info", wrong_item)}}
    assert wl.check(op, code, out, wrong)
    assert wl.check(op, 1, out, right)
    assert wl.check(op, code, "not json", right)


def test_wrong_expected_answer_counts_the_op_as_failed(tmp_path):
    op = _small_info_op(tmp_path)
    code, out = cli_report(op.argv())
    item = json.loads(out)["algebras"][0]
    item["counts"] = dict(item["counts"], filters=3)
    wrong = {"info": {"luk5": wl.pinned("info", item)}}
    runner = run.Runner(deadline=time.perf_counter() + 60)
    tally = run.Tally()
    walls, reports = run.cli_round(runner, [op, op], wrong, tally, wl)
    assert len(walls) == 2 and reports == [None, None]
    assert (tally.attempted, tally.failed) == (2, 2)


def test_closed_form_catches_a_wrong_pin(tmp_path):
    op = _small_info_op(tmp_path, "luk5")
    code, out = cli_report(op.argv())
    report = json.loads(out)
    report["algebras"][0]["counts"]["filters"] = 3
    bent = json.dumps(report)
    pins = {"info": {"luk5": wl.pinned("info", report["algebras"][0])}}
    problems = wl.check(op, code, bent, pins)
    assert problems and "closed form" in problems[0]


def _assert_nested(spans, op_name):
    root = spans[0]
    assert root[1] == op_name and root[2] is None
    assert all(s[2] is not None for s in spans[1:])
    for sid, name, parent, start, end in spans[1:]:
        assert parent < sid
        p = spans[parent]
        assert p[3] <= start <= end <= p[4]
        top = parent
        while spans[top][2] is not None:
            top = spans[top][2]
        assert top == 0


def test_tracer_spans_nest_under_their_op(tmp_path):
    doc = tmp_path / "two.alg"
    doc.write_text(render_algebra(gen.godel(4), "g4") + "---\n"
                   + render_algebra(gen.luk(3), "l3"))
    result = tracer.trace_op("verify", [], [str(doc)])
    spans = result["spans"]
    _assert_nested(spans, "op.verify")
    names = [s[1] for s in spans]
    assert names.count("io.parse_stream") == 1
    assert names.count("algebra.check_tables") == 2
    checks = [s for s in spans if s[1] == "algebra.check_tables"]
    assert all(spans[s[2]][1] == "io.parse_stream" for s in checks)
    assert sum(n.startswith("suite.") for n in names) == 88
    assert result["counts"] == {"statements": 88, "failed": 0}


def test_tracer_search_counts_match_the_enumerator():
    result = tracer.trace_op("search", ["--max-size", "4", "--predicate",
                                        "true"], [])
    _assert_nested(result["spans"], "op.search")
    counts = result["counts"]
    assert counts["lattices"] == sum(wl.LATTICES_PER_SIZE[:4])
    assert counts["emitted"] == counts["matching"] == \
        sum(wl.ALGEBRAS_PER_SIZE[:4])
    assert counts["found"] == counts["emitted"] + counts["iso_rejected"]


def test_trace_summary_covers_the_op():
    result = tracer.trace_op("search", ["--max-size", "3", "--predicate",
                                        "true"], [])
    layers, counts, op_s, coverage = run.summarize_trace([result])
    assert layers["search.enumerate_lattices"][1] == 3
    assert 0.5 < coverage <= 1.0
    assert op_s > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units(EXPECTED["registry"])
