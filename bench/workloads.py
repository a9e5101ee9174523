"""The three workloads, their inputs and the checks on their answers.

A workload is a list of ops; one op is one ``reslat`` command run in a
child process with ``--format json``.  ``build`` turns a workload name
and a seed into ops whose input documents it writes under a directory
of the caller's choosing.  ``check`` decides whether one op answered
correctly.  It reads only invariant fields of the JSON report: witness
texts such as "checked N instances" and the search's ``examined`` count
may change with the implementation, the answers may not.

Expected answers come from ``data/expected.json``, pinned at the commit
that introduced the benchmark (see ``pin.py``), and for chains and the
Boolean algebra also from closed forms.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import gen
from reslat.io import parse_stream, render_algebra

DATA = Path(__file__).resolve().parent / "data"
CATALOG = DATA / "catalog6.alg"
EXPECTED = DATA / "expected.json"

WORKLOADS = ("search7", "catalog6", "large12")

SEARCH_PREDICATE = "weakly_disjunctive and not disjunctive"
# Published counts of bounded lattices on 1..7 elements (OEIS A006966).
LATTICES_PER_SIZE = (1, 1, 1, 2, 5, 15, 53)
# Residuated lattices on 1..7 elements as this code enumerates them.
ALGEBRAS_PER_SIZE = (1, 1, 2, 7, 26, 129, 723)

LARGE = 12
# Factor sizes for the product algebra of large12: every pair of catalog
# algebras whose product has LARGE elements, with the 1-element factor
# left out because it only relabels the other factor.
PRODUCT_SIZES = ((2, 6), (6, 2), (3, 4), (4, 3))
VALIDATE_LUK_SIZES = range(48, 65)

CLASS_VERDICTS = ("quasicomplemented", "disjunctive", "weakly_disjunctive",
                  "lattice_boolean", "filter_lattice_boolean")
# Verdicts each analysis command reports per algebra, for verdicts_per_s.
VERDICTS_PER_ALGEBRA = {"info": 5, "classify": 5, "coann": 3}


@dataclass(frozen=True)
class Op:
    """One CLI command: ``reslat <kind> <args> --format json <inputs>``.

    ``keys`` names the expected answer of each document, in input
    order; ``algebras`` and ``verdicts`` count the work the report
    carries, for the throughput metrics.
    """

    kind: str
    args: tuple[str, ...]
    inputs: tuple[str, ...]
    keys: tuple[str, ...]
    algebras: int
    verdicts: int

    def argv(self) -> list[str]:
        return [self.kind, *self.args, "--format", "json", *self.inputs]


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def catalog_documents(path: Path = CATALOG) -> list[tuple[str, str]]:
    """The frozen catalog as (label, document text) pairs, in file order."""
    text = path.read_text(encoding="utf-8")
    out = []
    for chunk in text.split("---\n"):
        label = chunk.split("\n", 1)[0].removeprefix("label: ")
        out.append((label, chunk))
    return out


def catalog_by_size(docs) -> dict[int, list[tuple[str, object]]]:
    """Catalog algebras grouped by carrier size, each with its label."""
    out: dict[int, list] = {}
    for label, text in docs:
        alg = parse_stream(text)[0].algebra
        out.setdefault(alg.n, []).append((label, alg))
    return out


def product_key(a_label: str, b_label: str) -> str:
    return f"{a_label}x{b_label}"


def product_menu(by_size) -> list[tuple[str, object, object]]:
    """Every product large12 may draw, as (key, left factor, right factor)."""
    menu = []
    for na, nb in PRODUCT_SIZES:
        for la, a in by_size[na]:
            for lb, b in by_size[nb]:
                menu.append((product_key(la, lb), a, b))
    return menu


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one round of a workload; inputs are written to workdir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if name == "search7":
        # The search has no input, so the seed changes nothing.
        total = sum(ALGEBRAS_PER_SIZE)
        return [Op("search", ("--max-size", "7", "--predicate",
                              SEARCH_PREDICATE),
                   (), ("search7",), total, total)]
    docs = catalog_documents()
    if name == "catalog6":
        rng.shuffle(docs)
        path = _write(workdir / f"catalog6-{seed}.alg",
                      "---\n".join(text for _, text in docs))
        n_statements = len(load_expected()["registry"])
        return [Op("verify", (), (path,), tuple(lb for lb, _ in docs),
                   len(docs), len(docs) * n_statements)]
    return _build_large12(rng, docs, workdir)


def _build_large12(rng: random.Random, docs, workdir: Path) -> list[Op]:
    by_size = catalog_by_size(docs)
    na, nb = rng.choice(PRODUCT_SIZES)
    la, a = rng.choice(by_size[na])
    lb, b = rng.choice(by_size[nb])
    algebras = [(f"luk{LARGE}", gen.luk(LARGE)),
                (f"godel{LARGE}", gen.godel(LARGE)),
                (product_key(la, lb), gen.product(a, b))]
    rng.shuffle(algebras)
    ops = []
    for key, alg in algebras:
        path = _write(workdir / f"{key}.alg", render_algebra(alg, key))
        for kind in ("info", "coann", "classify"):
            ops.append(Op(kind, (), (path,), (key,), 1,
                          VERDICTS_PER_ALGEBRA[kind]))
    # verify always runs on the Lukasiewicz chain, so the longest command
    # of a round costs the same whatever the seed draws.
    luk_path = str(workdir / f"luk{LARGE}.alg")
    n_statements = len(load_expected()["registry"])
    ops.append(Op("verify", (), (luk_path,), (f"luk{LARGE}",), 1,
                  n_statements))
    if rng.random() < 0.5:
        key, alg = "boolean6", gen.boolean(6)
    else:
        n = rng.choice(VALIDATE_LUK_SIZES)
        key, alg = f"luk{n}", gen.luk(n)
    path = _write(workdir / f"{key}.alg", render_algebra(alg, key))
    ops.append(Op("validate", (), (path,), (key,), 1, 1))
    return ops


# -- answers ----------------------------------------------------------------

def invariant(kind: str, item: dict) -> dict:
    """The fields of one per-algebra report item that are the answer."""
    if kind == "info":
        keys = ("counts", *CLASS_VERDICTS, "dense", "nilpotents",
                "boolean_center")
    elif kind == "classify":
        keys = (*CLASS_VERDICTS, "maps", "element_classes_by_coannulet",
                "filter_classes_by_cohull")
    elif kind == "coann":
        keys = ("coannulets", "coannihilators", "coannulets_cover_family",
                "coannihilator_lattice_boolean",
                "ideal_sweep_matches_coannulets", "lattice_ideals", "dense")
    else:
        raise ValueError(f"no pinned answer for {kind!r}")
    return {k: item[k] for k in keys}


def summary(kind: str, inv: dict) -> dict:
    """A readable part of the answer, stored next to its digest."""
    if kind == "info":
        return {"counts": inv["counts"],
                "verdicts": [inv[k] for k in CLASS_VERDICTS]}
    if kind == "classify":
        return {"verdicts": [inv[k] for k in CLASS_VERDICTS]}
    return {"coannihilators": len(inv["coannihilators"]),
            "lattice_ideals": inv["lattice_ideals"],
            "flags": [inv["coannulets_cover_family"],
                      inv["coannihilator_lattice_boolean"],
                      inv["ideal_sweep_matches_coannulets"]]}


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pinned(kind: str, item: dict) -> dict:
    inv = invariant(kind, item)
    return {"summary": summary(kind, inv), "sha256": digest(inv)}


def closed_form_info(key: str) -> dict | None:
    """info answers that follow from the definitions, for chains.

    Lukasiewicz chains are simple, so {top} and the carrier are the only
    filters; every up-set of a Goedel chain is a filter and all proper
    ones are prime.  In both, only the top joins a non-top element to
    the top, so there are two coannulets and every non-top element is
    dense.
    """
    for prefix in ("luk", "godel"):
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            n = int(key[len(prefix):])
            break
    else:
        return None
    luk = prefix == "luk"
    counts = {"filters": 2 if luk else n, "prime_filters": 1 if luk else n - 1,
              "minimal_primes": 1, "maximal_filters": 1, "coannulets": 2,
              "coannihilators": 2, "lattice_ideals": n, "alpha_filters": 2}
    names = [str(i) for i in range(n)]
    return {"counts": counts,
            "verdicts": [True, False, luk, False, luk],
            "dense": names[:-1],
            "nilpotents": names[:-1] if luk else names[:1],
            "boolean_center": [names[0], names[-1]]}


def _check_search(report: dict, expected: dict) -> list[str]:
    rows = [(r["size"], r["lattices"], r["algebras"], r["matching"])
            for r in report["per_size"]]
    want = [tuple(r) for r in expected["search"]["search7"]]
    if rows != want:
        return [f"search per-size rows {rows} != {want}"]
    return []


def _check_verify(report: dict, op: Op, expected: dict) -> list[str]:
    registry = expected["registry"]
    items = report["algebras"]
    labels = [it["label"] for it in items]
    if labels != list(op.keys):
        return ["verify reported other documents than it was given"]
    problems = []
    for it in items:
        idents = [r["ident"] for r in it["results"]]
        failed = [r["ident"] for r in it["results"] if not r["passed"]]
        if idents != registry:
            problems.append(f"{it['label']}: statements {idents} are not "
                            "the registry in order")
        if failed or it["failed"] != 0:
            problems.append(f"{it['label']}: failed {failed}")
    return problems


def _check_validate(report: dict, op: Op) -> list[str]:
    key = op.keys[0]
    n = 64 if key == "boolean6" else int(key.removeprefix("luk"))
    want = [{"label": key, "valid": True, "elements": n}]
    if report["documents"] != want or report["invalid"] != 0:
        return [f"validate reported {report['documents']}, want {want}"]
    return []


def _check_analysis(report: dict, op: Op, expected: dict) -> list[str]:
    problems = []
    items = report["algebras"]
    if [it["label"] for it in items] != list(op.keys):
        return [f"{op.kind} reported other documents than it was given"]
    for key, it in zip(op.keys, items):
        got = pinned(op.kind, it)
        want = expected[op.kind].get(key)
        if want is None:
            problems.append(f"{op.kind} {key}: no pinned answer")
        elif got != want:
            problems.append(f"{op.kind} {key}: answer {got['summary']} "
                            f"differs from pinned {want['summary']}")
        closed = closed_form_info(key) if op.kind == "info" else None
        if closed is not None:
            got_closed = {"counts": it["counts"],
                          "verdicts": [it[k] for k in CLASS_VERDICTS],
                          "dense": it["dense"],
                          "nilpotents": it["nilpotents"],
                          "boolean_center": it["boolean_center"]}
            if got_closed != closed:
                problems.append(f"info {key}: {got_closed} breaks the "
                                f"closed form {closed}")
    return problems


def check(op: Op, returncode: int, stdout: str, expected: dict) -> list[str]:
    """Every way the op's answer is wrong; empty when it is right.

    Each op in these workloads must exit 0 and print one JSON report.
    """
    if returncode != 0:
        return [f"{op.kind} exited {returncode}, want 0"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{op.kind} printed no JSON report: {exc}"]
    if report.get("command") != op.kind:
        return [f"report is for {report.get('command')!r}, not {op.kind!r}"]
    if op.kind == "search":
        return _check_search(report, expected)
    if op.kind == "verify":
        return _check_verify(report, op, expected)
    if op.kind == "validate":
        return _check_validate(report, op)
    return _check_analysis(report, op, expected)
