"""Write the frozen catalog and the pinned answers in ``data/``.

    python3 bench/pin.py

This was run once, at the commit that introduced the benchmark, and
its output is checked in.  Both sides of every later comparison then
read the same catalog bytes and are held to the same answers.  Do not
run it again to make a failing answer check pass: a changed answer is
the finding.

The catalog is every residuated lattice on at most 6 elements as the
enumerator produced them, checked against the per-size counts.  The
answers are those of ``reslat info``, ``coann`` and ``classify`` on
every 12-element algebra large12 can draw, plus the search7 per-size
rows and the statement registry.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from reslat.io import NamedAlgebra, render_algebra, render_stream  # noqa: E402
from reslat.search import enumerate_lattices, enumerate_residuated  # noqa: E402
from reslat.suite import registry_idents  # noqa: E402

CHUNK = 40


def write_catalog() -> None:
    docs = []
    for n in range(1, 7):
        algebras = [alg for skel in enumerate_lattices(n)
                    for alg in enumerate_residuated(skel)[0]]
        if len(algebras) != wl.ALGEBRAS_PER_SIZE[n - 1]:
            raise SystemExit(f"{len(algebras)} algebras on {n} elements, "
                             f"want {wl.ALGEBRAS_PER_SIZE[n - 1]}")
        docs += [NamedAlgebra(f"n{n}-{k}", alg)
                 for k, alg in enumerate(algebras, start=1)]
    wl.CATALOG.write_text(render_stream(docs), encoding="utf-8")


def cli_json(argv: list[str]) -> dict:
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    out = subprocess.run([sys.executable, "-m", "reslat.cli", *argv,
                          "--format", "json"], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def main() -> None:
    wl.DATA.mkdir(exist_ok=True)
    write_catalog()
    by_size = wl.catalog_by_size(wl.catalog_documents())
    algebras = [(f"luk{wl.LARGE}", gen.luk(wl.LARGE)),
                (f"godel{wl.LARGE}", gen.godel(wl.LARGE))]
    algebras += [(key, gen.product(a, b))
                 for key, a, b in wl.product_menu(by_size)]

    search = cli_json(["search", "--max-size", "7",
                       "--predicate", wl.SEARCH_PREDICATE])
    rows = [[r["size"], r["lattices"], r["algebras"], r["matching"]]
            for r in search["per_size"]]
    if ([r[1] for r in rows] != list(wl.LATTICES_PER_SIZE)
            or [r[2] for r in rows] != list(wl.ALGEBRAS_PER_SIZE)):
        raise SystemExit(f"search7 rows {rows} miss the published counts")
    expected = {"registry": list(registry_idents()),
                "search": {"search7": rows},
                "info": {}, "coann": {}, "classify": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for start in range(0, len(algebras), CHUNK):
            chunk = algebras[start:start + CHUNK]
            path = Path(tmp) / f"chunk{start}.alg"
            path.write_text("---\n".join(render_algebra(alg, key)
                                         for key, alg in chunk))
            for kind in ("info", "coann", "classify"):
                for item in cli_json([kind, str(path)])["algebras"]:
                    expected[kind][item["label"]] = wl.pinned(kind, item)
            print(f"pinned {start + len(chunk)}/{len(algebras)}",
                  file=sys.stderr, flush=True)
    with open(wl.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
