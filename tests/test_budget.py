"""Analysis commands on 20- to 32-element carriers, ``verify`` on 12-
to 64-element ones, and ``validate``, ``info`` and ``coann`` on
64-element ones finish within a time budget and give the closed-form
answers.

Each command runs in a fresh interpreter, so no cache carries over from
an earlier command on the same algebra.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gen import boolean, luk
from reslat.io import render_algebra
from workloads import CLASS_VERDICTS, closed_form_info

BUDGET_S = 10.0
SRC = Path(__file__).resolve().parents[1] / "src"
ALGEBRAS = {"luk20": lambda: luk(20), "luk32": lambda: luk(32),
            "boolean5": lambda: boolean(5)}
COMMANDS = ("info", "coann", "spectrum", "filters", "classify", "alpha")
# validate is cubic in the carrier size; 64 elements is the largest
# carrier a document may have.
LARGE_ALGEBRAS = {"luk64": lambda: luk(64), "boolean6": lambda: boolean(6)}
# The analysis commands held on 64 elements as well.
LARGE_COMMANDS = ("info", "coann")
# verify is polynomial in the carrier size: every statement ranges over
# elements, filters or pairs of them, none over all subsets of the carrier.
VERIFY_ALGEBRAS = {"luk12": lambda: luk(12), "luk16": lambda: luk(16),
                   "boolean4": lambda: boolean(4), **ALGEBRAS, **LARGE_ALGEBRAS}


def expected(key):
    """(counts, verdicts) in the layout of the info report."""
    if key.startswith("luk"):
        closed = closed_form_info(key)
        return closed["counts"], closed["verdicts"]
    # 2^k: the filters are the 2^k principal filters, each of them a
    # coannihilator and an alpha filter; the primes are the principal
    # filters of the k atoms, each maximal and minimal.
    k = int(key.removeprefix("boolean"))
    counts = {"filters": 2 ** k, "prime_filters": k, "minimal_primes": k,
              "maximal_filters": k, "coannulets": 2 ** k, "coannihilators": 2 ** k,
              "lattice_ideals": 2 ** k, "alpha_filters": 2 ** k}
    return counts, [True] * len(CLASS_VERDICTS)


def observed(cmd, item):
    """The counts and verdicts a report carries, in the info layout."""
    if cmd == "info":
        return item["counts"], [item[k] for k in CLASS_VERDICTS]
    if cmd == "classify":
        return {}, [item[k] for k in CLASS_VERDICTS]
    if cmd == "coann":
        return {"coannulets": len({tuple(v) for v in item["coannulets"].values()}),
                "coannihilators": len(item["coannihilators"]),
                "lattice_ideals": item["lattice_ideals"]}, None
    if cmd == "alpha":
        return {"alpha_filters": len(item["family"])}, None
    if cmd == "spectrum":
        return {"prime_filters": len(item["primes"]),
                "minimal_primes": len(item["points"]),
                "maximal_filters": sum(p["maximal"] for p in item["primes"])}, None
    return {"filters": len(item["filters"]),
            "alpha_filters": sum(f["alpha"] for f in item["filters"])}, None


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("budget")
    paths = {}
    for key, make in VERIFY_ALGEBRAS.items():
        paths[key] = directory / f"{key}.alg"
        paths[key].write_text(render_algebra(make(), key))
    return paths


def run_within_budget(cmd, path, key="algebras"):
    """The command's JSON record of one document, run in a fresh
    interpreter that must exit 0 within the budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "reslat.cli", cmd, str(path), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=5 * BUDGET_S)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < BUDGET_S
    return json.loads(proc.stdout)[key][0]


@pytest.mark.parametrize(
    "key, cmd",
    [(key, cmd) for key in sorted(ALGEBRAS) for cmd in COMMANDS]
    + [(key, cmd) for key in sorted(LARGE_ALGEBRAS) for cmd in LARGE_COMMANDS])
def test_command_within_budget(key, cmd, documents):
    counts, verdicts = observed(cmd, run_within_budget(cmd, documents[key]))
    want_counts, want_verdicts = expected(key)
    assert counts == {k: want_counts[k] for k in counts}
    if verdicts is not None:
        assert verdicts == want_verdicts


@pytest.mark.parametrize("key", sorted(VERIFY_ALGEBRAS))
def test_verify_within_budget(key, documents):
    item = run_within_budget("verify", documents[key])
    assert (item["passed"], item["failed"]) == (44, 0)


@pytest.mark.parametrize("key", sorted(LARGE_ALGEBRAS))
def test_validate_within_budget(key, documents):
    item = run_within_budget("validate", documents[key], key="documents")
    assert item == {"label": key, "valid": True, "elements": 64}
