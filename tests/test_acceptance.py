"""End to end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS or
FAIL line on the real stdout so the run reads as a checklist.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache

from reslat.alpha import (alpha_closure, alpha_family, is_alpha_filter,
                          perp_image, perp_preimage)
from reslat.classify import classification
from reslat.cli import main
from reslat.coann import coannihilator_lattice, coannihilator_family, \
    coannulet_family
from reslat.filters import all_filters, principal_filter, principal_generator
from reslat.io import load_bundled
from reslat.search import mine
from reslat.spectrum import maximal_filters, minimal_primes, prime_filters
from reslat.suite import verify_suite
from reslat.views import is_boolean, view_filters

from conftest import mask_of


def _report(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(("PASS" if ok else "FAIL") + ": " + text)
    assert ok, text


@lru_cache(maxsize=1)
def _catalog():
    return mine("true", 5).matches


def test_criterion_1_reference_algebra_basics(capsys):
    started = time.monotonic()
    alg = load_bundled("a7").algebra
    fam = tuple(all_filters(alg))
    expected = (
        mask_of(alg, "1"),
        mask_of(alg, "e", "1"),
        mask_of(alg, "b", "d", "1"),
        mask_of(alg, "a", "b", "c", "d", "e", "1"),
        alg.universe,
    )
    verdicts = tuple(is_alpha_filter(alg, f) for f in fam)
    elapsed = time.monotonic() - started
    ok = (fam == expected
          and verdicts == (True, True, True, False, True)
          and elapsed < 1.0)
    _report(capsys, ok,
            "seven element reference: validates, exactly five filters, "
            "alpha verdicts as expected, under one second "
            f"({elapsed:.3f}s)")


def test_criterion_2_reference_landscape(capsys):
    alg = load_bundled("a7").algebra
    f2 = mask_of(alg, "e", "1")
    f3 = mask_of(alg, "b", "d", "1")
    f4 = mask_of(alg, "a", "b", "c", "d", "e", "1")
    gamma = tuple(coannulet_family(alg))
    cl = classification(alg)
    ok = (tuple(prime_filters(alg)) == (f2, f3, f4)
          and tuple(maximal_filters(alg)) == (f4,)
          and tuple(minimal_primes(alg)) == (f2, f3)
          and alg.dense_elements == mask_of(alg, "0", "a", "c")
          and alg.nilpotents == mask_of(alg, "0")
          and alg.boolean_center == mask_of(alg, "0", "1")
          and gamma == (mask_of(alg, "1"), f2, f3, alg.universe)
          and tuple(coannihilator_family(alg)) == gamma
          and is_boolean(coannihilator_lattice(alg))
          and tuple(alpha_family(alg)) == (mask_of(alg, "1"), f2, f3,
                                           alg.universe)
          and cl.quasicomplemented
          and not cl.disjunctive
          and not cl.weakly_disjunctive)
    _report(capsys, ok,
            "seven element reference: primes, extremal primes, dense set, "
            "nilpotents, center, coannihilator and alpha families, and "
            "class verdicts all match the expected landscape")


def test_criterion_3_suite_on_bundled_algebras(capsys):
    code = main(["verify", "a7", "chain2", "chain3", "bool4"])
    out = capsys.readouterr().out
    ok = (code == 0
          and "FAIL" not in out
          and out.count(", 0 failed") == 4)
    _report(capsys, ok,
            "statement suite passes with zero failures on the four "
            "bundled algebras through the command line")


def test_criterion_4_suite_on_full_catalog(capsys):
    started = time.monotonic()
    catalog = _catalog()
    failures = 0
    for alg in catalog:
        for report in verify_suite(alg):
            if not report.passed:
                failures += 1
    elapsed = time.monotonic() - started
    ok = len(catalog) == 37 and failures == 0 and elapsed < 600.0
    _report(capsys, ok,
            f"all {len(catalog)} algebras on up to five elements pass "
            f"every statement with zero failures in {elapsed:.1f}s")


def test_criterion_5_finite_principality(capsys):
    ok = True
    for alg in _catalog():
        for f in all_filters(alg):
            g = principal_generator(alg, f)
            if principal_filter(alg, g) != f:
                ok = False
    _report(capsys, ok,
            "every filter of every catalog algebra is principal")


def test_criterion_6_alpha_closure_and_transfer(capsys):
    ok = True
    for alg in _catalog():
        filters = tuple(all_filters(alg))
        alphas = tuple(alpha_family(alg))
        view = coannihilator_lattice(alg)
        gamma_filters = view_filters(view)
        for f in filters:
            c = alpha_closure(alg, f)
            if not (f & ~c == 0 and alpha_closure(alg, c) == c
                    and is_alpha_filter(alg, c)):
                ok = False
            for g in filters:
                if f & ~g == 0 and c & ~alpha_closure(alg, g):
                    ok = False
        for a in alphas:
            if perp_preimage(alg, perp_image(alg, a)) != a:
                ok = False
            for gv in gamma_filters:
                left = perp_image(alg, a) & ~gv == 0
                right = a & ~perp_preimage(alg, gv) == 0
                if left != right:
                    ok = False
        for gv in gamma_filters:
            if perp_image(alg, perp_preimage(alg, gv)) != gv:
                ok = False
        fixed = tuple(f for f in filters if alpha_closure(alg, f) == f)
        if fixed != alphas:
            ok = False
    _report(capsys, ok,
            "closure laws, the image preimage adjunction, and the fixed "
            "point description of alpha filters hold across the catalog")


def test_criterion_7_enumeration_stability(capsys):
    counts = {}
    for n in (1, 2, 3):
        res = mine("true", n, n_min=n)
        counts[n] = (res.stats.emitted, res.stats.iso_rejected,
                     len(res.matches))
    ok = counts == {1: (1, 0, 1), 2: (1, 0, 1), 3: (2, 0, 2)}
    _report(capsys, ok,
            "enumeration counts on one, two, and three elements are 1, 1, "
            "and 2 with no duplicates, with exactly one two element algebra")


def test_criterion_8_reports_are_reproducible(capsys):
    commands = (
        ["validate", "a7", "bool4"],
        ["info", "a7"],
        ["filters", "a7"],
        ["spectrum", "bool4"],
        ["coann", "chain3"],
        ["alpha", "a7"],
        ["classify", "chain2"],
        ["verify", "a7"],
        ["search", "--max-size", "3", "--render"],
    )
    ok = True
    for argv in commands:
        for fmt in ((), ("--format", "json")):
            runs = []
            for _ in range(2):
                code = main(argv + list(fmt))
                runs.append((code, capsys.readouterr().out))
            if runs[0] != runs[1]:
                ok = False
            if fmt and runs[0][1]:
                json.loads(runs[0][1])
    _report(capsys, ok,
            "every command renders byte identical text and machine "
            "reports on repeated runs")


def test_catalog_spot_checks(capsys):
    sizes = sorted(alg.n for alg in _catalog())
    counts = {n: sizes.count(n) for n in set(sizes)}
    ok = counts == {1: 1, 2: 1, 3: 2, 4: 7, 5: 26}
    _report(capsys, ok,
            "catalog sizes break down as 1, 1, 2, 7, 26 by carrier size")
