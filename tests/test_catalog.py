"""The landscape of every algebra on at most five elements against the
brute-force oracle, plus the omega-filter representative facts that no
suite statement checks."""

from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from conftest import build, catalog5, set_of
from reslat.alpha import alpha_closure, alpha_family
from reslat.coann import (
    all_ideals,
    canonical_ideal_of,
    coannihilator,
    coannihilator_family,
    ideal_join,
    omega_family,
    omega_filter,
    omega_filter_lattice,
)
from reslat.filters import all_filters, extend_filter
from reslat.spectrum import (
    is_minimal_prime,
    maximal_filters,
    minimal_primes,
    prime_core,
    prime_filters,
)

CATALOG_SIZE = 37


def catalog_params():
    return [pytest.param(i, id=f"catalog5-{i}") for i in range(CATALOG_SIZE)]


def oracle_of(alg):
    def named(table):
        return [[alg.names[v] for v in row] for row in table]
    return bf.make(alg.names, named(alg.join), named(alg.meet), named(alg.prod),
                   named(alg.impl), alg.names[alg.bottom], alg.names[alg.top])


def as_sets(alg, masks):
    return {set_of(alg, m) for m in masks}


def test_catalog_size():
    assert len(catalog5()) == CATALOG_SIZE


@pytest.mark.parametrize("index", catalog_params())
def test_landscape_matches_oracle(index):
    alg = catalog5()[index]
    t = oracle_of(alg)

    filters = bf.filters(t)
    assert as_sets(alg, all_filters(alg)) == set(filters)
    for m in range(alg.universe + 1):
        s = set_of(alg, m)
        assert set_of(alg, coannihilator(alg, m)) == bf.perp(t, s)
        assert set_of(alg, alpha_closure(alg, m)) == bf.alpha_closure(t, s)
    for f in all_filters(alg):
        for x in range(alg.n):
            assert set_of(alg, extend_filter(alg, f, x)) == \
                bf.generated(t, set_of(alg, f) | {x})

    assert as_sets(alg, coannihilator_family(alg)) == set(bf.coannihilator_family(t))
    assert as_sets(alg, all_ideals(alg)) == set(bf.ideals(t))
    assert as_sets(alg, omega_family(alg)) == set(bf.omega_family(t))

    oracle_minimal = bf.minimal_primes(t)
    assert as_sets(alg, prime_filters(alg)) == set(bf.primes(t))
    assert as_sets(alg, maximal_filters(alg)) == set(bf.maximal_filters(t))
    assert as_sets(alg, minimal_primes(alg)) == set(oracle_minimal)
    for p in prime_filters(alg):
        ps = set_of(alg, p)
        assert is_minimal_prime(alg, p) == (ps in oracle_minimal)
        core = frozenset(range(alg.n))
        for m in oracle_minimal:
            if m <= ps:
                core &= m
        assert set_of(alg, prime_core(alg, p)) == core

    assert as_sets(alg, alpha_family(alg)) == set(bf.alpha_filters(t))


def fixture_and_catalog_params():
    return ([pytest.param(("fixture", key), id=key) for key in sorted(tb.ALL_TABLES)]
            + [pytest.param(("catalog", i), id=f"catalog5-{i}")
               for i in range(CATALOG_SIZE)])


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_omega_join_through_canonical_ideals(source):
    kind, key = source
    alg = build(tb.ALL_TABLES[key]) if kind == "fixture" else catalog5()[key]
    t = oracle_of(alg)

    ideals = all_ideals(alg)
    for f in omega_family(alg):
        canon = canonical_ideal_of(alg, f)
        assert bf.is_ideal(t, set_of(alg, canon))
        assert set_of(alg, omega_filter(alg, canon)) == set_of(alg, f)
        assert all(i & ~canon == 0 for i in ideals if omega_filter(alg, i) == f)

    view = omega_filter_lattice(alg)
    for i in ideals:
        for j in ideals:
            fi, fj = view.index(omega_filter(alg, i)), view.index(omega_filter(alg, j))
            assert omega_filter(alg, ideal_join(alg, i, j)) == view.keys[view.join[fi][fj]]
