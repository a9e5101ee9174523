"""The landscape of every algebra on at most five elements against the
brute-force oracle, plus the omega-filter representative, structure
map and lattice view facts that no suite statement checks."""

from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from reslat import InternalCheckError, PreconditionError
from conftest import build, catalog5, element_kernel_by_principal_filter, set_of
from reslat.alpha import (
    alpha_closure,
    alpha_family,
    alpha_lattice,
    prime_alpha_filters,
)
from reslat.classify import (
    classification,
    cohull_lattice,
    element_kernel_by_coannulet,
    element_lattice,
    filter_kernel_spectral,
    filter_lattice,
    hull_lattice,
    structure_maps,
)
from reslat.coann import (
    all_ideals,
    canonical_ideal_of,
    coannihilator,
    coannihilator_family,
    coannihilator_lattice,
    coannulet,
    coannulet_lattice,
    ideal_join,
    omega_family,
    omega_filter,
    omega_filter_lattice,
)
from reslat.filters import (
    all_filters,
    extend_filter,
    generated_filter,
    is_filter,
    principal_filter,
    principal_generator,
    proper_filters,
)
from reslat.spectrum import (
    cohull,
    hull,
    is_minimal_prime,
    is_prime,
    join_closed_sets,
    maximal_filters,
    minimal_primes,
    prime_core,
    prime_filters,
    separate,
)
from reslat.subsets import full_set, singleton, sort_family
from reslat.views import (
    build_view,
    is_boolean,
    is_distributive,
    quotient_view,
    view_filters,
)

CATALOG_SIZE = 37
MAP_KINDS = {
    "element to principal filter": "dual lattice homomorphism",
    "element to coannulet": "lattice homomorphism",
    "filter to cohull": "lattice homomorphism",
    "filter to generator coannulet": "dual lattice homomorphism",
    "cohull to hull": "dual lattice homomorphism",
    "coannulet to hull": "lattice homomorphism",
}


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
        assert is_filter(alg, m) == bf.is_filter(t, s)
        assert set_of(alg, generated_filter(alg, m)) == bf.generated(t, s)
        assert set_of(alg, coannihilator(alg, m)) == bf.perp(t, s)
        assert set_of(alg, alpha_closure(alg, m)) == bf.alpha_closure(t, s)
    for f in all_filters(alg):
        for x in range(alg.n):
            assert set_of(alg, extend_filter(alg, f, x)) == \
                bf.generated(t, set_of(alg, f) | {x})

    assert as_sets(alg, coannihilator_family(alg)) == set(bf.coannihilator_family(t))
    assert as_sets(alg, all_ideals(alg)) == set(bf.ideals(t))
    assert as_sets(alg, omega_family(alg)) == set(bf.omega_family(t))

    assert as_sets(alg, join_closed_sets(alg)) == set(bf.join_closed_sets(t))
    for f in all_filters(alg):
        for c in join_closed_sets(alg):
            if f & c == 0:
                assert set_of(alg, separate(alg, f, c)) == \
                    bf.separate(t, set_of(alg, f), set_of(alg, c))
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
    # The prime alpha filters are the primes among the alpha filters, in
    # canonical order.
    assert as_sets(alg, prime_alpha_filters(alg)) == \
        set(bf.primes(t)) & set(bf.alpha_filters(t))
    assert prime_alpha_filters(alg) == \
        sort_family(set(prime_filters(alg)) & set(alpha_family(alg)))


def fixture_and_catalog_params():
    return ([pytest.param(("fixture", key), id=key) for key in sorted(tb.ALL_TABLES)]
            + [pytest.param(("catalog", i), id=f"catalog5-{i}")
               for i in range(CATALOG_SIZE)])


def algebra_of(source):
    kind, key = source
    return build(tb.ALL_TABLES[key]) if kind == "fixture" else catalog5()[key]


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_omega_join_through_canonical_ideals(source):
    alg = algebra_of(source)
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


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_structure_maps_are_well_defined(source):
    alg = algebra_of(source)
    maps = structure_maps(alg)
    assert {name: m.kind for name, m in maps.items()} == MAP_KINDS

    # The generator coannulet of a filter does not depend on the generator.
    for f in all_filters(alg):
        gens = [x for x in range(alg.n) if principal_filter(alg, x) == f]
        assert {coannulet(alg, g) for g in gens} == \
            {coannulet(alg, principal_generator(alg, f))}
    # Elements sharing a coannulet share a hull, so coannulet to hull is a map.
    hulls = {}
    for x in range(alg.n):
        hulls.setdefault(coannulet(alg, x), set()).add(hull(alg, singleton(x)))
    assert all(len(h) == 1 for h in hulls.values())
    # Filters reach the hulls alike through cohulls and generator coannulets.
    space = full_set(len(minimal_primes(alg)))
    for f in all_filters(alg):
        assert space & ~cohull(alg, f) == \
            hull(alg, singleton(principal_generator(alg, f)))


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_injectivity_routes_match_map_reports(source):
    """Classification reads injectivity off the image lists, the map
    reports off the views; both must say the same."""
    alg = algebra_of(source)
    routes = {label: verdict
              for verdicts in classification(alg).routes.values()
              for label, verdict in verdicts}
    maps = structure_maps(alg)
    for name in ("element to coannulet", "filter to cohull",
                 "filter to generator coannulet"):
        assert routes[f"{name} map is injective"] == maps[name].injective, name


def derived_views(alg):
    return [element_lattice(alg), filter_lattice(alg), hull_lattice(alg),
            cohull_lattice(alg), coannulet_lattice(alg),
            coannihilator_lattice(alg), alpha_lattice(alg),
            omega_filter_lattice(alg),
            quotient_view(element_lattice(alg), element_kernel_by_coannulet(alg)),
            quotient_view(element_lattice(alg),
                          element_kernel_by_principal_filter(alg)),
            quotient_view(filter_lattice(alg), filter_kernel_spectral(alg))]


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_derived_views_are_bounded_lattices(source):
    alg = algebra_of(source)
    for view in derived_views(alg):
        assert bf.lattice_law_failures(view) == [], view.name
        assert view_filters(view) == tuple(bf.view_filters(view)), view.name


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_row_scans_match_oracle(source):
    """Distributivity checked a row at a time, and primality decided
    scanning only the elements outside the filter, against the
    definitions."""
    alg = algebra_of(source)
    for view in derived_views(alg):
        assert is_distributive(view) == bf.is_distributive(view), view.name
        assert is_boolean(view) == bf.is_boolean(view), view.name
    t = oracle_of(alg)
    for f in proper_filters(alg):
        assert is_prime(alg, f) == (bf.prime_witness(t, set_of(alg, f)) is None)


def lattice_from_order(name, ups):
    """A view built with build_view from each key's up-set."""
    def least(common, bounds):
        return next(k for k in common if common <= bounds[k])

    downs = {k: {d for d in ups if k in ups[d]} for k in ups}
    return build_view(name, tuple(ups),
                      lambda x, y: least(ups[x] & ups[y], ups),
                      lambda x, y: least(downs[x] & downs[y], downs))


NON_DISTRIBUTIVE = {
    "M3": {"0": set("0abc1"), "a": set("a1"), "b": set("b1"), "c": set("c1"),
           "1": set("1")},
    "N5": {"0": set("0abc1"), "a": set("ab1"), "b": set("b1"), "c": set("c1"),
           "1": set("1")},
}


@pytest.mark.parametrize("name", sorted(NON_DISTRIBUTIVE))
def test_row_distributivity_rejects_m3_and_n5(name):
    view = lattice_from_order(name, NON_DISTRIBUTIVE[name])
    assert bf.lattice_law_failures(view) == []
    assert not bf.is_distributive(view)
    assert not is_distributive(view)
    assert not is_boolean(view)


def test_build_view_guards():
    with pytest.raises(PreconditionError, match="duplicate keys"):
        build_view("twice", (1, 1), max, min)
    with pytest.raises(InternalCheckError, match="not a member of the family"):
        build_view("open", (1, 2), lambda a, b: a + b, min)
