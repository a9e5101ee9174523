"""The landscape of every algebra on at most five elements, and the
subset operators on every algebra on at most seven, against the
brute-force oracle, plus the omega-filter join, each view's join against
the paper's formula, and the structure map and lattice view facts that no
suite statement checks."""

from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from reslat import InternalCheckError, PreconditionError
from conftest import (
    build,
    catalog5,
    element_kernel_by_principal_filter,
    oracle_of,
    set_of,
)
from reslat.alpha import (
    alpha_closure,
    alpha_family,
    alpha_lattice,
    alpha_separate,
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
    coannihilator,
    coannihilator_family,
    coannihilator_lattice,
    coannulet,
    coannulet_lattice,
    double_coannihilator,
    is_lattice_ideal,
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
from reslat.search import mine
from reslat.spectrum import (
    cohull,
    hull,
    is_minimal_prime,
    is_prime,
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
    view_filter_generated,
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
    for f in all_filters(alg):
        for x in range(alg.n):
            assert set_of(alg, extend_filter(alg, f, x)) == \
                bf.generated(t, set_of(alg, f) | {x})

    assert as_sets(alg, coannihilator_family(alg)) == set(bf.coannihilator_family(t))
    assert [set_of(alg, d) for d in alg.double_coannulets] == \
        [bf.perp(t, bf.perp(t, {x})) for x in range(alg.n)]
    assert as_sets(alg, all_ideals(alg)) == set(bf.ideals(t))
    assert as_sets(alg, omega_family(alg)) == set(bf.omega_family(t))

    # Separation from a join-closed set is separation from its join.
    avoided = [(c, alg.join_of(sum(singleton(x) for x in c)))
               for c in bf.join_closed_sets(t)]
    for f in all_filters(alg):
        fs = set_of(alg, f)
        for c, c_join in avoided:
            if not fs & c:
                assert set_of(alg, separate(alg, f, c_join)) == bf.separate(t, fs, c)
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
    for q in alpha_family(alg):
        qs = set_of(alg, q)
        for c, c_join in avoided:
            if not qs & c:
                assert set_of(alg, alpha_separate(alg, q, c_join)) == \
                    bf.alpha_separate(t, qs, c)


@pytest.mark.parametrize("n", range(1, 8))
def test_subset_operators_go_through_the_product(n):
    """On every subset X of every algebra on n elements: the
    coannihilator is the coannulet of the product of X, and the filter
    X generates and the filter built from X by adjoining its members one
    at a time with extend_filter are the principal filter of that
    product, whose alpha closure is that of X.  These are the reductions
    coannihilator-galois, filters-closure-system, finite-principality and
    alpha-closure-laws rely on to check elements and filters in place of
    subsets.  Each operator also matches the oracle."""
    for alg in mine("true", n, n_min=n).matches:
        t = oracle_of(alg)
        built = [singleton(alg.top)]
        for m in range(alg.universe + 1):
            if m:
                low = m & -m
                built.append(extend_filter(alg, built[m ^ low], low.bit_length() - 1))
            s, p = set_of(alg, m), alg.product_of(m)
            assert coannihilator(alg, m) == coannulet(alg, p)
            assert set_of(alg, coannihilator(alg, m)) == bf.perp(t, s)
            assert generated_filter(alg, m) == principal_filter(alg, p) == built[m]
            assert set_of(alg, generated_filter(alg, m)) == bf.generated(t, s)
            assert alpha_closure(alg, m) == alpha_closure(alg, built[m])
            assert set_of(alg, alpha_closure(alg, m)) == bf.alpha_closure(t, s)


def least_above(family, s):
    """The member of a family of sets inside every member containing s."""
    above = [m for m in family if s <= m]
    return next(m for m in above if all(m <= o for o in above))


@pytest.mark.parametrize("index", catalog_params())
def test_ideal_closed_forms_match_oracle(index):
    """Ideals as the down-sets of joins, on every mask, against the
    definition."""
    alg = catalog5()[index]
    t = oracle_of(alg)
    for m in range(alg.universe + 1):
        assert is_lattice_ideal(alg, m) == bf.is_ideal(t, set_of(alg, m))


@pytest.mark.parametrize("index", catalog_params())
def test_view_filter_generated_matches_oracle(index):
    """The filter every set of coannulet nodes generates, against the
    least lattice filter containing it.  Its only caller, the transfer
    round-trip check, reports one verdict per algebra; this compares the
    filters themselves."""
    view = coannulet_lattice(catalog5()[index])
    nodes = lambda m: frozenset(i for i in range(view.n) if m >> i & 1)
    filters = [nodes(m) for m in bf.view_filters(view)]
    for m in range(1 << view.n):
        assert nodes(view_filter_generated(view, m)) == least_above(filters, nodes(m))


def fixture_and_catalog_params():
    return ([pytest.param(("fixture", key), id=key) for key in sorted(tb.ALL_TABLES)]
            + [pytest.param(("catalog", i), id=f"catalog5-{i}")
               for i in range(CATALOG_SIZE)])


def algebra_of(source):
    kind, key = source
    return build(tb.ALL_TABLES[key]) if kind == "fixture" else catalog5()[key]


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_omega_join_through_canonical_ideals(source):
    """The omega map preserves joins: the join of the omega filters of two ideals
    is the omega filter of the least ideal containing both, the down-set
    of the join of their union."""
    alg = algebra_of(source)
    ideals = all_ideals(alg)
    view = omega_filter_lattice(alg)
    for i in ideals:
        for j in ideals:
            fi, fj = view.index(omega_filter(alg, i)), view.index(omega_filter(alg, j))
            assert omega_filter(alg, alg.down[alg.join_of(i | j)]) == \
                view.keys[view.join[fi][fj]]


@pytest.mark.parametrize("source", fixture_and_catalog_params())
def test_view_joins_are_the_papers_formulas(source):
    """Each view's join, read off its family by inclusion, is the join
    the paper gives for that lattice."""
    alg = algebra_of(source)
    formulas = [
        (filter_lattice(alg), lambda u, v: generated_filter(alg, u | v)),
        (alpha_lattice(alg), lambda u, v: alpha_closure(alg, u | v)),
        (coannihilator_lattice(alg), lambda u, v: double_coannihilator(alg, u | v)),
        (hull_lattice(alg), lambda u, v: u | v),
        (cohull_lattice(alg), lambda u, v: u | v),
    ]
    for view, join in formulas:
        for i, u in enumerate(view.keys):
            for j, v in enumerate(view.keys):
                assert view.keys[view.join[i][j]] == join(u, v), view.name
    view = coannulet_lattice(alg)
    for x in range(alg.n):
        for y in range(alg.n):
            i, j = view.index(coannulet(alg, x)), view.index(coannulet(alg, y))
            assert view.keys[view.join[i][j]] == coannulet(alg, alg.join[x][y])


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


# Families of subsets of {0, 1, 2} under inclusion: three atoms, and a
# chain of two beside one atom.
NON_DISTRIBUTIVE = {
    "M3": (0, 0b001, 0b010, 0b100, 0b111),
    "N5": (0, 0b001, 0b011, 0b100, 0b111),
}


@pytest.mark.parametrize("name", sorted(NON_DISTRIBUTIVE))
def test_row_distributivity_rejects_m3_and_n5(name):
    view = build_view(name, NON_DISTRIBUTIVE[name])
    assert bf.lattice_law_failures(view) == []
    assert not bf.is_distributive(view)
    assert not is_distributive(view)
    assert not is_boolean(view)


def test_build_view_guards():
    with pytest.raises(PreconditionError, match="duplicate keys"):
        build_view("twice", (1, 1))
    with pytest.raises(InternalCheckError, match="not a member of the family"):
        build_view("open", (1, 2))
    with pytest.raises(InternalCheckError, match="no least upper bound"):
        build_view("unbounded", (0, 1, 2))
