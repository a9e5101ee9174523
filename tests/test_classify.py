from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from conftest import build, element_kernel_by_principal_filter, mask_of
from reslat.classify import (
    classification,
    cohull_lattice,
    congruence_classes_named,
    element_kernel_by_coannulet,
    element_lattice,
    filter_kernel_spectral,
    filter_lattice,
    hull_lattice,
    structure_maps,
)
from reslat.search import mine
from reslat.views import is_boolean

MAP_NAMES = (
    "element to principal filter",
    "element to coannulet",
    "filter to cohull",
    "filter to generator coannulet",
    "cohull to hull",
    "coannulet to hull",
)


def test_a7_classification_verdicts(a7):
    res = classification(a7)
    assert res.quasicomplemented
    assert not res.disjunctive
    assert not res.weakly_disjunctive
    assert not res.lattice_boolean
    assert not res.filter_lattice_boolean


def test_routes_come_in_verdict_order(a7):
    """``classify``'s report pairs each route group with the verdict of
    ``VERDICTS`` in the same place."""
    assert list(classification(a7).routes) == [
        "quasicomplemented", "disjunctive", "weakly disjunctive",
        "lattice Boolean", "filter lattice Boolean"]


EXPECTED_VERDICTS = {
    "a7": (True, False, False, False, False),
    "chain2": (True, True, True, True, True),
    "chain3": (True, False, False, False, False),
    "chain3n": (True, False, True, False, True),
    "bool4": (True, True, True, True, True),
}


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_classification_grid(key):
    alg = build(tb.ALL_TABLES[key])
    res = classification(alg)
    assert (res.quasicomplemented, res.disjunctive, res.weakly_disjunctive,
            res.lattice_boolean, res.filter_lattice_boolean) == \
        EXPECTED_VERDICTS[key]


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_routes_agree_and_cover(key):
    alg = build(tb.ALL_TABLES[key])
    res = classification(alg)
    assert sorted(res.routes) == ["disjunctive", "filter lattice Boolean",
                                  "lattice Boolean", "quasicomplemented",
                                  "weakly disjunctive"]
    for verdicts in res.routes.values():
        assert len({v for _, v in verdicts}) == 1


def _bf_classify(t):
    """Independent verdicts straight from the definitions."""
    n = t["n"]
    coannulets = [bf.perp(t, {x}) for x in range(n)]
    disj = len(set(coannulets)) == n
    qc = all(any(bf.perp(t, {y}) == bf.perp(t, bf.perp(t, {x}))
                 for y in range(n)) for x in range(n))
    wdisj = all(bf.is_alpha(t, f) for f in bf.filters(t))
    le = lambda x, y: t["meet"][x][y] == x
    distributive = all(
        t["meet"][x][t["join"][y][z]] ==
        t["join"][t["meet"][x][y]][t["meet"][x][z]]
        for x in range(n) for y in range(n) for z in range(n))
    lb = distributive and all(
        any(t["meet"][x][y] == t["bottom"] and t["join"][x][y] == t["top"]
            for y in range(n)) for x in range(n))
    fam = bf.filters(t)
    full = frozenset(range(n))
    flb = all(
        any(f & g == {t["top"]} and bf.generated(t, f | g) == full for g in fam)
        for f in fam)
    return qc, disj, wdisj, lb, flb


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_classification_matches_oracle(key):
    names, join, meet, prod, impl, bot, top = tb.ALL_TABLES[key]
    t = bf.make(names, join, meet, prod, impl, bot, top)
    alg = build(tb.ALL_TABLES[key])
    res = classification(alg)
    assert _bf_classify(t) == (
        res.quasicomplemented, res.disjunctive, res.weakly_disjunctive,
        res.lattice_boolean, res.filter_lattice_boolean)


def test_a7_map_kinds(a7):
    maps = structure_maps(a7)
    assert tuple(maps) == MAP_NAMES
    kinds = {name: rep.kind for name, rep in maps.items()}
    assert kinds == {
        "element to principal filter": "dual lattice homomorphism",
        "element to coannulet": "lattice homomorphism",
        "filter to cohull": "lattice homomorphism",
        "filter to generator coannulet": "dual lattice homomorphism",
        "cohull to hull": "dual lattice homomorphism",
        "coannulet to hull": "lattice homomorphism",
    }
    for rep in maps.values():
        assert rep.surjective


EXPECTED_INJECTIVE = {
    "a7": (False, False, False, False),
    "chain2": (True, True, True, True),
    "chain3": (True, False, False, False),
    "chain3n": (False, False, True, True),
    "bool4": (True, True, True, True),
}


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_map_injectivity_grid(key):
    alg = build(tb.ALL_TABLES[key])
    maps = structure_maps(alg)
    assert (maps["element to principal filter"].injective,
            maps["element to coannulet"].injective,
            maps["filter to cohull"].injective,
            maps["filter to generator coannulet"].injective) == \
        EXPECTED_INJECTIVE[key]
    assert maps["cohull to hull"].bijective
    assert maps["coannulet to hull"].bijective


def test_a7_coannulet_map_pairs(a7):
    rep = structure_maps(a7)["element to coannulet"]
    trivial = mask_of(a7, "1")
    expected = (trivial, trivial, mask_of(a7, "e", "1"), trivial,
                mask_of(a7, "e", "1"), mask_of(a7, "b", "d", "1"), a7.universe)
    assert rep.images == expected


def test_a7_element_kernels(a7):
    by_filter = element_kernel_by_principal_filter(a7)
    assert congruence_classes_named(a7, by_filter, element_lattice(a7)) == (
        ("0",), ("a", "c"), ("b", "d"), ("e",), ("1",))
    by_coannulet = element_kernel_by_coannulet(a7)
    assert congruence_classes_named(a7, by_coannulet, element_lattice(a7)) == (
        ("0", "a", "c"), ("b", "d"), ("e",), ("1",))


def test_a7_spectral_kernel(a7):
    fl = filter_lattice(a7)
    assert fl.keys == (
        mask_of(a7, "1"), mask_of(a7, "e", "1"), mask_of(a7, "b", "d", "1"),
        mask_of(a7, "a", "b", "c", "d", "e", "1"), a7.universe)
    spectral = filter_kernel_spectral(a7)
    assert spectral.classes == ((0,), (1,), (2,), (3, 4))
    named = congruence_classes_named(a7, spectral, fl)
    assert named[3] == ("{a, b, c, d, e, 1}", "{0, a, b, c, d, e, 1}")


def test_a7_point_lattices(a7):
    hulls = hull_lattice(a7)
    cohulls = cohull_lattice(a7)
    assert hulls.keys == (0b00, 0b01, 0b10, 0b11)
    assert cohulls.keys == (0b00, 0b01, 0b10, 0b11)
    assert is_boolean(hulls) and is_boolean(cohulls)


def test_chain_kernels(chain3, chain3n):
    for alg in (chain3, chain3n):
        cong = element_kernel_by_coannulet(alg)
        assert congruence_classes_named(alg, cong, element_lattice(alg)) == (
            ("0", "m"), ("1",))
    # the principal-filter kernel tells the two apart
    godel = element_kernel_by_principal_filter(chain3)
    assert congruence_classes_named(chain3, godel, element_lattice(chain3)) == (
        ("0",), ("m",), ("1",))
    nilpotent = element_kernel_by_principal_filter(chain3n)
    assert congruence_classes_named(chain3n, nilpotent,
                                    element_lattice(chain3n)) == (
        ("0", "m"), ("1",))


def test_predicate_shorthands(a7, bool4):
    res_a7, res_bool4 = classification(a7), classification(bool4)
    assert res_a7.quasicomplemented and res_bool4.quasicomplemented
    assert not res_a7.disjunctive and res_bool4.disjunctive
    assert not res_a7.weakly_disjunctive and res_bool4.weakly_disjunctive


def test_class_census_through_seven_elements():
    """How many algebras of each size n = 1..7 fall in each class, with
    every route of each verdict agreeing on every algebra.

    Every finite algebra is quasicomplemented; the disjunctive ones are
    exactly the lattice-Boolean ones, the Boolean algebras (n = 1, 2, 4);
    only weak disjunctivity, equal to a Boolean filter lattice, splits
    the rest.
    """
    census = {"all": [], "quasicomplemented": [], "disjunctive": [],
              "lattice_boolean": [], "weakly_disjunctive": [],
              "filter_lattice_boolean": []}
    for n in range(1, 8):
        verdicts = [classification(alg) for alg in mine("true", n, n_min=n).matches]
        for res in verdicts:
            for name, routes in res.routes.items():
                field = name.replace(" ", "_").lower()
                assert {v for _, v in routes} == {getattr(res, field)}, routes
        census["all"].append(len(verdicts))
        for cls in list(census)[1:]:
            census[cls].append(sum(getattr(res, cls) for res in verdicts))
    every = [1, 1, 2, 7, 26, 129, 723]
    weakly = [1, 1, 1, 3, 7, 34, 191]
    assert census == {
        "all": every, "quasicomplemented": every,
        "disjunctive": [1, 1, 0, 1, 0, 0, 0],
        "lattice_boolean": [1, 1, 0, 1, 0, 0, 0],
        "weakly_disjunctive": weakly, "filter_lattice_boolean": weakly}


def test_single_element_classification():
    alg = build((("u",), [["u"]], [["u"]], [["u"]], [["u"]], "u", "u"))
    res = classification(alg)
    assert res.quasicomplemented and res.disjunctive
    assert res.weakly_disjunctive and res.lattice_boolean
    assert res.filter_lattice_boolean
    maps = structure_maps(alg)
    assert all(rep.bijective for rep in maps.values())
