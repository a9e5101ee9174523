from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import tables as tb
from conftest import build, mask_of, oracle_of, set_of
from gen import boolean, luk
from reslat import PreconditionError
from reslat.coann import (
    all_ideals,
    canonical_ideal_of,
    coannihilator,
    coannihilator_family,
    coannihilator_lattice,
    coannulet,
    coannulet_family,
    coannulet_lattice,
    double_coannihilator,
    ideal_join,
    is_lattice_ideal,
    omega_family,
    omega_filter,
    omega_filter_lattice,
    proper_omega_no_dense_check,
    pseudocomplement_check,
)
from reslat.filters import all_filters
from reslat.subsets import singleton
from reslat.views import is_boolean


def test_a7_coannulets_frozen(a7):
    at = lambda nm: a7.names.index(nm)
    assert coannulet(a7, at("b")) == mask_of(a7, "e", "1")
    assert coannulet(a7, at("d")) == mask_of(a7, "e", "1")
    assert coannulet(a7, at("e")) == mask_of(a7, "b", "d", "1")
    assert coannulet(a7, at("0")) == mask_of(a7, "1")
    assert coannulet(a7, at("a")) == mask_of(a7, "1")
    assert coannulet(a7, at("c")) == mask_of(a7, "1")
    assert coannulet(a7, at("1")) == a7.universe


def test_a7_families_frozen(a7):
    expected = (mask_of(a7, "1"), mask_of(a7, "e", "1"),
                mask_of(a7, "b", "d", "1"), a7.universe)
    assert coannulet_family(a7) == expected
    assert coannihilator_family(a7) == expected
    assert omega_family(a7) == expected


def test_coannihilator_of_subsets(a7):
    assert coannihilator(a7, 0) == a7.universe
    assert coannihilator(a7, mask_of(a7, "b", "e")) == mask_of(a7, "1")
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    assert coannihilator(a7, f2) == f3
    assert coannihilator(a7, f3) == f2
    assert double_coannihilator(a7, mask_of(a7, "d")) == f2


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_families_match_oracle(key):
    alg = build(tb.ALL_TABLES[key])
    t = bf.make(*tb.ALL_TABLES[key])
    fam_key = lambda s: (len(s), sorted(s))
    assert [set_of(alg, m) for m in coannulet_family(alg)] == \
        sorted(map(frozenset, bf.coannulet_family(t)), key=fam_key)
    assert [set_of(alg, m) for m in coannihilator_family(alg)] == \
        sorted(map(frozenset, bf.coannihilator_family(t)), key=fam_key)
    assert [set_of(alg, m) for m in omega_family(alg)] == \
        sorted(map(frozenset, bf.omega_family(t)), key=fam_key)
    assert [set_of(alg, m) for m in all_ideals(alg)] == \
        sorted(map(frozenset, bf.ideals(t)), key=fam_key)


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_every_ideal_is_a_principal_down_set(key):
    alg = build(tb.ALL_TABLES[key])
    ideals = all_ideals(alg)
    assert len(ideals) == alg.n
    assert set(ideals) == {alg.down[x] for x in range(alg.n)}


@pytest.mark.parametrize("make", [lambda: luk(20), lambda: luk(32), lambda: boolean(5)],
                         ids=["luk20", "luk32", "boolean5"])
def test_principal_ideals_are_the_grown_ones(make):
    """The principal down-sets against every ideal grown by closure from
    the bottom, on carriers too large for the oracle's subset scan."""
    alg = make()
    assert {set_of(alg, m) for m in all_ideals(alg)} == set(bf.grown_ideals(oracle_of(alg)))
    assert len(all_ideals(alg)) == alg.n


def test_omega_examples(a7):
    assert omega_filter(a7, mask_of(a7, "0")) == mask_of(a7, "1")
    assert omega_filter(a7, mask_of(a7, "0", "a", "b")) == mask_of(a7, "e", "1")
    assert omega_filter(a7, mask_of(a7, "0", "a", "c", "e")) == mask_of(a7, "b", "d", "1")
    assert omega_filter(a7, a7.universe) == a7.universe
    with pytest.raises(PreconditionError):
        omega_filter(a7, mask_of(a7, "b"))          # not downward closed
    with pytest.raises(PreconditionError):
        omega_filter(a7, mask_of(a7, "0", "a", "b", "c"))  # b v c missing
    assert not is_lattice_ideal(a7, 0)


def test_canonical_ideal(a7):
    assert canonical_ideal_of(a7, mask_of(a7, "1")) == mask_of(a7, "0", "a", "c")
    assert canonical_ideal_of(a7, mask_of(a7, "e", "1")) == \
        mask_of(a7, "0", "a", "b", "c", "d")
    assert canonical_ideal_of(a7, mask_of(a7, "b", "d", "1")) == \
        mask_of(a7, "0", "a", "c", "e")
    assert canonical_ideal_of(a7, a7.universe) == a7.universe
    with pytest.raises(PreconditionError):
        canonical_ideal_of(a7, mask_of(a7, "a", "b", "c", "d", "e", "1"))


def test_ideal_join(a7):
    down_b = mask_of(a7, "0", "a", "b")
    down_c = mask_of(a7, "0", "a", "c")
    assert ideal_join(a7, down_b, down_c) == mask_of(a7, "0", "a", "b", "c", "d")


def test_a7_views(a7):
    f1 = mask_of(a7, "1")
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    for view in (coannulet_lattice(a7), coannihilator_lattice(a7),
                 omega_filter_lattice(a7)):
        assert view.keys == (f1, f3, f2, a7.universe)
        assert view.keys[view.bottom] == f1
        assert view.keys[view.top] == a7.universe
        i, j = view.index(f2), view.index(f3)
        assert view.join[i][j] == view.index(a7.universe)
        assert view.meet[i][j] == view.index(f1)
        assert is_boolean(view)


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_views_agree_across_routes(key):
    alg = build(tb.ALL_TABLES[key])
    small = coannulet_lattice(alg)
    big = coannihilator_lattice(alg)
    assert set(small.keys) <= set(big.keys)
    assert omega_filter_lattice(alg).keys == small.keys


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_coannihilator_is_pseudocomplement(key):
    alg = build(tb.ALL_TABLES[key])
    for f in all_filters(alg):
        assert pseudocomplement_check(alg, f)
    assert proper_omega_no_dense_check(alg)


def test_pseudocomplement_needs_a_filter(a7):
    with pytest.raises(PreconditionError):
        pseudocomplement_check(a7, mask_of(a7, "b"))


@settings(max_examples=200, deadline=None)
@given(x=st.integers(0, 127), y=st.integers(0, 127))
def test_galois_laws(x, y):
    alg = build(tb.A7)
    if x | y == y:
        assert coannihilator(alg, y) & ~coannihilator(alg, x) == 0
    closed = double_coannihilator(alg, x)
    assert x & ~closed == 0
    assert double_coannihilator(alg, closed) == closed
    assert coannihilator(alg, closed) == coannihilator(alg, x)
    assert coannihilator(alg, x | y) == \
        coannihilator(alg, x) & coannihilator(alg, y)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(0, 6), y=st.integers(0, 6))
def test_coannulet_arithmetic(x, y):
    alg = build(tb.A7)
    assert coannulet(alg, alg.join[x][y]) == \
        double_coannihilator(alg, coannulet(alg, x) | coannulet(alg, y))
    assert coannulet(alg, alg.prod[x][y]) == \
        coannulet(alg, x) & coannulet(alg, y)
    assert coannulet(alg, alg.meet[x][y]) == coannulet(alg, alg.prod[x][y])


def test_single_element_algebra():
    alg = build((("u",), [["u"]], [["u"]], [["u"]], [["u"]], "u", "u"))
    assert coannulet_family(alg) == (singleton(0),)
    assert omega_family(alg) == (singleton(0),)
    assert proper_omega_no_dense_check(alg)
