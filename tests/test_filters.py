from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
import tables as tb
from conftest import build, catalog5, mask_of, set_of
from reslat import PreconditionError
from reslat.alpha import alpha_lattice
from reslat.classify import filter_lattice
from reslat.filters import (
    all_filters,
    extend_filter,
    filter_join,
    generated_filter,
    is_filter,
    principal_filter,
    principal_generator,
    proper_filters,
)
from reslat.views import build_view, is_distributive


def test_a7_filter_membership(a7):
    assert is_filter(a7, mask_of(a7, "e", "1"))
    # d*d = b is missing, so the up-set of d is not a filter
    assert not is_filter(a7, mask_of(a7, "d", "1"))
    assert not is_filter(a7, 0)


def test_a7_all_filters_frozen(a7):
    assert all_filters(a7) == (
        mask_of(a7, "1"),
        mask_of(a7, "e", "1"),
        mask_of(a7, "b", "d", "1"),
        mask_of(a7, "a", "b", "c", "d", "e", "1"),
        a7.universe,
    )


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_all_filters_match_oracle(key):
    alg = build(tb.ALL_TABLES[key])
    t = bf.make(*tb.ALL_TABLES[key])
    got = {set_of(alg, m) for m in all_filters(alg)}
    assert got == set(map(frozenset, bf.filters(t)))


def test_generated_filter_examples(a7):
    assert generated_filter(a7, 0) == mask_of(a7, "1")
    assert generated_filter(a7, mask_of(a7, "c")) == mask_of(a7, "a", "b", "c", "d", "e", "1")
    assert generated_filter(a7, mask_of(a7, "d")) == mask_of(a7, "b", "d", "1")


def test_extend_filter_examples(a7):
    assert extend_filter(a7, mask_of(a7, "1"), a7.names.index("e")) == mask_of(a7, "e", "1")
    # b * e = a drags the extension all the way down to the atom
    assert extend_filter(a7, mask_of(a7, "e", "1"), a7.names.index("b")) == \
        mask_of(a7, "a", "b", "c", "d", "e", "1")
    with pytest.raises(PreconditionError):
        extend_filter(a7, mask_of(a7, "d", "1"), 0)


def test_meet_join_examples(a7):
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    assert f2 & f3 == mask_of(a7, "1")
    assert filter_join(a7, f2, f3) == mask_of(a7, "a", "b", "c", "d", "e", "1")


def test_principal_generator_roundtrip(bundled):
    for alg in bundled.values():
        for f in all_filters(alg):
            g = principal_generator(alg, f)
            assert generated_filter(alg, 1 << g) == f


def test_principal_filters_cover_all(bundled):
    # finite principality: the principal filters are all of them
    for alg in bundled.values():
        assert {principal_filter(alg, x) for x in range(alg.n)} == set(all_filters(alg))


DIAMOND = (0, 0b001, 0b010, 0b100, 0b111)
PENTAGON = (0, 0b001, 0b011, 0b100, 0b111)


def family_view(name, family):
    """A family of masks as a lattice: join is the least member over the
    union, meet the greatest member inside the intersection."""
    def join(f, g):
        return min((h for h in family if h & (f | g) == f | g), key=int.bit_count)

    def meet(f, g):
        return max((h for h in family if h & f & g == h), key=int.bit_count)

    return build_view(name, family, join, meet)


def filter_and_alpha_views(algs):
    for alg in algs:
        yield filter_lattice(alg)
        yield alpha_lattice(alg)


def test_filter_and_alpha_views_are_frames(bundled):
    for view in filter_and_alpha_views([*bundled.values(), *catalog5()]):
        assert is_distributive(view)


def test_is_distributive_rejects_diamond_view():
    # three atoms under a common top with a common bottom: not distributive
    assert not is_distributive(family_view("diamond", DIAMOND))


def test_is_distributive_matches_subfamily_definition(bundled):
    views = [family_view("diamond", DIAMOND), family_view("pentagon", PENTAGON),
             *filter_and_alpha_views([*bundled.values(), *catalog5()])]
    verdicts = [is_distributive(view) for view in views]
    assert verdicts == [bf.is_frame(view.keys) for view in views]
    assert verdicts[:2] == [False, False]


def test_proper_filters(a7):
    assert a7.universe not in proper_filters(a7)
    assert len(proper_filters(a7)) == 4


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_filter_is_least_filter_above(data):
    key = data.draw(st.sampled_from(sorted(tb.ALL_TABLES)))
    alg = build(tb.ALL_TABLES[key])
    mask = data.draw(st.integers(min_value=0, max_value=alg.universe))
    g = generated_filter(alg, mask)
    assert is_filter(alg, g) and g & mask == mask
    for f in all_filters(alg):
        if f & mask == mask:
            assert f & g == g


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_extension_monotone_and_antitone(data):
    key = data.draw(st.sampled_from(sorted(tb.ALL_TABLES)))
    alg = build(tb.ALL_TABLES[key])
    fam = all_filters(alg)
    f = data.draw(st.sampled_from(fam))
    x = data.draw(st.integers(min_value=0, max_value=alg.n - 1))
    y = data.draw(st.integers(min_value=0, max_value=alg.n - 1))
    ext = extend_filter(alg, f, x)
    assert ext & f == f
    # larger element, smaller extension
    if alg.leq(x, y):
        bigger = extend_filter(alg, f, y)
        assert bigger & ext == bigger
