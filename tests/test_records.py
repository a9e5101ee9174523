"""Behaviour of the package's immutable records.

Equal records compare and hash alike, no field can be reassigned or
deleted, and the per-instance memo (``algebra.derived`` and
``cached_property``) keeps each value it computed.
"""

from __future__ import annotations

import pytest

import tables as tb
from conftest import build
from reslat import validate
from reslat.filters import FilterFamily, all_filters
from reslat.search import ZERO_STATS, SearchStats
from reslat.spectrum import PrimeWitness, is_prime
from reslat.subsets import singleton
from reslat.views import view_filters, view_from_tables


def _fields(alg):
    return (alg.names, alg.join, alg.meet, alg.prod, alg.impl, alg.bottom, alg.top)


def _chain_view(name):
    # The 3-chain 0 < 1 < 2 as a view over string keys.
    join = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
    meet = ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    return view_from_tables(name, ("lo", "mid", "hi"), join, meet)


def test_equal_algebras_compare_and_hash_alike(a7, chain3):
    twin = validate(*_fields(a7))
    assert twin is not a7
    assert twin == a7 and not twin != a7
    assert hash(twin) == hash(a7)
    assert len({a7, twin, chain3}) == 2
    assert a7 != chain3
    assert a7 != _fields(a7)


def test_memo_does_not_enter_equality(a7):
    fresh = validate(*_fields(a7))
    all_filters(fresh)
    fresh.coannulets
    assert fresh == a7 and hash(fresh) == hash(a7)


def test_equal_views_compare_and_hash_alike():
    v, w = _chain_view("c3"), _chain_view("c3")
    assert v is not w
    assert v == w and hash(v) == hash(w)
    assert v != _chain_view("other")
    assert len({v, w, _chain_view("other")}) == 2


@pytest.mark.parametrize("make, field", [
    (lambda: build(tb.A7), "top"),
    (lambda: _chain_view("c3"), "name"),
    (lambda: FilterFamily((1, 3), "T"), "members"),
    (lambda: PrimeWitness(3, None), "failure"),
    (lambda: SearchStats(1, 2, 3, 4, 5), "found"),
], ids=["algebra", "view", "family", "witness", "stats"])
def test_fields_cannot_be_reassigned(make, field):
    rec = make()
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, 0)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    assert getattr(rec, field) == before


def test_search_stats_add():
    a = SearchStats(1, 2, 3, 4, 5)
    b = SearchStats(10, 20, 30, 40, 50)
    assert a + b == SearchStats(11, 22, 33, 44, 55)
    assert ZERO_STATS + a == a == a + ZERO_STATS
    assert (a.examined, a.pruned, a.found, a.emitted, a.iso_rejected) == (1, 2, 3, 4, 5)


def test_prime_witness_truth(bool4):
    assert PrimeWitness(3, None)
    assert not PrimeWitness(3, (1, 2))
    # In the four-element Boolean algebra the filter {top} is not prime:
    # the two atoms join to top and neither is in it.
    w = is_prime(bool4, singleton(bool4.top))
    assert not w and w.failure is not None
    x, y = w.failure
    assert bool4.join[x][y] == bool4.top
    assert is_prime(bool4, bool4.up[x]).failure is None


def test_filter_family_iterates_as_its_members(a7):
    fam = FilterFamily((1, 3, 7), "T")
    assert list(fam) == [1, 3, 7]
    assert len(fam) == 3
    assert 3 in fam and 2 not in fam
    assert fam.index(7) == 2
    assert fam == FilterFamily((1, 3, 7), "T") != FilterFamily((1, 3, 7), "U")
    fams = all_filters(a7)
    assert tuple(fams) == fams.members and len(fams) == len(fams.members)


def test_derived_and_cached_property_memoise():
    alg = build(tb.A7)
    assert "_derived" not in vars(alg) and "coannulets" not in vars(alg)
    fams = all_filters(alg)
    assert all_filters(alg) is fams
    assert "_derived" in vars(alg)
    co = alg.coannulets
    assert alg.coannulets is co and vars(alg)["coannulets"] is co

    view = _chain_view("c3")
    ups = view_filters(view)
    assert view_filters(view) is ups
    assert ups == (0b100, 0b110, 0b111)
