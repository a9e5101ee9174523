"""Behaviour of the package's immutable records.

Each record class declares its fields once, as annotations, and the
one constructor takes them by position or by name.  Equal records
compare and hash alike, no field can be reassigned or deleted, and the
per-instance memo (``algebra.derived`` and ``cached_property``) keeps
each value it computed.
"""

from __future__ import annotations

import pytest

import tables as tb
from conftest import build
from reslat import validate
from reslat.algebra import AxiomViolation, ResiduatedLattice
from reslat.classify import ClassificationResult, MapReport
from reslat.filters import all_filters
from reslat.io import DocumentCheck, NamedAlgebra
from reslat.search import ZERO_STATS, LatticeSkeleton, MineResult, SearchStats
from reslat.spectrum import Topology
from reslat.suite import TheoremReport
from reslat.views import Congruence, LatticeView, view_filters, view_from_tables

# Field order feeds repr, equality and hashing, so it is pinned here.
FIELDS = {
    AxiomViolation: ("law", "witness", "detail"),
    ResiduatedLattice: ("names", "join", "meet", "prod", "impl", "bottom",
                        "top", "up", "down"),
    MapReport: ("name", "kind", "injective", "surjective", "images"),
    ClassificationResult: ("quasicomplemented", "disjunctive",
                           "weakly_disjunctive", "lattice_boolean",
                           "filter_lattice_boolean", "routes"),
    NamedAlgebra: ("label", "algebra"),
    DocumentCheck: ("label", "algebra", "violations"),
    LatticeSkeleton: ("n", "join", "meet"),
    SearchStats: ("examined", "pruned", "found", "emitted", "iso_rejected"),
    MineResult: ("matches", "lattices", "stats"),
    Topology: ("points", "opens"),
    TheoremReport: ("ident", "statement", "sides", "passed", "witness"),
    LatticeView: ("name", "keys", "join", "meet", "bottom", "top"),
    Congruence: ("classes",),
}


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
    (lambda: SearchStats(1, 2, 3, 4, 5), "found"),
], ids=["algebra", "view", "stats"])
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


def test_derived_and_cached_property_memoise():
    alg = build(tb.A7)
    slot = "reslat.filters.all_filters"
    assert slot not in vars(alg) and "coannulets" not in vars(alg)
    fams = all_filters(alg)
    assert all_filters(alg) is fams
    assert vars(alg)[slot] is fams
    co = alg.coannulets
    assert alg.coannulets is co and vars(alg)["coannulets"] is co

    view = _chain_view("c3")
    ups = view_filters(view)
    assert view_filters(view) is ups
    assert ups == (0b100, 0b110, 0b111)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_are_declared_in_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    values = [f"v{i}" for i in range(len(cls._fields))]
    by_position = cls(*values)
    by_name = cls(**dict(zip(cls._fields, values)))
    mixed = cls(values[0], **dict(zip(cls._fields[1:], values[1:])))
    assert by_position == by_name == mixed
    assert hash(by_position) == hash(by_name)
    assert repr(by_position) == repr(by_name)
    assert tuple(getattr(by_name, f) for f in cls._fields) == tuple(values)


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 2, 3, 4, 5, 6), {}, "takes 5 fields, 6 given"),
    ((1, 2, 3, 4), {}, "missing fields: iso_rejected"),
    ((1, 2, 3), {"emitted": 4}, "missing fields: iso_rejected"),
    ((1, 2, 3, 4, 5), {"extra": 6}, "no field 'extra'"),
    ((1, 2, 3, 4), {"examined": 5}, "field 'examined' twice"),
])
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        SearchStats(*args, **kwargs)
