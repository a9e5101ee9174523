from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from conftest import build, catalog5, mask_of, set_of
from gen import boolean, godel, luk
from reslat import PreconditionError
from reslat.search import mine
from reslat.spectrum import (
    cohull,
    dual_hull_topology,
    hull,
    hull_topology,
    is_compact,
    is_minimal_prime,
    is_prime,
    is_totally_disconnected,
    is_zero_dimensional,
    kernel_filter,
    maximal_filters,
    minimal_primes,
    prime_core,
    prime_filters,
    separate,
    topologies_equal,
)
from reslat.subsets import full_set, singleton


def test_a7_spectrum_frozen(a7):
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    f4 = mask_of(a7, "a", "b", "c", "d", "e", "1")
    assert prime_filters(a7) == (f3, f2, f4)
    assert maximal_filters(a7) == (f4,)
    assert minimal_primes(a7) == (f3, f2)


def test_trivial_filter_not_prime_with_witness(a7):
    assert is_prime(a7, mask_of(a7, "1")) is False
    # the witness: two elements below top whose join is top
    assert any(a7.join[x][y] == a7.top
               for x in range(a7.n) for y in range(a7.n)
               if x != a7.top and y != a7.top)
    assert is_prime(a7, mask_of(a7, "e", "1")) is True


def test_is_prime_preconditions(a7):
    with pytest.raises(PreconditionError):
        is_prime(a7, a7.universe)
    with pytest.raises(PreconditionError):
        is_prime(a7, mask_of(a7, "d", "1"))


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_spectrum_matches_oracle(key):
    alg = build(tb.ALL_TABLES[key])
    t = bf.make(*tb.ALL_TABLES[key])
    assert [set_of(alg, m) for m in prime_filters(alg)] == \
        sorted(map(frozenset, bf.primes(t)), key=lambda s: (len(s), sorted(s)))
    assert {set_of(alg, m) for m in maximal_filters(alg)} == set(map(frozenset, bf.maximal_filters(t)))
    assert {set_of(alg, m) for m in minimal_primes(alg)} == set(map(frozenset, bf.minimal_primes(t)))


def test_min_over_examples(a7):
    def minimal_primes_over(x_mask):
        ps = [p for p in prime_filters(a7) if p & x_mask == x_mask]
        return [p for p in ps if not any(q != p and q & p == q for q in ps)]

    f4 = mask_of(a7, "a", "b", "c", "d", "e", "1")
    assert minimal_primes_over(mask_of(a7, "c")) == [f4]
    # no proper prime contains bottom
    assert minimal_primes_over(a7.universe) == []


def test_separate_deterministic_tiebreak(a7):
    # both minimal primes avoid c; the one reachable through the
    # earliest absorbable element wins
    c = a7.names.index("c")
    f2 = mask_of(a7, "b", "d", "1")
    assert separate(a7, mask_of(a7, "1"), c) == f2
    assert separate(a7, mask_of(a7, "e", "1"), c) == mask_of(a7, "e", "1")


def test_separate_fixed_point_for_primes(a7):
    # a prime's complement is a lattice ideal, the down-set of its join
    for p in prime_filters(a7):
        comp = a7.universe & ~p
        assert separate(a7, p, a7.join_of(comp)) == p


def test_separate_preconditions(a7):
    with pytest.raises(PreconditionError):
        separate(a7, mask_of(a7, "e", "1"), a7.names.index("e"))
    with pytest.raises(PreconditionError):
        separate(a7, mask_of(a7, "0", "1"), a7.names.index("c"))


def test_minimality_routes(a7):
    f2 = mask_of(a7, "b", "d", "1")
    f4 = mask_of(a7, "a", "b", "c", "d", "e", "1")
    assert is_minimal_prime(a7, f2)
    assert not is_minimal_prime(a7, f4)


def test_prime_core_examples(a7):
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    f4 = mask_of(a7, "a", "b", "c", "d", "e", "1")
    assert prime_core(a7, f2) == f2
    assert prime_core(a7, f3) == f3
    assert prime_core(a7, f4) == mask_of(a7, "1")


def test_hull_cohull_kernel(a7):
    b = singleton(a7.names.index("b"))
    e = singleton(a7.names.index("e"))
    pts = minimal_primes(a7)
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    i2, i3 = pts.index(f2), pts.index(f3)
    assert hull(a7, b) == 1 << i2
    assert cohull(a7, b) == 1 << i3
    assert hull(a7, e) == 1 << i3
    assert hull(a7, singleton(0)) == 0
    assert hull(a7, singleton(a7.top)) == 0b11
    assert kernel_filter(a7, 0b11) == mask_of(a7, "1")
    assert kernel_filter(a7, 0) == a7.universe


def test_a7_topologies(a7):
    th = hull_topology(a7)
    td = dual_hull_topology(a7)
    assert len(th.points) == 2
    # two points, all four subsets open in both topologies
    assert th.opens == (0, 0b01, 0b10, 0b11)
    assert th.opens == td.opens
    assert topologies_equal(a7)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda key=key: build(tb.ALL_TABLES[key]), id=key)
     for key in sorted(tb.ALL_TABLES)]
    + [pytest.param(lambda i=i: catalog5()[i], id=f"catalog5-{i}") for i in range(37)]
    + [pytest.param(lambda: luk(20), id="luk20"), pytest.param(lambda: godel(20), id="godel20"),
       pytest.param(lambda: boolean(5), id="boolean5")])
def test_topologies_need_no_closure(make):
    """The element hulls are already closed under union and intersection
    and hold the empty set and the whole space: both topologies equal
    the fixpoint closure of the hulls."""
    alg = make()
    space = full_set(len(minimal_primes(alg)))
    closed = bf.union_meet_closure(space, (hull(alg, singleton(x)) for x in range(alg.n)))
    assert list(dual_hull_topology(alg).opens) == closed
    assert list(hull_topology(alg).opens) == \
        sorted((space & ~c for c in closed), key=lambda m: (m.bit_count(), m))


def test_topology_properties(bundled):
    for alg in bundled.values():
        th = hull_topology(alg)
        td = dual_hull_topology(alg)
        assert is_zero_dimensional(th)
        assert is_totally_disconnected(th)
        assert is_compact(th)
        assert is_compact(td)
        # the dual topology refines the hull topology
        assert set(th.opens) <= set(td.opens)


def test_minimal_prime_space_has_at_most_n_opens():
    """The minimal prime space is discrete and each of its open sets is
    the hull of an element, so its 2^k opens for k minimal primes number
    at most n: the topology statements never walk more sets than there
    are elements."""
    for alg in (*mine("true", 6).matches, boolean(6), luk(64)):
        opens = hull_topology(alg).opens
        assert len(opens) == 2 ** len(minimal_primes(alg)) <= alg.n, alg.names
