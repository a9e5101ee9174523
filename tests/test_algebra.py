from __future__ import annotations

import gc
import random
import re
import weakref

import pytest

import bruteforce as bf
import tables as tb
from conftest import build, catalog5, mask_of
from gen import boolean, godel, luk
from reslat import InvalidAlgebraError, PreconditionError, check_tables, validate
from reslat.algebra import derived
from reslat.alpha import alpha_lattice
from reslat.classify import classification
from reslat.coann import all_ideals, omega_family
from reslat.spectrum import is_prime
from reslat.suite import verify_suite
from reslat.views import view_filters


def test_a7_validates(a7):
    assert a7.n == 7
    assert a7.names == ("0", "a", "b", "c", "d", "e", "1")
    assert a7.bottom == 0 and a7.top == 6


def test_a7_order(a7):
    # diagram: 0 < a; a < b, c; b < d; c < d, e; d, e < 1
    assert a7.covers() == ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6))
    assert a7.leq(2, 4) and not a7.leq(2, 5)


def test_mutated_prod_entry_rejected_with_adjointness_witness():
    names, join, meet, prod, impl, bot, top = tb.A7
    ji, mi, pi, ii = tb.index_tables(names, join, meet, prod, impl)
    pm = [list(r) for r in pi]
    pm[2][5] = 2  # b*e changed from a to b
    with pytest.raises(InvalidAlgebraError) as exc:
        validate(names, ji, mi, pm, ii, 0, 6)
    laws = {v.law for v in exc.value.violations}
    assert "adjointness" in laws
    w = next(v for v in exc.value.violations if v.law == "adjointness")
    x, y, z = w.witness
    # the witness really does break the adjunction on the mutated table
    le = lambda u, v: mi[u][v] == u
    assert le(pm[x][y], z) != le(x, ii[y][z])


def test_all_violations_reported_not_just_first():
    names, join, meet, prod, impl, bot, top = tb.A7
    ji, mi, pi, ii = tb.index_tables(names, join, meet, prod, impl)
    pm = [list(r) for r in pi]
    pm[2][5] = 2
    with pytest.raises(InvalidAlgebraError) as exc:
        validate(names, ji, mi, pm, ii, 0, 6)
    assert len({v.law for v in exc.value.violations}) > 1


TRIPLE_LAWS = ("join-associative", "meet-associative", "prod-associative",
               "adjointness", "adjointness-commuted", "prod-join-distributive",
               "join-prod-superdistributive", "prod-monotone")


def corruptions(count, seed):
    """``count`` seeded copies of the catalog5 algebras, the 12-element
    Lukasiewicz chain, the 9-element Goedel chain and 2^3, each with one
    to three table entries set to another element (the one-element
    algebra has none and stays valid): (n, tables) with tables (join,
    meet, prod, impl, bottom, top)."""
    rnd = random.Random(seed)
    bases = [*catalog5(), luk(12), godel(9), boolean(3)]
    for _ in range(count):
        alg = rnd.choice(bases)
        tables = [[list(row) for row in t]
                  for t in (alg.join, alg.meet, alg.prod, alg.impl)]
        for _ in range(rnd.randint(1, 3)):
            row = rnd.choice(tables)[rnd.randrange(alg.n)]
            y = rnd.randrange(alg.n)
            row[y] = rnd.choice([v for v in range(alg.n) if v != row[y]] or [row[y]])
        yield alg.n, (*tables, alg.bottom, alg.top)


def test_check_tables_matches_oracle_on_corruptions():
    broken = set()
    invalid = 0
    for n, tables in corruptions(1200, seed=8):
        got = {}
        for v in check_tables([str(i) for i in range(n)], *tables):
            total = re.search(r" \((\d+) violations in total\)$", v.detail)
            got[v.law] = (v.witness, int(total.group(1)) if total else 1)
        assert got == bf.table_violations(n, *tables)
        broken |= got.keys()
        invalid += bool(got)
    assert set(TRIPLE_LAWS) <= broken
    assert invalid > 1000


def test_malformed_shape_raises_value_error():
    with pytest.raises(ValueError):
        validate(["0", "1"], [[0, 1]], [[0, 0], [0, 1]], [[0, 0], [0, 1]],
                 [[1, 1], [0, 1]], 0, 1)
    with pytest.raises(ValueError):
        validate(["0", "0"], [[0, 1], [1, 1]], [[0, 0], [0, 1]],
                 [[0, 0], [0, 1]], [[1, 1], [0, 1]], 0, 1)


def test_neg_against_table(a7):
    # neg is the implication into bottom
    assert a7.neg(a7.names.index("e")) == 0
    assert a7.neg(0) == a7.top
    assert a7.neg(a7.top) == 0


def test_power_convention_and_cycle(a7):
    c = a7.names.index("c")
    b = a7.names.index("b")
    assert a7.power(c, 0) == a7.top
    assert a7.power(c, 1) == c
    assert a7.power(c, 2) == a7.names.index("a")
    assert a7.power(b, 3) == b
    with pytest.raises(ValueError):
        a7.power(c, -1)


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_element_landscape_matches_oracle(key):
    alg = build(tb.ALL_TABLES[key])
    t = bf.make(*tb.ALL_TABLES[key])
    assert {i for i in range(alg.n) if alg.nilpotents >> i & 1} == bf.nilpotents(t)
    assert {i for i in range(alg.n) if alg.boolean_center >> i & 1} == bf.boolean_center(t)
    assert {i for i in range(alg.n) if alg.dense_elements >> i & 1} == bf.dense_elements(t)


def test_a7_landscape_frozen(a7):
    assert a7.nilpotents == mask_of(a7, "0")
    assert a7.boolean_center == mask_of(a7, "0", "1")
    assert a7.dense_elements == mask_of(a7, "0", "a", "c")


def test_bool4_center_is_whole_carrier(bool4):
    assert bool4.boolean_center == bool4.universe


def test_bottom_always_dense_top_never_for_nontrivial(bundled):
    for alg in bundled.values():
        assert alg.is_dense(alg.bottom)
        if alg.n >= 2:
            assert not alg.is_dense(alg.top)


def test_nilpotent_set_is_down_closed_and_join_closed(bundled):
    # the nilpotents always form a lattice ideal
    for alg in bundled.values():
        nil = alg.nilpotents
        for x in range(alg.n):
            if nil >> x & 1:
                assert alg.down[x] & ~nil == 0
                for y in range(alg.n):
                    if nil >> y & 1:
                        assert nil >> alg.join[x][y] & 1


def test_one_element_algebra_is_valid():
    alg = validate(["u"], [[0]], [[0]], [[0]], [[0]], 0, 0)
    assert alg.is_dense(0)
    assert alg.boolean_center == 1


def test_center_complement_is_the_negation(bundled):
    for alg in list(bundled.values()) + list(catalog5()):
        for e in range(alg.n):
            if alg.boolean_center >> e & 1:
                assert alg.complements_of(e) == (alg.neg(e),)


def test_derived_results_are_freed_with_the_algebra():
    alg = build(tb.A7)
    classification(alg)
    verify_suite(alg)
    view = alpha_lattice(alg)
    view_filters(view)
    refs = (weakref.ref(alg), weakref.ref(view))
    del alg, view
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_derived_memoises_results_and_not_errors(a7):
    assert omega_family(a7) is omega_family(a7)
    empty = 0  # not a filter, so neither prime nor an omega filter
    assert empty not in omega_family(a7)
    for _ in range(2):
        with pytest.raises(PreconditionError) as exc:
            is_prime(a7, empty)
        assert exc.value.__context__ is None
    assert is_prime.__name__ == "is_prime"
    assert is_prime.__doc__.startswith("Primality of a proper filter")
    assert all_ideals.__wrapped__(a7) == all_ideals(a7)


def test_derived_memoises_per_slot_by_arity():
    """A derived value's slot in vars(obj) is its function's dotted name.
    With no argument the slot holds the value, with one a dict keyed by
    it, with more a dict keyed by their tuple.  A call that raises
    leaves nothing behind and runs again."""
    calls = []

    def body(obj, *args):
        calls.append(args)
        if -1 in args:
            raise ValueError("refused")
        return [obj.n, *args]

    @derived
    def zero(obj):
        return body(obj)

    @derived
    def zero_fails(obj):
        return body(obj, -1)

    @derived
    def one(obj, x):
        return body(obj, x)

    @derived
    def two(obj, x, y):
        return body(obj, x, y)

    def slot(fn):
        return f"{fn.__module__}.{fn.__qualname__}"

    alg = build(tb.A7)
    value = zero(alg)
    assert zero(alg) is value and vars(alg)[slot(zero)] is value
    assert one(alg, 3) is one(alg, 3)
    assert two(alg, 3, 4) is two(alg, 3, 4)
    assert calls == [(), (3,), (3, 4)]
    for fn, bad in ((zero_fails, ()), (one, (-1,)), (two, (3, -1))):
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                fn(alg, *bad)
            assert exc.value.__context__ is None
    assert calls[3:] == [(-1,)] * 4 + [(3, -1)] * 2
    assert slot(zero_fails) not in vars(alg)
    assert vars(alg)[slot(one)] == {3: [7, 3]}
    assert vars(alg)[slot(two)] == {(3, 4): [7, 3, 4]}
    assert [f.__wrapped__.__name__ for f in (zero, one, two)] == ["zero", "one", "two"]

