from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from conftest import build, mask_of, set_of
from reslat import PreconditionError
from reslat.alpha import (
    alpha_closure,
    alpha_extend,
    alpha_family,
    alpha_join,
    alpha_lattice,
    alpha_separate,
    heyting_implication,
    is_alpha_filter,
    is_prime_alpha,
    perp_image,
    perp_preimage,
    prime_alpha_filters,
    transfer_roundtrip_check,
)
from reslat.coann import coannulet_lattice
from reslat.filters import all_filters
from reslat.views import is_boolean, view_filters


def test_a7_alpha_verdicts(a7):
    assert is_alpha_filter(a7, mask_of(a7, "b", "d", "1"))
    assert is_alpha_filter(a7, mask_of(a7, "e", "1"))
    assert not is_alpha_filter(a7, mask_of(a7, "a", "b", "c", "d", "e", "1"))
    assert is_alpha_filter(a7, mask_of(a7, "1"))
    assert is_alpha_filter(a7, a7.universe)
    with pytest.raises(PreconditionError):
        is_alpha_filter(a7, mask_of(a7, "d", "1"))


def test_a7_alpha_family_frozen(a7):
    assert alpha_family(a7) == (
        mask_of(a7, "1"), mask_of(a7, "e", "1"),
        mask_of(a7, "b", "d", "1"), a7.universe)


def test_a7_closure_examples(a7):
    assert alpha_closure(a7, mask_of(a7, "d")) == mask_of(a7, "b", "d", "1")
    assert alpha_closure(a7, mask_of(a7, "0")) == a7.universe
    assert alpha_closure(a7, 0) == mask_of(a7, "1")
    assert alpha_closure(a7, mask_of(a7, "a", "b", "c", "d", "e", "1")) == a7.universe


def test_a7_extension_examples(a7):
    f1 = mask_of(a7, "1")
    assert alpha_extend(a7, f1, a7.names.index("b")) == mask_of(a7, "b", "d", "1")
    assert alpha_extend(a7, f1, a7.names.index("e")) == mask_of(a7, "e", "1")
    assert alpha_extend(a7, f1, a7.names.index("0")) == a7.universe
    with pytest.raises(PreconditionError):
        alpha_extend(a7, mask_of(a7, "b"), 0)


def test_a7_heyting_examples(a7):
    f1 = mask_of(a7, "1")
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    assert heyting_implication(a7, f2, f1) == f3
    assert heyting_implication(a7, f3, f1) == f2
    assert heyting_implication(a7, f1, f1) == a7.universe
    assert heyting_implication(a7, a7.universe, f2) == f2
    with pytest.raises(PreconditionError):
        heyting_implication(a7, mask_of(a7, "a", "b", "c", "d", "e", "1"), f1)


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_alpha_family_matches_oracle(key):
    alg = build(tb.ALL_TABLES[key])
    t = bf.make(*tb.ALL_TABLES[key])
    assert [set_of(alg, m) for m in alpha_family(alg)] == \
        sorted(map(frozenset, bf.alpha_filters(t)), key=lambda s: (len(s), sorted(s)))
    for f in all_filters(alg):
        assert is_alpha_filter(alg, f) == bf.is_alpha(t, set_of(alg, f))


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_heyting_adjunction_everywhere(key):
    alg = build(tb.ALL_TABLES[key])
    fam = alpha_family(alg)
    for f in fam:
        for g in fam:
            h = heyting_implication(alg, f, g)
            for cand in fam:
                assert (cand & ~h == 0) == (f & cand & ~g == 0)


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_closure_laws_everywhere(key):
    alg = build(tb.ALL_TABLES[key])
    for mask in range(alg.universe + 1):
        c = alpha_closure(alg, mask)
        assert mask & ~c == 0
        assert alpha_closure(alg, c) == c
        for other in (0, mask >> 1):
            if other | mask == mask:
                assert alpha_closure(alg, other) & ~c == 0
    fam = alpha_family(alg)
    for f in fam:
        for g in fam:
            assert alpha_closure(alg, f & g) == f & g
            assert alpha_join(alg, f, g) in fam


def test_a7_alpha_lattice_boolean(a7):
    view = alpha_lattice(a7)
    assert view.keys == alpha_family(a7)
    assert is_boolean(view)
    assert view.n == 4


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_transfer_maps(key):
    alg = build(tb.ALL_TABLES[key])
    assert transfer_roundtrip_check(alg)
    assert len(view_filters(coannulet_lattice(alg))) == len(alpha_family(alg))


def test_a7_transfer_examples(a7):
    view = coannulet_lattice(a7)
    f2 = mask_of(a7, "b", "d", "1")
    img = perp_image(a7, f2)
    expected = 1 << view.index(mask_of(a7, "e", "1")) | 1 << view.index(a7.universe)
    assert img == expected
    assert perp_preimage(a7, img) == f2
    with pytest.raises(PreconditionError):
        perp_image(a7, mask_of(a7, "a", "b", "c", "d", "e", "1"))
    with pytest.raises(PreconditionError):
        perp_preimage(a7, 1 << view.index(mask_of(a7, "1")))


def test_a7_prime_alpha(a7):
    f2 = mask_of(a7, "b", "d", "1")
    f3 = mask_of(a7, "e", "1")
    assert prime_alpha_filters(a7) == (f3, f2)
    assert is_prime_alpha(a7, f2)
    assert not is_prime_alpha(a7, mask_of(a7, "1"))
    assert not is_prime_alpha(a7, a7.universe)
    with pytest.raises(PreconditionError):
        is_prime_alpha(a7, mask_of(a7, "a", "b", "c", "d", "e", "1"))


def test_a7_alpha_separation(a7):
    f1 = mask_of(a7, "1")
    a, c, d = (a7.names.index(x) for x in "acd")
    assert alpha_separate(a7, f1, c) == mask_of(a7, "b", "d", "1")
    assert alpha_separate(a7, f1, a) == mask_of(a7, "b", "d", "1")
    # avoiding d is avoiding every join-closed set whose join is d, as {b, d}
    assert alpha_separate(a7, f1, d) == mask_of(a7, "e", "1")
    with pytest.raises(PreconditionError):
        alpha_separate(a7, mask_of(a7, "e", "1"), a7.names.index("e"))
    with pytest.raises(PreconditionError):
        alpha_separate(a7, mask_of(a7, "0", "1"), c)


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_every_alpha_filter_meets_its_primes(key):
    alg = build(tb.ALL_TABLES[key])
    primes = prime_alpha_filters(alg)
    for f in alpha_family(alg):
        if f == alg.universe:
            continue
        above = alg.universe
        for p in primes:
            if f & ~p == 0:
                above &= p
        assert above == f


def test_chain3_alpha_landscape(chain3, chain3n):
    assert alpha_family(chain3) == (mask_of(chain3, "1"), chain3.universe)
    assert not is_alpha_filter(chain3, mask_of(chain3, "m", "1"))
    assert alpha_family(chain3n) == (mask_of(chain3n, "1"), chain3n.universe)
    assert set(all_filters(chain3n)) == {mask_of(chain3n, "1"), chain3n.universe}
