from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
import tables as tb
from conftest import build
from reslat import PreconditionError
from reslat.algebra import check_tables, validate
from reslat.classify import classification, disjunctive
from reslat.search import (
    ATOMS,
    MAX_CARRIER,
    LatticeSkeleton,
    _MEMBERS,
    _Fill,
    _interval,
    _symmetries,
    _walk,
    enumerate_lattices,
    enumerate_residuated,
    mine,
    names_for,
    parse_predicate,
)


def test_lattice_counts_frozen():
    assert [len(enumerate_lattices(n)) for n in range(1, 7)] == [1, 1, 1, 2, 5, 15]


def test_seven_element_lattice_count():
    # the documented count of bounded lattices on seven elements
    assert len(enumerate_lattices(7)) == 53


def test_eight_element_lattice_count():
    # OEIS A006966: bounded lattices on eight elements
    assert len(enumerate_lattices(8)) == 222


# sha256 of repr([(n, join, meet), ...]) over enumerate_lattices(n): the
# skeletons, their order and every table of them.  The CI step "Search
# through carrier 8" pins n = 8 the same way.
SKELETON_DIGESTS = {
    1: "aa63ef21015e823f672d8fceaef3ea7e86f0e9ed077991e1cae016b81ef8a08d",
    2: "0fa450d8c17b75df753dd39f95dd25a2908d8ebc09a7e94f4c941645328b6562",
    3: "a5c2456adc49dcc55069f0d15213ef1276a282e0649d01cc376cf72aee03524c",
    4: "d088ca33b89bfca50bea03066e0797607ccdc077e80a7977d87d7dfe42839717",
    5: "c22c132587fef7522f5b5b7e47ec1fe6fa3bf0f6928cd6a8f7a593e3065685ff",
    6: "cb6f62715aa8b6a453016459a9586d477f663ecb52f921dce9143703fe87afe0",
    7: "e928d4189c2348be4cfcceed77bd8709c539142df426c144e0ad1a8be68aea4c",
}


@pytest.mark.parametrize("n", sorted(SKELETON_DIGESTS))
def test_skeleton_digest_frozen(n):
    rows = [(sk.n, sk.join, sk.meet) for sk in enumerate_lattices(n)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SKELETON_DIGESTS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_natural_labelling_matches_three_way_orders(n):
    ours = [(sk.join, sk.meet) for sk in enumerate_lattices(n)]
    assert ours == bf.three_way_lattices(n)


def test_carrier_bounds():
    with pytest.raises(PreconditionError):
        enumerate_lattices(0)
    with pytest.raises(PreconditionError):
        enumerate_lattices(9)


@pytest.mark.parametrize("n,expected_total,expected_multiset", [
    (2, 1, (1,)),
    (3, 2, (2,)),
    (4, 7, (1, 6)),
    (5, 26, (0, 0, 1, 3, 22)),
    (6, 129, (0,) * 8 + (1, 2, 3, 4, 12, 13, 94)),
    (7, 723, (0,) * 35 + (1, 1, 1, 2, 2, 2, 3, 4, 5, 9, 11, 12, 24, 27, 53,
                          55, 60, 451)),
])
def test_residuated_counts_frozen(n, expected_total, expected_multiset):
    per = sorted(len(enumerate_residuated(sk)[0]) for sk in enumerate_lattices(n))
    assert tuple(per) == expected_multiset
    assert sum(per) == expected_total


# (lattices, (examined, pruned, found, emitted, iso_rejected)) per
# carrier size: any change to the walk's tree or its pruning shows here.
@pytest.mark.parametrize("n,lattices,counts", [
    (1, 1, (1, 0, 1, 1, 0)),
    (2, 1, (1, 0, 1, 1, 0)),
    (3, 1, (2, 0, 2, 2, 0)),
    (4, 2, (7, 7, 7, 7, 0)),
    (5, 5, (27, 127, 27, 26, 1)),
    (6, 15, (142, 1854, 142, 129, 13)),
    (7, 53, (839, 29748, 839, 723, 116)),
])
def test_walk_counters_frozen(n, lattices, counts):
    res = mine("true", n, n_min=n)
    s = res.stats
    assert res.lattices == lattices
    assert (s.examined, s.pruned, s.found, s.emitted, s.iso_rejected) == counts
    # The search builds its algebras without validation: every emitted
    # one must pass check_tables and carry the order validate derives.
    for alg in res.matches:
        fields = (alg.names, alg.join, alg.meet, alg.prod, alg.impl,
                  alg.bottom, alg.top)
        assert check_tables(*fields) == []
        assert validate(*fields) == alg


def _pairwise_clash(skel, cells, vals, i, v):
    """Does v at cells[i] break monotonicity against some earlier cell,
    under either pairing of the arguments?"""
    x, y = cells[i]
    for (a, b), w in zip(cells[:i], vals):
        below = (skel.leq(a, x) and skel.leq(b, y)) or \
            (skel.leq(a, y) and skel.leq(b, x))
        above = (skel.leq(x, a) and skel.leq(y, b)) or \
            (skel.leq(x, b) and skel.leq(y, a))
        if (below and not skel.leq(w, v)) or (above and not skel.leq(v, w)):
            return True
    return False


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_interval_prune_matches_pairwise_scan(data):
    n = data.draw(st.integers(2, 6))
    skel = data.draw(st.sampled_from(enumerate_lattices(n)))
    fill = _Fill(skel)
    i = data.draw(st.integers(0, len(fill.cells) - 1))
    vals = data.draw(st.lists(st.integers(0, n - 1), min_size=i, max_size=i))
    lo, hi = _interval(fill, i, vals)
    x, y = fill.cells[i]
    candidates = [v for v in range(n) if skel.leq(v, skel.meet[x][y])]
    fitting = tuple(v for v in candidates
                    if not _pairwise_clash(skel, fill.cells, vals, i, v))
    for v in candidates:
        assert (skel.leq(lo, v) and skel.leq(v, hi)) == (v in fitting)
    # The values the walk tries at cell i, in the order it tries them.
    assert _MEMBERS[fill.up[lo] & fill.down[hi]] == fitting


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counts_match_oracle(n):
    rels = bf.bounded_lattices(n)
    assert len(rels) == len(enumerate_lattices(n))
    oracle_counts = []
    for rel in rels:
        join, meet = bf.rel_to_tables(rel, n)
        prods = bf.residuated_products(join, meet, n, bounded=True)
        oracle_counts.append(bf.count_up_to_iso(join, meet, prods, n))
    ours = [len(enumerate_residuated(sk)[0]) for sk in enumerate_lattices(n)]
    assert Counter(oracle_counts) == Counter(ours)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_tables_match_oracle(n):
    # The walk's row checks must accept exactly the residuated,
    # associative tables, before the isomorphism pass.
    for sk in enumerate_lattices(n):
        tables = []
        _walk(_Fill(sk), tables)
        assert sorted(tables) == sorted(
            bf.residuated_products(sk.join, sk.meet, n))


def test_two_element_count_is_one():
    skels = enumerate_lattices(2)
    assert len(skels) == 1
    algs, stats = enumerate_residuated(skels[0])
    assert len(algs) == 1
    assert (stats.found, stats.emitted, stats.iso_rejected) == (1, 1, 0)


def test_stats_balance():
    for n in (2, 3, 4, 5):
        for sk in enumerate_lattices(n):
            _, stats = enumerate_residuated(sk)
            assert stats.found == stats.emitted + stats.iso_rejected


def test_emitted_algebras_are_canonical_and_distinct():
    seen = set()
    for sk in enumerate_lattices(5):
        for alg in enumerate_residuated(sk)[0]:
            form = bf.canonical_form(alg)
            assert form not in seen
            seen.add(form)
    assert len(seen) == 26


def _automorphisms(sk):
    """The identity and the permutations of the non-identity symmetries."""
    return [tuple(range(sk.n))] + [p for p, _, _ in _symmetries(sk)]


def test_diamond_automorphisms():
    diamond = next(sk for sk in enumerate_lattices(4) if sk.join[1][2] == 3)
    assert len(_automorphisms(diamond)) == 2
    chain = next(sk for sk in enumerate_lattices(4) if sk.join[1][2] != 3)
    assert _automorphisms(chain) == [(0, 1, 2, 3)]
    for n in range(1, 7):
        for sk in enumerate_lattices(n):
            assert sorted(_automorphisms(sk)) == \
                sorted(bf.automorphisms(sk.join, sk.meet, n))


def test_names_for():
    assert names_for(1) == ("1",)
    assert names_for(2) == ("0", "1")
    assert names_for(7) == ("0", "a", "b", "c", "d", "e", "1")
    with pytest.raises(PreconditionError):
        names_for(9)


def test_names_for_every_carrier_size():
    # Raising MAX_CARRIER without more middle names must fail here.
    for n in range(1, MAX_CARRIER + 1):
        names = names_for(n)
        assert len(names) == len(set(names)) == n


def test_search_parameter_validation():
    with pytest.raises(PreconditionError):
        mine("true", 9)
    with pytest.raises(PreconditionError):
        mine("true", 3, n_min=4)
    with pytest.raises(PreconditionError):
        mine("true", 3, n_min=0)


def test_canonical_form_ignores_labeling(a7):
    names, join, meet, prod, impl, bot, top = tb.A7
    shuffled = ["0", "d", "b", "e", "a", "c", "1"]
    rename = dict(zip(names, shuffled))
    remap = lambda m: [[rename[v] for v in row] for row in m]
    other = build((shuffled, remap(join), remap(meet), remap(prod), remap(impl),
                   "0", "1"))
    assert other.names != a7.names
    assert bf.canonical_form(other) == bf.canonical_form(a7)


def test_canonical_form_separates_structures(chain3, chain3n):
    assert bf.canonical_form(chain3) != bf.canonical_form(chain3n)


def test_predicate_parser_semantics(a7, bool4):
    assert parse_predicate("not weakly_disjunctive")(a7)
    assert not parse_predicate("not weakly_disjunctive")(bool4)
    assert parse_predicate("quasicomplemented and not disjunctive")(a7)
    assert parse_predicate("lattice_boolean or filter_lattice_boolean")(bool4)
    # "and" binds tighter than "or"
    assert not parse_predicate("false and true or false")(a7)
    assert parse_predicate("true or true and false")(a7)
    assert not parse_predicate("(true or true) and false")(a7)
    assert parse_predicate("not (true and false)")(a7)
    assert not parse_predicate("not true and false")(a7)


@pytest.fixture(scope="module")
def classified6():
    algebras = mine("true", 6).matches
    return algebras, [classification(alg) for alg in algebras]


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("atom", sorted(ATOMS))
def test_atom_matches_the_classification(classified6, atom, negate):
    # "true" and "false" are no verdicts of the classification, so the
    # getattr default gives their constant value.
    algebras, verdicts = classified6
    want = tuple(alg for alg, res in zip(algebras, verdicts)
                 if getattr(res, atom, atom == "true") != negate)
    src = f"not {atom}" if negate else atom
    assert mine(src, 6).matches == want


def test_predicate_computes_only_the_verdicts_it_reads():
    # A derived value's slot in vars(alg) is its function's dotted name.
    alg = build(tb.A7)
    assert parse_predicate("true")(alg)
    assert not [key for key in vars(alg) if "." in key]
    # a7 is not disjunctive, so "and" never reads the second atom.
    assert not parse_predicate("disjunctive and weakly_disjunctive")(alg)
    slot = f"{disjunctive.__module__}.{disjunctive.__qualname__}"
    assert [key for key in vars(alg) if "." in key] == [slot]
    assert vars(alg)[slot] is False


def test_predicate_reads_a_classification_result(a7, bool4):
    # bench/tracer.py hands the predicate classification(alg).
    for alg in (a7, bool4):
        for atom in ATOMS:
            for src in (atom, f"not {atom}"):
                pred = parse_predicate(src)
                assert pred(classification(alg)) == pred(alg)


def test_predicate_parser_errors():
    for bad in ("", "nope", "true and", "(true", "true )", "true false",
                "quasi-complemented", "()", "(true)(false)", "not ()",
                "false and ()", "true not not", "(true not not)",
                "true if false else true"):
        with pytest.raises(PreconditionError):
            parse_predicate(bad)


def test_predicate_parser_matches_python_on_random_tokens(a7, bool4):
    """parse_predicate accepts exactly the token strings that Python
    reads as a formula over the atoms, and agrees with it on their
    values on a7 and bool4."""
    algebras = (a7, bool4)
    verdicts = [{name: ATOMS[name](alg) for name in ATOMS} for alg in algebras]
    alphabet = sorted(ATOMS) + ["and", "or", "not", "(", ")", "nope"]
    rng = random.Random(1904)
    accepted = 0
    for _ in range(3000):
        tokens = rng.choices(alphabet, k=rng.randint(1, 12))
        src = " ".join(tokens)
        want = [bf.predicate_value(tokens, v) for v in verdicts]
        try:
            pred = parse_predicate(src)
        except PreconditionError:
            assert want == [None, None], src
            continue
        assert [pred(alg) for alg in algebras] == want, src
        accepted += 1
    assert accepted >= 100


@pytest.mark.parametrize("src, value", [
    (" and ".join(["true"] * 1000), True),
    (" and ".join(["true"] * 19999 + ["false"]), False),
    (" or ".join(["false"] * 19999 + ["quasicomplemented"]), True),
    ("not " * 3000 + "false", False),
    ("not " * 20000 + "true", True),
    ("not " * 20001 + "true", False),
    ("(" * 200 + "true" + ")" * 200, True),
    ("not ( true and " * 150 + "true" + " )" * 150, True),
], ids=["and-1000", "and-20000", "or-20000", "not-3000", "not-20000",
        "not-20001", "parentheses-200", "not-and-150"])
def test_long_predicates_compile(a7, src, value):
    assert parse_predicate(src)(a7) is value


@pytest.mark.parametrize("depth", [201, 2000])
def test_deep_parentheses_are_refused(depth):
    # PreconditionError, never RecursionError or MemoryError.
    with pytest.raises(PreconditionError):
        parse_predicate("(" * depth + "true" + ")" * depth)


@pytest.mark.parametrize("level", [
    "not not ( false or true and not not ", "( false or true and ",
    "( true and not "])
def test_nesting_is_compiled_or_refused_at_every_depth(a7, level):
    # Python's parser gives up below 200 parentheses when each level
    # holds operators; that, too, is a PreconditionError.
    for depth in range(1, 202):
        src = level * depth + "true" + " )" * depth
        try:
            pred = parse_predicate(src)
        except PreconditionError:
            continue
        assert pred(a7) in (True, False), depth


def test_mine_finds_the_godel_chain():
    res = mine("not weakly_disjunctive", 3)
    assert len(res.matches) == 1
    alg = res.matches[0]
    assert not classification(alg).weakly_disjunctive
    godel = build(tb.CHAIN3)
    assert bf.canonical_form(alg) == bf.canonical_form(godel)


def test_mine_boolean_lattices():
    res = mine("lattice_boolean", 4)
    assert [a.n for a in res.matches] == [1, 2, 4]
    assert res.lattices == 1 + 1 + 1 + 2


def test_mine_is_deterministic():
    a = mine("not disjunctive and weakly_disjunctive", 4)
    b = mine("not disjunctive and weakly_disjunctive", 4)
    assert a == b
    for alg in a.matches:
        res = classification(alg)
        assert res.weakly_disjunctive and not res.disjunctive
