from __future__ import annotations

import pytest

import bruteforce as bf
import tables as tb
from conftest import build, catalog5, corrupted, mask_of
from reslat import PreconditionError, suite
from reslat.classify import MapReport
from reslat.subsets import singleton
from reslat.suite import registry_groups, registry_idents, verify_suite
from reslat.views import Congruence


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_every_statement_passes(key):
    alg = build(tb.ALL_TABLES[key])
    reports = verify_suite(alg)
    assert tuple(r.ident for r in reports) == registry_idents()
    failed = [r.ident for r in reports if not r.passed]
    assert failed == []


@pytest.mark.parametrize("key", sorted(tb.ALL_TABLES))
def test_passing_law_instances_yield_true(key):
    """On an algebra where every law holds, each instance a law generator
    yields is True, so ``ok or f"..."`` never builds its text; only the
    three arithmetic laws also yield positive counts of instances."""
    alg = build(tb.ALL_TABLES[key])
    laws = [(ident, check.__wrapped__) for ident, _, _, check in suite.REGISTRY
            if hasattr(check, "__wrapped__")]
    assert len(laws) == 37
    for ident, instances in laws:
        for item in instances(alg):
            assert item is True or (ident in ARITHMETIC and type(item) is int
                                    and item > 0), (ident, item)


def test_single_element_suite():
    alg = build((("u",), [["u"]], [["u"]], [["u"]], [["u"]], "u", "u"))
    assert all(r.passed for r in verify_suite(alg))


def test_registry_well_formed():
    idents = registry_idents()
    assert len(idents) == len(set(idents))
    assert len(idents) == 44
    assert registry_groups() == ("arithmetic", "filters", "spectrum",
                                 "coannihilators", "maps", "classification",
                                 "alpha", "topology")


def test_a7_equivalence_sides(a7):
    by_ident = {r.ident: r for r in verify_suite(a7)}
    disj = by_ident["disjunctive-equivalences"]
    assert disj.passed
    assert {v for _, v in disj.sides} == {False}
    qc = by_ident["quasicomplemented-equivalences"]
    assert {v for _, v in qc.sides} == {True}
    assert len(qc.sides) == 7
    flb = by_ident["boolean-filter-lattice-equivalence"]
    assert {v for _, v in flb.sides} == {False}
    implied = by_ident["disjunctive-implies-weakly"]
    assert implied.passed
    assert dict(implied.sides) == {"disjunctive": False,
                                   "weakly disjunctive": False}


def test_chain3n_filter_lattice_boolean_sides(chain3n):
    by_ident = {r.ident: r for r in verify_suite(chain3n)}
    flb = by_ident["boolean-filter-lattice-equivalence"]
    assert {v for _, v in flb.sides} == {True}
    lb = by_ident["boolean-element-lattice-equivalence"]
    assert {v for _, v in lb.sides} == {False}
    wdisj = by_ident["weakly-disjunctive-equivalences"]
    assert wdisj.passed and {v for _, v in wdisj.sides} == {True}


def test_law_witness_mentions_instance_count(chain2):
    by_ident = {r.ident: r for r in verify_suite(chain2)}
    principality = by_ident["finite-principality"]
    assert principality.passed
    assert "checked" in principality.witness


def test_selection_by_ident(a7):
    reports = verify_suite(a7, idents=("finite-principality",
                                       "coannihilator-galois"))
    assert tuple(r.ident for r in reports) == ("finite-principality",
                                               "coannihilator-galois")
    with pytest.raises(PreconditionError):
        verify_suite(a7, idents=("no-such-statement",))


def test_selection_by_group(a7):
    reports = verify_suite(a7, groups=("alpha",))
    assert reports
    assert all(r.ident.startswith(("alpha", "transfer", "prime-alpha"))
               for r in reports)
    with pytest.raises(PreconditionError):
        verify_suite(a7, groups=("no-such-group",))


def test_reports_deterministic(a7):
    assert verify_suite(a7) == verify_suite(a7)


def spoilt_map(name, field, change):
    """A spoiler of ``structure_maps``: the report of the map name with
    its field replaced by change of its value."""
    def spoil(alg, maps):
        m = maps[name]
        values = {f: getattr(m, f) for f in MapReport._fields}
        values[field] = change(values[field])
        return {**maps, name: MapReport(**values)}
    return spoil


def merged(alg, cong):
    """The partition with its last two classes merged into one."""
    *rest, x, y = cong.classes
    return Congruence((*rest, x + y))


@pytest.mark.parametrize("ident, name, at, spoil, witness", [
    ("filters-closure-system", "generated_filter",
     lambda a: (mask_of(a, "b"),), lambda a, f: f & ~singleton(a.top),
     "fails at generated filter of {b} is a filter"),
    ("finite-principality", "extend_filter",
     lambda a: (mask_of(a, "e", "1"), a.names.index("d")),
     lambda a, f: f ^ singleton(a.bottom),
     "fails at extension of {e, 1} by d vs its product"),
    ("coannihilator-galois", "coannihilator",
     lambda a: (mask_of(a, "b", "d"),), lambda a, f: f | singleton(a.bottom),
     "fails at antitone from {b} into {b, d}"),
    ("alpha-closure-laws", "alpha_closure",
     lambda a: (mask_of(a, "e", "1"),), lambda a, f: f | singleton(a.bottom),
     "fails at idempotent at {e, 1}"),
    ("filter-extension-law", "extend_filter",
     lambda a: (mask_of(a, "e", "1"), a.names.index("d")),
     lambda a, f: f ^ singleton(a.bottom),
     "fails at extension antitone at a <= d"),
    ("prime-separation", "separate",
     lambda a: (mask_of(a, "1"), a.names.index("d")),
     lambda a, f: mask_of(a, "b", "d", "1"),
     "fails at separating {1} from {0, a, b, c, d}"),
    ("prime-alpha-four-way", "alpha_separate",
     lambda a: (mask_of(a, "1"), a.names.index("d")),
     lambda a, f: mask_of(a, "b", "d", "1"),
     "fails at separation of {1} from {0, a, b, c, d} lands on a prime"),
    ("principal-filter-map", "structure_maps", lambda a: (),
     spoilt_map("element to principal filter", "images",
                lambda im: (im[1], im[0], *im[2:])),
     "fails at kernel quotient transports"),
    ("coannulet-map", "coannulet",
     lambda a: (a.names.index("b"),), lambda a, f: f ^ singleton(a.bottom),
     "fails at factors through the filter of d"),
    ("kernel-classes-at-bounds", "element_kernel_by_coannulet",
     lambda a: (), merged, "fails at class of 1 is alone"),
    ("filter-to-cohull-map", "cohull",
     lambda a: (mask_of(a, "b", "d", "1"),), lambda a, h: h ^ 1,
     "fails at join goes to union at ({e, 1}, {b, d, 1})"),
    ("generator-coannulet-map", "filter_kernel_spectral", lambda a: (), merged,
     "fails at kernels by cohull and by generator coannulet coincide"),
    ("point-translations", "structure_maps", lambda a: (),
     spoilt_map("cohull to hull", "injective", lambda v: False),
     "fails at cohull to hull translation is a bijection"),
    ("prime-pair-laws", "is_prime",
     lambda a: (mask_of(a, "e", "1"),), lambda a, v: not v,
     "fails at declared verdict at {e, 1}"),
    ("maximal-implies-prime", "is_prime",
     lambda a: (mask_of(a, "a", "b", "c", "d", "e", "1"),), lambda a, v: not v,
     "fails at {a, b, c, d, e, 1} prime"),
    ("primes-reach-bottom", "minimal_primes", lambda a: (),
     lambda a, mins: mins[:-1],
     "fails at {b, d, 1} contains a minimal prime"),
    ("minimal-prime-complement-law", "is_minimal_prime",
     lambda a: (mask_of(a, "a", "b", "c", "d", "e", "1"),), lambda a, v: not v,
     "fails at complement route at {a, b, c, d, e, 1}"),
    ("prime-core-properties", "prime_core",
     lambda a: (mask_of(a, "e", "1"),), lambda a, f: f ^ singleton(a.top),
     "fails at core of {e, 1} via its complement ideal"),
    ("coannulet-via-minimal-primes", "coannulet",
     lambda a: (a.names.index("b"),), lambda a, f: f ^ singleton(a.bottom),
     "fails at coannulet of b from the points"),
    ("coannihilator-pseudocomplement", "pseudocomplement_check",
     lambda a: (mask_of(a, "e", "1"),), lambda a, v: False,
     "fails at perp of {e, 1} is its pseudocomplement"),
    ("coannihilator-lattice-boolean", "double_coannihilator",
     lambda a: (mask_of(a, "b", "d", "e", "1"),), lambda a, f: f ^ singleton(a.bottom),
     "fails at coannulets form a bounded sublattice"),
    ("proper-coannihilators-avoid-dense", "proper_omega_no_dense_check",
     lambda a: (), lambda a, v: False,
     "fails at proper omega filters avoid dense elements"),
    ("nilpotents-and-center", "is_lattice_ideal",
     lambda a: (mask_of(a, "0"),), lambda a, v: False,
     "fails at nilpotents form an ideal"),
    ("dense-element-characterizations", "is_lattice_ideal",
     lambda a: (mask_of(a, "0", "a", "c"),), lambda a, v: False,
     "fails at dense elements form an ideal"),
])
def test_failing_law_describes_the_failing_instance(a7, monkeypatch, ident, name,
                                                     at, spoil, witness):
    """A law that fails reports the instance it failed at, named by that
    instance's loop values, in the text a passing instance would have
    had: the suite calls ``name`` with a result spoilt at one input."""
    real, bad = getattr(suite, name), at(a7)

    def broken(alg, *args):
        out = real(alg, *args)
        return spoil(alg, out) if args == bad else out

    monkeypatch.setattr(suite, name, broken)
    (report,) = verify_suite(a7, (ident,))
    assert (report.passed, report.sides) == (False, (("holds", False),))
    assert report.witness == witness


def test_separations_fail_when_nothing_is_separated(a7, monkeypatch):
    """Both separation statements check that the filter they grow is a
    prime; a separation that returns its input filter fails at the first
    filter that is not one, named with the down-set it avoids."""
    monkeypatch.setattr(suite, "separate", lambda alg, f, c: f)
    monkeypatch.setattr(suite, "alpha_separate", lambda alg, f, c: f)
    reports = verify_suite(a7, idents=("prime-separation", "prime-alpha-four-way"))
    assert [(r.passed, r.sides, r.witness) for r in reports] == [
        (False, (("holds", False),), "fails at separating {1} from {0}"),
        (False, (("holds", False),),
         "fails at separation of {1} from {0} lands on a prime"),
    ]


def test_omega_construction_states_distributivity(a7, monkeypatch):
    """The suite itself decides whether the omega filters form a
    distributive lattice, and names that instance when they do not."""
    monkeypatch.setattr(suite, "is_distributive", lambda view: False)
    (report,) = verify_suite(a7, idents=("omega-filter-construction",))
    assert (report.passed, report.sides) == (False, (("holds", False),))
    assert report.witness == \
        "fails at omega filters form a bounded distributive lattice"


@pytest.mark.parametrize("ident, witness", [
    ("filter-lattice-frame", "fails at meets distribute over every join of subfamilies"),
    ("alpha-frame-structure", "fails at family is a frame"),
])
def test_frames_state_distributivity(a7, monkeypatch, ident, witness):
    """Both frame statements ask the suite's own distributivity check of
    their lattice view, and name that instance when it fails."""
    monkeypatch.setattr(suite, "is_distributive", lambda view: False)
    (report,) = verify_suite(a7, idents=(ident,))
    assert (report.passed, report.sides) == (False, (("holds", False),))
    assert report.witness == witness


@pytest.mark.parametrize("ident, witness", [
    ("principal-filter-map", "fails at kernel quotient transports"),
    ("coannulet-map", "fails at kernel quotient transports"),
    ("generator-coannulet-map",
     "fails at kernels by cohull and by generator coannulet coincide"),
])
def test_map_kernels_state_transport(a7, monkeypatch, ident, witness):
    """The three statements that pass a map's kernel to the suite's own
    first isomorphism check, by keyword, name that instance when it
    fails."""
    monkeypatch.setattr(suite, "kernel_transports",
                        lambda view, images, target, dual: False)
    (report,) = verify_suite(a7, idents=(ident,))
    assert (report.passed, report.sides) == (False, (("holds", False),))
    assert report.witness == witness


# The arithmetic laws, each with its instance-by-instance oracle.
ARITHMETIC = {
    "residuation-basics": bf.residuation_basics,
    "product-join-distributivity": bf.product_join_distributivity,
    "power-join-bound": bf.power_join_bound,
}


def spoilt_cells(alg, shifts):
    """alg unchanged, then alg with one prod, impl or join cell moved on
    by each shift modulo n, for every cell, none of them validated."""
    yield alg
    for table in ("prod", "impl", "join"):
        for x in range(alg.n):
            for y in range(alg.n):
                for s in shifts:
                    v = (getattr(alg, table)[x][y] + s) % alg.n
                    yield corrupted(alg, table, ((x, y, v),))


@pytest.mark.parametrize("base", ["a7", 22, 23])
def test_arithmetic_rows_match_the_walk(a7, base):
    """Checked a row at a time, each arithmetic law passes or fails as
    the walk over every instance does, with the same first failure or
    instance count, whichever table cell is spoilt.  On the two catalog
    algebras every cell takes every other value: a row check missing
    any one of its tests then gets some verdict wrong, except the tests
    of x -> 1, y below x -> y, (x v y)^2 vs 1 v y^2 and x^2 v 1, which
    only two spoilt cells can single out."""
    if base == "a7":
        alg, shifts = a7, (1,)
    else:
        alg = catalog5()[base]
        shifts = range(1, alg.n)
    checks = {ident: check for ident, _, _, check in suite.REGISTRY}
    for spoilt in spoilt_cells(alg, shifts):
        for ident, oracle in ARITHMETIC.items():
            assert checks[ident](spoilt)[1:] == suite._law(oracle(spoilt))[1:], \
                (ident, spoilt)


@pytest.mark.parametrize("ident, table, cell, witness", [
    ("residuation-basics", "impl", ("c", "b", "1"),
     "fails at c * (c -> b)"),
    ("product-join-distributivity", "prod", ("b", "d", "0"),
     "fails at b * (a v d)"),
    ("power-join-bound", "join", ("a", "e", "0"),
     "fails at (c v e)^3 vs c^2 v e^1"),
])
def test_arithmetic_law_fails_at_a_spoilt_cell(a7, ident, table, cell, witness):
    """One spoilt table cell makes each arithmetic law fail, at the
    first instance that reads it: here c -> b, b * d and c^2 v e."""
    x, y, v = (a7.names.index(nm) for nm in cell)
    (report,) = verify_suite(corrupted(a7, table, ((x, y, v),)), (ident,))
    assert (report.passed, report.sides) == (False, (("holds", False),))
    assert report.witness == witness
