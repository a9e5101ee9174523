"""A battery of verifiable statements about finite residuated lattices.

Every entry states one fact the theory promises, checks it exhaustively
on a concrete algebra, and reports the labeled verdicts of each
characterization it compares.  Equivalence entries pass when all their
sides agree (whether all true or all false on this algebra); law
entries pass when the law holds at every instance.  A failing entry
carries a concrete witness.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice
from .alpha import (
    alpha_closure,
    alpha_extend,
    alpha_family,
    alpha_lattice,
    alpha_separate,
    heyting_implication,
    is_alpha_filter,
    is_prime_alpha,
    prime_alpha_filters,
    transfer_roundtrip_check,
)
from .classify import (
    classification,
    cohull_lattice,
    element_kernel_by_coannulet,
    element_lattice,
    filter_kernel_spectral,
    filter_lattice,
    hull_lattice,
    structure_maps,
)
from .coann import (
    all_ideals,
    coannihilator,
    coannihilator_family,
    coannihilator_lattice,
    coannulet,
    coannulet_family,
    coannulet_lattice,
    double_coannihilator,
    is_lattice_ideal,
    omega_family,
    omega_filter,
    omega_filter_lattice,
    proper_omega_no_dense_check,
    pseudocomplement_check,
)
from .errors import PreconditionError
from .filters import (
    all_filters,
    extend_filter,
    filter_join,
    frame_check,
    generated_filter,
    is_filter,
    principal_filter,
    principal_generator,
    proper_filters,
)
from .record import Record, setfield
from .spectrum import (
    cohull,
    dual_hull_topology,
    hull,
    hull_topology,
    is_compact,
    is_minimal_prime,
    is_prime,
    is_totally_disconnected,
    is_zero_dimensional,
    join_closed_sets,
    kernel_filter,
    maximal_filters,
    minimal_primes,
    prime_core,
    prime_filters,
    separate,
    topologies_equal,
)
from .subsets import contains, elements, full_set, singleton
from .views import (
    is_boolean,
    is_sublattice,
    kernel_partition,
    kernel_transports,
    view_filters,
)


class TheoremReport(Record):
    """Outcome of one verified statement on one algebra."""

    _fields = ("ident", "statement", "sides", "passed", "witness")

    def __init__(self, ident: str, statement: str,
                 sides: tuple[tuple[str, bool], ...], passed: bool,
                 witness: str):
        setfield(self, "ident", ident)
        setfield(self, "statement", statement)
        setfield(self, "sides", sides)
        setfield(self, "passed", passed)
        setfield(self, "witness", witness)


def _law(checks) -> tuple[tuple[tuple[str, bool], ...], bool, str]:
    """Universal statement: every described instance must hold.

    Each instance comes as (describe, ok), describe a function returning
    its text.  Only a failing instance is described, and before the
    generator advances, while the loop variables it reads are current.
    """
    count = 0
    for describe, ok in checks:
        count += 1
        if not ok:
            return ((("holds", False),), False, f"fails at {describe()}")
    return ((("holds", True),), True, f"checked {count} instances")


def _equiv(sides, note="") -> tuple[tuple[tuple[str, bool], ...], bool, str]:
    """Characterizations that must agree on this algebra."""
    verdicts = {v for _, v in sides}
    passed = len(verdicts) == 1
    if passed:
        word = "all hold" if verdicts == {True} else "all fail"
        witness = f"{len(sides)} characterizations agree ({word} here)"
        if note:
            witness += "; " + note
    else:
        witness = "; ".join(f"{label}: {'yes' if v else 'no'}" for label, v in sides)
    return tuple(sides), passed, witness


# -- section: residuation arithmetic ---------------------------------------

def _residuation_basics(alg):
    def gen():
        rng = range(alg.n)
        for x in rng:
            yield lambda: f"1 -> {alg.names[x]}", alg.impl[alg.top][x] == x
            yield lambda: f"{alg.names[x]} -> 1", alg.impl[x][alg.top] == alg.top
            for y in rng:
                yield (lambda: f"{alg.names[x]} * ({alg.names[x]} -> {alg.names[y]})",
                       alg.leq(alg.prod[x][alg.impl[x][y]], y))
                yield (lambda: f"order vs implication at ({alg.names[x]}, "
                               f"{alg.names[y]})",
                       alg.leq(x, y) == (alg.impl[x][y] == alg.top))
                yield (lambda: f"{alg.names[y]} below {alg.names[x]} -> {alg.names[y]}",
                       alg.leq(y, alg.impl[x][y]))
                for z in rng:
                    yield (lambda: f"currying at ({alg.names[x]}, {alg.names[y]}, "
                                   f"{alg.names[z]})",
                           alg.impl[x][alg.impl[y][z]] == alg.impl[alg.prod[x][y]][z])
                    yield (lambda: f"implication chain at ({alg.names[x]}, "
                                   f"{alg.names[y]}, {alg.names[z]})",
                           alg.leq(alg.prod[alg.impl[x][y]][alg.impl[y][z]],
                                   alg.impl[x][z]))
    return _law(gen())


def _product_join_distributivity(alg):
    def gen():
        for x in range(alg.n):
            for y in range(alg.n):
                for z in range(alg.n):
                    lhs = alg.prod[x][alg.join[y][z]]
                    rhs = alg.join[alg.prod[x][y]][alg.prod[x][z]]
                    yield (lambda: f"{alg.names[x]} * ({alg.names[y]} v "
                                   f"{alg.names[z]})",
                           lhs == rhs)
    return _law(gen())


def _power_join_bound(alg):
    def gen():
        for x in range(alg.n):
            for y in range(alg.n):
                for m in range(3):
                    for k in range(3):
                        if m + k == 0:
                            continue
                        lhs = alg.power(alg.join[x][y], m + k)
                        rhs = alg.join[alg.power(x, m)][alg.power(y, k)]
                        yield (lambda: f"({alg.names[x]} v {alg.names[y]})^{m + k} vs "
                               f"{alg.names[x]}^{m} v {alg.names[y]}^{k}",
                               alg.leq(lhs, rhs))
    return _law(gen())


def _negation_basics(alg):
    def gen():
        yield lambda: "negation of 0", alg.neg(alg.bottom) == alg.top
        yield lambda: "negation of 1", alg.neg(alg.top) == alg.bottom
        for x in range(alg.n):
            yield (lambda: f"{alg.names[x]} * its negation",
                   alg.prod[x][alg.neg(x)] == alg.bottom)
            yield (lambda: f"{alg.names[x]} under double negation",
                   alg.leq(x, alg.neg(alg.neg(x))))
            yield (lambda: f"triple negation of {alg.names[x]}",
                   alg.neg(alg.neg(alg.neg(x))) == alg.neg(x))
            for y in range(alg.n):
                if alg.leq(x, y):
                    yield (lambda: f"negation reverses {alg.names[x]} <= "
                                   f"{alg.names[y]}",
                           alg.leq(alg.neg(y), alg.neg(x)))
    return _law(gen())


def _center_structure(alg):
    center = alg.boolean_center
    def gen():
        for e in elements(center):
            yield lambda: f"{alg.names[e]} idempotent", alg.prod[e][e] == e
            yield (lambda: f"{alg.names[e]} joins its negation to 1",
                   alg.join[e][alg.neg(e)] == alg.top)
            yield (lambda: f"double negation fixes {alg.names[e]}",
                   alg.neg(alg.neg(e)) == e)
            yield (lambda: f"negation of {alg.names[e]} stays central",
                   contains(center, alg.neg(e)))
            for x in range(alg.n):
                yield (lambda: f"{alg.names[e]} meet vs product at {alg.names[x]}",
                       alg.meet[e][x] == alg.prod[e][x])
            for f in elements(center):
                yield (lambda: f"center closed under join at ({alg.names[e]}, "
                               f"{alg.names[f]})",
                       contains(center, alg.join[e][f]))
                yield (lambda: f"center closed under meet at ({alg.names[e]}, "
                               f"{alg.names[f]})",
                       contains(center, alg.meet[e][f]))
    return _law(gen())


# -- section: filters and primes -------------------------------------------

def _filters_closure_system(alg):
    fam = set(all_filters(alg).members)
    def gen():
        for f in fam:
            for g in fam:
                yield (lambda: f"intersection of {alg.subset_str(f)} and "
                               f"{alg.subset_str(g)}",
                       f & g in fam)
        for mask in range(alg.universe + 1):
            gen_f = generated_filter(alg, mask)
            yield (lambda: f"generated filter of {alg.subset_str(mask)} is a filter",
                   gen_f in fam)
            yield (lambda: f"generation is extensive at {alg.subset_str(mask)}",
                   mask & ~gen_f == 0)
            yield (lambda: f"generated filter of {alg.subset_str(mask)} is least",
                   all(not (mask & ~f == 0 and gen_f & ~f) for f in fam))
    return _law(gen())


def _filter_lattice_frame(alg):
    members = all_filters(alg).members
    def gen():
        yield lambda: "bottom is the top singleton", members[0] == singleton(alg.top)
        yield lambda: "top is the whole carrier", members[-1] == alg.universe
        yield (lambda: "meets distribute over every join of subfamilies",
               frame_check(members))
    return _law(gen())


def _finite_principality(alg):
    def gen():
        for f in all_filters(alg):
            g = principal_generator(alg, f)
            yield (lambda: f"{alg.subset_str(f)} regenerated from {alg.names[g]}",
                   principal_filter(alg, g) == f)
        # grown[mask] adjoins the members of mask one at a time, lowest
        # last, by the closed-form extension: a route to the generated
        # filter that shares no code with the principal filter.
        grown = [singleton(alg.top)]
        for mask in range(alg.universe + 1):
            if mask:
                low = mask & -mask
                grown.append(extend_filter(alg, grown[mask ^ low],
                                           low.bit_length() - 1))
            yield (lambda: f"filter of {alg.subset_str(mask)} vs its product",
                   grown[mask] == principal_filter(alg, alg.product_of(mask)))
    return _law(gen())


def _filter_extension_law(alg):
    def gen():
        for f in all_filters(alg):
            for x in range(alg.n):
                ext = extend_filter(alg, f, x)
                yield (lambda: f"extension of {alg.subset_str(f)} by {alg.names[x]}",
                       ext == generated_filter(alg, f | singleton(x)))
                for y in range(alg.n):
                    if alg.leq(x, y):
                        yield (lambda: f"extension antitone at {alg.names[x]} <= "
                                       f"{alg.names[y]}",
                               extend_filter(alg, f, y) & ~ext == 0)
    return _law(gen())


def _prime_pair_laws(alg):
    fam = all_filters(alg).members
    def gen():
        for p in proper_filters(alg):
            elementwise = all(contains(p, x) or contains(p, y)
                              for x in range(alg.n) for y in range(alg.n)
                              if contains(p, alg.join[x][y]))
            filterwise = all(f & ~p == 0 or g & ~p == 0
                             for f in fam for g in fam if f & g & ~p == 0)
            yield (lambda: f"pair laws at {alg.subset_str(p)}",
                   elementwise == filterwise)
            yield (lambda: f"declared verdict at {alg.subset_str(p)}",
                   elementwise == bool(is_prime(alg, p)))
    return _law(gen())


def _maximal_implies_prime(alg):
    def gen():
        for m in maximal_filters(alg):
            yield lambda: f"{alg.subset_str(m)} prime", bool(is_prime(alg, m))
            yield (lambda: f"{alg.subset_str(m)} maximal among proper filters",
                   all(not (m & ~f == 0 and f != m) for f in proper_filters(alg)))
    return _law(gen())


def _prime_separation(alg):
    def gen():
        for f in all_filters(alg):
            for c in join_closed_sets(alg):
                if f & c:
                    continue
                p = separate(alg, f, c)
                yield (lambda: f"separating {alg.subset_str(f)} from "
                               f"{alg.subset_str(c)}",
                       bool(is_prime(alg, p)) and f & ~p == 0 and p & c == 0)
    return _law(gen())


def _primes_reach_bottom(alg):
    mins = minimal_primes(alg).members
    def gen():
        for p in prime_filters(alg):
            yield (lambda: f"{alg.subset_str(p)} contains a minimal prime",
                   any(m & ~p == 0 for m in mins))
        inter = alg.universe
        for m in mins:
            inter &= m
        yield (lambda: "intersection of minimal primes is trivial",
               inter == singleton(alg.top))
    return _law(gen())


def _minimal_prime_complement_law(alg):
    def gen():
        for p in prime_filters(alg):
            listed = p in minimal_primes(alg).members
            route = is_minimal_prime(alg, p)
            perp_route = all(coannulet(alg, x) & ~p for x in elements(p))
            yield (lambda: f"complement route at {alg.subset_str(p)}", route == listed)
            yield (lambda: f"coannulet route at {alg.subset_str(p)}",
                   perp_route == listed)
    return _law(gen())


def _prime_core_properties(alg):
    def gen():
        for p in prime_filters(alg):
            comp = alg.universe & ~p
            yield (lambda: f"complement of {alg.subset_str(p)} is an ideal",
                   is_lattice_ideal(alg, comp))
            core = prime_core(alg, p)
            yield (lambda: f"core of {alg.subset_str(p)} via its complement ideal",
                   core == omega_filter(alg, comp))
            inter = alg.universe
            for m in minimal_primes(alg):
                if m & ~p == 0:
                    inter &= m
            yield (lambda: f"core of {alg.subset_str(p)} via minimal primes",
                   core == inter)
            yield lambda: f"core sits inside {alg.subset_str(p)}", core & ~p == 0
    return _law(gen())


# -- section: coannihilators and omega filters -----------------------------

def _coannihilator_galois(alg):
    def gen():
        for x_mask in range(alg.universe + 1):
            perp = coannihilator(alg, x_mask)
            yield (lambda: f"{alg.subset_str(x_mask)} perp is a filter",
                   is_filter(alg, perp))
            yield (lambda: f"{alg.subset_str(x_mask)} inside its double perp",
                   x_mask & ~double_coannihilator(alg, x_mask) == 0)
            yield (lambda: f"triple perp collapses at {alg.subset_str(x_mask)}",
                   coannihilator(alg, double_coannihilator(alg, x_mask)) == perp)
            yield (lambda: f"perp matches generated filter at {alg.subset_str(x_mask)}",
                   coannihilator(alg, generated_filter(alg, x_mask)) == perp)
            for y_mask in (x_mask | singleton(alg.bottom),
                           x_mask | singleton(alg.top), alg.universe):
                yield (lambda: f"antitone from {alg.subset_str(x_mask)} into "
                       f"{alg.subset_str(y_mask)}",
                       coannihilator(alg, y_mask) & ~perp == 0)
    return _law(gen())


def _coannulet_arithmetic(alg):
    view = coannulet_lattice(alg)
    def gen():
        yield lambda: "bottom coannulet is trivial", \
            coannulet(alg, alg.bottom) == singleton(alg.top)
        yield (lambda: "top coannulet is everything",
               coannulet(alg, alg.top) == alg.universe)
        for x in range(alg.n):
            for y in range(alg.n):
                jx, jy = view.index(coannulet(alg, x)), view.index(coannulet(alg, y))
                yield (lambda: f"join transfers at ({alg.names[x]}, {alg.names[y]})",
                       view.keys[view.join[jx][jy]] == coannulet(alg, alg.join[x][y]))
                yield (lambda: f"product and meet agree at ({alg.names[x]}, "
                               f"{alg.names[y]})",
                       coannulet(alg, alg.prod[x][y]) ==
                       coannulet(alg, alg.meet[x][y]) ==
                       coannulet(alg, x) & coannulet(alg, y))
                if alg.leq(x, y):
                    yield (lambda: f"monotone at {alg.names[x]} <= {alg.names[y]}",
                           coannulet(alg, x) & ~coannulet(alg, y) == 0)
    return _law(gen())


def _coannihilator_pseudocomplement(alg):
    def gen():
        for f in all_filters(alg):
            yield (lambda: f"perp of {alg.subset_str(f)} is its pseudocomplement",
                   pseudocomplement_check(alg, f))
    return _law(gen())


def _coannihilator_lattice_boolean(alg):
    big = coannihilator_lattice(alg)
    small = coannulet_lattice(alg)
    def gen():
        yield lambda: "coannihilator lattice is Boolean", is_boolean(big)
        yield lambda: "coannulets form a bounded sublattice", is_sublattice(small, big)
        for u in big.keys:
            comp = coannihilator(alg, u)
            i, j = big.index(u), big.index(comp)
            yield (lambda: f"perp complements {alg.subset_str(u)}",
                   big.keys[big.meet[i][j]] == singleton(alg.top)
                   and big.keys[big.join[i][j]] == alg.universe)
    return _law(gen())


def _coannulet_via_minimal_primes(alg):
    def gen():
        for x in range(alg.n):
            inter = alg.universe
            for m in minimal_primes(alg):
                if not contains(m, x):
                    inter &= m
            yield (lambda: f"coannulet of {alg.names[x]} from the points",
                   coannulet(alg, x) == inter)
    return _law(gen())


def _dense_element_characterizations(alg):
    dense = alg.dense_elements
    def gen():
        for x in range(alg.n):
            trivial_perp = coannulet(alg, x) == singleton(alg.top)
            outside_all = all(not contains(m, x) for m in minimal_primes(alg))
            full_dbl = double_coannihilator(alg, singleton(x)) == alg.universe
            yield (lambda: f"characterizations agree at {alg.names[x]}",
                   trivial_perp == outside_all == full_dbl == contains(dense, x))
        yield lambda: "dense elements form an ideal", \
            alg.n == 1 or is_lattice_ideal(alg, dense)
    return _law(gen())


def _proper_coannihilators_avoid_dense(alg):
    def gen():
        yield lambda: "proper omega filters avoid dense elements", \
            proper_omega_no_dense_check(alg)
        for u in coannihilator_family(alg):
            if u != alg.universe:
                yield (lambda: f"proper coannihilator {alg.subset_str(u)} avoids dense",
                       u & alg.dense_elements == 0)
    return _law(gen())


def _omega_filter_construction(alg):
    ideals = all_ideals(alg)
    def gen():
        for i in ideals:
            yield (lambda: f"image of ideal {alg.subset_str(i)} is a filter",
                   is_filter(alg, omega_filter(alg, i)))
            for j in ideals:
                if i & ~j == 0:
                    yield (lambda: f"monotone at {alg.subset_str(i)} in "
                                   f"{alg.subset_str(j)}",
                           omega_filter(alg, i) & ~omega_filter(alg, j) == 0)
        for x in range(alg.n):
            yield (lambda: f"principal ideal of {alg.names[x]} maps to its coannulet",
                   omega_filter(alg, alg.down[x]) == coannulet(alg, x))
        view = omega_filter_lattice(alg)
        yield lambda: "omega filters form a bounded distributive lattice", \
            view.keys == omega_family(alg).members
        yield lambda: "omega filters coincide with the coannulets here", \
            omega_family(alg).members == coannulet_family(alg).members
    return _law(gen())


def _nilpotents_and_center(alg):
    nil = alg.nilpotents
    def gen():
        yield lambda: "bottom is nilpotent", contains(nil, alg.bottom)
        yield lambda: "nilpotents form an ideal", is_lattice_ideal(alg, nil)
        yield lambda: "center meets nilpotents only at bottom", \
            alg.boolean_center & nil == singleton(alg.bottom)
        for e in elements(alg.boolean_center):
            yield (lambda: f"powers of central {alg.names[e]} are constant",
                   all(alg.power(e, k) == e for k in range(1, alg.n + 2)))
    return _law(gen())


# -- section: structure maps and classification ----------------------------

def _principal_filter_map(alg):
    maps = structure_maps(alg)
    m = maps["element to principal filter"]
    def gen():
        yield lambda: "order reversing homomorphism onto the filter lattice", \
            m.kind == "dual lattice homomorphism" and m.surjective
        yield lambda: "kernel quotient transports", \
            kernel_transports(element_lattice(alg), [img for _, img in m.pairs],
                              filter_lattice(alg), dual=True)
    return _law(gen())


def _coannulet_map(alg):
    maps = structure_maps(alg)
    m = maps["element to coannulet"]
    def gen():
        yield lambda: "order preserving homomorphism onto the coannulets", \
            m.kind == "lattice homomorphism" and m.surjective
        yield lambda: "kernel quotient transports", \
            kernel_transports(element_lattice(alg), [img for _, img in m.pairs],
                              coannulet_lattice(alg), dual=False)
        for x in range(alg.n):
            f = principal_filter(alg, x)
            yield (lambda: f"factors through the filter of {alg.names[x]}",
                   coannulet(alg, principal_generator(alg, f)) == coannulet(alg, x))
    return _law(gen())


def _kernel_classes_at_bounds(alg):
    cong = element_kernel_by_coannulet(alg)
    spectral = filter_kernel_spectral(alg)
    fl = filter_lattice(alg)
    def gen():
        bottom_class = set(cong.class_of(alg.bottom))
        yield lambda: "class of 0 is the dense elements", \
            bottom_class == set(elements(alg.dense_elements))
        yield lambda: "class of 1 is alone", cong.class_of(alg.top) == (alg.top,)
        trivial = fl.index(singleton(alg.top))
        yield lambda: "class of the trivial filter is alone", \
            spectral.class_of(trivial) == (trivial,)
        top_class = {fl.keys[i] for i in spectral.class_of(fl.index(alg.universe))}
        with_dense = {f for f in fl.keys if f & alg.dense_elements}
        yield lambda: "class of the full filter holds the dense containing filters", \
            top_class == with_dense
    return _law(gen())


def _filter_to_cohull_map(alg):
    maps = structure_maps(alg)
    m = maps["filter to cohull"]
    def gen():
        yield lambda: "order preserving homomorphism onto the cohulls", \
            m.kind == "lattice homomorphism" and m.surjective
        for f in all_filters(alg):
            for g in all_filters(alg):
                cf, cg = cohull(alg, f), cohull(alg, g)
                yield (lambda: f"join goes to union at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})",
                       cohull(alg, filter_join(alg, f, g)) == (cf | cg))
                yield (lambda: f"meet goes to intersection at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})",
                       cohull(alg, f & g) == (cf & cg))
    return _law(gen())


def _generator_coannulet_map(alg):
    maps = structure_maps(alg)
    m = maps["filter to generator coannulet"]
    fl = filter_lattice(alg)
    images = [img for _, img in m.pairs]
    def gen():
        yield lambda: "order reversing homomorphism onto the coannulets", \
            m.kind == "dual lattice homomorphism" and m.surjective
        yield lambda: "kernels by cohull and by generator coannulet coincide", \
            kernel_partition(fl, images) == filter_kernel_spectral(alg) and \
            kernel_transports(fl, images, coannulet_lattice(alg), dual=True)
    return _law(gen())


def _point_translations(alg):
    maps = structure_maps(alg)
    def gen():
        yield lambda: "cohull to hull translation is a bijection", \
            maps["cohull to hull"].bijective
        yield lambda: "coannulet to hull translation is a bijection", \
            maps["coannulet to hull"].bijective
        yield lambda: "hull lattice matches cohull lattice in size", \
            hull_lattice(alg).n == cohull_lattice(alg).n
    return _law(gen())


def _quasicomplemented_equivalences(alg):
    return _equiv(classification(alg).routes["quasicomplemented"],
                  note="every finite algebra qualifies")


def _disjunctive_equivalences(alg):
    return _equiv(classification(alg).routes["disjunctive"])


def _weakly_disjunctive_equivalences(alg):
    return _equiv(classification(alg).routes["weakly disjunctive"])


def _disjunctive_implies_weakly(alg):
    res = classification(alg)
    sides = (("disjunctive", res.disjunctive),
             ("weakly disjunctive", res.weakly_disjunctive))
    passed = (not res.disjunctive) or res.weakly_disjunctive
    witness = "implication holds" if passed else "disjunctive yet not weakly so"
    return sides, passed, witness


def _boolean_element_lattice_equivalence(alg):
    res = classification(alg)
    return _equiv((
        ("element lattice is Boolean", res.lattice_boolean),
        ("quasicomplemented and disjunctive",
         res.quasicomplemented and res.disjunctive),
    ))


def _boolean_filter_lattice_equivalence(alg):
    res = classification(alg)
    return _equiv(res.routes["filter lattice Boolean"])


# -- section: alpha filters and the spectrum -------------------------------

def _alpha_closure_laws(alg):
    fam = alpha_family(alg)
    def gen():
        yield (lambda: "trivial filter is closed",
               alpha_closure(alg, singleton(alg.top)) == singleton(alg.top))
        yield (lambda: "whole carrier is closed",
               alpha_closure(alg, alg.universe) == alg.universe)
        for mask in range(alg.universe + 1):
            c = alpha_closure(alg, mask)
            yield lambda: f"extensive at {alg.subset_str(mask)}", mask & ~c == 0
            yield (lambda: f"idempotent at {alg.subset_str(mask)}",
                   alpha_closure(alg, c) == c)
            yield (lambda: f"closure of {alg.subset_str(mask)} lands in the family",
                   c in fam.members)
            sub = mask & (mask - 1)
            yield (lambda: f"monotone below {alg.subset_str(mask)}",
                   alpha_closure(alg, sub) & ~c == 0)
        for f in all_filters(alg):
            for g in all_filters(alg):
                yield (lambda: f"meets preserved at ({alg.subset_str(f)}, "
                               f"{alg.subset_str(g)})",
                       alpha_closure(alg, f & g) ==
                       alpha_closure(alg, f) & alpha_closure(alg, g))
        for u in coannihilator_family(alg):
            yield (lambda: f"coannihilator {alg.subset_str(u)} is closed",
                   u in fam.members)
    return _law(gen())


def _alpha_frame_structure(alg):
    fam = alpha_family(alg)
    def gen():
        yield lambda: "family is a frame", frame_check(fam.members)
        yield (lambda: "lattice of closed filters builds",
               alpha_lattice(alg).n == len(fam))
        for f in fam:
            for g in fam:
                yield (lambda: f"intersection closed at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})", f & g in fam.members)
                h = heyting_implication(alg, f, g)
                for cand in fam:
                    yield (lambda: f"implication adjunction at ({alg.subset_str(f)}, "
                           f"{alg.subset_str(g)}, {alg.subset_str(cand)})",
                           (cand & ~h == 0) == (f & cand & ~g == 0))
    return _law(gen())


def _alpha_extension_law(alg):
    def gen():
        for q in alpha_family(alg):
            for a in range(alg.n):
                ext_a = alpha_extend(alg, q, a)
                yield (lambda: f"extension of {alg.subset_str(q)} by {alg.names[a]}",
                       ext_a == alpha_closure(alg, q | singleton(a)))
                for b in range(alg.n):
                    lhs = ext_a & alpha_extend(alg, q, b)
                    rhs = alpha_extend(alg, q, alg.join[a][b])
                    yield (lambda: f"extension meets at ({alg.subset_str(q)}, "
                           f"{alg.names[a]}, {alg.names[b]})", lhs == rhs)
    return _law(gen())


def _transfer_isomorphism(alg):
    def gen():
        yield lambda: "round trips and adjunction", transfer_roundtrip_check(alg)
        yield lambda: "families have equal size", \
            len(view_filters(coannulet_lattice(alg))) == len(alpha_family(alg))
    return _law(gen())


def _prime_alpha_four_way(alg):
    fam = alpha_family(alg)
    primes = prime_alpha_filters(alg)
    def gen():
        for f in fam:
            if f == alg.universe:
                continue
            verdict = is_prime_alpha(alg, f)
            yield (lambda: f"four routes agree at {alg.subset_str(f)}",
                   verdict == (f in primes.members))
            inter = alg.universe
            for p in primes:
                if f & ~p == 0:
                    inter &= p
            yield (lambda: f"{alg.subset_str(f)} is the meet of primes above it",
                   inter == f)
        for q in fam:
            for c in join_closed_sets(alg):
                if q & c:
                    continue
                p = alpha_separate(alg, q, c)
                yield (lambda: f"separation of {alg.subset_str(q)} from "
                       f"{alg.subset_str(c)} lands on a prime",
                       p in primes.members and p & c == 0 and q & ~p == 0)
    return _law(gen())


def _prime_alpha_are_minimal(alg):
    return _equiv((
        ("prime closed filters are the minimal primes",
         prime_alpha_filters(alg).members == minimal_primes(alg).members),
        ("every minimal prime is closed",
         all(is_alpha_filter(alg, m) for m in minimal_primes(alg))),
    ))


def _alpha_closure_via_points(alg):
    def gen():
        for f in all_filters(alg):
            yield (lambda: f"closure of {alg.subset_str(f)} from the points",
                   alpha_closure(alg, f) == kernel_filter(alg, hull(alg, f)))
    return _law(gen())


def _spectrum_topology(alg):
    th = hull_topology(alg)
    td = dual_hull_topology(alg)
    def gen():
        yield lambda: "hull and dual hull topologies coincide", topologies_equal(alg)
        yield lambda: "zero dimensional", is_zero_dimensional(th)
        yield lambda: "totally disconnected", is_totally_disconnected(th)
        yield lambda: "compact", is_compact(th)
        yield lambda: "dual compact", is_compact(td)
        space = full_set(len(minimal_primes(alg)))
        for s in range(space + 1):
            pts = hull(alg, kernel_filter(alg, s))
            yield (lambda: f"hull of kernel returns point set {s:b}", pts == s)
    return _law(gen())


REGISTRY = (
    ("residuation-basics",
     "products and implications interlock through the adjunction",
     "arithmetic", _residuation_basics),
    ("product-join-distributivity",
     "the product distributes over binary joins",
     "arithmetic", _product_join_distributivity),
    ("power-join-bound",
     "a power of a join falls below the join of powers",
     "arithmetic", _power_join_bound),
    ("negation-basics",
     "negation reverses order and kills products",
     "arithmetic", _negation_basics),
    ("center-structure",
     "complemented idempotents form a Boolean center that absorbs meets",
     "arithmetic", _center_structure),
    ("filters-closure-system",
     "filters are closed under intersection and generation is a least-fit",
     "filters", _filters_closure_system),
    ("filter-lattice-frame",
     "the filter lattice is a bounded frame",
     "filters", _filter_lattice_frame),
    ("finite-principality",
     "every filter of a finite algebra is generated by one element",
     "filters", _finite_principality),
    ("filter-extension-law",
     "adjoining an element yields the closed-form extension, antitone in it",
     "filters", _filter_extension_law),
    ("prime-pair-laws",
     "elementwise and filterwise primality coincide on proper filters",
     "spectrum", _prime_pair_laws),
    ("maximal-implies-prime",
     "maximal proper filters are prime",
     "spectrum", _maximal_implies_prime),
    ("prime-separation",
     "a filter avoiding a join closed set extends to a prime still avoiding it",
     "spectrum", _prime_separation),
    ("primes-reach-bottom",
     "every prime contains a minimal prime and the minimal primes meet trivially",
     "spectrum", _primes_reach_bottom),
    ("minimal-prime-complement-law",
     "minimality of a prime shows in its complement and in member coannulets",
     "spectrum", _minimal_prime_complement_law),
    ("prime-core-properties",
     "the core of a prime is the filter its complement ideal induces",
     "spectrum", _prime_core_properties),
    ("coannihilator-galois",
     "the coannihilator operator is an antitone Galois polarity",
     "coannihilators", _coannihilator_galois),
    ("coannulet-arithmetic",
     "coannulets turn joins into joins and products or meets into intersections",
     "coannihilators", _coannulet_arithmetic),
    ("coannihilator-pseudocomplement",
     "a filter's coannihilator is its pseudocomplement in the filter lattice",
     "coannihilators", _coannihilator_pseudocomplement),
    ("coannihilator-lattice-boolean",
     "coannihilators form a Boolean lattice with the coannulets inside",
     "coannihilators", _coannihilator_lattice_boolean),
    ("coannulet-via-minimal-primes",
     "a coannulet is the meet of the minimal primes omitting its element",
     "coannihilators", _coannulet_via_minimal_primes),
    ("dense-element-characterizations",
     "trivial coannulet, full double perp, and omission by every point agree",
     "coannihilators", _dense_element_characterizations),
    ("proper-coannihilators-avoid-dense",
     "proper coannihilators and proper omega filters contain no dense element",
     "coannihilators", _proper_coannihilators_avoid_dense),
    ("omega-filter-construction",
     "ideals induce filters monotonically, principal ideals giving coannulets",
     "coannihilators", _omega_filter_construction),
    ("nilpotents-and-center",
     "nilpotents form an ideal touching the center only at the bottom",
     "coannihilators", _nilpotents_and_center),
    ("principal-filter-map",
     "sending an element to its filter reverses order onto the filter lattice",
     "maps", _principal_filter_map),
    ("coannulet-map",
     "sending an element to its coannulet preserves order and factors through filters",
     "maps", _coannulet_map),
    ("kernel-classes-at-bounds",
     "kernel classes at the bounds pick out dense elements and dense filters",
     "maps", _kernel_classes_at_bounds),
    ("filter-to-cohull-map",
     "sending a filter to its cohull preserves joins and meets of filters",
     "maps", _filter_to_cohull_map),
    ("generator-coannulet-map",
     "sending a filter to its generator's coannulet reverses order coherently",
     "maps", _generator_coannulet_map),
    ("point-translations",
     "cohulls, hulls, and coannulets translate into each other bijectively",
     "maps", _point_translations),
    ("quasicomplemented-equivalences",
     "the quasicomplementation characterizations stand or fall together",
     "classification", _quasicomplemented_equivalences),
    ("disjunctive-equivalences",
     "injectivity of the coannulet map has equivalent forms",
     "classification", _disjunctive_equivalences),
    ("weakly-disjunctive-equivalences",
     "the weak disjunctivity characterizations stand or fall together",
     "classification", _weakly_disjunctive_equivalences),
    ("disjunctive-implies-weakly",
     "disjunctive algebras are weakly disjunctive",
     "classification", _disjunctive_implies_weakly),
    ("boolean-element-lattice-equivalence",
     "a Boolean element lattice means quasicomplemented plus disjunctive",
     "classification", _boolean_element_lattice_equivalence),
    ("boolean-filter-lattice-equivalence",
     "a Boolean filter lattice means quasicomplemented plus weakly disjunctive",
     "classification", _boolean_filter_lattice_equivalence),
    ("alpha-closure-laws",
     "closing filters under double coannihilators is a meet preserving closure",
     "alpha", _alpha_closure_laws),
    ("alpha-frame-structure",
     "the closed filters form a frame with a Heyting implication",
     "alpha", _alpha_frame_structure),
    ("alpha-extension-law",
     "closed extensions obey the closed form and meet along joins",
     "alpha", _alpha_extension_law),
    ("transfer-isomorphism",
     "closed filters and lattice filters of coannulets translate both ways",
     "alpha", _transfer_isomorphism),
    ("prime-alpha-four-way",
     "primality among closed filters has four agreeing faces",
     "alpha", _prime_alpha_four_way),
    ("prime-alpha-are-minimal-primes",
     "the prime closed filters are exactly the minimal primes",
     "alpha", _prime_alpha_are_minimal),
    ("alpha-closure-via-points",
     "the closure of a filter is the meet of the minimal primes above it",
     "alpha", _alpha_closure_via_points),
    ("spectrum-topology",
     "the minimal prime space is a compact zero dimensional patch",
     "topology", _spectrum_topology),
)


def registry_idents() -> tuple[str, ...]:
    return tuple(ident for ident, _, _, _ in REGISTRY)


def registry_groups() -> tuple[str, ...]:
    seen = []
    for _, _, group, _ in REGISTRY:
        if group not in seen:
            seen.append(group)
    return tuple(seen)


def registry_entries() -> tuple[tuple[str, str, str], ...]:
    """All (ident, statement, group) rows in registry order."""
    return tuple((ident, statement, group)
                 for ident, statement, group, _ in REGISTRY)


def verify_suite(alg: ResiduatedLattice,
                 idents=None, groups=None) -> tuple[TheoremReport, ...]:
    """Run every registered statement (or a selection) on one algebra."""
    if idents is not None:
        unknown = set(idents) - set(registry_idents())
        if unknown:
            raise PreconditionError(
                "unknown statement ids: " + ", ".join(sorted(unknown)))
    if groups is not None:
        unknown = set(groups) - set(registry_groups())
        if unknown:
            raise PreconditionError(
                "unknown statement groups: " + ", ".join(sorted(unknown)))
    out = []
    for ident, statement, group, fn in REGISTRY:
        if idents is not None and ident not in idents:
            continue
        if groups is not None and group not in groups:
            continue
        sides, passed, witness = fn(alg)
        out.append(TheoremReport(ident, statement, tuple(sides), passed, witness))
    return tuple(out)
