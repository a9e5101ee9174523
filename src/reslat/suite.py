"""A battery of verifiable statements about finite residuated lattices.

Every entry states one fact the theory promises, checks it exhaustively
on a concrete algebra, and reports the labeled verdicts of each
characterization it compares.  Equivalence entries pass when all their
sides agree (whether all true or all false on this algebra); law
entries pass when the law holds at every instance.  A failing entry
carries a concrete witness.

Each statement is declared once, where it is defined: ``@law`` on a
generator of instances, ``@statement`` on a check that returns its own
verdict, each with the statement's ident, group and text.  The
decorators fill ``REGISTRY`` in definition order, which is the order
``verify`` reports in.

A law's generator yields each instance as (describe, ok), or an int k
standing for k instances checked at once that all hold; ``_law`` adds
k to the instance count in one step.  The three laws of the arithmetic
section are checked a row at a time: for one x, every y (and z) at
once, with the tables as byte rows (``algebra.byte_rows``).  A row
check holds exactly when every instance at x holds, and then yields
their count.  Only an x whose row check fails is walked instance by
instance, in the order of the full walk, so the instance count and the
first failing instance are those of walking every instance.
"""

from __future__ import annotations

from functools import wraps

from .algebra import ResiduatedLattice, byte_rows
from .alpha import (
    alpha_closure,
    alpha_extend,
    alpha_family,
    alpha_lattice,
    alpha_separate,
    heyting_implication,
    is_alpha_filter,
    is_prime_alpha,
    perp_image,
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
    generated_filter,
    is_filter,
    principal_filter,
    principal_generator,
    proper_filters,
)
from .record import Record
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
    is_distributive,
    is_sublattice,
    kernel_partition,
    kernel_transports,
    view_filters,
)


class TheoremReport(Record):
    """Outcome of one verified statement on one algebra."""

    ident: str
    statement: str
    sides: tuple[tuple[str, bool], ...]
    passed: bool
    witness: str


def _law(checks) -> tuple[tuple[tuple[str, bool], ...], bool, str]:
    """Universal statement: every described instance must hold.

    Each instance comes as (describe, ok), describe a function returning
    its text, or as an int k for k instances checked at once that all
    hold.  Only a failing instance is described, and before the
    generator advances, while the loop variables it reads are current.
    """
    count = 0
    for check in checks:
        if type(check) is int:
            count += check
            continue
        describe, ok = check
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


# (ident, statement text, group, check) per statement, in definition order;
# check(alg) returns (sides, passed, witness).
REGISTRY = []


def statement(ident: str, group: str, text: str):
    """Register a check that returns (sides, passed, witness)."""
    def register(check):
        REGISTRY.append((ident, text, group, check))
        return check
    return register


def law(ident: str, group: str, text: str):
    """Register a generator of instances, judged by _law."""
    def register(instances):
        @wraps(instances)
        def check(alg):
            return _law(instances(alg))
        return statement(ident, group, text)(check)
    return register


# -- section: residuation arithmetic ---------------------------------------
# The first three laws are checked a row at a time (module docstring);
# each ``_*_at`` generator is the walk over the instances at one x.

def _order_pairs(alg):
    """Every pair (a, b) with a <= b."""
    return {(a, b) for a in range(alg.n) for b in elements(alg.up[a])}


@law("residuation-basics", "arithmetic",
     "products and implications interlock through the adjunction")
def _residuation_basics(alg):
    n, rng, top = alg.n, range(alg.n), alg.top
    I, It = byte_rows(alg.impl)
    P, Pt = byte_rows(alg.prod)
    L = byte_rows([[alg.leq(a, z) for z in rng] for a in rng])[0]
    is_top = bytes(v == top for v in range(256))
    below = _order_pairs(alg)
    impls = b"".join(I)
    for x in rng:
        Ix = I[x]
        # 1 -> x, x -> 1, then over y: x * (x -> y) <= y, x <= y iff
        # x -> y = 1, y <= x -> y, then over (y, z): currying, chain
        if (alg.impl[top][x] == x and Ix[top] == top
                and below.issuperset(zip(Ix.translate(Pt[x]), rng))
                and L[x] == Ix.translate(is_top)
                and below.issuperset(zip(rng, Ix))
                and impls.translate(It[x]) == b"".join(I[p] for p in P[x])
                and below.issuperset(zip(
                    b"".join(I[y].translate(Pt[a]) for y, a in enumerate(Ix)),
                    Ix * n))):
            yield 2 + n * (3 + 2 * n)
        else:
            yield from _residuation_at(alg, x)


def _residuation_at(alg, x):
    rng = range(alg.n)
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


@law("product-join-distributivity", "arithmetic",
     "the product distributes over binary joins")
def _product_join_distributivity(alg):
    J, Jt = byte_rows(alg.join)
    P, Pt = byte_rows(alg.prod)
    joins = b"".join(J)
    for x in range(alg.n):
        Px = P[x]
        if joins.translate(Pt[x]) == b"".join(Px.translate(Jt[p]) for p in Px):
            yield alg.n * alg.n
        else:
            yield from _distributivity_at(alg, x)


def _distributivity_at(alg, x):
    for y in range(alg.n):
        for z in range(alg.n):
            lhs = alg.prod[x][alg.join[y][z]]
            rhs = alg.join[alg.prod[x][y]][alg.prod[x][z]]
            yield (lambda: f"{alg.names[x]} * ({alg.names[y]} v "
                           f"{alg.names[z]})",
                   lhs == rhs)


# The exponent pairs (m, k) of power-join-bound, in walk order.
_EXPONENTS = tuple((m, k) for m in range(3) for k in range(3) if m + k)


@law("power-join-bound", "arithmetic",
     "a power of a join falls below the join of powers")
def _power_join_bound(alg):
    rng = range(alg.n)
    J, Jt = byte_rows(alg.join)
    # W[e][z] is z to the power e
    W, Wt = byte_rows([[alg.power(z, e) for z in rng] for e in range(5)])
    below = _order_pairs(alg)
    for x in rng:
        Jx = J[x]
        if below.issuperset(zip(
                b"".join(Jx.translate(Wt[m + k]) for m, k in _EXPONENTS),
                b"".join(W[k].translate(Jt[W[m][x]]) for m, k in _EXPONENTS))):
            yield len(_EXPONENTS) * alg.n
        else:
            yield from _power_bound_at(alg, x)


def _power_bound_at(alg, x):
    for y in range(alg.n):
        for m, k in _EXPONENTS:
            lhs = alg.power(alg.join[x][y], m + k)
            rhs = alg.join[alg.power(x, m)][alg.power(y, k)]
            yield (lambda: f"({alg.names[x]} v {alg.names[y]})^{m + k} vs "
                   f"{alg.names[x]}^{m} v {alg.names[y]}^{k}",
                   alg.leq(lhs, rhs))


@law("negation-basics", "arithmetic",
     "negation reverses order and kills products")
def _negation_basics(alg):
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


@law("center-structure", "arithmetic",
     "complemented idempotents form a Boolean center that absorbs meets")
def _center_structure(alg):
    center = alg.boolean_center
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


# -- section: filters and primes -------------------------------------------

@law("filters-closure-system", "filters",
     "filters are closed under intersection and generation is a least-fit")
def _filters_closure_system(alg):
    """Checked on elements: a filter holds a subset exactly when it holds
    the product of its members, so by induction on the subset every
    generated filter is that of one element."""
    fam = set(all_filters(alg))
    for f in fam:
        for g in fam:
            yield (lambda: f"intersection of {alg.subset_str(f)} and "
                           f"{alg.subset_str(g)}",
                   f & g in fam)
    for mask in map(singleton, range(alg.n)):
        gen_f = generated_filter(alg, mask)
        yield (lambda: f"generated filter of {alg.subset_str(mask)} is a filter",
               gen_f in fam)
        yield (lambda: f"generation is extensive at {alg.subset_str(mask)}",
               mask & ~gen_f == 0)
        yield (lambda: f"generated filter of {alg.subset_str(mask)} is least",
               all(not (mask & ~f == 0 and gen_f & ~f) for f in fam))


@law("filter-lattice-frame", "filters",
     "the filter lattice is a bounded frame")
def _filter_lattice_frame(alg):
    members = all_filters(alg)
    yield lambda: "bottom is the top singleton", members[0] == singleton(alg.top)
    yield lambda: "top is the whole carrier", members[-1] == alg.universe
    yield (lambda: "meets distribute over every join of subfamilies",
           is_distributive(filter_lattice(alg)))


@law("finite-principality", "filters",
     "every filter of a finite algebra is generated by one element")
def _finite_principality(alg):
    """Extensions one member at a time, a route sharing no code with the
    principal filter, build the filter of a subset's product by induction
    from {1}: extending the filter of g by x gives the filter of g * x."""
    rng = range(alg.n)
    principal = [principal_filter(alg, x) for x in rng]
    for f in all_filters(alg):
        g = principal_generator(alg, f)
        yield (lambda: f"{alg.subset_str(f)} regenerated from {alg.names[g]}",
               principal[g] == f)
        for x, gx in enumerate(alg.prod[g]):
            yield (lambda: f"extension of {alg.subset_str(f)} by {alg.names[x]} "
                           f"vs its product",
                   extend_filter(alg, f, x) == principal[gx])


@law("filter-extension-law", "filters",
     "adjoining an element yields the closed-form extension, antitone in it")
def _filter_extension_law(alg):
    rng = range(alg.n)
    for f in all_filters(alg):
        exts = [extend_filter(alg, f, x) for x in rng]
        for x, ext in enumerate(exts):
            yield (lambda: f"extension of {alg.subset_str(f)} by {alg.names[x]}",
                   ext == generated_filter(alg, f | singleton(x)))
            for y in elements(alg.up[x]):
                yield (lambda: f"extension antitone at {alg.names[x]} <= "
                               f"{alg.names[y]}",
                       exts[y] & ~ext == 0)


@law("prime-pair-laws", "spectrum",
     "elementwise and filterwise primality coincide on proper filters")
def _prime_pair_laws(alg):
    fam = all_filters(alg)
    for p in proper_filters(alg):
        elementwise = all(contains(p, x) or contains(p, y)
                          for x in range(alg.n) for y in range(alg.n)
                          if contains(p, alg.join[x][y]))
        filterwise = all(f & ~p == 0 or g & ~p == 0
                         for f in fam for g in fam if f & g & ~p == 0)
        yield (lambda: f"pair laws at {alg.subset_str(p)}",
               elementwise == filterwise)
        yield (lambda: f"declared verdict at {alg.subset_str(p)}",
               elementwise == is_prime(alg, p))


@law("maximal-implies-prime", "spectrum",
     "maximal proper filters are prime")
def _maximal_implies_prime(alg):
    for m in maximal_filters(alg):
        yield lambda: f"{alg.subset_str(m)} prime", is_prime(alg, m)
        yield (lambda: f"{alg.subset_str(m)} maximal among proper filters",
               all(not (m & ~f == 0 and f != m) for f in proper_filters(alg)))


@law("prime-separation", "spectrum",
     "a filter avoiding a join closed set extends to a prime still avoiding it")
def _prime_separation(alg):
    for f in all_filters(alg):
        for c in elements(alg.universe & ~f):
            p = separate(alg, f, c)
            yield (lambda: f"separating {alg.subset_str(f)} from "
                           f"{alg.subset_str(alg.down[c])}",
                   is_prime(alg, p) and f & ~p == 0 and p & alg.down[c] == 0)


@law("primes-reach-bottom", "spectrum",
     "every prime contains a minimal prime and the minimal primes meet trivially")
def _primes_reach_bottom(alg):
    mins = minimal_primes(alg)
    for p in prime_filters(alg):
        yield (lambda: f"{alg.subset_str(p)} contains a minimal prime",
               any(m & ~p == 0 for m in mins))
    inter = alg.universe
    for m in mins:
        inter &= m
    yield (lambda: "intersection of minimal primes is trivial",
           inter == singleton(alg.top))


@law("minimal-prime-complement-law", "spectrum",
     "minimality of a prime shows in its complement and in member coannulets")
def _minimal_prime_complement_law(alg):
    for p in prime_filters(alg):
        listed = p in minimal_primes(alg)
        route = is_minimal_prime(alg, p)
        perp_route = all(coannulet(alg, x) & ~p for x in elements(p))
        yield (lambda: f"complement route at {alg.subset_str(p)}", route == listed)
        yield (lambda: f"coannulet route at {alg.subset_str(p)}",
               perp_route == listed)


@law("prime-core-properties", "spectrum",
     "the core of a prime is the filter its complement ideal induces")
def _prime_core_properties(alg):
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


# -- section: coannihilators and omega filters -----------------------------

@law("coannihilator-galois", "coannihilators",
     "the coannihilator operator is an antitone Galois polarity")
def _coannihilator_galois(alg):
    """Checked on elements, and on pairs for antitony: by induction on X,
    X perp is the coannulet of the product of X, since coann(x) & coann(y)
    = coann(x * y) (coannulet-arithmetic)."""
    for x_mask in map(singleton, range(alg.n)):
        perp = coannihilator(alg, x_mask)
        yield (lambda: f"{alg.subset_str(x_mask)} perp is a filter",
               is_filter(alg, perp))
        yield (lambda: f"{alg.subset_str(x_mask)} inside its double perp",
               x_mask & ~double_coannihilator(alg, x_mask) == 0)
        yield (lambda: f"triple perp collapses at {alg.subset_str(x_mask)}",
               coannihilator(alg, double_coannihilator(alg, x_mask)) == perp)
        yield (lambda: f"perp matches generated filter at {alg.subset_str(x_mask)}",
               coannihilator(alg, generated_filter(alg, x_mask)) == perp)
        for y in range(alg.n):
            y_mask = x_mask | singleton(y)
            yield (lambda: f"antitone from {alg.subset_str(x_mask)} into "
                   f"{alg.subset_str(y_mask)}",
                   coannihilator(alg, y_mask) & ~perp == 0)


@law("coannulet-arithmetic", "coannihilators",
     "coannulets turn joins into joins and products or meets into intersections")
def _coannulet_arithmetic(alg):
    view = coannulet_lattice(alg)
    yield lambda: "bottom coannulet is trivial", \
        coannulet(alg, alg.bottom) == singleton(alg.top)
    yield (lambda: "top coannulet is everything",
           coannulet(alg, alg.top) == alg.universe)
    rng = range(alg.n)
    perps = [coannulet(alg, x) for x in rng]
    pos = [view.index(p) for p in perps]
    for x in rng:
        px, jx = perps[x], view.join[pos[x]]
        for y in rng:
            py = perps[y]
            yield (lambda: f"join transfers at ({alg.names[x]}, {alg.names[y]})",
                   view.keys[jx[pos[y]]] == perps[alg.join[x][y]])
            yield (lambda: f"product and meet agree at ({alg.names[x]}, "
                           f"{alg.names[y]})",
                   perps[alg.prod[x][y]] == perps[alg.meet[x][y]] == px & py)
            if alg.leq(x, y):
                yield (lambda: f"monotone at {alg.names[x]} <= {alg.names[y]}",
                       px & ~py == 0)


@law("coannihilator-pseudocomplement", "coannihilators",
     "a filter's coannihilator is its pseudocomplement in the filter lattice")
def _coannihilator_pseudocomplement(alg):
    for f in all_filters(alg):
        yield (lambda: f"perp of {alg.subset_str(f)} is its pseudocomplement",
               pseudocomplement_check(alg, f))


@law("coannihilator-lattice-boolean", "coannihilators",
     "coannihilators form a Boolean lattice with the coannulets inside")
def _coannihilator_lattice_boolean(alg):
    big = coannihilator_lattice(alg)
    small = coannulet_lattice(alg)
    yield lambda: "coannihilator lattice is Boolean", is_boolean(big)
    yield lambda: "coannulets form a bounded sublattice", is_sublattice(small, big)
    for u in big.keys:
        comp = coannihilator(alg, u)
        i, j = big.index(u), big.index(comp)
        yield (lambda: f"perp complements {alg.subset_str(u)}",
               big.keys[big.meet[i][j]] == singleton(alg.top)
               and big.keys[big.join[i][j]] == alg.universe)


@law("coannulet-via-minimal-primes", "coannihilators",
     "a coannulet is the meet of the minimal primes omitting its element")
def _coannulet_via_minimal_primes(alg):
    for x in range(alg.n):
        inter = alg.universe
        for m in minimal_primes(alg):
            if not contains(m, x):
                inter &= m
        yield (lambda: f"coannulet of {alg.names[x]} from the points",
               coannulet(alg, x) == inter)


@law("dense-element-characterizations", "coannihilators",
     "trivial coannulet, full double perp, and omission by every point agree")
def _dense_element_characterizations(alg):
    dense = alg.dense_elements
    for x in range(alg.n):
        trivial_perp = coannulet(alg, x) == singleton(alg.top)
        outside_all = all(not contains(m, x) for m in minimal_primes(alg))
        full_dbl = alg.double_coannulets[x] == alg.universe
        yield (lambda: f"characterizations agree at {alg.names[x]}",
               trivial_perp == outside_all == full_dbl == contains(dense, x))
    yield lambda: "dense elements form an ideal", \
        alg.n == 1 or is_lattice_ideal(alg, dense)


@law("proper-coannihilators-avoid-dense", "coannihilators",
     "proper coannihilators and proper omega filters contain no dense element")
def _proper_coannihilators_avoid_dense(alg):
    yield lambda: "proper omega filters avoid dense elements", \
        proper_omega_no_dense_check(alg)
    for u in coannihilator_family(alg):
        if u != alg.universe:
            yield (lambda: f"proper coannihilator {alg.subset_str(u)} avoids dense",
                   u & alg.dense_elements == 0)


@law("omega-filter-construction", "coannihilators",
     "ideals induce filters monotonically, principal ideals giving coannulets")
def _omega_filter_construction(alg):
    ideals = all_ideals(alg)
    omegas = [omega_filter(alg, i) for i in ideals]
    for i, oi in zip(ideals, omegas):
        yield (lambda: f"image of ideal {alg.subset_str(i)} is a filter",
               is_filter(alg, oi))
        for j, oj in zip(ideals, omegas):
            if i & ~j == 0:
                yield (lambda: f"monotone at {alg.subset_str(i)} in "
                               f"{alg.subset_str(j)}",
                       oi & ~oj == 0)
    for x in range(alg.n):
        yield (lambda: f"principal ideal of {alg.names[x]} maps to its coannulet",
               omega_filter(alg, alg.down[x]) == coannulet(alg, x))
    view = omega_filter_lattice(alg)
    yield lambda: "omega filters form a bounded distributive lattice", \
        is_distributive(view)
    yield lambda: "omega filters coincide with the coannulets here", \
        omega_family(alg) == coannulet_family(alg)


@law("nilpotents-and-center", "coannihilators",
     "nilpotents form an ideal touching the center only at the bottom")
def _nilpotents_and_center(alg):
    nil = alg.nilpotents
    yield lambda: "bottom is nilpotent", contains(nil, alg.bottom)
    yield lambda: "nilpotents form an ideal", is_lattice_ideal(alg, nil)
    yield lambda: "center meets nilpotents only at bottom", \
        alg.boolean_center & nil == singleton(alg.bottom)
    for e in elements(alg.boolean_center):
        yield (lambda: f"powers of central {alg.names[e]} are constant",
               all(alg.power(e, k) == e for k in range(1, alg.n + 2)))


# -- section: structure maps and classification ----------------------------

@law("principal-filter-map", "maps",
     "sending an element to its filter reverses order onto the filter lattice")
def _principal_filter_map(alg):
    maps = structure_maps(alg)
    m = maps["element to principal filter"]
    yield lambda: "order reversing homomorphism onto the filter lattice", \
        m.kind == "dual lattice homomorphism" and m.surjective
    yield lambda: "kernel quotient transports", \
        kernel_transports(element_lattice(alg), m.images,
                          filter_lattice(alg), dual=True)


@law("coannulet-map", "maps",
     "sending an element to its coannulet preserves order and factors through filters")
def _coannulet_map(alg):
    maps = structure_maps(alg)
    m = maps["element to coannulet"]
    yield lambda: "order preserving homomorphism onto the coannulets", \
        m.kind == "lattice homomorphism" and m.surjective
    yield lambda: "kernel quotient transports", \
        kernel_transports(element_lattice(alg), m.images,
                          coannulet_lattice(alg), dual=False)
    for x in range(alg.n):
        f = principal_filter(alg, x)
        yield (lambda: f"factors through the filter of {alg.names[x]}",
               coannulet(alg, principal_generator(alg, f)) == coannulet(alg, x))


@law("kernel-classes-at-bounds", "maps",
     "kernel classes at the bounds pick out dense elements and dense filters")
def _kernel_classes_at_bounds(alg):
    cong = element_kernel_by_coannulet(alg)
    spectral = filter_kernel_spectral(alg)
    fl = filter_lattice(alg)
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


@law("filter-to-cohull-map", "maps",
     "sending a filter to its cohull preserves joins and meets of filters")
def _filter_to_cohull_map(alg):
    maps = structure_maps(alg)
    m = maps["filter to cohull"]
    yield lambda: "order preserving homomorphism onto the cohulls", \
        m.kind == "lattice homomorphism" and m.surjective
    fam = all_filters(alg)
    cohulls = [cohull(alg, f) for f in fam]
    for f, cf in zip(fam, cohulls):
        for g, cg in zip(fam, cohulls):
            yield (lambda: f"join goes to union at ({alg.subset_str(f)}, "
                   f"{alg.subset_str(g)})",
                   cohull(alg, filter_join(alg, f, g)) == (cf | cg))
            yield (lambda: f"meet goes to intersection at ({alg.subset_str(f)}, "
                   f"{alg.subset_str(g)})",
                   cohull(alg, f & g) == (cf & cg))


@law("generator-coannulet-map", "maps",
     "sending a filter to its generator's coannulet reverses order coherently")
def _generator_coannulet_map(alg):
    maps = structure_maps(alg)
    m = maps["filter to generator coannulet"]
    fl = filter_lattice(alg)
    yield lambda: "order reversing homomorphism onto the coannulets", \
        m.kind == "dual lattice homomorphism" and m.surjective
    yield lambda: "kernels by cohull and by generator coannulet coincide", \
        kernel_partition(fl, m.images) == filter_kernel_spectral(alg) and \
        kernel_transports(fl, m.images, coannulet_lattice(alg), dual=True)


@law("point-translations", "maps",
     "cohulls, hulls, and coannulets translate into each other bijectively")
def _point_translations(alg):
    maps = structure_maps(alg)
    yield lambda: "cohull to hull translation is a bijection", \
        maps["cohull to hull"].bijective
    yield lambda: "coannulet to hull translation is a bijection", \
        maps["coannulet to hull"].bijective
    yield lambda: "hull lattice matches cohull lattice in size", \
        hull_lattice(alg).n == cohull_lattice(alg).n


@statement("quasicomplemented-equivalences", "classification",
           "the quasicomplementation characterizations stand or fall together")
def _quasicomplemented_equivalences(alg):
    return _equiv(classification(alg).routes["quasicomplemented"],
                  note="every finite algebra qualifies")


@statement("disjunctive-equivalences", "classification",
           "injectivity of the coannulet map has equivalent forms")
def _disjunctive_equivalences(alg):
    return _equiv(classification(alg).routes["disjunctive"])


@statement("weakly-disjunctive-equivalences", "classification",
           "the weak disjunctivity characterizations stand or fall together")
def _weakly_disjunctive_equivalences(alg):
    return _equiv(classification(alg).routes["weakly disjunctive"])


@statement("disjunctive-implies-weakly", "classification",
           "disjunctive algebras are weakly disjunctive")
def _disjunctive_implies_weakly(alg):
    res = classification(alg)
    sides = (("disjunctive", res.disjunctive),
             ("weakly disjunctive", res.weakly_disjunctive))
    passed = (not res.disjunctive) or res.weakly_disjunctive
    witness = "implication holds" if passed else "disjunctive yet not weakly so"
    return sides, passed, witness


@statement("boolean-element-lattice-equivalence", "classification",
           "a Boolean element lattice means quasicomplemented plus disjunctive")
def _boolean_element_lattice_equivalence(alg):
    res = classification(alg)
    return _equiv((
        ("element lattice is Boolean", res.lattice_boolean),
        ("quasicomplemented and disjunctive",
         res.quasicomplemented and res.disjunctive),
    ))


@statement("boolean-filter-lattice-equivalence", "classification",
           "a Boolean filter lattice means quasicomplemented plus weakly disjunctive")
def _boolean_filter_lattice_equivalence(alg):
    res = classification(alg)
    return _equiv(res.routes["filter lattice Boolean"])


# -- section: alpha filters and the spectrum -------------------------------

@law("alpha-closure-laws", "alpha",
     "closing filters under double coannihilators is a meet preserving closure")
def _alpha_closure_laws(alg):
    """Checked on filters, as the closure of a subset is the closure of
    the filter it generates; monotony is meet preservation at F <= G."""
    fam = alpha_family(alg)
    yield (lambda: "trivial filter is closed",
           alpha_closure(alg, singleton(alg.top)) == singleton(alg.top))
    yield (lambda: "whole carrier is closed",
           alpha_closure(alg, alg.universe) == alg.universe)
    filters = all_filters(alg)
    closures = [alpha_closure(alg, f) for f in filters]
    for f, c in zip(filters, closures):
        yield lambda: f"extensive at {alg.subset_str(f)}", f & ~c == 0
        yield (lambda: f"idempotent at {alg.subset_str(f)}",
               alpha_closure(alg, c) == c)
        yield (lambda: f"closure of {alg.subset_str(f)} lands in the family",
               c in fam)
        for g, cg in zip(filters, closures):
            yield (lambda: f"meets preserved at ({alg.subset_str(f)}, "
                           f"{alg.subset_str(g)})",
                   alpha_closure(alg, f & g) == c & cg)
    for u in coannihilator_family(alg):
        yield (lambda: f"coannihilator {alg.subset_str(u)} is closed",
               u in fam)


@law("alpha-frame-structure", "alpha",
     "the closed filters form a frame with a Heyting implication")
def _alpha_frame_structure(alg):
    fam = alpha_family(alg)
    yield lambda: "family is a frame", is_distributive(alpha_lattice(alg))
    yield (lambda: "lattice of closed filters builds",
           alpha_lattice(alg).n == len(fam))
    for f in fam:
        for g in fam:
            yield (lambda: f"intersection closed at ({alg.subset_str(f)}, "
                   f"{alg.subset_str(g)})", f & g in fam)
            h = heyting_implication(alg, f, g)
            for cand in fam:
                yield (lambda: f"implication adjunction at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)}, {alg.subset_str(cand)})",
                       (cand & ~h == 0) == (f & cand & ~g == 0))


@law("alpha-extension-law", "alpha",
     "closed extensions obey the closed form and meet along joins")
def _alpha_extension_law(alg):
    rng = range(alg.n)
    for q in alpha_family(alg):
        exts = [alpha_extend(alg, q, a) for a in rng]
        for a, ext_a in enumerate(exts):
            yield (lambda: f"extension of {alg.subset_str(q)} by {alg.names[a]}",
                   ext_a == alpha_closure(alg, q | singleton(a)))
            for b, j in enumerate(alg.join[a]):
                yield (lambda: f"extension meets at ({alg.subset_str(q)}, "
                       f"{alg.names[a]}, {alg.names[b]})",
                       ext_a & exts[b] == exts[j])


@law("transfer-isomorphism", "alpha",
     "closed filters and lattice filters of coannulets translate both ways")
def _transfer_isomorphism(alg):
    yield lambda: "round trips and adjunction", transfer_roundtrip_check(alg)
    yield lambda: "families have equal size", \
        len(view_filters(coannulet_lattice(alg))) == len(alpha_family(alg))


def _prime_in_alpha_lattice(fam, mask):
    """No two alpha filters, neither inside the filter, meet inside it."""
    return not any(f & ~mask and g & ~mask and f & g & ~mask == 0
                   for f in fam for g in fam)


def _alpha_meet_irreducible(fam, mask):
    return not any(f & g == mask and f != mask and g != mask
                   for f in fam for g in fam)


def _prime_coannulet_image(alg, mask):
    """The coannulets of the members form a prime lattice filter of the
    coannulet lattice."""
    view = coannulet_lattice(alg)
    img = perp_image(alg, mask)
    return img != full_set(view.n) and not any(
        contains(img, view.join[i][j]) and not contains(img, i)
        and not contains(img, j) for i in range(view.n) for j in range(view.n))


@law("prime-alpha-four-way", "alpha",
     "primality among closed filters has four agreeing faces")
def _prime_alpha_four_way(alg):
    fam = alpha_family(alg)
    primes = prime_alpha_filters(alg)
    for f in fam:
        if f == alg.universe:
            continue
        yield (lambda: f"four routes agree at {alg.subset_str(f)}",
               is_prime_alpha(alg, f) == _prime_in_alpha_lattice(fam, f)
               == _alpha_meet_irreducible(fam, f)
               == _prime_coannulet_image(alg, f))
        inter = alg.universe
        for p in primes:
            if f & ~p == 0:
                inter &= p
        yield (lambda: f"{alg.subset_str(f)} is the meet of primes above it",
               inter == f)
    for q in fam:
        for c in elements(alg.universe & ~q):
            p = alpha_separate(alg, q, c)
            yield (lambda: f"separation of {alg.subset_str(q)} from "
                   f"{alg.subset_str(alg.down[c])} lands on a prime",
                   p in primes and p & alg.down[c] == 0 and q & ~p == 0)


@statement("prime-alpha-are-minimal-primes", "alpha",
           "the prime closed filters are exactly the minimal primes")
def _prime_alpha_are_minimal(alg):
    return _equiv((
        ("prime closed filters are the minimal primes",
         prime_alpha_filters(alg) == minimal_primes(alg)),
        ("every minimal prime is closed",
         all(is_alpha_filter(alg, m) for m in minimal_primes(alg))),
    ))


@law("alpha-closure-via-points", "alpha",
     "the closure of a filter is the meet of the minimal primes above it")
def _alpha_closure_via_points(alg):
    for f in all_filters(alg):
        yield (lambda: f"closure of {alg.subset_str(f)} from the points",
               alpha_closure(alg, f) == kernel_filter(alg, hull(alg, f)))


@law("spectrum-topology", "topology",
     "the minimal prime space is a compact zero dimensional patch")
def _spectrum_topology(alg):
    th = hull_topology(alg)
    td = dual_hull_topology(alg)
    yield lambda: "hull and dual hull topologies coincide", topologies_equal(alg)
    yield lambda: "zero dimensional", is_zero_dimensional(th)
    yield lambda: "totally disconnected", is_totally_disconnected(th)
    yield lambda: "compact", is_compact(th)
    yield lambda: "dual compact", is_compact(td)
    space = full_set(len(minimal_primes(alg)))
    for s in range(space + 1):
        pts = hull(alg, kernel_filter(alg, s))
        yield (lambda: f"hull of kernel returns point set {s:b}", pts == s)


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
    return tuple((ident, text, group) for ident, text, group, _ in REGISTRY)


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
    for ident, text, group, check in REGISTRY:
        if idents is not None and ident not in idents:
            continue
        if groups is not None and group not in groups:
            continue
        sides, passed, witness = check(alg)
        out.append(TheoremReport(ident, text, tuple(sides), passed, witness))
    return tuple(out)
