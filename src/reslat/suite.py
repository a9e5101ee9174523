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

A law's generator yields each instance as ``ok or f"<description>"``:
True when it holds, and otherwise its text, built only then, while the
loop variables it names are current.  An int k stands for k instances
checked at once that all hold.  ``_law`` stops at the first text and
adds every other item to the instance count.

The three laws of the arithmetic section are checked a row at a time:
for one x, every y (and z) at once, with the tables as byte rows
(``algebra.byte_rows``).  A row check holds exactly when every
instance at x holds, and then yields their count.  Only an x whose row
check fails is walked instance by instance, in the order of the full
walk, so the instance count and the first failing instance are those of
walking every instance.
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
    """Universal statement: every instance must hold.

    A str is the text of the first failing instance; any other item, True
    or an int k for k instances that hold, is added to the count.
    """
    count = 0
    for check in checks:
        if type(check) is str:
            return ((("holds", False),), False, f"fails at {check}")
        count += check
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
    """Register a generator yielding ``ok or f"<description>"`` per
    instance (or an int count of instances that hold), judged by _law."""
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
    yield alg.impl[alg.top][x] == x or f"1 -> {alg.names[x]}"
    yield alg.impl[x][alg.top] == alg.top or f"{alg.names[x]} -> 1"
    for y in rng:
        yield (alg.leq(alg.prod[x][alg.impl[x][y]], y)
               or f"{alg.names[x]} * ({alg.names[x]} -> {alg.names[y]})")
        yield (alg.leq(x, y) == (alg.impl[x][y] == alg.top)
               or f"order vs implication at ({alg.names[x]}, {alg.names[y]})")
        yield (alg.leq(y, alg.impl[x][y])
               or f"{alg.names[y]} below {alg.names[x]} -> {alg.names[y]}")
        for z in rng:
            yield (alg.impl[x][alg.impl[y][z]] == alg.impl[alg.prod[x][y]][z]
                   or (f"currying at ({alg.names[x]}, {alg.names[y]}, "
                       f"{alg.names[z]})"))
            yield (alg.leq(alg.prod[alg.impl[x][y]][alg.impl[y][z]],
                           alg.impl[x][z])
                   or (f"implication chain at ({alg.names[x]}, "
                       f"{alg.names[y]}, {alg.names[z]})"))


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
            yield (lhs == rhs
                   or f"{alg.names[x]} * ({alg.names[y]} v {alg.names[z]})")


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
            yield (alg.leq(lhs, rhs)
                   or (f"({alg.names[x]} v {alg.names[y]})^{m + k} vs "
                       f"{alg.names[x]}^{m} v {alg.names[y]}^{k}"))


@law("negation-basics", "arithmetic",
     "negation reverses order and kills products")
def _negation_basics(alg):
    yield alg.neg(alg.bottom) == alg.top or "negation of 0"
    yield alg.neg(alg.top) == alg.bottom or "negation of 1"
    for x in range(alg.n):
        yield (alg.prod[x][alg.neg(x)] == alg.bottom
               or f"{alg.names[x]} * its negation")
        yield (alg.leq(x, alg.neg(alg.neg(x)))
               or f"{alg.names[x]} under double negation")
        yield (alg.neg(alg.neg(alg.neg(x))) == alg.neg(x)
               or f"triple negation of {alg.names[x]}")
        for y in range(alg.n):
            if alg.leq(x, y):
                yield (alg.leq(alg.neg(y), alg.neg(x))
                       or f"negation reverses {alg.names[x]} <= {alg.names[y]}")


@law("center-structure", "arithmetic",
     "complemented idempotents form a Boolean center that absorbs meets")
def _center_structure(alg):
    center = alg.boolean_center
    for e in elements(center):
        yield alg.prod[e][e] == e or f"{alg.names[e]} idempotent"
        yield (alg.join[e][alg.neg(e)] == alg.top
               or f"{alg.names[e]} joins its negation to 1")
        yield (alg.neg(alg.neg(e)) == e
               or f"double negation fixes {alg.names[e]}")
        yield (contains(center, alg.neg(e))
               or f"negation of {alg.names[e]} stays central")
        for x in range(alg.n):
            yield (alg.meet[e][x] == alg.prod[e][x]
                   or f"{alg.names[e]} meet vs product at {alg.names[x]}")
        for f in elements(center):
            yield (contains(center, alg.join[e][f])
                   or (f"center closed under join at ({alg.names[e]}, "
                       f"{alg.names[f]})"))
            yield (contains(center, alg.meet[e][f])
                   or (f"center closed under meet at ({alg.names[e]}, "
                       f"{alg.names[f]})"))


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
            yield (f & g in fam
                   or (f"intersection of {alg.subset_str(f)} and "
                       f"{alg.subset_str(g)}"))
    for mask in map(singleton, range(alg.n)):
        gen_f = generated_filter(alg, mask)
        yield (gen_f in fam
               or f"generated filter of {alg.subset_str(mask)} is a filter")
        yield (mask & ~gen_f == 0
               or f"generation is extensive at {alg.subset_str(mask)}")
        yield (all(not (mask & ~f == 0 and gen_f & ~f) for f in fam)
               or f"generated filter of {alg.subset_str(mask)} is least")


@law("filter-lattice-frame", "filters",
     "the filter lattice is a bounded frame")
def _filter_lattice_frame(alg):
    members = all_filters(alg)
    yield members[0] == singleton(alg.top) or "bottom is the top singleton"
    yield members[-1] == alg.universe or "top is the whole carrier"
    yield (is_distributive(filter_lattice(alg))
           or "meets distribute over every join of subfamilies")


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
        yield (principal[g] == f
               or f"{alg.subset_str(f)} regenerated from {alg.names[g]}")
        for x, gx in enumerate(alg.prod[g]):
            yield (extend_filter(alg, f, x) == principal[gx]
                   or (f"extension of {alg.subset_str(f)} by {alg.names[x]} "
                       f"vs its product"))


@law("filter-extension-law", "filters",
     "adjoining an element yields the closed-form extension, antitone in it")
def _filter_extension_law(alg):
    rng = range(alg.n)
    for f in all_filters(alg):
        exts = [extend_filter(alg, f, x) for x in rng]
        for x, ext in enumerate(exts):
            yield (ext == generated_filter(alg, f | singleton(x))
                   or f"extension of {alg.subset_str(f)} by {alg.names[x]}")
            for y in elements(alg.up[x]):
                yield (exts[y] & ~ext == 0
                       or (f"extension antitone at {alg.names[x]} <= "
                           f"{alg.names[y]}"))


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
        yield elementwise == filterwise or f"pair laws at {alg.subset_str(p)}"
        yield (elementwise == is_prime(alg, p)
               or f"declared verdict at {alg.subset_str(p)}")


@law("maximal-implies-prime", "spectrum",
     "maximal proper filters are prime")
def _maximal_implies_prime(alg):
    for m in maximal_filters(alg):
        yield is_prime(alg, m) or f"{alg.subset_str(m)} prime"
        yield (all(not (m & ~f == 0 and f != m) for f in proper_filters(alg))
               or f"{alg.subset_str(m)} maximal among proper filters")


@law("prime-separation", "spectrum",
     "a filter avoiding a join closed set extends to a prime still avoiding it")
def _prime_separation(alg):
    for f in all_filters(alg):
        for c in elements(alg.universe & ~f):
            p = separate(alg, f, c)
            yield (is_prime(alg, p) and f & ~p == 0 and p & alg.down[c] == 0
                   or (f"separating {alg.subset_str(f)} from "
                       f"{alg.subset_str(alg.down[c])}"))


@law("primes-reach-bottom", "spectrum",
     "every prime contains a minimal prime and the minimal primes meet trivially")
def _primes_reach_bottom(alg):
    mins = minimal_primes(alg)
    for p in prime_filters(alg):
        yield (any(m & ~p == 0 for m in mins)
               or f"{alg.subset_str(p)} contains a minimal prime")
    inter = alg.universe
    for m in mins:
        inter &= m
    yield (inter == singleton(alg.top)
           or "intersection of minimal primes is trivial")


@law("minimal-prime-complement-law", "spectrum",
     "minimality of a prime shows in its complement and in member coannulets")
def _minimal_prime_complement_law(alg):
    for p in prime_filters(alg):
        listed = p in minimal_primes(alg)
        route = is_minimal_prime(alg, p)
        perp_route = all(coannulet(alg, x) & ~p for x in elements(p))
        yield route == listed or f"complement route at {alg.subset_str(p)}"
        yield perp_route == listed or f"coannulet route at {alg.subset_str(p)}"


@law("prime-core-properties", "spectrum",
     "the core of a prime is the filter its complement ideal induces")
def _prime_core_properties(alg):
    for p in prime_filters(alg):
        comp = alg.universe & ~p
        yield (is_lattice_ideal(alg, comp)
               or f"complement of {alg.subset_str(p)} is an ideal")
        core = prime_core(alg, p)
        yield (core == omega_filter(alg, comp)
               or f"core of {alg.subset_str(p)} via its complement ideal")
        inter = alg.universe
        for m in minimal_primes(alg):
            if m & ~p == 0:
                inter &= m
        yield core == inter or f"core of {alg.subset_str(p)} via minimal primes"
        yield core & ~p == 0 or f"core sits inside {alg.subset_str(p)}"


# -- section: coannihilators and omega filters -----------------------------

@law("coannihilator-galois", "coannihilators",
     "the coannihilator operator is an antitone Galois polarity")
def _coannihilator_galois(alg):
    """Checked on elements, and on pairs for antitony: by induction on X,
    X perp is the coannulet of the product of X, since coann(x) & coann(y)
    = coann(x * y) (coannulet-arithmetic)."""
    for x_mask in map(singleton, range(alg.n)):
        perp = coannihilator(alg, x_mask)
        yield (is_filter(alg, perp)
               or f"{alg.subset_str(x_mask)} perp is a filter")
        yield (x_mask & ~double_coannihilator(alg, x_mask) == 0
               or f"{alg.subset_str(x_mask)} inside its double perp")
        yield (coannihilator(alg, double_coannihilator(alg, x_mask)) == perp
               or f"triple perp collapses at {alg.subset_str(x_mask)}")
        yield (coannihilator(alg, generated_filter(alg, x_mask)) == perp
               or f"perp matches generated filter at {alg.subset_str(x_mask)}")
        for y in range(alg.n):
            y_mask = x_mask | singleton(y)
            yield (coannihilator(alg, y_mask) & ~perp == 0
                   or (f"antitone from {alg.subset_str(x_mask)} into "
                       f"{alg.subset_str(y_mask)}"))


@law("coannulet-arithmetic", "coannihilators",
     "coannulets turn joins into joins and products or meets into intersections")
def _coannulet_arithmetic(alg):
    view = coannulet_lattice(alg)
    yield (coannulet(alg, alg.bottom) == singleton(alg.top)
           or "bottom coannulet is trivial")
    yield (coannulet(alg, alg.top) == alg.universe
           or "top coannulet is everything")
    rng = range(alg.n)
    perps = [coannulet(alg, x) for x in rng]
    pos = [view.index(p) for p in perps]
    for x in rng:
        px, jx = perps[x], view.join[pos[x]]
        for y in rng:
            py = perps[y]
            yield (view.keys[jx[pos[y]]] == perps[alg.join[x][y]]
                   or f"join transfers at ({alg.names[x]}, {alg.names[y]})")
            yield (perps[alg.prod[x][y]] == perps[alg.meet[x][y]] == px & py
                   or (f"product and meet agree at ({alg.names[x]}, "
                       f"{alg.names[y]})"))
            if alg.leq(x, y):
                yield (px & ~py == 0
                       or f"monotone at {alg.names[x]} <= {alg.names[y]}")


@law("coannihilator-pseudocomplement", "coannihilators",
     "a filter's coannihilator is its pseudocomplement in the filter lattice")
def _coannihilator_pseudocomplement(alg):
    for f in all_filters(alg):
        yield (pseudocomplement_check(alg, f)
               or f"perp of {alg.subset_str(f)} is its pseudocomplement")


@law("coannihilator-lattice-boolean", "coannihilators",
     "coannihilators form a Boolean lattice with the coannulets inside")
def _coannihilator_lattice_boolean(alg):
    big = coannihilator_lattice(alg)
    yield is_boolean(big) or "coannihilator lattice is Boolean"
    yield (all(big.keys[big.join[i][j]] == double_coannihilator(alg, u | v)
               for i, u in enumerate(big.keys) for j, v in enumerate(big.keys))
           or "coannulets form a bounded sublattice")
    for u in big.keys:
        comp = coannihilator(alg, u)
        i, j = big.index(u), big.index(comp)
        yield (big.keys[big.meet[i][j]] == singleton(alg.top)
               and big.keys[big.join[i][j]] == alg.universe
               or f"perp complements {alg.subset_str(u)}")


@law("coannulet-via-minimal-primes", "coannihilators",
     "a coannulet is the meet of the minimal primes omitting its element")
def _coannulet_via_minimal_primes(alg):
    for x in range(alg.n):
        inter = alg.universe
        for m in minimal_primes(alg):
            if not contains(m, x):
                inter &= m
        yield (coannulet(alg, x) == inter
               or f"coannulet of {alg.names[x]} from the points")


@law("dense-element-characterizations", "coannihilators",
     "trivial coannulet, full double perp, and omission by every point agree")
def _dense_element_characterizations(alg):
    dense = alg.dense_elements
    for x in range(alg.n):
        trivial_perp = coannulet(alg, x) == singleton(alg.top)
        outside_all = all(not contains(m, x) for m in minimal_primes(alg))
        full_dbl = alg.double_coannulets[x] == alg.universe
        yield (trivial_perp == outside_all == full_dbl == contains(dense, x)
               or f"characterizations agree at {alg.names[x]}")
    yield (alg.n == 1 or is_lattice_ideal(alg, dense)
           or "dense elements form an ideal")


@law("proper-coannihilators-avoid-dense", "coannihilators",
     "proper coannihilators and proper omega filters contain no dense element")
def _proper_coannihilators_avoid_dense(alg):
    yield (proper_omega_no_dense_check(alg)
           or "proper omega filters avoid dense elements")
    for u in coannihilator_family(alg):
        if u != alg.universe:
            yield (u & alg.dense_elements == 0
                   or f"proper coannihilator {alg.subset_str(u)} avoids dense")


@law("omega-filter-construction", "coannihilators",
     "ideals induce filters monotonically, principal ideals giving coannulets")
def _omega_filter_construction(alg):
    ideals = all_ideals(alg)
    omegas = [omega_filter(alg, i) for i in ideals]
    for i, oi in zip(ideals, omegas):
        yield (is_filter(alg, oi)
               or f"image of ideal {alg.subset_str(i)} is a filter")
        for j, oj in zip(ideals, omegas):
            if i & ~j == 0:
                yield (oi & ~oj == 0
                       or (f"monotone at {alg.subset_str(i)} in "
                           f"{alg.subset_str(j)}"))
    for x in range(alg.n):
        yield (omega_filter(alg, alg.down[x]) == coannulet(alg, x)
               or f"principal ideal of {alg.names[x]} maps to its coannulet")
    view = omega_filter_lattice(alg)
    yield (is_distributive(view)
           or "omega filters form a bounded distributive lattice")
    yield (omega_family(alg) == coannulet_family(alg)
           or "omega filters coincide with the coannulets here")


@law("nilpotents-and-center", "coannihilators",
     "nilpotents form an ideal touching the center only at the bottom")
def _nilpotents_and_center(alg):
    nil = alg.nilpotents
    yield contains(nil, alg.bottom) or "bottom is nilpotent"
    yield is_lattice_ideal(alg, nil) or "nilpotents form an ideal"
    yield (alg.boolean_center & nil == singleton(alg.bottom)
           or "center meets nilpotents only at bottom")
    for e in elements(alg.boolean_center):
        yield (all(alg.power(e, k) == e for k in range(1, alg.n + 2))
               or f"powers of central {alg.names[e]} are constant")


# -- section: structure maps and classification ----------------------------

@law("principal-filter-map", "maps",
     "sending an element to its filter reverses order onto the filter lattice")
def _principal_filter_map(alg):
    maps = structure_maps(alg)
    m = maps["element to principal filter"]
    yield (m.kind == "dual lattice homomorphism" and m.surjective
           or "order reversing homomorphism onto the filter lattice")
    yield (kernel_transports(element_lattice(alg), m.images,
                             filter_lattice(alg), dual=True)
           or "kernel quotient transports")


@law("coannulet-map", "maps",
     "sending an element to its coannulet preserves order and factors through filters")
def _coannulet_map(alg):
    maps = structure_maps(alg)
    m = maps["element to coannulet"]
    yield (m.kind == "lattice homomorphism" and m.surjective
           or "order preserving homomorphism onto the coannulets")
    yield (kernel_transports(element_lattice(alg), m.images,
                             coannulet_lattice(alg), dual=False)
           or "kernel quotient transports")
    for x in range(alg.n):
        f = principal_filter(alg, x)
        yield (coannulet(alg, principal_generator(alg, f)) == coannulet(alg, x)
               or f"factors through the filter of {alg.names[x]}")


@law("kernel-classes-at-bounds", "maps",
     "kernel classes at the bounds pick out dense elements and dense filters")
def _kernel_classes_at_bounds(alg):
    cong = element_kernel_by_coannulet(alg)
    spectral = filter_kernel_spectral(alg)
    fl = filter_lattice(alg)
    bottom_class = set(cong.class_of(alg.bottom))
    yield (bottom_class == set(elements(alg.dense_elements))
           or "class of 0 is the dense elements")
    yield cong.class_of(alg.top) == (alg.top,) or "class of 1 is alone"
    trivial = fl.index(singleton(alg.top))
    yield (spectral.class_of(trivial) == (trivial,)
           or "class of the trivial filter is alone")
    top_class = {fl.keys[i] for i in spectral.class_of(fl.index(alg.universe))}
    with_dense = {f for f in fl.keys if f & alg.dense_elements}
    yield (top_class == with_dense
           or "class of the full filter holds the dense containing filters")


@law("filter-to-cohull-map", "maps",
     "sending a filter to its cohull preserves joins and meets of filters")
def _filter_to_cohull_map(alg):
    maps = structure_maps(alg)
    m = maps["filter to cohull"]
    yield (m.kind == "lattice homomorphism" and m.surjective
           or "order preserving homomorphism onto the cohulls")
    fam = all_filters(alg)
    cohulls = [cohull(alg, f) for f in fam]
    for f, cf in zip(fam, cohulls):
        for g, cg in zip(fam, cohulls):
            yield (cohull(alg, filter_join(alg, f, g)) == (cf | cg)
                   or (f"join goes to union at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})"))
            yield (cohull(alg, f & g) == (cf & cg)
                   or (f"meet goes to intersection at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})"))


@law("generator-coannulet-map", "maps",
     "sending a filter to its generator's coannulet reverses order coherently")
def _generator_coannulet_map(alg):
    maps = structure_maps(alg)
    m = maps["filter to generator coannulet"]
    fl = filter_lattice(alg)
    yield (m.kind == "dual lattice homomorphism" and m.surjective
           or "order reversing homomorphism onto the coannulets")
    yield (kernel_partition(fl, m.images) == filter_kernel_spectral(alg)
           and kernel_transports(fl, m.images, coannulet_lattice(alg), dual=True)
           or "kernels by cohull and by generator coannulet coincide")


@law("point-translations", "maps",
     "cohulls, hulls, and coannulets translate into each other bijectively")
def _point_translations(alg):
    maps = structure_maps(alg)
    yield (maps["cohull to hull"].bijective
           or "cohull to hull translation is a bijection")
    yield (maps["coannulet to hull"].bijective
           or "coannulet to hull translation is a bijection")
    yield (hull_lattice(alg).n == cohull_lattice(alg).n
           or "hull lattice matches cohull lattice in size")


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
    yield (alpha_closure(alg, singleton(alg.top)) == singleton(alg.top)
           or "trivial filter is closed")
    yield (alpha_closure(alg, alg.universe) == alg.universe
           or "whole carrier is closed")
    filters = all_filters(alg)
    closures = [alpha_closure(alg, f) for f in filters]
    for f, c in zip(filters, closures):
        yield f & ~c == 0 or f"extensive at {alg.subset_str(f)}"
        yield alpha_closure(alg, c) == c or f"idempotent at {alg.subset_str(f)}"
        yield c in fam or f"closure of {alg.subset_str(f)} lands in the family"
        for g, cg in zip(filters, closures):
            yield (alpha_closure(alg, f & g) == c & cg
                   or (f"meets preserved at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})"))
    for u in coannihilator_family(alg):
        yield u in fam or f"coannihilator {alg.subset_str(u)} is closed"


@law("alpha-frame-structure", "alpha",
     "the closed filters form a frame with a Heyting implication")
def _alpha_frame_structure(alg):
    fam = alpha_family(alg)
    yield is_distributive(alpha_lattice(alg)) or "family is a frame"
    yield alpha_lattice(alg).n == len(fam) or "lattice of closed filters builds"
    for f in fam:
        for g in fam:
            yield (f & g in fam
                   or (f"intersection closed at ({alg.subset_str(f)}, "
                       f"{alg.subset_str(g)})"))
            h = heyting_implication(alg, f, g)
            for cand in fam:
                yield ((cand & ~h == 0) == (f & cand & ~g == 0)
                       or (f"implication adjunction at ({alg.subset_str(f)}, "
                           f"{alg.subset_str(g)}, {alg.subset_str(cand)})"))


@law("alpha-extension-law", "alpha",
     "closed extensions obey the closed form and meet along joins")
def _alpha_extension_law(alg):
    rng = range(alg.n)
    for q in alpha_family(alg):
        exts = [alpha_extend(alg, q, a) for a in rng]
        for a, ext_a in enumerate(exts):
            yield (ext_a == alpha_closure(alg, q | singleton(a))
                   or f"extension of {alg.subset_str(q)} by {alg.names[a]}")
            for b, j in enumerate(alg.join[a]):
                yield (ext_a & exts[b] == exts[j]
                       or (f"extension meets at ({alg.subset_str(q)}, "
                           f"{alg.names[a]}, {alg.names[b]})"))


@law("transfer-isomorphism", "alpha",
     "closed filters and lattice filters of coannulets translate both ways")
def _transfer_isomorphism(alg):
    yield transfer_roundtrip_check(alg) or "round trips and adjunction"
    yield (len(view_filters(coannulet_lattice(alg))) == len(alpha_family(alg))
           or "families have equal size")


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
        yield (is_prime_alpha(alg, f) == _prime_in_alpha_lattice(fam, f)
               == _alpha_meet_irreducible(fam, f)
               == _prime_coannulet_image(alg, f)
               or f"four routes agree at {alg.subset_str(f)}")
        inter = alg.universe
        for p in primes:
            if f & ~p == 0:
                inter &= p
        yield (inter == f
               or f"{alg.subset_str(f)} is the meet of primes above it")
    for q in fam:
        for c in elements(alg.universe & ~q):
            p = alpha_separate(alg, q, c)
            yield (p in primes and p & alg.down[c] == 0 and q & ~p == 0
                   or (f"separation of {alg.subset_str(q)} from "
                       f"{alg.subset_str(alg.down[c])} lands on a prime"))


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
        yield (alpha_closure(alg, f) == kernel_filter(alg, hull(alg, f))
               or f"closure of {alg.subset_str(f)} from the points")


@law("spectrum-topology", "topology",
     "the minimal prime space is a compact zero dimensional patch")
def _spectrum_topology(alg):
    th = hull_topology(alg)
    td = dual_hull_topology(alg)
    yield topologies_equal(alg) or "hull and dual hull topologies coincide"
    yield is_zero_dimensional(th) or "zero dimensional"
    yield is_totally_disconnected(th) or "totally disconnected"
    yield is_compact(th) or "compact"
    yield is_compact(td) or "dual compact"
    space = full_set(len(minimal_primes(alg)))
    for s in range(space + 1):
        pts = hull(alg, kernel_filter(alg, s))
        yield pts == s or f"hull of kernel returns point set {s:b}"


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
