"""Structure maps between the derived lattices, and global classification.

Six maps tie the element lattice, the filter lattice, the coannulet
lattice, and the point-set lattices over the minimal primes together.
``structure_maps`` declares each in one row and reports it with its
image of every domain node and the kind it is observed to have (order
preserving or order reversing homomorphism, by
``views.is_homomorphism``), and two of them get their kernel
partitions.  Each class verdict at the bottom is a function of its own
name that decides it by one route, the cheapest, and ``VERDICTS`` lists
them once.  ``classification`` evaluates every route of every verdict
and reports them side by side without comparing them: comparing the
routes is the statement suite's job, and it reports a disagreement as a
failure with its witness.

Classification reads its three injectivity routes off the image lists
themselves (the coannulet of each element, the cohull of each filter,
the coannulet of each filter's generator), so it never builds a map
report; ``structure_maps`` serves the reports that print the maps and
the statements that read their images.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .alpha import is_alpha_filter
from .coann import coannulet_lattice
from .filters import (
    all_filters,
    filter_join,
    principal_filter,
    principal_generator,
)
from .record import Record
from .spectrum import (
    cohull,
    dual_hull_topology,
    hull,
    hull_topology,
    is_minimal_prime,
    minimal_primes,
    prime_filters,
    topologies_equal,
)
from .subsets import contains, elements, full_set, singleton
from .views import (
    Congruence,
    LatticeView,
    build_view,
    is_boolean,
    is_homomorphism,
    kernel_partition,
    quotient_view,
    view_from_tables,
)

HOM = "lattice homomorphism"
DUAL_HOM = "dual lattice homomorphism"


class MapReport(Record):
    """One structure map: what it preserves, how it sorts, and the
    codomain key of each domain node."""

    name: str
    kind: str
    injective: bool
    surjective: bool
    images: tuple[object, ...]

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


@derived
def element_lattice(alg: ResiduatedLattice) -> LatticeView:
    """The order reduct of the algebra itself, nodes keyed by index."""
    return view_from_tables("elements", range(alg.n), alg.join, alg.meet)


@derived
def filter_lattice(alg: ResiduatedLattice) -> LatticeView:
    """All filters under inclusion: meet is intersection, join is the
    generated filter of the union."""
    return build_view("filters", all_filters(alg),
                      lambda f, g: filter_join(alg, f, g), lambda f, g: f & g)


@derived
def hull_lattice(alg: ResiduatedLattice) -> LatticeView:
    """Hulls of single elements as point sets over the minimal primes:
    the opens of the dual hull topology, under union and intersection."""
    return build_view("hulls", dual_hull_topology(alg).opens,
                      lambda u, v: u | v, lambda u, v: u & v)


@derived
def cohull_lattice(alg: ResiduatedLattice) -> LatticeView:
    """Complements of the hulls, the opens of the hull topology, again
    under union and intersection."""
    return build_view("cohulls", hull_topology(alg).opens,
                      lambda u, v: u | v, lambda u, v: u & v)


def _map_report(name, domain, codomain, dual, images) -> MapReport:
    """Package a node-indexed image list with the kind it is observed to
    have: a lattice homomorphism, or with dual set one that turns joins
    into meets and meets into joins."""
    pos = [codomain.index(img) for img in images]
    kind = DUAL_HOM if dual else HOM
    if not is_homomorphism(domain, codomain, pos, dual):
        kind = f"not a {kind}"
    hit = len(set(pos))
    return MapReport(name=name, kind=kind, injective=hit == domain.n,
                     surjective=hit == codomain.n, images=tuple(images))


@derived
def structure_maps(alg: ResiduatedLattice) -> dict[str, MapReport]:
    """The six maps with their observed kinds."""
    el = element_lattice(alg)
    fl = filter_lattice(alg)
    gam = coannulet_lattice(alg)
    hl = hull_lattice(alg)
    dl = cohull_lattice(alg)

    to_perp = alg.coannulets
    space = full_set(len(minimal_primes(alg)))
    hull_of_perp = {to_perp[x]: hull(alg, singleton(x)) for x in range(alg.n)}
    rows = (
        ("element to principal filter", el, fl, True,
         [principal_filter(alg, x) for x in range(alg.n)]),
        ("element to coannulet", el, gam, False, to_perp),
        ("filter to cohull", fl, dl, False, [cohull(alg, f) for f in fl.keys]),
        ("filter to generator coannulet", fl, gam, True,
         [to_perp[principal_generator(alg, f)] for f in fl.keys]),
        ("cohull to hull", dl, hl, True, [space & ~d for d in dl.keys]),
        ("coannulet to hull", gam, hl, False, [hull_of_perp[p] for p in gam.keys]),
    )
    return {row[0]: _map_report(*row) for row in rows}


# -- kernel partitions -----------------------------------------------------

@derived
def element_kernel_by_coannulet(alg: ResiduatedLattice) -> Congruence:
    """Elements sharing a coannulet; quotient is the coannulet lattice."""
    return kernel_partition(element_lattice(alg), alg.coannulets)


@derived
def filter_kernel_spectral(alg: ResiduatedLattice) -> Congruence:
    """Filters with equal cohull; coincides with the generator
    coannulet kernel, and the quotient is the coannulet lattice
    upside down."""
    fl = filter_lattice(alg)
    return kernel_partition(fl, [cohull(alg, f) for f in fl.keys])


def congruence_classes_named(alg: ResiduatedLattice, cong: Congruence,
                             view: LatticeView) -> tuple[tuple[str, ...], ...]:
    """Readable class lists for reports."""
    def label(key):
        if view.name == "elements":
            return alg.names[key]
        return alg.subset_str(key)
    return tuple(tuple(label(view.keys[i]) for i in cls) for cls in cong.classes)


# -- classification --------------------------------------------------------

class ClassificationResult(Record):
    """Verdicts with every route's answer retained."""

    quasicomplemented: bool
    disjunctive: bool
    weakly_disjunctive: bool
    lattice_boolean: bool
    filter_lattice_boolean: bool
    routes: dict[str, tuple[tuple[str, bool], ...]]


def _injective(images) -> bool:
    return len(set(images)) == len(images)


def _join_complement_with_dense_meet(alg: ResiduatedLattice, x: int) -> bool:
    return any(contains(alg.dense_elements, alg.meet[x][y])
               for y in elements(alg.coannulets[x]))


def _primes_without_dense_are_minimal(alg: ResiduatedLattice) -> bool:
    for p in prime_filters(alg):
        if p & alg.dense_elements == 0 and not is_minimal_prime(alg, p):
            return False
    return True


# -- one verdict at a time -------------------------------------------------
# Each verdict below is decided by one route of ``classification``, the
# cheapest when each route is timed alone over the 889 algebras with
# n <= 7 and the 4,712 with n = 8; ``classification`` calls it for that
# route, and every caller that needs only the verdict calls it.

@derived
def quasicomplemented(alg: ResiduatedLattice) -> bool:
    """Route: every element has a coannulet matching its double
    coannihilator."""
    return all(d in alg.coannulets for d in alg.double_coannulets)


@derived
def disjunctive(alg: ResiduatedLattice) -> bool:
    """Route: the element to coannulet map is injective."""
    return _injective(alg.coannulets)


@derived
def weakly_disjunctive(alg: ResiduatedLattice) -> bool:
    """Route: the filter to generator coannulet map is injective."""
    return _injective([alg.coannulets[principal_generator(alg, f)]
                       for f in all_filters(alg)])


@derived
def lattice_boolean(alg: ResiduatedLattice) -> bool:
    """Route: negation complements every element."""
    return all(alg.meet[x][alg.neg(x)] == alg.bottom
               and alg.join[x][alg.neg(x)] == alg.top for x in range(alg.n))


@derived
def filter_lattice_boolean(alg: ResiduatedLattice) -> bool:
    """Route: every element has a join complement with nilpotent
    product."""
    return all(any(contains(alg.nilpotents, alg.prod[x][y])
                   for y in elements(alg.coannulets[x]))
               for x in range(alg.n))


VERDICTS = {
    "quasicomplemented": quasicomplemented,
    "disjunctive": disjunctive,
    "weakly_disjunctive": weakly_disjunctive,
    "lattice_boolean": lattice_boolean,
    "filter_lattice_boolean": filter_lattice_boolean,
}


@derived
def classification(alg: ResiduatedLattice) -> ClassificationResult:
    filters = all_filters(alg)
    routes: dict[str, tuple[tuple[str, bool], ...]] = {}

    # Every finite algebra is quasicomplemented, and each route below
    # says yes on it, so a "no" is a bug:
    # - x^perp & y^perp = (x*y)^perp, so the coannihilator of a set is
    #   the coannulet of its product, and every coannihilator (the
    #   double coannihilator of x among them) is a coannulet;
    # - x^perp is a finite filter, so it is principal, generated by some
    #   g; then x v g is top, and a v (x ^ g) = top puts a in x^perp,
    #   so a >= g and a is top: x ^ g is dense;
    # - the coannihilators are the regular members of the filter frame,
    #   so they form a Boolean lattice, and they are the coannulets; the
    #   element quotient is that lattice and the filter quotient is that
    #   lattice upside down;
    # - in a prime P without dense elements, each x in P has the g above
    #   outside P (or x ^ g would be in P), so x^perp is not inside P,
    #   which makes P minimal;
    # - each minimal prime is principal, generated by some a, and the
    #   hull of a is that point alone, so both topologies are discrete.
    routes["quasicomplemented"] = (
        ("every element has a coannulet matching its double coannihilator",
         quasicomplemented(alg)),
        ("every element has a join complement with dense meet",
         all(_join_complement_with_dense_meet(alg, x) for x in range(alg.n))),
        ("coannulet lattice is Boolean", is_boolean(coannulet_lattice(alg))),
        ("element quotient by shared coannulet is Boolean",
         is_boolean(quotient_view(element_lattice(alg),
                                  element_kernel_by_coannulet(alg)))),
        ("filter quotient by shared cohull is Boolean",
         is_boolean(quotient_view(filter_lattice(alg),
                                  filter_kernel_spectral(alg)))),
        ("primes without dense elements are minimal",
         _primes_without_dense_are_minimal(alg)),
        ("hull and dual hull topologies coincide", topologies_equal(alg)),
    )

    kernel = element_kernel_by_coannulet(alg)
    routes["disjunctive"] = (
        ("element to coannulet map is injective", disjunctive(alg)),
        ("shared coannulet classes are singletons",
         all(len(c) == 1 for c in kernel.classes)),
    )

    spectral = filter_kernel_spectral(alg)
    routes["weakly disjunctive"] = (
        ("filter to cohull map is injective",
         _injective([cohull(alg, f) for f in filters])),
        ("filter to generator coannulet map is injective",
         weakly_disjunctive(alg)),
        ("equal cohull classes are singletons",
         all(len(c) == 1 for c in spectral.classes)),
        ("every filter swallows double coannihilators",
         all(is_alpha_filter(alg, f) for f in filters)),
        ("every prime filter swallows double coannihilators",
         all(is_alpha_filter(alg, p) for p in prime_filters(alg))),
    )

    routes["lattice Boolean"] = (
        ("element lattice is complemented and distributive",
         is_boolean(element_lattice(alg))),
        ("negation complements every element", lattice_boolean(alg)),
    )

    routes["filter lattice Boolean"] = (
        ("filter lattice is complemented and distributive",
         is_boolean(filter_lattice(alg))),
        ("every element has a join complement with nilpotent product",
         filter_lattice_boolean(alg)),
        ("quasicomplemented and weakly disjunctive",
         quasicomplemented(alg) and weakly_disjunctive(alg)),
    )

    return ClassificationResult(**{k: v(alg) for k, v in VERDICTS.items()},
                                routes=routes)
