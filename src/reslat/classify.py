"""Structure maps between the derived lattices, and global classification.

Six maps tie the element lattice, the filter lattice, the coannulet
lattice, and the point-set lattices over the minimal primes together.
Each map is materialized with the kind it is observed to have (order
preserving or order reversing homomorphism), and three of them with
their kernel partitions.  The classification at the bottom decides
each class verdict by several independent routes that a run refuses to
let disagree; each verdict also has a function of its own name that
takes one route, the cheapest, for callers such as the search that need
the answer and not the cross-check.

Classification reads its three injectivity routes off the image lists
themselves (the coannulet of each element, the cohull of each filter,
the coannulet of each filter's generator), so it never builds a map
report; ``structure_maps`` serves the reports that print the maps with
their kinds.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .alpha import is_alpha_filter
from .coann import coannulet_lattice, double_coannihilator
from .errors import InternalCheckError
from .filters import (
    all_filters,
    filter_join,
    principal_filter,
    principal_generator,
)
from .record import Record, setfield
from .spectrum import (
    cohull,
    hull,
    is_minimal_prime,
    minimal_primes,
    prime_filters,
    topologies_equal,
)
from .subsets import contains, elements, full_set, singleton, sort_family
from .views import (
    Congruence,
    LatticeView,
    build_view,
    is_boolean,
    kernel_partition,
    quotient_view,
    view_from_tables,
)

HOM = "lattice homomorphism"
DUAL_HOM = "dual lattice homomorphism"


class MapReport(Record):
    """One structure map: what it preserves and how it sorts."""

    _fields = ("name", "kind", "injective", "surjective", "pairs")

    def __init__(self, name: str, kind: str, injective: bool, surjective: bool,
                 pairs: tuple[tuple[object, object], ...]):
        setfield(self, "name", name)
        setfield(self, "kind", kind)
        setfield(self, "injective", injective)
        setfield(self, "surjective", surjective)
        setfield(self, "pairs", pairs)

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
    """Hulls of single elements as point sets over the minimal primes."""
    keys = sort_family(hull(alg, singleton(x)) for x in range(alg.n))
    return build_view("hulls", keys, lambda u, v: u | v, lambda u, v: u & v)


@derived
def cohull_lattice(alg: ResiduatedLattice) -> LatticeView:
    """Complements of the hulls, again under union and intersection."""
    space = full_set(len(minimal_primes(alg)))
    keys = sort_family(space & ~h for h in hull_lattice(alg).keys)
    return build_view("cohulls", keys, lambda u, v: u | v, lambda u, v: u & v)


def _map_report(name, domain, codomain, dual, images) -> MapReport:
    """Package a node-indexed image list with the kind it is observed to
    have: a lattice homomorphism, or with dual set one that turns joins
    into meets and meets into joins."""
    n = domain.n
    pos = [codomain.index(img) for img in images]
    jt, mt = (codomain.meet, codomain.join) if dual else (codomain.join, codomain.meet)
    kind = DUAL_HOM if dual else HOM
    if not all(pos[domain.join[i][j]] == jt[pos[i]][pos[j]]
               and pos[domain.meet[i][j]] == mt[pos[i]][pos[j]]
               for i in range(n) for j in range(n)):
        kind = f"not a {kind}"
    return MapReport(
        name=name,
        kind=kind,
        injective=len(set(pos)) == n,
        surjective=set(pos) == set(range(codomain.n)),
        pairs=tuple((domain.keys[i], codomain.keys[pos[i]]) for i in range(n)),
    )


@derived
def structure_maps(alg: ResiduatedLattice) -> dict[str, MapReport]:
    """The six maps with their observed kinds."""
    el = element_lattice(alg)
    fl = filter_lattice(alg)
    gam = coannulet_lattice(alg)
    hl = hull_lattice(alg)
    dl = cohull_lattice(alg)

    to_principal = [principal_filter(alg, x) for x in range(alg.n)]
    to_perp = alg.coannulets
    to_cohull = [cohull(alg, f) for f in fl.keys]
    to_gen_perp = [to_perp[principal_generator(alg, f)] for f in fl.keys]
    space = full_set(len(minimal_primes(alg)))
    complement = [space & ~d for d in dl.keys]
    hull_of_perp = {to_perp[x]: hull(alg, singleton(x)) for x in range(alg.n)}
    to_hull = [hull_of_perp[p] for p in gam.keys]

    return {
        "element to principal filter":
            _map_report("element to principal filter", el, fl, True, to_principal),
        "element to coannulet":
            _map_report("element to coannulet", el, gam, False, to_perp),
        "filter to cohull":
            _map_report("filter to cohull", fl, dl, False, to_cohull),
        "filter to generator coannulet":
            _map_report("filter to generator coannulet", fl, gam, True, to_gen_perp),
        "cohull to hull":
            _map_report("cohull to hull", dl, hl, True, complement),
        "coannulet to hull":
            _map_report("coannulet to hull", gam, hl, False, to_hull),
    }


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

    _fields = ("quasicomplemented", "disjunctive", "weakly_disjunctive",
               "lattice_boolean", "filter_lattice_boolean", "routes")

    def __init__(self, quasicomplemented: bool, disjunctive: bool,
                 weakly_disjunctive: bool, lattice_boolean: bool,
                 filter_lattice_boolean: bool,
                 routes: dict[str, tuple[tuple[str, bool], ...]]):
        setfield(self, "quasicomplemented", quasicomplemented)
        setfield(self, "disjunctive", disjunctive)
        setfield(self, "weakly_disjunctive", weakly_disjunctive)
        setfield(self, "lattice_boolean", lattice_boolean)
        setfield(self, "filter_lattice_boolean", filter_lattice_boolean)
        setfield(self, "routes", routes)


def _agree(name, routes) -> bool:
    verdicts = {v for _, v in routes}
    if len(verdicts) != 1:
        detail = ", ".join(f"{label}={v}" for label, v in routes)
        raise InternalCheckError(f"{name} routes disagree: {detail}")
    return verdicts.pop()


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
# route, and a search predicate calls it instead of ``classification``.

@derived
def quasicomplemented(alg: ResiduatedLattice) -> bool:
    """Route: every element has a coannulet matching its double
    coannihilator."""
    return all(double_coannihilator(alg, singleton(x)) in alg.coannulets
               for x in range(alg.n))


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


@derived
def classification(alg: ResiduatedLattice) -> ClassificationResult:
    filters = all_filters(alg)
    routes: dict[str, tuple[tuple[str, bool], ...]] = {}

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
    qc = _agree("quasicomplemented", routes["quasicomplemented"])

    kernel = element_kernel_by_coannulet(alg)
    routes["disjunctive"] = (
        ("element to coannulet map is injective", disjunctive(alg)),
        ("shared coannulet classes are singletons",
         all(len(c) == 1 for c in kernel.classes)),
    )
    disj = _agree("disjunctive", routes["disjunctive"])

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
    wdisj = _agree("weakly disjunctive", routes["weakly disjunctive"])

    routes["lattice Boolean"] = (
        ("element lattice is complemented and distributive",
         is_boolean(element_lattice(alg))),
        ("negation complements every element", lattice_boolean(alg)),
    )
    lb = _agree("lattice Boolean", routes["lattice Boolean"])

    routes["filter lattice Boolean"] = (
        ("filter lattice is complemented and distributive",
         is_boolean(filter_lattice(alg))),
        ("every element has a join complement with nilpotent product",
         filter_lattice_boolean(alg)),
        ("quasicomplemented and weakly disjunctive", qc and wdisj),
    )
    flb = _agree("filter lattice Boolean", routes["filter lattice Boolean"])

    return ClassificationResult(
        quasicomplemented=qc,
        disjunctive=disj,
        weakly_disjunctive=wdisj,
        lattice_boolean=lb,
        filter_lattice_boolean=flb,
        routes=routes,
    )
