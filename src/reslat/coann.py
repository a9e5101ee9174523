"""Coannihilators, lattice ideals, and the filters they induce.

The coannihilator of a subset X collects the elements whose join with
every member of X is top.  Single-element coannihilators (coannulets)
form a lattice; arbitrary ones form a complete Boolean lattice whose
join is the double coannihilator of the union.  Lattice ideals of the
order reduct induce filters of elements with a join-complement witness
in the ideal; those form a bounded distributive lattice.  An ideal holds
the join of its members, so on a finite carrier every ideal is
principal, the down-set of one element, and the ideal a set generates
is the down-set of the set's join.

Several maps here are many-to-one (different ideals can induce the same
filter), so canonical representatives are fixed: the join of omega
filters goes through the largest ideal inducing each operand.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .errors import PreconditionError
from .filters import all_filters, is_filter
from .subsets import elements, singleton, sort_family
from .views import LatticeView, build_view


def coannulet(alg: ResiduatedLattice, x: int) -> int:
    """Elements whose join with x is top."""
    return alg.coannulets[x]


@derived
def coannihilator(alg: ResiduatedLattice, mask: int) -> int:
    """Elements joining every member of the subset to top: the
    intersection of the member coannulets."""
    perps = alg.coannulets
    out = alg.universe
    for x in elements(mask):
        out &= perps[x]
    return out


def double_coannihilator(alg: ResiduatedLattice, mask: int) -> int:
    """Coannihilator of the coannihilator."""
    return coannihilator(alg, coannihilator(alg, mask))


def pseudocomplement_check(alg: ResiduatedLattice, f_mask: int) -> bool:
    """Whether F's coannihilator is its pseudocomplement among filters:
    the largest filter meeting F only in top."""
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(f_mask)}")
    perp = coannihilator(alg, f_mask)
    top_only = singleton(alg.top)
    if f_mask & perp != top_only:
        return False
    for g in all_filters(alg):
        if f_mask & g == top_only and g & ~perp:
            return False
    return True


@derived
def coannulet_family(alg: ResiduatedLattice) -> tuple[int, ...]:
    return sort_family(alg.coannulets)


@derived
def coannihilator_family(alg: ResiduatedLattice) -> tuple[int, ...]:
    """All coannihilators: the coannulets.

    Every coannihilator is an intersection of coannulets, and the
    coannulets are closed under intersection, coann(x) & coann(y) =
    coann(x * y), with the empty intersection, the universe, being
    coann(top).
    """
    return coannulet_family(alg)


@derived
def coannulet_lattice(alg: ResiduatedLattice) -> LatticeView:
    """Coannulets with intersection meet and join through representatives.

    The join of the coannulets of x and y is the coannulet of x v y,
    whichever representatives x and y are taken.
    """
    fam = coannulet_family(alg)
    perps = alg.coannulets
    rep: dict[int, int] = {}
    for x, p in enumerate(perps):
        rep.setdefault(p, x)

    def jn(u, v):
        return perps[alg.join[rep[u]][rep[v]]]

    def mt(u, v):
        return u & v

    return build_view("coannulets", fam, jn, mt)


@derived
def coannihilator_lattice(alg: ResiduatedLattice) -> LatticeView:
    """All coannihilators: meet is intersection, join is the double
    coannihilator of the union."""
    fam = coannihilator_family(alg)

    def jn(u, v):
        return double_coannihilator(alg, u | v)

    def mt(u, v):
        return u & v

    return build_view("coannihilators", fam, jn, mt)


# -- lattice ideals and omega filters --------------------------------------

def is_lattice_ideal(alg: ResiduatedLattice, mask: int) -> bool:
    """Nonempty, downward closed, closed under join: the down-set of the
    join of its members."""
    return mask != 0 and alg.down[alg.join_of(mask)] == mask


@derived
def all_ideals(alg: ResiduatedLattice) -> tuple[int, ...]:
    """Every lattice ideal: the principal down-sets."""
    return sort_family(alg.down[a] for a in range(alg.n))


def ideal_join(alg: ResiduatedLattice, i: int, j: int) -> int:
    """Least ideal containing both: the down-set of the join of the
    union."""
    return alg.down[alg.join_of(i | j)]


def omega_filter(alg: ResiduatedLattice, ideal_mask: int) -> int:
    """Elements with a join-complement witness in the ideal: the union
    of coannulets over the ideal's members, always a filter."""
    if not is_lattice_ideal(alg, ideal_mask):
        raise PreconditionError(f"not a lattice ideal: {alg.subset_str(ideal_mask)}")
    perps = alg.coannulets
    out = 0
    for x in elements(ideal_mask):
        out |= perps[x]
    return out


@derived
def omega_family(alg: ResiduatedLattice) -> tuple[int, ...]:
    return sort_family(omega_filter(alg, i) for i in all_ideals(alg))


@derived
def canonical_ideal_of(alg: ResiduatedLattice, f_mask: int) -> int:
    """The largest ideal inducing the given omega filter: the down-set
    of the join of the elements whose coannulet is F.

    The ideal down-set of a induces coann(a), so the ideals inducing F
    are the down-sets of those elements.  The elements are closed under
    join, coann(a v b) being the join of coann(a) and coann(b) in the
    coannulet lattice, so their join is the largest of them.
    """
    sources = 0
    for a, p in enumerate(alg.coannulets):
        if p == f_mask:
            sources |= singleton(a)
    if not sources:
        raise PreconditionError(f"{alg.subset_str(f_mask)} is not an omega filter")
    return alg.down[alg.join_of(sources)]


@derived
def omega_filter_lattice(alg: ResiduatedLattice) -> LatticeView:
    """Omega filters: meet is intersection, join through canonical ideals.

    That this lattice is distributive is a statement of the suite.
    """
    fam = omega_family(alg)

    def jn(u, v):
        return omega_filter(
            alg, ideal_join(alg, canonical_ideal_of(alg, u), canonical_ideal_of(alg, v)))

    def mt(u, v):
        return u & v

    return build_view("omega-filters", fam, jn, mt)


def proper_omega_no_dense_check(alg: ResiduatedLattice) -> bool:
    """Proper omega filters never contain a dense element."""
    for f in omega_family(alg):
        if f != alg.universe and f & alg.dense_elements:
            return False
    return True
