"""Prime filters, separation, minimal primes, and the point topologies.

A proper filter is prime when membership of a join forces membership of
an operand.  The spectrum, its maximal and minimal members, and the two
topologies on the minimal points (closed basis of hulls, and the dual
with hulls open) are all materialized since the carrier is finite.

Both topologies are read off the hulls of single elements, which need
no closure: they already hold the empty set and the whole space and
are closed under union and intersection.

- hull(x) | hull(y) == hull(x v y), because every point is prime;
- hull(x) & hull(y) == hull(x * y), because every point is a filter;
- hull(bottom) is empty when n > 1, and hull(top) is the whole space.

Point subsets live over the canonical minimal-prime ordering, so the
same subset of points always prints the same way.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .errors import PreconditionError
from .filters import all_filters, extend_filter, is_filter
from .record import Record
from .subsets import contains, elements, full_set, singleton, sort_family


@derived
def is_prime(alg: ResiduatedLattice, mask: int) -> bool:
    """Primality of a proper filter.

    The filter fails as soon as some x v y lies in it with neither x
    nor y in it, so only the elements outside the filter are scanned.
    """
    if not is_filter(alg, mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(mask)}")
    if mask == alg.universe:
        raise PreconditionError("primality is only defined for proper filters")
    outside = tuple(elements(alg.universe & ~mask))
    for x in outside:
        row = alg.join[x]
        for y in outside:
            if mask >> row[y] & 1:
                return False
    return True


@derived
def prime_filters(alg: ResiduatedLattice) -> tuple[int, ...]:
    return sort_family(f for f in all_filters(alg)
                       if f != alg.universe and is_prime(alg, f))


@derived
def maximal_filters(alg: ResiduatedLattice) -> tuple[int, ...]:
    props = [f for f in all_filters(alg) if f != alg.universe]
    return sort_family(f for f in props
                       if not any(f != g and f & g == f for g in props))


@derived
def minimal_primes(alg: ResiduatedLattice) -> tuple[int, ...]:
    ps = prime_filters(alg)
    return sort_family(p for p in ps
                       if not any(q != p and q & p == q for q in ps))


def separate(alg: ResiduatedLattice, f_mask: int, c: int) -> int:
    """A prime filter containing F, avoiding the element c, and maximal
    with that property.

    This is separation from a join-closed set C as well: on a finite
    carrier C holds the join c of its members, and a filter, being an
    up-set, meets C exactly when it holds c, so avoiding C, avoiding c
    and avoiding the down-set of c are one condition.

    Greedy: absorb each element in carrier order whose extension still
    avoids c.  One pass suffices: extensions only grow with the filter,
    so an element once refused stays refused.  The loop order makes the
    choice among maximal solutions deterministic.
    """
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(f_mask)}")
    if contains(f_mask, c):
        raise PreconditionError(f"filter contains the avoided element {alg.names[c]}")

    cur = f_mask
    for x in range(alg.n):
        if not contains(cur, x):
            ext = extend_filter(alg, cur, x)
            if not contains(ext, c):
                cur = ext
    return cur


def is_minimal_prime(alg: ResiduatedLattice, p_mask: int) -> bool:
    """Minimality via the complement route.

    A prime is minimal exactly when its complement is a maximal
    join-closed set avoiding top: the complement cannot absorb any
    member (other than top) and stay join-closed without reaching top.
    The join closure of a finite set reaches top exactly when the join
    of all its members is top.
    """
    if not is_prime(alg, p_mask):
        raise PreconditionError(f"not a prime filter: {alg.subset_str(p_mask)}")
    comp = alg.universe & ~p_mask
    for x in elements(p_mask & ~singleton(alg.top)):
        if alg.join_of(comp | singleton(x)) != alg.top:
            return False
    return True


def prime_core(alg: ResiduatedLattice, p_mask: int) -> int:
    """Elements with a join-complement outside the prime filter.

    Computed as the union of coannulets of the complement, which is a
    lattice ideal for a prime filter.
    """
    if not is_prime(alg, p_mask):
        raise PreconditionError(f"not a prime filter: {alg.subset_str(p_mask)}")
    comp = alg.universe & ~p_mask
    out = 0
    for x in elements(comp):
        for a in range(alg.n):
            if alg.join[a][x] == alg.top:
                out |= singleton(a)
    return out


# -- hulls and the point topologies ----------------------------------------

def hull(alg: ResiduatedLattice, x_mask: int) -> int:
    """Points (minimal primes, canonical order) containing the subset."""
    pts = minimal_primes(alg)
    out = 0
    for i, m in enumerate(pts):
        if m & x_mask == x_mask:
            out |= 1 << i
    return out


def cohull(alg: ResiduatedLattice, x_mask: int) -> int:
    return full_set(len(minimal_primes(alg))) & ~hull(alg, x_mask)


def kernel_filter(alg: ResiduatedLattice, points: int) -> int:
    """Intersection of the selected points; the whole carrier for none."""
    pts = minimal_primes(alg)
    out = alg.universe
    for i in elements(points):
        out &= pts[i]
    return out


class Topology(Record):
    """Opens over the minimal-prime points."""

    points: tuple[int, ...]
    opens: tuple[int, ...]

    @property
    def space(self) -> int:
        return full_set(len(self.points))

    def is_clopen(self, s: int) -> bool:
        return s in self.opens and (self.space & ~s) in self.opens


@derived
def dual_hull_topology(alg: ResiduatedLattice) -> Topology:
    """Topology with the hulls of single elements as its open sets."""
    return Topology(minimal_primes(alg),
                    sort_family(hull(alg, singleton(x)) for x in range(alg.n)))


@derived
def hull_topology(alg: ResiduatedLattice) -> Topology:
    """Topology with the same hulls as its closed sets."""
    dual = dual_hull_topology(alg)
    return Topology(dual.points, sort_family(dual.space & ~h for h in dual.opens))


def topologies_equal(alg: ResiduatedLattice) -> bool:
    return hull_topology(alg).opens == dual_hull_topology(alg).opens


def is_zero_dimensional(t: Topology) -> bool:
    """Every open is a union of clopen sets."""
    clopens = [u for u in t.opens if t.is_clopen(u)]
    for u in t.opens:
        cover = 0
        for c in clopens:
            if c & ~u == 0:
                cover |= c
        if cover != u:
            return False
    return True


def is_totally_disconnected(t: Topology) -> bool:
    """Distinct points are separated by a clopen set."""
    pts = list(elements(t.space))
    for i in pts:
        for j in pts:
            if i >= j:
                continue
            if not any(t.is_clopen(u) and contains(u, i) and not contains(u, j)
                       for u in t.opens):
                return False
    return True


def is_compact(t: Topology) -> bool:
    """Every open cover of the space admits a finite subcover.

    Always true: the space is finite, so it has finitely many opens and
    every cover is already finite.
    """
    return True
