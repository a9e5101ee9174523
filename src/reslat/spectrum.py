"""Prime filters, separation, minimal primes, and the point topologies.

A proper filter is prime when membership of a join forces membership of
an operand.  The spectrum, its maximal and minimal members, and the two
topologies on the minimal points (closed basis of hulls, and the dual
with hulls open) are all materialized since the carrier is finite.

Point subsets live over the canonical minimal-prime ordering, so the
same subset of points always prints the same way.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .errors import PreconditionError
from .filters import (
    TAG_MAX,
    TAG_MIN,
    TAG_PRIME,
    FilterFamily,
    all_filters,
    extend_filter,
    is_filter,
)
from .record import Record, setfield
from .subsets import contains, elements, full_set, singleton, sort_family


class PrimeWitness(Record):
    """Result of a primality check; falsy with the failing pair attached."""

    _fields = ("mask", "failure")

    def __init__(self, mask: int, failure: tuple[int, int] | None):
        setfield(self, "mask", mask)
        setfield(self, "failure", failure)

    def __bool__(self) -> bool:
        return self.failure is None


@derived
def is_prime(alg: ResiduatedLattice, mask: int) -> PrimeWitness:
    """Primality of a proper filter, with a witness pair on failure.

    The witness is the first pair (x, y) in row-major order with x v y
    in the filter and neither x nor y in it, so only the elements
    outside the filter are scanned.
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
                return PrimeWitness(mask, (x, y))
    return PrimeWitness(mask, None)


@derived
def prime_filters(alg: ResiduatedLattice) -> FilterFamily:
    members = [f for f in all_filters(alg)
               if f != alg.universe and is_prime(alg, f)]
    return FilterFamily(sort_family(members), TAG_PRIME)


@derived
def maximal_filters(alg: ResiduatedLattice) -> FilterFamily:
    props = [f for f in all_filters(alg) if f != alg.universe]
    members = [f for f in props if not any(f != g and f & g == f for g in props)]
    return FilterFamily(sort_family(members), TAG_MAX)


@derived
def minimal_primes(alg: ResiduatedLattice) -> FilterFamily:
    ps = prime_filters(alg).members
    members = [p for p in ps if not any(q != p and q & p == q for q in ps)]
    return FilterFamily(sort_family(members), TAG_MIN)


@derived
def _check_join_closed(alg: ResiduatedLattice, c_mask: int) -> None:
    if c_mask == 0:
        raise PreconditionError("the avoided set must be nonempty")
    for x in elements(c_mask):
        for y in elements(c_mask >> x << x):
            j = alg.join[x][y]
            if not contains(c_mask, j):
                raise PreconditionError(
                    f"avoided set not closed under join: {alg.names[x]} v {alg.names[y]} "
                    f"= {alg.names[j]} escapes it")


def separate(alg: ResiduatedLattice, f_mask: int, c_mask: int) -> int:
    """A prime filter containing F, disjoint from a join-closed C, and
    maximal with that property.

    Greedy: absorb each element in carrier order whose extension still
    avoids C.  One pass suffices: extensions only grow with the filter,
    so an element once refused stays refused.  The loop order makes the
    choice among maximal solutions deterministic.
    """
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(f_mask)}")
    _check_join_closed(alg, c_mask)
    if f_mask & c_mask:
        x = next(elements(f_mask & c_mask))
        raise PreconditionError(f"filter meets the avoided set at {alg.names[x]}")

    cur = f_mask
    for x in range(alg.n):
        if not contains(cur, x):
            ext = extend_filter(alg, cur, x)
            if ext & c_mask == 0:
                cur = ext
    return cur


def is_minimal_prime(alg: ResiduatedLattice, p_mask: int) -> bool:
    """Minimality via the complement route.

    A prime is minimal exactly when its complement is a maximal
    join-closed set avoiding top: the complement cannot absorb any
    member (other than top) and stay join-closed without reaching top.
    """
    if not is_prime(alg, p_mask):
        raise PreconditionError(f"not a prime filter: {alg.subset_str(p_mask)}")
    comp = alg.universe & ~p_mask
    for x in elements(p_mask & ~singleton(alg.top)):
        if not contains(_join_closure(alg, comp | singleton(x)), alg.top):
            return False
    return True


def _join_closure(alg: ResiduatedLattice, mask: int) -> int:
    cur = mask
    while True:
        nxt = cur
        for x in elements(cur):
            for y in elements(cur):
                nxt |= singleton(alg.join[x][y])
        if nxt == cur:
            return cur
        cur = nxt


@derived
def join_closed_sets(alg: ResiduatedLattice) -> tuple[int, ...]:
    """Every nonempty join-closed subset, for exhaustive quantification.

    joins[m] collects the joins of pairs of members of m.  With two or
    more members, every pair but (lowest, highest) stays inside m less
    one of those two, so each entry costs two lookups and one join.
    """
    joins = [0]
    for m in range(1, alg.universe + 1):
        low, high = (m & -m).bit_length() - 1, m.bit_length() - 1
        if low == high:
            joins.append(m)
        else:
            joins.append(joins[m ^ singleton(low)] | joins[m ^ singleton(high)]
                         | singleton(alg.join[low][high]))
    return tuple(m for m in range(1, alg.universe + 1) if joins[m] & ~m == 0)


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
    pts = minimal_primes(alg).members
    out = 0
    for i, m in enumerate(pts):
        if m & x_mask == x_mask:
            out |= 1 << i
    return out


def cohull(alg: ResiduatedLattice, x_mask: int) -> int:
    return full_set(len(minimal_primes(alg))) & ~hull(alg, x_mask)


def kernel_filter(alg: ResiduatedLattice, points: int) -> int:
    """Intersection of the selected points; the whole carrier for none."""
    pts = minimal_primes(alg).members
    out = alg.universe
    for i in elements(points):
        out &= pts[i]
    return out


class Topology(Record):
    """Opens over the minimal-prime points, with the generating basis."""

    _fields = ("points", "opens", "basis")

    def __init__(self, points: FilterFamily, opens: tuple[int, ...],
                 basis: tuple[int, ...]):
        setfield(self, "points", points)
        setfield(self, "opens", opens)
        setfield(self, "basis", basis)

    @property
    def space(self) -> int:
        return full_set(len(self.points))

    def is_clopen(self, s: int) -> bool:
        return s in self.opens and (self.space & ~s) in self.opens


def _from_open_basis(points: FilterFamily, basis: tuple[int, ...]) -> Topology:
    space = full_set(len(points))
    opens = {0, space}
    opens.update(basis)
    changed = True
    while changed:
        changed = False
        for u in tuple(opens):
            for v in tuple(opens):
                for w in (u | v, u & v):
                    if w not in opens:
                        opens.add(w)
                        changed = True
    return Topology(points, sort_family(opens), sort_family(basis))


@derived
def hull_topology(alg: ResiduatedLattice) -> Topology:
    """Topology with the hulls of single elements as a closed basis."""
    pts = minimal_primes(alg)
    space = full_set(len(pts))
    closed_basis = {hull(alg, singleton(x)) for x in range(alg.n)}
    # closed sets: all intersections of finite unions of basis members
    closed = {space, 0}
    closed.update(closed_basis)
    changed = True
    while changed:
        changed = False
        for u in tuple(closed):
            for v in tuple(closed):
                for w in (u | v, u & v):
                    if w not in closed:
                        closed.add(w)
                        changed = True
    opens = {space & ~c for c in closed}
    open_basis = sort_family(space & ~h for h in closed_basis)
    return Topology(pts, sort_family(opens), open_basis)


@derived
def dual_hull_topology(alg: ResiduatedLattice) -> Topology:
    """Topology with the same hulls taken as an open basis."""
    pts = minimal_primes(alg)
    basis = sort_family(hull(alg, singleton(x)) for x in range(alg.n))
    return _from_open_basis(pts, basis)


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
