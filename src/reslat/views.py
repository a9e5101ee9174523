"""Small bounded lattices built over opaque node keys.

Every derived structure (the filters, the coannihilators, the omega and
alpha filters, the hull and cohull point sets) is a family of subsets
ordered by inclusion: meet is intersection and join is the least member
containing both.  ``build_view`` reads both tables off the family
alone.  A LatticeView materializes such a structure as index tables over
a canonical key tuple so the generic predicates, congruence and quotient
machinery apply uniformly.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from functools import reduce

from .algebra import byte_rows, derived
from .errors import InternalCheckError, PreconditionError
from .record import Record

Key = Hashable


class LatticeView(Record):
    """A finite bounded lattice: canonical keys plus join/meet tables.

    The fields cannot be reassigned, so what ``derived`` functions
    memoise on a view stays true of it.
    """

    name: str
    keys: tuple[Key, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return len(self.keys)

    def index(self, key: Key) -> int:
        return self.keys.index(key)

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i][j] == i


def build_view(name: str, keys: Sequence[int]) -> LatticeView:
    """A family of subsets, given as masks, ordered by inclusion.

    The meet of two members is their intersection.  Their join is the
    member whose up-set in the family is their common up-set, as
    ``search._tables_from_cover`` reads joins: the least member
    containing both.  A family that is not a lattice this way is an
    internal-consistency failure of the caller's construction.
    """
    keys = tuple(keys)
    pos = {k: i for i, k in enumerate(keys)}
    meet = []
    for u in keys:
        row = []
        for v in keys:
            if u & v not in pos:
                raise InternalCheckError(f"{name}: meet of {u!r}, {v!r} gives {u & v!r}, "
                                         "not a member of the family")
            row.append(pos[u & v])
        meet.append(tuple(row))
    ups = [sum(1 << j for j, v in enumerate(keys) if u & ~v == 0) for u in keys]
    least = {up: i for i, up in enumerate(ups)}
    join = []
    for u, up_u in zip(keys, ups):
        row = []
        for v, up_v in zip(keys, ups):
            if up_u & up_v not in least:
                raise InternalCheckError(f"{name}: {u!r} and {v!r} have no least upper bound "
                                         "in the family")
            row.append(least[up_u & up_v])
        join.append(tuple(row))
    return view_from_tables(name, keys, tuple(join), tuple(meet))


def view_from_tables(name: str, keys: Sequence[Key],
                     join: Sequence[Sequence[int]],
                     meet: Sequence[Sequence[int]]) -> LatticeView:
    """A view from join and meet tables over node indices, which the
    caller builds closed on the keys."""
    keys = tuple(keys)
    if len(set(keys)) != len(keys):
        raise PreconditionError(f"{name}: duplicate keys")
    nodes = range(len(keys))
    bottom = reduce(lambda i, j: meet[i][j], nodes)
    top = reduce(lambda i, j: join[i][j], nodes)
    return LatticeView(name, keys, join, meet, bottom, top)


def is_distributive(view: LatticeView) -> bool:
    """Whether x ^ (y v z) == (x ^ y) v (x ^ z) for all nodes.

    Checked a row at a time, for each pair (x, y) across every z at
    once, as ``algebra.check_tables`` checks its triple laws, on the
    rows of ``algebra.byte_rows``.  No view has more nodes than its
    algebra has elements, 64 at most, so every index fits a byte.
    """
    J, Jt = byte_rows(view.join)
    M, Mt = byte_rows(view.meet)
    for x, mx in enumerate(view.meet):
        Mx, Mtx = M[x], Mt[x]
        for y, Jy in enumerate(J):
            if Jy.translate(Mtx) != Mx.translate(Jt[mx[y]]):
                return False
    return True


def complements_in(view: LatticeView, i: int) -> tuple[int, ...]:
    return tuple(j for j in range(view.n)
                 if view.meet[i][j] == view.bottom and view.join[i][j] == view.top)


def is_boolean(view: LatticeView) -> bool:
    """Distributive and every node complemented."""
    if not is_distributive(view):
        return False
    return all(complements_in(view, i) for i in range(view.n))


def view_filter_generated(view: LatticeView, mask: int) -> int:
    """Least lattice filter containing the given nodes.

    A filter of a finite lattice holds the meet of its members, so it is
    the up-set of that meet: here the meet of the nodes with top.
    """
    m = reduce(lambda i, j: view.meet[i][j],
               (i for i in range(view.n) if mask >> i & 1), view.top)
    return sum(1 << j for j in range(view.n) if view.leq(m, j))


@derived
def view_filters(view: LatticeView) -> tuple[int, ...]:
    """Every lattice filter of the view, as masks over node indices: the
    principal up-sets, one generated by each node."""
    ups = (view_filter_generated(view, 1 << i) for i in range(view.n))
    return tuple(sorted(ups, key=lambda m: (m.bit_count(), m)))


def is_homomorphism(view: LatticeView, target: LatticeView,
                    pos: Sequence[int], dual: bool) -> bool:
    """Whether the map sending node i to target node pos[i] carries joins
    to joins and meets to meets, or with dual set joins to meets and
    meets to joins."""
    jt, mt = (target.meet, target.join) if dual else (target.join, target.meet)
    nodes = range(view.n)
    return all(pos[view.join[i][j]] == jt[pos[i]][pos[j]]
               and pos[view.meet[i][j]] == mt[pos[i]][pos[j]]
               for i in nodes for j in nodes)


class Congruence(Record):
    """A partition of a view's nodes compatible with both operations."""

    classes: tuple[tuple[int, ...], ...]

    def class_of(self, i: int) -> tuple[int, ...]:
        for c in self.classes:
            if i in c:
                return c
        raise PreconditionError(f"node {i} outside the partition")


def kernel_partition(view: LatticeView, images: Sequence[Hashable]) -> Congruence:
    """Partition of nodes by equal image under a map."""
    if len(images) != view.n:
        raise PreconditionError("one image per node required")
    groups: dict[Hashable, list[int]] = {}
    for i, img in enumerate(images):
        groups.setdefault(img, []).append(i)
    classes = tuple(sorted((tuple(sorted(g)) for g in groups.values())))
    return Congruence(classes)


def is_congruence(view: LatticeView, cong: Congruence) -> bool:
    """Whether joins and meets of related pairs stay related."""
    cls = {}
    for idx, c in enumerate(cong.classes):
        for i in c:
            cls[i] = idx
    if sorted(cls) != list(range(view.n)):
        return False
    for c in cong.classes:
        rep = c[0]
        for i in c:
            for j in range(view.n):
                if cls[view.join[i][j]] != cls[view.join[rep][j]]:
                    return False
                if cls[view.meet[i][j]] != cls[view.meet[rep][j]]:
                    return False
    return True


def quotient_view(view: LatticeView, cong: Congruence) -> LatticeView:
    """The quotient lattice by a congruence, operating on class
    representatives."""
    cls = {}
    for idx, c in enumerate(cong.classes):
        for i in c:
            cls[i] = idx
    keys = tuple(tuple(view.keys[i] for i in c) for c in cong.classes)
    reps = [c[0] for c in cong.classes]
    join = tuple(tuple(cls[view.join[i][j]] for j in reps) for i in reps)
    meet = tuple(tuple(cls[view.meet[i][j]] for j in reps) for i in reps)
    return view_from_tables(view.name + "/~", keys, join, meet)


def kernel_transports(view: LatticeView, images: Sequence[Hashable],
                      target: LatticeView, dual: bool) -> bool:
    """First isomorphism theorem for the map given by its node images:
    the kernel partition is a congruence and the quotient is carried
    onto the target, joins to meets when dual."""
    cong = kernel_partition(view, images)
    if not is_congruence(view, cong):
        return False
    img = [images[c[0]] for c in cong.classes]
    if set(img) != set(target.keys) or len(img) != target.n:
        return False
    return is_homomorphism(quotient_view(view, cong), target,
                           [target.index(v) for v in img], dual)
