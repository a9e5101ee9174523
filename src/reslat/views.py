"""Small bounded lattices built over opaque node keys.

Derived structures (families of filters, of coannihilators, of point
sets) are lattices in their own right, usually with joins that are not
plain unions.  A LatticeView materializes such a structure as index
tables over a canonical key tuple so the generic predicates, congruence
and quotient machinery apply uniformly.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from functools import reduce

from .algebra import derived
from .errors import InternalCheckError, PreconditionError
from .record import Record, setfield

Key = Hashable


class LatticeView(Record):
    """A finite bounded lattice: canonical keys plus join/meet tables.

    The fields cannot be reassigned, so what ``derived`` functions
    memoise on a view stays true of it.
    """

    _fields = ("name", "keys", "join", "meet", "bottom", "top")

    def __init__(self, name: str, keys: tuple[Key, ...],
                 join: tuple[tuple[int, ...], ...],
                 meet: tuple[tuple[int, ...], ...], bottom: int, top: int):
        setfield(self, "name", name)
        setfield(self, "keys", keys)
        setfield(self, "join", join)
        setfield(self, "meet", meet)
        setfield(self, "bottom", bottom)
        setfield(self, "top", top)

    @property
    def n(self) -> int:
        return len(self.keys)

    def index(self, key: Key) -> int:
        return self.keys.index(key)

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i][j] == i


def build_view(name: str,
               keys: Sequence[Key],
               join_fn: Callable[[Key, Key], Key],
               meet_fn: Callable[[Key, Key], Key]) -> LatticeView:
    """Materialize tables from binary ops that make the keys a bounded
    lattice.

    The ops must be closed on the key set; a result outside it is an
    internal-consistency failure of the caller's construction.
    """
    keys = tuple(keys)
    pos = {k: i for i, k in enumerate(keys)}

    def table(fn, label):
        t = []
        for a in keys:
            row = []
            for b in keys:
                v = fn(a, b)
                if v not in pos:
                    raise InternalCheckError(f"{name}: {label} of {a!r}, {b!r} gives {v!r}, "
                                             "not a member of the family")
                row.append(pos[v])
            t.append(tuple(row))
        return tuple(t)

    return view_from_tables(name, keys, table(join_fn, "join"), table(meet_fn, "meet"))


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
    once, as ``algebra.check_tables`` checks its triple laws: rows are
    bytes padded to 256, so ``s.translate(t)`` is the row t[s[z]] over
    all z.  No view has more nodes than its algebra has elements, 64 at
    most, so every index fits a byte.
    """
    pad = bytes(256 - view.n)
    J, M = [bytes(r) for r in view.join], [bytes(r) for r in view.meet]
    Jt, Mt = [r + pad for r in J], [r + pad for r in M]
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


@derived
def view_filters(view: LatticeView) -> tuple[int, ...]:
    """Every lattice filter of the view, as masks over node indices.

    A filter of a finite lattice holds the meet of its members, so it is
    the up-set of that meet: the filters are the principal up-sets.
    """
    ups = (sum(1 << j for j in range(view.n) if view.leq(i, j))
           for i in range(view.n))
    return tuple(sorted(ups, key=lambda m: (m.bit_count(), m)))


def view_filter_generated(view: LatticeView, mask: int) -> int:
    """Least lattice filter containing the given nodes."""
    cur = mask | 1 << view.top
    while True:
        nxt = cur
        for i in range(view.n):
            if cur >> i & 1:
                for j in range(view.n):
                    if view.leq(i, j):
                        nxt |= 1 << j
                    if cur >> j & 1:
                        nxt |= 1 << view.meet[i][j]
        if nxt == cur:
            return cur
        cur = nxt


def is_sublattice(sub: LatticeView, sup: LatticeView) -> bool:
    """Same keys subset, same bounds, agreeing operations."""
    try:
        emb = [sup.index(k) for k in sub.keys]
    except ValueError:
        return False
    if emb[sub.bottom] != sup.bottom or emb[sub.top] != sup.top:
        return False
    for i in range(sub.n):
        for j in range(sub.n):
            if emb[sub.join[i][j]] != sup.join[emb[i]][emb[j]]:
                return False
            if emb[sub.meet[i][j]] != sup.meet[emb[i]][emb[j]]:
                return False
    return True


class Congruence(Record):
    """A partition of a view's nodes compatible with both operations."""

    _fields = ("classes",)

    def __init__(self, classes: tuple[tuple[int, ...], ...]):
        setfield(self, "classes", classes)

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
    quot = quotient_view(view, cong)
    img = [images[c[0]] for c in cong.classes]
    if set(img) != set(target.keys) or len(img) != target.n:
        return False
    pos = [target.index(v) for v in img]
    jt, mt = (target.meet, target.join) if dual else (target.join, target.meet)
    return all(pos[quot.join[a][b]] == jt[pos[a]][pos[b]]
               and pos[quot.meet[a][b]] == mt[pos[a]][pos[b]]
               for a in range(quot.n) for b in range(quot.n))
