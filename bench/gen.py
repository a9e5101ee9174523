"""Input generators for the benchmark, written from the definitions.

Every generator builds its four operation tables directly and hands
them to ``reslat.algebra.validate``, so the package's own law checker
accepts each input before any command sees it.  Large inputs are made
here rather than stored as files.
"""

from __future__ import annotations

from reslat.algebra import ResiduatedLattice, validate


def _chain_lattice(n: int):
    rng = range(n)
    join = [[max(x, y) for y in rng] for x in rng]
    meet = [[min(x, y) for y in rng] for x in rng]
    return join, meet


def _chain_names(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def luk(n: int) -> ResiduatedLattice:
    """The n-element Lukasiewicz chain 0 < 1 < ... < n-1.

    x * y = max(0, x + y - top) and x -> y = min(top, top - x + y).
    """
    if n < 1:
        raise ValueError("a chain needs at least one element")
    top = n - 1
    rng = range(n)
    join, meet = _chain_lattice(n)
    prod = [[max(0, x + y - top) for y in rng] for x in rng]
    impl = [[min(top, top - x + y) for y in rng] for x in rng]
    return validate(_chain_names(n), join, meet, prod, impl, 0, top)


def godel(n: int) -> ResiduatedLattice:
    """The n-element Goedel chain: x * y = min(x, y), x -> y = top if
    x <= y else y."""
    if n < 1:
        raise ValueError("a chain needs at least one element")
    top = n - 1
    rng = range(n)
    join, meet = _chain_lattice(n)
    impl = [[top if x <= y else y for y in rng] for x in rng]
    return validate(_chain_names(n), join, meet, meet, impl, 0, top)


def boolean(k: int) -> ResiduatedLattice:
    """The Boolean algebra 2^k on the subsets of a k-element set, with
    the product equal to the meet."""
    if k < 0:
        raise ValueError("k must be at least 0")
    n = 1 << k
    full = n - 1
    rng = range(n)
    join = [[x | y for y in rng] for x in rng]
    meet = [[x & y for y in rng] for x in rng]
    impl = [[(full & ~x) | y for y in rng] for x in rng]
    names = tuple(format(x, f"0{k}b") if k else "e" for x in rng)
    return validate(names, join, meet, meet, impl, 0, full)


def product(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    """The direct product a x b with every operation taken per coordinate.

    Element (x, y) has index x * b.n + y and name "x.y".
    """
    na, nb = a.n, b.n
    pairs = [(x, y) for x in range(na) for y in range(nb)]

    def table(ta, tb):
        return [[ta[x][u] * nb + tb[y][v] for (u, v) in pairs]
                for (x, y) in pairs]

    names = tuple(f"{a.names[x]}.{b.names[y]}" for x, y in pairs)
    return validate(names, table(a.join, b.join), table(a.meet, b.meet),
                    table(a.prod, b.prod), table(a.impl, b.impl),
                    a.bottom * nb + b.bottom, a.top * nb + b.top)
