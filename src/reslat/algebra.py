"""Finite residuated lattices: table validation and element structure.

A residuated lattice is a bounded lattice (join, meet, bottom, top)
carrying a commutative monoid (prod, top) that is adjoint to an
implication table: prod(x, y) <= z iff x <= impl(y, z).  The carrier is
indexed 0..n-1; the lattice order is derived from the meet table and
every other notion (negation, density, nilpotency, complementation) is
computed from the four operation tables.

Validation collects one witness per violated law instead of stopping at
the first failure, so a broken table reports every way it is broken.
Each law over triples (x, y, z) is checked a row at a time, for one
pair (x, y) across every z at once; only a pair that fails is walked
element by element for its witnesses.
"""

from __future__ import annotations

from functools import cached_property, wraps

from .record import Record, setfield
from .subsets import contains, elements, from_elements, full_set, render

Table = tuple[tuple[int, ...], ...]

# Conventional exponent base case: the empty product is the monoid unit,
# so power(x, 0) == top for every x.


class AxiomViolation(Record):
    """One violated law with a concrete witness tuple of element indices."""

    _fields = ("law", "witness", "detail")

    def __init__(self, law: str, witness: tuple[int, ...], detail: str):
        setfield(self, "law", law)
        setfield(self, "witness", witness)
        setfield(self, "detail", detail)


class InvalidAlgebraError(ValueError):
    """Raised by validate() when the tables are not a residuated lattice."""

    def __init__(self, violations: list[AxiomViolation]):
        self.violations = tuple(violations)
        laws = ", ".join(sorted({v.law for v in self.violations}))
        super().__init__(f"not a residuated lattice; violated laws: {laws}")


def _check_shape(names, join, meet, prod, impl, bottom, top) -> int:
    n = len(names)
    if n == 0:
        raise ValueError("empty carrier")
    if n > 64:
        raise ValueError(f"carrier size {n} exceeds the bit-vector width of 64")
    if len(set(names)) != n:
        raise ValueError("duplicate element names")
    for label, t in (("join", join), ("meet", meet), ("prod", prod), ("impl", impl)):
        if len(t) != n:
            raise ValueError(f"{label} table has {len(t)} rows, expected {n}")
        for i, row in enumerate(t):
            if len(row) != n:
                raise ValueError(f"{label} row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError(f"{label}[{i}][{j}] = {v!r} is not an element index")
    if not 0 <= bottom < n or not 0 <= top < n:
        raise ValueError("bottom/top out of range")
    return n


def check_tables(names, join, meet, prod, impl, bottom, top) -> list[AxiomViolation]:
    """Return every violated axiom with a witness, empty list if valid.

    Each law is reported once: its first witness in (x, y, z) order and
    how many instances fail.  A law over triples is checked a row at a
    time, for each pair (x, y) over all z: two rows compared, a row of
    one table indexed by another's entries (``bytes.translate``), or for
    the two order laws the row pairs tested against the pairs a <= b.  A
    pair that fails is walked element by element over z, so witnesses
    and counts are those of a walk over every triple.

    Shape problems (wrong arity, out-of-range entries) raise ValueError
    immediately since no law is checkable on a malformed table.
    """
    n = _check_shape(names, join, meet, prod, impl, bottom, top)
    rng = range(n)

    def leq(x: int, y: int) -> bool:
        return meet[x][y] == x

    seen: dict[str, AxiomViolation] = {}
    counts: dict[str, int] = {}

    def bad(law: str, witness: tuple[int, ...], detail: str) -> None:
        counts[law] = counts.get(law, 0) + 1
        if law not in seen:
            seen[law] = AxiomViolation(law, witness, detail)

    def nm(x: int) -> str:
        return names[x]

    for x in rng:
        if join[x][x] != x:
            bad("join-idempotent", (x,), f"{nm(x)} v {nm(x)} = {nm(join[x][x])}")
        if meet[x][x] != x:
            bad("meet-idempotent", (x,), f"{nm(x)} ^ {nm(x)} = {nm(meet[x][x])}")
        if prod[x][top] != x:
            bad("prod-identity", (x, top), f"{nm(x)} * top = {nm(prod[x][top])}")
        if prod[top][x] != x:
            bad("prod-identity", (top, x), f"top * {nm(x)} = {nm(prod[top][x])}")
        if meet[bottom][x] != bottom:
            bad("bottom-least", (bottom, x), f"bottom not below {nm(x)}")
        if meet[x][top] != x:
            bad("top-greatest", (x, top), f"{nm(x)} not below top")

    for x in rng:
        for y in rng:
            if join[x][y] != join[y][x]:
                bad("join-commutative", (x, y),
                    f"{nm(x)} v {nm(y)} = {nm(join[x][y])} but {nm(y)} v {nm(x)} = {nm(join[y][x])}")
            if meet[x][y] != meet[y][x]:
                bad("meet-commutative", (x, y),
                    f"{nm(x)} ^ {nm(y)} = {nm(meet[x][y])} but {nm(y)} ^ {nm(x)} = {nm(meet[y][x])}")
            if prod[x][y] != prod[y][x]:
                bad("prod-commutative", (x, y),
                    f"{nm(x)} * {nm(y)} = {nm(prod[x][y])} but {nm(y)} * {nm(x)} = {nm(prod[y][x])}")
            if join[x][meet[x][y]] != x:
                bad("absorption", (x, y), f"{nm(x)} v ({nm(x)} ^ {nm(y)}) = {nm(join[x][meet[x][y]])}")
            if meet[x][join[x][y]] != x:
                bad("absorption", (x, y), f"{nm(x)} ^ ({nm(x)} v {nm(y)}) = {nm(meet[x][join[x][y]])}")
            if (meet[x][y] == x) != (join[x][y] == y):
                bad("order-consistency", (x, y),
                    f"meet and join disagree on whether {nm(x)} <= {nm(y)}")
            if not leq(prod[x][y], meet[x][y]):
                bad("prod-below-meet", (x, y),
                    f"{nm(x)} * {nm(y)} = {nm(prod[x][y])} not below {nm(x)} ^ {nm(y)}")

    # Row r of a table as bytes (entries are below n <= 64), and padded
    # to 256 bytes so that s.translate(rt) is the row r[s[z]] over all z.
    J, M, P, I = ([bytes(r) for r in t] for t in (join, meet, prod, impl))
    L = [bytes(leq(a, z) for z in rng) for a in rng]  # L[a][z]: a <= z
    pad = bytes(256 - n)
    Jt, Mt, Pt, Lt = ([r + pad for r in t] for t in (J, M, P, L))
    below = {(a, b) for a in rng for b in rng if leq(a, b)}

    for x in rng:
        Jx, Px, Ix = J[x], P[x], I[x]
        Jtx, Mtx, Ptx, Ltx = Jt[x], Mt[x], Pt[x], Lt[x]
        for y in rng:
            j, m, p = Jx[y], M[x][y], Px[y]
            Jy, Py = J[y], P[y]
            # each triple law across every z at once
            if (J[j] == Jy.translate(Jtx)
                    and M[m] == M[y].translate(Mtx)
                    and P[p] == Py.translate(Ptx)
                    and L[p] == I[y].translate(Ltx)
                    and L[p] == Ix.translate(Lt[y])
                    and Jy.translate(Ptx) == Px.translate(Jt[p])
                    and below.issuperset(zip(Jx.translate(Pt[j]), Py.translate(Jtx)))
                    and (m != x or below.issuperset(zip(Px, Py)))):
                continue
            # some law fails for this pair: walk z for the witnesses
            for z in rng:
                if join[join[x][y]][z] != join[x][join[y][z]]:
                    bad("join-associative", (x, y, z), f"join not associative at ({nm(x)},{nm(y)},{nm(z)})")
                if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
                    bad("meet-associative", (x, y, z), f"meet not associative at ({nm(x)},{nm(y)},{nm(z)})")
                if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
                    bad("prod-associative", (x, y, z), f"prod not associative at ({nm(x)},{nm(y)},{nm(z)})")
                # primary orientation: x*y <= z iff x <= y->z
                if leq(prod[x][y], z) != leq(x, impl[y][z]):
                    bad("adjointness", (x, y, z),
                        f"{nm(x)}*{nm(y)} <= {nm(z)} is {leq(prod[x][y], z)} but "
                        f"{nm(x)} <= {nm(y)}->{nm(z)} = {nm(impl[y][z])} is {leq(x, impl[y][z])}")
                # commuted orientation; redundant given prod-commutative, kept as
                # a derived sanity test
                if leq(prod[x][y], z) != leq(y, impl[x][z]):
                    bad("adjointness-commuted", (x, y, z),
                        f"{nm(x)}*{nm(y)} <= {nm(z)} mismatches {nm(y)} <= {nm(x)}->{nm(z)}")
                # derived distribution laws, redundant for a valid algebra
                if prod[x][join[y][z]] != join[prod[x][y]][prod[x][z]]:
                    bad("prod-join-distributive", (x, y, z),
                        f"{nm(x)} * ({nm(y)} v {nm(z)}) != ({nm(x)}*{nm(y)}) v ({nm(x)}*{nm(z)})")
                if not leq(prod[join[x][y]][join[x][z]], join[x][prod[y][z]]):
                    bad("join-prod-superdistributive", (x, y, z),
                        f"({nm(x)} v {nm(y)}) * ({nm(x)} v {nm(z)}) not below {nm(x)} v ({nm(y)}*{nm(z)})")
                if leq(x, y) and not leq(prod[x][z], prod[y][z]):
                    bad("prod-monotone", (x, y, z),
                        f"{nm(x)} <= {nm(y)} but {nm(x)}*{nm(z)} not below {nm(y)}*{nm(z)}")

    out = []
    for law, v in seen.items():
        c = counts[law]
        extra = "" if c == 1 else f" ({c} violations in total)"
        out.append(AxiomViolation(law, v.witness, v.detail + extra))
    out.sort(key=lambda v: v.law)
    return out


_MISSING = object()


def derived(fn):
    """Memoise ``fn(obj, *args)`` in a dict kept in ``obj.__dict__``.

    That is where ``cached_property`` stores its values too, so it works
    on records whose fields cannot be reassigned (``record.Record``).
    The key is ``(fn, *args)``: a lookup hashes the arguments but never
    ``obj``, whose tables are costly to hash, and the memo is freed with
    ``obj``.  An exception from ``fn`` is not
    memoised.  Arguments are positional only.
    """
    @wraps(fn)
    def memoised(obj, *args):
        state = obj.__dict__
        memo = state.get("_derived")
        if memo is None:
            memo = state["_derived"] = {}
        key = (fn, *args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(obj, *args)
        return value

    return memoised


class ResiduatedLattice(Record):
    """Validated operation tables plus the derived order as bit vectors.

    up[x] is the subset {y : x <= y}, down[x] is {y : y <= x}.  The
    fields cannot be reassigned, and two instances with equal fields are
    equal and hash alike.  What is derived from one (filters, primes,
    coannulets, verdicts) lives in a per-instance memo filled by
    ``derived`` functions and ``cached_property`` attributes, takes no
    part in equality, and is freed with the instance.
    """

    _fields = ("names", "join", "meet", "prod", "impl", "bottom", "top",
               "up", "down")

    def __init__(self, names: tuple[str, ...], join: Table, meet: Table,
                 prod: Table, impl: Table, bottom: int, top: int,
                 up: tuple[int, ...], down: tuple[int, ...]):
        setfield(self, "names", names)
        setfield(self, "join", join)
        setfield(self, "meet", meet)
        setfield(self, "prod", prod)
        setfield(self, "impl", impl)
        setfield(self, "bottom", bottom)
        setfield(self, "top", top)
        setfield(self, "up", up)
        setfield(self, "down", down)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def universe(self) -> int:
        return full_set(self.n)

    def leq(self, x: int, y: int) -> bool:
        return contains(self.up[x], y)

    def neg(self, x: int) -> int:
        return self.impl[x][self.bottom]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            raise ValueError("negative exponent")
        acc = self.top
        for _ in range(k):
            acc = self.prod[acc][x]
        return acc

    def powers(self, x: int) -> tuple[int, ...]:
        """All distinct powers x^0, x^1, ... until the sequence repeats."""
        out = [self.top]
        seen = {self.top}
        acc = self.top
        while True:
            acc = self.prod[acc][x]
            if acc in seen:
                return tuple(out)
            seen.add(acc)
            out.append(acc)

    @cached_property
    def nilpotents(self) -> int:
        """Subset of x with x^k = bottom for some k >= 1."""
        mask = 0
        for x in range(self.n):
            acc = x
            for _ in range(self.n):
                if acc == self.bottom:
                    mask |= 1 << x
                    break
                nxt = self.prod[acc][x]
                if nxt == acc:
                    break
                acc = nxt
        return mask

    def complements_of(self, x: int) -> tuple[int, ...]:
        return tuple(y for y in range(self.n)
                     if self.meet[x][y] == self.bottom and self.join[x][y] == self.top)

    @cached_property
    def boolean_center(self) -> int:
        """Subset of complemented elements."""
        return from_elements(e for e in range(self.n) if self.complements_of(e))

    def is_dense(self, x: int) -> bool:
        """x is dense when top is the only y with x v y = top."""
        return all(self.join[x][y] != self.top for y in range(self.n) if y != self.top)

    @cached_property
    def dense_elements(self) -> int:
        return from_elements(x for x in range(self.n) if self.is_dense(x))

    @cached_property
    def coannulets(self) -> tuple[int, ...]:
        """coannulets[x] is the subset of y with x v y = top."""
        top = self.top
        return tuple(from_elements(y for y, j in enumerate(row) if j == top)
                     for row in self.join)

    def product_of(self, mask: int) -> int:
        """Product of the members of a subset; top for the empty subset."""
        acc = self.top
        for x in elements(mask):
            acc = self.prod[acc][x]
        return acc

    def subset_str(self, mask: int) -> str:
        return render(mask, self.names)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Edges (x, y) of the order diagram: y covers x."""
        out = []
        for x in range(self.n):
            for y in elements(self.up[x] & ~(1 << x)):
                between = self.up[x] & self.down[y] & ~(1 << x) & ~(1 << y)
                if between == 0:
                    out.append((x, y))
        return tuple(out)


def validate(names, join, meet, prod, impl, bottom, top) -> ResiduatedLattice:
    """Check every axiom and return the validated algebra.

    Raises InvalidAlgebraError carrying the full violation list when any
    law fails, ValueError when the tables are malformed.
    """
    names = tuple(names)
    join = tuple(tuple(r) for r in join)
    meet = tuple(tuple(r) for r in meet)
    prod = tuple(tuple(r) for r in prod)
    impl = tuple(tuple(r) for r in impl)
    violations = check_tables(names, join, meet, prod, impl, bottom, top)
    if violations:
        raise InvalidAlgebraError(violations)
    n = len(names)
    up = tuple(from_elements(y for y in range(n) if meet[x][y] == x) for x in range(n))
    down = tuple(from_elements(y for y in range(n) if meet[y][x] == y) for x in range(n))
    return ResiduatedLattice(names, join, meet, prod, impl, bottom, top, up, down)
