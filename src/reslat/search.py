"""Exhaustive model search over small carriers.

Enumerates bounded lattices up to isomorphism, then every residuated
product each one admits, again up to isomorphism.

Lattices are generated naturally labelled only: every bounded poset has
a linear extension, so it suffices to try orders in which x <= y
implies x < y as integers.  Each lattice found is keyed by the least of
its relabellings under all permutations of the middle elements, so the
key set, and the sorted result, is the same as from trying every order.
Relabellings work on tables flattened row-major into bytes: one
precomputed gather of cell positions and one byte translation per
permutation, and byte order is the order of the tables' rows.

The product walk cuts candidates with order facts every valid table
obeys: a product never exceeds the meet, and is monotone in both
arguments.  Monotonicity is checked by interval pruning: the cells
filled earlier that lie below the current cell in the product order
bound its value from below by the join of their values, those above it
bound it from above by the meet, and a candidate survives exactly when
it lies in that interval.  Cells are filled row by row, and as each row
completes the walk checks that the row has a residual and that
associativity holds on every triple whose largest member is that row,
so every table it completes is valid.  The stats record how much work
the walk spent.  A predicate language over the class verdicts turns the
walk into a counterexample miner.  A predicate computes only the
verdicts it reads, each by one route (the verdict functions of
``classify``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, groupby, permutations, product
from operator import itemgetter

from .algebra import ResiduatedLattice
from .classify import VERDICTS, ClassificationResult
from .errors import PreconditionError
from .record import Record

MAX_CARRIER = 8

_MIDDLE_NAMES = "abcdefg"


class LatticeSkeleton(Record):
    """A bounded lattice on 0..n-1 in canonical form, bottom 0, top n-1."""

    n: int
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]

    def leq(self, x: int, y: int) -> bool:
        return self.meet[x][y] == x


class SearchStats(Record):
    """Work counters for one enumeration run.

    examined counts complete tables reached, which equals found by
    construction: the row checks make every complete table valid.
    pruned counts candidate values rejected mid-fill, by the
    monotonicity interval or at a row check; found counts valid tables
    before the isomorphism pass, and found == emitted + iso_rejected.
    """

    examined: int
    pruned: int
    found: int
    emitted: int
    iso_rejected: int

    def __add__(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(*(getattr(self, f) + getattr(other, f)
                             for f in self._fields))


ZERO_STATS = SearchStats(0, 0, 0, 0, 0)


def _check_carrier(n: int) -> None:
    if not 1 <= n <= MAX_CARRIER:
        raise PreconditionError(
            f"carrier size must be between 1 and {MAX_CARRIER}, got {n}")


def names_for(n: int) -> tuple[str, ...]:
    """Canonical element names: bottom 0, top 1, letters between."""
    _check_carrier(n)
    if n == 1:
        return ("1",)
    return ("0",) + tuple(_MIDDLE_NAMES[: n - 2]) + ("1",)


# -- bounded lattices up to isomorphism ------------------------------------

def _tables_from_cover(n: int, up: list[int], down: list[int]):
    """join/meet tables from up-set masks, or None when not a lattice.

    The upper bounds of x and y form the up-set up[x] & up[y], and x | y
    is the element whose up-set that is; meets likewise from down-sets.
    """
    least = {mask: z for z, mask in enumerate(up)}
    greatest = {mask: w for w, mask in enumerate(down)}
    join = tuple(tuple(least.get(ux & uy) for uy in up) for ux in up)
    meet = tuple(tuple(greatest.get(dx & dy) for dy in down) for dx in down)
    if any(None in row for row in join) or any(None in row for row in meet):
        return None
    return join, meet


@lru_cache(maxsize=None)
def _relabellers(n: int):
    """(perm, gather, tr) for each carrier permutation fixing bottom and
    top (all a lattice isomorphism can do), the identity first, with perm
    an old-to-new map: for a table flattened row-major into bytes,
    bytes(gather(flat)).translate(tr) is the flat table of the structure
    relabelled by perm.  Row-major bytes sort as the tables' rows do."""
    out = []
    for middle in permutations(range(1, n - 1)):
        perm = (0, *middle, n - 1)
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        gather = itemgetter(*(inv[a] * n + inv[b]
                              for a in range(n) for b in range(n)))
        out.append((perm, gather, bytes(perm) + bytes(256 - n)))
    return tuple(out)


def _flat(table) -> bytes:
    return bytes(chain.from_iterable(table))


def _rows(flat: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


@lru_cache(maxsize=None)
def enumerate_lattices(n: int) -> tuple[LatticeSkeleton, ...]:
    """Every bounded lattice on n elements up to isomorphism, in a
    deterministic canonical order."""
    _check_carrier(n)
    if n == 1:
        return (LatticeSkeleton(1, ((0,),), ((0,),)),)
    mids = range(1, n - 1)
    pairs = [(x, y) for x in mids for y in mids if x < y]
    relabellers = _relabellers(n)
    # inverts[k]: the pairs, as a bitmask over pairs, whose order the
    # k-th permutation reverses.
    inverts = [sum(1 << i for i, (x, y) in enumerate(pairs) if p[x] > p[y])
               for p, _, _ in relabellers]
    seen: set = set()
    found = []
    # Natural labelling: each pair is either x <= y or incomparable.
    for choice in product(range(2), repeat=len(pairs)):
        up = [0] * n
        down = [0] * n
        up[0] = (1 << n) - 1
        down[n - 1] = (1 << n) - 1
        for x in mids:
            up[x] = 1 << x | 1 << (n - 1)
            down[x] = 1 << x | 1
        up[n - 1] = 1 << (n - 1)
        down[0] = 1
        order = 0
        for i, ((x, y), c) in enumerate(zip(pairs, choice)):
            if c:
                up[x] |= 1 << y
                down[y] |= 1 << x
                order |= 1 << i
        transitive = all(
            up[y] & ~up[x] == 0
            for x in mids for y in mids if x != y and up[x] >> y & 1)
        if not transitive:
            continue
        tables = _tables_from_cover(n, up, down)
        if tables is None:
            continue
        join = _flat(tables[0])
        if join in seen:
            continue
        # The join table fixes the order, hence the meet table too, so
        # the least (join, meet) relabeling is the one with least join.
        orbit = [bytes(gather(join)).translate(tr)
                 for _, gather, tr in relabellers]
        # Only naturally labelled tables are ever looked up: those whose
        # permutation keeps every order pair x < y increasing.
        seen.update(t for t, inv in zip(orbit, inverts) if not inv & order)
        k = min(range(len(orbit)), key=orbit.__getitem__)
        _, gather, tr = relabellers[k]
        found.append((orbit[k], bytes(gather(_flat(tables[1]))).translate(tr)))
    found.sort()
    return tuple(LatticeSkeleton(n, _rows(jn, n), _rows(mt, n))
                 for jn, mt in found)


@lru_cache(maxsize=None)
def _symmetries(skel: LatticeSkeleton):
    """The _relabellers entries of the automorphisms of skel other than
    the identity: the middle permutations that fix the join table, and
    with it the order and the meet table."""
    if skel.n == 1:
        return ()
    join = _flat(skel.join)
    return tuple(r for r in _relabellers(skel.n)[1:]
                 if bytes(r[1](join)).translate(r[2]) == join)


# -- residuated products on a skeleton -------------------------------------

# _MEMBERS[mask]: the elements in mask, ascending.
_MEMBERS = tuple(tuple(v for v in range(MAX_CARRIER) if mask >> v & 1)
                 for mask in range(1 << MAX_CARRIER))


def _cells(n: int) -> tuple[tuple[int, int], ...]:
    """Unordered argument pairs left free once the unit row is fixed."""
    return tuple((x, y) for x in range(n - 1) for y in range(x, n - 1))


def _down_masks(skel: LatticeSkeleton) -> tuple[int, ...]:
    n = skel.n
    return tuple(
        sum(1 << v for v in range(n) if skel.leq(v, x)) for x in range(n))


class _Fill:
    """One skeleton's fill, worked out once: the free cells, each cell's
    earlier neighbours in the product order, the order as bitmasks, and
    the residuals of the product rows met so far."""

    def __init__(self, skel: LatticeSkeleton):
        n = skel.n
        self.skel = skel
        self.down = down = _down_masks(skel)
        self.up = tuple(sum(1 << y for y in range(n) if down[y] >> x & 1)
                        for x in range(n))
        self.principal = {mask: x for x, mask in enumerate(down)}
        self.cells = cells = _cells(n)

        def below(c, d):
            # Either pairing counts, since the product is commutative.
            (a, b), (x, y) = c, d
            return (down[x] >> a & 1 and down[y] >> b & 1
                    or down[y] >> a & 1 and down[x] >> b & 1)

        self.lower = tuple(
            tuple(j for j in range(i) if below(cells[j], c))
            for i, c in enumerate(cells))
        self.upper = tuple(
            tuple(j for j in range(i) if below(c, cells[j]))
            for i, c in enumerate(cells))
        # closes[i]: at the last cell of row r, the triples (x, y, z) of
        # middle elements whose largest member is r.  The walk writes
        # [x][y] and [y][x] together, so once rows 0..r are complete so
        # are columns 0..r, and every entry the check reads lies in one
        # of them: x < z <= r and y <= r.  Triples through the
        # bottom (absorbing, as candidates lie below the meet) or the
        # unit hold, and commutativity makes (z, y, x) and (x, y, z) one
        # equation and (x, y, x) an identity, so x < z.  None elsewhere.
        mids = range(1, n - 1)
        self.closes = tuple(
            tuple((x, y, z) for x in mids for y in mids for z in mids
                  if x < z and max(y, z) == r) if last == n - 2 else None
            for r, last in cells)
        self.residuals: dict = {}


def _interval(fill: _Fill, i: int, vals) -> tuple[int, int]:
    """The (lo, hi) bounds on cell i given the values of the earlier
    cells: lo is the join of those below it, hi the meet of those above
    it and of the cell's arguments, which every product lies below.  A
    candidate v, one below that meet, clashes with no earlier cell
    exactly when lo <= v <= hi."""
    join, meet = fill.skel.join, fill.skel.meet
    lo = 0
    for j in fill.lower[i]:
        lo = join[lo][vals[j]]
    x, y = fill.cells[i]
    hi = meet[x][y]
    for j in fill.upper[i]:
        hi = meet[hi][vals[j]]
    return lo, hi


def _row_residual(fill: _Fill, row):
    """Given row y of the product, the row z -> (y -> z) of the
    implication, or None when some {x : x*y <= z} is not a principal
    down-set, that is when x -> x*y has no residual."""
    key = tuple(row)
    try:
        return fill.residuals[key]
    except KeyError:
        pass
    out = []
    for dz in fill.down:
        below_z = 0
        for x, w in enumerate(key):
            if dz >> w & 1:
                below_z |= 1 << x
        best = fill.principal.get(below_z)
        if best is None:
            out = None
            break
        out.append(best)
    fill.residuals[key] = None if out is None else tuple(out)
    return fill.residuals[key]


def _row_ok(fill: _Fill, prod_t, r: int, triples) -> bool:
    """Once rows 0..r are complete: does row r have a residual, and does
    associativity hold on triples, the ones closes gives for row r?"""
    if _row_residual(fill, prod_t[r]) is None:
        return False
    for x, y, z in triples:
        if prod_t[prod_t[x][y]][z] != prod_t[x][prod_t[y][z]]:
            return False
    return True


def _walk(fill: _Fill, out_tables):
    """Depth-first fill of every cell, row by row.  Setting the last cell
    of a row completes it, and a value that fails _row_ok is pruned, so
    every full table reached is residuated and associative and is
    recorded.  The values tried at a cell are the members of its
    interval, ascending.  Returns the count pruned."""
    n = fill.skel.n
    cells, closes, up, down = fill.cells, fill.closes, fill.up, fill.down
    # The candidates of each cell: the values below its meet.
    ncand = [down[fill.skel.meet[x][y]].bit_count() for x, y in cells]
    top = n - 1
    # One product table per walk: each cell is written when assigned,
    # so at a leaf the table holds exactly the current assignment.
    prod_t = [[0] * n for _ in range(n)]
    for i in range(n):
        prod_t[i][top] = i
        prod_t[top][i] = i
    vals = [0] * len(cells)
    pruned = 0

    def rec(i):
        nonlocal pruned
        if i == len(cells):
            out_tables.append(tuple(map(tuple, prod_t)))
            return
        lo, hi = _interval(fill, i, vals)
        values = _MEMBERS[up[lo] & down[hi]]
        pruned += ncand[i] - len(values)
        x, y = cells[i]
        row_x, row_y = prod_t[x], prod_t[y]
        triples = closes[i]
        for v in values:
            row_x[y] = row_y[x] = vals[i] = v
            if triples is not None and not _row_ok(fill, prod_t, x, triples):
                pruned += 1
                continue
            rec(i + 1)

    rec(0)
    return pruned


def _canonical_product(symmetries, prod_t) -> bytes:
    """Least relabeling of the table, flattened, under the skeleton
    automorphisms: the identity and the given _symmetries."""
    flat = _flat(prod_t)
    return min([flat, *(bytes(gather(flat)).translate(tr)
                        for _, gather, tr in symmetries)])


def _build_algebra(fill: _Fill, prod_t) -> ResiduatedLattice:
    """The algebra of an accepted table, built without validation: the
    skeleton is a bounded lattice, the walk fills commutative tables
    with the top as unit, and the walk's row checks found this one
    residuated and associative.  The implication is read off the
    residual rows."""
    skel = fill.skel
    impl_t = tuple(_row_residual(fill, row) for row in prod_t)
    return ResiduatedLattice(names_for(skel.n), skel.join, skel.meet, prod_t,
                             impl_t, 0, skel.n - 1, fill.up, fill.down)


def enumerate_residuated(skel: LatticeSkeleton,
                         ) -> tuple[tuple[ResiduatedLattice, ...], SearchStats]:
    """All residuated products on the skeleton up to isomorphism."""
    fill = _Fill(skel)
    tables: list = []
    pruned = _walk(fill, tables)
    found = len(tables)
    symmetries = _symmetries(skel)
    emitted = sorted({_canonical_product(symmetries, t) for t in tables})
    stats = SearchStats(found, pruned, found, len(emitted),
                        found - len(emitted))
    algebras = tuple(_build_algebra(fill, _rows(t, skel.n)) for t in emitted)
    return algebras, stats


# -- predicate language over the class verdicts ----------------------------

ATOMS = {
    **VERDICTS,
    "true": lambda alg: True,
    "false": lambda alg: False,
}


def _atom(name: str):
    """ATOMS[name], except that given a ClassificationResult, which
    bench/tracer.py still passes, a class atom reads the verdict it
    holds."""
    verdict = ATOMS[name]
    if name not in ClassificationResult._fields:
        return verdict
    return lambda x: (getattr(x, name) if isinstance(x, ClassificationResult)
                      else verdict(x))


_TOKEN = re.compile(r"\s*([()]|[a-z_]+)")


def _tokenize(src: str) -> list[str]:
    out = []
    src = src.strip()
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise PreconditionError(
                f"bad character in predicate at position {pos}: {src[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_predicate(src: str):
    """Compile ``not/and/or`` formulas over the atoms.

    Returns a callable taking a ResiduatedLattice.  Each class atom is
    the verdict function of that name in ``classify``, computed on first
    read and memoised on the algebra, and the operators short-circuit,
    so a call computes only the verdicts it reads: ``true`` none, and
    ``a and b`` never b where a is false.  The grammar is Python's:
    ``not`` binds tighter than ``and``, which binds tighter than ``or``,
    and parentheses nest at most 200 deep (less where each level holds
    operators, as the parser's own stack runs out first; both are a
    PreconditionError).  Each run of ``not`` is cut
    to its parity (an even run to two, so that it still needs an
    operand), so only parentheses make the parse, and the call, deep.
    """
    import ast

    tokens = _tokenize(src)
    if not tokens:
        raise PreconditionError("empty predicate")
    folded = []
    for tok, run in groupby(tokens):
        n = len(tuple(run))
        folded += [tok] * ((n % 2 or 2) if tok == "not" else n)
    try:
        tree = ast.parse(" ".join(folded), mode="eval").body
    except SyntaxError as exc:
        raise PreconditionError(f"malformed predicate: {exc.msg}") from None
    except (RecursionError, MemoryError):
        # How the parser reports input too deep for its own stack
        # (MemoryError on 3.11, at about 180 levels of "( a or b and").
        raise PreconditionError("predicate nests too deeply") from None

    def build(node, negate):
        """The callable for node, or with negate for its negation."""
        while isinstance(node, ast.UnaryOp):  # _tokenize admits only "not"
            node, negate = node.operand, not negate
        if isinstance(node, ast.BoolOp):
            # A chain returns stop at the first part that gives stop.  The
            # negation of a chain is the dual chain over the negated parts,
            # which reads the same verdicts; so "not" costs no call.
            stop = isinstance(node.op, ast.Or) != negate
            parts = [build(part, negate) for part in node.values]

            def chain(alg):
                for part in parts:
                    if part(alg) == stop:
                        return stop
                return not stop
            return chain
        if not isinstance(node, ast.Name):
            raise PreconditionError(
                "malformed predicate: expected atoms joined by and, or, "
                "not and parentheses")
        if node.id not in ATOMS:
            raise PreconditionError(
                f"unknown predicate atom {node.id!r}; expected one of "
                + ", ".join(sorted(ATOMS)))
        atom = _atom(node.id)
        return (lambda alg: not atom(alg)) if negate else atom

    return build(tree, False)


class MineResult(Record):
    """Matching algebras plus the work done finding them."""

    matches: tuple[ResiduatedLattice, ...]
    lattices: int
    stats: SearchStats


def mine(predicate: str, n_max: int, n_min: int = 1) -> MineResult:
    """Search every algebra on n_min..n_max elements for the predicate."""
    _check_carrier(n_max)
    if not 1 <= n_min <= n_max:
        raise PreconditionError("carrier range is empty")
    pred = parse_predicate(predicate)
    matches = []
    lattices = 0
    total = ZERO_STATS
    for n in range(n_min, n_max + 1):
        for skel in enumerate_lattices(n):
            lattices += 1
            algebras, stats = enumerate_residuated(skel)
            total = total + stats
            for alg in algebras:
                if pred(alg):
                    matches.append(alg)
    return MineResult(tuple(matches), lattices, total)

