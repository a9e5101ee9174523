"""Naive reference computations used to freeze expected test values.

Direct transcriptions of the definitions as subset scans over frozensets
of element indices.  Deliberately independent of the package under test:
nothing here imports reslat.  Exponential in places; only run on small
algebras.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product


def make(names, join, meet, prod, impl, bottom, top):
    """Bundle index tables as a dict the other helpers consume."""
    pos = {v: i for i, v in enumerate(names)}
    conv = lambda m: tuple(tuple(pos[v] for v in row) for row in m)
    return {
        "n": len(names),
        "names": tuple(names),
        "join": conv(join),
        "meet": conv(meet),
        "prod": conv(prod),
        "impl": conv(impl),
        "bottom": pos[bottom],
        "top": pos[top],
    }


def leq(t, x, y):
    return t["meet"][x][y] == x


def table_violations(n, join, meet, prod, impl, bottom, top):
    """Every law that index tables on 0..n-1 break, as {law: (first
    witness, number of failing instances)}.

    Each law is checked on its own, over all its instances: the
    elements, the pairs or the triples in lexicographic order.  Where
    one law has two forms (a unit on either side, the two absorption
    laws) both are instances, the left form first.
    """
    E = range(n)
    pairs = list(product(E, repeat=2))
    triples = list(product(E, repeat=3))

    def le(a, b):
        return meet[a][b] == a

    def unary(*forms):
        return [(w(x), ok(x)) for x in E for w, ok in forms]

    def alone(x):
        return (x,)

    def binary(*forms):
        return [((x, y), ok(x, y)) for x, y in pairs for ok in forms]

    def ternary(ok, among=triples):
        return [((x, y, z), ok(x, y, z)) for x, y, z in among]

    laws = {
        "join-idempotent": unary((alone, lambda x: join[x][x] == x)),
        "meet-idempotent": unary((alone, lambda x: meet[x][x] == x)),
        "prod-identity": unary((lambda x: (x, top), lambda x: prod[x][top] == x),
                               (lambda x: (top, x), lambda x: prod[top][x] == x)),
        "bottom-least": unary((lambda x: (bottom, x), lambda x: le(bottom, x))),
        "top-greatest": unary((lambda x: (x, top), lambda x: le(x, top))),
        "join-commutative": binary(lambda x, y: join[x][y] == join[y][x]),
        "meet-commutative": binary(lambda x, y: meet[x][y] == meet[y][x]),
        "prod-commutative": binary(lambda x, y: prod[x][y] == prod[y][x]),
        "absorption": binary(lambda x, y: join[x][meet[x][y]] == x,
                             lambda x, y: meet[x][join[x][y]] == x),
        "order-consistency": binary(lambda x, y: le(x, y) == (join[x][y] == y)),
        "prod-below-meet": binary(lambda x, y: le(prod[x][y], meet[x][y])),
        "join-associative": ternary(
            lambda x, y, z: join[join[x][y]][z] == join[x][join[y][z]]),
        "meet-associative": ternary(
            lambda x, y, z: meet[meet[x][y]][z] == meet[x][meet[y][z]]),
        "prod-associative": ternary(
            lambda x, y, z: prod[prod[x][y]][z] == prod[x][prod[y][z]]),
        # x*y <= z iff x <= y->z, and iff y <= x->z
        "adjointness": ternary(
            lambda x, y, z: le(prod[x][y], z) == le(x, impl[y][z])),
        "adjointness-commuted": ternary(
            lambda x, y, z: le(prod[x][y], z) == le(y, impl[x][z])),
        "prod-join-distributive": ternary(
            lambda x, y, z: prod[x][join[y][z]] == join[prod[x][y]][prod[x][z]]),
        "join-prod-superdistributive": ternary(
            lambda x, y, z: le(prod[join[x][y]][join[x][z]], join[x][prod[y][z]])),
        # quantified over x <= y only
        "prod-monotone": ternary(
            lambda x, y, z: le(prod[x][z], prod[y][z]),
            [(x, y, z) for x, y, z in triples if le(x, y)]),
    }
    out = {}
    for law, instances in laws.items():
        failing = [w for w, ok in instances if not ok]
        if failing:
            out[law] = (failing[0], len(failing))
    return out



# -- residuation arithmetic, instance by instance ---------------------------
# The suite's first three laws as walks over every instance, in the
# suite's order: each yields (describe, ok), describe returning the
# instance's text.  They read only the tables of ``alg`` (names, join,
# meet, prod, impl, top), so they run on tables that fail validation.

def _le(alg, a, b):
    return alg.meet[a][b] == a


def _power(alg, x, k):
    acc = alg.top
    for _ in range(k):
        acc = alg.prod[acc][x]
    return acc


def residuation_basics(alg):
    nm, impl, prod, top = alg.names, alg.impl, alg.prod, alg.top
    rng = range(len(nm))
    for x in rng:
        yield lambda: f"1 -> {nm[x]}", impl[top][x] == x
        yield lambda: f"{nm[x]} -> 1", impl[x][top] == top
        for y in rng:
            yield (lambda: f"{nm[x]} * ({nm[x]} -> {nm[y]})",
                   _le(alg, prod[x][impl[x][y]], y))
            yield (lambda: f"order vs implication at ({nm[x]}, {nm[y]})",
                   _le(alg, x, y) == (impl[x][y] == top))
            yield (lambda: f"{nm[y]} below {nm[x]} -> {nm[y]}",
                   _le(alg, y, impl[x][y]))
            for z in rng:
                yield (lambda: f"currying at ({nm[x]}, {nm[y]}, {nm[z]})",
                       impl[x][impl[y][z]] == impl[prod[x][y]][z])
                yield (lambda: f"implication chain at ({nm[x]}, {nm[y]}, {nm[z]})",
                       _le(alg, prod[impl[x][y]][impl[y][z]], impl[x][z]))


def product_join_distributivity(alg):
    nm, join, prod = alg.names, alg.join, alg.prod
    rng = range(len(nm))
    for x in rng:
        for y in rng:
            for z in rng:
                yield (lambda: f"{nm[x]} * ({nm[y]} v {nm[z]})",
                       prod[x][join[y][z]] == join[prod[x][y]][prod[x][z]])


def power_join_bound(alg):
    nm, join = alg.names, alg.join
    rng = range(len(nm))
    for x in rng:
        for y in rng:
            for m in range(3):
                for k in range(3):
                    if m + k == 0:
                        continue
                    yield (lambda: f"({nm[x]} v {nm[y]})^{m + k} vs "
                                   f"{nm[x]}^{m} v {nm[y]}^{k}",
                           _le(alg, _power(alg, join[x][y], m + k),
                               join[_power(alg, x, m)][_power(alg, y, k)]))

def all_subsets(t):
    n = t["n"]
    for m in range(1 << n):
        yield frozenset(i for i in range(n) if m >> i & 1)


def names_of(t, s):
    return "{" + ", ".join(t["names"][x] for x in sorted(s)) + "}"


# -- filters ---------------------------------------------------------------

def is_filter(t, s):
    if not s:
        return False
    for x in s:
        for y in s:
            if t["prod"][x][y] not in s:
                return False
        for y in range(t["n"]):
            if t["join"][x][y] not in s:
                return False
    return True


def filters(t):
    return list(_filters(tuple(t.items())))


@cache
def _filters(items):
    """The filter scan of one algebra, kept for the subset-by-subset
    oracles that read it once per subset."""
    t = dict(items)
    return tuple(sorted((s for s in all_subsets(t) if is_filter(t, s)),
                        key=lambda s: (len(s), sorted(s))))


def generated(t, xs):
    """Least filter containing xs: intersection of all filters above it."""
    acc = frozenset(range(t["n"]))
    for f in filters(t):
        if set(xs) <= f:
            acc &= f
    return acc


def proper_filters(t):
    full = frozenset(range(t["n"]))
    return [f for f in filters(t) if f != full]


def prime_witness(t, f):
    """First pair (x, y), scanning every x and then every y, with x v y
    in f and neither x nor y in f; None when there is none."""
    for x in range(t["n"]):
        for y in range(t["n"]):
            if t["join"][x][y] in f and x not in f and y not in f:
                return (x, y)
    return None


def is_prime(t, f):
    if not is_filter(t, f) or len(f) == t["n"]:
        return False
    return prime_witness(t, f) is None


def primes(t):
    return [f for f in filters(t) if is_prime(t, f)]


def maximal_filters(t):
    props = proper_filters(t)
    return [f for f in props if not any(f < g for g in props)]


def minimal_primes(t):
    ps = primes(t)
    return [p for p in ps if not any(q < p for q in ps)]


def join_closed_sets(t):
    """Nonempty subsets holding the join of every pair of members."""
    return [s for s in all_subsets(t)
            if s and all(t["join"][x][y] in s for x in s for y in s)]


def separate(t, f, c):
    """Grow the filter f away from c: absorb the first element, in
    carrier order, whose generated filter still avoids c, and start
    again from the first element, until none can be absorbed."""
    fs = filters(t)

    def generated_by(xs):
        acc = frozenset(range(t["n"]))
        for g in fs:
            if xs <= g:
                acc &= g
        return acc

    cur = frozenset(f)
    while True:
        for x in range(t["n"]):
            if x not in cur:
                ext = generated_by(cur | {x})
                if not ext & c:
                    cur = ext
                    break
        else:
            return cur


# -- coannihilators --------------------------------------------------------

def perp(t, xs):
    top = t["top"]
    return frozenset(a for a in range(t["n"])
                     if all(t["join"][a][x] == top for x in xs))


def dense_elements(t):
    return frozenset(x for x in range(t["n"]) if perp(t, {x}) == {t["top"]})


def nilpotents(t):
    out = set()
    for x in range(t["n"]):
        acc = t["top"]
        for _ in range(t["n"] + 1):
            acc = t["prod"][acc][x]
            if acc == t["bottom"]:
                out.add(x)
                break
    return frozenset(out)


def boolean_center(t):
    out = set()
    for e in range(t["n"]):
        for f in range(t["n"]):
            if t["meet"][e][f] == t["bottom"] and t["join"][e][f] == t["top"]:
                out.add(e)
                break
    return frozenset(out)


def coannulet_family(t):
    return sorted({perp(t, {x}) for x in range(t["n"])},
                  key=lambda s: (len(s), sorted(s)))


def coannihilator_family(t):
    return sorted({perp(t, s) for s in all_subsets(t)},
                  key=lambda s: (len(s), sorted(s)))


# -- lattice ideals and their filters --------------------------------------

def is_ideal(t, s):
    if not s:
        return False
    for x in s:
        for y in range(t["n"]):
            if leq(t, y, x) and y not in s:
                return False
        for y in s:
            if t["join"][x][y] not in s:
                return False
    return True


def ideals(t):
    return sorted((s for s in all_subsets(t) if is_ideal(t, s)),
                  key=lambda s: (len(s), sorted(s)))


def _ideal_closure(t, xs):
    """Close xs plus bottom under down-sets and pairwise joins until
    nothing changes."""
    n, join = t["n"], t["join"]
    cur = frozenset(xs) | {t["bottom"]}
    while True:
        nxt = set(cur)
        for x in cur:
            nxt.update(y for y in range(n) if leq(t, y, x))
            nxt.update(join[x][y] for y in cur)
        if nxt == cur:
            return cur
        cur = frozenset(nxt)


def grown_ideals(t):
    """Every lattice ideal without a subset scan: grown from the closure
    of bottom, each ideal found extended by one element outside it and
    closed again, until no new ideal appears."""
    start = _ideal_closure(t, ())
    found = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for x in range(t["n"]):
            if x not in i:
                j = _ideal_closure(t, i | {x})
                if j not in found:
                    found.add(j)
                    frontier.append(j)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def omega(t, ideal):
    top = t["top"]
    return frozenset(a for a in range(t["n"])
                     if any(t["join"][a][x] == top for x in ideal))


def omega_family(t):
    return sorted({omega(t, i) for i in ideals(t)},
                  key=lambda s: (len(s), sorted(s)))


# -- alpha filters ---------------------------------------------------------

def is_alpha(t, f):
    if not is_filter(t, f):
        return False
    return all(perp(t, perp(t, {x})) <= f for x in f)


def alpha_filters(t):
    return list(_alpha_filters(tuple(t.items())))


@cache
def _alpha_filters(items):
    t = dict(items)
    return tuple(f for f in filters(t) if is_alpha(t, f))


def alpha_closure(t, xs):
    acc = frozenset(range(t["n"]))
    for f in alpha_filters(t):
        if set(xs) <= f:
            acc &= f
    return acc


def alpha_separate(t, f, c):
    """Grow the alpha closure of f away from c: absorb the first element,
    in carrier order, whose alpha closure with the grown set still avoids
    c, and start again from the first element, until none can be
    absorbed."""
    fs = alpha_filters(t)

    def closure_of(xs):
        acc = frozenset(range(t["n"]))
        for g in fs:
            if xs <= g:
                acc &= g
        return acc

    cur = closure_of(frozenset(f))
    while True:
        for x in range(t["n"]):
            if x not in cur:
                ext = closure_of(cur | {x})
                if not ext & c:
                    cur = ext
                    break
        else:
            return cur


# -- families of subsets and derived lattices -------------------------------

def is_frame(family):
    """Meet distributes over the join of every nonempty subfamily, join
    being the least member over the union and meet the greatest member
    inside the intersection; all 2^k subfamilies are tried."""
    fam = sorted(set(family))

    def join(ms):
        union = 0
        for m in ms:
            union |= m
        above = [f for f in fam if f & union == union]
        return next(f for f in above if all(f & g == f for g in above))

    def meet(ms):
        inter = ~0
        for m in ms:
            inter &= m
        below = [f for f in fam if f & inter == f]
        return next(f for f in below if all(g & f == g for g in below))

    for bits in range(1, 1 << len(fam)):
        sub = [fam[i] for i in range(len(fam)) if bits >> i & 1]
        j = join(sub)
        for f in fam:
            if meet([f, j]) != join([meet([f, g]) for g in sub]):
                return False
    return True


def union_meet_closure(space, family):
    """The family with 0 and the space, closed under union and
    intersection: pairwise unions and intersections are added until
    nothing changes."""
    out = {0, space} | set(family)
    while True:
        grown = out | {u | v for u in out for v in out} | {u & v for u in out for v in out}
        if grown == out:
            return sorted(out, key=lambda m: (bin(m).count("1"), m))
        out = grown


def lattice_law_failures(view):
    """Laws a node-indexed (join, meet, bottom, top) table breaks:
    idempotence, bounds, commutativity, absorption, associativity."""
    n, join, meet = view.n, view.join, view.meet
    out = []
    for x in range(n):
        if join[x][x] != x or meet[x][x] != x:
            out.append(("idempotence", x))
        if meet[view.bottom][x] != view.bottom or join[view.top][x] != view.top:
            out.append(("bounds", x))
        for y in range(n):
            if join[x][y] != join[y][x] or meet[x][y] != meet[y][x]:
                out.append(("commutativity", x, y))
            if join[x][meet[x][y]] != x or meet[x][join[x][y]] != x:
                out.append(("absorption", x, y))
            for z in range(n):
                if join[join[x][y]][z] != join[x][join[y][z]] or \
                        meet[meet[x][y]][z] != meet[x][meet[y][z]]:
                    out.append(("associativity", x, y, z))
    return out


def is_distributive(view):
    """x ^ (y v z) == (x ^ y) v (x ^ z) for every triple of nodes."""
    n, join, meet = view.n, view.join, view.meet
    return all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
               for x in range(n) for y in range(n) for z in range(n))


def is_boolean(view):
    """Distributive, and every node has a complement."""
    n, join, meet = view.n, view.join, view.meet
    return is_distributive(view) and all(
        any(meet[x][y] == view.bottom and join[x][y] == view.top for y in range(n))
        for x in range(n))


def view_filters(view):
    """Lattice filters of a node-indexed lattice, as masks over nodes:
    every nonempty node set closed upward and under meets, found by
    scanning all 2^n node sets, ordered by size then mask."""
    n, meet = view.n, view.meet
    out = []
    for m in range(1, 1 << n):
        nodes = [i for i in range(n) if m >> i & 1]
        if all(m >> j & 1 for i in nodes for j in range(n) if meet[i][j] == i) \
                and all(m >> meet[i][j] & 1 for i in nodes for j in nodes):
            out.append(m)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


# -- model search oracles --------------------------------------------------

def _lattice_ok(rel, n):
    """rel is a frozenset of (x, y) pairs meaning x <= y over 0..n-1."""
    pairs = set(rel)
    for x in range(n):
        if (x, x) not in pairs:
            return False
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c and (a, d) not in pairs:
                return False
        if a != b and (b, a) in pairs:
            return False
    # bounds
    if any((0, x) not in pairs for x in range(n)):
        return False
    if any((x, n - 1) not in pairs for x in range(n)):
        return False
    # unique lub and glb for every pair
    for x in range(n):
        for y in range(n):
            ub = [z for z in range(n) if (x, z) in pairs and (y, z) in pairs]
            least = [z for z in ub if all((z, w) in pairs for w in ub)]
            if len(least) != 1:
                return False
            lb = [z for z in range(n) if (z, x) in pairs and (z, y) in pairs]
            greatest = [z for z in lb if all((w, z) in pairs for w in lb)]
            if len(greatest) != 1:
                return False
    return True


def bounded_lattices(n):
    """All bounded lattices on 0..n-1 up to isomorphism, full relation scan.

    Element 0 is bottom and n-1 is top; the middle n-2 elements carry an
    arbitrary relation, scanned over all 2^((n-2)(n-3)) directed choices
    with no generation-order assumptions.  Feasible for n <= 5.
    """
    mids = list(range(1, n - 1))
    free = [(x, y) for x in mids for y in mids if x != y]
    base = {(x, x) for x in range(n)}
    base |= {(0, x) for x in range(n)}
    base |= {(x, n - 1) for x in range(n)}
    found = {}
    for m in range(1 << len(free)):
        rel = frozenset(base | {free[i] for i in range(len(free)) if m >> i & 1})
        if not _lattice_ok(rel, n):
            continue
        key = canonical_order_key(rel, n)
        if key not in found:
            found[key] = rel
    return [found[k] for k in sorted(found)]


def three_way_lattices(n):
    """All bounded lattices on 0..n-1 up to isomorphism as sorted
    (join, meet) pairs, each the least relabeling under permutations
    fixing bottom and top.

    Every pair x < y of middle elements is tried three ways: x <= y,
    y <= x, or incomparable, so no labelling is assumed.  Feasible for
    n <= 6.
    """
    mids = range(1, n - 1)
    pairs = [(x, y) for x in mids for y in mids if x < y]
    base = {(x, x) for x in range(n)}
    base |= {(0, x) for x in range(n)}
    base |= {(x, n - 1) for x in range(n)}
    perms = [p for p in permutations(range(n)) if p[0] == 0 and p[-1] == n - 1]
    found = set()
    for choice in product(range(3), repeat=len(pairs)):
        rel = set(base)
        for (x, y), c in zip(pairs, choice):
            if c == 1:
                rel.add((x, y))
            elif c == 2:
                rel.add((y, x))
        if not _lattice_ok(frozenset(rel), n):
            continue
        join, meet = rel_to_tables(rel, n)
        found.add(min((relabel_table(join, p, n), relabel_table(meet, p, n))
                      for p in perms))
    return sorted(found)


def canonical_order_key(rel, n):
    """Lex-least adjacency encoding over permutations fixing bottom and top."""
    mids = list(range(1, n - 1))
    best = None
    for pm in permutations(mids):
        m = {0: 0, n - 1: n - 1}
        m.update({mids[i]: pm[i] for i in range(len(mids))})
        enc = tuple(sorted((m[a], m[b]) for (a, b) in rel))
        if best is None or enc < best:
            best = enc
    return best


def rel_to_tables(rel, n):
    """join/meet index tables from an order relation."""
    pairs = set(rel)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ub = [z for z in range(n) if (x, z) in pairs and (y, z) in pairs]
            join[x][y] = next(z for z in ub if all((z, w) in pairs for w in ub))
            lb = [z for z in range(n) if (z, x) in pairs and (z, y) in pairs]
            meet[x][y] = next(z for z in lb if all((w, z) in pairs for w in lb))
    return tuple(map(tuple, join)), tuple(map(tuple, meet))


def residuated_products(join, meet, n, bounded=True):
    """All commutative monoid tables on the given lattice admitting residuals.

    Fills every unordered pair of non-top elements; with bounded=False the
    candidate values range over the whole carrier (full scan, n <= 4), with
    bounded=True over the meet's down-set (any valid table has
    prod(x, y) <= meet(x, y), so the prune drops only invalid candidates).
    Returns full prod tables.
    """
    top = n - 1
    le = lambda x, y: meet[x][y] == x
    cells = [(x, y) for x in range(n) for y in range(x, n) if x != top and y != top]
    choices = []
    for (x, y) in cells:
        if bounded:
            choices.append([v for v in range(n) if le(v, meet[x][y])])
        else:
            choices.append(list(range(n)))
    out = []

    def assemble(vals):
        prod = [[None] * n for _ in range(n)]
        for i in range(n):
            prod[i][top] = i
            prod[top][i] = i
        for (c, v) in zip(cells, vals):
            prod[c[0]][c[1]] = v
            prod[c[1]][c[0]] = v
        return prod

    def residual(prod, y, z):
        cand = [x for x in range(n) if le(prod[x][y], z)]
        best = [x for x in cand if all(le(w, x) for w in cand)]
        return best[0] if len(best) == 1 else None

    def ok(prod):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
                        return False
        impl = [[None] * n for _ in range(n)]
        for y in range(n):
            for z in range(n):
                r = residual(prod, y, z)
                if r is None:
                    return False
                impl[y][z] = r
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if le(prod[x][y], z) != le(x, impl[y][z]):
                        return False
        return True

    def rec(i, vals):
        if i == len(cells):
            prod = assemble(vals)
            if ok(prod):
                out.append(tuple(map(tuple, prod)))
            return
        for v in choices[i]:
            rec(i + 1, vals + [v])

    rec(0, [])
    return out


def automorphisms(join, meet, n):
    perms = []
    for p in permutations(range(n)):
        if all(p[join[x][y]] == join[p[x]][p[y]] and p[meet[x][y]] == meet[p[x]][p[y]]
               for x in range(n) for y in range(n)):
            perms.append(p)
    return perms


def relabel_table(prod, p, n):
    """Table of the relabeled algebra: prod'[p(x)][p(y)] = p(prod[x][y])."""
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(tuple(p[prod[inv[i]][inv[j]]] for j in range(n)) for i in range(n))


def count_up_to_iso(join, meet, prods, n):
    auts = automorphisms(join, meet, n)
    seen = set()
    for prod in prods:
        seen.add(min(relabel_table(prod, p, n) for p in auts))
    return len(seen)


def canonical_form(alg) -> tuple:
    """A label-free fingerprint of a ResiduatedLattice: two algebras get
    the same form exactly when some relabeling carries one onto the
    other."""
    n = alg.n
    best = None
    for p in permutations(range(n)):
        leq_bits = []
        prod_flat = []
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        for x in range(n):
            for y in range(n):
                leq_bits.append(1 if alg.leq(inv[x], inv[y]) else 0)
                prod_flat.append(p[alg.prod[inv[x]][inv[y]]])
        enc = (n, tuple(leq_bits), tuple(prod_flat))
        if best is None or enc < best:
            best = enc
    return best


class _Truth:
    """A truth value whose ~, & and | are not, and and or.  Python gives
    the three operators the precedence order of not, and and or, and it
    evaluates every operand of & and |, so no short circuit can skip an
    operand that is not a truth value."""

    def __init__(self, value):
        self.value = value

    def __invert__(self):
        return _Truth(not self.value)

    def __and__(self, other):
        return _Truth(self.value and other.value)

    def __or__(self, other):
        return _Truth(self.value or other.value)


def predicate_value(tokens, verdicts):
    """The value of a predicate's tokens, Python's ``eval`` with each
    atom bound to its verdict (a bool), or None where the tokens are no
    boolean formula: a syntax error, an unbound name, an empty ``()`` or
    a call."""
    ops = {"not": "~", "and": "&", "or": "|"}
    src = " ".join(ops.get(tok, tok) for tok in tokens)
    names = {name: _Truth(v) for name, v in verdicts.items()}
    try:
        value = eval(src, {"__builtins__": {}}, names)
    except (SyntaxError, NameError, TypeError, AttributeError):
        return None
    return value.value if isinstance(value, _Truth) else None
