from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

import bruteforce as bf
import tables as tb
from reslat import validate
from reslat.algebra import ResiduatedLattice
from reslat.classify import element_lattice
from reslat.filters import principal_filter
from reslat.search import mine
from reslat.views import kernel_partition

# The benchmark's input generators (luk, godel, boolean) are shared with
# the tests rather than written twice.
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))


def build(spec):
    names, join, meet, prod, impl, bot, top = spec
    ji, mi, pi, ii = tb.index_tables(names, join, meet, prod, impl)
    return validate(names, ji, mi, pi, ii, names.index(bot), names.index(top))


def corrupted(alg, table, cells):
    """The algebra with table[x][y] = v for each (x, y, v), unvalidated."""
    rows = [list(row) for row in getattr(alg, table)]
    for x, y, v in cells:
        rows[x][y] = v
    ops = {op: getattr(alg, op) for op in ("join", "meet", "prod", "impl")}
    ops[table] = tuple(map(tuple, rows))
    return ResiduatedLattice(names=alg.names, bottom=alg.bottom, top=alg.top,
                             up=alg.up, down=alg.down, **ops)


@pytest.fixture(scope="session")
def a7():
    return build(tb.A7)


@pytest.fixture(scope="session")
def chain2():
    return build(tb.CHAIN2)


@pytest.fixture(scope="session")
def chain3():
    return build(tb.CHAIN3)


@pytest.fixture(scope="session")
def chain3n():
    return build(tb.CHAIN3N)


@pytest.fixture(scope="session")
def bool4():
    return build(tb.BOOL4)


@pytest.fixture(scope="session")
def bundled(a7, chain2, chain3, chain3n, bool4):
    return {"a7": a7, "chain2": chain2, "chain3": chain3,
            "chain3n": chain3n, "bool4": bool4}


def mask_of(alg, *names):
    m = 0
    for nm in names:
        m |= 1 << alg.names.index(nm)
    return m


def set_of(alg, mask):
    return frozenset(i for i in range(alg.n) if mask >> i & 1)


def oracle_of(alg):
    """The algebra's tables in the form the brute-force oracle reads."""
    def named(table):
        return [[alg.names[v] for v in row] for row in table]
    return bf.make(alg.names, named(alg.join), named(alg.meet), named(alg.prod),
                   named(alg.impl), alg.names[alg.bottom], alg.names[alg.top])


@functools.cache
def catalog5():
    """Every residuated lattice on at most five elements, up to
    isomorphism, in search order (37 algebras)."""
    return mine("true", 5).matches


def element_kernel_by_principal_filter(alg):
    """Elements generating the same filter; the quotient is the filter
    lattice upside down."""
    return kernel_partition(element_lattice(alg),
                            [principal_filter(alg, x) for x in range(alg.n)])
