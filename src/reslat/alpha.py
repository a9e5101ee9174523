"""Filters closed under double coannihilators.

A filter F is double-coannihilator closed when membership of x forces
membership of everything in the double coannihilator of x.  These
filters are the fixed points of a closure operator on the filter
lattice that preserves intersections, so they form a frame of their
own, with a Heyting implication, and that frame is isomorphic to the
frame of lattice filters of the coannulet lattice via a mutually
inverse monotone pair of maps.

Each computation takes one route.  Primality among alpha filters is
primality as an ordinary filter; the statement suite compares it with
the other three characterizations of the theorem.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .coann import coannulet, coannulet_lattice
from .errors import PreconditionError
from .filters import all_filters, generated_filter, is_filter
from .spectrum import is_prime
from .subsets import contains, elements, singleton
from .views import LatticeView, build_view, view_filter_generated, view_filters


def is_alpha_filter(alg: ResiduatedLattice, mask: int) -> bool:
    """Whether the filter swallows double coannihilators of its members."""
    if not is_filter(alg, mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(mask)}")
    dbl = alg.double_coannulets
    return all(dbl[x] & ~mask == 0 for x in elements(mask))


@derived
def alpha_family(alg: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in all_filters(alg) if is_alpha_filter(alg, f))


def alpha_closure(alg: ResiduatedLattice, mask: int) -> int:
    """Least double-coannihilator-closed filter containing the subset.

    Built as the union of member double coannihilators over the
    generated filter, so it is memoised per filter, not per subset.
    """
    return _closure_of_filter(alg, generated_filter(alg, mask))


@derived
def _closure_of_filter(alg: ResiduatedLattice, f_mask: int) -> int:
    dbl = alg.double_coannulets
    out = 0
    for x in elements(f_mask):
        out |= dbl[x]
    return out


@derived
def alpha_extend(alg: ResiduatedLattice, f_mask: int, x: int) -> int:
    """Least alpha filter containing F and x.

    Closed form: union of the double coannihilators of f * x^k over
    members f and exponents k.
    """
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(f_mask)}")
    dbl = alg.double_coannulets
    out = 0
    for f in elements(f_mask):
        acc = f
        seen = set()
        while acc not in seen:
            seen.add(acc)
            out |= dbl[acc]
            acc = alg.prod[acc][x]
    return out


def alpha_join(alg: ResiduatedLattice, f: int, g: int) -> int:
    return alpha_closure(alg, f | g)


@derived
def alpha_lattice(alg: ResiduatedLattice) -> LatticeView:
    """The alpha filters as a lattice: meet is intersection, join is
    the closure of the union."""
    return build_view("alpha-filters", alpha_family(alg),
                      lambda u, v: alpha_join(alg, u, v), lambda u, v: u & v)


def heyting_implication(alg: ResiduatedLattice, f_mask: int, g_mask: int) -> int:
    """Largest alpha filter whose intersection with F lies inside G.

    Existence is a frame fact; the maximum is the join of all
    candidates.
    """
    fam = alpha_family(alg)
    if f_mask not in fam or g_mask not in fam:
        raise PreconditionError("heyting implication needs alpha filters")
    out = alpha_closure(alg, singleton(alg.top))
    for h in fam:
        if f_mask & h & ~g_mask == 0:
            out = alpha_join(alg, out, h)
    return out


# -- transfer to and from the coannulet lattice ----------------------------

def perp_image(alg: ResiduatedLattice, f_mask: int) -> int:
    """Map an alpha filter to the coannulets of its members, as a
    lattice filter of the coannulet lattice (a mask over view keys)."""
    if not is_alpha_filter(alg, f_mask):
        raise PreconditionError(f"not an alpha filter: {alg.subset_str(f_mask)}")
    view = coannulet_lattice(alg)
    out = 0
    for x in elements(f_mask):
        out |= singleton(view.index(coannulet(alg, x)))
    return out


def perp_preimage(alg: ResiduatedLattice, g_mask: int) -> int:
    """Map a lattice filter of the coannulet lattice back to the
    elements whose coannulet it contains; always an alpha filter."""
    view = coannulet_lattice(alg)
    if g_mask not in view_filters(view):
        raise PreconditionError("not a lattice filter of the coannulet lattice")
    out = 0
    for x in range(alg.n):
        if contains(g_mask, view.index(coannulet(alg, x))):
            out |= singleton(x)
    return out


def transfer_roundtrip_check(alg: ResiduatedLattice) -> bool:
    """The two transfer maps are mutually inverse and adjoint, and the
    closure of any filter factors through them."""
    view = coannulet_lattice(alg)
    fam, ups = alpha_family(alg), view_filters(view)
    images = [perp_image(alg, f) for f in fam]
    preimages = [perp_preimage(alg, g) for g in ups]
    for f, img in zip(fam, images):
        if perp_preimage(alg, img) != f:
            return False
    for g, pre in zip(ups, preimages):
        if perp_image(alg, pre) != g:
            return False
    for f, img in zip(fam, images):
        for g, pre in zip(ups, preimages):
            if (img & ~g == 0) != (f & ~pre == 0):
                return False
    for f in all_filters(alg):
        raw = 0
        for x in elements(f):
            raw |= singleton(view.index(coannulet(alg, x)))
        via_view = perp_preimage(alg, view_filter_generated(view, raw))
        if via_view != alpha_closure(alg, f):
            return False
    return True


# -- prime alpha filters ---------------------------------------------------

def is_prime_alpha(alg: ResiduatedLattice, mask: int) -> bool:
    """Prime among alpha filters, decided as prime as an ordinary filter.

    The suite statement ``prime-alpha-four-way`` checks this against
    being a prime element of the alpha lattice, meet irreducible there,
    and having a prime coannulet image."""
    if mask not in alpha_family(alg):
        raise PreconditionError(f"not an alpha filter: {alg.subset_str(mask)}")
    return mask != alg.universe and is_prime(alg, mask)


@derived
def prime_alpha_filters(alg: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in alpha_family(alg)
                 if f != alg.universe and is_prime_alpha(alg, f))


def alpha_separate(alg: ResiduatedLattice, f_mask: int, c: int) -> int:
    """Grow an alpha filter containing F but avoiding the element c,
    greedily absorbing carrier elements; the maximal result is prime.

    As for ``spectrum.separate``, avoiding c is avoiding any join-closed
    set whose join is c: the set holds c, and a filter meets it exactly
    when it holds c.
    """
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(f_mask)}")
    start = alpha_closure(alg, f_mask)
    if contains(start, c):
        raise PreconditionError(
            f"closure of {alg.subset_str(f_mask)} already contains {alg.names[c]}")
    cur = start
    for x in range(alg.n):
        if not contains(cur, x):
            bigger = alpha_extend(alg, cur, x)
            if not contains(bigger, c):
                cur = bigger
    return cur
