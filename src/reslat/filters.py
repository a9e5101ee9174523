"""Filters of a finite residuated lattice as bit-vector subsets.

A filter is a nonempty subset closed under prod and absorbing under
join, hence an up-set.  A family of filters is a plain tuple of masks
in the canonical order from subsets.sort_family, so every listing of
the same family renders identically.

Generated filters come with closed forms: the filter a subset generates
is everything above the idempotent power of the product of its members,
the extension of F by x is every element above some f * x^k, and so on
a finite carrier every filter is principal.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .errors import PreconditionError
from .subsets import elements, singleton, sort_family


@derived
def generated_filter(alg: ResiduatedLattice, mask: int) -> int:
    """Least filter containing the subset; the empty subset gives {top}.

    Closed form: everything above the idempotent power of p, the product
    of the members.  Every product of members with repetition lies above
    some power of p, the powers of p only fall (p <= top, the unit), and
    squaring p until it stops changing reaches the power that all later
    ones equal.
    """
    p = alg.product_of(mask)
    while True:
        sq = alg.prod[p][p]
        if sq == p:
            return alg.up[p]
        p = sq


def is_filter(alg: ResiduatedLattice, mask: int) -> bool:
    """Whether the subset is the least filter containing it."""
    return generated_filter(alg, mask) == mask


def principal_filter(alg: ResiduatedLattice, x: int) -> int:
    return generated_filter(alg, singleton(x))


@derived
def extend_filter(alg: ResiduatedLattice, f_mask: int, x: int) -> int:
    """Extension of a filter by one element, via its closed form.

    The result is {a : f * x^k <= a for some member f and some k >= 0},
    the filter generated by F and x.
    """
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"extend_filter of a non-filter {alg.subset_str(f_mask)}")
    out = 0
    pws = alg.powers(x)
    for f in elements(f_mask):
        for p in pws:
            out |= alg.up[alg.prod[f][p]]
    return out


@derived
def all_filters(alg: ResiduatedLattice) -> tuple[int, ...]:
    """Every filter: on a finite carrier each one is principal, so the
    principal filters of single elements are all of them."""
    return sort_family({principal_filter(alg, x) for x in range(alg.n)})


def proper_filters(alg: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in all_filters(alg) if f != alg.universe)


def filter_join(alg: ResiduatedLattice, f: int, g: int) -> int:
    return generated_filter(alg, f | g)


def principal_generator(alg: ResiduatedLattice, f_mask: int) -> int:
    """An element generating the filter: the product of its members.

    Every filter of a finite algebra is the principal filter of this
    element.
    """
    if not is_filter(alg, f_mask):
        raise PreconditionError(f"not a filter: {alg.subset_str(f_mask)}")
    return alg.product_of(f_mask)
