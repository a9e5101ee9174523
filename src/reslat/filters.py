"""Filters of a finite residuated lattice as bit-vector subsets.

A filter is a nonempty subset closed under prod and absorbing under
join, hence an up-set.  Filter families carry a provenance tag and keep
the canonical order from subsets.sort_family, so every listing of the
same family renders identically.

Generated filters come with closed forms: the filter a subset generates
is everything above the idempotent power of the product of its members,
the extension of F by x is every element above some f * x^k, and so on
a finite carrier every filter is principal.
"""

from __future__ import annotations

from .algebra import ResiduatedLattice, derived
from .errors import PreconditionError
from .record import Record, setfield
from .subsets import elements, singleton, sort_family

TAG_ALL = "ALL"
TAG_PRIME = "PRIME"
TAG_MAX = "MAX"
TAG_MIN = "MIN"
TAG_ALPHA = "ALPHA"
TAG_PRIME_ALPHA = "PRIME_ALPHA"
TAG_COANNULET = "COANNULET"
TAG_COANNIHILATOR = "COANNIHILATOR"
TAG_OMEGA = "OMEGA"


class FilterFamily(Record):
    """A canonical-ordered tuple of filter masks with a provenance tag."""

    _fields = ("members", "tag")

    def __init__(self, members: tuple[int, ...], tag: str):
        setfield(self, "members", members)
        setfield(self, "tag", tag)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def index(self, mask: int) -> int:
        return self.members.index(mask)


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
def all_filters(alg: ResiduatedLattice) -> FilterFamily:
    """Every filter: on a finite carrier each one is principal, so the
    principal filters of single elements are all of them."""
    principal = {principal_filter(alg, x) for x in range(alg.n)}
    return FilterFamily(sort_family(principal), TAG_ALL)


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


def family_join(family: tuple[int, ...], masks: tuple[int, ...]) -> int:
    """Least family member containing the union of the given members."""
    union = 0
    for m in masks:
        union |= m
    above = [f for f in family if f & union == union]
    if not above:
        raise PreconditionError("family has no upper bound for the join")
    least = min(above, key=lambda f: f.bit_count())
    for f in above:
        if least & f != least:
            raise PreconditionError("family join is not unique")
    return least


def family_meet(family: tuple[int, ...], masks: tuple[int, ...]) -> int:
    """Greatest family member inside the intersection of the given members."""
    inter = ~0
    for m in masks:
        inter &= m
    below = [f for f in family if f & inter == f]
    if not below:
        raise PreconditionError("family has no lower bound for the meet")
    greatest = max(below, key=lambda f: f.bit_count())
    for f in below:
        if f & greatest != f:
            raise PreconditionError("family meet is not unique")
    return greatest


def frame_check(family: tuple[int, ...]) -> bool:
    """Whether meet distributes over joins of arbitrary subfamilies.

    The family is treated as a complete lattice under inclusion, join of
    a subfamily being its least upper member and binary meet its
    greatest lower member.  On a finite lattice binary distributivity,
    F meet (G join H) == (F meet G) join (F meet H) for all members,
    already gives it for the join of every nonempty subfamily, by
    induction on the subfamily's size; so a five-element diamond of
    subsets fails while every filter family passes.
    """
    fam = tuple(sorted(set(family)))
    for g in fam:
        for h in fam:
            j = family_join(fam, (g, h))
            for f in fam:
                lhs = family_meet(fam, (f, j))
                rhs = family_join(fam, (family_meet(fam, (f, g)),
                                        family_meet(fam, (f, h))))
                if lhs != rhs:
                    return False
    return True
