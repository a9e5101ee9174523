"""Subsets of a finite carrier as machine-word bit vectors.

A subset of a carrier of size n (n <= 64) is an int whose k-th bit marks
membership of element k.  All set algebra is bitwise.  Families of
subsets are kept in one canonical order, cardinality first and then the
numeric value of the bit vector, so listings stay diffable between runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


def full_set(n: int) -> int:
    return (1 << n) - 1


def singleton(x: int) -> int:
    return 1 << x


def from_elements(xs: Iterable[int]) -> int:
    mask = 0
    for x in xs:
        mask |= 1 << x
    return mask


def contains(mask: int, x: int) -> bool:
    return bool(mask >> x & 1)


def elements(mask: int) -> Iterator[int]:
    """Members in ascending order, visiting only the set bits."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def sort_family(masks: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate and sort a family into canonical order."""
    return tuple(sorted(set(masks), key=canonical_key))


def render(mask: int, names: Sequence[str]) -> str:
    """Brace-delimited listing in carrier order, e.g. ``{b, d, 1}``."""
    return "{" + ", ".join(names[x] for x in elements(mask)) + "}"
