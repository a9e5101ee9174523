from __future__ import annotations

from hypothesis import given, settings, strategies as st

from reslat.subsets import elements


def _bit_by_bit(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


@settings(max_examples=500, deadline=None)
@given(mask=st.integers(0, 2**64 - 1))
def test_elements_lists_the_set_bits_in_ascending_order(mask):
    assert list(elements(mask)) == _bit_by_bit(mask)


def test_elements_edge_masks():
    assert list(elements(0)) == []
    assert list(elements(1 << 63)) == [63]
    assert list(elements(2**64 - 1)) == list(range(64))
