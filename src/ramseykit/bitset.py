"""Tiny bitmask helpers used by the search kernels.

Vertex sets are plain Python ints (bit i set = vertex i present), which keeps
set intersection, complement and popcount at C speed for the n <= ~100 range
this package works in.
"""
from __future__ import annotations

from typing import Iterable, Iterator


def bits_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
