"""Bit-packed linear algebra over GF(2).

Vectors are Python ints; a length-n vector stores coordinate k (k = 0
leftmost) at bit position n-1-k, so ``int(bits, 2)`` and ``format(v,
f"0{n}b")`` convert to and from bit strings directly.  Matrices are lists
of row ints in the same packing, and every operation works on whole rows.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = [
    "parity",
    "gf2_rank",
]


def parity(x: int) -> int:
    return x.bit_count() & 1


def _span(basis) -> list[int]:
    """All 2^len(basis) sums of the rows: entry i sums the rows at the set bits of i."""
    span = [0]
    for row in basis:
        span += [x ^ row for x in span]
    return span


def gf2_rank(rows: Iterable[int]) -> int:
    """The dimension of the row span: the length of the basis elimination builds."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)
