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
    "gf2_rref",
]


def parity(x: int) -> int:
    return x.bit_count() & 1


def gf2_rank(rows: Iterable[int]) -> int:
    return len(gf2_rref(rows))


def gf2_rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis, rows sorted by descending pivot.

    The result is the canonical representative of the row span: two inputs
    span the same subspace iff their rref tuples are equal.
    """
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    basis.sort(reverse=True)
    # back-substitute so each pivot column is zero in every other row
    for i, b in enumerate(basis):
        piv = 1 << (b.bit_length() - 1)
        for j in range(i):
            if basis[j] & piv:
                basis[j] ^= b
    return tuple(basis)
