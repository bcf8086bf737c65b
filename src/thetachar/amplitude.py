"""Subspace sums of theta constants and the genus-g measure candidate.

The chain here is: generate the totally-even subspaces W of F2^2g (the
totally singular subspaces of the parity form, built directly by the
isotropic-subspace generator in symplectic), take the product P_W of the
theta-constant table's entries over the elements of W, raise it to
2^(4-i) and sum over dimension-i subspaces to get P_i, then combine the
P_i with alternating signed weights into Xi.  Everything is capped at
g <= 4, where the exponents 2^(4-i) are still integers.

_sum_levels is the one route from a table to the P_i: P_0..P_g are summed
together, once per (tau, tol), by one gather from the table over the
spans of every level (_level_index), each level then multiplied out and
summed on its own.  P_i_g and xi_g, and the CLI through them, read the
tuple from _level_sums, cached on (tau, Tolerance) 16 at a time like the
tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .symplectic import _isotropic_bases, _span
from .theta import PeriodMatrix, Tolerance, block_diag, theta_constant_table

__all__ = ["P_i_g", "xi_g", "factorization_residual"]

GENUS_CAP = 4


def _even_spans(g: int, i: int) -> np.ndarray:
    """The totally-even i-dim subspaces of F2^2g, one row of elements each.

    The parity of a characteristic is the quadratic form q0(eps, delta) =
    eps.delta on F2^2g, and these are its totally singular subspaces, read
    from the isotropic-subspace generator.  Rows are in canonical order:
    descending pivots, then rows; each row is ascending.  An element x =
    eps * 2^g + delta is also the flat index of theta[eps; delta] in a
    (2^g, 2^g) table, so the rows gather the products P_W.
    """
    rows = [sorted(_span(basis)) for basis in _isotropic_bases(g, True)[i]]
    return np.array(rows, dtype=np.intp).reshape(len(rows), 1 << i)


def _halved(factors: np.ndarray) -> np.ndarray:
    """The product down the first axis of factors, by halving: i vector products for 2^i rows."""
    while len(factors) > 1:
        half = len(factors) // 2
        factors = factors[:half] * factors[half:]
    return factors[0]


@lru_cache(maxsize=None)
def _level_index(g: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """_even_spans(g, i) for i = 0..g, each transposed, end to end, and each one's shape.

    One gather from a table over the index holds, level by level, the
    entries of every span with one row per element position, so each
    position is contiguous for the products.
    """
    levels = [_even_spans(g, i).T for i in range(g + 1)]
    index = np.concatenate([level.ravel() for level in levels])
    index.setflags(write=False)
    return index, tuple(level.shape for level in levels)


def _sum_levels(table: np.ndarray, g: int) -> tuple[complex, ...]:
    """P_0..P_g from one table: one gather, then each level halved and squared.

    Each level's block is multiplied down its 2^i element positions by
    halving (i vector products instead of a reduction over a short axis),
    squared 4 - i times and summed by a fixed numpy reduction, exactly as
    the level would be on its own, bit for bit.
    """
    index, shapes = _level_index(g)
    factors = table.ravel()[index]
    sums = []
    start = 0
    for i, (rows, cols) in enumerate(shapes):
        terms = _halved(factors[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
        for _ in range(4 - i):
            terms = terms * terms
        sums.append(complex(np.sum(terms)))
    return tuple(sums)


@lru_cache(maxsize=16)
def _level_sums(tau: PeriodMatrix, tol: Tolerance) -> tuple[complex, ...]:
    """P_0..P_g at tau, summed from the theta-constant table of (tau, tol)."""
    return _sum_levels(theta_constant_table(tau, tol), tau.g)


def _check_genus(g: int, tau: PeriodMatrix | None = None) -> None:
    """The genus range of Xi, then tau's genus; the CLI checks the range before it parses tau."""
    if not 1 <= g <= GENUS_CAP:
        raise ValueError(f"need 1 <= g <= {GENUS_CAP}, got {g}")
    if tau is not None and g != tau.g:
        raise ValueError(f"g={g} does not match tau (genus {tau.g})")


def _check_split(g: int, k: int) -> None:
    """The range of a split g = k + (g - k); the CLI checks it before it parses tau."""
    if not 1 <= k < g <= GENUS_CAP:
        raise ValueError(f"need 1 <= k < g <= {GENUS_CAP}, got g={g}, k={k}")


def P_i_g(tau: PeriodMatrix, g: int, i: int, tol=Tolerance()) -> complex:
    """Sum of P_W^(2^(4-i)) over the i-dimensional subspaces.

    Only totally-even subspaces contribute; the rest are skipped before
    any numeric work.  Each P_W is a product of entries of the
    theta-constant table, raised to 2^(4-i) by 4 - i squarings, and the
    terms are summed in canonical enumeration order by a fixed numpy
    reduction, so the result is bit-reproducible.  Every P_i of one tau is
    summed in the same pass (_level_sums), which xi_g reads too.
    """
    _check_genus(g, tau)
    if not 0 <= i <= g:
        raise ValueError(f"need 0 <= i <= g, got i={i}, g={g}")
    return _level_sums(tau, Tolerance.coerce(tol))[i]


def xi_g(tau: PeriodMatrix, g: int, tol=Tolerance()) -> complex:
    """The alternating combination (1/2^g) sum_i (-1)^i 2^(i(i-1)/2) P_i."""
    _check_genus(g, tau)
    total = 0j  # summed in order: sum() may compensate, which changes the last bits
    for i, p in enumerate(_level_sums(tau, Tolerance.coerce(tol))):
        total += (1 << (i * (i - 1) // 2)) * (-1) ** i * p
    return total / (1 << g)


def factorization_residual(tau1: PeriodMatrix, tau2: PeriodMatrix, tol=Tolerance()) -> float:
    """Relative defect of Xi(diag(tau1, tau2)) against Xi(tau1) * Xi(tau2).

    The split is read from the two period matrices: g = g1 + g2, k = g1.
    Floored at 1 in the denominator so the residual stays meaningful near
    zeros of Xi.
    """
    k, g = tau1.g, tau1.g + tau2.g
    _check_split(g, k)
    joint = xi_g(block_diag(tau1, tau2), g, tol)
    split = xi_g(tau1, k, tol) * xi_g(tau2, g - k, tol)
    return abs(joint - split) / max(1.0, abs(split))
