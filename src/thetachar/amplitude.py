"""Subspace sums of theta constants and the genus-g measure candidate.

The chain here is: generate the totally-even subspaces W of F2^2g (the
totally singular subspaces of the parity form, built directly by the
isotropic-subspace generator in symplectic), take products P_W of theta
constants over the elements of W, raise to 2^(4-i) and sum over
dimension-i subspaces to get P_i, then combine the P_i with alternating
signed weights into Xi.  Everything is capped at g <= 4, where the
exponents 2^(4-i) are still integers.

P_0..P_g are summed together, once per (tau, tol): one gather from the
theta-constant table over the spans of every level (_level_index), each
level then multiplied out and summed exactly as it would be on its own.
The tuple is cached like the tables, 16 (tau, tol) at a time, and P_i_g,
xi_g and the CLI read it.  A cached tuple never outlives its table: it
keeps the table it was summed from and is summed again whenever
theta_constant_table returns another one (_level_sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import InvariantError
from .gf2 import gf2_rref
from .symplectic import _isotropic_bases, _q0, _reverse_search, _span
from .theta import PeriodMatrix, Tolerance, block_diag, theta_constant_table

AMBIENT_CAP = 8
GENUS_CAP = 4


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F2^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for j in range(k):
        num *= (1 << n) - (1 << j)
        den *= (1 << k) - (1 << j)
    count, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Gaussian binomial [{n} choose {k}]_2 is not integral")
    return count


@dataclass(frozen=True)
class Subspace:
    """A subspace of F2^n held by its reduced-echelon basis.

    The reduced echelon form (descending pivots, each pivot bit cleared
    from every other row) is the unique canonical representative, so two
    Subspace values are == iff they are the same subspace.
    """

    n: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= AMBIENT_CAP:
            raise ValueError(f"ambient dimension {self.n} outside [0, {AMBIENT_CAP}]")
        for row in self.basis:
            if not 0 < row < (1 << self.n):
                raise ValueError(f"basis row {row:#x} outside F2^{self.n}")
        if gf2_rref(self.basis) != self.basis:
            raise ValueError("basis is not in reduced row-echelon form")

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "Subspace":
        """Span of arbitrary vectors, reduced to the canonical basis."""
        return cls(n, gf2_rref(vectors))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> tuple[int, ...]:
        """All 2^dim elements, ascending (hence basis-independent)."""
        return tuple(sorted(_span(self.basis)))

    def __contains__(self, vector: int) -> bool:
        for row in self.basis:
            vector = min(vector, vector ^ row)
        return vector == 0


def enumerate_subspaces(n: int, i: int) -> list[Subspace]:
    """All i-dimensional subspaces of F2^n, one canonical basis each.

    The reduced echelon bases come from the reverse search behind the
    isotropic subspaces (symplectic._reverse_search), with every nonzero
    vector admissible and no pairing, in order of descending pivots, then
    rows.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if n > AMBIENT_CAP:
        raise ValueError(f"ambient dimension {n} > {AMBIENT_CAP} not supported")
    size = 1 << n
    bases = _reverse_search(n, (1 << size) - 2, (0,) * size, i)[i]
    out = [Subspace(n, basis) for basis in bases]
    if len(out) != gaussian_binomial(n, i):
        raise InvariantError(f"found {len(out)} subspaces of dimension {i} in F2^{n}")
    return out


@lru_cache(maxsize=None)
def _even_spans(g: int, i: int) -> np.ndarray:
    """The totally-even i-dim subspaces of F2^2g, one row of elements each.

    The parity of a characteristic is the quadratic form q0(eps, delta) =
    eps.delta on F2^2g, and these are its totally singular subspaces, read
    from the isotropic-subspace generator.  Nothing depends on tau, so
    each (g, i) is cached.  Row order is the canonical enumeration order of
    enumerate_subspaces and each row is ascending.  An element x = eps *
    2^g + delta is also the flat index of theta[eps; delta] in a (2^g, 2^g)
    table, so the rows gather the products P_W.
    """
    rows = [sorted(_span(basis)) for basis in _isotropic_bases(g, True)[i]]
    index = np.array(rows, dtype=np.intp).reshape(len(rows), 1 << i)
    index.setflags(write=False)
    return index


def _halved(factors: np.ndarray) -> np.ndarray:
    """The product down the first axis of factors, by halving: i vector products for 2^i rows."""
    while len(factors) > 1:
        half = len(factors) // 2
        factors = factors[:half] * factors[half:]
    return factors[0]


def _products(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Product of the table entries named by each row of a flat index array.

    The gather goes through a C-contiguous copy of index.T, so each of the
    2^i element positions is one contiguous row, and the rows are
    multiplied by halving: i vector products instead of a reduction over
    a short axis.
    """
    return _halved(table.ravel()[np.ascontiguousarray(index.T)])


@lru_cache(maxsize=None)
def _level_index(g: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """_even_spans(g, i) for i = 0..g, each transposed, end to end, and each one's shape.

    One gather from a table over the index holds what _products gathers
    level by level, in the same layout.
    """
    levels = [_even_spans(g, i).T for i in range(g + 1)]
    index = np.concatenate([level.ravel() for level in levels])
    index.setflags(write=False)
    return index, tuple(level.shape for level in levels)


def _sum_levels(table: np.ndarray, g: int) -> tuple[complex, ...]:
    """P_0..P_g from one table: one gather, then each level halved and squared.

    Each level's block is the array _products would gather for it, so the
    products, their 4 - i squarings and the fixed numpy sum are those of a
    level summed on its own, bit for bit.
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
def _sums_slot(tau: PeriodMatrix, tol: Tolerance) -> list:
    """The [table, sums] slot of one (tau, tol), under the table's LRU policy."""
    return [None, ()]


def _level_sums(tau: PeriodMatrix, tol) -> tuple[complex, ...]:
    """P_0..P_g at tau, summed again only when theta_constant_table returns another table."""
    tol = Tolerance.coerce(tol)
    table = theta_constant_table(tau, tol)
    slot = _sums_slot(tau, tol)
    if slot[0] is not table:
        slot[:] = table, _sum_levels(table, tau.g)
    return slot[1]


def P_W(tau: PeriodMatrix, W: Subspace, tol=Tolerance()) -> complex:
    """Product of theta constants over the elements of W.

    Each vector is read as a characteristic via the e-block/f-block split.
    If W contains an odd characteristic the product is exactly 0 and no
    theta sum is evaluated.
    """
    g = tau.g
    if W.n != 2 * g:
        raise ValueError(f"subspace lives in F2^{W.n}, tau needs F2^{2 * g}")
    elems = W.elements()
    if any(_q0(x, g) for x in elems):
        return 0j
    table = theta_constant_table(tau, tol)
    return complex(_products(table, np.array(elems, dtype=np.intp)))


def P_i_g(tau: PeriodMatrix, g: int, i: int, tol=Tolerance()) -> complex:
    """Sum of P_W^(2^(4-i)) over the i-dimensional subspaces.

    Only totally-even subspaces contribute; the rest are skipped before
    any numeric work.  Each P_W is a product of entries of the
    theta-constant table, raised to 2^(4-i) by 4 - i squarings, and the
    terms are summed in canonical enumeration order by a fixed numpy
    reduction, so the result is bit-reproducible.  Every P_i of one tau is
    summed in the same pass (_level_sums), which xi_g reads too.
    """
    if g != tau.g:
        raise ValueError(f"g={g} does not match tau (genus {tau.g})")
    if g > GENUS_CAP:
        raise ValueError(f"g={g} > {GENUS_CAP}: exponent 2^(4-i) turns fractional")
    if not 0 <= i <= g:
        raise ValueError(f"need 0 <= i <= g, got i={i}, g={g}")
    return _level_sums(tau, tol)[i]


def xi_g(tau: PeriodMatrix, g: int, tol=Tolerance()) -> complex:
    """The alternating combination (1/2^g) sum_i (-1)^i 2^(i(i-1)/2) P_i."""
    return _xi_terms(tau, g, tol)[0]


def _xi_terms(tau: PeriodMatrix, g: int, tol) -> tuple[complex, tuple[complex, ...]]:
    """Xi and the P_0..P_g it is summed from, as P_i_g reads them."""
    if not 1 <= g <= GENUS_CAP:
        raise ValueError(f"need 1 <= g <= {GENUS_CAP}, got {g}")
    if g != tau.g:
        raise ValueError(f"g={g} does not match tau (genus {tau.g})")
    terms = _level_sums(tau, tol)
    total = 0j  # summed in order: sum() may compensate, which changes the last bits
    for i, p in enumerate(terms):
        total += (1 << (i * (i - 1) // 2)) * (-1) ** i * p
    return total / (1 << g), terms


def factorization_residual(
    g: int, k: int, tau1: PeriodMatrix, tau2: PeriodMatrix, tol=Tolerance()
) -> float:
    """Relative defect of Xi(diag(tau1, tau2)) against Xi(tau1) * Xi(tau2).

    Floored at 1 in the denominator so the residual stays meaningful near
    zeros of Xi.
    """
    if not 1 <= k < g <= GENUS_CAP:
        raise ValueError(f"need 1 <= k < g <= {GENUS_CAP}, got g={g}, k={k}")
    if tau1.g != k or tau2.g != g - k:
        raise ValueError(
            f"period matrices have genus ({tau1.g}, {tau2.g}), expected ({k}, {g - k})"
        )
    joint = xi_g(block_diag(tau1, tau2), g, tol)
    split = xi_g(tau1, k, tol) * xi_g(tau2, g - k, tol)
    return abs(joint - split) / max(1.0, abs(split))
