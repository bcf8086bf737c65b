"""Subspace sums of theta constants and the genus-g measure candidate.

The chain here is: generate the totally-even subspaces W of F2^2g (the
totally singular subspaces of the parity form, built directly by the
isotropic-subspace generator in symplectic), take products P_W of theta
constants over the elements of W, raise to 2^(4-i) and sum over
dimension-i subspaces to get P_i, then combine the P_i with alternating
signed weights into Xi.  Everything is capped at g <= 4, where the
exponents 2^(4-i) are still integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import InvariantError
from .gf2 import gf2_rref
from .symplectic import _isotropic_bases, _q0, _span
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

    Reduced echelon bases are generated directly: pick the pivot bits in
    descending order, then fill the free positions below each pivot (and
    off the other pivots) in every possible way.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if n > AMBIENT_CAP:
        raise ValueError(f"ambient dimension {n} > {AMBIENT_CAP} not supported")
    out = []
    for pivots in itertools.combinations(range(n - 1, -1, -1), i):
        pivot_set = set(pivots)
        free = [[b for b in range(p) if b not in pivot_set] for p in pivots]
        for fills in itertools.product(*(range(1 << len(f)) for f in free)):
            rows = []
            for p, positions, fill in zip(pivots, free, fills):
                row = 1 << p
                for idx, b in enumerate(positions):
                    if (fill >> idx) & 1:
                        row |= 1 << b
                rows.append(row)
            out.append(Subspace(n, tuple(rows)))
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


def _products(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Product of the table entries named by each row of a flat index array.

    The gather goes through a C-contiguous copy of index.T, so each of the
    2^i element positions is one contiguous row, and the rows are
    multiplied by halving: i vector products instead of a reduction over
    a short axis.
    """
    factors = table.ravel()[np.ascontiguousarray(index.T)]
    while len(factors) > 1:
        half = len(factors) // 2
        factors = factors[:half] * factors[half:]
    return factors[0]


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
    any numeric work.  Each P_W is one gather from the theta-constant
    table, raised to 2^(4-i) by 4 - i squarings, and the terms are summed
    in canonical enumeration order by a fixed numpy reduction, so the
    result is bit-reproducible.
    """
    if g != tau.g:
        raise ValueError(f"g={g} does not match tau (genus {tau.g})")
    if g > GENUS_CAP:
        raise ValueError(f"g={g} > {GENUS_CAP}: exponent 2^(4-i) turns fractional")
    if not 0 <= i <= g:
        raise ValueError(f"need 0 <= i <= g, got i={i}, g={g}")
    terms = _products(theta_constant_table(tau, tol), _even_spans(g, i))
    for _ in range(4 - i):
        terms = terms * terms
    return complex(np.sum(terms))


def xi_g(tau: PeriodMatrix, g: int, tol=Tolerance()) -> complex:
    """The alternating combination (1/2^g) sum_i (-1)^i 2^(i(i-1)/2) P_i."""
    return _xi_terms(tau, g, tol)[0]


def _xi_terms(tau: PeriodMatrix, g: int, tol: Tolerance) -> tuple[complex, list[complex]]:
    """Xi and the P_0..P_g it is summed from, each P_i computed once."""
    if not 1 <= g <= GENUS_CAP:
        raise ValueError(f"need 1 <= g <= {GENUS_CAP}, got {g}")
    if g != tau.g:
        raise ValueError(f"g={g} does not match tau (genus {tau.g})")
    terms = [P_i_g(tau, g, i, tol) for i in range(g + 1)]
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
