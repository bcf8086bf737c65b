"""The symplectic space (F2^2g, <.,.>) and its quadratic forms.

Vectors carry two g-bit blocks (e-coordinates, then f-coordinates); the
pairing is the standard split-basis one, <u, v> = sum u_e.v_f + u_f.v_e.
A quadratic form with this polarity is determined by its 2g basis values,
and evaluation anywhere follows from q(x+y) = q(x) + q(y) + <x, y>.  The
Arf invariant sum q(e_i) q(f_i) splits the 2^2g forms into 2^(g-1)(2^g+1)
even and 2^(g-1)(2^g-1) odd ones, the two orbits of Sp(F2^2g).

A theta characteristic [eps; delta] is such a form, with basis values
(eps | delta), so one class, Characteristic, stands for both.  Forms are
an affine space over the vectors: translate_form adds a vector to a form
and form_difference gives the vector between two forms.

Sp(2g, F2) moves q to q o M^-1.  With q(x) = x_e.x_f + eps.x_e +
delta.x_f and M = (A B; C D) this is Igusa's affine map (Theta Functions,
1972, ch. V)

    M.[eps; delta] = (D C; B A)(eps; delta) + (diag C D^T; diag A B^T) mod 2.

For J = (0 I; I 0), the pairing's matrix, (D C; B A) = J M J and the
shift is J q^ with q^_i = q0(row i of M): c = (eps; delta) goes to
J(M(J c) + q^).  So every matrix operation works on M's rows, with no
inverse or transpose; the pairing check M J M^T = J is <row_j, row_k> = J_jk.

Bit packing: coordinate i of a block sits at bit g-1-i of the block int,
so bit strings read left to right and the hex blocks the CLI prints for
a characteristic are most-significant-first within each block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .gf2 import _span, parity as bit_parity

__all__ = [
    "F2Vector",
    "Characteristic",
    "SpMatrix",
    "weil_pairing",
    "eval_form",
    "arf",
    "translate_form",
    "form_difference",
    "sp_apply",
    "enumerate_forms",
    "transvection",
    "random_symplectic",
]

EXHAUSTIVE_GENUS_CAP = 8


def _check_block(value: int, g: int, what: str) -> None:
    if not 0 <= value < (1 << g):
        raise ValueError(f"{what} must be a {g}-bit value, got {value}")


def _same_genus(a, b) -> None:
    if a.g != b.g:
        raise ValueError(f"genus mismatch: {a.g} vs {b.g}")


@dataclass(frozen=True)
class F2Vector:
    """Element of F2^2g: e-block and f-block of g bits each."""

    g: int
    e: int
    f: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"genus must be positive, got {self.g}")
        _check_block(self.e, self.g, "e block")
        _check_block(self.f, self.g, "f block")

    @classmethod
    def from_packed(cls, g: int, packed: int) -> "F2Vector":
        return cls(g, packed >> g, packed & ((1 << g) - 1))

    @property
    def bits(self) -> str:
        return format(self.e, f"0{self.g}b") + format(self.f, f"0{self.g}b")

    @property
    def packed(self) -> int:
        return (self.e << self.g) | self.f

    @property
    def is_zero(self) -> bool:
        return self.e == 0 and self.f == 0

    def __add__(self, other: "F2Vector") -> "F2Vector":
        _same_genus(self, other)
        return F2Vector(self.g, self.e ^ other.e, self.f ^ other.f)


@dataclass(frozen=True, order=True)
class Characteristic:
    """A theta characteristic [eps; delta], which is also its quadratic form.

    The form is q(x) = x_e.x_f + eps.x_e + delta.x_f, whose polarity is the
    pairing, so its basis values are the two blocks:
    eps = (q(e_1), ..., q(e_g)) and delta = (q(f_1), ..., q(f_g)), in the
    bit packing of F2Vector blocks.  Its Arf invariant is the parity
    eps.delta.  Ordering is by (g, eps, delta), and the packed int
    eps * 2^g + delta is the index in enumerate_forms(g).
    """

    g: int
    eps: int
    delta: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"genus must be positive, got {self.g}")
        _check_block(self.eps, self.g, "eps")
        _check_block(self.delta, self.g, "delta")

    @classmethod
    def from_string(cls, text: str) -> "Characteristic":
        """Parse 'epsbits;deltabits', e.g. '01;10'."""
        eps_part, sep, delta_part = text.partition(";")
        if not sep or len(eps_part) != len(delta_part) or not eps_part:
            raise ValueError(f"expected 'eps;delta' bit strings, got {text!r}")
        if set(eps_part + delta_part) - {"0", "1"}:
            raise ValueError(f"non-binary digits in {text!r}")
        return cls(len(eps_part), int(eps_part, 2), int(delta_part, 2))

    @classmethod
    def from_packed(cls, g: int, packed: int) -> "Characteristic":
        """Read the packed int eps * 2^g + delta."""
        return cls(g, packed >> g, packed & ((1 << g) - 1))

    @classmethod
    def _of(cls, g: int, eps: int, delta: int) -> "Characteristic":
        """[eps; delta] unchecked, for blocks that are in range by construction."""
        c = object.__new__(cls)
        c.__dict__.update(g=g, eps=eps, delta=delta)
        return c

    @property
    def packed(self) -> int:
        """The packed int eps * 2^g + delta, inverse to from_packed."""
        return (self.eps << self.g) | self.delta

    @property
    def parity(self) -> int:
        """The Arf invariant sum q(e_i) q(f_i) = eps.delta mod 2."""
        return bit_parity(self.eps & self.delta)

    @property
    def bits(self) -> str:
        return format(self.eps, f"0{self.g}b") + ";" + format(self.delta, f"0{self.g}b")


@dataclass(frozen=True)
class SpMatrix:
    """2g x 2g bit matrix preserving the pairing; checked at construction.

    rows[i] is row i in the F2Vector packed order (e-block high): coordinate
    i of M x is the parity of rows[i] & x, so M = (A B; C D) lists the rows
    of (A B) first.  A lift acts by tau -> (A tau + B)(C tau + D)^-1, and
    |theta[M c](M tau)| = |det(C tau + D)|^(1/2) |theta[c](tau)| with c
    moved by sp_apply: (I B; 0 I) is tau -> tau + B, J = (0 I; I 0) is
    tau -> -tau^-1.
    """

    g: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = 2 * self.g
        if len(self.rows) != n:
            raise ValueError(f"need {n} rows, got {len(self.rows)}")
        for r in self.rows:
            if not 0 <= r < (1 << n):
                raise ValueError(f"row out of range: {r}")
        for j, row in enumerate(self.rows):
            for k in range(j + 1, n):
                expected = 1 if k == j + self.g else 0
                if _packed_pairing(row, self.rows[k], self.g) != expected:
                    raise ValueError("matrix does not preserve the symplectic pairing")

    @cached_property
    def _row_parities(self) -> int:
        """q^ as a packed vector: bit 2g-1-i is q0(rows[i]), the shift of sp_apply."""
        n = 2 * self.g
        return sum(_q0(row, self.g) << (n - 1 - i) for i, row in enumerate(self.rows))

    @cached_property
    def _half_tables(self) -> tuple[list[int], list[int]]:
        """(H, L) with M x = H[x >> g] ^ L[x & (2^g - 1)], as M x is linear.

        Column b of M, the image of bit b, is bit b of every row; L spans
        the columns of the low g bits and H those of the high g bits, so
        entry i of each is the sum of the columns at the set bits of i.
        Each has 2^g entries, so the genus is capped as for enumeration.
        """
        if self.g > EXHAUSTIVE_GENUS_CAP:
            raise ValueError(
                f"sp_apply capped at genus {EXHAUSTIVE_GENUS_CAP} (EXHAUSTIVE_GENUS_CAP):"
                f" its half tables take 2^{self.g} entries each"
            )
        n = 2 * self.g
        cols = [sum((row >> b & 1) << (n - 1 - i) for i, row in enumerate(self.rows))
                for b in range(n)]
        return _span(cols[self.g :]), _span(cols[: self.g])


def _packed_pairing(u: int, v: int, g: int) -> int:
    mask = (1 << g) - 1
    return bit_parity(((u >> g) & (v & mask)) ^ ((u & mask) & (v >> g)))


def _swap(v: int, g: int) -> int:
    """J v: the e and f halves of a packed vector exchanged."""
    return (v & ((1 << g) - 1)) << g | v >> g


def _q0(v: int, g: int) -> int:
    """q0(v) = v_e.v_f on a packed vector: the parity of the characteristic v."""
    return bit_parity((v >> g) & v & ((1 << g) - 1))


@lru_cache(maxsize=None)
def _pairing_masks(g: int) -> tuple[int, ...]:
    """Entry d is the 4^g-bit set {t : <d, t> = 1} of packed vectors t.

    The pairing is linear in d, so each entry past a basis vector is the
    XOR of two earlier ones.
    """
    n = 1 << (2 * g)
    masks = [0] * n
    for d in range(1, n):
        low = d & -d
        if d == low:
            masks[d] = sum(1 << t for t in range(n) if _packed_pairing(d, t, g))
        else:
            masks[d] = masks[low] ^ masks[d ^ low]
    return tuple(masks)


@lru_cache(maxsize=None)
def _isotropic_bases(g: int, singular: bool) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Reduced-echelon bases of the isotropic subspaces of F2^2g, by dimension.

    Entry j holds the j-dimensional subspaces on which the pairing
    vanishes, for j = 0..g.  With singular=True they must also be totally
    singular for q0(v) = v_e.v_f, the parity form of characteristics, so
    they are the totally-even spans.  Admissible rows are the nonzero
    vectors, and with singular=True only those with q0(v) = 0.

    This is a reverse search: the parent of a subspace is the span of its
    reduced basis without the last row (the lowest pivot), so each
    subspace is built exactly once, from its parent, and nothing is
    reduced or deduplicated.  A basis r_1..r_j with lowest pivot p_j is
    extended by v when v is admissible, pairs to 0 with every row, and has
    its leading bit below p_j and set in no row; then r_1..r_j, v is
    reduced as it stands (v, being below p_j, misses every pivot).  The
    admissible vectors that pair to 0 with every row are one 4^g-bit mask,
    carried down the search and cut by the complement of the pairing mask
    of v (_pairing_masks) at each step.

    Each level is in (descending pivots, rows) order, the canonical order
    of subspace lists, with no sort of the bases: the children with pivot
    set Q all have parents with pivot set Q minus its lowest pivot, so
    with the parents in order, each extended by ascending v, the bucket of
    Q fills in row order; the buckets are joined by descending pivot mask,
    which is the order of descending pivots.
    """
    masks = _pairing_masks(g)
    admissible = sum(1 << v for v in range(1, 4**g) if not (singular and _q0(v, g)))
    # (basis, candidate mask, pivot mask, union of the rows' bits)
    nodes = [((), admissible, 0, 0)]
    levels = [((),)]
    for _ in range(g):
        children = {}
        for basis, cand, pivots, used in nodes:
            for p in range(basis[-1].bit_length() - 1 if basis else 2 * g):
                if used >> p & 1:
                    continue
                lead = 1 << p
                block = cand >> lead & ((1 << lead) - 1)
                bucket = children.setdefault(pivots | lead, [])
                while block:
                    bit = block & -block
                    block ^= bit
                    v = lead | (bit.bit_length() - 1)
                    bucket.append((basis + (v,), cand & ~masks[v], pivots | lead, used | v))
        nodes = [node for key in sorted(children, reverse=True) for node in children[key]]
        levels.append(tuple(node[0] for node in nodes))
    return tuple(levels)


def _pivot_mask(basis) -> int:
    """The leading bits of the rows.

    For a reduced basis, every coset of its span has exactly one member
    with none of these bits set.
    """
    pivots = 0
    for row in basis:
        pivots |= 1 << (row.bit_length() - 1)
    return pivots


def weil_pairing(u: F2Vector, v: F2Vector) -> int:
    """<u, v> = sum_i u_ei v_fi + u_fi v_ei mod 2."""
    _same_genus(u, v)
    return _packed_pairing(u.packed, v.packed, u.g)


def eval_form(q: Characteristic, x: F2Vector) -> int:
    """q(x), by the closed form q(x) = x_e.x_f + eps.x_e + delta.x_f.

    This is what the polarity expansion collapses to in the split basis;
    the test suite checks it against a naive recursive expansion.
    """
    _same_genus(q, x)
    return bit_parity(x.e & x.f) ^ bit_parity(q.eps & x.e) ^ bit_parity(q.delta & x.f)


def arf(q: Characteristic) -> int:
    """Arf invariant sum q(e_i) q(f_i) mod 2, the parity of q."""
    return q.parity


def translate_form(q: Characteristic, v: F2Vector) -> Characteristic:
    """(q + v)(x) = q(x) + <v, x>; note the block swap in basis values."""
    _same_genus(q, v)
    return Characteristic(q.g, q.eps ^ v.f, q.delta ^ v.e)


def form_difference(q1: Characteristic, q2: Characteristic) -> F2Vector:
    """The unique v with q1 + v == q2."""
    _same_genus(q1, q2)
    return F2Vector(q1.g, q1.delta ^ q2.delta, q1.eps ^ q2.eps)


def enumerate_forms(g: int, parity: str = "all") -> list[Characteristic]:
    """All quadratic forms of genus g, optionally filtered by Arf parity.

    parity is "even", "odd" or "all".  Output is in ascending
    (eps, delta) order, which is the canonical order used everywhere; with
    "all", entry eps * 2^g + delta is [eps; delta].
    """
    if g < 1:
        raise ValueError(f"genus must be positive, got {g}")
    if g > EXHAUSTIVE_GENUS_CAP:
        raise ValueError(
            f"exhaustive enumeration capped at genus {EXHAUSTIVE_GENUS_CAP} "
            f"(2^{2 * g} forms requested)"
        )
    if parity not in ("even", "odd", "all"):
        raise ValueError(f"parity must be even|odd|all, got {parity!r}")
    want = {"even": (0,), "odd": (1,), "all": (0, 1)}[parity]
    forms = [Characteristic._of(g, eps, delta) for eps in range(1 << g) for delta in range(1 << g)]
    return [q for q in forms if q.parity in want]


def _identity_rows(g: int) -> tuple[int, ...]:
    n = 2 * g
    return tuple(1 << (n - 1 - i) for i in range(n))


def _transvect(rows: tuple[int, ...], packed: int, g: int) -> tuple[int, ...]:
    """Rows of M t_v, v = packed: as row i of t_v is e_i + v_i J v, r -> r + (r.v) J v."""
    jv = _swap(packed, g)
    return tuple(r ^ jv if bit_parity(r & packed) else r for r in rows)


def transvection(v: F2Vector) -> SpMatrix:
    """t_v(x) = x + <x, v> v; an involution, and a generator of Sp."""
    if v.is_zero:
        raise ValueError("transvection direction must be nonzero")
    return SpMatrix(v.g, _transvect(_identity_rows(v.g), v.packed, v.g))


def sp_apply(m: SpMatrix, t: F2Vector | Characteristic) -> F2Vector | Characteristic:
    """Apply the symplectic action: vectors linearly, forms by q o M^-1.

    A form c moves by Igusa's affine map c -> J(M(J c) + q^) (see the
    module docstring), read off the rows of M, so no inverse is taken.
    M x is two lookups in the matrix's half tables, one per block of x.
    """
    _same_genus(m, t)
    high, low = m._half_tables
    if isinstance(t, F2Vector):
        return F2Vector.from_packed(t.g, high[t.e] ^ low[t.f])
    # J c is (delta | eps), and J swaps the halves of the result back
    moved = high[t.delta] ^ low[t.eps] ^ m._row_parities
    return Characteristic._of(m.g, moved & ((1 << m.g) - 1), moved >> m.g)


def random_symplectic(g: int, rng: random.Random) -> SpMatrix:
    """Product of 2g..4g random transvections.

    Each factor is a rank-one row update (_transvect), not a product, and
    only the result is built as an SpMatrix: one pairing check per draw.
    """
    rows = _identity_rows(g)
    for _ in range(rng.randint(2 * g, 4 * g)):
        rows = _transvect(rows, rng.randrange(1, 1 << (2 * g)), g)
    return SpMatrix(g, rows)
