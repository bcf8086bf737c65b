"""Characteristic calculus: parity, syzygy, and the classical systems.

A characteristic [eps; delta] is the quadratic form q(x, y) = x.y +
eps.x + delta.y (symplectic.Characteristic), so parity eps.delta is its
Arf invariant and the difference of two characteristics is the vector
form_difference gives.  Triple sums are plain XOR on (eps, delta).  A
triple is syzygetic when the four-term Arf sum vanishes, equivalently when
the pairing of difference vectors <t1+t2, t1+t3> does; both routes are
computed on the packed ints and compared on every call.

Syzygetic tetrads and Goepel (maximal syzygetic) systems are the cosets
c + W of isotropic subspaces W of F2^2g, planes and Lagrangians
respectively, so they are read from the isotropic-subspace generator in
symplectic, in order without a sort per coset (see _isotropic_cosets).
Azygetic sets (fundamental systems and the genus-3 Aronhold census) are
not cosets; they come from backtracking over characteristics in
canonical (eps, delta) order, pruned by the anchor reduction: a set has
all triples azygetic iff all triples through its first element do, which
follows from bilinearity of the pairing on difference vectors.
The searches run on packed ints eps * 2^g + delta, the index in
enumerate_forms: sums are XOR and the difference vector of a and s
is a ^ s with its blocks swapped, which leaves the pairing unchanged.
Bilinearity also gives <a+s, a+t> = <d, a> + <d, t> with d = a ^ s, so
the points t still admissible after choosing s are one precomputed
4^g-bit set {t : <d, t> = 1} (or its complement, when <d, a> = 1), ANDed
into a candidate bitmask.  The search is a plain recursion that fills one
list, and the Aronhold structure of each set is checked on 4^g-bit masks
of characteristics, so no set is built per census member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import factorial
from operator import xor

from .config import InvariantError
from .gf2 import gf2_rank, parity
from .symplectic import (
    Characteristic,
    _isotropic_bases,
    _packed_pairing,
    _pairing_masks,
    _pivot_mask,
    _same_genus,
    _span,
    enumerate_forms,
)

__all__ = [
    "Characteristic",
    "CharSystem",
    "is_syzygetic",
    "enumerate_syzygetic_tetrads",
    "enumerate_fundamental_systems",
    "enumerate_gopel_systems",
    "difference_rank",
    "sp_group_order",
    "fundamental_system_count",
    "quartic_coordinate_check",
]

TETRAD_GENUS_CAP = 3
GOPEL_GENUS_CAP = 3
SYSTEM_GENUS_CAP = 2


def is_syzygetic(a: Characteristic, b: Characteristic, c: Characteristic) -> bool:
    """True iff the four-term Arf sum of {a, b, c, a+b+c} vanishes.

    The pairing criterion <a+b, a+c> = 0 is computed alongside and the two
    must agree; a mismatch would mean the dictionary itself is broken.
    Both run on ints: the Arf sum is one parity of the four eps & delta,
    and the pairing reads the XORs of the packed characteristics, the
    difference vectors with their blocks swapped, which the pairing ignores.
    """
    _same_genus(a, b)
    _same_genus(a, c)
    pa, pb, pc = a.packed, b.packed, c.packed
    if pa == pb or pa == pc or pb == pc:
        raise ValueError("syzygy is defined for distinct characteristics")
    eps, delta = a.eps ^ b.eps ^ c.eps, a.delta ^ b.delta ^ c.delta
    arf_sum = parity(a.eps & a.delta ^ b.eps & b.delta ^ c.eps & c.delta ^ eps & delta)
    pairing = _packed_pairing(pa ^ pb, pa ^ pc, a.g)
    if arf_sum != pairing:
        raise InvariantError(f"Arf sum and pairing disagree on {(a, b, c)}")
    return arf_sum == 0


@dataclass(frozen=True)
class CharSystem:
    """An ordered set of distinct characteristics of one genus."""

    g: int
    members: tuple[Characteristic, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a system needs at least one member")
        if any(c.g != self.g for c in self.members):
            raise ValueError("all members must share the system genus")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members in system")

    @classmethod
    def _of(cls, g: int, members: tuple[Characteristic, ...]) -> "CharSystem":
        """A system unchecked, for members distinct and of genus g by construction."""
        system = object.__new__(cls)
        system.__dict__.update(g=g, members=members)
        return system

    @property
    def member_sum(self) -> tuple[int, int]:
        e = d = 0
        for c in self.members:
            e ^= c.eps
            d ^= c.delta
        return (e, d)


def difference_rank(system: CharSystem) -> int:
    """GF(2) rank of {first - m : m in members}, as packed 2g-bit vectors.

    The difference vector is first.packed ^ m.packed with its blocks
    swapped (form_difference); the swap is invertible and linear, so the
    rank is read off the plain XORs.  For a maximal syzygetic system this
    equals g even though the system has 2^g members; the difference set is
    a linear subspace there.
    """
    first = system.members[0].packed
    return gf2_rank(first ^ m.packed for m in system.members[1:])


def _isotropic_cosets(g: int, dim: int) -> list[tuple[Characteristic, ...]]:
    """The cosets c + W of the dim-dimensional isotropic subspaces W.

    A characteristic is read as the packed vector eps * 2^g + delta, which
    is also its index in enumerate_forms.  Output: sorted tuples, list
    in lexicographic order; empty when dim > g.

    Each coset is built once, from its member c free of the pivot bits of
    W's reduced basis, and needs no sort of its own: for w1 != w2 in W,
    c ^ w1 < c ^ w2 exactly when w1 < w2, since the highest bit of w1 ^ w2
    is a pivot and c is 0 there.  So W is sorted once, and the coset, as
    one int with 2g bits per member and its first member highest, is
    c * spread ^ (sorted W packed the same way); the ints sort as the
    tuples do.
    """
    if dim > g:
        return []
    n = 2 * g
    spread = sum(1 << (n * i) for i in range(1 << dim))
    keys, free = [], {}  # free: pivot mask -> c * spread for every c free of it
    for basis in _isotropic_bases(g, False)[dim]:
        pivots = _pivot_mask(basis)
        if pivots not in free:
            free[pivots] = [c * spread for c in range(1 << n) if not c & pivots]
        packed = 0
        for w in sorted(_span(basis)):
            packed = packed << n | w
        keys += [c ^ packed for c in free[pivots]]
    keys.sort()
    chars, low = enumerate_forms(g), (1 << n) - 1
    shifts = range(n * ((1 << dim) - 1), -1, -n)
    return list(zip(*([chars[key >> s & low] for key in keys] for s in shifts)))


def enumerate_syzygetic_tetrads(g: int) -> list[tuple[Characteristic, ...]]:
    """All 4-sets {a, b, c, a+b+c} with {a, b, c} syzygetic.

    The differences a+b, a+c pair to zero, so these are the cosets of the
    isotropic planes.  Capped at genus 3.  Output: sorted 4-tuples, list
    in lexicographic order.
    """
    if not 1 <= g <= TETRAD_GENUS_CAP:
        raise ValueError(f"tetrad enumeration supports 1 <= g <= {TETRAD_GENUS_CAP}")
    return _isotropic_cosets(g, 2)


def _extend_systems(points, g, target_size) -> list[tuple[int, ...]]:
    """Backtracking over the packed characteristics points, ascending.

    Returns every target_size-tuple (target_size >= 2) of points whose
    triples through the first element a are all azygetic, <a+s, a+t> = 1;
    by the anchor reduction these are exactly the sets with every triple
    azygetic.  The outer loop picks a, and a plain recursion fills one
    list.  The candidates for the next point are a bitmask over packed
    indices.  By bilinearity <a+s, a+t> = <d, a> + <d, t> with d = a ^ s,
    so choosing s ANDs the candidates with the mask {t : <d, t> = 1}, or
    with its complement when <d, a> = 1; with one point still needed,
    every remaining candidate completes a tuple.  Candidates are taken
    lowest bit first, so tuples come out in lexicographic order, and a
    branch stops once fewer candidates remain than points are still needed.
    """
    masks = _pairing_masks(g)
    found = []

    def extend(chosen, cand, need):
        if need == 1:
            head = tuple(chosen)
            while cand:
                low = cand & -cand
                cand ^= low
                found.append(head + (low.bit_length() - 1,))
            return
        a = chosen[0]
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            t = low.bit_length() - 1
            mask = masks[a ^ t]
            chosen.append(t)
            extend(chosen, cand & ~mask if mask >> a & 1 else cand & mask, need - 1)
            chosen.pop()

    cand = sum(1 << p for p in points)
    while cand.bit_count() >= target_size:
        low = cand & -cand
        cand ^= low
        extend([low.bit_length() - 1], cand, target_size - 1)
    return found


def enumerate_fundamental_systems(g: int) -> list[CharSystem]:
    """All (2g+2)-sets with every triple azygetic; each must sum to zero.

    Exhaustive (with anchor pruning) and so capped at genus 2.  The count
    matches Krazer's formula 2^2g |Sp| / (2g+2)!; see
    fundamental_system_count.
    """
    if not 1 <= g <= SYSTEM_GENUS_CAP:
        raise ValueError(f"fundamental-system search supports 1 <= g <= {SYSTEM_GENUS_CAP}")
    chars = enumerate_forms(g)
    systems = []
    for points in _extend_systems(range(len(chars)), g, 2 * g + 2):
        system = CharSystem(g, tuple(chars[p] for p in points))
        # independent full re-check, then the classical sum-zero law
        if any(is_syzygetic(a, b, c) for a, b, c in combinations(system.members, 3)):
            raise InvariantError(f"{system} has a syzygetic triple")
        if system.member_sum != (0, 0):
            raise InvariantError(f"{system} does not sum to zero")
        systems.append(system)
    return systems


def enumerate_gopel_systems(g: int) -> list[CharSystem]:
    """Inclusion-maximal sets in which every triple is syzygetic.

    These are the cosets c + L of the Lagrangian subspaces L, so each has
    the classical 2^g members; capped at genus 3 (1,080 systems).  Sorted
    by members.
    """
    if not 1 <= g <= GOPEL_GENUS_CAP:
        raise ValueError(f"Gopel-system search supports 1 <= g <= {GOPEL_GENUS_CAP}")
    # cosets of distinct members, all of genus g (see _isotropic_cosets)
    return [CharSystem._of(g, coset) for coset in _isotropic_cosets(g, g)]


def sp_group_order(g: int) -> int:
    """|Sp(2g, F2)| = 2^(g^2) prod_{i=1..g} (4^i - 1)."""
    n = 1 << (g * g)
    for i in range(1, g + 1):
        n *= 4**i - 1
    return n


def fundamental_system_count(g: int) -> int:
    """Krazer's count 2^2g |Sp(2g, F2)| / (2g+2)!, as an exact integer."""
    num = (1 << (2 * g)) * sp_group_order(g)
    den = factorial(2 * g + 2)
    quot, rem = divmod(num, den)
    if rem:
        raise ValueError(f"Krazer formula is not integral at g={g}")
    return quot


def quartic_coordinate_check() -> dict:
    """Aronhold census at genus 3: azygetic 7-sets of odd characteristics.

    For each such set, the sum t8 of the seven must be even; the 28 odd
    characteristics must be the chosen 7 plus the 21 five-term sums; and
    the 35 even ones other than t8 must be the three-term sums.  The count
    of sets is compared against the classical 288 and reported next to the
    Krazer-formula value; the two differ by a normalization and are not
    asserted equal.
    """
    g = 3
    chars = enumerate_forms(g)
    odds = [p for p, c in enumerate(chars) if c.parity == 1]
    odd_mask = sum(1 << p for p in odds)
    even_mask = (1 << len(chars)) - 1 ^ odd_mask

    count = failures = 0
    first_witness = None
    for members in _extend_systems(odds, g, 7):
        count += 1
        if not _aronhold_structure_ok(members, odd_mask, even_mask):
            failures += 1
            if first_witness is None:
                first_witness = [chars[p].bits for p in members]

    return {
        "genus": g,
        "odd_count": len(odds),
        "even_count": even_mask.bit_count(),
        "azygetic_odd_7set_count": count,
        "reference_example_count": 288,
        "counts_match_reference": count == 288,
        "krazer_formula_count": fundamental_system_count(g),
        "structure_checked": count,
        "structure_failures": failures,
        "first_witness": first_witness,
    }


_PAIRS = tuple(combinations(range(7), 2))
# a four-subset i<j<k<l as the positions of pairs (i, j) and (k, l) in _PAIRS
_QUADS = tuple(
    (_PAIRS.index((i, j)), _PAIRS.index((k, l))) for i, j, k, l in combinations(range(7), 4)
)


def _aronhold_structure_ok(members, odds: int, evens: int) -> bool:
    """The Aronhold structure of one azygetic 7-set of packed ints.

    odds and evens are 4^g-bit masks, bit p standing for characteristic
    p, and the five- and three-sums are gathered into masks the same way,
    so the 21 and 35 distinct sums are bit counts and the inclusions are
    & and |.  With t8 the sum of all seven, a five-sum is t8 plus the pair
    left out and a three-sum is t8 plus the four left out, so both
    families come from the 21 five-sums: leaving out i<j<k<l gives the
    three-sum t8 + five(i, j) + five(k, l).
    """
    t8 = reduce(xor, members)
    if not evens >> t8 & 1:
        return False
    chosen = five_sums = three_sums = 0
    for p in members:
        chosen |= 1 << p
    fives = [t8 ^ members[i] ^ members[j] for i, j in _PAIRS]
    for p in fives:
        five_sums |= 1 << p
    if five_sums.bit_count() != 21 or five_sums & ~odds or five_sums & chosen:
        return False
    if chosen | five_sums != odds:
        return False
    for a, b in _QUADS:
        three_sums |= 1 << (t8 ^ fives[a] ^ fives[b])
    if three_sums.bit_count() != 35 or three_sums >> t8 & 1:
        return False
    return three_sums | 1 << t8 == evens
