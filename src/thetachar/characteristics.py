"""Characteristic calculus: parity, syzygy, and the classical systems.

A characteristic [eps; delta] names the quadratic form q(x, y) = x.y +
eps.x + delta.y, so parity eps.delta equals the Arf invariant of the
induced form.  Triple sums are plain XOR on (eps, delta).  A triple is
syzygetic when the four-term Arf sum vanishes, equivalently when the
pairing of difference vectors <t1+t2, t1+t3> does; both routes are
computed and compared on every call.

Syzygetic tetrads and Goepel (maximal syzygetic) systems are the cosets
c + W of isotropic subspaces W of F2^2g, planes and Lagrangians
respectively, so they are read from the isotropic-subspace generator in
symplectic.  Azygetic sets (fundamental systems and the genus-3 Aronhold
census) are not cosets; they come from backtracking over characteristics
in canonical (eps, delta) order, pruned by the anchor reduction: a set
has all triples azygetic iff all triples through its first element do,
which follows from bilinearity of the pairing on difference vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .gf2 import gf2_rank, parity as bit_parity
from .symplectic import (
    F2Vector,
    QForm,
    _isotropic_bases,
    _span,
    form_difference,
    weil_pairing,
)

__all__ = [
    "Characteristic",
    "CharSystem",
    "all_characteristics",
    "char_to_form",
    "form_to_char",
    "triple_sum",
    "char_difference",
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
SYSTEM_GENUS_CAP = 2


@dataclass(frozen=True, order=True)
class Characteristic:
    """[eps; delta] with g-bit blocks; ordering is by (g, eps, delta)."""

    g: int
    eps: int
    delta: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError(f"genus must be positive, got {self.g}")
        for name, value in (("eps", self.eps), ("delta", self.delta)):
            if not 0 <= value < (1 << self.g):
                raise ValueError(f"{name} must be a {self.g}-bit value, got {value}")

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
        """Read a packed F2^2g vector as a characteristic (e-block gives eps)."""
        return cls(g, packed >> g, packed & ((1 << g) - 1))

    @property
    def parity(self) -> int:
        return bit_parity(self.eps & self.delta)

    @property
    def bits(self) -> str:
        return format(self.eps, f"0{self.g}b") + ";" + format(self.delta, f"0{self.g}b")

    def to_json_dict(self) -> dict:
        w = (self.g + 3) // 4
        return {
            "eps": f"{self.eps:0{w}x}",
            "delta": f"{self.delta:0{w}x}",
            "parity": self.parity,
        }


def all_characteristics(g: int) -> list[Characteristic]:
    """All 2^2g characteristics in canonical (eps, delta) order."""
    return [
        Characteristic(g, e, d) for e in range(1 << g) for d in range(1 << g)
    ]


def char_to_form(c: Characteristic) -> QForm:
    """q(x, y) = x.y + eps.x + delta.y has basis values exactly (eps | delta)."""
    return QForm(c.g, c.eps, c.delta)


def form_to_char(q: QForm) -> Characteristic:
    return Characteristic(q.g, q.qe, q.qf)


def triple_sum(a: Characteristic, b: Characteristic, c: Characteristic) -> Characteristic:
    """Sum in the extended space: XOR on both blocks."""
    _same_genus(a, b, c)
    return Characteristic(a.g, a.eps ^ b.eps ^ c.eps, a.delta ^ b.delta ^ c.delta)


def char_difference(a: Characteristic, b: Characteristic) -> F2Vector:
    """The 2-torsion vector between the induced forms (block-swapped XOR)."""
    _same_genus(a, b)
    return form_difference(char_to_form(a), char_to_form(b))


def is_syzygetic(a: Characteristic, b: Characteristic, c: Characteristic) -> bool:
    """True iff the four-term Arf sum of {a, b, c, a+b+c} vanishes.

    The pairing criterion <a+b, a+c> = 0 is computed alongside and the two
    must agree; a mismatch would mean the dictionary itself is broken.
    """
    _same_genus(a, b, c)
    if a == b or a == c or b == c:
        raise ValueError("syzygy is defined for distinct characteristics")
    arf_sum = (
        a.parity ^ b.parity ^ c.parity ^ triple_sum(a, b, c).parity
    )
    pairing = weil_pairing(char_difference(a, b), char_difference(a, c))
    assert arf_sum == pairing, (a, b, c)
    return arf_sum == 0


def _same_genus(*cs: Characteristic) -> None:
    if len({c.g for c in cs}) > 1:
        raise ValueError(f"genus mismatch among {cs}")


def _pair_bit(anchor: Characteristic, s: Characteristic, t: Characteristic) -> int:
    # <anchor+s, anchor+t> without building intermediate objects
    ue = anchor.delta ^ s.delta
    uf = anchor.eps ^ s.eps
    ve = anchor.delta ^ t.delta
    vf = anchor.eps ^ t.eps
    return bit_parity(ue & vf) ^ bit_parity(uf & ve)


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
    def sorted_system(cls, members) -> "CharSystem":
        members = tuple(sorted(members))
        return cls(members[0].g, members)

    @property
    def member_sum(self) -> tuple[int, int]:
        e = d = 0
        for c in self.members:
            e ^= c.eps
            d ^= c.delta
        return (e, d)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.g,
            "cardinality": len(self.members),
            "members": [c.to_json_dict() for c in self.members],
            "difference_rank": difference_rank(self),
        }


def difference_rank(system: CharSystem) -> int:
    """GF(2) rank of {first - m : m in members}, as packed 2g-bit vectors.

    For a maximal syzygetic system this equals g even though the system has
    2^g members; the difference set is a linear subspace there.
    """
    first = system.members[0]
    return gf2_rank(
        char_difference(first, m).packed for m in system.members[1:]
    )


def _isotropic_cosets(g: int, dim: int) -> list[tuple[Characteristic, ...]]:
    """The cosets c + W of the dim-dimensional isotropic subspaces W.

    A characteristic is read as the packed vector eps * 2^g + delta, which
    is also its index in all_characteristics.  Output: sorted tuples, list
    in lexicographic order; empty when dim > g.
    """
    if dim > g:
        return []
    cosets = set()
    for basis in _isotropic_bases(g, False)[dim]:
        span = _span(basis)
        cosets.update(tuple(sorted(c ^ w for w in span)) for c in range(1 << (2 * g)))
    chars = all_characteristics(g)
    return [tuple(chars[x] for x in coset) for coset in sorted(cosets)]


def enumerate_syzygetic_tetrads(g: int) -> list[tuple[Characteristic, ...]]:
    """All 4-sets {a, b, c, a+b+c} with {a, b, c} syzygetic.

    The differences a+b, a+c pair to zero, so these are the cosets of the
    isotropic planes.  Capped at genus 3.  Output: sorted 4-tuples, list
    in lexicographic order.
    """
    if not 1 <= g <= TETRAD_GENUS_CAP:
        raise ValueError(f"tetrad enumeration supports 1 <= g <= {TETRAD_GENUS_CAP}")
    return _isotropic_cosets(g, 2)


def _extend_systems(chars, anchor_condition, target_size):
    """Backtracking in index order; anchor_condition(anchor, s, t) gates pairs.

    Yields every index tuple of target_size whose triples through the first
    element all satisfy the condition; by the anchor reduction these are
    exactly the sets with the condition on all triples.
    """
    n = len(chars)

    def extend(chosen):
        if len(chosen) == target_size:
            yield tuple(chosen)
            return
        start = chosen[-1] + 1 if chosen else 0
        # not enough candidates left to reach target_size
        for idx in range(start, n - (target_size - len(chosen)) + 1):
            t = chars[idx]
            if len(chosen) < 2 or all(
                anchor_condition(chars[chosen[0]], chars[s], t) for s in chosen[1:]
            ):
                chosen.append(idx)
                yield from extend(chosen)
                chosen.pop()

    yield from extend([])


def enumerate_fundamental_systems(g: int) -> list[CharSystem]:
    """All (2g+2)-sets with every triple azygetic; each must sum to zero.

    Exhaustive (with anchor pruning) and so capped at genus 2.  The count
    matches Krazer's formula 2^2g |Sp| / (2g+2)!; see
    fundamental_system_count.
    """
    if not 1 <= g <= SYSTEM_GENUS_CAP:
        raise ValueError(f"fundamental-system search supports 1 <= g <= {SYSTEM_GENUS_CAP}")
    chars = all_characteristics(g)
    size = 2 * g + 2

    def azygetic(anchor, s, t):
        return _pair_bit(anchor, s, t) == 1

    systems = []
    for idxs in _extend_systems(chars, azygetic, size):
        members = tuple(chars[i] for i in idxs)
        # independent full re-check, then the classical sum-zero law
        assert all(
            is_syzygetic(a, b, c) is False for a, b, c in combinations(members, 3)
        )
        system = CharSystem(g, members)
        assert system.member_sum == (0, 0), system
        systems.append(system)
    return systems


def enumerate_gopel_systems(g: int) -> list[CharSystem]:
    """Inclusion-maximal sets in which every triple is syzygetic.

    These are the cosets c + L of the Lagrangian subspaces L, so each has
    the classical 2^g members; capped at genus 2.  Sorted by members.
    """
    if not 1 <= g <= SYSTEM_GENUS_CAP:
        raise ValueError(f"Gopel-system search supports 1 <= g <= {SYSTEM_GENUS_CAP}")
    return [CharSystem(g, coset) for coset in _isotropic_cosets(g, g)]


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
    odds = [c for c in all_characteristics(g) if c.parity == 1]
    evens = {c for c in all_characteristics(g) if c.parity == 0}

    def azygetic(anchor, s, t):
        return _pair_bit(anchor, s, t) == 1

    odd_set = set(odds)
    count = failures = 0
    first_witness = None
    for idxs in _extend_systems(odds, azygetic, 7):
        count += 1
        members = [odds[i] for i in idxs]
        if not _aronhold_structure_ok(members, odd_set, evens):
            failures += 1
            if first_witness is None:
                first_witness = [c.bits for c in members]

    return {
        "genus": g,
        "odd_count": len(odds),
        "even_count": len(evens),
        "azygetic_odd_7set_count": count,
        "reference_example_count": 288,
        "counts_match_reference": count == 288,
        "krazer_formula_count": fundamental_system_count(g),
        "structure_checked": count,
        "structure_failures": failures,
        "first_witness": first_witness,
    }


def _xor_chars(members) -> Characteristic:
    g = members[0].g
    e = d = 0
    for c in members:
        e ^= c.eps
        d ^= c.delta
    return Characteristic(g, e, d)


def _aronhold_structure_ok(members, odds: set, evens: set) -> bool:
    t8 = _xor_chars(members)
    if t8.parity != 0:
        return False
    five_sums = {_xor_chars(sub) for sub in combinations(members, 5)}
    if len(five_sums) != 21 or not five_sums <= odds:
        return False
    if five_sums & set(members):
        return False
    if set(members) | five_sums != odds:
        return False
    three_sums = {_xor_chars(sub) for sub in combinations(members, 3)}
    if len(three_sums) != 35 or t8 in three_sums:
        return False
    return three_sums | {t8} == evens
