"""Exact divisor-class arithmetic on moduli of curves and their spin covers.

Classes live in the rational Picard group of one of three spaces: the
moduli of stable curves ("Mbar", basis lambda, delta_0..delta_{g//2}) or
the odd/even spin compactifications ("Sbar_minus"/"Sbar_plus", basis
lambda, alpha_i, beta_i).  The bases are treated as free, so everything
here is formal linear algebra over the rationals, held only as integer
numerators over one common denominator (see DivClass): an integer
coefficient never becomes a Fraction, and no float enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .config import InvariantError

__all__ = [
    "DivClass",
    "pullback",
    "canonical_class",
    "named_class",
    "bn_applicable",
    "SlopeResult",
    "slope_combination",
    "general_type_test",
]

SPACES = ("Mbar", "Sbar_minus", "Sbar_plus")

# CLI spellings: the odd-spin space carries odd theta characteristics.
SPACE_ALIASES = {"odd": "Sbar_minus", "even": "Sbar_plus"}


def resolve_space(space: str) -> str:
    name = SPACE_ALIASES.get(space, space)
    if name not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    return name


def _exact(value) -> int | Fraction:
    """An int or a Fraction as it is, anything else parsed as a Fraction; floats rejected."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise ValueError(
            f"coefficients must be exact (int, Fraction or rational string), got {value!r}"
        )
    return Fraction(value)


def basis_symbols(space: str, g: int) -> tuple[str, ...]:
    """Ordered basis of the rational Picard group used here."""
    space = resolve_space(space)
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    k = g // 2
    if space == "Mbar":
        return ("lambda",) + tuple(f"delta_{i}" for i in range(k + 1))
    out = ["lambda"]
    for i in range(k + 1):
        out += [f"alpha_{i}", f"beta_{i}"]
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_order(space: str, g: int) -> dict[str, int]:
    """Position of each basis symbol; space must already be resolved."""
    return {s: i for i, s in enumerate(basis_symbols(space, g))}


@dataclass(frozen=True, init=False)
class DivClass:
    """A rational divisor class: integer numerators over one denominator.

    coeffs (ints, Fractions or rational strings) may be given as a mapping
    or as (symbol, value) pairs, where a repeated symbol accumulates.  The
    class is only one integer numerator per basis symbol, in basis order,
    over one positive denominator, in lowest terms; so == and hash agree
    with equality of classes, construction, +, scaling and pullback are
    integer work, and a Fraction is built only when coeffs or coeff() is read.
    """

    space: str
    g: int
    _den: int
    _num: tuple[int, ...]

    def __init__(self, space: str, g: int, coeffs=()) -> None:
        space = resolve_space(space)
        order = _basis_order(space, g)
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        num, den = [0] * len(order), 1
        for sym, val in items:
            i = order.get(sym)
            if i is None:
                raise ValueError(f"{sym!r} is not in the basis of {space}(g={g})")
            val = _exact(val)
            q = val.denominator
            if den % q:  # a new denominator: rescale what is summed so far
                scale = q // gcd(den, q)
                num, den = [n * scale for n in num], den * scale
            num[i] += val.numerator * (den // q)
        self.__dict__.update(vars(DivClass._of(space, g, num, den)))

    @classmethod
    def _of(cls, space: str, g: int, num, den: int) -> "DivClass":
        """The class sum(num[i] * basis[i]) / den, brought to lowest terms."""
        d = gcd(den, *num)
        if d > 1:
            num, den = (n // d for n in num), den // d
        c = object.__new__(cls)
        c.__dict__.update(space=space, g=g, _den=den, _num=tuple(num))
        return c

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        """Nonzero coefficients in basis order, as (symbol, Fraction) pairs."""
        order = _basis_order(self.space, self.g)
        return tuple((s, Fraction(n, self._den)) for s, n in zip(order, self._num) if n)

    def coeff(self, symbol: str) -> Fraction:
        i = _basis_order(self.space, self.g).get(symbol)
        if i is None:
            raise ValueError(f"{symbol!r} is not in the basis of {self.space}(g={self.g})")
        return Fraction(self._num[i], self._den)

    def __repr__(self) -> str:
        return f"DivClass(space={self.space!r}, g={self.g!r}, coeffs={self.coeffs!r})"

    def __add__(self, other: "DivClass") -> "DivClass":
        if not isinstance(other, DivClass):
            return NotImplemented
        if (self.space, self.g) != (other.space, other.g):
            raise ValueError(
                f"cannot add classes on {self.space}(g={self.g}) "
                f"and {other.space}(g={other.g})"
            )
        den = lcm(self._den, other._den)
        p, q = den // self._den, den // other._den
        num = [p * x + q * y for x, y in zip(self._num, other._num)]
        return DivClass._of(self.space, self.g, num, den)

    def __mul__(self, scalar) -> "DivClass":
        s = _exact(scalar)
        p, q = s.numerator, s.denominator
        return DivClass._of(self.space, self.g, [p * n for n in self._num], q * self._den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for sym, val in coeffs:
            sign = "-" if val < 0 else "+"
            mag = -val if val < 0 else val
            term = sym if mag == 1 else f"{mag}*{sym}"
            parts.append(f"{sign} {term}")
        head = parts[0].lstrip("+ ").replace("- ", "-", 1)
        return " ".join([head] + parts[1:])


def pullback(c: DivClass, space: str = "Sbar_minus") -> DivClass:
    """Pull a class back from Mbar to a spin cover.

    lambda -> lambda, delta_0 -> alpha_0 + 2 beta_0 (the covering is
    ramified along B_0), delta_i -> alpha_i + beta_i for i >= 1.
    """
    if c.space != "Mbar":
        raise ValueError(f"pullback starts on Mbar, got {c.space}")
    target = resolve_space(space)
    if target == "Mbar":
        raise ValueError("pullback lands on a spin cover, not Mbar")
    n = c._num  # (lambda, delta_0, delta_1, ...) to (lambda, alpha_0, beta_0, alpha_1, ...)
    num = [n[0], n[1], 2 * n[1]]
    for x in n[2:]:
        num += (x, x)
    return DivClass._of(target, c.g, num, c._den)


# The least genus of the canonical class, and so of the slope combination
# normalized against its shape; the CLI's classes report reads it too.
CANONICAL_MIN_GENUS = 4


def canonical_class(g: int, space: str) -> DivClass:
    """Canonical class of the chosen space (same shape on both covers).

    On Mbar, 13 lambda - 2 delta_0 - 3 delta_1 - 2 sum_{i>=2} delta_i; on a
    cover, 13 lambda - 2 alpha_0 - 3 beta_0 - 3 (alpha_1 + beta_1)
    - 2 sum_{i>=2} (alpha_i + beta_i), as numerators in basis order.
    """
    if g < CANONICAL_MIN_GENUS:
        raise ValueError(f"canonical class supported for g >= {CANONICAL_MIN_GENUS}, got {g}")
    space = resolve_space(space)
    k = g // 2
    if space == "Mbar":
        return DivClass._of(space, g, [13, -2, -3] + [-2] * (k - 1), 1)
    return DivClass._of(space, g, [13, -2, -3, -3, -3] + [-2, -2] * (k - 1), 1)


# The least genus of each named class; the CLI's classes report reads it too.
CLASS_MIN_GENUS = {"Z_odd": 3, "ThetaNull": 2, "BN_normalized": 3}


def named_class(g: int, name: str) -> DivClass:
    """One of the effective classes used in the slope combinations.

    Z_odd: closure of the divisorial part of the odd theta-null locus on
    the odd cover, (g+8) lambda - (g+2)/4 alpha_0 - 2 beta_0
    - sum_i (2(g-i) alpha_i + 2i beta_i).  ThetaNull: vanishing even theta
    constant, on the even cover, lambda/4 - alpha_0/16 - sum_i beta_i/2.
    BN_normalized: the Brill-Noether divisor class on Mbar with its overall
    positive constant normalized to 1, (g+3) lambda - (g+1)/6 delta_0
    - sum_i i(g-i) delta_i; whether a suitable (d, r) exists for given g is
    reported separately by bn_applicable.  Sums run over i = 1..g//2; each
    class is built as its numerators in basis order over one denominator,
    from the genus CLASS_MIN_GENUS gives on.
    """
    least = CLASS_MIN_GENUS.get(name)
    if least is None:
        raise ValueError(f"unknown class name {name!r}")
    if g < least:
        raise ValueError(f"{name} needs g >= {least}, got {g}")
    k = g // 2
    if name == "Z_odd":
        num = [4 * (g + 8), -(g + 2), -8]
        for i in range(1, k + 1):
            num += (-8 * (g - i), -8 * i)
        return DivClass._of("Sbar_minus", g, num, 4)
    if name == "ThetaNull":
        return DivClass._of("Sbar_plus", g, [4, -1, 0] + [0, -8] * k, 16)
    num = [6 * (g + 3), -(g + 1)] + [-6 * i * (g - i) for i in range(1, k + 1)]
    return DivClass._of("Mbar", g, num, 6)


def bn_applicable(g: int) -> bool:
    """True when g+1 is composite, so a genuine Brill-Noether divisor exists."""
    n = g + 1
    return any(n % d == 0 for d in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class SlopeResult:
    space: str
    g: int
    c_coefficient: Fraction
    lambda_slope: Fraction
    combined: DivClass
    bn_applicable: bool
    warnings: tuple[str, ...] = ()


def _combination(g: int, space: str) -> tuple[Fraction, DivClass]:
    """The scalar c and the combination base + c * pullback(BN), both checked.

    All on integer numerators: with base = num_b / den_b and the pullback
    bn = num_n / den_n, c = (-3 den_b - num_b[beta_0]) den_n /
    (den_b num_n[beta_0]) is the one Fraction, and the sum is taken over
    the lcm of the two denominators.  The check reads alpha_0 (index 1)
    and beta_0 (index 2) of the result against its denominator.
    """
    space = resolve_space(space)
    if g < CANONICAL_MIN_GENUS:
        raise ValueError(f"slope combination needs g >= {CANONICAL_MIN_GENUS}, got {g}")
    if space == "Sbar_minus":
        base = Fraction(2, g - 2) * named_class(g, "Z_odd")
    else:
        base = 8 * named_class(g, "ThetaNull")
    bn = pullback(named_class(g, "BN_normalized"), space)
    if bn._num[2] == 0:
        raise ValueError("no beta_0 component to solve against; formula transcription error")
    c = Fraction((-3 * base._den - base._num[2]) * bn._den, base._den * bn._num[2])
    p, q = c.numerator, c.denominator
    den = lcm(base._den, q * bn._den)
    s, t = den // base._den, p * (den // (q * bn._den))
    combined = DivClass._of(space, g, [s * x + t * y for x, y in zip(base._num, bn._num)], den)
    num, den = combined._num, combined._den
    if c <= 0 or num[2] != -3 * den or num[1] != -2 * den:
        raise InvariantError(f"c = {c} gives alpha_0 = {combined.coeff('alpha_0')}, not -2")
    return c, combined


def slope_combination(g: int, space: str) -> SlopeResult:
    """Effective combination normalized against the canonical-class shape.

    Mixes the space's natural theta class with the pulled-back
    Brill-Noether class, solving exactly for the unique scalar c that
    makes the beta_0 coefficient -3.  The alpha_0 coefficient must then
    come out -2 on its own; that is checked, not arranged.  Remaining
    boundary coefficients are checked against the expected bounds
    (> 3 at i=1, >= 2 for i >= 2) and reported as warnings if violated.
    """
    c, combined = _combination(g, space)
    # a_i = -n/den for the numerator n of alpha_i, at index 2i + 1; b_i likewise at 2i + 2
    num, den = combined._num, combined._den
    warnings = []
    for i, pair in enumerate(zip(num[3::2], num[4::2]), start=1):
        for label, n in zip("ab", pair):
            if i == 1 and not -n > 3 * den:
                warnings.append(f"{label}_{i} = {Fraction(-n, den)} fails the bound > 3")
            elif i > 1 and not -n >= 2 * den:
                warnings.append(f"{label}_{i} = {Fraction(-n, den)} fails the bound >= 2")
    return SlopeResult(
        space=combined.space,
        g=g,
        c_coefficient=c,
        lambda_slope=combined.coeff("lambda"),
        combined=combined,
        bn_applicable=bn_applicable(g),
        warnings=tuple(warnings),
    )


def general_type_test(g: int, space: str) -> str:
    """Compare the combination's lambda slope with 13, exactly.

    Below 13 the space is of general type; exactly 13 is the threshold
    case; above 13 the test proves nothing ("inconclusive", never "not
    general type").
    """
    slope = _combination(g, space)[1].coeff("lambda")
    if slope < 13:
        return "general_type"
    if slope == 13:
        return "threshold"
    return "inconclusive"
