"""Exact divisor-class arithmetic on moduli of curves and their spin covers.

Classes live in the rational Picard group of one of three spaces: the
moduli of stable curves ("Mbar", basis lambda, delta_0..delta_{g//2}) or
the odd/even spin compactifications ("Sbar_minus"/"Sbar_plus", basis
lambda, alpha_i, beta_i).  The bases are treated as free, so everything
here is formal linear algebra over the rationals, held as integer
numerators over one common denominator (see DivClass) — no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .config import InvariantError

SPACES = ("Mbar", "Sbar_minus", "Sbar_plus")

# CLI spellings: the odd-spin space carries odd theta characteristics.
SPACE_ALIASES = {"odd": "Sbar_minus", "even": "Sbar_plus"}


def resolve_space(space: str) -> str:
    name = SPACE_ALIASES.get(space, space)
    if name not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    return name


_ZERO = Fraction(0)


def _exact(value) -> Fraction:
    """value as a Fraction; a Fraction is returned as it is, a float rejected."""
    if isinstance(value, Fraction):
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

    coeffs may be given as a mapping or as (symbol, value) pairs.  The
    class is held as one integer numerator per basis symbol, in basis
    order, over one positive denominator, in lowest terms; so == and hash
    agree with equality of classes, and +, scaling and pullback are
    integer work.  A Fraction is built only when coeffs or coeff() is
    read; a class built from given coefficients reads them out as given.
    """

    space: str
    g: int
    _den: int
    _num: tuple[int, ...]
    _given: dict[str, Fraction] | None = field(compare=False)

    def __init__(self, space: str, g: int, coeffs=()) -> None:
        space = resolve_space(space)
        order = _basis_order(space, g)
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[str, Fraction] = {}
        for sym, val in items:
            if sym not in order:
                raise ValueError(f"{sym!r} is not in the basis of {space}(g={g})")
            val = _exact(val)
            acc[sym] = acc[sym] + val if sym in acc else val
        given = {s: acc[s] for s in sorted(acc, key=order.__getitem__) if acc[s]}
        den = lcm(*(v.denominator for v in given.values()))
        num = [0] * len(order)
        for s, v in given.items():
            num[order[s]] = v.numerator * (den // v.denominator)
        self.__dict__.update(space=space, g=g, _den=den, _num=tuple(num), _given=given)

    @classmethod
    def _of(cls, space: str, g: int, num, den: int) -> "DivClass":
        """The class sum(num[i] * basis[i]) / den, brought to lowest terms."""
        d = gcd(den, *num)
        if d > 1:
            num, den = (n // d for n in num), den // d
        c = object.__new__(cls)
        c.__dict__.update(space=space, g=g, _den=den, _num=tuple(num), _given=None)
        return c

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        """Nonzero coefficients in basis order, as (symbol, Fraction) pairs."""
        if self._given is not None:
            return tuple(self._given.items())
        order = _basis_order(self.space, self.g)
        return tuple((s, Fraction(n, self._den)) for s, n in zip(order, self._num) if n)

    def coeff(self, symbol: str) -> Fraction:
        i = _basis_order(self.space, self.g).get(symbol)
        if i is None:
            raise ValueError(f"{symbol!r} is not in the basis of {self.space}(g={self.g})")
        if self._given is not None:
            return self._given.get(symbol, _ZERO)
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

    def __sub__(self, other: "DivClass") -> "DivClass":
        return self + (-1) * other

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

    def to_json_dict(self) -> dict:
        """Coefficients as exact rational strings, full basis spelled out."""
        return {
            "space": self.space,
            "g": self.g,
            "coeffs": {s: str(self.coeff(s)) for s in basis_symbols(self.space, self.g)},
        }


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


def canonical_class(g: int, space: str) -> DivClass:
    """Canonical class of the chosen space (same shape on both covers)."""
    if g < 4:
        raise ValueError(f"canonical class supported for g >= 4, got {g}")
    space = resolve_space(space)
    k = g // 2
    if space == "Mbar":
        coeffs: dict = {"lambda": 13, "delta_0": -2, "delta_1": -3}
        for i in range(2, k + 1):
            coeffs[f"delta_{i}"] = -2
        return DivClass("Mbar", g, coeffs)
    coeffs = {"lambda": 13, "alpha_0": -2, "beta_0": -3, "alpha_1": -3, "beta_1": -3}
    for i in range(2, k + 1):
        coeffs[f"alpha_{i}"] = -2
        coeffs[f"beta_{i}"] = -2
    return DivClass(space, g, coeffs)


def named_class(g: int, name: str) -> DivClass:
    """One of the effective classes used in the slope combinations.

    Z_odd: closure of the divisorial part of the odd theta-null locus on
    the odd cover.  ThetaNull: vanishing even theta constant, on the even
    cover.  BN_normalized: the Brill-Noether divisor class on Mbar with
    its overall positive constant normalized to 1; whether a suitable
    (d, r) exists for given g is reported separately by bn_applicable.
    """
    k = g // 2
    if name == "Z_odd":
        if g < 3:
            raise ValueError(f"Z_odd needs g >= 3, got {g}")
        coeffs: dict = {"lambda": g + 8, "alpha_0": Fraction(-(g + 2), 4), "beta_0": -2}
        for i in range(1, k + 1):
            coeffs[f"alpha_{i}"] = -2 * (g - i)
            coeffs[f"beta_{i}"] = -2 * i
        return DivClass("Sbar_minus", g, coeffs)
    if name == "ThetaNull":
        if g < 2:
            raise ValueError(f"ThetaNull needs g >= 2, got {g}")
        coeffs = {"lambda": Fraction(1, 4), "alpha_0": Fraction(-1, 16)}
        for i in range(1, k + 1):
            coeffs[f"beta_{i}"] = Fraction(-1, 2)
        return DivClass("Sbar_plus", g, coeffs)
    if name == "BN_normalized":
        if g < 3:
            raise ValueError(f"BN_normalized needs g >= 3, got {g}")
        coeffs = {"lambda": g + 3, "delta_0": Fraction(-(g + 1), 6)}
        for i in range(1, k + 1):
            coeffs[f"delta_{i}"] = -i * (g - i)
        return DivClass("Mbar", g, coeffs)
    raise ValueError(f"unknown class name {name!r}")


def bn_applicable(g: int) -> bool:
    """True when g+1 is composite, so a genuine Brill-Noether divisor exists."""
    n = g + 1
    return any(n % d == 0 for d in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class SlopeResult:
    space: str
    g: int
    c_coefficient: Fraction
    combined: DivClass
    lambda_slope: Fraction
    bn_applicable: bool
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "space": self.space,
            "g": self.g,
            "c_coefficient": str(self.c_coefficient),
            "lambda_slope": str(self.lambda_slope),
            "combined": self.combined.to_json_dict(),
            "bn_applicable": self.bn_applicable,
            "warnings": list(self.warnings),
        }


def _combination(g: int, space: str) -> tuple[Fraction, DivClass]:
    """The scalar c and the combination base + c * pullback(BN), both checked."""
    space = resolve_space(space)
    if g < 4:
        raise ValueError(f"slope combination needs g >= 4, got {g}")
    if space == "Sbar_minus":
        base = Fraction(2, g - 2) * named_class(g, "Z_odd")
    else:
        base = 8 * named_class(g, "ThetaNull")
    bn = pullback(named_class(g, "BN_normalized"), space)
    denom = bn.coeff("beta_0")
    if denom == 0:
        raise ValueError("no beta_0 component to solve against; formula transcription error")
    c = (Fraction(-3) - base.coeff("beta_0")) / denom
    combined = base + c * bn
    if c <= 0 or combined.coeff("beta_0") != -3 or combined.coeff("alpha_0") != -2:
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
        combined=combined,
        lambda_slope=combined.coeff("lambda"),
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
