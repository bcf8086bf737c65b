"""Riemann theta functions with characteristics on the Siegel space.

Everything rests on one weight function of the lattice point m in Z^g,

    w_eps(m; z) = exp(pi i (s' tau s + 2 s' z)),   s = m + eps/2,

so that theta[eps; delta](tau, z) = sum over m of w_eps(m; z + delta/2):
the lower characteristic is the half-period shift
theta[eps; delta](tau, z) = theta[eps; 0](tau, z + delta/2).  A single
evaluation sums the weights at z + delta/2.  The theta-constant table sums
them at z = 0 per parity class m mod 2 and recovers every delta from the
2^g class sums by a Walsh-Hadamard transform and a phase i^(eps.delta)
(see theta_constant_table); theta_constant is a lookup into that table.
A characteristic is a symplectic.Characteristic, the quadratic form with
basis values (eps | delta); only its two g-bit blocks are read here.

The kernel evaluates the exponent through one exact split,

    s' tau s + 2 s' z = m' tau m + m'(tau eps + 2 z) + (eps' tau eps / 4 + eps' z),

taken separately for X = Re tau and Y = Im tau.  Ym = m Y and the row
dots m'Ym come from real BLAS products over the box (for a large single
evaluation, over the lines of it that the cut below leaves), Xm = m X and
m'Xm over the points kept inside it, once per call; everything else is a
mat-vec or a constant.  Each weight is a real Gaussian magnitude
exp(-pi (imaginary part)) times a unit-modulus phase
exp(pi i (real part)).  The magnitude is always one exp of the whole
imaginary part and is never split into factors: for an ill-conditioned Y
the factors exp(-pi Ym[:, k]) overflow long before the product underflows
(Y = [[50, 49.7], [49.7, 50]] at m = (-5, -5) gives exp(1566) times
exp(-15661)).  Phases are unit-modulus, so the table factors them and
reads the factors of cis(pi Xm[:, k]) from a lookup table.

Two-dimensional gathers, of lattice rows and of phase columns, use
np.take: fancy indexing of a (K, g) array takes numpy's general path,
several times slower at g <= 4 (medians, one BLAS thread, the 2,940 rows
of a g = 4 table: 57 against 9 us for the rows, 59 against 20 us for one
phase column).  Both are exact copies.  One-dimensional gathers have their
own fast path and keep plain indexing.

Real parts are reduced exactly before summing.  For integral symmetric S
and integral n,

    theta[eps; delta](tau + 2S, z) = i^(eps'S eps) theta[eps; delta](tau, z),
    theta[eps; delta](tau, z + n)  = (-1)^(eps.n) theta[eps; delta](tau, z),

so both paths sum on Re tau - 2S with S = round(Re tau / 2), every entry
in [-1, 1] (once per PeriodMatrix), and a single evaluation on Re z - n
with n = round(Re z) when some |Re z_k| > 1/2; the factors are half turns
added to the phase exponent, read off S mod 4 and n mod 2.  Without this a
large real part leaves nothing of the phases' digits.

The lattice sum is truncated in two steps.  The infinity-norm box of
radius R comes from the Gaussian tail bound T with the smallest
eigenvalue of Im tau (numpy's symmetric eigensolver) and |Im z|.  Inside
the box only the points whose term can exceed exp(-pi C) are summed
(the ellipsoid cut of Deconinck, Heil, Bobenko, van Hoeij and Schmies,
Math. Comp. 73, 2004): C is at least the exponent of the tail bound's
first excluded shell, and large enough that the N box points can drop at
most tol - T together.  A single evaluation keeps the points whose
imaginary exponent is below C.  On a box of more than _LINE_CUT points it
reads the box as lines along the last coordinate: along a line the
exponent is a quadratic in m_g whose real minimum, a quadratic form in
the other coordinates with the Schur complement of Y_gg in Y, drops every
line that stays at or above C before any of its points is touched
(Deconinck et al., section 5; Agostini and Chua, 2021).  The rows of the
lines left take the same BLAS products as the whole box would and go
back to box order, so the same points are summed in the same order.  On
smaller boxes one pass over the whole box is cheaper (see _LINE_CUT).  A
table keeps the rows with m'Ym + sum_k min(0, (Ym)_k) < C, a lower bound
on s'Ys for every eps, so they hold every per-eps ellipsoid {s'Ys < C}.
With K points kept, the error bound is T + (N - K) exp(-pi C) <= tol.
Summation order is fixed — shells of increasing |m|_inf, lexicographic
within a shell, and the kept points in that order (a table groups them
by parity class first) — so repeated evaluations are bit-reproducible.

Accuracy contract: double precision throughout; tolerances below 1e-13
are rejected, and callers should keep Im tau >= 0.3 I (the truncation
radius guard trips otherwise).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import InvariantError
from .symplectic import Characteristic, _same_genus

__all__ = [
    "PeriodMatrix",
    "Tolerance",
    "truncation_radius",
    "theta_constant",
    "theta_constant_table",
    "theta_report",
    "block_diag",
]

_MAX_RADIUS = 64
_MAX_LATTICE = 4_000_000
_BLOCK = 16  # eps values per block of weight rows in a table
# A single evaluation on a box of more than this many points cuts by lines
# (_line_rows), on a smaller one in one pass over the box (_box_rows).  The
# line cut's fixed cost, some 15 numpy calls, loses to the box pass on small
# boxes: medians over six tau, one BLAS thread, box pass against line cut,
# 67 vs 124 us at g = 3, N = 4,913; 119 vs 177 us at g = 4, N = 6,561;
# 259 vs 194 us at g = 4, N = 14,641; 2,190 vs 386 us at g = 4, N = 83,521.
_LINE_CUT = 10_000
_U = 2.0**-53  # unit roundoff of a double


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance for theta sums, in (1e-13, 1).

    1e-13 is the double precision floor; this is the one place the range
    is checked.
    """

    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 1e-13 < self.abs_tol < 1.0:
            raise ValueError(
                "tolerance must be in (1e-13, 1), 1e-13 being the double precision floor;"
                f" got {self.abs_tol}"
            )

    @classmethod
    def coerce(cls, tol) -> "Tolerance":
        if isinstance(tol, Tolerance):
            return tol
        return cls(float(tol))


class PeriodMatrix:
    """g x g complex symmetric matrix with positive-definite imaginary part.

    Symmetry must hold exactly as stored; positive definiteness is checked
    numerically through the smallest eigenvalue of Im tau.  Two
    period matrices are equal, and hash alike, when their entries are equal
    byte for byte, so caches can key on the matrix itself.
    """

    def __init__(self, entries) -> None:
        tau = np.array(entries, dtype=complex)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1] or tau.shape[0] == 0:
            raise ValueError(f"period matrix must be square, got shape {tau.shape}")
        # Checked on Python lists: at g <= 4 that is several times faster
        # than the numpy reductions, which matters once per evaluation.
        flat = tau.ravel().tolist()
        if not all(map(cmath.isfinite, flat)):
            raise ValueError("period matrix entries must be finite")
        if flat != tau.T.ravel().tolist():
            raise ValueError("period matrix must be exactly symmetric")
        lam = float(np.linalg.eigvalsh(tau.imag)[0])
        if lam <= 0.0:
            raise ValueError(f"Im tau must be positive definite (lambda_min={lam})")
        tau.setflags(write=False)
        self.tau = tau
        self.g = tau.shape[0]
        self.im_lambda_min = lam
        self._key = tau.tobytes()
        # The sums run on tau - 2S, S = round(Re tau / 2) integral symmetric,
        # so |Re| <= 1 there (see _turns); _shift is S mod 4, None for S = 0,
        # which is the case exactly when every |Re tau_jk| <= 1.
        x = np.ascontiguousarray(tau.real)
        self._y = np.ascontiguousarray(tau.imag)
        if max(map(abs, x.ravel().tolist())) <= 1.0:
            self._x, self._shift, self._reduced = x, None, tau
        else:
            s = np.round(x / 2.0)
            self._x = x - 2.0 * s
            self._shift = np.mod(s, 4.0)
            self._reduced = self._x + 1j * self._y

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodMatrix) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"PeriodMatrix(g={self.g})"


def _z(z, g: int) -> tuple[complex, ...]:
    """The argument vector z in C^g as a tuple, zero when z is None."""
    z = (0j,) * g if z is None else tuple(complex(w) for w in z)
    if not z:
        raise ValueError("z must be nonempty")
    if not all(map(cmath.isfinite, z)):
        raise ValueError("z entries must be finite")
    if len(z) != g:
        raise ValueError(f"z has length {len(z)}, expected {g}")
    return z


def _shell_term(lam: float, g: int, z_im_norm: float, s: int) -> float:
    """_tail_bound's term for the shell |m|_inf = s."""
    return ((2 * s + 1) ** g - (2 * s - 1) ** g) * math.exp(
        -math.pi * lam * (s - 0.5) ** 2 + 2.0 * math.pi * math.sqrt(g) * (s + 0.5) * z_im_norm
    )


def _tail_bound(lam: float, g: int, z_im_norm: float, radius: int) -> float:
    """Upper bound on the absolute tail mass outside the |m|_inf <= radius box.

    Each shell |m|_inf = s contributes at most ((2s+1)^g - (2s-1)^g) terms,
    each bounded by exp(-pi lam (s-1/2)^2 + 2 pi sqrt(g) (s+1/2) |Im z|).
    """
    total = 0.0
    for s in range(radius + 1, radius + 501):
        term = _shell_term(lam, g, z_im_norm, s)
        total += term
        if term < 1e-18 * max(total, 1e-300) and s > radius + 3:
            break
    return total


@lru_cache(maxsize=256)
def _box(g: int, lam: float, z_im_norm: float, abs_tol: float) -> tuple[int, float, float]:
    """Box radius R, box tail T and cutoff exponent C for one set of numerics.

    R is the smallest radius whose _tail_bound T is at most the tolerance.
    A box point is summed when its term can exceed exp(-pi C).  C is at
    least the exponent lambda_min (R+1/2)^2 - 2 sqrt(g) (R+3/2) |Im z| of
    _tail_bound's first excluded shell, and large enough that the N box
    points together can drop at most N exp(-pi C) <= tol - T.  When
    T = tol there is no room left and C is infinite: the whole box counts.
    A tolerance that no radius within the caps reaches is a ValueError,
    and so is a tail term too large for a float.

    A radius whose first excluded shell term alone exceeds the tolerance
    is passed over without summing its tail: T starts with that term and
    only adds to it, so the radius fails either way.  An OverflowError
    still ends the search where it did: up to the first shell whose term
    overflows the exponent only rises, so each radius before it is passed
    over until that shell comes first.
    """
    for radius in range(1, _MAX_RADIUS + 1):
        if (2 * radius + 1) ** g > _MAX_LATTICE:
            break
        try:
            if _shell_term(lam, g, z_im_norm, radius + 1) > abs_tol:
                continue
            tail = _tail_bound(lam, g, z_im_norm, radius)
        except OverflowError:
            break
        if tail == abs_tol:
            return radius, tail, math.inf
        if tail < abs_tol:
            shell = lam * (radius + 0.5) ** 2 - 2.0 * math.sqrt(g) * (radius + 1.5) * z_im_norm
            budget = math.log((2 * radius + 1) ** g / (abs_tol - tail)) / math.pi
            return radius, tail, max(shell, budget)
    raise ValueError(
        "cannot reach the requested tolerance: Im tau too small or |Im z| too "
        "large for the supported truncation range (keep Im tau >= 0.3 I)"
    )


def _numerics(tau: PeriodMatrix, z: tuple, tol: Tolerance) -> tuple[int, float, float]:
    z_im_norm = math.hypot(*(w.imag for w in z))
    return _box(tau.g, tau.im_lambda_min, z_im_norm, tol.abs_tol)


def truncation_radius(tau: PeriodMatrix, z, tol) -> int:
    """Smallest box radius R whose estimated tail is below the tolerance."""
    tol = Tolerance.coerce(tol)
    return _numerics(tau, _z(z, tau.g), tol)[0]


def _shell_order(g: int, radius: int) -> np.ndarray:
    """The box in lex order sorted by |m|_inf, stably: lex order inside a shell.

    |m|_inf over the box in lex order is an outer maximum of the 2R + 1
    distances |m_k|, one byte a point, for which numpy's stable argsort is
    a radix sort.
    """
    dist = np.abs(np.arange(-radius, radius + 1)).astype(np.uint8)
    shell = dist
    for _ in range(g - 1):
        shell = np.maximum.outer(shell, dist)
    return np.argsort(shell.ravel(), kind="stable")


@lru_cache(maxsize=32)
def _lattice(g: int, radius: int) -> np.ndarray:
    """Integer points of the box, shells of increasing |m|_inf, lex inside.

    np.indices lists the box in lex order, and _shell_order sorts it.
    """
    pts = np.indices((2 * radius + 1,) * g).reshape(g, -1).T - radius
    arr = pts[_shell_order(g, radius)].astype(float)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=32)
def _parity_classes(g: int, radius: int) -> np.ndarray:
    """m mod 2 for each box point, packed like a characteristic block.

    Coordinate k sits at bit g-1-k, so the class is an index into F2^g
    that pairs with eps and delta by bitwise and.  Stored as uint16, for
    which numpy's stable argsort is a radix sort.
    """
    bits = _lattice(g, radius).astype(np.intp) & 1
    classes = (bits @ (1 << np.arange(g - 1, -1, -1))).astype(np.uint16)
    classes.setflags(write=False)
    return classes


@lru_cache(maxsize=None)
def _blocks(g: int) -> np.ndarray:
    """Every g-bit block as a 0/1 row: row b is block b, coordinate k bit g-1-k."""
    bits = (np.arange(1 << g)[:, None] >> np.arange(g - 1, -1, -1)) & 1
    arr = bits.astype(float)
    arr.setflags(write=False)
    return arr


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(pi i x), the unit-modulus phase of a real exponent part."""
    return np.exp(1j * np.pi * x)


def _kept(exponent: np.ndarray, cutoff: float) -> np.ndarray:
    """The rows whose exponent is below the cutoff, in the order given.

    The one selection both lattice sums make: what it leaves out is charged
    to the error bound, and the rows it keeps are a subsequence of the box,
    so sums over them stay bit-reproducible.
    """
    return (exponent < cutoff).nonzero()[0]


def _quadratic(m: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """am = m a over the box and the row dots m'a m, both by real BLAS."""
    am = m @ a
    return am, (am * m) @ np.ones(a.shape[0])


def _exponents(m: np.ndarray, y: np.ndarray, b: np.ndarray, c0: float) -> np.ndarray:
    """m'Ym + b.m + c0 for the rows m: the imaginary exponent of a single evaluation."""
    return _quadratic(m, y)[1] + m @ b + c0


@lru_cache(maxsize=32)
def _lines(g: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The box as lines along the last coordinate.

    Returns the heads p = (m_1..m_(g-1)) of the (2R + 1)^(g-1) lines, in
    lex order, and a (lines, 2R + 1) array whose row p holds the positions
    in _lattice(g, R) of (p, -R)..(p, R).  In lex order a line is a run of
    2R + 1 consecutive points, so the positions invert _shell_order.
    """
    side = 2 * radius + 1
    where = np.empty(side**g, dtype=np.intp)
    where[_shell_order(g, radius)] = np.arange(side**g)
    heads = (np.indices((side,) * (g - 1)).reshape(g - 1, -1).T - radius).astype(float)
    where = where.reshape(-1, side)
    heads.setflags(write=False)
    where.setflags(write=False)
    return heads, where


def _box_rows(g: int, radius: int, y, b, c0: float, cutoff: float) -> tuple[np.ndarray, ...]:
    """The box rows with m'Ym + b.m + c0 < C, and those exponents, in box order."""
    im = _exponents(_lattice(g, radius), y, b, c0)
    keep = _kept(im, cutoff)
    return keep, im[keep]


def _line_rows(g: int, radius: int, y, b, c0: float, cutoff: float) -> tuple[np.ndarray, ...]:
    """What _box_rows returns, from the lines of the box that can hold a kept row.

    With m = (p, t), the exponent along the line of p is a quadratic in t
    whose minimum over real t is h(p) = p'Sp + beta.p + gamma, with the
    Schur complement S = Y_pp - y y'/Y_gg (y the last column of Y without
    Y_gg), beta = b_p - b_g y/Y_gg and gamma = c0 - b_g^2/(4 Y_gg).  Only
    the lines with h(p) below C plus a rounding slack can hold a row below
    C; their rows take the same BLAS products as in _box_rows, so the same
    rows are kept with the same exponents, and their positions in the box
    are sorted back into box order.
    """
    heads, where = _lines(g, radius)
    yg, bg = y[-1, -1], b[-1]
    col = y[:-1, -1]
    s = y[:-1, :-1] - np.outer(col, col / yg)
    beta = b[:-1] - bg / yg * col
    gamma = c0 - bg * bg / (4.0 * yg)
    # Rounding, to first order: an exponent, of a row or of a line's minimum,
    # is a sum of terms each at most (R + 1)^2 times an entry of |Y|,
    # |y||y|'/Y_gg, |b|, |b_g||y|/Y_gg, |c0| or b_g^2/(4 Y_gg), through at most
    # 3g + 4 roundings (S, beta and gamma included), so it is off by at most
    # E = (3g + 4) u (R + 1)^2 size, size the sum of those entries.  A row
    # computed below C is below C + E exactly, so is the minimum of its
    # line, and its computed h is below C + 2E.  The Schur terms (the three
    # with Y_gg in a denominator) cannot be shown needed by any test: a line
    # whose h is computed near C yet holds a row computed below C has its
    # real minimum at that row, inside the box, so |b_g| <= 2|y.p| + 2R Y_gg
    # and, by Cauchy-Schwarz in Y, each Schur term is at most about
    # 2g (R + 1)^2 |Y|.  Over 13,000 adversarial inputs (near-singular Y at
    # g = 2, 3 and 4, a line's minimum placed on a box row) no computed h
    # exceeded its line's least computed row by more than 0.25 of the slack
    # without them.  They stay, as the bound; scripts/mutants.py marks
    # dropping them (line-slack-size) equivalent.
    w = np.abs(col).sum() / yg
    size = np.abs(y).sum() + np.abs(b).sum() + abs(c0)
    size += w * w * yg + abs(bg) * w + bg * bg / (4.0 * yg)
    slack = 2.0 * (3 * g + 4) * _U * (radius + 1) ** 2 * size
    pos = np.take(where, _kept(_exponents(heads, s, beta, gamma), cutoff + slack), axis=0).ravel()
    im = _exponents(np.take(_lattice(g, radius), pos, axis=0), y, b, c0)
    hit = _kept(im, cutoff)
    pos, im = pos[hit], im[hit]
    order = np.argsort(pos)
    return pos[order], im[order]


def _turns(tau: PeriodMatrix, e: np.ndarray) -> np.ndarray | float:
    """(eps'S eps mod 4) / 2 for the 0/1 rows e, S = round(Re tau / 2).

    theta[eps; delta](tau, z) = i^(eps'S eps) theta[eps; delta](tau - 2S, z),
    so the sums run on tau - 2S and add this many half turns to the phase
    exponent.  Exact: S enters only mod 4.
    """
    if tau._shift is None:
        return 0.0
    return np.mod(((e @ tau._shift) * e).sum(axis=-1), 4.0) / 2.0


def _theta_sum(
    tau: PeriodMatrix, z: tuple[complex, ...], c: Characteristic, radius: int, cutoff: float
) -> tuple[complex, int]:
    """theta[eps; delta](tau, z) = theta[eps; 0](tau, z + delta/2), and its point count.

    The sum of w_eps(m; z + delta/2) over the box points whose imaginary
    exponent is below the cutoff, by the split: the imaginary part is
    taken over the box, or over the lines of a large one that can hold a
    kept point (_line_rows), the real part, one real exp for the
    magnitudes and one complex exp for the phases over the kept points
    only.  The linear coefficient tau eps + 2z and the constant are
    g-sized and stay complex.
    The sum runs on Re tau reduced mod 2 (_turns) and, when some
    |Re z_k| > 1/2, on z - n, n = round(Re z), by
    theta[eps; delta](tau, z + n) = (-1)^(eps.n) theta[eps; delta](tau, z).
    """
    g = tau.g
    m = _lattice(g, radius)
    e = _blocks(g)[c.eps]
    turns = _turns(tau, e)
    n = [round(w.real) for w in z]  # exact, and so is each w - k below
    if any(n):
        z = [w - k for w, k in zip(z, n)]
        turns += sum(k for k, bit in zip(n, e.tolist()) if bit) % 2
    z = np.array(z, dtype=complex) + _blocks(g)[c.delta] / 2.0
    te = tau._reduced @ e
    lin = te + 2.0 * z
    const = e @ te / 4.0 + e @ z
    rows = _line_rows if len(m) > _LINE_CUT else _box_rows
    keep, im = rows(g, radius, tau._y, lin.imag, const.imag, cutoff)
    m = np.take(m, keep, axis=0)
    _, mxm = _quadratic(m, tau._x)
    re = mxm + m @ lin.real + (const.real + turns)
    return complex(np.sum(np.exp(-np.pi * im) * _cis(re))), keep.size


@lru_cache(maxsize=None)
def _signs_and_phases(g: int) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^(r.delta) over [r, delta] and i^(eps.delta) over [eps, delta]."""
    n = 1 << g
    dots = np.array([[bin(a & b).count("1") for b in range(n)] for a in range(n)])
    signs = 1.0 - 2.0 * (dots & 1)
    phases = np.array([1, 1j, -1, -1j])[dots & 3]
    signs.setflags(write=False)
    phases.setflags(write=False)
    return signs, phases


def _charge(tail: float, g: int, radius: int, points: int, cutoff: float) -> float:
    """T + (N - K) exp(-pi C): the tail, plus the box points dropped at the cutoff."""
    return tail + ((2 * radius + 1) ** g - points) * math.exp(-math.pi * cutoff)


def theta_constant(tau: PeriodMatrix, c: Characteristic, tol=Tolerance()) -> complex:
    """theta[c](tau, 0), read from theta_constant_table.

    Vanishes identically for odd characteristics (numerically, to rounding).
    """
    _same_genus(c, tau)
    return complex(theta_constant_table(tau, tol)[c.eps, c.delta])


def theta_report(tau: PeriodMatrix, z, c: Characteristic, tol=Tolerance()) -> dict:
    """theta[c](tau, z) with absolute truncation error below tol, and the numerics used.

    re and im are the value, radius is the box radius R, points the number
    K of box points summed, and est_error = T + (N - K) exp(-pi C) bounds
    everything not summed: the tail T outside the box of N points, plus
    the box points dropped at the cutoff C, each of modulus at most
    exp(-pi C).
    """
    _same_genus(c, tau)
    tol = Tolerance.coerce(tol)
    z = _z(z, tau.g)
    # The public call stays so that a wrapped truncation_radius sees the
    # radius of every evaluation; the tail then comes from the same search.
    radius = truncation_radius(tau, z, tol)
    _, tail, cutoff = _numerics(tau, z, tol)
    value, points = _theta_sum(tau, z, c, radius, cutoff)
    est_error = _charge(tail, tau.g, radius, points, cutoff)
    return dict(re=value.real, im=value.imag, radius=radius, points=points, est_error=est_error)


def theta_constant_table(tau: PeriodMatrix, tol=Tolerance()) -> np.ndarray:
    """All 2^2g theta constants as an array indexed [eps, delta].

    At z = 0 the characteristic delta enters the weight w_eps(m; delta/2)
    only as the phase exp(pi i s.delta) = i^(eps.delta) (-1)^(m.delta), and
    (-1)^(m.delta) depends on m only through its class r = m mod 2.  With
    the class sums A_eps(r) = sum over m = r (mod 2) of w_eps(m; 0),

        theta[eps; delta](tau, 0) = i^(eps.delta) sum_r (-1)^(r.delta) A_eps(r),

    a Walsh-Hadamard transform of the 2^g class sums and a phase.  A table
    therefore takes 2^g weight vectors, not 4^g lattice sums, and
    theta_constant reads it.

    The box is that of a single evaluation at z = 0, and only the K rows
    that _table_rows keeps are summed, so each entry misses at most
    T + (N - K) exp(-pi C) <= tol; _table assembles their weights.  Every
    odd entry must vanish to twice that charge plus a rounding bound, or
    the table raises InvariantError (_check_odd).  Tables are cached per
    (tau, tol), 16 at a time.
    """
    return _table(tau, Tolerance.coerce(tol))


def _table_rows(tau: PeriodMatrix, radius: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """The box rows a table sums: every m with m'Ym + sum_k min(0, (Ym)_k) < C.

    With s = m + eps/2, s'Ys = m'Ym + Ym.eps + eps'Y eps/4, where
    Ym.eps >= sum_k min(0, (Ym)_k) for a 0/1 eps and eps'Y eps >= 0: the
    left side bounds s'Ys from below for every eps at once, so a row left
    out has s'Ys >= C for every eps.  One BLAS pass over the box, with no
    more than two box-sized arrays alive at once.  Every parity class keeps
    a row: for the 0/1 vector r, m = -r has Ym = -Yr and left side at most
    r'Yr - sum_(k in r) (Yr)_k = 0 < C.  Returns the kept indices grouped
    by parity class (box order inside a class) and their classes.
    """
    g = tau.g
    m = _lattice(g, radius)
    ym = m @ tau._y
    low = ym * m
    low += np.minimum(ym, 0.0, out=ym)
    del ym
    keep = _kept(low @ np.ones(g), cutoff)
    del low
    classes = _parity_classes(g, radius)[keep]
    order = np.argsort(classes, kind="stable")
    return keep[order], classes[order]


def _phase_columns(x: np.ndarray, m: np.ndarray, radius: int) -> np.ndarray:
    """cis(pi (Xm)_k) for the integer rows m, as a (g, K) array, by lookup.

    cis(pi (Xm)_k) = prod_j cis(pi X_jk m_j), and m_j is one of the 2R + 1
    integers -R..R: the factors are one g x g x (2R + 1) table of complex
    exps, and a column takes g gathers and products instead of an exp per
    row.
    """
    factors = _cis(x[:, :, None] * np.arange(-radius, radius + 1.0))
    index = (m.T + radius).astype(np.intp, order="C")
    columns = np.take(factors[0], index[0], axis=1)
    for j in range(1, x.shape[0]):
        columns *= np.take(factors[j], index[j], axis=1)
    return columns


def _check_odd(table: np.ndarray, odd: np.ndarray, charge: float, scale: np.ndarray) -> None:
    """Every odd entry must vanish to twice the truncation charge plus rounding.

    theta[eps; delta](tau, 0) = 0 for odd eps.delta, so a computed odd entry
    is what truncation and rounding left: at most the charge
    T + (N - K) exp(-pi C) per side of the symmetry m -> -m - eps, plus
    scale[eps] = sum over the kept rows of |w_eps| times the relative
    rounding bound of a table (see _table).
    """
    slack = 2.0 * charge + scale
    bad = odd & ~(np.abs(table) <= slack[:, None])
    if bad.any():
        eps, delta = (int(v) for v in np.argwhere(bad)[0])
        raise InvariantError(
            f"odd theta[{eps};{delta}] = {abs(table[eps, delta]):.3e} exceeds its "
            f"bound {slack[eps]:.3e}"
        )


@lru_cache(maxsize=16)
def _table(tau: PeriodMatrix, tol: Tolerance) -> np.ndarray:
    """theta_constant_table, summed from the weights of the kept rows.

    The weights come from the split at z = 0.  The magnitude of w_eps is
    exp(-pi (m'Ym + Ym.eps + eps'Y eps/4)) = exp(-pi s'Ys) <= 1, and the
    phase is

        cis(pi m'Xm) prod_{k in eps} cis(pi Xm[:, k]) cis(pi eps'X eps/4),

    with the columns cis(pi Xm[:, k]) read by lookup (_phase_columns), so
    a kept row takes one complex exp, for cis(pi m'Xm), not one per eps.
    The eps run in blocks of b = 2^low weight rows, low = min(g, 4): the
    phases of a block by doubling over the last low coordinates (row
    eps + 2^j is row eps times column g-1-j), the magnitudes by one real
    exp of the block, and the class sums by one reduction over the rows
    grouped by class.  The constant factor multiplies the 2^g class sums.
    After the cut, two (b, K) buffers serve every block.
    """
    g = tau.g
    n = 1 << g
    z = (0j,) * g
    radius = truncation_radius(tau, z, tol)
    _, tail, cutoff = _numerics(tau, z, tol)
    keep, classes = _table_rows(tau, radius, cutoff)
    m = np.take(_lattice(g, radius), keep, axis=0)
    x, y = tau._x, tau._y
    blocks = _blocks(g)
    ym, mym = _quadratic(m, y)
    base = _cis(_quadratic(m, x)[1])
    columns = _phase_columns(x, m, radius)
    counts = np.bincount(classes, minlength=n)
    starts = np.cumsum(counts) - counts  # no class is empty (see _table_rows)
    corners = ((blocks @ y) * blocks) @ np.ones(g) / 4.0
    b = min(n, _BLOCK)
    low = b.bit_length() - 1
    w = np.empty((b, len(keep)), dtype=complex)
    mag = np.empty((b, len(keep)))
    sums = np.empty((n, n), dtype=complex)
    mass = np.empty(n)
    for h in range(0, n, b):
        w[0] = base
        for k in np.flatnonzero(blocks[h, : g - low]):
            w[0] *= columns[k]
        for j in range(low):
            np.multiply(w[: 1 << j], columns[g - 1 - j], out=w[1 << j : 2 << j])
        np.matmul(blocks[h : h + b], ym.T, out=mag)
        mag += mym
        mag += corners[h : h + b, None]
        mag *= -np.pi
        np.exp(mag, out=mag)
        mass[h : h + b] = mag.sum(axis=1)
        w *= mag
        sums[h : h + b] = np.add.reduceat(w, starts, axis=1)
    sums *= _cis(((blocks @ x) * blocks) @ np.ones(g) / 4.0 + _turns(tau, blocks))[:, None]
    signs, phases = _signs_and_phases(g)
    table = (sums @ signs) * phases
    # Rounding to first order, in units of u times the mass sum_m |w_eps(m)|
    # of an entry's eps: an exponent (real or imaginary part) is at most
    # (R + 1)^2 sum_jk |tau_jk| in size and takes at most 3g + 4 roundings,
    # which its exp or cis scales by pi; a weight adds 5g^2 + 16 from its
    # exps and complex products; the class sums and the transform add
    # K + 2^g.
    norm = np.abs(x).sum() + np.abs(y).sum()
    rel = len(keep) + n + 5 * g * g + 16 + math.pi * (3 * g + 4) * (radius + 1) ** 2 * norm
    charge = _charge(tail, g, radius, len(keep), cutoff)
    _check_odd(table, signs < 0, charge, _U * rel * mass)  # (-1)^(eps.delta) = -1: odd
    table.setflags(write=False)
    return table


def block_diag(tau1: PeriodMatrix, tau2: PeriodMatrix) -> PeriodMatrix:
    """diag(tau1, tau2) on the Siegel space of genus g1 + g2."""
    g1, g2 = tau1.g, tau2.g
    out = np.zeros((g1 + g2, g1 + g2), dtype=complex)
    out[:g1, :g1] = tau1.tau
    out[g1:, g1:] = tau2.tau
    return PeriodMatrix(out)
