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
dots m'Ym come from real BLAS products over the box (for a large box,
over the lines of it that the cut below leaves), Xm = m X and
m'Xm over the points kept inside it, once per call; everything else is a
mat-vec or a constant.  A single evaluation does the g-sized part, the
linear coefficient and the constant, in Python scalars: at g <= 4 a numpy
call on a g-vector costs more than its arithmetic.  Each weight is a real
Gaussian magnitude exp(-pi (imaginary part)) times a unit-modulus phase
exp(pi i (real part)).  The magnitude is always one exp of the whole
imaginary part and is never split into factors: for an ill-conditioned Y
the factors exp(-pi Ym[:, k]) overflow long before the product underflows
(Y = [[50, 49.7], [49.7, 50]] at m = (-5, -5) gives exp(1566) times
exp(-15661)).  A single evaluation sums its weights as two real
reductions, the magnitudes times cos and times sin of pi (real part), so
it makes no complex array of its kept points.  Phases are unit-modulus,
so the table factors them and reads the factors of cis(pi Xm[:, k]) from
a lookup table.

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
most tol - T together.  Both paths read the box from one compact index,
the box as lines along the last coordinate (_lines: int8 points, g bytes
a point, one cached copy per (g, R) shared by tables and single
evaluations), and cast to float only the points they take the BLAS
products of.  A single evaluation keeps the points whose imaginary
exponent is below C.  A table keeps the rows with
m'Ym + sum_k min(0, (Ym)_k) < C, a lower bound on s'Ys for every eps, so
they hold every per-eps ellipsoid {s'Ys < C}; a stable sort by parity
class groups them.  A table, and a single evaluation on a box of more
than _LINE_CUT points, first drop lines, by one helper (_line_cut): along
a line a row's exponent, or its lower bound, is at least a quadratic form
in the line's head, read off the Schur complement of one symmetric matrix
(the augmented [[c0, b'/2], [b/2, Y]] of a single evaluation's exponent;
Y for a table, less a constant), and every line on which that stays at
or above C plus one rounding slack is dropped before any of its points
is cast (Deconinck et al., section 5; Agostini and Chua, 2021).  The
points of the lines left take the same BLAS products as the whole box
would, so the same points are kept with the same exponents, in the same
order.  On a single evaluation's smaller boxes dropping lines costs more
than it saves (see _LINE_CUT).
With K points kept, the error bound is T + (N - K) exp(-pi C) <= tol.
Summation order is fixed, lexicographic, the order np.indices lists the
box in (a table groups the kept points by parity class, lexicographic
inside a class), and the sums over the kept points are numpy reductions,
never a BLAS dot, so repeated evaluations are bit-reproducible whatever
the BLAS thread count.

Accuracy contract: double precision throughout; tolerances below 1e-13
are rejected, and callers should keep Im tau >= 0.3 I (the truncation
radius guard trips otherwise).  PeriodMatrix alone admits Im tau: its
eigenvalues at most _IM_CAP (about 4.19e298), so that no product below it
overflows, and a smallest eigenvalue certified above 0 (see _IM_CAP); the
kernel then needs no overflow guard of its own.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import imul

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
# A single evaluation on a box of more than this many points drops the lines
# of the box that cannot hold a kept point before it casts any (see _rows); a
# table always does (_table_rows).  The line cut's fixed cost loses to casting
# the whole box on small boxes: medians of _rows over six tau, one BLAS
# thread, 16 interleaved rounds, whole box against line cut, 10 vs 25 us at
# g = 1, N = 81; 19 vs 35 us at g = 2, N = 1,089; 24 vs 38 us at g = 3,
# N = 1,331; 57 vs 65 us at g = 3, N = 4,913; 36 vs 42 us at g = 4,
# N = 2,401; 50 vs 46 us at g = 5, N = 3,125; 90 vs 56 us at g = 4,
# N = 6,561; 442 vs 91 us at g = 4, N = 14,641.  The benchmark's
# theta-points workload evaluates on both sides: g <= 3 boxes of at most
# 1,331 points, g = 4 boxes of at least 6,561.
_LINE_CUT = 5_000
_U = 2.0**-53  # unit roundoff of a double
# The domain of Im tau is decided once, in PeriodMatrix, by two rules.
# (a) lambda_max(Y) <= _IM_CAP, Y = Im tau, so that no product the kernel
# forms reaches the largest double.  Y is positive definite, so with
# M = lambda_max, |Y_jk| <= sqrt(Y_jj Y_kk) <= M and sum_jk |Y_jk| <= g^2 M.
# The kernel reads Y only on box rows, |m_k| <= R <= _MAX_RADIUS (64), at
# g <= 13 (a radius-1 box of 3^g points fits _MAX_LATTICE only there), and
# only at a z whose box exists: the first excluded shell's term is then
# below 1, so |Im z| < lambda_min (R + 1/2) / 2 <= R Y_kk for every k.
# Every partial sum the kernel forms from Y is then below 24 g^2 R^2 M,
# but two:
# - (Ym)_k, m'Ym and _lower_bound are below 2 g^2 R^2 M;
# - a single evaluation's exponent, with b = Y eps + 2 Im z and
#   c0 = eps'Y eps / 4 + eps.Im z, is below 7 g^2 R^2 M before its
#   factor pi, and a table's magnitude exponent below
#   pi (g^2 R + g^2 R^2 + g^2/4) M;
# - the line cut's Schur entries and size terms (_line_cut, on Y for a
#   table and on the augmented [[c0, b'/2], [b/2, Y]] for a single
#   evaluation) are at most (3g/2 + R)^2 M <= 16 g^2 R^2 M, each a
#   product bounded by Cauchy-Schwarz in Y, such as y_j y_k / Y_gg <= M or
#   (b_g/2)^2 / Y_gg <= (g + 2R)^2 M / 4, formed as c_j (c_k / A_tt) and
#   w (w A_tt), never as a squared entry such as b_g^2 or w^2, and a
#   line's value is below 24 g^2 R^2 M;
# - the two, the slack's (R + 1)^2 size + C and the table's rounding
#   factor rel, are below 2^27 (M + 1): (R + 1)^2 size is at most
#   4 R^2 (R^2 + 6gR + 5.5 g^2) M, largest at g = 3, R = 64, and rel is
#   below pi (3g + 4)(R + 1)^2 (g^2 + g^2 M).
# With 24 g^2 R^2 < 2^24, at M <= max / 2^32 each is below max / 16, room
# for the roundings of its sum, so no exponent, row dot, slack or bound is
# inf and numpy never warns of an overflow.  eigvalsh returns inf for
# entries near the largest double (1e308 J at g = 2), which the cap's
# comparison refuses.
# (b) eigvalsh reads lambda_min(Y) to about 4 g u lambda_max, and it is
# trusted only above that.  Below it, Y is certified on Yhat = D^-1 Y D^-1,
# D = diag(Y)^(1/2): m'Ym >= lambda_min(Yhat) min_k Y_kk |m|^2, and for a
# positive definite Y the entries of Yhat are at most 1 and its lambda_max
# at most g, so lambda_min(Yhat), formed and read to about 4 g^2 u, is
# trusted above that.  A graded Y, D (I/2 + J/2) D with D up to 1e18, is
# admitted so; a rank-one 1e50 J, whose lambda_min eigvalsh reads as
# 2.2e18, is refused.
_IM_CAP = sys.float_info.max / 2**32
_LOG_MAX = math.log(sys.float_info.max)
# _lines stores a box coordinate, at most _MAX_RADIUS in size, as int8.
if _MAX_RADIUS > np.iinfo(np.int8).max:
    raise InvariantError("the box radius cap outgrows the int8 points of _lines")


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

    Symmetry must hold exactly as stored.  Im tau is admitted by the two
    rules of _IM_CAP, read off its eigvalsh spectrum: lambda_max at most
    _IM_CAP, and lambda_min above eigvalsh's own error bound, or else
    certified on the diagonally scaled Im tau; im_lambda_min is the
    smallest eigenvalue so read, or that certified bound.  Two period
    matrices are equal, and hash alike, when their entries are equal byte
    for byte, so caches can key on the matrix itself.
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
        y = np.ascontiguousarray(tau.imag)
        spectrum = np.linalg.eigvalsh(y).tolist()
        lam, top = spectrum[0], spectrum[-1]
        if not top <= _IM_CAP:  # inf and NaN included (see _IM_CAP)
            raise ValueError(f"the eigenvalues of Im tau must be at most {_IM_CAP:.4e}, got {top:.4e}")
        if not lam > 4 * len(y) * _U * top:  # below eigvalsh's own error: rule (b) of _IM_CAP
            lam = _scaled_lambda_min(y)
        if not lam > 0.0:
            raise ValueError("Im tau must be positive definite: no positive lambda_min is certified")
        tau.setflags(write=False)
        self.tau = tau
        self.g = tau.shape[0]
        self.im_lambda_min = lam
        self._key = tau.tobytes()
        # The sums run on tau - 2S, S = round(Re tau / 2) integral symmetric,
        # so |Re| <= 1 there (see _turns); _shift is S mod 4, None for S = 0,
        # which is the case exactly when every |Re tau_jk| <= 1.  Both paths
        # are served: the theta-points workload's tau are all unshifted, and
        # xi-g4 has shifted tau.
        x = np.ascontiguousarray(tau.real)
        self._y = y
        if max(map(abs, x.ravel().tolist())) <= 1.0:
            self._x, self._shift, reduced = x, None, tau
        else:
            s = np.round(x / 2.0)
            self._x = x - 2.0 * s
            self._shift = np.mod(s, 4.0)
            reduced = self._x + 1j * self._y
        # the rows of tau - 2S as Python complex numbers, for the g-sized
        # algebra of a single evaluation (see _theta_sum)
        self._reduced_rows = reduced.tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodMatrix) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"PeriodMatrix(g={self.g})"


def _scaled_lambda_min(y: np.ndarray) -> float:
    """lambda_min(Yhat) min_k Y_kk, Yhat = D^-1 Y D^-1 with D = diag(Y)^(1/2), or 0.

    Rule (b) of _IM_CAP, for a Y whose lambda_min eigvalsh cannot read: 0
    unless lambda_min(Yhat) is above its error 4 g^2 u.  A Y with a
    diagonal entry <= 0 or some |Y_jk| > 2 sqrt(Y_jj Y_kk) is not positive
    definite, and gives 0 before Yhat, which could overflow, is formed.
    """
    diag = y.diagonal()
    d = np.sqrt(np.abs(diag))
    if not (diag.min() > 0.0 and (np.abs(y) <= 2.0 * np.outer(d, d)).all()):
        return 0.0
    lam = np.linalg.eigvalsh(y / d[:, None] / d)[0]
    return float(lam * diag.min()) if lam > 4 * len(y) ** 2 * _U else 0.0


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
    over until that shell comes first.  The radius found is checked to be
    the least: R - 1 must fail, by its first excluded shell or by its
    tail, or the search raises InvariantError.
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
        if not tail <= abs_tol:
            continue
        if radius > 1 and not (
            _shell_term(lam, g, z_im_norm, radius) > abs_tol
            or _tail_bound(lam, g, z_im_norm, radius - 1) > abs_tol
        ):
            raise InvariantError(f"truncation radius {radius - 1} already reaches tol {abs_tol}")
        if tail == abs_tol:
            return radius, tail, math.inf
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


@lru_cache(maxsize=None)
def _blocks(g: int) -> np.ndarray:
    """Every g-bit block as a 0/1 row: row b is block b, coordinate k bit g-1-k."""
    arr = ((np.arange(1 << g)[:, None] >> np.arange(g - 1, -1, -1)) & 1).astype(float)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _positions(g: int) -> tuple[tuple[int, ...], ...]:
    """For every g-bit block b, the coordinates k whose bit g-1-k is set in b."""
    return tuple(tuple(k for k in range(g) if b >> (g - 1 - k) & 1) for b in range(1 << g))


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
    return am, (am * m) @ _blocks(a.shape[0])[-1]  # the all-ones block: a row sum


def _exponents(m: np.ndarray, y: np.ndarray, b: np.ndarray, c0: float) -> np.ndarray:
    """m'Ym + b.m + c0 for the rows m: the imaginary exponent of a single evaluation."""
    return _quadratic(m, y)[1] + m @ b + c0


@lru_cache(maxsize=32)
def _lines(g: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The box as lines along the last coordinate, in g bytes a point.

    Returns the heads p = (m_1..m_(g-1)) of the (2R + 1)^(g-1) lines, in
    lex order, as floats, and a (lines, 2R + 1, g) int8 array whose row p
    holds the points (p, -R)..(p, R): read row by row, the box in lex
    order.  No float copy of the box is kept (8g bytes a point): _rows and
    _table_rows cast the points of the lines they read.
    """
    side = 2 * radius + 1
    # 0..2R fits int16 and -R..R int8 (see _MAX_RADIUS)
    coords = np.indices((side,) * g, dtype=np.int16).reshape(g, -1)
    coords -= radius
    points = np.ascontiguousarray(coords.T, dtype=np.int8).reshape(-1, side, g)
    heads = points[:, 0, :-1].astype(float)
    heads.setflags(write=False)
    points.setflags(write=False)
    return heads, points


def _line_cut(g: int, radius: int, a: list, line_value, cutoff: float) -> np.ndarray:
    """The int8 points of the _lines rows whose line value is below C plus a rounding slack.

    a is a symmetric matrix A as nested lists, whose last coordinate t runs
    along a line and whose others are the line's head p (and, for a single
    evaluation, a constant 1 first).  Along the line, the quadratic form of
    A is A_tt (t + c.p/A_tt)^2 + p'Sp, with c the last column of A above
    A_tt and S = A_pp - c c'/A_tt its Schur complement, so p'Sp is its
    minimum over real t; line_value(heads, S) bounds from below, line by
    line, the value that decides a row.  The set-up is g-sized, and Python
    scalars do it faster than numpy calls; only S, which BLAS reads, is an
    array.

    Rounding, to first order: a row's value and a line's value are sums of
    terms each at most (R + 1)^2 times an entry of |A| or of |c||c|'/A_tt,
    so at most (R + 1)^2 size in size, size the sum of those entries.  A
    row's value takes at most 2g + 2 roundings.  A line's takes at most
    2g + 3, the 3 of its S entries included; a table's line g^2 + 1 more,
    in c_max and in the difference, each of those at most
    u sum_jk |Y_jk| / 4 <= u (R + 1)^2 size / 16 (R >= 1).  C + slack
    takes one more, of at most u (C + slack).  So a row computed below C
    lies on a line computed below C + (g^2 + 4g + 7) u ((R + 1)^2 size + C),
    and the slack is twice that.  The Schur term of size, w (w A_tt), is
    not shown needed by any input found: placing a line's minimum on a box
    row of a near-singular A (2,000 single evaluations at g = 4, and 300
    tables whose S is near-singular along the all-ones p), no computed line
    value exceeded its row's by more than 0.025 of the slack without it.
    It stays, as the bound; scripts/mutants.py marks dropping it
    (line-slack-size) equivalent.
    """
    heads, points = _lines(g, radius)
    att = a[-1][-1]
    col = [row[-1] for row in a[:-1]]
    q = [v / att for v in col]
    s = np.array([[v - cj * qk for v, qk in zip(row[:-1], q)] for row, cj in zip(a[:-1], col)])
    w = sum(map(abs, col)) / att
    size = sum(abs(v) for row in a for v in row) + w * (w * att)
    slack = 2.0 * (g * g + 4 * g + 7) * _U * ((radius + 1) ** 2 * size + cutoff)
    return np.take(points, _kept(line_value(heads, s), cutoff + slack), axis=0)


def _rows(g: int, radius: int, y: np.ndarray, b, c0: float, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """The box rows with m'Ym + b.m + c0 < C, in lex order, and their exponents.

    On a box of more than _LINE_CUT points only the lines that can hold
    such a row are read (_line_cut).  The exponent is the quadratic form of
    the augmented matrix [[c0, b'/2], [b/2, Y]] on (1, m), whose last
    coordinate is t = m_g; with m = (p, t), its Schur complement S is a
    matrix over (1, p), and the line value p'S_pp p + 2 S_1p.p + S_11 is
    the exponent's minimum over real t.  Each row read takes the same BLAS
    products either way, so the same rows are kept with the same exponents,
    and the lines left are a subsequence of the box, so the rows stay in
    lex order.
    """
    b = np.asarray(b, dtype=float)
    if (2 * radius + 1) ** g > _LINE_CUT:  # both sides are served (see _LINE_CUT)
        half = [v / 2.0 for v in b.tolist()]
        a = [[c0, *half], *([h, *row] for h, row in zip(half, y.tolist()))]  # on (1, m)
        points = _line_cut(g, radius, a, lambda p, s: _exponents(p, s[1:, 1:], 2.0 * s[0, 1:], s[0, 0]), cutoff)
    else:
        points = _lines(g, radius)[1]
    m = points.reshape(-1, g).astype(float)
    im = _exponents(m, y, b, c0)
    keep = _kept(im, cutoff)
    return np.take(m, keep, axis=0), im[keep]


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
    kept point (_rows), the real part over the kept points only.  The
    g-sized algebra, the shift z + delta/2, the linear coefficient
    tau eps + 2z and the constant, is done in Python complex scalars on
    the rows of tau - 2S; only the real and imaginary parts of the linear
    coefficient become arrays, for BLAS.  The sum runs on Re tau reduced
    mod 2 (_turns, read only when the reduction shifted tau) and, when
    some |Re z_k| > 1/2, on z - n, n = round(Re z), by
    theta[eps; delta](tau, z + n) = (-1)^(eps.n) theta[eps; delta](tau, z).
    The kept weights are summed as two real reductions, the magnitudes
    exp(-pi im) times cos and times sin of pi re, so no complex array of
    the kept points is made.
    """
    g = tau.g
    at_eps = _positions(g)[c.eps]  # the k with eps_k = 1
    turns = float(_turns(tau, _blocks(g)[c.eps]))
    n = [round(w.real) for w in z]  # exact, and so is each w - k below
    z = [w - k for w, k in zip(z, n)]
    turns += sum(map(n.__getitem__, at_eps)) % 2
    for k in _positions(g)[c.delta]:
        z[k] += 0.5
    te = [sum(map(row.__getitem__, at_eps)) for row in tau._reduced_rows]  # (tau - 2S) eps
    lin = [t + 2.0 * w for t, w in zip(te, z)]
    const = sum(map(te.__getitem__, at_eps)) / 4.0 + sum(map(z.__getitem__, at_eps))
    m, im = _rows(g, radius, tau._y, [w.imag for w in lin], const.imag, cutoff)
    re = m @ np.array([w.real for w in lin])
    re += _quadratic(m, tau._x)[1]
    re += const.real + turns
    re *= np.pi
    im *= -np.pi  # the log magnitudes
    # Each kept exponent s'Ys + 2 s.Im z is at least -|Im z|^2 / lambda_min,
    # so log sum |w| <= pi |Im z|^2 / lambda_min + log N.  Only past half the
    # exponent range of a double, the other half left to that bound's
    # rounding, is log sum |w| itself taken, and a sum that could pass the
    # largest double (less 1e-6 for the rounding of the sum) is refused
    # before its exp overflows.
    zn = math.hypot(*(w.imag for w in z))  # |Im z|
    if math.pi * (zn / tau.im_lambda_min) * zn + g * math.log(2 * radius + 1) > _LOG_MAX / 2 and len(im):
        top = im.max()
        if top + math.log(np.exp(im - top).sum()) > _LOG_MAX - 1e-6:
            raise ValueError("theta exceeds the largest double: |Im z| is too large for this Im tau")
    mag = np.exp(im, out=im)
    return complex((mag * np.cos(re)).sum(), (mag * np.sin(re)).sum()), len(m)


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
    return _table(tau, Tolerance.coerce(tol))[0]


def _lower_bound(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """m'Ym + sum_k min(0, (Ym)_k) for the rows m, by real BLAS."""
    ym = m @ y
    low = ym * m
    low += np.minimum(ym, 0.0, out=ym)
    return low @ _blocks(m.shape[1])[-1]  # the all-ones block: a row sum


def _table_rows(tau: PeriodMatrix, radius: int, cutoff: float) -> tuple[np.ndarray, ...]:
    """The box rows a table sums: every m with m'Ym + sum_k min(0, (Ym)_k) < C.

    With s = m + eps/2, s'Ys = m'Ym + Ym.eps + eps'Y eps/4, where
    Ym.eps >= sum_k min(0, (Ym)_k) for a 0/1 eps and eps'Y eps >= 0: the
    left side bounds s'Ys from below for every eps at once, so a row left
    out has s'Ys >= C for every eps.  Every parity class keeps a row: for
    the 0/1 vector r, m = -r has Ym = -Yr and left side at most
    r'Yr - sum_(k in r) (Yr)_k = 0 < C.

    The rows are read from the line index _lines, the one index of the box
    that single evaluations read too, and on every box only the lines that
    can hold a kept row are read (_line_cut, on A = Y).  The left side
    is min over eps of (s'Ys - eps'Y eps/4), and along the line m = (p, t)
    s'Ys is at least its minimum over real t, q'Sq with q = p + eps_p/2 and
    S the Schur complement of Y_gg; q'Sq >= p'Sp + Sp.eps_p since S is
    positive definite.  With c_max = sum_jk max(0, Y_jk)/4, which is at
    least eps'Y eps/4 for every 0/1 eps, every row of the line has left
    side at least p'Sp + sum_k min(0, (Sp)_k) - c_max, the line's value.
    The left side, computed as a pass over the whole box computes it, then
    decides on the rows of the lines left, so the rows kept are exactly
    those of that pass.  A stable sort by class, m mod 2 packed like a
    characteristic block (coordinate k at bit g-1-k, uint16, for which
    numpy's stable argsort is a radix sort), groups them.  Returns the kept
    rows' classes and the rows as floats, grouped by parity class, lex
    order inside a class.
    """
    g, y = tau.g, tau._y
    ys = y.tolist()
    c_max = sum(max(v, 0.0) for row in ys for v in row) / 4.0
    points = _line_cut(g, radius, ys, lambda heads, s: _lower_bound(heads, s) - c_max, cutoff)
    m = points.reshape(-1, g).astype(float)
    keep = _kept(_lower_bound(m, y), cutoff)
    bits = (np.take(points.reshape(-1, g), keep, axis=0) & 1).astype(float)  # a float product is BLAS
    classes = (bits @ 2.0 ** np.arange(g - 1, -1, -1)).astype(np.uint16)
    order = np.argsort(classes, kind="stable")
    return classes[order], np.take(m, keep[order], axis=0)


def _phase_columns(x: np.ndarray, m: np.ndarray, radius: int) -> np.ndarray:
    """cis(pi (Xm)_k) for the integer rows m, as a (g, K) array, by lookup.

    cis(pi (Xm)_k) = prod_j cis(pi X_jk m_j), and m_j is one of the 2R + 1
    integers -R..R: the factors are one g x g x (2R + 1) table of complex
    exps.  One outer product pairs them, coordinates 2i and 2i + 1, into
    g x (2R + 1)^2 tables keyed by (m_2i + R)(2R + 1) + m_(2i+1) + R, so a
    column takes ceil(g/2) gathers and products instead of an exp per row;
    for odd g the last coordinate is gathered from its own factors.
    """
    g, side = len(x), 2 * radius + 1
    factors = _cis(x[:, :, None] * np.arange(-radius, radius + 1.0))
    index = (m.T + radius).astype(np.intp, order="C")
    # The last coordinate of an odd g is gathered alone, the only path at odd
    # g, which no benchmark workload has; the xi-g4 tables pair all four.
    h = g - g % 2
    pairs = factors[0:h:2, :, :, None] * factors[1:h:2, :, None, :]
    tables = [*pairs.reshape(h // 2, g, side * side), *factors[h:]]
    keys = [*(index[0:h:2] * side + index[1:h:2]), *index[h:]]
    return reduce(imul, (np.take(t, k, axis=1) for t, k in zip(tables, keys)))  # in place


def _check_odd(table: np.ndarray, odd: np.ndarray, charge: float, bound: np.ndarray) -> None:
    """Every odd entry must vanish to twice the truncation charge plus rounding.

    theta[eps; delta](tau, 0) = 0 for odd eps.delta, so a computed odd entry
    is what truncation and rounding left: at most the charge
    T + (N - K) exp(-pi C) per side of the symmetry m -> -m - eps, plus
    the rounding bound of a table.  bound[eps] is the error bound of an
    entry, that charge plus rounding (see _table).
    """
    slack = charge + bound
    bad = odd & ~(np.abs(table) <= slack[:, None])
    if bad.any():
        eps, delta = (int(v) for v in np.argwhere(bad)[0])
        raise InvariantError(
            f"odd theta[{eps};{delta}] = {abs(table[eps, delta]):.3e} exceeds its "
            f"bound {slack[eps]:.3e}"
        )


@lru_cache(maxsize=16)
def _table(tau: PeriodMatrix, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """theta_constant_table and the error bound of its entries, per eps.

    Each entry is summed from the weights of the kept rows and is within
    bound[eps] of its theta constant: the charge T + (N - K) exp(-pi C)
    plus the first-order rounding bound below.

    The weights come from the split at z = 0.  The magnitude of w_eps is
    exp(-pi (m'Ym + Ym.eps + eps'Y eps/4)) = exp(-pi s'Ys) <= 1, and the
    phase is

        cis(pi m'Xm) prod_{k in eps} cis(pi Xm[:, k]) cis(pi eps'X eps/4),

    with the columns cis(pi Xm[:, k]) read by lookup (_phase_columns), so
    a kept row takes one complex exp, for cis(pi m'Xm), not one per eps.
    The eps run in blocks of b = 2^low weight rows, low = min(g, 4): the
    phases of a block by doubling over the last low coordinates (row
    eps + 2^j is row eps times column g-1-j), the magnitudes by one BLAS
    product of [Ym | m'Ym | 1] against -pi [eps | 1 | eps'Y eps/4] and one
    real exp of the block, and the class sums by one reduction over the
    rows grouped by class.  The constant factor multiplies the 2^g class
    sums.  After the cut, two (b, K) buffers serve every block.
    """
    g = tau.g
    n = 1 << g
    z = (0j,) * g
    radius = truncation_radius(tau, z, tol)
    _, tail, cutoff = _numerics(tau, z, tol)
    classes, m = _table_rows(tau, radius, cutoff)
    x, y = tau._x, tau._y
    blocks = _blocks(g)
    # the magnitude exponents -pi (Ym.eps + m'Ym + eps'Y eps/4) of a block
    # are one product of these rows and coefficients
    rows = np.ones((len(m), g + 2))
    rows[:, :g], rows[:, g] = _quadratic(m, y)
    coef = np.ones((n, g + 2))
    coef[:, :g], coef[:, g + 1] = blocks, _quadratic(blocks, y)[1] / 4.0
    coef *= -np.pi
    base = _cis(_quadratic(m, x)[1])
    columns = _phase_columns(x, m, radius)
    starts = np.searchsorted(classes, np.arange(n))  # no class is empty (see _table_rows)
    # One block at g <= 4, every xi-g4 table among them; several only at g >= 5.
    b = min(n, _BLOCK)
    low = b.bit_length() - 1
    w = np.empty((b, len(m)), dtype=complex)
    mag = np.empty((b, len(m)))
    sums = np.empty((n, n), dtype=complex)
    mass = np.empty(n)
    for h in range(0, n, b):
        w[0] = base
        for k in np.flatnonzero(blocks[h, : g - low]):
            w[0] *= columns[k]
        for j in range(low):
            np.multiply(w[: 1 << j], columns[g - 1 - j], out=w[1 << j : 2 << j])
        np.matmul(coef[h : h + b], rows.T, out=mag)
        np.exp(mag, out=mag)
        mass[h : h + b] = mag.sum(axis=1)
        w *= mag
        sums[h : h + b] = np.add.reduceat(w, starts, axis=1)
    sums *= _cis(_quadratic(blocks, x)[1] / 4.0 + _turns(tau, blocks))[:, None]
    signs, phases = _signs_and_phases(g)
    table = (sums @ signs) * phases
    # Rounding to first order, in units of u times the mass sum_m |w_eps(m)|
    # of an entry's eps: an exponent (real or imaginary part) is at most
    # (R + 1)^2 sum_jk |tau_jk| in size and takes at most 3g + 4 roundings,
    # which its exp or cis scales by pi; a weight adds 5g^2 + 16 from its
    # exps and complex products; the class sums and the transform add
    # K + 2^g.
    norm = np.abs(x).sum() + np.abs(y).sum()
    rel = len(m) + n + 5 * g * g + 16 + math.pi * (3 * g + 4) * (radius + 1) ** 2 * norm
    charge = _charge(tail, g, radius, len(m), cutoff)
    bound = charge + _U * rel * mass
    _check_odd(table, signs < 0, charge, bound)  # (-1)^(eps.delta) = -1: odd
    table.setflags(write=False)
    bound.setflags(write=False)
    return table, bound


def block_diag(tau1: PeriodMatrix, tau2: PeriodMatrix) -> PeriodMatrix:
    """diag(tau1, tau2) on the Siegel space of genus g1 + g2."""
    g1, g2 = tau1.g, tau2.g
    out = np.zeros((g1 + g2, g1 + g2), dtype=complex)
    out[:g1, :g1] = tau1.tau
    out[g1:, g1:] = tau2.tau
    return PeriodMatrix(out)
