"""Seeded inputs, operations and exact-identity checks for the three workloads.

Inputs come from the benchmark's own generators, as plain numbers and
arrays; thetachar only ever receives those values.  Every call into the
package goes through the package namespace (``tc.name`` looked up at call
time), so the wrappers that ``spans.py`` installs see each call.

A workload is played in *decks*: a deck is a fixed list of cases whose
make-up (genera, radius bands, identity kinds) is the same for every seed,
while the values inside it are drawn from the seed.  Runs measure whole
decks only, so every run does the same mix of work.  A case is one
operation (a census round) or a pair of operations tied by an identity.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

TOL = 1e-12  # the CLI's default tolerance
XI_GATE = 1e-6  # criterion 8's relative gate at g = 4


def _rng(seed: int, workload: str, deck: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{deck}")


def siegel_point(rng: random.Random, g: int, lam_min: float, lam_max: float, re_half: float):
    """tau = X + iY, exactly symmetric, with Y = Q diag(l) Q^T.

    The smallest eigenvalue of Y is ``lam_min`` and the others lie in
    [lam_min, lam_max]; X has entries uniform in [-re_half, re_half].
    """
    gauss = np.array([[rng.gauss(0.0, 1.0) for _ in range(g)] for _ in range(g)])
    q, _ = np.linalg.qr(gauss)
    spectrum = [lam_min] + [rng.uniform(lam_min, lam_max) for _ in range(g - 1)]
    y = q @ np.diag(spectrum) @ q.T
    y = (y + y.T) / 2
    x = np.zeros((g, g))
    for a in range(g):
        for b in range(a, g):
            x[a, b] = x[b, a] = rng.uniform(-re_half, re_half)
    return x + 1j * y


def _lam_min(tau) -> float:
    return float(np.linalg.eigvalsh(tau.imag)[0])


# ---------------------------------------------------------------- xi-g4

# Every tau on both sides of a pair keeps lambda_min(Im tau) in this band,
# which is >= 0.5 (criterion 8) and sits inside one truncation-radius
# plateau of the seed (radius 5, an 11^4 box), so all operations do the
# same amount of theta work.
XI_LAM_BAND = (0.505, 0.57)


@dataclass(frozen=True)
class XiPair:
    """Xi(image) must equal factor * Xi(tau)."""

    kind: str
    tau: np.ndarray
    image: np.ndarray
    factor: complex


def _xi_shift_pair(rng: random.Random, g: int = 4) -> XiPair:
    """tau -> tau + B, B integral symmetric with even diagonal: Xi is invariant."""
    tau = siegel_point(rng, g, rng.uniform(0.51, 0.565), 1.8, 0.45)
    b = np.zeros((g, g))
    for a in range(g):
        b[a, a] = rng.choice((-2, 0, 2))
        for c in range(a + 1, g):
            b[a, c] = b[c, a] = rng.choice((-1, 1))
    return XiPair("shift", tau, tau + b, 1 + 0j)


def _xi_invert_pair(rng: random.Random, g: int = 4) -> XiPair:
    """tau -> -tau^-1: Xi has weight 8, so the factor is det(tau)^8.

    Y's spectrum spans roughly [0.51, 1/0.51], so Im(-tau^-1) stays in the
    band too; draws that leave it are redrawn.
    """
    lo, hi = XI_LAM_BAND
    while True:
        tau = siegel_point(rng, g, rng.uniform(0.51, 0.565), 1.0 / rng.uniform(0.51, 0.56), 0.08)
        inv = -np.linalg.inv(tau)
        image = (inv + inv.T) / 2
        if lo <= _lam_min(tau) <= hi and lo <= _lam_min(image) <= hi:
            return XiPair("invert", tau, image, complex(np.linalg.det(tau) ** 8))


def xi_deck(seed: int, deck: int) -> list[XiPair]:
    rng = _rng(seed, "xi-g4", deck)
    return [_xi_shift_pair(rng), _xi_invert_pair(rng)]


def xi_report(tc, entries, g: int):
    """What ``thetachar amplitude --genus g`` computes: Xi and every P_i."""
    tau = tc.PeriodMatrix(entries)
    xi = tc.xi_g(tau, g, TOL)
    return xi, [tc.P_i_g(tau, g, i, TOL) for i in range(g + 1)]


def xi_report_ok(xi: complex, per_i: list, g: int) -> bool:
    """Xi must be the alternating combination of the reported P_i."""
    weights = [(-1) ** i * 2 ** (i * (i - 1) // 2) for i in range(g + 1)]
    combo = sum(w * p for w, p in zip(weights, per_i)) / 2**g
    scale = sum(abs(w * p) for w, p in zip(weights, per_i)) / 2**g
    finite = all(np.isfinite(v) for v in [xi, *per_i])
    return bool(finite and abs(xi - combo) <= 1e-12 * scale)


def xi_relative_defect(xi_tau: complex, xi_image: complex, factor: complex) -> float:
    want = factor * xi_tau
    return abs(xi_image - want) / max(abs(xi_image), abs(want))


def run_xi(tc, pair: XiPair, g: int = 4):
    """Two timed operations; the pair passes if both reports are consistent
    and Xi(image) matches factor * Xi(tau) within the 1e-6 gate."""
    t0 = time.perf_counter()
    xi_a, per_a = xi_report(tc, pair.tau, g)
    t1 = time.perf_counter()
    xi_b, per_b = xi_report(tc, pair.image, g)
    t2 = time.perf_counter()
    ok = (
        xi_report_ok(xi_a, per_a, g)
        and xi_report_ok(xi_b, per_b, g)
        and xi_relative_defect(xi_a, xi_b, pair.factor) <= XI_GATE
    )
    return [t1 - t0, t2 - t1], ok


def odd_shift_pair(seed: int, g: int) -> XiPair:
    """tau -> tau + E_11 is *not* a symmetry of Xi; the check must flag it."""
    tau = siegel_point(_rng(seed, "odd-shift", g), g, 0.55, 1.5, 0.45)
    e11 = np.zeros((g, g))
    e11[0, 0] = 1.0
    return XiPair("odd-shift", tau, tau + e11, 1 + 0j)


def odd_shift_flagged(tc, seed: int, genera=(2, 3)) -> bool:
    """Self-test: the xi-g4 identity check fails on a deliberately wrong pair."""
    return all(not run_xi(tc, odd_shift_pair(seed, g), g)[1] for g in genera)


# --------------------------------------------------------- theta-points

# (genus, lambda_min band, |Im z| band, pairs per deck).  Inside each
# g >= 3 stratum the seed's truncation radius is constant (noted at the
# end of each row), so a stratum's cost is a plateau.  By operation count
# the deck is 16% g=1, 21% g=2, 37% g=3 and 26% g=4; sorted by latency the
# median lands among the g=3 radius-4 operations and the 90th percentile
# among the g=4 radius-6 ones, each a few ranks away from any band edge.
THETA_STRATA = (
    (1, (0.30, 2.00), (0.0, 0.20), 3),
    (2, (0.30, 2.00), (0.0, 0.20), 4),
    (3, (1.20, 1.60), (0.0, 0.10), 1),  # radius 3, 7^3 points
    (3, (0.62, 0.84), (0.0, 0.02), 4),  # radius 4, 9^3
    (3, (0.45, 0.52), (0.0, 0.03), 2),  # radius 5, 11^3
    (4, (0.86, 0.92), (0.0, 0.05), 1),  # radius 4, 9^4
    (4, (0.46, 0.55), (0.0, 0.05), 1),  # radius 5, 11^4
    (4, (0.32, 0.38), (0.0, 0.05), 2),  # radius 6, 13^4
    (4, (0.30, 0.32), (0.19, 0.20), 1),  # radius 8, 17^4
)


@dataclass(frozen=True)
class ThetaPair:
    """theta[c](tau, z2) must equal sign * theta[c](tau, z)."""

    kind: str
    g: int
    tau: np.ndarray
    z: tuple
    z2: tuple
    eps: int
    delta: int
    sign: int


def _theta_pair(rng: random.Random, g: int, lam_band, zim_band, kind: str) -> ThetaPair:
    tau = siegel_point(rng, g, rng.uniform(*lam_band), 2.0, 0.5)
    direction = np.array([rng.gauss(0.0, 1.0) for _ in range(g)])
    im = direction / np.linalg.norm(direction) * rng.uniform(*zim_band)
    z = tuple(complex(rng.uniform(-0.5, 0.5), float(w)) for w in im)
    eps, delta = rng.randrange(1 << g), rng.randrange(1 << g)
    if kind == "parity":
        # theta[c](tau, -z) = (-1)^(eps.delta) theta[c](tau, z)
        sign = -1 if bin(eps & delta).count("1") & 1 else 1
        z2 = tuple(-w for w in z)
    else:
        # theta[c](tau, z + e_j) = (-1)^(eps_j) theta[c](tau, z); bit g-1-j holds eps_j
        j = rng.randrange(g)
        sign = -1 if (eps >> (g - 1 - j)) & 1 else 1
        z2 = tuple(w + 1 if k == j else w for k, w in enumerate(z))
    return ThetaPair(kind, g, tau, z, z2, eps, delta, sign)


def theta_deck(seed: int, deck: int) -> list[ThetaPair]:
    rng = _rng(seed, "theta-points", deck)
    cases = []
    for g, lam_band, zim_band, pairs in THETA_STRATA:
        for k in range(pairs):
            kind = "parity" if k % 2 == 0 else "shift"
            cases.append(_theta_pair(rng, g, lam_band, zim_band, kind))
    return cases


def theta_op(tc, pair: ThetaPair, z) -> dict:
    """What ``thetachar theta`` computes for one (tau, z, c)."""
    tau = tc.PeriodMatrix(pair.tau)
    return tc.theta_report(tau, z, tc.Characteristic(pair.g, pair.eps, pair.delta), TOL)


def theta_pair_ok(pair: ThetaPair, a: dict, b: dict) -> bool:
    """Agreement within both reported error bounds plus rounding.

    Rounding is allowed 1e-14 per lattice point: each term is at most ~1.5
    in modulus here, and its phase carries a few ulps of relative error.
    """
    va, vb = complex(a["re"], a["im"]), complex(b["re"], b["im"])
    points = (2 * max(a["radius"], b["radius"]) + 1) ** pair.g
    bound = a["est_error"] + b["est_error"] + 1e-14 * points
    finite = np.isfinite(va) and np.isfinite(vb)
    return bool(finite and abs(vb - pair.sign * va) <= bound)


def run_theta(tc, pair: ThetaPair):
    t0 = time.perf_counter()
    a = theta_op(tc, pair, pair.z)
    t1 = time.perf_counter()
    b = theta_op(tc, pair, pair.z2)
    t2 = time.perf_counter()
    return [t1 - t0, t2 - t1], theta_pair_ok(pair, a, b)


# --------------------------------------------------------- exact-census

SLOPE_GENUS_MAX = 30
SP_PRODUCTS_PER_GENUS = 3
GRAPHS_PER_ROUND = 12


@dataclass(frozen=True)
class CensusRound:
    sp_seed: int
    graphs: tuple  # (vertex genera, edges as (u, v) index pairs, total genus)


def random_graph(rng: random.Random):
    """A connected dual graph with total genus 1..6: a spanning tree plus
    up to three extra edges (self-loops allowed)."""
    while True:
        nv = rng.randint(1, 5)
        genera = tuple(rng.randint(0, 2) for _ in range(nv))
        edges = [(rng.randrange(k), k) for k in range(1, nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 3))]
        g = sum(genera) + len(edges) - nv + 1
        if 1 <= g <= 6:
            return genera, tuple(edges), g


def census_deck(seed: int, deck: int) -> list[CensusRound]:
    rng = _rng(seed, "exact-census", deck)
    graphs = tuple(random_graph(rng) for _ in range(GRAPHS_PER_ROUND))
    return [CensusRound(rng.getrandbits(64), graphs)]


def tetrad_count(g: int) -> int:
    """Syzygetic tetrads are the cosets of isotropic planes in F2^2g."""
    planes = (4**g - 1) * (2 ** (2 * g - 1) - 2) // 6
    return planes * 4 ** (g - 1)


def krazer_count(g: int) -> int:
    """2^2g |Sp(2g, F2)| / (2g+2)!"""
    sp = 2 ** (g * g)
    for i in range(1, g + 1):
        sp *= 4**i - 1
    fact = 1
    for k in range(2, 2 * g + 3):
        fact *= k
    return 4**g * sp // fact


def gopel_count(g: int) -> int:
    """2^g prod_{i=1..g} (2^i + 1)"""
    n = 2**g
    for i in range(1, g + 1):
        n *= 2**i + 1
    return n


def _verdict(slope: Fraction) -> str:
    return "general_type" if slope < 13 else "threshold" if slope == 13 else "inconclusive"


def run_census(tc, case: CensusRound):
    """One round of the exact layers, every part against its closed form."""
    t0 = time.perf_counter()
    census = tc.quartic_coordinate_check()
    ok = census["azygetic_odd_7set_count"] == 288 and census["structure_failures"] == 0

    tetrads = tc.enumerate_syzygetic_tetrads(3)
    ok &= len(tetrads) == tetrad_count(3)
    for a, b, c, d in tetrads:
        ok &= (a.eps ^ b.eps ^ c.eps ^ d.eps, a.delta ^ b.delta ^ c.delta ^ d.delta) == (0, 0)

    for g in (1, 2):
        ok &= len(tc.enumerate_fundamental_systems(g)) == krazer_count(g)
        gopel = tc.enumerate_gopel_systems(g)
        ok &= len(gopel) == gopel_count(g)
        ok &= all(len(s.members) == 2**g for s in gopel)

    sp_rng = random.Random(case.sp_seed)
    for g in range(1, 5):
        forms = tc.enumerate_forms(g)
        arfs = [tc.arf(q) for q in forms]
        ok &= arfs.count(0) == 2 ** (g - 1) * (2**g + 1)
        for _ in range(SP_PRODUCTS_PER_GENUS):
            m = tc.random_symplectic(g, sp_rng)
            ok &= all(tc.arf(tc.sp_apply(m, q)) == s for q, s in zip(forms, arfs))

    for genera, edges, g in case.graphs:
        vertices = tuple(tc.Vertex(f"v{k}", h) for k, h in enumerate(genera))
        edge_objs = tuple(tc.Edge(f"e{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(edges))
        report = tc.th_components(tc.DualGraph(vertices, edge_objs))
        ok &= report.total_length == 4**g

    for g in range(4, SLOPE_GENUS_MAX + 1):
        for space, numerator in (("Sbar_minus", 11 * g + 37), ("Sbar_plus", 11 * g + 29)):
            slope = Fraction(numerator, g + 1)
            ok &= tc.slope_combination(g, space).lambda_slope == slope
            ok &= tc.general_type_test(g, space) == _verdict(slope)
    return [time.perf_counter() - t0], bool(ok)


# -------------------------------------------------------------- registry


def theta_flip_flagged(tc, seed: int) -> bool:
    """Self-test: the theta-points check fails when the relation's sign is wrong."""
    pairs = [p for p in theta_deck(seed, 0) if p.g <= 2]
    return all(not run_theta(tc, replace(p, sign=-p.sign))[1] for p in pairs)


def _xi_warm_up(tc, seed: int) -> None:
    xi_report(tc, xi_deck(seed, 0)[0].tau, 4)


def _deck_warm_up(deck, run):
    def warm_up(tc, seed: int) -> None:
        for case in deck(seed, 0):
            run(tc, case)

    return warm_up


@dataclass(frozen=True)
class Workload:
    """How to play one workload.

    ``warm_up`` is the first, untimed operation: it fills every cache the
    measured operations reuse (subspace lists, lattices) and
    uses deck 0, which the measured loop never replays.
    """

    name: str
    ops: int  # operations per case
    deck: Callable  # (seed, deck index) -> list of cases
    run: Callable  # (tc, case) -> (latency of each operation in s, ok)
    warm_up: Callable  # (tc, seed) -> None
    self_test: Callable | None  # (tc, seed) -> True when the check catches a planted error


WORKLOADS = {
    "xi-g4": Workload("xi-g4", 2, xi_deck, run_xi, _xi_warm_up, odd_shift_flagged),
    "theta-points": Workload(
        "theta-points", 2, theta_deck, run_theta, _deck_warm_up(theta_deck, run_theta), theta_flip_flagged
    ),
    "exact-census": Workload(
        "exact-census", 1, census_deck, run_census, _deck_warm_up(census_deck, run_census), None
    ),
}
