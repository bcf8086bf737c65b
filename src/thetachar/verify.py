"""Acceptance checks: every headline claim of the package, run end to end.

Each criterion is written defensively — it reports (passed, details)
rather than raising — and draws its randomness from its own
seed-derived stream, so `run_acceptance(only=...)` reproduces exactly
the same numbers as a full run.  Reports carry no timing information:
two runs with the same seed must be byte-identical.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import (
    DualGraph,
    Edge,
    Vertex,
    betti_and_genus,
    boundary_degrees_odd,
    th_components,
)
from .characteristics import (
    Characteristic,
    CharSystem,
    enumerate_fundamental_systems,
    fundamental_system_count,
    is_syzygetic,
    quartic_coordinate_check,
)
from .amplitude import factorization_residual, xi_g
from .picard import (
    DivClass,
    canonical_class,
    general_type_test,
    pullback,
    slope_combination,
)
from .symplectic import arf, enumerate_forms, random_symplectic, sp_apply
from .theta import PeriodMatrix, Tolerance, _table, theta_constant, theta_constant_table, theta_report

__all__ = ["CriterionResult", "AcceptanceReport", "run_acceptance"]

# Gates and the theta tolerance are pinned; a run chooses only its seed.
_TOL = Tolerance(1e-12)


def random_tau(rng: random.Random, g: int) -> PeriodMatrix:
    """A random period matrix with Im tau >= 0.5 I (eigenvalue-wise).

    Im tau = 0.5 I + L^T L keeps the spectrum in roughly [0.5, 3], where
    the truncated sums are short and the identities under test are far
    from catastrophic cancellation.
    """
    re = np.zeros((g, g))
    for a in range(g):
        for b in range(a, g):
            re[a, b] = re[b, a] = rng.uniform(-0.45, 0.45)
    factor = np.array([[rng.uniform(-0.4, 0.4) for _ in range(g)] for _ in range(g)])
    gram = factor.T @ factor
    im = (gram + gram.T) / 2 + 0.5 * np.eye(g)
    return PeriodMatrix(re + 1j * im)


def _random_graph(rng: random.Random) -> DualGraph:
    """A random connected dual graph: spanning tree plus a few extra edges."""
    nv = rng.randint(1, 5)
    vertices = tuple(Vertex(f"v{k}", rng.randint(0, 2)) for k in range(nv))
    edges = [Edge(f"t{k}", f"v{rng.randrange(k)}", f"v{k}") for k in range(1, nv)]
    for x in range(rng.randint(0, 3)):
        edges.append(Edge(f"x{x}", f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}"))
    return DualGraph(vertices, tuple(edges))


def _check_form_counts(rng: random.Random):
    for g in range(1, 7):
        even = len(enumerate_forms(g, "even"))
        odd = len(enumerate_forms(g, "odd"))
        want = ((1 << (g - 1)) * ((1 << g) + 1), (1 << (g - 1)) * ((1 << g) - 1))
        if (even, odd) != want:
            return False, f"g={g}: counts ({even}, {odd}) != {want}"
    return True, "even/odd counts equal 2^(g-1)(2^g +/- 1) for g=1..6"


def _check_arf_invariance(rng: random.Random):
    checked = 0
    for g in range(1, 5):
        forms = enumerate_forms(g)
        for _ in range(100):
            m = random_symplectic(g, rng)
            for q in forms:
                if arf(sp_apply(m, q)) != arf(q):
                    return False, f"arf changed under a transvection product at g={g}"
                checked += 1
    return True, f"arf preserved on {checked} (matrix, form) pairs, 100 products per g<=4"


def _check_fundamental_systems(rng: random.Random):
    parts = []
    for g in (1, 2):
        systems = enumerate_fundamental_systems(g)
        want = fundamental_system_count(g)
        if len(systems) != want:
            return False, f"g={g}: found {len(systems)}, Krazer formula gives {want}"
        if any(s.member_sum != (0, 0) for s in systems):
            return False, f"g={g}: a fundamental system does not sum to zero"
        parts.append(f"g={g}: {len(systems)}")
    return True, "; ".join(parts) + "; all sum to zero and match Krazer's count"


def _check_genus2_azygetic(rng: random.Random):
    odds = enumerate_forms(2, "odd")
    if len(odds) != 6:
        return False, f"expected 6 odd characteristics, got {len(odds)}"
    triples = list(itertools.combinations(odds, 3))
    for a, b, c in triples:
        if is_syzygetic(a, b, c):
            return False, f"syzygetic odd triple: {a.bits}, {b.bits}, {c.bits}"
    system = CharSystem(2, tuple(odds))  # already in (eps, delta) order
    if system.member_sum != (0, 0):
        return False, "the six odds do not sum to zero"
    known = {s.members for s in enumerate_fundamental_systems(2)}
    if system.members not in known:
        return False, "the six odds are not among the enumerated fundamental systems"
    return True, f"all {len(triples)} odd triples azygetic; the 6 odds form a fundamental system"


def _check_parity_vanishing(rng: random.Random):
    worst, n = 0.0, 0
    for g in (1, 2, 3):
        odds = enumerate_forms(g, "odd")
        for _ in range(20):
            table = theta_constant_table(random_tau(rng, g), _TOL)
            for c in odds:
                worst = max(worst, abs(complex(table[c.eps, c.delta])))
                n += 1
    ok = worst < 1e-12
    return ok, f"max |theta[odd]| = {worst:.3e} over {n} values (20 tau per genus, g<=3)"


def _check_theta_value(rng: random.Random):
    tau_i = PeriodMatrix([[1j]])
    reference = math.pi**0.25 / math.gamma(0.75)
    err = abs(theta_constant(tau_i, Characteristic(1, 0, 0), _TOL) - reference)
    if not err < 1e-10:
        return False, f"theta[0;0](i, 0) off by {err:.3e} (limit 1e-10)"
    worst = 0.0
    for _ in range(5):
        table = theta_constant_table(random_tau(rng, 1), _TOL)
        quartic = table[0, 0] ** 4 - table[0, 1] ** 4 - table[1, 0] ** 4
        worst = max(worst, abs(complex(quartic)))
    ok = worst < 1e-9
    return ok, f"theta[0;0](i, 0) error {err:.3e}; max quartic residual {worst:.3e} at 5 tau"


def _check_initial_condition(rng: random.Random):
    worst = 0.0
    for _ in range(5):
        tau = random_tau(rng, 1)
        table = theta_constant_table(tau, _TOL)
        product = table[0, 0] ** 8 * table[0, 1] ** 4 * table[1, 0] ** 4
        rel = abs(xi_g(tau, 1, _TOL) - product) / abs(product)
        worst = max(worst, rel)
    ok = worst < 1e-9
    return ok, f"max relative deviation from the theta product: {worst:.3e} at 5 tau"


def _check_factorization(rng: random.Random):
    cases = []
    for _ in range(5):
        cases.append(("(2,1)", 1e-8, 2, 1))
    for _ in range(2):
        cases.append(("(3,1)", 1e-7, 3, 1))
        cases.append(("(3,2)", 1e-7, 3, 2))
    cases.append(("(4,1)", 1e-6, 4, 1))
    cases.append(("(4,2)", 1e-6, 4, 2))
    worst: dict[str, float] = {}
    for label, limit, g, k in cases:
        residual = factorization_residual(random_tau(rng, k), random_tau(rng, g - k), _TOL)
        if not residual < limit:
            return False, f"{label}: residual {residual:.3e} exceeds {limit:.0e}"
        worst[label] = max(worst.get(label, 0.0), residual)
    summary = "; ".join(f"{label} max {value:.3e}" for label, value in worst.items())
    return True, summary


def _check_fibre_lengths(rng: random.Random):
    checked = compact = 0
    while checked < 200:
        graph = _random_graph(rng)
        b, g = betti_and_genus(graph)
        if not 1 <= g <= 6:
            continue
        report = th_components(graph)
        if report.total_length != 1 << (2 * g):
            return False, f"fibre length {report.total_length} != 2^(2g) for b={b}, g={g}"
        if b == 0:
            compact += 1
            if not report.reduced:
                return False, "compact-type fibre not reduced"
        checked += 1
    for g in range(2, 7):
        loop = DualGraph((Vertex("v", g - 1),), (Edge("n", "v", "v"),))
        report = th_components(loop)
        if report.total_components != 3 << (2 * g - 2):
            return False, f"one-loop g={g}: {report.total_components} components"
    return True, (
        f"200 random graphs (of them {compact} compact type) total 2^(2g); "
        "one-loop graphs give 3*2^(2g-2) components for g=2..6"
    )


def _check_degree_identities(rng: random.Random):
    pairs = 0
    for g in range(2, 11):
        odd_total = (1 << (g - 1)) * ((1 << g) - 1)
        for i in range(g // 2 + 1):
            deg_a, deg_b = boundary_degrees_odd(g, i)
            combined = deg_a + 2 * deg_b if i == 0 else deg_a + deg_b
            if combined != odd_total:
                return False, f"degree identity fails at g={g}, i={i}"
            pairs += 1
    return True, f"{pairs} (g, i) pairs hit 2^(g-1)(2^g - 1) exactly, g<=10"


def _check_canonical_identity(rng: random.Random):
    for g in range(4, 31):
        k_moduli = canonical_class(g, "Mbar")
        for space in ("Sbar_minus", "Sbar_plus"):
            lhs = canonical_class(g, space)
            rhs = pullback(k_moduli, space) + DivClass(space, g, {"beta_0": 1})
            if lhs != rhs:
                return False, f"K identity fails on {space} at g={g}"
    return True, "K_S = pullback(K_M) + beta_0 coefficientwise, g=4..30, both parities"


def _check_slopes(rng: random.Random):
    for g in range(4, 31):
        odd = slope_combination(g, "Sbar_minus").lambda_slope
        even = slope_combination(g, "Sbar_plus").lambda_slope
        if odd != Fraction(11 * g + 37, g + 1):
            return False, f"odd slope {odd} != (11g+37)/(g+1) at g={g}"
        if even != Fraction(11 * g + 29, g + 1):
            return False, f"even slope {even} != (11g+29)/(g+1) at g={g}"
        odd_want = "general_type" if g > 12 else ("threshold" if g == 12 else "inconclusive")
        even_want = "general_type" if g > 8 else ("threshold" if g == 8 else "inconclusive")
        if general_type_test(g, "Sbar_minus") != odd_want:
            return False, f"odd verdict at g={g} is not {odd_want}"
        if general_type_test(g, "Sbar_plus") != even_want:
            return False, f"even verdict at g={g} is not {even_want}"
    return True, (
        "slopes equal (11g+37)/(g+1) and (11g+29)/(g+1) exactly; "
        "verdicts match the threshold table, g=4..30"
    )


def _check_aronhold_census(rng: random.Random):
    census = quartic_coordinate_check()
    count, failures = census["azygetic_odd_7set_count"], census["structure_failures"]
    if count != 288:
        return False, f"{count} azygetic odd 7-sets at g=3, not 288"
    if failures:
        return False, f"{failures} of {count} sets fail the structure check, first {census['first_witness']}"
    return True, (
        "288 azygetic odd 7-sets at g=3; each has an even sum t8, its 21 five-term sums "
        "are the other odds and its 35 three-term sums the evens other than t8"
    )


def _check_single_against_table(rng: random.Random):
    # theta[c](tau, 0) by theta_report, which sums in lex order over the box
    # or the lines of it that can hold a kept point, against the table
    # entry, which sums in lex order inside each parity class: the two
    # differ by at most the report's charge plus the table's error bound
    # (its charge and its first-order rounding bound).  The last tau has
    # lambda_min = 0.3, radius 6: its 13^4-point box takes the line cut.
    taus = [random_tau(rng, g) for g in (1, 2, 3, 4) for _ in range(2)]
    im = np.array(random_tau(rng, 4).tau.imag)
    im += (0.3 - np.linalg.eigvalsh(im)[0]) * np.eye(4)
    taus.append(PeriodMatrix(taus[-1].tau.real + 1j * im))
    worst, largest = 0.0, 0
    for tau in taus:
        table, bound = _table(tau, _TOL)
        for c in enumerate_forms(tau.g):
            report = theta_report(tau, None, c, _TOL)
            gap = abs(complex(report["re"], report["im"]) - table[c.eps, c.delta])
            limit = report["est_error"] + bound[c.eps]
            if not gap <= limit:
                name = f"theta[{c.eps};{c.delta}]"
                return False, f"g={tau.g}: {name} off the table by {gap:.3e} > {limit:.3e}"
            worst = max(worst, gap / limit)
        largest = max(largest, (2 * report["radius"] + 1) ** tau.g)
    return True, (
        f"{sum(4**tau.g for tau in taus)} single values at {len(taus)} tau, g<=4, match the "
        f"table within {worst:.3f} of their bound; largest box {largest} points"
    )


_CRITERIA = (
    ("form counts", _check_form_counts),
    ("arf Sp-invariance", _check_arf_invariance),
    ("fundamental systems", _check_fundamental_systems),
    ("genus-2 azygetic structure", _check_genus2_azygetic),
    ("theta parity vanishing", _check_parity_vanishing),
    ("theta constant value", _check_theta_value),
    ("initial condition", _check_initial_condition),
    ("factorization", _check_factorization),
    ("spin-fibre length", _check_fibre_lengths),
    ("boundary degree identities", _check_degree_identities),
    ("canonical-class identity", _check_canonical_identity),
    ("slopes and verdicts", _check_slopes),
    ("Aronhold census", _check_aronhold_census),
    ("single values against the table", _check_single_against_table),
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class AcceptanceReport:
    seed: int
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render_lines(self) -> list[str]:
        lines = [
            f"[{r.index:2d}] {'PASS' if r.passed else 'FAIL'}  {r.name}: {r.details}"
            for r in self.results
        ]
        good = sum(r.passed for r in self.results)
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({good}/{len(self.results)} criteria, seed {self.seed})"
        )
        return lines


def run_acceptance(*, seed: int = 0, only=None) -> AcceptanceReport:
    """Run the acceptance criteria (all, or the 1-based subset in `only`).

    Each criterion seeds its own random stream from (seed, criterion
    index), so a subset run reproduces the full run's numbers.  The seed
    is the only setting: gates and the theta tolerance (_TOL) are pinned.
    """
    if only is None:
        chosen = list(range(1, len(_CRITERIA) + 1))
    else:
        chosen = sorted(set(only))
        bad = [i for i in chosen if not 1 <= i <= len(_CRITERIA)]
        if bad:
            raise ValueError(f"criterion indices out of range 1..{len(_CRITERIA)}: {bad}")
    results = []
    for index in chosen:
        name, check = _CRITERIA[index - 1]
        rng = random.Random(f"{seed}:{index}")
        try:
            passed, details = check(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"{type(exc).__name__}: {exc}"
        # numpy comparisons leak numpy bools, which json.dumps rejects
        results.append(CriterionResult(index, name, bool(passed), details))
    return AcceptanceReport(seed, tuple(results))
