"""Numerical theta functions with characteristics.

The reference values below were produced by the direct mpmath summation in
oracles.py (40 digits, fixed generous radius) and frozen here; one live
cross-check against that oracle stays in the suite.
"""

import cmath
import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    mp_tail,
    mp_theta,
    np_theta,
    np_theta_constants,
    oracle_box,
    oracle_lattice,
    oracle_table_rows,
)
from thetachar import theta
from thetachar.amplitude import xi_g
from thetachar.characteristics import Characteristic
from thetachar.cli import run
from thetachar.config import InvariantError
from thetachar.symplectic import SpMatrix, enumerate_forms, sp_apply
from thetachar.theta import (
    PeriodMatrix,
    Tolerance,
    block_diag,
    theta_constant,
    theta_constant_table,
    theta_report,
    truncation_radius,
)
from thetachar.verify import run_acceptance

TAU_I = PeriodMatrix([[1j]])
TAU_G1 = PeriodMatrix([[0.25 + 1.1j]])
TAU_G2 = PeriodMatrix([[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.3j]])

# pi^(1/4) / Gamma(3/4), the classical value of theta[0;0](i, 0)
THETA00_I = 1.08643481121330801457531612151
# theta[0;1] and theta[1;0] coincide at tau = i
THETA01_I = 0.913579138156116821407242593401
G1_GENERIC = 0.495604493108855091510631851831 + 0.562066523037489638309688859001j
G2_0110 = 0.840170455448058234531361817547 + 0.0272205510795270998315384857669j
G2_0011 = 0.903988532529950793701694735419 - 0.00135558911962719192353350109846j

# A genus-4 point with lambda_min(Im tau) = 0.307 and |Im z| = 0.19: its
# single evaluation has truncation radius 8, an 83,521-point box.
THIN_G4_TAU = [[0, 0.1, 0, -0.1], [0.1, 0.2, 0, 0], [0, 0, -0.3, 0.05], [-0.1, 0, 0.05, 0]]
THIN_G4_IM = [[0.31, 0.02, 0, 0], [0.02, 0.45, 0, 0], [0, 0, 0.55, 0], [0, 0, 0, 0.7]]
THIN_G4_Z = [0.1 + 0.095j, 0.095j, -0.2 + 0.095j, 0.3 + 0.095j]


def ch(text):
    return Characteristic.from_string(text)


def theta_value(tau, z, c, tol=Tolerance()):
    rep = theta_report(tau, z, c, tol)
    return complex(rep["re"], rep["im"])


def test_tolerance_validation():
    assert Tolerance().abs_tol == 1e-12
    assert Tolerance.coerce(1e-8).abs_tol == 1e-8
    t = Tolerance(1e-10)
    assert Tolerance.coerce(t) is t
    with pytest.raises(ValueError):
        Tolerance(1e-14)
    with pytest.raises(ValueError):
        Tolerance(1.5)


def test_period_matrix_validation(capsys):
    assert TAU_G2.g == 2
    assert TAU_G2.im_lambda_min > 0.9
    with pytest.raises(ValueError):
        PeriodMatrix([[1j, 0.2], [0.2001, 1j]])  # not exactly symmetric
    with pytest.raises(ValueError):
        PeriodMatrix([[0.5 - 1j]])  # Im tau negative definite
    with pytest.raises(ValueError):
        PeriodMatrix([[1j, 0], [0, 1j], [0, 0]])
    with pytest.raises(ValueError):
        PeriodMatrix([[complex("nan")]])
    with pytest.raises(ValueError):
        PeriodMatrix([[1j, 2j], [2j, 1j]])  # positive diagonal, but indefinite
    assert PeriodMatrix(np.diag([2.25j, 0.5j, 4j, 1j])).im_lambda_min == 0.5
    # Rule (b) of theta._IM_CAP: eigvalsh's lambda_min is trusted only above
    # its error bound 4 g u lambda_max, and below it Im tau is certified on
    # its diagonal scaling.  Rank one, 1e50 J (whose lambda_min eigvalsh
    # reads as 2.2e18) and 1e80 J, is refused by theta and amplitude alike.
    for g, s in ((4, 1e50), (3, 1e80)):
        tau = json.dumps([[[0, s]] * g] * g)
        for argv in (["theta", "--char", f"{'0' * g};{'0' * g}"], ["amplitude"]):
            assert run([*argv, "--genus", str(g), "--tau", tau]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: Im tau must be positive definite"), captured.err
    # A graded Im tau, lambda_min 0.625, which eigvalsh reads as -1.4e20, is
    # certified at lambda_min(Yhat) min_k Y_kk = 0.5 and sums right.
    d = np.diag([1.0, 1e6, 1e12, 1e18])
    graded = PeriodMatrix(1j * (d @ (0.5 * np.eye(4) + 0.5) @ d))
    assert graded.im_lambda_min == pytest.approx(0.5, rel=1e-14)
    rep = theta_report(graded, None, ch("0000;0000"))
    want = np_theta(graded.tau, [0] * 4, [0] * 4, [0] * 4, 4)
    assert abs(complex(rep["re"], rep["im"]) - want) <= rep["est_error"] + 1e-15
    # diag(1, 1e20) i takes the certificate too, and keeps its bytes
    wide = PeriodMatrix(np.diag([1j, 1e20j]))
    assert wide.im_lambda_min == 1.0
    assert theta_report(wide, None, ch("00;00")) == {
        "re": 1.0864348112133082, "im": 0.0, "radius": 3, "points": 7, "est_error": 1.4309398721775116e-15}


def test_theta_arg_coercion():
    assert theta._z(None, 2) == (0j, 0j)
    assert theta._z([1, 2j], 2) == (1 + 0j, 2j)
    assert theta._z(np.array([0.5, 1j]), 2) == (0.5 + 0j, 1j)
    # the checks run in this order: nonempty, finite, length g
    with pytest.raises(ValueError, match="z must be nonempty"):
        theta._z((), 2)
    with pytest.raises(ValueError, match="z entries must be finite"):
        theta._z([1, complex(0, math.inf), 3], 2)
    with pytest.raises(ValueError, match="z entries must be finite"):
        theta._z([math.nan], 1)
    with pytest.raises(ValueError, match="z has length 3, expected 2"):
        theta._z([1, 2, 3], 2)
    # the same errors reach every entry point
    with pytest.raises(ValueError, match="z entries must be finite"):
        theta_report(TAU_G2, [0, math.inf], Characteristic(2, 0, 0))
    with pytest.raises(ValueError, match="z has length 1, expected 2"):
        truncation_radius(TAU_G2, [0j], Tolerance())


def test_truncation_radius_grows_as_tolerance_shrinks():
    radii = [
        truncation_radius(TAU_G2, None, Tolerance(t))
        for t in (1e-3, 1e-6, 1e-9, 1e-12)
    ]
    assert radii == sorted(radii)
    assert radii[0] >= 1
    # shifting z off the real locus can only enlarge the box
    assert truncation_radius(TAU_G2, [0.3j, 0.4j], Tolerance(1e-9)) >= radii[2]


def test_truncation_radius_tail_is_honest():
    # the independent mpmath tail estimate at the chosen radius stays below
    # the requested tolerance
    for tol in (1e-6, 1e-10):
        r = truncation_radius(TAU_G2, None, Tolerance(tol))
        tail = mp_tail(TAU_G2.im_lambda_min, 2, 0.0, r)
        assert float(tail) <= tol


def test_truncation_radius_unreachable_tolerance():
    thin = PeriodMatrix([[0.0001j]])
    with pytest.raises(ValueError):
        truncation_radius(thin, None, Tolerance(1e-12))


def test_box_reports_an_overflowing_tail_as_unreachable():
    # the shell exponent 2 pi sqrt(g) (s + 1/2) |Im z| passes 709 before
    # the tail can be compared with the tolerance
    for args in ((1, 0.001, 5.0, 1e-12), (1, 1.0, 40.0, 1e-12), (3, 0.53, 7.8, 1e-12)):
        with pytest.raises(ValueError, match="cannot reach the requested tolerance"):
            theta._box(*args)


def test_box_passes_over_radii_as_the_full_search_does():
    # a radius whose first excluded shell alone exceeds tol is passed over
    # unsummed; R, T, C and every unreachable case stay those of the search
    # that sums each tail, over small and large lambda, |Im z| up to 40
    # (overflowing tails) and g up to 6 (the lattice cap)
    search = theta._box.__wrapped__
    reached = failed = 0
    for g in range(1, 7):
        for lam in (0.05, 0.1, 0.3, 0.7, 1.5, 4.0, 12.0, 30.0):
            for z_im in (0.0, 0.2, 1.0, 3.0, 8.0, 20.0, 40.0):
                for tol in (1e-12, 1e-6, 0.5):
                    want = oracle_box(g, lam, z_im, tol)
                    try:
                        got = search(g, lam, z_im, tol)
                    except ValueError as err:
                        got = str(err)
                    assert got == want, (g, lam, z_im, tol)
                    reached += isinstance(want, tuple)
                    failed += isinstance(want, str)
    assert reached > 300 and failed > 300  # both outcomes are well covered


def test_theta_constant_reference_values_g1():
    assert abs(theta_constant(TAU_I, ch("0;0")) - THETA00_I) < 1e-12
    assert abs(theta_constant(TAU_I, ch("0;1")) - THETA01_I) < 1e-12
    assert abs(theta_constant(TAU_I, ch("1;0")) - THETA01_I) < 1e-12
    assert abs(theta_constant(TAU_I, ch("1;1"))) < 1e-12
    # Jacobi's quartic relation among the three even constants
    t2, t3, t4 = (
        theta_constant(TAU_I, ch("1;0")),
        theta_constant(TAU_I, ch("0;0")),
        theta_constant(TAU_I, ch("0;1")),
    )
    assert abs(t2**4 + t4**4 - t3**4) < 1e-12


def test_theta_reference_values_with_argument():
    got = theta_value(TAU_G1, [0.3 - 0.2j], ch("1;0"))
    assert abs(got - G1_GENERIC) < 1e-12
    got2 = theta_value(TAU_G2, [0.1 + 0.05j, -0.2j], ch("01;10"))
    assert abs(got2 - G2_0110) < 1e-12
    got3 = theta_constant(TAU_G2, ch("00;11"))
    assert abs(got3 - G2_0011) < 1e-12


def test_live_cross_check_against_mpmath():
    tau = [[0.3 + 1.4j, -0.15 + 0.05j], [-0.15 + 0.05j, 0.1 + 0.9j]]
    z = [0.2 - 0.1j, -0.35 + 0.15j]
    got = theta_value(PeriodMatrix(tau), z, ch("10;11"), Tolerance(1e-11))
    want = mp_theta(tau, z, [1, 0], [1, 1], 2, radius=15)
    assert abs(got - complex(want)) < 1e-10


def test_genus_mismatch_rejected():
    with pytest.raises(ValueError):
        theta_constant(TAU_G2, ch("0;0"))
    with pytest.raises(ValueError):
        theta_value(TAU_G1, [0.1, 0.2], ch("1;0"))
    with pytest.raises(ValueError):
        theta_report(TAU_G2, None, ch("1;1"))
    with pytest.raises(ValueError):
        theta_report(TAU_G2, None, ch("101;011"))


def test_odd_characteristics_vanish_at_zero():
    for tau in (TAU_I, TAU_G1, TAU_G2):
        for c in enumerate_forms(tau.g):
            if c.parity == 1:
                assert abs(theta_constant(tau, c)) < 1e-12


def test_parity_symmetry_in_z():
    z = [0.17 - 0.08j, 0.05 + 0.21j]
    for c in enumerate_forms(2):
        plus = theta_value(TAU_G2, z, c)
        minus = theta_value(TAU_G2, [-w for w in z], c)
        sign = -1 if c.parity else 1
        assert abs(minus - sign * plus) < 1e-11


def test_quasi_periodicity():
    z = [0.1 + 0.2j, -0.3 + 0.1j]
    tau = TAU_G2.tau
    for c in (ch("00;00"), ch("10;01"), ch("11;11")):
        base = theta_value(TAU_G2, z, c)
        # integer shift: theta(z + n) = (-1)^(eps.n) theta(z)
        shifted = theta_value(TAU_G2, [z[0] + 1, z[1]], c)
        eps0 = c.eps >> 1 & 1
        assert abs(shifted - (-1) ** eps0 * base) < 1e-10
        # lattice shift by tau e_2:
        # theta(z + tau m) = exp(-pi i m.tau.m - 2 pi i m.z) (-1)^(delta.m) theta(z)
        zs = [z[0] + tau[0, 1], z[1] + tau[1, 1]]
        factor = cmath.exp(-1j * math.pi * tau[1, 1] - 2j * math.pi * z[1])
        delta1 = c.delta & 1
        got = theta_value(TAU_G2, zs, c)
        want = factor * (-1) ** delta1 * base
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_report_carries_the_numerics():
    rep = theta_report(TAU_G1, [0.3 - 0.2j], ch("1;0"), Tolerance(1e-10))
    assert abs(complex(rep["re"], rep["im"]) - G1_GENERIC) < 1e-10
    assert rep["radius"] >= 1
    assert 0.0 <= rep["est_error"] <= 1e-10


def test_constant_table_agrees_bitwise_with_single_calls():
    table = theta_constant_table(TAU_G2)
    assert table.shape == (4, 4)
    assert not table.flags.writeable
    for c in enumerate_forms(2):
        assert table[c.eps, c.delta] == theta_constant(TAU_G2, c)
    # cached: identical object on repeat call
    assert theta_constant_table(TAU_G2) is table


def test_constant_table_matches_per_characteristic_sums():
    # the parity-binned Walsh-Hadamard table against 4^g separate lattice
    # sums over the same box; odd entries vanish to the same bound
    rng = np.random.default_rng(2024)
    for g, count in ((3, 3), (4, 2)):
        for _ in range(count):
            re = rng.uniform(-0.3, 0.3, (g, g))
            im = rng.uniform(-0.05, 0.05, (g, g))
            entries = (re + re.T) / 2 + 1j * ((im + im.T) / 2 + 0.7 * np.eye(g))
            tau = PeriodMatrix(entries)
            radius = truncation_radius(tau, None, Tolerance())
            bound = 1e-14 * (2 * radius + 1) ** g
            want = np_theta_constants(tau.tau, radius)
            got = theta_constant_table(tau)
            assert np.abs(got - want).max() < bound
            for c in enumerate_forms(g):
                if c.parity == 1:
                    assert abs(got[c.eps, c.delta]) < bound


def _bits(block, g):
    return [(block >> (g - 1 - i)) & 1 for i in range(g)]


def test_genus_5_table_runs_in_blocks_and_matches_plain_sums():
    # at g = 5 the 32 eps values take two blocks of 16 weight rows
    rng = np.random.default_rng(55)
    a = rng.uniform(-0.25, 0.25, (5, 5))
    x = rng.uniform(-0.6, 0.6, (5, 5))
    tau = PeriodMatrix((x + x.T) / 2 + 1j * (2.0 * np.eye(5) + a @ a.T))
    radius = truncation_radius(tau, None, Tolerance())
    assert radius == 2
    want = np_theta_constants(tau.tau, radius)
    assert np.abs(theta_constant_table(tau) - want).max() < 1e-14 * (2 * radius + 1) ** 5


def test_large_real_parts_are_reduced_exactly():
    # theta[eps; delta](tau + 2S, z + n) = i^(eps'S eps) (-1)^(eps.n) theta[eps; delta](tau, z)
    # for integral symmetric S and integral n.  Re tau and Re z sit on a
    # 1/64 grid, so tau + 2S and z + n are exact and the plain sum on the
    # unshifted tau is the reference.
    rng = np.random.default_rng(1717)
    for g in (1, 2, 3):
        for scale in (3, 10**6, 2**40):
            re = np.round(rng.uniform(-0.5, 0.5, (g, g)) * 64) / 64
            a = rng.uniform(-0.3, 0.3, (g, g))
            tau = (re + re.T) / 2 + 1j * (0.8 * np.eye(g) + a @ a.T)
            s = rng.integers(-scale, scale + 1, (g, g))
            s = np.triu(s) + np.triu(s, 1).T
            n = rng.integers(-scale, scale + 1, g)
            z = np.round(rng.uniform(-0.5, 0.5, g) * 64) / 64 + 1j * rng.uniform(-0.1, 0.1, g)
            shifted = PeriodMatrix(tau + 2 * s)
            radius = truncation_radius(shifted, z, Tolerance())
            bound = 1e-14 * (2 * radius + 1) ** g
            table = theta_constant_table(shifted)
            want = np_theta_constants(tau, truncation_radius(shifted, None, Tolerance()))
            for c in enumerate_forms(g):
                e = np.array(_bits(c.eps, g))
                turn = 1j ** int(e @ s @ e % 4)
                assert abs(table[c.eps, c.delta] - turn * want[c.eps, c.delta]) < bound
                sign = -1 if int(e @ n) % 2 else 1
                got = theta_value(shifted, z + n, c)
                ref = np_theta(tau, z, _bits(c.eps, g), _bits(c.delta, g), radius)
                assert abs(got - turn * sign * ref) < bound
    # g = 4 on boxes above _LINE_CUT, so the line cut's Schur pieces are set
    # up from the reduced tau and the reduced z; a sample of characteristics,
    # each against the plain sum at z and at 0
    g = 4
    forms = enumerate_forms(g)
    for scale in (3, 10**6, 2**40):
        re = np.round(rng.uniform(-0.5, 0.5, (g, g)) * 64) / 64
        a = rng.uniform(-0.2, 0.2, (g, g))
        tau = (re + re.T) / 2 + 1j * (0.55 * np.eye(g) + a @ a.T)
        s = rng.integers(1, scale + 1, (g, g)) * rng.choice([-1, 1], (g, g))
        s = np.triu(s) + np.triu(s, 1).T
        n = rng.integers(1, scale + 1, g) * rng.choice([-1, 1], g)
        z = np.round(rng.uniform(-0.45, 0.45, g) * 64) / 64 + 1j * rng.uniform(-0.05, 0.05, g)
        shifted = PeriodMatrix(tau + 2 * s)
        assert np.abs(shifted.tau.real).min() > 1 and np.abs((z + n).real).min() > 0.5
        radius = truncation_radius(shifted, z, Tolerance())
        assert (2 * radius + 1) ** g > theta._LINE_CUT
        bound = 1e-14 * (2 * radius + 1) ** g
        for k in rng.choice(len(forms), 6, replace=False):
            c = forms[k]
            e = np.array(_bits(c.eps, g))
            turn = 1j ** int(e @ s @ e % 4)
            sign = -1 if int(e @ n) % 2 else 1
            got = theta_value(shifted, z + n, c)
            ref = np_theta(tau, z, _bits(c.eps, g), _bits(c.delta, g), radius)
            assert abs(got - turn * sign * ref) < bound
            got = theta_value(shifted, n, c)
            ref = np_theta(tau, np.zeros(g), _bits(c.eps, g), _bits(c.delta, g), radius)
            assert abs(got - turn * sign * ref) < bound


def test_phase_columns_match_a_direct_exp():
    # The paired lookup against cis(pi Xm) taken directly, at g = 1..5 (odd
    # g gathers its last coordinate alone), the box's corners included.  Both
    # round pi (Xm)_k, whose size is at most pi sum_j |X_jk m_j|, and the
    # lookup multiplies up to g factors: a few ulps of g + that size apart.
    rng = np.random.default_rng(1211)
    for g in range(1, 6):
        for radius in (1, 3, 6, 12):
            x = rng.uniform(-1.0, 1.0, (g, g))
            x = (x + x.T) / 2
            m = rng.integers(-radius, radius + 1, (400, g)).astype(float)
            m[:2] = [[radius], [-radius]]  # the two corners: each table's first and last entries
            got = theta._phase_columns(x, m, radius)
            assert got.shape == (g, len(m)) and got.dtype == complex
            want = np.exp(1j * np.pi * (m @ x)).T
            size = g + np.pi * (np.abs(m) @ np.abs(x)).T
            assert (np.abs(got - want) <= 4 * theta._U * size).all()


def test_odd_entries_are_checked_at_run_time(monkeypatch):
    # the mutant keys each pair's table with its two coordinates swapped,
    # so coordinate 2i's factor is read at m_(2i+1) and the other way
    # round: the phases are no longer those of Xm and the odd entries stop
    # vanishing.  (A lookup shifted in m_j alone multiplies each eps by a
    # constant phase, which odd vanishing cannot see; the plain-sum tests
    # above do.)
    passing = run_acceptance(only=[5]).results[0]
    assert passing.passed
    monkeypatch.setattr(theta, "_check_odd", lambda *args: None)
    theta._table.cache_clear()
    assert run_acceptance(only=[5]).results[0] == passing  # the check prints nothing
    monkeypatch.undo()
    source = inspect.getsource(theta._phase_columns)
    key = "index[0:h:2] * side + index[1:h:2]"
    assert source.count(key) == 1
    namespace = {}
    exec(source.replace(key, "index[1:h:2] * side + index[0:h:2]"), vars(theta), namespace)
    monkeypatch.setattr(theta, "_phase_columns", namespace["_phase_columns"])
    theta._table.cache_clear()
    with pytest.raises(InvariantError, match=r"odd theta\[1;1\] = .* exceeds its bound"):
        theta_constant_table(TAU_G2)
    (result,) = run_acceptance(only=[5]).results
    assert not result.passed
    assert result.details.startswith("InvariantError: odd theta[")
    monkeypatch.undo()
    theta._table.cache_clear()


def test_single_evaluation_matches_plain_sum_off_zero():
    # theta_report at Im z != 0 against one plain einsum sum over the
    # same box, even and odd characteristics alike
    rng = np.random.default_rng(4041)
    for g in (3, 4):
        re = rng.uniform(-0.3, 0.3, (g, g))
        im = rng.uniform(-0.05, 0.05, (g, g))
        tau = PeriodMatrix((re + re.T) / 2 + 1j * ((im + im.T) / 2 + 0.8 * np.eye(g)))
        z = rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.15, 0.15, g)
        radius = truncation_radius(tau, z, Tolerance())
        bound = 1e-14 * (2 * radius + 1) ** g
        chars = enumerate_forms(g)
        for parity in (0, 1):
            pool = [c for c in chars if c.parity == parity]
            for k in rng.choice(len(pool), 3, replace=False):
                c = pool[k]
                want = np_theta(tau.tau, z, _bits(c.eps, g), _bits(c.delta, g), radius)
                assert abs(theta_value(tau, z, c) - want) < bound


def test_sp_action_matches_theta_transformations():
    # |theta[c](M tau)| = |det(C tau + D)|^(1/2) |theta[M^-1 c](tau)| for the
    # generators tau -> tau + B, M = (I B; 0 I), and tau -> -tau^-1, M = J;
    # both are their own inverses mod 2.  This pins the row convention of
    # SpMatrix against the numerics.
    rng = np.random.default_rng(1972)
    for g in (1, 2, 3):
        ident = [1 << (g - 1 - i) for i in range(g)]
        for _ in range(3):
            re = rng.uniform(-0.5, 0.5, (g, g))
            a = rng.uniform(-0.3, 0.3, (g, g))
            tau = (re + re.T) / 2 + 1j * (0.9 * np.eye(g) + a @ a.T)
            table = theta_constant_table(PeriodMatrix(tau))
            b = rng.integers(-2, 3, (g, g))
            b = np.triu(b) + np.triu(b, 1).T
            b_rows = [sum(int(b[i, j] % 2) << (g - 1 - j) for j in range(g)) for i in range(g)]
            shift = SpMatrix(g, tuple(e << g | r for e, r in zip(ident, b_rows)) + tuple(ident))
            inv = np.linalg.inv(tau)
            flip = SpMatrix(g, tuple(ident) + tuple(e << g for e in ident))
            for m, image, scale in (
                (shift, tau + b, 1.0),
                (flip, -(inv + inv.T) / 2, abs(np.linalg.det(tau)) ** 0.5),
            ):
                moved = theta_constant_table(PeriodMatrix(image))
                for c in enumerate_forms(g):
                    mc = sp_apply(m, c)
                    lhs, rhs = abs(moved[c.eps, c.delta]), scale * abs(table[mc.eps, mc.delta])
                    assert abs(lhs - rhs) < 1e-12


def test_ill_conditioned_im_tau_does_not_overflow():
    # Each magnitude is one exp of the whole s'Ys.  Split into factors,
    # exp(-pi (m Im tau)_k) alone overflows on these matrices (lambda_min
    # 0.3 and 0.35 against lambda_max 99.7 and 59.95) before the product
    # underflows, and the sums turn to nan.
    y2 = np.array([[50.0, 49.7], [49.7, 50.0]])
    y4 = 0.35 * np.eye(4) + 14.9 * np.ones((4, 4))
    for y in (y2, y4):
        g = y.shape[0]
        x = 0.1 * np.fromfunction(lambda i, j: np.cos(i + j + 1.0), (g, g))
        tau = PeriodMatrix(x + 1j * y)
        radius = truncation_radius(tau, None, Tolerance())
        bound = 1e-14 * (2 * radius + 1) ** g
        table = theta_constant_table(tau)
        assert np.isfinite(table).all()
        assert np.abs(table - np_theta_constants(tau.tau, radius)).max() < bound
        z = [0.1 + 0.02j * (k + 1) for k in range(g)]
        for c in enumerate_forms(g)[:: 2 * g - 1]:
            assert cmath.isfinite(theta_value(tau, z, c))
            assert abs(theta_value(tau, None, c) - table[c.eps, c.delta]) < bound


def test_a_table_at_the_im_tau_cap_is_exact():
    # At (cap/g) I every weight of an eps != 0 underflows, and no product
    # the kernel forms overflows (see theta._IM_CAP): the table is exact,
    # its bounds are finite, and nothing warns.
    cap = theta._IM_CAP
    theta._table.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (1, 2, 3, 4):
            table, bound = theta._table(PeriodMatrix(cap / g * 1j * np.eye(g)), Tolerance())
            want = np.zeros((1 << g, 1 << g))
            want[0] = 1.0  # theta[0; delta] = 1, every other entry 0
            assert np.array_equal(table, want)
            assert np.isfinite(bound).all()
        small = PeriodMatrix([[1j]])
        table, bound = theta._table(block_diag(small, PeriodMatrix(cap / 4 * 1j * np.eye(2))), Tolerance())
        # theta[eps; delta] factors over the blocks, the huge block's factor
        # being 1 at eps_2 = eps_3 = 0 and 0 elsewhere
        huge = np.zeros((4, 4))
        huge[0] = 1.0
        assert np.array_equal(table, np.kron(theta_constant_table(small), huge))
        assert np.isfinite(bound).all()


def test_im_tau_is_capped_below_the_overflow_of_a_table_exponent():
    # The largest product the kernel forms is the table's rounding factor
    # rel, below pi (3g + 4)(R + 1)^2 (g^2 + g^2 lambda_max) for every box
    # radius R <= 64 and every genus a radius-1 box admits, g <= 13; at the
    # cap it stays below a sixteenth of the largest double.
    cap, big = theta._IM_CAP, np.finfo(float).max
    assert 3**13 <= theta._MAX_LATTICE < 3**14
    g, r = 13, theta._MAX_RADIUS
    assert math.pi * (3 * g + 4) * (r + 1) ** 2 * (g * g + g * g * cap) < big / 16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert theta_constant_table(PeriodMatrix([[cap * 1j]]))[1, 1] == 0
        y = np.diag([cap / 2, cap / 2])
        assert np.isfinite(theta_constant_table(PeriodMatrix(1j * y))).all()
    # above the cap, and where eigvalsh reads lambda_max as inf
    for tau in ([[1e308j]], [[np.nextafter(cap, math.inf) * 1j]], 1j * (y + np.diag([0.0, cap])),
                1j * (0.85e308 * np.ones((3, 3)) + np.eye(3))):
        with pytest.raises(ValueError, match="the eigenvalues of Im tau must be at most"):
            PeriodMatrix(tau)


def test_mixed_scale_im_tau_does_not_warn():
    # One small and one huge direction, Im tau = diag(0.4, .., 0.4, cap/2):
    # the small ones set the box (a g = 4 box takes the line cut), the huge
    # one puts (Ym)_k, m'Ym and the line cut's b_g near the cap.  Before
    # the cap came from lambda_max, 4e307 there overflowed _quadratic.
    cap = theta._IM_CAP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (2, 3, 4):
            for huge in (0, g - 1):
                y = np.full(g, 0.4)
                y[huge] = cap / 2
                tau = PeriodMatrix(np.diag(1j * y))
                table = theta_constant_table(tau)
                rest = [k for k in range(g) if k != huge]
                for c in enumerate_forms(g)[:: 2 * g - 1]:
                    rep = theta_report(tau, None, c)
                    value = complex(rep["re"], rep["im"])
                    assert abs(value - table[c.eps, c.delta]) < 1e-13
                    assert rep["est_error"] <= 1e-12
                    # the huge factor is theta[eps_k; delta_k](i cap/2), 1 at eps_k = 0 and 0 else
                    e, d = (np.array(list(f"{v:0{g}b}"), dtype=int) for v in (c.eps, c.delta))
                    want = np_theta(0.4j * np.eye(g - 1), [0] * (g - 1), e[rest], d[rest], 6)
                    assert abs(value - (1 - e[huge]) * want) < 1e-13


def test_im_tau_near_the_cap_never_warns():
    # Seeded draws over g = 1..4: Im tau diagonal up to the cap, s J + lam I,
    # rotated spectra spread up to the cap, or diag(0.4, ~cap/2); Re tau in
    # [-3, 3] (so the Re tau reduction runs); z = 0 or small.  Each is
    # refused by PeriodMatrix with a ValueError, or gives finite tables,
    # theta_report values and Xi, and nothing warns.
    rng = np.random.default_rng(35)
    cap = theta._IM_CAP
    admitted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for draw in range(64):
            g = 1 + draw % 4
            kind = draw // 4 % 4
            lam = rng.uniform(0.3, 2.0)
            top = lam * 10.0 ** (298 * rng.uniform() ** 3)  # cond up to 1e298, a third below 1e14
            if kind == 0:
                y = np.diag(np.exp(rng.uniform(math.log(lam), math.log(top), g)))
            elif kind == 1:
                y = top / g * np.ones((g, g)) + lam * np.eye(g)
            elif kind == 2:
                q, _ = np.linalg.qr(rng.normal(size=(g, g)))
                spectrum = np.exp(rng.uniform(math.log(lam), math.log(top), g))
                y = q @ np.diag(spectrum) @ q.T
                y = (y + y.T) / 2
            else:
                y = np.diag(np.full(g, 0.4))
                y[-1, -1] = cap * rng.uniform(0.4, 0.5)
            x = rng.uniform(-3, 3, (g, g))
            try:
                tau = PeriodMatrix((x + x.T) / 2 + 1j * y)
            except ValueError:
                continue
            admitted += 1
            assert np.isfinite(theta_constant_table(tau)).all()
            assert cmath.isfinite(xi_g(tau, g))
            z = [0.05 * complex(*rng.uniform(-1, 1, 2)) for _ in range(g)]
            for c in enumerate_forms(g)[:: 2 * g - 1]:
                for w in (None, z):
                    rep = theta_report(tau, w, c)
                    assert all(map(math.isfinite, rep.values()))
    assert admitted >= 40


def test_ellipsoid_cut_is_honest():
    # Inside the box, a table sums the rows with
    # m'Ym + sum_k min(0, (Ym)_k) < C and a single evaluation the points
    # whose exponent is below C; every point left out has a term below
    # exp(-pi C) and is charged to est_error.  (a) Both sums agree with the
    # plain full-box sums within the charge plus rounding, (b) the table
    # keeps every point of every per-eps ellipsoid {s'Ys < C}, s = m + eps/2,
    # and (c) est_error <= tol.  The table cut keeps no more rows than the
    # triangle rule ||m||_Y < sqrt(C) + max_eps ||eps/2||_Y did.  The last
    # case's single evaluations cut an 83,521-point box by lines.
    rng = np.random.default_rng(3141)
    cases = []
    for g, count in ((2, 2), (3, 2), (4, 1)):
        for _ in range(count):
            q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            lam = np.concatenate([[rng.uniform(0.3, 0.6)], rng.uniform(0.6, 2.0, g - 1)])
            y = q @ np.diag(lam) @ q.T
            x = rng.uniform(-0.3, 0.3, (g, g))
            cases.append(((x + x.T) / 2 + 1j * (y + y.T) / 2, None))
    # the two ill-conditioned Im tau of the overflow test
    for y in (np.array([[50.0, 49.7], [49.7, 50.0]]), 0.35 * np.eye(4) + 14.9 * np.ones((4, 4))):
        g = y.shape[0]
        x = 0.1 * np.fromfunction(lambda i, j: np.cos(i + j + 1.0), (g, g))
        cases.append((x + 1j * y, None))
    cases.append((np.array(THIN_G4_TAU) + 1j * np.array(THIN_G4_IM), THIN_G4_Z))
    tol = Tolerance()
    for entries, fixed_z in cases:
        tau = PeriodMatrix(entries)
        g = tau.g
        radius, tail, cutoff = theta._numerics(tau, (0j,) * g, tol)
        assert radius == truncation_radius(tau, None, tol)
        box = (2 * radius + 1) ** g
        keep = _lex_index(theta._table_rows(tau, radius, cutoff)[1], radius)
        assert len(keep) < box  # the cut is not vacuous
        charge = (box - len(keep)) * math.exp(-math.pi * cutoff)
        assert tail + charge <= tol.abs_tol  # (c), table
        m = oracle_lattice(g, radius)
        y = tau.tau.imag
        inside = np.zeros(len(m), dtype=bool)
        for eps in range(1 << g):
            s = m + np.array(_bits(eps, g)) / 2
            inside |= np.einsum("ij,jk,ik->i", s, y, s) < cutoff
        assert np.isin(np.flatnonzero(inside), keep).all()  # (b)
        rho = max(np.sqrt(e @ y @ e) / 2 for e in theta._blocks(g))
        mym = np.einsum("ij,jk,ik->i", m, y, m)
        assert len(keep) <= np.count_nonzero(mym < (math.sqrt(cutoff) + rho) ** 2)
        want = np_theta_constants(tau.tau, radius)
        assert np.abs(theta_constant_table(tau) - want).max() < charge + 1e-14 * box  # (a)
        z = rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.1, 0.1, g)
        if fixed_z is not None:
            z = np.array(fixed_z)
        eval_tail = theta._numerics(tau, theta._z(z, g), tol)[1]
        for k in rng.choice(4**g, 3, replace=False):
            c = Characteristic(g, int(k) >> g, int(k) & ((1 << g) - 1))
            rep = theta_report(tau, z, c, tol)
            value = complex(rep["re"], rep["im"])
            assert theta_report(tau, z, c, tol) == rep  # bit-reproducible
            assert rep["points"] <= (2 * rep["radius"] + 1) ** g
            if fixed_z is not None:  # the line cut runs
                assert (2 * rep["radius"] + 1) ** g > theta._LINE_CUT
            assert rep["est_error"] <= tol.abs_tol  # (c), single evaluation
            bound = rep["est_error"] - eval_tail + 1e-14 * (2 * rep["radius"] + 1) ** g
            want = np_theta(tau.tau, z, _bits(c.eps, g), _bits(c.delta, g), rep["radius"])
            assert abs(value - want) < bound  # (a)


def _reference_rows(tau, radius, cutoff):
    return oracle_table_rows(oracle_lattice(tau.g, radius), np.ascontiguousarray(tau.tau.imag), cutoff)


def _lex_index(rows, radius):
    # where the integer rows sit in the box listed in lex order
    side = 2 * radius + 1
    weights = side ** np.arange(rows.shape[1] - 1, -1, -1)
    return ((rows.astype(np.intp) + radius) @ weights).astype(np.intp)


def _spy_lower_bound(monkeypatch):
    # the shape of the rows of every _lower_bound call: a table bounds its
    # line heads first, then the rows of the lines it reads
    calls, real = [], theta._lower_bound

    def spy(m, y):
        calls.append(m.shape)
        return real(m, y)

    monkeypatch.setattr(theta, "_lower_bound", spy)
    return calls


def test_table_line_cut_keeps_the_reference_rows(monkeypatch):
    # A table drops the lines of its box that cannot hold a kept row and
    # decides in float64 on the rows left: classes and rows must equal the
    # float64 cut over the whole box byte for byte, at every tolerance, for
    # seeded tau, the two ill-conditioned Im tau of the overflow test and
    # lambda_min = 0.3 with a near-singular Y.
    rng = np.random.default_rng(2029)
    ims = []
    for g, count, top in ((1, 4, 3.0), (2, 4, 3.0), (3, 4, 3.0), (4, 4, 3.0), (5, 2, 2.0)):
        for _ in range(count):
            q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            low = 0.3 if g < 5 else 1.0
            lam = np.concatenate([[rng.uniform(low, 2 * low)], rng.uniform(low, top, g - 1)])
            ims.append(q @ np.diag(lam) @ q.T)
    ims += [np.array([[50.0, 49.7], [49.7, 50.0]]), 0.35 * np.eye(4) + 14.9 * np.ones((4, 4))]
    for g in (2, 3, 4):  # lambda_min 0.3, condition number about 70
        v = rng.normal(size=g)
        ims.append(0.3 * np.eye(g) + 20.0 * np.outer(v, v) / (v @ v))
    calls = _spy_lower_bound(monkeypatch)
    cut = dropped = 0
    for y in ims:
        g = len(y)
        x = rng.uniform(-0.5, 0.5, (g, g))
        tau = PeriodMatrix((x + x.T) / 2 + 1j * (y + y.T) / 2)
        for tol in (1e-12, 1e-8, 1e-4):
            radius, _, cutoff = theta._numerics(tau, (0j,) * g, Tolerance(tol))
            want = _reference_rows(tau, radius, cutoff)
            calls.clear()
            got = theta._table_rows(tau, radius, cutoff)
            _assert_same_rows(got, want)
            cut += len(got[0]) < (2 * radius + 1) ** g
            dropped += calls[-1][0] < (2 * radius + 1) ** g  # fewer rows read than the box holds
    assert cut > 2 * len(ims)  # most cuts are not vacuous
    assert dropped > len(ims)  # and the line cut drops lines on many boxes (a g = 1 box is one line)


def test_table_line_cut_keeps_a_row_one_ulp_below_the_cutoff(monkeypatch):
    # c_max at work: put C one ulp above a row's float64 bound, so the row is
    # kept, and check that its line is read although the line's bound
    # without c_max, p'Sp + sum_k min(0, (Sp)_k), often lies at or above C.
    g, radius = 4, 5
    assert (2 * radius + 1) ** g > theta._LINE_CUT
    rng = np.random.default_rng(7)
    heads, _ = theta._lines(g, radius)
    box = oracle_lattice(g, radius)
    calls = _spy_line_values(monkeypatch)
    above = 0
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        y = q @ np.diag(rng.uniform(0.4, 3.0, g)) @ q.T
        y = (y + y.T) / 2
        tau = PeriodMatrix(1j * y)
        low = theta._lower_bound(box, tau._y)
        pos = rng.choice(np.flatnonzero((low > 1.0) & (low < 40.0)))
        cutoff = float(np.nextafter(low[pos], np.inf))
        got = theta._table_rows(tau, radius, cutoff)
        assert pos in _lex_index(got[1], radius)
        _assert_same_rows(got, _reference_rows(tau, radius, cutoff))
        s = calls[-1][0]
        above += theta._lower_bound(heads, s)[pos // (2 * radius + 1)] >= cutoff
    assert above > 0


def test_table_line_cut_keeps_the_reference_rows_at_huge_im_tau():
    # Im tau with entries near 1e39: every rounding is huge in absolute
    # terms, and the rows kept must still be the reference rows.
    for g, scale in ((2, 1e39), (4, 1e39), (3, 1e36)):
        y = scale * (np.eye(g) + 0.1 * (np.ones((g, g)) - np.eye(g)))
        tau = PeriodMatrix(1j * y)
        radius, _, cutoff = theta._numerics(tau, (0j,) * g, Tolerance())
        want = _reference_rows(tau, radius, cutoff)
        got = theta._table_rows(tau, radius, cutoff)
        assert len(got[0]) >= 1 << g
        _assert_same_rows(got, want)


def test_a_table_below_the_line_cut_size_reads_its_line_heads(monkeypatch):
    # Every table takes the line cut, whatever its box size; _LINE_CUT
    # picks for single evaluations alone.  A g = 2 and a g = 3 table on
    # boxes below it bound their line heads first and read only the rows of
    # the lines left, and keep the reference rows.
    calls = _spy_lower_bound(monkeypatch)
    for g in (2, 3):
        # the soft coordinates set the box, the stiff first one drops lines
        tau = PeriodMatrix(1j * np.diag([3.0] + [0.5] * (g - 1)) + 0.1j * np.ones((g, g)))
        radius, _, cutoff = theta._numerics(tau, (0j,) * g, Tolerance())
        box = (2 * radius + 1) ** g
        assert box < theta._LINE_CUT
        calls.clear()
        got = theta._table_rows(tau, radius, cutoff)
        assert calls[0] == ((2 * radius + 1) ** (g - 1), g - 1)  # one head p a line
        assert len(calls) == 2 and calls[1][1] == g and calls[1][0] < box
        _assert_same_rows(got, _reference_rows(tau, radius, cutoff))


def test_cold_table_and_single_evaluation_share_one_line_index():
    # A table and a single evaluation at the same (g, R) read one box index,
    # the int8 lines of _lines: a cold table builds it and the evaluation
    # reuses it, and no other cache is keyed by the box radius.
    tau = PeriodMatrix(1j * (0.5 * np.eye(4) + 0.1 * np.ones((4, 4))))
    for cache in (theta._lines, theta._table):
        cache.cache_clear()
    theta_constant_table(tau)
    assert theta._lines.cache_info().currsize == 1
    rep = theta_report(tau, None, Characteristic(4, 0, 0))
    assert rep["radius"] == truncation_radius(tau, None, Tolerance())
    info = theta._lines.cache_info()
    assert info.currsize == 1 and info.misses == 1 and info.hits >= 1
    caches = [f for f in vars(theta).values() if callable(getattr(f, "cache_info", None))]
    assert [f for f in caches if "radius" in inspect.signature(f).parameters] == [theta._lines]


def _both_passes(monkeypatch, g, radius, y, b, c0, cutoff):
    # _rows with the lines dropped by their minimum, and with every line
    # kept; _LINE_CUT picks which.  The full pass keeps its rows in lex order.
    monkeypatch.setattr(theta, "_LINE_CUT", 0)
    cut = theta._rows(g, radius, y, b, c0, cutoff)
    monkeypatch.setattr(theta, "_LINE_CUT", theta._MAX_LATTICE)
    box = theta._rows(g, radius, y, b, c0, cutoff)
    assert (np.diff(_lex_index(box[0], radius)) > 0).all()
    return cut, box


def test_line_cut_keeps_the_box_rows_in_box_order(monkeypatch):
    # A single evaluation on a large box drops whole lines along the last
    # coordinate before it computes any row's exponent.  It must keep exactly
    # the rows one pass over the box keeps, in box order, with the same
    # exponents, whichever of the two the size rule would pick.  delta only
    # shifts Re z, so it never reaches the imaginary exponent m'Ym + b.m + c0
    # with b = Y eps + 2 Im z and c0 = eps'Y eps/4 + eps.Im z.
    rng = np.random.default_rng(2029)
    cases = []
    for g, radii in ((4, range(4, 10)), (5, range(3, 6))):
        for radius in radii:
            q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            y = q @ np.diag(rng.uniform(0.3, 2.0, g)) @ q.T
            cases.append(((y + y.T) / 2, radius))
    # the ill-conditioned Im tau of the overflow test
    cases += [(0.35 * np.eye(4) + 14.9 * np.ones((4, 4)), radius) for radius in range(4, 10)]
    for y, radius in cases:
        g = len(y)
        cutoff = np.linalg.eigvalsh(y)[0] * (radius + 0.5) ** 2
        for _ in range(3):
            eps = rng.integers(0, 2, g).astype(float)
            zim = rng.uniform(-0.2, 0.2, g)
            zim *= min(1.0, 0.2 / np.linalg.norm(zim))  # |Im z| <= 0.2
            b, c0 = y @ eps + 2.0 * zim, eps @ y @ eps / 4.0 + eps @ zim
            cut, box = _both_passes(monkeypatch, g, radius, y, b, c0, cutoff)
            assert 0 < len(box[0]) < (2 * radius + 1) ** g
            _assert_same_rows(cut, box)


def _assert_same_rows(got, want):
    # rows and exponents, or classes and rows, each byte for byte
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _spy_line_values(monkeypatch):
    # the Schur complement S and the line values of every _line_cut call,
    # as the cut computes them
    calls, real = [], theta._line_cut

    def spy(g, radius, a, line_value, cutoff):
        def recorded(heads, s):
            calls.append((s, line_value(heads, s)))
            return calls[-1][1]

        return real(g, radius, a, recorded, cutoff)

    monkeypatch.setattr(theta, "_line_cut", spy)
    return calls


def test_line_cut_keeps_a_row_at_its_line_minimum(monkeypatch):
    # The rounding slack at work, in both forms of the cut.  Put a line's
    # minimum on a box row and C just above that row's computed value; the
    # line's computed value then often lies at or above C, so the line is
    # kept only through the slack, and the cut must still keep the row.
    # (No input was found on which the slack without its Schur size term
    # fails; see _line_cut.)
    g = 4
    rng = np.random.default_rng(1)
    calls = _spy_line_values(monkeypatch)
    # A single evaluation on a near-singular Y: the exponent's minimum along
    # the line of p0 sits at t0, and the cut must match the box pass.
    radius = 5
    heads, points = theta._lines(g, radius)
    above = 0
    for _ in range(20):
        yg, col = 0.01, rng.uniform(-1.0, 1.0, g - 1)
        y = np.empty((g, g))
        y[:-1, :-1] = np.outer(col, col) / yg + 0.01 * np.eye(g - 1)
        y[:-1, -1] = y[-1, :-1] = col
        y[-1, -1] = yg
        p0, t0 = rng.integers(-radius, radius + 1, g - 1), rng.integers(-radius, radius + 1)
        b = np.append(rng.uniform(-1.0, 1.0, g - 1), -2.0 * (yg * t0 + col @ p0))
        c0 = rng.uniform(-1.0, 1.0)
        line = np.flatnonzero((heads == p0).all(axis=1))[0]
        pos = line * (2 * radius + 1) + t0 + radius
        cutoff = np.nextafter(theta._exponents(oracle_lattice(g, radius), y, b, c0)[pos], np.inf)
        calls.clear()
        cut, box = _both_passes(monkeypatch, g, radius, y, b, c0, cutoff)
        (kept,) = np.flatnonzero(_lex_index(box[0], radius) == pos)
        assert np.array_equal(box[0][kept], points[line, t0 + radius])
        _assert_same_rows(cut, box)
        above += calls[-1][1][line] >= cutoff
    assert above > 0
    # A table, on a Y >= 0 whose S is near-singular along the all-ones p:
    # the row (c, .., c, -c - 1) reaches its line's value p'Sp +
    # sum_k min(0, (Sp)_k) - c_max up to 1'S1/4, which is at the size of
    # the rounding, and the cut must keep the reference rows.
    radius = 9
    heads = theta._lines(g, radius)[0]
    box = oracle_lattice(g, radius)
    proj = np.eye(g - 1) - 1.0 / (g - 1)
    above = admitted = 0
    while admitted < 20:
        col = rng.uniform(0.5, 1.5, g - 1)
        near = proj @ np.diag(rng.uniform(0.001, 0.01, g - 1)) @ proj + 10 ** rng.uniform(-14, -13.7) * np.eye(g - 1)
        y = np.empty((g, g))
        y[:-1, :-1] = np.outer(col, col) / col.sum() + near
        y[:-1, -1] = y[-1, :-1] = col
        y[-1, -1] = col.sum()
        try:
            tau = PeriodMatrix(1j * (y + y.T) / 2)
        except ValueError:  # lambda_min not certified
            continue
        admitted += 1
        c = int(rng.integers(1 - radius, -radius // 2))
        line = np.flatnonzero((heads == c).all(axis=1))[0]
        pos = line * (2 * radius + 1) - c - 1 + radius
        cutoff = float(np.nextafter(theta._lower_bound(box, tau._y)[pos], np.inf))
        calls.clear()
        got = theta._table_rows(tau, radius, cutoff)
        assert pos in _lex_index(got[1], radius)
        _assert_same_rows(got, _reference_rows(tau, radius, cutoff))
        above += calls[-1][1][line] >= cutoff
    assert above > 0


def test_lines_index_the_box():
    # Row p of the index holds the points (p, -R)..(p, R) as int8, so read
    # row by row it is the box in lex order, and the heads p run in lex
    # order.  g = 2, R = 64 is the largest radius: its side, 129, does not
    # fit an int8.
    for g, radius in ((2, 64), (4, 6), (4, 8), (5, 4)):
        heads, points = theta._lines(g, radius)
        side = 2 * radius + 1
        assert points.dtype == np.int8 and points.shape == (side ** (g - 1), side, g)
        box = oracle_lattice(g, radius)
        lex = np.indices((side,) * (g - 1)).reshape(g - 1, -1).T - radius
        assert heads.dtype == float and np.array_equal(heads, lex)
        assert box.tobytes() == points.reshape(-1, g).astype(float).tobytes()
        assert np.array_equal(points[:, :, :-1], np.repeat(heads[:, None], side, axis=1))


def test_box_caps_must_fit_the_line_index_types():
    # _lines keeps coordinates as int8: raising the radius cap past it
    # stops the import of theta.
    source = inspect.getsource(theta)
    old, new = "_MAX_RADIUS = 64", "_MAX_RADIUS = 128"
    assert source.count(old) == 1
    code = compile(source.replace(old, new), theta.__file__, "exec")
    with pytest.raises(InvariantError, match="int8"):
        exec(code, {"__name__": "thetachar.theta_caps", "__package__": "thetachar"})


def test_line_cut_at_the_largest_radius_matches_the_box(monkeypatch):
    # g = 2, R = _MAX_RADIUS: box coordinates run up to +-64, and 0..2R
    # does not fit an int8; the line cut still keeps the box pass's rows.
    g, radius = 2, theta._MAX_RADIUS
    assert (2 * radius + 1) ** g > theta._LINE_CUT
    y = np.array([[0.002, 0.0002], [0.0002, 0.0005]])
    rng = np.random.default_rng(64)
    for _ in range(3):
        b, c0 = rng.uniform(-0.05, 0.05, g), rng.uniform(-0.1, 0.1)
        cutoff = 0.002 * (radius - 10) ** 2
        cut, box = _both_passes(monkeypatch, g, radius, y, b, c0, cutoff)
        assert 0 < len(box[0]) < (2 * radius + 1) ** g
        assert np.abs(box[0][:, -1]).max() == radius  # the cut reaches the box's edge
        _assert_same_rows(cut, box)


def test_single_evaluation_memory_is_the_kept_points_not_the_box():
    # A warm theta_report at g = 4, radius 8 keeps 4,843 of the 83,521 box
    # points; its working memory must stay below one box-sized float array
    # (N g 8 bytes), which a pass over the whole box exceeds.
    tau = PeriodMatrix(np.array(THIN_G4_TAU) + 1j * np.array(THIN_G4_IM))
    c = Characteristic(4, 0b1010, 0b0110)
    theta_report(tau, THIN_G4_Z, c)
    tracemalloc.start()
    try:
        report = theta_report(tau, THIN_G4_Z, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = (2 * report["radius"] + 1) ** 4
    assert report["radius"] == 8 and report["points"] == 4843
    assert peak < box * 4 * 8


def test_cold_line_cut_builds_no_float_box():
    # A cold theta_report on a box above _LINE_CUT reads the lines of the
    # compact index only: no other box index appears, and its peak memory
    # stays below one box-sized float array (N g 8 bytes).
    tau = PeriodMatrix(np.array(THIN_G4_TAU) + 1j * np.array(THIN_G4_IM))
    c = Characteristic(4, 0b1010, 0b0110)
    for cache in (theta._lines, theta._box):
        cache.cache_clear()
    tracemalloc.start()
    try:
        report = theta_report(tau, THIN_G4_Z, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    box = (2 * report["radius"] + 1) ** 4
    assert report["radius"] == 8 and box > theta._LINE_CUT
    assert theta._lines.cache_info().currsize == 1
    assert peak < box * 4 * 8


def test_box_indexes_match_the_ndindex_oracle():
    # The box index lists the box in np.ndindex order: the line index read
    # row by row.
    for g, radius in ((1, 1), (1, 3), (2, 6), (3, 5), (4, 4), (4, 8)):
        want = oracle_lattice(g, radius)
        got = theta._lines(g, radius)[1].reshape(-1, g).astype(float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_block_diagonal_theta_factorizes():
    joint = block_diag(TAU_I, TAU_G1)
    assert joint.g == 2
    assert joint.tau[0, 1] == 0
    for c1 in enumerate_forms(1):
        for c2 in enumerate_forms(1):
            c = Characteristic(
                2, (c1.eps << 1) | c2.eps, (c1.delta << 1) | c2.delta
            )
            prod = theta_constant(TAU_I, c1) * theta_constant(TAU_G1, c2)
            assert abs(theta_constant(joint, c) - prod) < 1e-11
