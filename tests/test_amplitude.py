"""Totally-even subspaces, the theta-product forms P_i and the combination Xi.

Totally-even subspace counts per dimension were frozen from the naive
span-building oracle: g=1 -> [1, 2], g=2 -> [1, 9, 6], g=3 -> [1, 35, 105,
30], g=4 -> [1, 135, 1575, 2025, 270].  Genus <= 2 is re-derived live.
"""

import hashlib
import random

import numpy as np
import pytest

from oracles import oracle_subspace_bases, oracle_subspace_counts, parity, totally_singular_count
from thetachar import amplitude, theta
from thetachar.amplitude import P_i_g, factorization_residual, xi_g, _even_spans, _halved
from thetachar.symplectic import _isotropic_bases
from thetachar.theta import PeriodMatrix, Tolerance, block_diag, theta_constant_table

TAU_I = PeriodMatrix([[1j]])
TAU_B = PeriodMatrix([[0.5 + 1j]])
TAU_G2 = PeriodMatrix([[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.3j]])

EVEN_COUNTS = {
    1: [1, 2],
    2: [1, 9, 6],
    3: [1, 35, 105, 30],
    4: [1, 135, 1575, 2025, 270],
}


def oracle_even_spans(g, i):
    """The totally-even i-dim spans in F2^2g, from oracle_subspace_bases(2g).

    Each span is its ascending elements; the spans keep the oracle's
    (descending pivots, rows) order.
    """
    spans = []
    for basis in oracle_subspace_bases(2 * g)[i]:
        span = {0}
        for row in basis:
            span |= {x ^ row for x in span}
        if all(parity(x >> g, x & ((1 << g) - 1)) == 0 for x in span):
            spans.append(sorted(span))
    return spans


def table_product(table, g, span):
    """Product of the theta_constant_table entries over a span of packed characteristics."""
    prod = 1 + 0j
    for x in span:
        prod *= complex(table[int(x) >> g, int(x) & ((1 << g) - 1)])
    return prod


def test_totally_even_counts_against_oracle_and_frozen_values():
    for g in (1, 2):
        for i in range(g + 1):
            total, even = oracle_subspace_counts(g, i)
            assert len(oracle_subspace_bases(2 * g)[i]) == total
            assert len(oracle_even_spans(g, i)) == even == EVEN_COUNTS[g][i]
    for i in range(4):
        assert len(oracle_even_spans(3, i)) == EVEN_COUNTS[3][i]


def test_even_span_cache_matches_frozen_g4_counts():
    # the heavy classification is cached per (g, i); g=4 is the cap
    for i in range(5):
        assert len(_even_spans(4, i)) == EVEN_COUNTS[4][i]


def test_even_spans_match_filtered_enumeration_in_order():
    # the generator against "enumerate every subspace, then filter", row for row
    for g in (1, 2, 3):
        for i in range(g + 1):
            rows = oracle_even_spans(g, i)
            want = np.array(rows, dtype=np.intp).reshape(len(rows), 1 << i)
            got = _even_spans(g, i)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_genus_4_subspaces_are_frozen():
    # sha256 of dtype, shape and bytes of each span array, and of the repr of
    # every isotropic level; frozen from the extend-and-dedup generator
    spans = [
        "8229783c01ac4fc3cc556e93fb5b57db5cf118b39a768f10edf034f236f2ea1c",
        "5f2c2f543872f3e875d6772c215f9d5247e51edc0ec6a6b754cf0573f15e382f",
        "25a79840ae07c88706fc7ea92091736c6e199a75fecccafe5b5e39672ea5f706",
        "6ea56c9f893aa113b870f378a580684e41d4012d1798848651dab304a85e41da",
        "4ae816b47737d63bc687b648c4bb0a634c0dcbd4a91bbd7f22defe4fecbeceb6",
    ]
    for i, digest in enumerate(spans):
        a = _even_spans(4, i)
        data = str(a.dtype).encode() + repr(a.shape).encode() + a.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest, i
    levels = repr(_isotropic_bases(4, False)).encode()
    assert hashlib.sha256(levels).hexdigest() == (
        "2c5627ca62b308b15f63a481cb9197cd06062569577a5110578d0372bf3c88a0"
    )


def test_totally_singular_counts_match_closed_form():
    for g in range(1, 5):
        counts = [len(level) for level in _isotropic_bases(g, True)]
        assert counts == [totally_singular_count(g, i) for i in range(g + 1)]
        assert counts == EVEN_COUNTS[g]


def test_P_i_g_small_cases():
    table = theta_constant_table(TAU_I)
    t00, t01, t10 = table[0, 0], table[0, 1], table[1, 0]
    assert abs(P_i_g(TAU_I, 1, 0) - t00**16) < 1e-9
    want = (t00 * t01) ** 8 + (t00 * t10) ** 8
    assert abs(P_i_g(TAU_I, 1, 1) - want) < 1e-9


def test_P_i_g_sums_only_over_totally_even_planes():
    table = theta_constant_table(TAU_G2)
    planes = oracle_even_spans(2, 2)
    manual = sum(table_product(table, 2, s) ** 4 for s in planes)
    assert len(oracle_subspace_bases(4)[2]) == 35 and len(planes) == 6
    got = P_i_g(TAU_G2, 2, 2)
    assert abs(got - manual) < 1e-12 * max(1.0, abs(manual))


def test_P_i_g_is_deterministic_and_order_insensitive():
    assert P_i_g(TAU_G2, 2, 1) == P_i_g(TAU_G2, 2, 1)
    table = theta_constant_table(TAU_G2)
    lines = oracle_even_spans(2, 1)
    rnd = random.Random(5)
    rnd.shuffle(lines)
    reordered = sum(table_product(table, 2, s) ** 8 for s in lines)
    got = P_i_g(TAU_G2, 2, 1)
    assert abs(got - reordered) < 1e-12 * max(1.0, abs(got))


def test_P_i_g_gather_matches_loop_over_spans():
    # the array gather against a plain product-and-sum over the span rows
    rnd = random.Random(31)
    for g in (3, 4):
        entries = [[0j] * g for _ in range(g)]
        for a in range(g):
            for b in range(a, g):
                re = rnd.uniform(-0.3, 0.3)
                im = rnd.uniform(0.8, 1.1) if a == b else rnd.uniform(-0.05, 0.05)
                entries[a][b] = entries[b][a] = complex(re, im)
        tau = PeriodMatrix(entries)
        table = theta_constant_table(tau)
        for i in range(g + 1):
            want = sum(table_product(table, g, row) ** (1 << (4 - i)) for row in _even_spans(g, i))
            got = P_i_g(tau, g, i)
            assert abs(got - want) < 1e-13 * abs(want)


def test_P_i_g_guards():
    with pytest.raises(ValueError):
        P_i_g(TAU_I, 5, 0)
    with pytest.raises(ValueError):
        P_i_g(TAU_I, 1, 2)
    with pytest.raises(ValueError):
        P_i_g(TAU_G2, 1, 0)  # genus mismatch with tau


def _level_by_level(table, g):
    """P_0..P_g from a table as P_i_g summed each level on its own."""
    out = []
    for i in range(g + 1):
        terms = _halved(table.ravel()[np.ascontiguousarray(_even_spans(g, i).T)])
        for _ in range(4 - i):
            terms = terms * terms
        out.append(complex(np.sum(terms)))
    return out


def test_level_sums_are_cached_with_their_table(monkeypatch):
    g = 3
    tau = PeriodMatrix([[1.1j, 0.2 + 0.05j, 0], [0.2 + 0.05j, 0.9j, -0.1], [0, -0.1, 1.3j]])
    theta._table.cache_clear()
    table = theta_constant_table(tau)
    sums = amplitude._level_sums(tau, Tolerance())
    assert list(sums) == _level_by_level(table, g)  # bit for bit
    assert amplitude._level_sums(tau, 1e-12) is sums
    assert [P_i_g(tau, g, i) for i in range(g + 1)] == list(sums)
    assert amplitude._xi_terms(tau, g, Tolerance())[1] is sums
    # another tolerance is another entry, beside the first
    loose = amplitude._level_sums(tau, Tolerance(1e-6))
    assert loose is not sums
    assert list(loose) == _level_by_level(theta_constant_table(tau, 1e-6), g)
    assert amplitude._level_sums(tau, 1e-6) is loose
    assert amplitude._level_sums(tau, Tolerance()) is sums
    # a new kernel and a cleared table cache: the sums follow the new table
    signs, phases = theta._signs_and_phases(g)
    monkeypatch.setattr(theta, "_signs_and_phases", lambda _: (signs, 2.0 * phases))
    theta._table.cache_clear()
    doubled = theta_constant_table(tau)
    assert np.array_equal(doubled, 2.0 * table)
    assert [P_i_g(tau, g, i) for i in range(g + 1)] == _level_by_level(doubled, g)
    assert [P_i_g(tau, g, i) for i in range(g + 1)] == [2.0**16 * p for p in sums]
    xi, terms = amplitude._xi_terms(tau, g, Tolerance())
    assert xi == xi_g(tau, g) and list(terms) == _level_by_level(doubled, g)
    monkeypatch.undo()
    theta._table.cache_clear()
    assert amplitude._level_sums(tau, Tolerance()) == sums


def test_amplitude_guards_fire_before_any_work(monkeypatch):
    work = []
    monkeypatch.setattr(amplitude, "theta_constant_table", lambda *args: work.append(args))
    monkeypatch.setattr(amplitude, "_sum_levels", lambda *args: work.append(args))
    tau5 = PeriodMatrix(np.eye(5) * 1j)
    cases = [
        (lambda: P_i_g(TAU_G2, 1, 0), "g=1 does not match tau"),
        (lambda: P_i_g(TAU_I, 5, 0), "g=5 does not match tau"),
        (lambda: P_i_g(tau5, 5, 0), "g=5 > 4: exponent"),
        (lambda: P_i_g(TAU_I, 1, 2), "need 0 <= i <= g, got i=2, g=1"),
        (lambda: P_i_g(TAU_I, 1, -1), "need 0 <= i <= g"),
        (lambda: xi_g(TAU_I, 5), "need 1 <= g <= 4, got 5"),
        (lambda: xi_g(tau5, 5), "need 1 <= g <= 4, got 5"),
        (lambda: xi_g(TAU_G2, 1), "g=1 does not match tau"),
        (lambda: xi_g(TAU_I, 0), "need 1 <= g <= 4, got 0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()
    assert work == []


def test_xi_g1_is_the_classical_measure():
    rnd = random.Random(123)
    for _ in range(5):
        tau = PeriodMatrix([[rnd.uniform(-0.4, 0.4) + 1j * rnd.uniform(0.7, 2.0)]])
        table = theta_constant_table(tau)
        want = table[0, 0] ** 8 * (table[0, 1] * table[1, 0]) ** 4
        got = xi_g(tau, 1)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_xi_is_a_modular_form_of_weight_8():
    # Xi(tau + B) = Xi(tau) for integral symmetric B with even diagonal, and
    # Xi(-tau^-1) = det(tau)^8 Xi(tau).  Im tau has its spectrum in
    # [0.6, 1.4] and Re tau is small, so lambda_min(Im) >= 0.5 on both sides
    # of each pair (asserted).
    rng = np.random.default_rng(808)
    for g in (2, 3, 4):
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            y = q @ np.diag(rng.uniform(0.6, 1.4, g)) @ q.T
            x = rng.uniform(-0.15, 0.15, (g, g))
            tau = (x + x.T) / 2 + 1j * (y + y.T) / 2
            b = np.triu(rng.integers(-1, 2, (g, g)), 1)
            b = b + b.T + np.diag(2 * rng.integers(-1, 2, g))
            inv = -np.linalg.inv(tau)
            xi = xi_g(PeriodMatrix(tau), g)
            for image, factor in ((tau + b, 1.0), ((inv + inv.T) / 2, np.linalg.det(tau) ** 8)):
                assert np.linalg.eigvalsh(image.imag)[0] >= 0.5
                got, want = xi_g(PeriodMatrix(image), g), factor * xi
                assert abs(got - want) <= 1e-10 * max(abs(got), abs(want))


def test_xi_guards():
    with pytest.raises(ValueError):
        xi_g(TAU_I, 5)
    with pytest.raises(ValueError):
        xi_g(TAU_G2, 1)


def test_factorization_residuals():
    assert factorization_residual(2, 1, TAU_I, TAU_I) < 1e-8
    tau2 = block_diag(TAU_I, TAU_B)
    assert factorization_residual(3, 1, TAU_I, tau2) < 1e-7
    with pytest.raises(ValueError):
        factorization_residual(1, 1, TAU_I, TAU_I)
    with pytest.raises(ValueError):
        factorization_residual(5, 1, TAU_I, TAU_I)


def test_nested_splits_agree_at_g3():
    tau_pair = block_diag(TAU_I, TAU_B)
    left = xi_g(TAU_I, 1) * xi_g(tau_pair, 2)
    right = xi_g(block_diag(TAU_I, TAU_I), 2) * xi_g(TAU_B, 1)
    full = xi_g(block_diag(TAU_I, tau_pair), 3)
    assert abs(full - left) < 1e-7 * max(1.0, abs(left))
    assert abs(full - right) < 1e-7 * max(1.0, abs(right))
