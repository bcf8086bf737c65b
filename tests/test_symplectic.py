"""Symplectic F2 arithmetic: pairing, quadratic forms, Arf, Sp action."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    gf2_matvec,
    mat_mul,
    oracle_arf,
    oracle_form_eval,
    oracle_sp_apply_form,
    tuple_pairing,
)
from thetachar import symplectic
from thetachar.characteristics import sp_group_order
from thetachar.symplectic import (
    Characteristic,
    F2Vector,
    SpMatrix,
    arf,
    enumerate_forms,
    eval_form,
    form_difference,
    random_symplectic,
    sp_apply,
    translate_form,
    transvection,
    weil_pairing,
)


def identity(g):
    return SpMatrix(g, tuple(1 << (2 * g - 1 - i) for i in range(2 * g)))


def vec(bits):
    """The vector with coordinates bits, e-coordinates first."""
    g = len(bits) // 2
    return F2Vector(g, int(bits[:g], 2), int(bits[g:], 2))


def form(bits):
    """The form with basis values bits, e-values first."""
    g = len(bits) // 2
    return Characteristic.from_string(bits[:g] + ";" + bits[g:])


def basis_values(q):
    return tuple(int(b) for b in q.bits if b != ";")


def all_vectors(g):
    return [F2Vector.from_packed(g, p) for p in range(1 << (2 * g))]


def test_pairing_on_basis_pairs():
    assert weil_pairing(vec("10"), vec("01")) == 1
    assert weil_pairing(vec("10"), vec("10")) == 0
    assert weil_pairing(vec("1000"), vec("0100")) == 0  # e1, e2 isotropic


def test_pairing_rejects_genus_mismatch():
    with pytest.raises(ValueError):
        weil_pairing(vec("10"), vec("1000"))


@given(st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
def test_pairing_is_bilinear_and_alternating(g, rnd):
    u, v, w = (F2Vector.from_packed(g, rnd.randrange(1 << (2 * g))) for _ in range(3))
    assert weil_pairing(u, u) == 0
    assert weil_pairing(u, v) == weil_pairing(v, u)
    assert weil_pairing(u + v, w) == weil_pairing(u, w) ^ weil_pairing(v, w)


def test_pairing_matches_tuple_oracle_exhaustively_g2():
    g = 2
    for u in all_vectors(g):
        for v in all_vectors(g):
            ut = tuple(int(b) for b in u.bits)
            vt = tuple(int(b) for b in v.bits)
            assert weil_pairing(u, v) == tuple_pairing(ut, vt, g)


def test_pairing_is_nondegenerate_up_to_g6():
    for g in range(1, 7):
        basis = [F2Vector.from_packed(g, 1 << k) for k in range(2 * g)]
        for u in basis:
            assert any(weil_pairing(u, v) for v in basis)


def test_eval_form_forced_by_polarity():
    assert eval_form(form("00"), vec("11")) == 1
    assert eval_form(form("0000"), vec("1111")) == 0
    for q in enumerate_forms(2):
        assert eval_form(q, F2Vector(2, 0, 0)) == 0


def test_eval_form_matches_expansion_oracle():
    for g in (1, 2):
        for q in enumerate_forms(g):
            basis_vals = basis_values(q)
            for x in all_vectors(g):
                xt = tuple(int(b) for b in x.bits)
                assert eval_form(q, x) == oracle_form_eval(basis_vals, xt, g)


def test_polarity_identity_exhaustive_g3():
    g = 3
    vectors = all_vectors(g)
    q = form("101110")
    for x in vectors:
        for y in vectors:
            assert eval_form(q, x + y) == (
                eval_form(q, x) ^ eval_form(q, y) ^ weil_pairing(x, y)
            )


@given(
    st.integers(min_value=4, max_value=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25)
def test_polarity_identity_randomized_large_genus(g, rnd):
    q = Characteristic(g, rnd.randrange(1 << g), rnd.randrange(1 << g))
    for _ in range(20):
        x = F2Vector.from_packed(g, rnd.randrange(1 << (2 * g)))
        y = F2Vector.from_packed(g, rnd.randrange(1 << (2 * g)))
        assert eval_form(q, x + y) == (
            eval_form(q, x) ^ eval_form(q, y) ^ weil_pairing(x, y)
        )


def test_arf_small_cases():
    assert arf(form("00")) == 0
    assert arf(form("11")) == 1
    assert sum(1 for q in enumerate_forms(3) if arf(q) == 0) == 36


def test_arf_matches_zero_count_oracle():
    for g in (1, 2):
        for q in enumerate_forms(g):
            assert arf(q) == oracle_arf(basis_values(q), g)


def test_form_counts_match_closed_formulas():
    for g in range(1, 7):
        even = 2 ** (g - 1) * (2**g + 1)
        odd = 2 ** (g - 1) * (2**g - 1)
        assert len(enumerate_forms(g, "even")) == even
        assert len(enumerate_forms(g, "odd")) == odd
        assert len(enumerate_forms(g)) == even + odd == 1 << (2 * g)


def test_enumerate_forms_guards():
    with pytest.raises(ValueError):
        enumerate_forms(9)
    with pytest.raises(ValueError):
        enumerate_forms(2, "weird")
    assert len(enumerate_forms(1, "even")) == 3
    assert len(enumerate_forms(2, "odd")) == 6
    assert len(enumerate_forms(4)) == 256


def test_translate_form_examples():
    q = form("00")
    assert translate_form(q, F2Vector(1, 0, 0)) == q
    # v = e1 pairs to 1 against f1 only, so q' flips exactly the f1 value
    assert translate_form(q, vec("10")) == form("01")
    for v in all_vectors(2):
        q2 = form("0110")
        assert translate_form(translate_form(q2, v), v) == q2


def test_translate_flips_arf_exactly_where_q_is_one():
    # arf(q+v) = arf(q) + q(v), so the flip set is the support of q:
    # 6 vectors for an even form, 10 for an odd one (g=2)
    for q in enumerate_forms(2):
        flips = {v.packed for v in all_vectors(2) if arf(translate_form(q, v)) != arf(q)}
        support = {v.packed for v in all_vectors(2) if eval_form(q, v) == 1}
        assert flips == support
        assert len(flips) == (6 if arf(q) == 0 else 10)


def test_form_difference_inverts_translation():
    q = form("01")
    assert form_difference(q, q).is_zero
    assert form_difference(form("00"), form("01")) == vec("10")
    for g in (1, 2, 3):
        q0 = Characteristic(g, 0, (1 << g) - 1)
        for v in all_vectors(g):
            assert form_difference(q0, translate_form(q0, v)) == v


def test_sp_apply_identity_and_swap():
    q = form("10")
    m = identity(1)
    assert sp_apply(m, q) == q
    assert sp_apply(m, vec("01")) == vec("01")
    swap = SpMatrix(1, (0b01, 0b10))
    assert sp_apply(swap, form("10")) == form("01")
    assert arf(sp_apply(swap, form("10"))) == arf(form("10")) == 0


def test_sp_matrix_constructor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SpMatrix(1, (0b10, 0b10))
    with pytest.raises(ValueError):
        SpMatrix(1, (0b11, 0b11))


def test_sp_matrix_accepts_exactly_the_group():
    # every 2g x 2g bit matrix at g = 1, 2; the accepted set is closed under
    # transposition, so the row check M J M^T = J is the column check too
    for g in (1, 2):
        n = 2 * g
        accepted = set()
        for rows in itertools.product(range(1 << n), repeat=n):
            try:
                SpMatrix(g, rows)
            except ValueError:
                continue
            accepted.add(rows)
        assert len(accepted) == sp_group_order(g)
        for rows in accepted:
            cols = tuple(
                sum((rows[i] >> (n - 1 - j) & 1) << (n - 1 - i) for i in range(n))
                for j in range(n)
            )
            assert cols in accepted


def test_random_symplectic_is_the_product_of_its_transvections():
    # the same draws replayed through transvection and mat_mul; the digest
    # pins the matrices themselves, taken from the transpose-based version
    digest = hashlib.sha256()
    for g in range(1, 6):
        for seed in range(48):
            m = random_symplectic(g, random.Random(seed))
            rng = random.Random(seed)
            product = identity(g)
            for _ in range(rng.randint(2 * g, 4 * g)):
                v = F2Vector.from_packed(g, rng.randrange(1, 1 << (2 * g)))
                product = mat_mul(product, transvection(v))
            assert m == product
            digest.update(repr(m.rows).encode())
    assert digest.hexdigest() == "2d27821361074bae3b0dd8da7e35642dc303ba8460744a908ad2954900ea11d5"


def test_transvections_are_involutions_fixing_their_vector():
    rnd = random.Random(11)
    for g in (1, 2, 3):
        for _ in range(10):
            v = F2Vector.from_packed(g, rnd.randrange(1, 1 << (2 * g)))
            t = transvection(v)
            assert sp_apply(t, v) == v
            assert mat_mul(t, t) == identity(g)


def test_sp_action_is_compatible_with_translation():
    rnd = random.Random(3)
    g = 2
    m = random_symplectic(g, rnd)
    for q in enumerate_forms(g):
        for v in all_vectors(g):
            lhs = sp_apply(m, translate_form(q, v))
            rhs = translate_form(sp_apply(m, q), sp_apply(m, v))
            assert lhs == rhs


def test_random_symplectic_preserves_pairing_and_arf():
    rnd = random.Random(20240)
    for g in (1, 2, 3, 4):
        for _ in range(25):
            m = random_symplectic(g, rnd)
            u = F2Vector.from_packed(g, rnd.randrange(1 << (2 * g)))
            v = F2Vector.from_packed(g, rnd.randrange(1 << (2 * g)))
            assert weil_pairing(sp_apply(m, u), sp_apply(m, v)) == weil_pairing(u, v)
            q = Characteristic(g, rnd.randrange(1 << g), rnd.randrange(1 << g))
            assert arf(sp_apply(m, q)) == arf(q)


def test_sp_apply_matches_inverse_and_evaluate_oracle():
    # every form and vector at g <= 4, 64 sampled of each at g = 5..8: forms
    # against the inverse-and-evaluate oracle, vectors against the
    # row-by-row product; an image equals and hashes as the checked object
    rnd = random.Random(1972)
    for g, n_matrices in ((1, 300), (2, 300), (3, 300), (4, 30), (5, 8), (6, 8), (7, 8), (8, 8)):
        if g <= 4:
            forms, vectors = enumerate_forms(g), all_vectors(g)
        else:
            forms = [
                Characteristic(g, rnd.randrange(1 << g), rnd.randrange(1 << g)) for _ in range(64)
            ]
            vectors = [F2Vector.from_packed(g, rnd.randrange(1 << (2 * g))) for _ in range(64)]
        for _ in range(n_matrices):
            m = random_symplectic(g, rnd)
            for q in forms:
                got = sp_apply(m, q)
                want = Characteristic(g, *oracle_sp_apply_form(m.rows, g, q.eps, q.delta))
                assert got == want and hash(got) == hash(want) and type(got) is Characteristic
            for v in vectors:
                assert sp_apply(m, v) == F2Vector.from_packed(g, gf2_matvec(m.rows, v.packed))


def test_sp_apply_is_capped_at_the_enumeration_genus(monkeypatch):
    # the half tables take 2^g entries each: g = 8 is the last genus served
    # (test_sp_apply_matches_inverse_and_evaluate_oracle checks it against
    # gf2_matvec), and g = 9 raises before any table is spanned
    assert symplectic.EXHAUSTIVE_GENUS_CAP == 8
    spans = []
    monkeypatch.setattr(symplectic, "_span", lambda basis: spans.append(basis))
    m = random_symplectic(9, random.Random(9))
    for t in (F2Vector.from_packed(9, 1), Characteristic(9, 1, 0)):
        with pytest.raises(ValueError, match=r"capped at genus 8 \(EXHAUSTIVE_GENUS_CAP\)"):
            sp_apply(m, t)
    assert spans == []


def test_sp_orbit_covers_each_parity_class():
    # products of random generators reach every form of the same parity
    for g in (1, 2):
        rnd = random.Random(g)
        start = Characteristic(g, 0, 0)
        seen = {start}
        current = start
        for _ in range(4000):
            t = transvection(F2Vector.from_packed(g, rnd.randrange(1, 1 << 2 * g)))
            current = sp_apply(t, current)
            seen.add(current)
        assert seen == set(enumerate_forms(g, "even"))


def test_serialization_round_trips():
    v = vec("101101")
    assert v.bits == "101101"
    assert F2Vector.from_packed(3, v.packed) == v
    q = Characteristic(3, 0b101, 0b110)
    assert Characteristic.from_string(q.bits) == q
    assert Characteristic.from_packed(3, 0b101110) == q
    assert q.packed == 0b101110
    for g in range(1, 5):
        assert [c.packed for c in enumerate_forms(g)] == list(range(1 << (2 * g)))


def test_vector_validation():
    with pytest.raises(ValueError):
        F2Vector(0, 0, 0)
    with pytest.raises(ValueError):
        F2Vector(2, 4, 0)
    with pytest.raises(ValueError):
        F2Vector(2, 0, 4)


def test_eval_uniquely_determined_by_basis_values_g2():
    # two forms agreeing on the basis agree everywhere (here: all forms, all x)
    g = 2
    table = {}
    for q in enumerate_forms(g):
        key = tuple(eval_form(q, x) for x in all_vectors(g))
        table[basis_values(q)] = key
    assert len(set(table.values())) == len(table) == 16
    for q in enumerate_forms(g):
        vals = table[basis_values(q)]
        packed = [
            vals[x.packed]
            for x in [F2Vector.from_packed(g, 1 << k) for k in range(2 * g - 1, -1, -1)]
        ]
        assert tuple(packed) == basis_values(q)
