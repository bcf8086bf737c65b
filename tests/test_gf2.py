"""Laws for the bit-packed GF(2) kernel (parity, span, rank) and for the oracles' rref and products."""

import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, strategies as st

from oracles import gf2_inv, gf2_matvec, gf2_mul, rref
from thetachar.gf2 import _span, gf2_rank, parity

row_lists = st.lists(st.integers(min_value=0, max_value=255), max_size=7)


def span_of(rows):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


@given(row_lists)
def test_rref_is_idempotent_and_spans_the_same_set(rows):
    base = rref(rows)
    assert rref(base) == base
    assert span_of(base) == span_of(rows)


@given(row_lists)
def test_rank_is_the_dimension_of_the_span(rows):
    assert gf2_rank(rows) == len(rref(rows))
    assert 2 ** gf2_rank(rows) == len(span_of(rows))


@given(row_lists)
def test_span_entry_i_sums_the_rows_at_the_set_bits_of_i(rows):
    # the order the coset keys, the half tables and the even spans read
    span = _span(rows)
    assert len(span) == 1 << len(rows)
    for i, x in enumerate(span):
        assert x == reduce(xor, (row for j, row in enumerate(rows) if i >> j & 1), 0)
    assert set(span) == span_of(rows)


@given(row_lists, st.randoms(use_true_random=False))
def test_rref_is_invariant_under_row_operations(rows, rnd):
    mixed = list(rows)
    for _ in range(10):
        if len(mixed) < 2:
            break
        i, j = rnd.sample(range(len(mixed)), 2)
        mixed[i] ^= mixed[j]
    rnd.shuffle(mixed)
    assert rref(mixed) == rref(rows)


@given(row_lists)
def test_rank_bounds(rows):
    r = gf2_rank(rows)
    assert 0 <= r <= len(rows)
    assert r <= 8  # rows fit in 8 bits


def test_rref_pivot_shape():
    # pivots strictly decrease and each pivot column is cleared elsewhere
    rows = [0b1101, 0b0111, 0b1010, 0b1101]
    base = rref(rows)
    pivots = [r.bit_length() - 1 for r in base]
    assert pivots == sorted(pivots, reverse=True)
    for i, r in enumerate(base):
        for j, p in enumerate(pivots):
            if i != j:
                assert not r >> p & 1


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_inverse_round_trip(n, rnd):
    rows = [rnd.randrange(1 << n) for _ in range(n)]
    ident = [1 << (n - 1 - i) for i in range(n)]
    if gf2_rank(rows) < n:
        with pytest.raises(ValueError):
            gf2_inv(rows)
    else:
        inv = gf2_inv(rows)
        assert gf2_mul(rows, inv) == ident
        assert gf2_mul(inv, rows) == ident


def test_matvec_matches_column_picking():
    rows = [0b110, 0b011, 0b101]
    # A @ e_k is column k; columns are read off the rows directly
    for k in range(3):
        v = 1 << (2 - k)
        col = sum((rows[i] >> (2 - k) & 1) << (2 - i) for i in range(3))
        assert gf2_matvec(rows, v) == col


@given(st.integers(min_value=0))
def test_parity_is_popcount_mod_2(x):
    assert parity(x) == bin(x).count("1") % 2


def test_products_compose_as_maps():
    rnd = random.Random(8)
    for _ in range(300):
        n = rnd.randrange(1, 9)
        a, b = ([rnd.randrange(1 << n) for _ in range(n)] for _ in range(2))
        v = rnd.randrange(1 << n)
        assert gf2_matvec(gf2_mul(a, b), v) == gf2_matvec(a, gf2_matvec(b, v))


def test_random_products_associate():
    rnd = random.Random(5)
    for _ in range(20):
        n = rnd.randrange(1, 6)
        a, b, c = ([rnd.randrange(1 << n) for _ in range(n)] for _ in range(3))
        assert gf2_mul(gf2_mul(a, b), c) == gf2_mul(a, gf2_mul(b, c))
