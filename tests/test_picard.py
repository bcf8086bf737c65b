"""Exact rational divisor-class arithmetic and the slope/verdict pipeline."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import oracle_named_class, oracle_slope_combination

from thetachar import picard, verify
from thetachar.cli import _plain, run
from thetachar.config import InvariantError
from thetachar.picard import (
    DivClass,
    basis_symbols,
    bn_applicable,
    canonical_class,
    general_type_test,
    named_class,
    pullback,
    resolve_space,
    slope_combination,
)
from thetachar.verify import run_acceptance

F = Fraction


def mbar(g, **coeffs):
    return DivClass("Mbar", g, coeffs)


def sbar(g, space="Sbar_minus", **coeffs):
    return DivClass(space, g, coeffs)


def test_basis_symbols():
    assert basis_symbols("Mbar", 5) == ("lambda", "delta_0", "delta_1", "delta_2")
    assert basis_symbols("Sbar_minus", 4) == (
        "lambda",
        "alpha_0",
        "beta_0",
        "alpha_1",
        "beta_1",
        "alpha_2",
        "beta_2",
    )
    with pytest.raises(ValueError):
        basis_symbols("Mbar", 1)
    with pytest.raises(ValueError):
        basis_symbols("Elsewhere", 5)


def test_space_aliases():
    assert resolve_space("odd") == "Sbar_minus"
    assert resolve_space("even") == "Sbar_plus"
    assert resolve_space("Sbar_plus") == "Sbar_plus"
    with pytest.raises(ValueError):
        resolve_space("both")


def test_divclass_canonicalization():
    a = mbar(4, delta_0=F(1, 2), **{"lambda": 0})
    assert a.coeffs == (("delta_0", F(1, 2)),)
    assert a.coeff("lambda") == 0
    assert a.coeff("delta_0") == F(1, 2)
    with pytest.raises(ValueError):
        mbar(4, delta_9=1)
    with pytest.raises(ValueError):
        DivClass("Mbar", 4, {"lambda": 0.25})  # floats never sneak in


def test_divclass_edge_cases():
    # a repeated symbol accumulates, and a sum that cancels to zero is dropped
    c = DivClass("Mbar", 5, (("lambda", 2), ("delta_1", F(1, 3)), ("lambda", F(-2))))
    assert c.coeffs == (("delta_1", F(1, 3)),)
    assert c.coeff("lambda") == 0
    assert c == mbar(5, delta_1=F(1, 3))
    # a Fraction coefficient is read back exactly
    x = F(10**30 + 1, 3**40)
    d = mbar(5, delta_2=x, **{"lambda": "7/12"})
    assert d.coeff("delta_2") == x
    assert d.coeff("lambda") == F(7, 12) and type(d.coeff("lambda")) is F
    # a float is rejected wherever a coefficient enters
    with pytest.raises(ValueError):
        DivClass("Mbar", 5, (("lambda", 1), ("lambda", 0.5)))
    with pytest.raises(ValueError):
        0.5 * d


SPIN6 = basis_symbols("Sbar_minus", 6)
# one term: a symbol, a value, its spelling, and the spelling of its negation
# when the term is cancelled again later in the list (None: not cancelled)
spelling_st = st.sampled_from(["int", "Fraction", "p/q"])
term_st = st.tuples(
    st.sampled_from(SPIN6),
    st.builds(F, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 4, 6, 8, 9, 16])),
    spelling_st,
    st.none() | spelling_st,
)


def _spell(x, spelling):
    """x as an int (when integral), a Fraction or a "p/q" string."""
    if spelling == "int" and x.denominator == 1:
        return int(x)
    if spelling == "p/q":
        return f"{x.numerator}/{x.denominator}"
    return x


@given(st.lists(term_st, max_size=12), st.randoms(use_true_random=False))
def test_constructor_agrees_with_a_plain_fraction_sum(terms, rng):
    pairs = [(sym, _spell(x, spelling)) for sym, x, spelling, _ in terms]
    pairs += [(sym, _spell(-x, undo)) for sym, x, _, undo in terms if undo]
    want = {s: sum((F(v) for t, v in pairs if t == s), F(0)) for s in SPIN6}
    c = DivClass("Sbar_minus", 6, pairs)
    nonzero = tuple((s, want[s]) for s in SPIN6 if want[s])
    assert c.coeffs == nonzero
    for s in SPIN6:
        assert c.coeff(s) == want[s] and type(c.coeff(s)) is F
    assert all(type(n) is int for n in (c._den, *c._num))
    rng.shuffle(pairs)
    for other in (DivClass("Sbar_minus", 6, pairs), DivClass("Sbar_minus", 6, dict(nonzero))):
        assert other == c and hash(other) == hash(c)
    assert (c == DivClass("Sbar_minus", 6)) == (not nonzero)
    assert _plain(c) == {
        "space": "Sbar_minus",
        "g": 6,
        "coeffs": {s: str(want[s]) for s in SPIN6},
    }


coeff_st = st.integers(min_value=-12, max_value=12).map(lambda n: F(n, 3))


@given(coeff_st, coeff_st, coeff_st)
def test_divclass_is_a_rational_vector_space(x, y, z):
    a = mbar(6, **{"lambda": x, "delta_0": y})
    b = mbar(6, **{"delta_0": z, "delta_3": x})
    assert (a + b).coeff("delta_0") == y + z
    assert (a + -1 * b).coeff("delta_3") == -x
    assert (3 * a).coeff("lambda") == 3 * x == (a * 3).coeff("lambda")
    assert (a + b) + -1 * b == a
    assert F(1, 2) * (a + a) == a


mixed_st = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]))
mbar7_st = st.dictionaries(st.sampled_from(basis_symbols("Mbar", 7)), mixed_st)


def _same_class(got, space, g, coeffs):
    want = DivClass(space, g, coeffs)
    assert got == want and hash(got) == hash(want)
    assert got.coeffs == want.coeffs
    assert _plain(got) == _plain(want)


@given(mbar7_st, mbar7_st, mixed_st)
def test_arithmetic_agrees_with_the_constructor(x, y, q):
    # classes that come out of +, scaling and pullback hold the same integer
    # numerators over one denominator as those built from coefficients
    a, b = DivClass("Mbar", 7, x), DivClass("Mbar", 7, y)
    syms = basis_symbols("Mbar", 7)
    _same_class(a + b, "Mbar", 7, {s: x.get(s, 0) + y.get(s, 0) for s in syms})
    _same_class(a + -1 * b, "Mbar", 7, {s: x.get(s, 0) - y.get(s, 0) for s in syms})
    _same_class(q * a, "Mbar", 7, {s: q * x.get(s, 0) for s in syms})
    d = [x.get(f"delta_{i}", 0) for i in range(4)]
    image = {"lambda": x.get("lambda", 0), "alpha_0": d[0], "beta_0": 2 * d[0]}
    for i in range(1, 4):
        image[f"alpha_{i}"] = image[f"beta_{i}"] = d[i]
    _same_class(pullback(a, "even"), "Sbar_plus", 7, image)
    halved = F(1, 2) * (a + a)
    assert halved == a and hash(halved) == hash(a)
    zero = a + (-1) * a
    assert zero == DivClass("Mbar", 7) and hash(zero) == hash(DivClass("Mbar", 7))
    assert zero.coeffs == ()
    for c in (a, a + b):
        with pytest.raises(AttributeError):
            c.g = 8
        with pytest.raises(AttributeError):
            c.coeffs = ()


def test_divclass_rendering():
    c = sbar(3, **{"lambda": 11, "alpha_0": F(-5, 4), "beta_0": -2})
    d = _plain(c)
    assert d["space"] == "Sbar_minus"
    assert (d["coeffs"]["lambda"], d["coeffs"]["beta_0"]) == ("11", "-2")
    assert d["coeffs"]["alpha_0"] == "-5/4"
    assert d["coeffs"]["alpha_1"] == "0"
    assert set(_plain(mbar(4))["coeffs"].values()) == {"0"}


def test_pullback_relations():
    g = 9
    assert pullback(mbar(g, delta_0=1)) == sbar(g, alpha_0=1, beta_0=2)
    assert pullback(mbar(g, **{"lambda": 1})) == sbar(g, **{"lambda": 1})
    got = pullback(mbar(g, **{"lambda": 13, "delta_0": -2}))
    assert got == sbar(g, **{"lambda": 13, "alpha_0": -2, "beta_0": -4})
    # linearity through the DivClass algebra
    got = pullback(2 * mbar(g, delta_0=1) + mbar(g, delta_1=1))
    assert got == sbar(g, alpha_0=2, beta_0=4, alpha_1=1, beta_1=1)
    for i in range(1, g // 2 + 1):
        image = pullback(mbar(g, **{f"delta_{i}": 1}))
        assert image.coeff(f"alpha_{i}") == image.coeff(f"beta_{i}") == 1
    with pytest.raises(ValueError):
        pullback(sbar(g, **{"lambda": 1}))


def test_canonical_classes():
    k = canonical_class(12, "Sbar_minus")
    assert k.coeff("lambda") == 13
    assert k.coeff("alpha_0") == -2
    assert k.coeff("beta_0") == -3
    assert k.coeff("alpha_1") == k.coeff("beta_1") == -3
    assert k.coeff("alpha_2") == -2
    km = canonical_class(12, "Mbar")
    assert km.coeff("delta_1") == -3
    assert km.coeff("delta_2") == -2
    with pytest.raises(ValueError, match=r"^canonical class supported for g >= 4, got 3$"):
        canonical_class(3, "Mbar")


def test_one_least_genus_for_the_canonical_shape(monkeypatch, capsys):
    # the canonical class, the slope combination normalized against its
    # shape and the CLI's classes report all read CANONICAL_MIN_GENUS
    assert picard.CANONICAL_MIN_GENUS == 4
    monkeypatch.setattr(picard, "CANONICAL_MIN_GENUS", 5)
    with pytest.raises(ValueError, match=r"^canonical class supported for g >= 5, got 4$"):
        canonical_class(4, "odd")
    with pytest.raises(ValueError, match=r"^slope combination needs g >= 5, got 4$"):
        slope_combination(4, "odd")
    for g, listed in ((4, False), (5, True)):
        assert run(["picard", "--genus", str(g), "--space", "even", "--report", "classes"]) == 0
        assert ("canonical" in json.loads(capsys.readouterr().out)["classes"]) is listed


def test_riemann_hurwitz_identity():
    # K on the spin space is the pullback of K downstairs plus the ramification
    for g in range(4, 31):
        for space in ("Sbar_minus", "Sbar_plus"):
            lhs = canonical_class(g, space)
            rhs = pullback(canonical_class(g, "Mbar"), space) + DivClass(
                space, g, {"beta_0": 1}
            )
            assert lhs == rhs


def test_named_classes():
    z3 = named_class(3, "Z_odd")
    assert z3 == sbar(
        3,
        **{"lambda": 11, "alpha_0": F(-5, 4), "beta_0": -2, "alpha_1": -4, "beta_1": -2},
    )
    t8 = named_class(8, "ThetaNull")
    assert t8.coeff("lambda") == F(1, 4)
    assert t8.coeff("alpha_0") == F(-1, 16)
    for i in range(1, 5):
        assert t8.coeff(f"beta_{i}") == F(-1, 2)
        assert t8.coeff(f"alpha_{i}") == 0
    bn23 = named_class(23, "BN_normalized")
    assert bn23.coeff("delta_0") == -4
    assert bn23.coeff("lambda") == 26
    assert bn23.coeff("delta_5") == -5 * 18
    with pytest.raises(ValueError):
        named_class(4, "Mystery")
    with pytest.raises(ValueError):
        named_class(2, "Z_odd")


def test_named_classes_match_the_symbol_formulas():
    # numerators over one denominator, against the {symbol: Fraction} formulas
    for name, low in (("Z_odd", 3), ("ThetaNull", 2), ("BN_normalized", 3)):
        for g in range(0, low):
            with pytest.raises(ValueError, match=f"^{name} needs g >= {low}, got {g}$"):
                named_class(g, name)
        for g in range(low, 41):
            space, coeffs = oracle_named_class(g, name)
            assert named_class(g, name) == DivClass(space, g, coeffs), (name, g)


def test_bn_applicability_flag():
    # usable when g+1 is composite
    assert bn_applicable(23)  # 24 composite
    assert bn_applicable(8)  # 9 composite
    assert not bn_applicable(12)  # 13 prime
    assert not bn_applicable(4)  # 5 prime


def test_slope_combination_closed_forms():
    for g in range(4, 31):
        odd = slope_combination(g, "Sbar_minus")
        assert odd.c_coefficient == F(3 * (3 * g - 10), (g + 1) * (g - 2))
        assert odd.lambda_slope == F(11 * g + 37, g + 1)
        even = slope_combination(g, "Sbar_plus")
        assert even.c_coefficient == F(9, g + 1)
        assert even.lambda_slope == F(11 * g + 29, g + 1)
        for res in (odd, even):
            assert res.c_coefficient > 0
            assert res.combined.coeff("alpha_0") == -2
            assert res.combined.coeff("beta_0") == -3
            assert res.combined.coeff("lambda") == res.lambda_slope


def test_slope_combination_matches_plain_fraction_oracle():
    # c, every coefficient, the lambda slope and the verdict, against the
    # combination solved on {symbol: Fraction} dictionaries
    for g in range(4, 61):
        for space in ("Sbar_minus", "Sbar_plus"):
            c, coeffs, verdict = oracle_slope_combination(g, space)
            res = slope_combination(g, space)
            assert type(res.c_coefficient) is Fraction and res.c_coefficient == c
            assert res.combined.space == space and res.combined.g == g
            for sym in basis_symbols(space, g):
                assert res.combined.coeff(sym) == coeffs.get(sym, 0), (g, space, sym)
            assert res.lambda_slope == coeffs["lambda"]
            assert general_type_test(g, space) == verdict


def test_slope_combination_g13_example():
    res = slope_combination(13, "Sbar_minus")
    assert res.lambda_slope == F(90, 7)
    assert res.lambda_slope < 13


def test_slope_result_serialization():
    res = slope_combination(12, "Sbar_minus")
    d = _plain(res)
    assert d["space"] == "Sbar_minus"
    assert d["lambda_slope"] == "13"
    assert d["c_coefficient"] == "3/5"
    assert d["bn_applicable"] is False
    assert isinstance(d["warnings"], list)


def test_general_type_verdicts():
    assert general_type_test(9, "Sbar_plus") == "general_type"
    assert general_type_test(8, "Sbar_plus") == "threshold"
    assert general_type_test(7, "Sbar_plus") == "inconclusive"
    assert general_type_test(12, "Sbar_minus") == "threshold"
    assert general_type_test(13, "Sbar_minus") == "general_type"
    assert general_type_test(11, "Sbar_minus") == "inconclusive"
    for g in range(13, 31):
        assert general_type_test(g, "odd") == "general_type"
    for g in range(9, 31):
        assert general_type_test(g, "even") == "general_type"
    with pytest.raises(ValueError, match=r"^slope combination needs g >= 4, got 3$"):
        general_type_test(3, "odd")


@pytest.mark.parametrize("g", [101, 1000, 4001])
def test_slope_closed_forms_at_large_genus(g):
    odd = slope_combination(g, "odd")
    assert odd.c_coefficient == F(3 * (3 * g - 10), (g + 1) * (g - 2))
    assert odd.lambda_slope == F(11 * g + 37, g + 1)
    even = slope_combination(g, "even")
    assert even.c_coefficient == F(9, g + 1)
    assert even.lambda_slope == F(11 * g + 29, g + 1)
    assert odd.warnings == even.warnings == ()
    assert general_type_test(g, "odd") == general_type_test(g, "even") == "general_type"


def test_bound_warnings_read_the_combined_coefficients(monkeypatch):
    # a pullback that drops every delta_i with i >= 1 leaves alpha_0, beta_0
    # and c alone, so the checks pass but the boundary bounds fail
    real = picard.pullback

    def truncated(c, space):
        image = real(c, space)
        return DivClass(space, c.g, {s: image.coeff(s) for s in ("lambda", "alpha_0", "beta_0")})

    monkeypatch.setattr(picard, "pullback", truncated)
    for g in (5, 12, 17):
        for space in ("Sbar_minus", "Sbar_plus"):
            res = slope_combination(g, space)
            want = []
            for i in range(1, g // 2 + 1):
                for label, sym in (("a", "alpha"), ("b", "beta")):
                    value = -res.combined.coeff(f"{sym}_{i}")
                    if i == 1 and not value > 3:
                        want.append(f"{label}_{i} = {value} fails the bound > 3")
                    elif i > 1 and not value >= 2:
                        want.append(f"{label}_{i} = {value} fails the bound >= 2")
            assert res.warnings == tuple(want) != ()
    # at g = 12, b_i = 4i/10 on the odd cover: b_5 = 2 meets its bound exactly
    assert slope_combination(12, "odd").warnings == (
        "b_1 = 2/5 fails the bound > 3",
        "b_2 = 4/5 fails the bound >= 2",
        "b_3 = 6/5 fails the bound >= 2",
        "b_4 = 8/5 fails the bound >= 2",
    )


def test_a_wrong_pullback_is_caught_at_run_time(monkeypatch):
    # the mutant forgets the ramification along B_0: delta_0 -> alpha_0 + beta_0
    def unramified(c, space="Sbar_minus"):
        image = {"lambda": c.coeff("lambda")}
        for i in range(c.g // 2 + 1):
            image[f"alpha_{i}"] = image[f"beta_{i}"] = c.coeff(f"delta_{i}")
        return DivClass(space, c.g, image)

    monkeypatch.setattr(picard, "pullback", unramified)
    monkeypatch.setattr(verify, "pullback", unramified)
    with pytest.raises(InvariantError, match="not -2"):
        slope_combination(12, "odd")
    canonical, slopes = run_acceptance(only=[11, 12]).results
    assert not canonical.passed and not slopes.passed
    assert canonical.details == "K identity fails on Sbar_minus at g=4"
    assert slopes.details == "InvariantError: c = 6/5 gives alpha_0 = -5/2, not -2"
