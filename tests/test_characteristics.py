"""Characteristic calculus: parity, syzygy tests, tetrads and systems.

Frozen counts (tetrads 60 at g=2, Gopel 6/60, fundamental 1/16) were
produced by the brute-force enumerations in oracles.py before this module
existed; the heavier cross-checks below re-derive them in-process.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import thetachar
from oracles import (
    gopel_coset_count,
    is_azygetic_triple,
    isotropic_plane_count,
    krazer_count,
    lagrangian_count,
    oracle_extend_systems,
    oracle_fundamental_systems,
    oracle_gopel_systems,
    oracle_isotropic_bases,
    oracle_isotropic_cosets,
    oracle_syzygetic_tetrads,
    packed_odds,
    rref,
    sp_order,
)
from thetachar.characteristics import (
    _aronhold_structure_ok,
    _extend_systems,
    _isotropic_cosets,
    CharSystem,
    Characteristic,
    all_characteristics,
    char_difference,
    difference_rank,
    enumerate_fundamental_systems,
    enumerate_gopel_systems,
    enumerate_syzygetic_tetrads,
    fundamental_system_count,
    is_syzygetic,
    quartic_coordinate_check,
    sp_group_order,
    triple_sum,
)
from thetachar.symplectic import (
    F2Vector,
    _isotropic_bases,
    _pairing_masks,
    arf,
    enumerate_forms,
    eval_form,
    random_symplectic,
    sp_apply,
    translate_form,
    weil_pairing,
)


def ch(text):
    return Characteristic.from_string(text)


def as_pair(c):
    return (c.eps, c.delta)


def test_parity_counts():
    for g in (1, 2, 3):
        chars = all_characteristics(g)
        assert len(chars) == 1 << (2 * g)
        odd = sum(c.parity for c in chars)
        assert odd == 2 ** (g - 1) * (2**g - 1)


def test_char_form_dictionary():
    # eps = (q(e_1), ..., q(e_g)) and delta = (q(f_1), ..., q(f_g))
    for g in (1, 2, 3):
        for c in all_characteristics(g):
            basis = [F2Vector.from_packed(g, 1 << k) for k in range(2 * g - 1, -1, -1)]
            values = "".join(str(eval_form(c, x)) for x in basis)
            assert values[:g] + ";" + values[g:] == c.bits
    # [1;1] is the unique odd form at g=1
    odd = [c for c in all_characteristics(1) if c.parity == 1]
    assert odd == [ch("1;1")]
    assert arf(ch("1;1")) == 1
    # one list, in one order, under both names
    assert all_characteristics(2) == enumerate_forms(2)
    assert [Characteristic.from_packed(2, p) for p in range(16)] == all_characteristics(2)


def test_parity_equals_arf_up_to_g3():
    for g in (1, 2, 3):
        for c in all_characteristics(g):
            assert c.parity == arf(c)


def test_triple_sum_is_xor():
    a, b = ch("01;10"), ch("11;00")
    assert triple_sum(a, a, b) == b
    assert triple_sum(ch("0;0"), ch("0;1"), ch("1;0")) == ch("1;1")


def test_triple_sum_agrees_with_extended_space_arithmetic():
    # q_a + (q_a - q_b) + (q_a - q_c) in the extended space, all 16^3 triples
    chars = all_characteristics(2)
    for a, b, c in itertools.product(chars, repeat=3):
        v = char_difference(a, b) + char_difference(a, c)
        expected = translate_form(a, v)
        assert triple_sum(a, b, c) == expected


def test_is_syzygetic_examples():
    assert not is_syzygetic(ch("0;0"), ch("0;1"), ch("1;0"))  # azygetic
    odds = [c for c in all_characteristics(2) if c.parity == 1]
    assert len(odds) == 6
    triples = list(itertools.combinations(odds, 3))
    assert len(triples) == 20
    for a, b, c in triples:
        assert not is_syzygetic(a, b, c)


def test_is_syzygetic_rejects_repeats():
    a, b = ch("0;0"), ch("1;0")
    with pytest.raises(ValueError):
        is_syzygetic(a, a, b)


def test_is_syzygetic_matches_oracle_exhaustively():
    for g in (1, 2):
        for a, b, c in itertools.combinations(all_characteristics(g), 3):
            assert is_syzygetic(a, b, c) == (
                not is_azygetic_triple(as_pair(a), as_pair(b), as_pair(c))
            )


def test_is_syzygetic_dual_criteria_agree_at_g3():
    # the function computes the arf-sum and pairing criteria and checks they
    # match internally; drive it through 10^5 random distinct triples
    rnd = random.Random(97)
    chars = all_characteristics(3)
    for _ in range(100_000):
        a, b, c = rnd.sample(chars, 3)
        is_syzygetic(a, b, c)


def test_syzygy_cross_check_survives_python_O():
    # python -O strips assert statements; a broken pairing must still raise,
    # and the CLI must still report it as an invariant violation (exit 1)
    code = "\n".join([
        "import thetachar.characteristics as ch",
        "from thetachar.cli import run",
        "from thetachar.config import InvariantError",
        "real = ch._packed_pairing",
        "ch._packed_pairing = lambda u, v, g: 1 - real(u, v, g)",
        "a, b, c = ch.all_characteristics(2)[:3]",
        "try:",
        "    ch.is_syzygetic(a, b, c)",
        "except InvariantError:",
        "    print('raised', __debug__, run(['systems', '--genus', '1', '--kind', 'fundamental']))",
    ])
    src = str(Path(thetachar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.stdout == "raised False 1\n", proc.stderr
    assert "invariant violation" in proc.stderr


def test_tetrad_enumeration():
    assert enumerate_syzygetic_tetrads(1) == []
    tetrads = enumerate_syzygetic_tetrads(2)
    assert len(tetrads) == 60
    got = {frozenset(as_pair(c) for c in t) for t in tetrads}
    assert got == oracle_syzygetic_tetrads(2)
    for t in tetrads:
        for a, b, c in itertools.combinations(t, 3):
            assert is_syzygetic(a, b, c)


def test_tetrad_closure_under_triple_sum():
    # each tetrad is {a, b, c, a+b+c}, so any three members sum into the set
    for t in enumerate_syzygetic_tetrads(2):
        for a, b, c in itertools.combinations(t, 3):
            assert triple_sum(a, b, c) in t


def test_fundamental_systems_small_genus():
    g1 = enumerate_fundamental_systems(1)
    assert len(g1) == 1
    assert set(g1[0].members) == set(all_characteristics(1))

    g2 = enumerate_fundamental_systems(2)
    assert len(g2) == 16
    odds = CharSystem.sorted_system(
        c for c in all_characteristics(2) if c.parity == 1
    )
    assert odds in g2
    for system in g2:
        assert system.member_sum == (0, 0)
        for a, b, c in itertools.combinations(system.members, 3):
            assert not is_syzygetic(a, b, c)


def test_fundamental_systems_match_unpruned_oracle():
    for g in (1, 2):
        got = {
            frozenset(as_pair(c) for c in s.members)
            for s in enumerate_fundamental_systems(g)
        }
        want = {frozenset(s) for s in oracle_fundamental_systems(g)}
        assert got == want


def test_azygetic_search_matches_plain_backtracker():
    # same tuples in the same order as the pairing-per-candidate search
    for g in (1, 2):
        got = list(_extend_systems(range(4**g), g, 2 * g + 2))
        assert got == list(oracle_extend_systems(range(4**g), g, 2 * g + 2))
        assert len(got) == krazer_count(g)
    odds = packed_odds(3)
    assert len(odds) == 28
    got = list(_extend_systems(odds, 3, 7))
    assert len(got) == 288
    assert got == list(oracle_extend_systems(odds, 3, 7))


def test_pairing_masks_match_weil_pairing():
    for g in (1, 2, 3):
        masks = _pairing_masks(g)
        assert len(masks) == 4**g
        vectors = [F2Vector.from_packed(g, p) for p in range(4**g)]
        for d, u in enumerate(vectors):
            assert masks[d] >> 4**g == 0
            for t, v in enumerate(vectors):
                assert masks[d] >> t & 1 == weil_pairing(u, v)


def test_fundamental_count_formula():
    assert sp_group_order(1) == sp_order(1) == 6
    assert sp_group_order(3) == sp_order(3) == 1451520
    assert fundamental_system_count(1) == 1
    assert fundamental_system_count(2) == 16
    assert fundamental_system_count(3) == krazer_count(3) == 2304


def test_fundamental_systems_are_sp_stable():
    for g in (1, 2):
        rnd = random.Random(g + 40)
        systems = {
            frozenset(s.members) for s in enumerate_fundamental_systems(g)
        }
        m = random_symplectic(g, rnd)
        for s in list(systems)[:6]:
            image = frozenset(sp_apply(m, c) for c in s)
            assert image in systems


def test_gopel_systems():
    g1 = enumerate_gopel_systems(1)
    assert len(g1) == 6
    assert all(len(s.members) == 2 for s in g1)

    g2 = enumerate_gopel_systems(2)
    assert len(g2) == 60
    for s in g2:
        assert len(s.members) == 4
        # classical closure: three members sum to the fourth
        for a, b, c in itertools.combinations(s.members, 3):
            assert triple_sum(a, b, c) in s.members
        assert difference_rank(s) == 2


def test_difference_rank_matches_the_difference_vectors():
    # the rank of the block-swapped differences, by the oracle elimination
    rnd = random.Random(23)
    for g in (1, 2, 3):
        chars = all_characteristics(g)
        for _ in range(100):
            system = CharSystem(g, tuple(rnd.sample(chars, rnd.randint(1, min(8, len(chars))))))
            first = system.members[0]
            vectors = [char_difference(first, m).packed for m in system.members[1:]]
            assert difference_rank(system) == len(rref(vectors))


def test_gopel_systems_match_oracle():
    for g in (1, 2):
        got = {
            frozenset(as_pair(c) for c in s.members)
            for s in enumerate_gopel_systems(g)
        }
        want = {frozenset(s) for s in oracle_gopel_systems(g)}
        assert got == want


def test_isotropic_counts_match_closed_forms():
    for g in (1, 2, 3):
        levels = _isotropic_bases(g, False)
        assert len(levels) == g + 1
        assert len(levels[g]) == lagrangian_count(g)
        planes = levels[2] if g >= 2 else ()
        assert len(planes) == isotropic_plane_count(g)
        gopel = _isotropic_cosets(g, g)
        assert len(gopel) == gopel_coset_count(g)
        assert all(len(s) == 2**g for s in gopel)
    assert _isotropic_cosets(1, 2) == []


def test_isotropic_bases_match_extend_and_dedup_oracle():
    # the reverse search against the rref-and-dedup extension, tuple for tuple
    for g in (1, 2, 3):
        for singular in (True, False):
            assert _isotropic_bases(g, singular) == oracle_isotropic_bases(g, singular)


def test_isotropic_cosets_match_sort_each_coset_oracle():
    # one sorted span per basis and packed int keys, against sorting every coset
    for g in (1, 2, 3):
        chars = all_characteristics(g)
        for dim in range(g + 2):
            want = [tuple(chars[x] for x in coset) for coset in oracle_isotropic_cosets(g, dim)]
            assert _isotropic_cosets(g, dim) == want, (g, dim)


def test_gopel_cosets_at_genus_3_are_maximal_syzygetic():
    systems = enumerate_gopel_systems(3)
    assert len(systems) == gopel_coset_count(3) == 1080
    assert [s.members for s in systems] == sorted(s.members for s in systems)
    # spot-check the coset description on a sample
    chars = all_characteristics(3)
    for system in systems[::97]:
        members = system.members
        assert difference_rank(system) == 3
        pairs = [as_pair(c) for c in members]
        assert not any(is_azygetic_triple(*t) for t in itertools.combinations(pairs, 3))
        for t in chars:
            if t not in members:
                assert any(
                    is_azygetic_triple(a, b, as_pair(t))
                    for a, b in itertools.combinations(pairs, 2)
                )


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_syzygetic_tetrads(4)
    with pytest.raises(ValueError):
        enumerate_fundamental_systems(3)
    with pytest.raises(ValueError):
        enumerate_gopel_systems(4)


def test_quartic_coordinate_check_census():
    report = quartic_coordinate_check()
    assert report["genus"] == 3
    assert report["odd_count"] == 28
    assert report["even_count"] == 36
    assert report["azygetic_odd_7set_count"] == 288
    assert report["counts_match_reference"] is True
    assert report["structure_failures"] == 0
    assert report["first_witness"] is None
    # the Krazer value counts full fundamental systems, not Aronhold 7-sets;
    # the report carries both without equating them
    assert report["krazer_formula_count"] == 2304


def test_aronhold_structure_check_rejects_a_planted_member():
    # the check reads the five- and three-sums off the pairwise sums; it
    # passes every census set and fails each set with one member swapped
    # for an odd characteristic outside it; odds and evens are 64-bit masks
    odds = set(packed_odds(3))
    odd_mask = sum(1 << p for p in odds)
    even_mask = (1 << 64) - 1 ^ odd_mask
    census = list(_extend_systems(sorted(odds), 3, 7))
    assert all(_aronhold_structure_ok(s, odd_mask, even_mask) for s in census)
    for members in census[::41]:
        for i in range(7):
            for other in odds - set(members):
                planted = members[:i] + (other,) + members[i + 1 :]
                assert not _aronhold_structure_ok(planted, odd_mask, even_mask)


def test_char_system_canonicalization_and_validation():
    a, b, c = ch("01;10"), ch("00;01"), ch("11;11")
    s = CharSystem.sorted_system([c, a, b])
    assert s.members == tuple(sorted([a, b, c], key=lambda x: (x.eps, x.delta)))
    with pytest.raises(ValueError):
        CharSystem(2, (a, a))
    with pytest.raises(ValueError):
        CharSystem(2, (a, ch("1;1")))


def test_characteristic_parsing_and_json():
    c = ch("101;110")
    assert c.g == 3 and c.eps == 0b101 and c.delta == 0b110
    assert c.bits == "101;110"
    assert c.to_json_dict() == {"eps": "5", "delta": "6", "parity": 1}
    with pytest.raises(ValueError):
        Characteristic.from_string("10;1")
    with pytest.raises(ValueError):
        Characteristic.from_string("ab;cd")
    with pytest.raises(ValueError):
        Characteristic(1, 2, 0)
