"""The fourteen acceptance criteria, one test each.

Every test runs its criterion through the same engine as `thetachar
verify` (default seed), prints the criterion's result, and pins
the stated time budget where one exists.  A failure here is a contract
violation, not a flaky test: nothing in this file is tolerance-tuned
beyond the gates the criteria themselves define.
"""

import time

from thetachar.verify import run_acceptance


def _run(index, budget=None):
    t0 = time.perf_counter()
    report = run_acceptance(only=[index])
    elapsed = time.perf_counter() - t0
    (result,) = report.results
    print(result)
    assert result.passed, f"criterion {index} ({result.name}): {result.details}"
    if budget is not None:
        assert elapsed < budget, f"criterion {index} took {elapsed:.2f}s (budget {budget}s)"
    return result


def test_01_form_counts():
    _run(1, budget=1.0)


def test_02_arf_sp_invariance():
    _run(2, budget=10.0)


def test_03_fundamental_systems():
    _run(3, budget=60.0)


def test_04_genus2_azygetic_structure():
    _run(4, budget=1.0)


def test_05_theta_parity_vanishing():
    _run(5, budget=30.0)


def test_06_theta_constant_value():
    _run(6)


def test_07_initial_condition():
    _run(7)


def test_08_factorization():
    _run(8, budget=600.0)


def test_09_spin_fibre_length():
    _run(9, budget=30.0)


def test_10_boundary_degree_identities():
    _run(10)


def test_11_canonical_class_identity():
    _run(11)


def test_12_slopes_and_verdicts():
    _run(12, budget=5.0)


def test_13_aronhold_census():
    _run(13, budget=1.0)


def test_14_single_values_against_the_table():
    _run(14, budget=5.0)
