"""Acceptance battery: one test per shipped criterion.

The battery itself lives in grkoszul.selftest and is shared with the
`grkoszul selftest` subcommand; it is run once per session here.  CPU-time
budgets are pinned inside the battery (criterion 1: 1 s, criterion 3: 1 s,
criterion 5: 60 s, criterion 7: 120 s, whole battery: 300 s) and a budget
overrun fails the criterion itself.
"""

import time
from fractions import Fraction

import pytest

from grkoszul import alcove, rep_homology, selftest
from grkoszul.selftest import run_selftest


@pytest.fixture(scope="module")
def battery():
    results = run_selftest()
    return {res.number: res for res in results}


def _assert_criterion(battery, number):
    res = battery[number]
    assert res.passed, "criterion %d (%s) failed:\n%s" % (
        number, res.name, "\n".join(res.details))


def test_criterion_1_b5_suite(battery):
    _assert_criterion(battery, 1)


def test_criterion_2_standard_costandard_orthogonality(battery):
    _assert_criterion(battery, 2)


def test_criterion_3_koszul_discrimination(battery):
    _assert_criterion(battery, 3)


def test_criterion_4_gr_ext1_agreement(battery):
    _assert_criterion(battery, 4)


def test_criterion_5_kl_inversion_engine(battery):
    _assert_criterion(battery, 5)


def test_criterion_6_layer_prediction_cross_validation(battery):
    _assert_criterion(battery, 6)


def test_criterion_7_numerical_bound_battery(battery):
    _assert_criterion(battery, 7)


def test_criterion_8_character_formula_evaluation(battery):
    _assert_criterion(battery, 8)


def test_criterion_9_koszulity_transfer_pipeline(battery):
    _assert_criterion(battery, 9)


@pytest.mark.parametrize("exponent", [-1, 1.0, Fraction(1, 2)],
                         ids=["negative", "float", "half"])
def test_criterion_5_rejects_an_exponent_that_is_not_a_natural_int(monkeypatch, exponent):
    # a zero coefficient leaves the inversion identity and the shape checks
    # intact, so only the exponent check can fail
    real = selftest.load_or_build_tables

    def tampered(rd, e, max_length):
        tables = real(rd, e, max_length)
        tables.inverse[(1, 1)] = {0: 1, exponent: 0}
        return tables

    monkeypatch.setattr(selftest, "load_or_build_tables", tampered)
    passed, details = selftest.criterion_kl_engine()
    assert not passed
    assert all(d.endswith("shape=true parity=false") for d in details)


# criterion -> the distinct modules, (algebra object, content), it covers in
# one round; the criteria not named cover none
COVERED_MODULES = {1: 8, 2: 9, 3: 3, 4: 18, 7: 12, 9: 29}


def test_each_criterion_covers_each_distinct_module_once(monkeypatch):
    """Covers are memoised per module content on the algebra, and every
    resolution grows from them, so one round builds each cover once."""
    real = rep_homology.projective_cover
    built = []

    def counting(rep):
        built.append((rep.algebra, rep_homology._content(rep)))
        return real(rep)

    monkeypatch.setattr(rep_homology, "projective_cover", counting)
    for number, name, criterion in selftest.CRITERIA:
        built.clear()
        assert criterion()[0], name
        distinct = {(id(algebra), content) for algebra, content in built}
        assert len(built) == len(distinct) == COVERED_MODULES.get(number, 0), name


def test_bound_battery_verifies_each_distinct_ideal_once(monkeypatch):
    """Weight ideals are interned on their root datum, so one call of
    criterion 7 proves each distinct ideal closed once: 123 ideals, where
    closing every requested ideal afresh verified 226.  The second call
    repeats the count, so nothing outlives the data a call builds."""
    real = alcove._positive_root_closure
    verified = []

    def counting(rd, weights):
        verified.append((rd.cartan_type, rd.rank, frozenset(weights)))
        return real(rd, weights)

    monkeypatch.setattr(alcove, "_positive_root_closure", counting)
    for _ in range(2):
        verified.clear()
        assert selftest.criterion_bound_battery()[0]
        assert len(verified) == len(set(verified)) == 123


def test_full_battery_runtime_budget(battery):
    total = sum(res.seconds for res in battery.values())
    assert total < 300.0, "battery took %.1f s, budget is 300 s" % total


def test_budget_counts_cpu_time_not_waiting(monkeypatch):
    def waits():
        time.sleep(0.3)
        return True, []

    def spins():
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
        return True, []

    monkeypatch.setattr(selftest, "CRITERIA", ((1, "waits", waits), (3, "spins", spins)))
    monkeypatch.setattr(selftest, "_BUDGET_SECONDS", {1: 0.2, 3: 0.2})
    waited, spun = run_selftest()
    assert waited.passed and waited.details == []
    assert not spun.passed
    assert spun.details[-1].startswith("runtime_budget_exceeded=")
