"""Bank advance-by-window: :meth:`Bank.prepare_window` folds a run of
same-row accesses (the batch engine's ``Channel.issue_window`` path).
The contract everywhere is *bit-identity* with the per-access
``prepare`` path — equality assertions here are exact (``==``), never
approx.
"""

import math

import pytest

from repro.dram.bank import Bank
from repro.dram.timing import DDR3_TIMINGS, HBM2_TIMINGS


@pytest.fixture(params=[HBM2_TIMINGS, DDR3_TIMINGS],
                ids=["hbm2", "ddr3"])
def timings(request):
    return request.param


def _twin_banks(timings):
    return Bank(timings), Bank(timings)


def _timing_state(bank):
    """Everything ``prepare`` reads or writes, counters excluded."""
    return (bank.open_row, bank.ready, bank._activated_at)


# ---------------------------------------------------------------------------
# prepare_window vs sequential prepare
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("count", [1, 2, 3, 8, 17])
def test_window_matches_sequential_from_closed_bank(timings, count):
    bank, twin = _twin_banks(timings)
    window = bank.prepare_window(4, count, 100.0)
    sequential = [twin.prepare(4, 100.0) for _ in range(count)]
    assert window == sequential  # exact, including float bit patterns
    assert _timing_state(bank) == _timing_state(twin)
    assert bank.stats.__dict__ == twin.stats.__dict__


@pytest.mark.parametrize("count", [1, 4])
def test_window_matches_sequential_on_row_hit(timings, count):
    bank, twin = _twin_banks(timings)
    bank.prepare(4, 0.0)
    twin.prepare(4, 0.0)
    assert (bank.prepare_window(4, count, 200.0)
            == [twin.prepare(4, 200.0) for _ in range(count)])
    assert _timing_state(bank) == _timing_state(twin)
    assert bank.stats.__dict__ == twin.stats.__dict__


@pytest.mark.parametrize("count", [1, 4])
def test_window_matches_sequential_on_row_conflict(timings, count):
    bank, twin = _twin_banks(timings)
    bank.prepare(9, 0.0)
    twin.prepare(9, 0.0)
    assert (bank.prepare_window(4, count, 5.0)
            == [twin.prepare(4, 5.0) for _ in range(count)])
    assert _timing_state(bank) == _timing_state(twin)
    assert bank.stats.__dict__ == twin.stats.__dict__


def test_window_results_are_monotone_and_gapped(timings):
    """Later accesses in a window finish exactly one column gap apart
    (the open row streams at the column-to-column rate)."""
    bank = Bank(timings)
    ready = bank.prepare_window(4, 6, 0.0)
    ccd = timings.t_ccd * timings.cpu_cycles_per_mem
    for earlier, later in zip(ready, ready[1:]):
        assert math.isclose(later - earlier, ccd)


def test_window_leaves_bank_ready_for_the_next_hit(timings):
    """The access *after* a window is a row hit continuing the same CAS
    chain, exactly as after the equivalent sequential calls."""
    bank, twin = _twin_banks(timings)
    bank.prepare_window(4, 5, 0.0)
    for _ in range(5):
        twin.prepare(4, 0.0)
    assert bank.prepare(4, 0.0) == twin.prepare(4, 0.0)
