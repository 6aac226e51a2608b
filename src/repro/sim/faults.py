"""Test-only fault injection for the mutation self-tests.

A check that never fails proves nothing.  This module lets the mutation
self-tests (``tests/integration/test_batch_mutations.py``) seed three
deliberate, realistic bugs and assert the checks trip on each:

``window-off-by-one``
    The trace generator resumes the next window one record early,
    duplicating the window-boundary access (the classic off-by-one in
    window chunking).
``drop-row-close``
    The channel issue step treats a row-buffer conflict as a row hit,
    skipping the precharge/activate sequence (a dropped row close).
``stale-busy``
    The channel issue step computes timing from the bank but never
    advances the bank's busy-until (``ready``) time, so later requests
    see a stale bank state.

The two DRAM faults hook the one bank-timing call site
(``Channel._issue`` calls :func:`bank_prepare` instead of
``Bank.prepare``).  Every run generates its trace in windows and runs
that one data plane, so the committed golden ``RunResult`` files are
the reference each fault must make a run diverge from, at any
generation window.

Normal operation: ``ACTIVE`` is ``None`` and every hook site reduces to
one module-global load plus an ``is None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager

#: the currently injected fault name, or None (production value).
ACTIVE = None

#: the fault names the hook sites know how to apply.
KNOWN = ("window-off-by-one", "drop-row-close", "stale-busy")


@contextmanager
def inject(name: str):
    """Activate fault ``name`` for the duration of the ``with`` block."""
    global ACTIVE
    if name not in KNOWN:
        raise ValueError(f"unknown fault {name!r}; known: {KNOWN}")
    if ACTIVE is not None:
        raise RuntimeError(f"fault {ACTIVE!r} already active")
    ACTIVE = name
    try:
        yield
    finally:
        ACTIVE = None


def bank_prepare(bank, row: int, now: float) -> float:
    """Fault-aware stand-in for ``Bank.prepare`` in ``Channel._issue``
    (only called when a fault is active)."""
    if ACTIVE == "drop-row-close":
        # BUG: a conflict is mis-classified as a hit — the open row is
        # never closed, so the precharge + activate latency vanishes.
        if bank.open_row is not None and bank.open_row != row:
            bank.open_row = row  # pretend the row was already open
        return bank.prepare(row, now)
    if ACTIVE == "stale-busy":
        # BUG: timing is computed but the bank's busy-until time is
        # left stale, so the next request overlaps illegally.
        ready_before = bank.ready
        done = bank.prepare(row, now)
        bank.ready = ready_before
        return done
    return bank.prepare(row, now)
