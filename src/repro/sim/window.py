"""The drive loop every ``System.run`` dispatches through.

:func:`run_closed_form` runs one phase of a simulation (warmup, or the
rest) on the engine's ordinary heap.  Its name and signature are
pinned: the benchmark's outside-in tracer (``perfbench/tracing.py``)
wraps this module attribute as a ``sim`` span, so ``System.run`` looks
it up through the module on every call.
"""

from __future__ import annotations

from typing import Optional


def run_closed_form(system, warmup_threshold: Optional[int] = None,
                    max_events: Optional[int] = None) -> None:
    """Run the system's engine until its queue drains or a callback
    halts it.  With ``warmup_threshold`` set, the controller's warmup
    halt is armed first, so the run stops right after the event during
    which the scheme's miss count reaches the threshold.  ``max_events``
    is the engine's watchdog (:meth:`repro.sim.engine.Engine.run`)."""
    if warmup_threshold is not None:
        system.controller.arm_warmup_halt(warmup_threshold)
    system.engine.run(max_events=max_events)
