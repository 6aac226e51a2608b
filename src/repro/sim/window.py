"""The batch engine's drive loop.

:func:`run_closed_form` is what ``System.run`` calls to dispatch a
batch-mode run on the engine's ordinary heap.  Its name and signature
are pinned: the benchmark's outside-in tracer (``perfbench/tracing.py``)
wraps this module attribute as a ``sim`` span, so ``System.run`` looks
it up through the module on every call.
"""

from __future__ import annotations

from typing import Optional


def run_closed_form(system, warmup_threshold: Optional[int] = None) -> None:
    """Run the system's engine until its queue drains or a callback
    halts it.  With ``warmup_threshold`` set, the batch controller's
    warmup halt is armed first, so the run stops right after the event
    during which the scheme's miss count crosses the threshold."""
    if warmup_threshold is not None:
        system.controller.arm_warmup_halt(warmup_threshold)
    system.engine.run()
