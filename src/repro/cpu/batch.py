"""Retired: the batch engine's controller twin.

Every run now takes one core (:class:`repro.cpu.core.Core`) and one
controller (:class:`repro.cpu.controller.FlatMemoryController`).  This
empty subclass is never instantiated; it stays only because the
benchmark's outside-in tracer (``perfbench/tracing.py``) imports it by
name and looks for controller hooks defined on it.
"""

from repro.cpu.controller import FlatMemoryController


class BatchFlatMemoryController(FlatMemoryController):
    pass
