"""The ``access_fast`` contract, access by access.

Every run tries :meth:`MemoryScheme.access_fast` before building a plan
(unless an oracle or a span recorder is attached), so its contract is
checked here directly, on twin instances of each overriding scheme fed
the same miss sequence — one twin answers through ``access_fast``
(falling back to ``access`` when it declines), the other always through
``access``:

* a non-``None`` answer equals the plan's single critical-path op, and
  the plan carries no background traffic;
* a ``None`` answer leaves the scheme exactly as it was ("return
  ``None`` before mutating any state");
* after every access both twins hold equal ``stats`` and agree on
  ``locate()`` for every address touched so far, and both pass
  ``check_invariants()``.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import SCHEMES
from repro.schemes.base import Level
from repro.schemes.pom import PomScheme
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES, default_config
from repro.xmem.address import AddressSpace

#: one registered key per scheme class that overrides ``access_fast``
FAST_SCHEMES = ("rand", "cam", "camp", "pom", "hma", "silc", "alloy")
#: a small flat space, and misses drawn from a few of its blocks, so a
#: short sequence revisits, conflicts and migrates
NM_BYTES = 4 * BLOCK_BYTES
FM_BYTES = 16 * BLOCK_BYTES
BLOCKS = 12
#: a far-memory address every scheme accepts
FM_ADDR = NM_BYTES + 3 * BLOCK_BYTES

misses = st.lists(
    st.tuples(st.integers(0, BLOCKS - 1),
              st.integers(0, BLOCK_BYTES // SUBBLOCK_BYTES - 1),
              st.booleans(),
              st.integers(0, 3)),
    min_size=1, max_size=200)


#: PoM at a low migration threshold, so short sequences migrate
FACTORIES = {"pom": lambda space, _config: PomScheme(space, threshold=3)}


def _twins(key):
    config = default_config(scale=0.25)
    factory = FACTORIES.get(key, SCHEMES[key].factory)
    return [factory(AddressSpace(NM_BYTES, FM_BYTES), config)
            for _ in range(2)]


@pytest.mark.parametrize("key", FAST_SCHEMES)
@settings(deadline=None, max_examples=60)
@given(sequence=misses)
def test_access_fast_agrees_with_access(key, sequence):
    fast_scheme, plan_scheme = _twins(key)
    # fm_only schemes (nonm, alloy) only ever see far-memory frames
    fm_only = SCHEMES[key].alloc_policy == "fm_only"
    touched = {}
    for block, sub, is_write, pc_index in sequence:
        if fm_only:
            block += NM_BYTES // BLOCK_BYTES
        paddr = block * BLOCK_BYTES + sub * SUBBLOCK_BYTES
        pc = (1 << 40) + pc_index * 4
        touched[paddr] = None
        before = pickle.dumps(fast_scheme)
        fast = fast_scheme.access_fast(paddr, is_write, pc)
        plan = plan_scheme.access(paddr, is_write, pc)
        if fast is None:
            assert pickle.dumps(fast_scheme) == before, (
                f"{key}: access_fast declined after mutating state")
            fast_scheme.access(paddr, is_write, pc)
        else:
            assert not plan.background, (
                f"{key}: access_fast answered a plan with background "
                "traffic")
            (op,) = plan.critical_ops()
            assert fast == (op.level is Level.NM, op.addr, op.size,
                            op.is_write)
        assert fast_scheme.stats == plan_scheme.stats
        for addr in touched:
            assert fast_scheme.locate(addr) == plan_scheme.locate(addr)
        fast_scheme.check_invariants()
        plan_scheme.check_invariants()


@pytest.mark.parametrize("key", FAST_SCHEMES)
def test_access_fast_answers_a_repeated_miss(key):
    """Not vacuous: every listed scheme overrides ``access_fast`` (the
    base always declines), and re-missing one address settles into the
    shape it answers."""
    scheme, _twin = _twins(key)
    answers = [scheme.access_fast(FM_ADDR, False, 1 << 40)
               or scheme.access(FM_ADDR, False, 1 << 40)
               for _ in range(12)]
    assert isinstance(answers[-1], tuple), key
