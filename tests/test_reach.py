"""The model-based machines reach the paths they guard.

Each machine's derandomized examples are run again with counting
wrappers, and each named path must be reached at least about half as
often as it is today (``FLOORS``), so that a change to the rules or their
draws that stops reaching a path fails here rather than going unnoticed:

- per-user recreation with copy-on-write (``TightMonitorMachine``) and
  with full copies (``FullCopyMonitorMachine``);
- a drawn vpn range that crosses from a view's base into the view's own
  lists (``TestMemoryModel``);
- an object quota refusal, ``QuotaExceeded`` (``TightMonitorMachine``);
- ``OutOfMemory`` at each stage of ``invoke_short_of_memory``;
- a chain handoff (both monitor machines).

``MonitorMachine`` itself is not run again: both monitor machines run its
rules, and its own examples would add a third to this test's time.
"""

from collections import Counter

import pytest
from hypothesis.stateful import RuleBasedStateMachine

import test_memory
import test_stateful
from walletemu.errors import OutOfMemory, QuotaExceeded
from walletemu.monitor import Monitor
from walletemu.objects import ObjectStore


class Stages:
    """The stages of ``test_stateful.SHORT_AT``, remembering the one that
    ``invoke_short_of_memory`` is running short at."""

    def __init__(self, stages):
        self.stages, self.current = stages, None

    def __iter__(self):
        for stage in self.stages:
            self.current = stage
            yield stage
        self.current = None


@pytest.fixture
def reached(monkeypatch) -> Counter:
    counts: Counter = Counter()
    stages = Stages(test_stateful.SHORT_AT)
    monkeypatch.setattr(test_stateful, "SHORT_AT", stages)

    def wrap(owner, name, count):
        call = getattr(owner, name)

        def counting(self, *args, **kwargs):
            try:
                out = call(self, *args, **kwargs)
            except Exception as exc:
                count(self, args, None, exc)
                raise
            count(self, args, out, None)
            return out

        monkeypatch.setattr(owner, name, counting)

    def recreation(monitor, args, out, exc):
        cow = monitor.config.cow_enabled
        counts["recreation, CoW" if cow else "recreation, full copy"] += 1

    def quota(store, args, out, exc):
        counts["QuotaExceeded"] += isinstance(exc, QuotaExceeded)

    def refusal(machine, args, out, exc):
        if isinstance(args[0], OutOfMemory) and stages.current:
            counts[f"OutOfMemory, short at {stages.current}"] += 1

    def hop(machine, args, out, exc):
        counts["chain handoff"] += getattr(out, "handoff", None) is not None

    def crossing(machine, args, vpns, exc):
        real = args[0].real  # the drawn range's table
        lo = real._lo  # a view's first own vpn; 0 for a table with no base
        counts["crossing into a view's own lists"] += bool(
            lo and vpns.start < lo < vpns.stop and real._fid)

    wrap(Monitor, "_recreate", recreation)
    wrap(ObjectStore, "_check_quota", quota)
    wrap(test_stateful.MonitorMachine, "_retry_after", refusal)
    wrap(test_stateful.MonitorMachine, "_hop", hop)
    wrap(test_memory.MemoryMachine, "_run", crossing)
    # Invariants draw nothing, so the examples are the same without them,
    # and each machine's own test checks them.
    monkeypatch.setattr(RuleBasedStateMachine, "check_invariants",
                        lambda machine, *args: None)
    return counts


# About half of the smaller of two counts: the full suite's and this file's
# run alone.  Hypothesis seeds its draws with constants from the modules
# loaded, so the same derandomized examples differ between the two (for
# example, TightMonitorMachine refuses a quota 1 time in the full suite and
# 11 times alone; TestMemoryModel crosses into a view's lists 29 and 8
# times).
FLOORS = {
    test_stateful.TestTightMonitorModel: {
        "recreation, CoW": 78,
        "QuotaExceeded": 1,
        "chain handoff": 23,
        "OutOfMemory, short at staging": 32,
        "OutOfMemory, short at recreation": 22,
        "OutOfMemory, short at file": 32,
        "OutOfMemory, short at output": 26,
        "OutOfMemory, short at chain": 12,
    },
    test_stateful.TestFullCopyMonitorModel: {
        "recreation, full copy": 95,
        "chain handoff": 38,
    },
    test_memory.TestMemoryModel: {
        "crossing into a view's own lists": 4,
    },
}


@pytest.mark.parametrize("model", list(FLOORS),
                         ids=lambda model: model.__name__)
def test_model_reaches_each_named_path(model, reached):
    model("runTest").runTest()
    short = {path: (reached[path], floor)
             for path, floor in FLOORS[model].items()
             if reached[path] < floor}
    assert not short, f"reached (count, floor): {short}; all: {reached}"
