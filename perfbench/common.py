"""What every workload hands back to ``run.py``."""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

# Host time is reported at the speed of a reference machine.  The machine
# running the benchmark is sampled with a fixed kernel of interpreter work
# (dict, integer and string churn, as in walletemu's hot paths), taken
# between operations and never inside a timed span, and every host time
# is scaled by REF_NS over the kernel's median time around it.  The kernel
# makes no large allocation: on a VM their page faults follow the host's
# load differently from the interpreter's speed.  REF_NS is the kernel's
# time on a shared 2-vCPU Xeon VM (Python 3.11) at its fastest; the same
# VM, loaded by its neighbours, took up to twice as long, and the
# workloads' unscaled times moved with the kernel's.  The unscaled figures
# are printed beside the scaled ones.
REF_NS = 125_000

# A run makes a fixed number of timed operations, ``--seconds`` times the
# workload's nominal rate (its usual unscaled rate on that VM), so that a
# seed gives the same operations, outputs and failures on every run.  A
# run stops early only when its timed operations have taken this many
# times ``--seconds``, so a much slower program still ends in time.
TIME_CAP = 2.0


def reference_ns() -> int:
    """Host time of one run of the reference kernel."""
    t0 = time.perf_counter_ns()
    table = {}
    for i in range(1500):
        table[i] = (i * 7) % 13
    ",".join([str(i) for i in range(300)])
    return time.perf_counter_ns() - t0


def planned_operations(seconds: float, nominal_per_s: float) -> int:
    return max(1, math.ceil(seconds * nominal_per_s))


def peak_rss_mib() -> float:
    """The process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Phase:
    """One set-up-and-measure pass of a workload.

    ``ops`` holds one entry per timed operation, in the order they ran: its
    host time, whether it succeeded, and the simulated invocations it
    completed (0 when it failed).  ``failed`` counts failed operations
    (warm-up and run-level checks included).  ``failures`` names what failed: the
    requests the client saw fail and the run-level invariant checks.
    ``check_failures`` names the independent checks that found a wrong
    output, any of which makes the run incorrect.  ``peak_rss_mib``
    is read once the workload has done a fixed amount of work, so that it
    compares the same work on every commit however fast the run is.
    ``speed`` holds reference-kernel samples as (number of timed
    operations before the sample, ns); each run of ``segment`` timed
    operations is scaled by the samples taken among them.
    ``setup_raw_s`` holds the unscaled set-up times, and ``setup_s`` the
    same scaled to REF_NS.
    """

    setup_s: list = field(default_factory=list)
    setup_raw_s: list = field(default_factory=list)
    speed: list = field(default_factory=list)
    segment: int = 500
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    check_failures: Counter = field(default_factory=Counter)
    ops: list = field(default_factory=list)
    busy_ns: int = 0
    peak_rss_mib: float = 0.0
    digest: str = ""
    counters: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def timed(self, elapsed_ns: int, ok: bool, invocations: int) -> None:
        self.ops.append((elapsed_ns, ok, invocations if ok else 0))
        self.busy_ns += elapsed_ns

    def sample_speed(self, samples: int = 1) -> None:
        for _ in range(samples):
            self.speed.append((len(self.ops), reference_ns()))

    def over_time(self, seconds: float) -> bool:
        return self.busy_ns >= TIME_CAP * seconds * 1e9

    def setup(self, make, samples: int = 10):
        """Run one set-up, ``make()``, and record its time; returns what
        ``make`` returns.  The reference kernel is sampled just before and
        after it."""
        before = [reference_ns() for _ in range(samples)]
        t0 = time.perf_counter_ns()
        made = make()
        elapsed_s = (time.perf_counter_ns() - t0) / 1e9
        after = [reference_ns() for _ in range(samples)]
        self.setup_raw_s.append(elapsed_s)
        self.setup_s.append(elapsed_s * REF_NS / statistics.median(before + after))
        return made

    def check(self, ok: bool, name: str) -> bool:
        if not ok:
            self.check_failures[name] += 1
        return ok

    def run_check(self, ok: bool, name: str) -> None:
        """An invariant checked once per run counts as one operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] += 1
