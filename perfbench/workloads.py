"""The benchmark's workloads: which `permute check` invocations each runs, and
the verdict each invocation must reach.

A verdict is the exit code plus whether deadlock, assertion and data-race
findings occur.  Each reason is taken from the scenario's header comment, not
from the checker's output.  Trace and transition counts are deliberately not
part of a verdict: a change that shrinks the search but keeps every verdict
is still correct, and the counts are reported as metrics instead.
"""

from __future__ import annotations

from dataclasses import dataclass

CORPUS = "src/permute/corpus"


@dataclass(frozen=True)
class Verdict:
    exit_code: int
    deadlock: bool
    assertion: bool
    race: bool
    reason: str


@dataclass(frozen=True)
class Check:
    name: str        # row label, unique within a workload
    scenario: str    # corpus file stem
    flags: tuple     # extra `permute check` flags, as a user types them
    expect: Verdict

    def argv(self, trace_dir: str) -> list:
        return ["check", f"{CORPUS}/{self.scenario}.scn", *self.flags,
                "--trace-dir", trace_dir]


CLEAN = dict(exit_code=0, deadlock=False, assertion=False, race=False)

DEEP_LIB = (
    Check("reader_two_writers_cond", "reader_two_writers_cond",
          ("--max-thread-depth", "16"),
          Verdict(exit_code=1, deadlock=True, assertion=False, race=True,
                  reason="writer flags and counts are shared fields with "
                         "atomic-style accesses (races), and the mutex + "
                         "condition variable only park waiters that tested "
                         "the flags outside it, so a broadcast can come "
                         "before the wait (lost wakeup, deadlock)")),
)


def _sem_philosophers(policy: str) -> Check:
    return Check(f"philosophers_sem_3/{policy}", "philosophers_sem_3",
                 ("--policy", policy),
                 Verdict(exit_code=1, deadlock=True, assertion=False, race=False,
                         reason="each philosopher takes its left fork, then "
                                "its right, so the three forks form a cycle"))


def _sem_wakeup(policy: str) -> Check:
    return Check(f"sem_wakeup_order/{policy}", "sem_wakeup_order",
                 ("--policy", policy),
                 Verdict(**CLEAN, reason="three waiters against three posts: "
                                         "every wait is matched by a post"))


NATIVE_WIDE = (
    Check("cond_broadcast_fan", "cond_broadcast_fan", (),
          Verdict(**CLEAN, reason="a ready-count semaphore keeps the "
                                  "broadcast from firing before all three "
                                  "waiters are parked")),
    Check("reader_two_writers", "reader_two_writers", (),
          Verdict(**CLEAN, reason="one reader and two writer classes each "
                                  "take and release the dedicated lock once")),
    Check("rw_no_pref", "rw_no_pref", (),
          Verdict(**CLEAN, reason="two readers and a writer each take and "
                                  "release an arrival-order lock once")),
    Check("rw_reader_pref", "rw_reader_pref", (),
          Verdict(**CLEAN, reason="two readers and a writer each take and "
                                  "release a reader-preferred lock once")),
    Check("rw_writer_pref", "rw_writer_pref", (),
          Verdict(**CLEAN, reason="two readers and a writer each take and "
                                  "release a writer-preferred lock once")),
    Check("philosophers_mut_4", "philosophers_mut_4", (),
          Verdict(**CLEAN, reason="forks are taken in global index order, "
                                  "so no cycle can form")),
    _sem_philosophers("fifo"),
    _sem_philosophers("lifo"),
    _sem_wakeup("fifo"),
    _sem_wakeup("lifo"),
)

TRACE_ROUNDTRIP = (
    Check("cond_broadcast_fan/keep-all", "cond_broadcast_fan", ("--keep-all-traces",),
          Verdict(**CLEAN, reason="a ready-count semaphore keeps the "
                                  "broadcast from firing before all three "
                                  "waiters are parked")),
)

WORKLOADS = {
    "deep-lib": DEEP_LIB,
    "native-wide": NATIVE_WIDE,
    "trace-roundtrip": TRACE_ROUNDTRIP,
}
