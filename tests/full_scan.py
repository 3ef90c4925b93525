"""Reference scans for the DPOR engine, in their textbook form.

The engine's backtrack analysis tests only footprint-indexed candidates, and
only the newest step for a thread the last step did not move; its clock
merge skips steps the accumulating clock already covers.  The reference
below does neither: every live thread's pending transition is tested against
every step of the trace, and the clock of every dependent step is merged.
Installing it with `use_full_scans` makes `explore` search as the plain
Flanagan-Godefroid algorithm does, so a test can compare the two.
"""

from __future__ import annotations

from permute import engine
from permute.core import EMPTY_CLOCK, coenabled, dependent, happens_before


def add_backtrack_points(search, frame, live) -> None:
    trace, stack = search.trace, search.stack
    for tid in live:
        t = frame.pre_state.pending_of(tid)
        for i in reversed(range(len(trace))):
            prior = trace[i]
            if (dependent(prior, t) and coenabled(prior, t)
                    and not happens_before(i, trace, frame.thread_clocks, t)):
                entry = stack[i]
                if tid in entry.enabled:
                    entry.backtrack.add(tid)
                else:
                    entry.backtrack.update(entry.enabled)
                break


def step_clock(search, frame, t):
    clock = frame.thread_clocks.get(t.executor, EMPTY_CLOCK)
    for j, prior in enumerate(search.trace):
        if dependent(prior, t):
            clock = clock.merged(search.step_clocks[j])
    return clock.with_entry(t.executor, len(search.trace) + 1)


def use_full_scans(monkeypatch) -> None:
    """Make the engine use the reference scans for the rest of the test."""
    monkeypatch.setattr(engine._Search, "_add_backtrack_points", add_backtrack_points)
    monkeypatch.setattr(engine._Search, "_step_clock", step_clock)
