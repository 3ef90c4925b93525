"""Reference scans for the DPOR engine, in their textbook form.

The engine sets up a frame from its parent frame and the step between them:
it re-tests only the threads that step copied or touched, tests only the
footprint-indexed candidates of each transition's scan plan, and only the
newest step for a thread the last step did not move, and scans for races
only when a new access is enabled that can form a race key not yet seen,
over the variables of such accesses; a frame reached again by a memoized
step installs the record its first set-up left and runs only the full
scans; its clock merge takes the order of creates and joins from the
thread clocks and skips steps the accumulating clock already covers.
The reference below does none of this: every frame computes its live and
enabled threads from the state alone, every live thread's pending
transition is tested against every step of the trace with
`happens_before`, races are scanned on every frame over every enabled
access (`_scan_races(frame)`, with no new accesses named), no record is
read or left, and the clock of every dependent step is merged.  Only the
backtrack policy, which turns the latest race into points, is the
engine's own (`add_backtrack_point`).  Installing the reference with
`use_full_scans` makes `explore` search as the plain Flanagan-Godefroid
algorithm does, so a test can compare the two.
"""

from __future__ import annotations

from permute import engine
from permute.core import EMPTY_CLOCK, coenabled, dependent, happens_before


def init_frame(search, frame) -> None:
    state = frame.pre_state
    frame.live = state.live_threads(search.config.max_depth_per_thread)
    frame.enabled = state.enabled_threads(live=frame.live)
    trace, stack = search.trace, search.stack
    for tid in frame.live:
        t = frame.pre_state.pending_of(tid)
        for i in reversed(range(len(trace))):
            prior = trace[i]
            if (dependent(prior, t) and coenabled(prior, t)
                    and not happens_before(i, trace, frame.thread_clocks, t)):
                engine.add_backtrack_point(stack[i], tid)
                break
    search._scan_races(frame)


def step_clock(search, frame, t):
    clock = frame.thread_clocks.get(t.executor, EMPTY_CLOCK)
    for j, prior in enumerate(search.trace):
        if dependent(prior, t):
            clock = clock.merged(search.step_clocks[j])
    return clock.with_entry(t.executor, len(search.trace) + 1)


def use_full_scans(monkeypatch) -> None:
    """Make the engine use the reference scans for the rest of the test."""
    monkeypatch.setattr(engine._Search, "_init_frame", init_frame)
    monkeypatch.setattr(engine._Search, "_step_clock", step_clock)
