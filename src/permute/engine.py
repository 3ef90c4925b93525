"""Depth-first interleaving exploration with dynamic partial order reduction.

The search keeps one frame per executed step: the pre-state snapshot, the
enabled set, the backtrack and done sets, and the sleep set.  At every new
frontier it computes backtrack points for the pending transition of each
enabled thread (the full Flanagan-Godefroid form), runs the lowest eligible
thread id, and descends.  Finished subtrees push their transition into the
frame's sleep set so sibling branches skip reorderings that are already
covered.

The work per step follows what the step changed:

- The backward scans only visit steps that can conflict: a footprint index
  lists the trace positions of each footprint key, of wildcard steps (see
  `Transition.footprint`), and of the steps related to each thread by a
  create or join.  The backtrack scan skips the related steps, which the
  framework never counts co-enabled (`core.coenabled`); the clock merge
  visits them, since they are dependent.
- A live thread the last step did not move -- its pending transition and
  its clock are the objects the parent frame held -- was already scanned by
  the parent frame over every step but the newest, so only the newest step
  is tested for it (see `update_backtrack_sets`).
- The clock merge walks its candidates newest first and skips a step its
  accumulating clock already covers.

Backtracking restores model state from the frame snapshots.  A compiled
body -- every scenario thread -- keeps its state in the snapshot too, so
popping a frame is all it takes to move it back.  A host generator body
cannot be rewound, so only the host bodies the popped steps resumed are
moved back: each is restarted and re-driven through its own steps of the
remaining prefix, with the results recorded in the snapshots, and every
request it surfaces again must match the pending transition the snapshot
holds (otherwise NondeterminismDetected).  A request equal to the one the
pending transition was built from matches without a build.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    EMPTY_CLOCK,
    RUNNABLE,
    ClockVector,
    ModelState,
    ThreadId,
    Transition,
    coenabled,
    dependent,
    fingerprint,
    happens_before,
)
from .primitives import POLICIES
from .runtime import (
    BodyCrash,
    BuildContext,
    NondeterminismDetected,
    Program,
    RuntimeSession,
    execute_step,
    initial_state,
    moved_bodies,
    schedule_step,
    surfaced_transition,
)

# Trace verdicts.
COMPLETED = "completed"
DEADLOCK = "deadlock"
BUDGET_EXHAUSTED = "budget_exhausted"
BLOCKED = "blocked"                  # every enabled transition was asleep
STOPPED_ON_FAILURE = "stopped_on_failure"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExplorationConfig:
    max_depth_per_thread: Optional[int] = None
    stop_at_first_deadlock: bool = False
    sleep_sets_enabled: bool = True
    max_spurious_wakeups: int = 0
    policy_overrides: dict = field(default_factory=dict)
    stop_at_first_failure: bool = False
    keep_all_traces: bool = False

    def __post_init__(self):
        # Trace files carry a config as JSON, so no field type can be assumed.
        for name in ("stop_at_first_deadlock", "sleep_sets_enabled",
                     "stop_at_first_failure", "keep_all_traces"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, not {getattr(self, name)!r}")
        depth, spurious = self.max_depth_per_thread, self.max_spurious_wakeups
        if depth is not None and not _is_int(depth):
            raise TypeError(f"max_depth_per_thread must be an int, not {depth!r}")
        if not _is_int(spurious):
            raise TypeError(f"max_spurious_wakeups must be an int, not {spurious!r}")
        if depth is not None and depth < 1:
            raise ValueError("max_depth_per_thread must be >= 1 when set")
        overrides = self.policy_overrides
        if not isinstance(overrides, dict) or not all(
                isinstance(kind, str) and policy in POLICIES
                for kind, policy in overrides.items()):
            raise TypeError("policy_overrides must map object kinds to policies "
                            f"{POLICIES}, not {overrides!r}")


@dataclass
class ExplorationReport:
    total_transitions: int = 0
    traces: int = 0
    deadlocks: int = 0
    first_deadlock_trace: Optional[int] = None
    assertion_failures: list = field(default_factory=list)   # (trace idx, message)
    data_races: list = field(default_factory=list)           # (var, (tid, tid), trace idx)
    budget_exhausted_traces: int = 0
    # Extra findings kept alongside the fixed report surface:
    usage_errors: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    blocked_traces: int = 0
    completed_traces: int = 0

    def has_findings(self) -> bool:
        return bool(self.deadlocks or self.assertion_failures or self.data_races
                    or self.usage_errors or self.crashes)


@dataclass
class TraceResult:
    """One finished trace, as handed to observers and the trace store."""

    index: int
    verdict: str
    fingerprint: str
    schedule: list            # ScheduleStep per executed step
    findings: list            # (category, message) found on this trace's new edges


class StackEntry:
    """One depth-first-search frame."""

    __slots__ = ("pre_state", "enabled", "backtrack", "done", "sleep",
                 "chosen", "thread_clocks", "initialized")

    def __init__(self, pre_state: ModelState, sleep: dict, thread_clocks: dict):
        self.pre_state = pre_state
        self.enabled: list = []
        self.backtrack: set = set()
        self.done: set = set()
        self.sleep = sleep                  # triple -> Transition
        self.chosen: Optional[ThreadId] = None
        self.thread_clocks = thread_clocks  # tid -> clock of its last step
        self.initialized = False


def select_next(entry: StackEntry) -> Optional[ThreadId]:
    """Smallest backtrack candidate not yet explored and not asleep."""
    for tid in sorted(entry.backtrack - entry.done):
        pending = entry.pre_state.pending_of(tid)
        if pending is not None and pending.triple() not in entry.sleep:
            return tid
    return None


def propagate_sleep_set(sleep: dict, executed: Transition) -> dict:
    """Initial sleep set of the child frame: entries still independent of
    the transition just executed."""
    return {k: t for k, t in sleep.items() if not dependent(t, executed)}


class FootprintIndex:
    """Trace positions by footprint key and by thread, pushed and popped in
    step with the trace.

    A step is listed under each key of its footprint, or in the wildcard
    list when it declares none, under the thread that executed it, and
    under its thread_target.  A step of another thread can only be
    dependent with a transition when they share a key, when one of them is
    a wildcard (`candidates`), or when one targets the other's executor
    (`related`), so a scan for the steps a transition may depend on visits
    just those lists; a wildcard transition visits every position.
    """

    __slots__ = ("by_key", "executed", "targeting", "wildcard", "lists_at")

    def __init__(self):
        self.by_key: dict = {}
        self.executed: dict = {}     # thread -> positions of its own steps
        self.targeting: dict = {}    # thread -> positions of steps targeting it
        self.wildcard: list = []
        self.lists_at: list = []     # per trace position: the lists holding it

    def push(self, t: Transition) -> None:
        lists = [self.executed.setdefault(t.executor, [])]
        if t.thread_target is not None:
            lists.append(self.targeting.setdefault(t.thread_target, []))
        footprint = t.footprint()
        if footprint is None:
            lists.append(self.wildcard)
        else:
            for key in footprint:
                lists.append(self.by_key.setdefault(key, []))
        position = len(self.lists_at)
        for positions in lists:
            positions.append(position)
        self.lists_at.append(lists)

    def pop(self) -> None:
        for positions in self.lists_at.pop():
            positions.pop()

    def candidates(self, t: Transition) -> list:
        """Ascending position lists that together hold every step of another
        thread that `t` may be dependent with through a claim: its key lists
        and the wildcard list.  They may hold steps of t's own thread too,
        and a position may appear in more than one."""
        footprint = t.footprint()
        if footprint is None:
            return [range(len(self.lists_at))]
        by_key = self.by_key
        return [self.wildcard] + [by_key.get(key, ()) for key in footprint]

    def related(self, t: Transition) -> list:
        """Ascending position lists of the steps that target `t`'s executor
        and of the steps of `t`'s target: dependent with `t` by the framework
        rule, and never co-enabled with it."""
        lists = [self.targeting.get(t.executor, ())]
        if t.thread_target is not None:
            lists.append(self.executed.get(t.thread_target, ()))
        return lists


def update_backtrack_sets(stack: list, trace: list, frontier: StackEntry,
                          next_t: Transition, index: FootprintIndex,
                          since: int = 0) -> None:
    """Add a backtrack point at the pre-state of the latest transition that
    is dependent with, co-enabled with, and not causally before `next_t`.

    Only the candidate steps `index` lists for `next_t` are tested: the
    latest qualifying step of each candidate list, the latest of those
    winning.  The steps `index.related` lists for `next_t` need not be
    candidates: `coenabled` rejects every pair a create or join makes with
    a step of the thread it names.

    Only steps at positions `since` and later are tested.  The search
    passes the newest position for a thread the last step did not move: the
    parent frame ran this scan for the same transition with the same thread
    clock over every older step, and nothing that decides a step's outcome
    (the step, `next_t`, its clock, the frame the point lands in) has
    changed since, so a point found among the older steps was already added
    there, and adding it again changes nothing.
    """
    executor = next_t.executor
    latest = since - 1
    for positions in index.candidates(next_t):
        for i in reversed(positions):
            if i <= latest:
                break
            prior = trace[i]
            # Steps of next_t's own thread are never co-enabled with it.
            if prior.executor == executor:
                continue
            if not dependent(prior, next_t):
                continue
            if not coenabled(prior, next_t):
                continue
            if happens_before(i, trace, frontier.thread_clocks, next_t):
                continue
            latest = i
            break
    if latest < since:
        return
    entry = stack[latest]
    if executor in entry.enabled:
        entry.backtrack.add(executor)
    else:
        entry.backtrack.update(entry.enabled)


def _same_request(op, recorded) -> bool:
    """Whether a re-surfaced request builds the transition built from
    `recorded` without building it.  A build takes the kind, object name
    and payload a schedule step shows from its request alone, so an equal
    request surfaces an equal step; payload values must also match in type,
    since equal values of different types (1, 1.0, True) print apart."""
    return op is not None and (op is recorded or (
        op == recorded
        and all(type(a) is type(b) for a, b in zip(op.payload, recorded.payload))))


def classify_endstate(state: ModelState, config: ExplorationConfig) -> str:
    """No thread is enabled: normal completion, true deadlock, or a cut by
    the per-thread budget.

    A blocked thread may only be waiting on work a budget-disabled thread
    would still have done, so an end state is a deadlock only when no live
    thread was artificially disabled by the budget.
    """
    live = [tid for tid, ti in state.threads.items() if ti.status == RUNNABLE]
    if not live:
        return COMPLETED
    budget = config.max_depth_per_thread
    if budget is not None and any(state.threads[tid].executed >= budget for tid in live):
        return BUDGET_EXHAUSTED
    return DEADLOCK


class _Search:
    def __init__(self, program: Program, config: ExplorationConfig,
                 trace_sink: Optional[Callable] = None,
                 observer: Optional[Callable] = None):
        self.program = program
        self.config = config
        self.trace_sink = trace_sink
        self.observer = observer
        self.report = ExplorationReport()
        self.ctx = BuildContext(program, config.policy_overrides,
                                config.max_spurious_wakeups)
        self.session = RuntimeSession(program, self.ctx)
        state0 = initial_state(program, self.session, self.ctx)
        self.stack = [StackEntry(state0, {}, {0: EMPTY_CLOCK})]
        self.trace: list = []
        self.step_clocks: list = []
        self.index = FootprintIndex()
        self.moved: set = set()   # host threads whose bodies are ahead of the trace
        self.race_seen: set = set()
        self.segment_findings: list = []
        self.stop = False

    # -- trace bookkeeping ---------------------------------------------

    def _end_trace(self, end_state: ModelState, verdict: str) -> None:
        report = self.report
        idx = report.traces
        report.traces += 1
        # Transition work is counted per finished schedule, prefix included:
        # the transitions it takes to run every explored schedule from its
        # start.  Exit bookkeeping steps don't count.
        report.total_transitions += sum(1 for t in self.trace if t.kind != "exit")
        if verdict == DEADLOCK:
            report.deadlocks += 1
            if report.first_deadlock_trace is None:
                report.first_deadlock_trace = idx
            if self.config.stop_at_first_deadlock:
                self.stop = True
        elif verdict == BUDGET_EXHAUSTED:
            report.budget_exhausted_traces += 1
        elif verdict == BLOCKED:
            report.blocked_traces += 1
        elif verdict == COMPLETED:
            report.completed_traces += 1

        findings = self.segment_findings
        self.segment_findings = []
        interesting = verdict in (DEADLOCK, STOPPED_ON_FAILURE) or bool(findings)
        if self.observer is not None or (self.trace_sink is not None and
                                         (self.config.keep_all_traces or interesting)):
            result = TraceResult(idx, verdict, fingerprint(end_state),
                                 [schedule_step(t) for t in self.trace],
                                 list(findings))
            if self.observer is not None:
                self.observer(result)
            if self.trace_sink is not None and (self.config.keep_all_traces or interesting):
                self.trace_sink(result)

    def _record_step_findings(self, findings) -> None:
        idx = self.report.traces
        for f in findings:
            if f.category == "assert":
                self.report.assertion_failures.append((idx, f.message))
            elif f.category == "usage":
                self.report.usage_errors.append((idx, f.message))
            else:
                self.report.crashes.append((idx, f.message))
            self.segment_findings.append((f.category, f.message))

    def _scan_races(self, frame: StackEntry) -> None:
        accesses = {}
        for tid in frame.enabled:
            pending = frame.pre_state.pending_of(tid)
            if pending.kind in ("read", "write"):
                accesses.setdefault(pending.object_name, []).append((tid, pending.kind))
        idx = self.report.traces
        for var in sorted(accesses):
            pairs = accesses[var]
            for (t1, k1), (t2, k2) in itertools.combinations(pairs, 2):
                if k1 == "read" and k2 == "read":
                    continue
                key = (var, frozenset((k1, k2)))
                if key in self.race_seen:
                    continue
                self.race_seen.add(key)
                self.report.data_races.append((var, (t1, t2), idx))
                self.segment_findings.append(
                    ("race", f"{var}: {k1} by thread {t1} vs {k2} by thread {t2}"))

    def _add_backtrack_points(self, frame: StackEntry, live: list) -> None:
        """Backtrack points for the pending transition of every live thread,
        enabled or not: a blocked transition can still race with the step
        that blocked it, and its alternative ordering must be scheduled at
        that older frame.  End states, where every live thread is blocked,
        are no exception.  (A thread at the depth budget is not live: it has
        no further step in the truncated program.)  A thread the last step
        did not move is tested against the newest step only (see
        `update_backtrack_sets`)."""
        stack, trace, index = self.stack, self.trace, self.index
        parent = stack[-2] if len(stack) > 1 else None
        newest = len(trace) - 1
        threads, clocks = frame.pre_state.threads, frame.thread_clocks
        for tid in live:
            pending = threads[tid].pending
            since = 0
            if (parent is not None and parent.pre_state.threads[tid].pending is pending
                    and parent.thread_clocks.get(tid) is clocks.get(tid)):
                since = newest
            update_backtrack_sets(stack, trace, frame, pending, index, since)

    def _step_clock(self, frame: StackEntry, t: Transition) -> ClockVector:
        """Clock vector of step `t` from `frame`: its thread's clock merged
        with the clocks of the earlier steps it depends on, then its own
        entry.  Candidates are walked newest first, and a step whose
        executor entry the accumulating clock already covers is skipped: its
        clock is already below the accumulated one, so merging it changes
        nothing.  The thread's own earlier steps are all covered."""
        clock = frame.thread_clocks.get(t.executor, EMPTY_CLOCK)
        trace, step_clocks, index = self.trace, self.step_clocks, self.index
        for positions in itertools.chain(index.candidates(t), index.related(t)):
            for j in reversed(positions):
                prior = trace[j]
                if clock.entries.get(prior.executor, 0) > j:
                    continue
                if dependent(prior, t):
                    clock = clock.merged(step_clocks[j])
        return clock.with_entry(t.executor, len(trace) + 1)

    # -- session repositioning -------------------------------------------

    def _redrive(self) -> None:
        """Restart each moved host body and drive it through its own steps
        of the trace.  Findings were recorded when the steps first ran and
        are not recorded again."""
        stack, trace, index = self.stack, self.trace, self.index
        for tid in sorted(self.moved):
            self.session.rewind(tid)
            if tid == 0:   # thread 0 is started by the search, not a create
                self._check_surfaced(tid, -1, None, None)
            # Its create (among the steps targeting it), then its own steps.
            for i in heapq.merge(index.targeting.get(tid, ()), index.executed.get(tid, ())):
                t = trace[i]
                for body, after in moved_bodies(t):
                    if body == tid:
                        result = None if after is None else t.result_in(stack[i].pre_state)
                        self._check_surfaced(tid, i, after, result)
        self.moved.clear()

    def _check_surfaced(self, tid: ThreadId, i: int, after, result) -> None:
        """Resume host body `tid` past its step `after` (None: start it) and
        compare what it surfaces with the pending transition recorded after
        step i (-1: at its start)."""
        try:
            op, _ = self.session.resume(tid, None, after, result)
            crash = None
        except BodyCrash as exc:
            op, crash = None, exc
        state = self.stack[i + 1].pre_state
        expected = state.threads[tid].pending
        if crash is None:
            if expected is not None and _same_request(op, expected.request):
                return
            # A divergent request may name a new object: build it on a copy
            # of the object table so that the snapshot stays as recorded.
            scratch = ModelState(dict(state.objects), state.threads,
                                 state.shared_vars, state.spurious_used)
            surfaced = schedule_step(surfaced_transition(tid, op, scratch, self.ctx))
            # The same test a replay makes against a recorded step.
            if expected is not None and surfaced == schedule_step(expected):
                return
        elif expected is None:
            return
        else:
            surfaced = f"a crash ({crash.cause!r})"
        recorded = "a crash" if expected is None else schedule_step(expected)
        raise NondeterminismDetected(
            i + 1, f"thread {tid} re-executed to {surfaced}, recorded {recorded}")

    # -- main loop ---------------------------------------------------------

    def run(self) -> ExplorationReport:
        config = self.config
        while self.stack and not self.stop:
            frame = self.stack[-1]
            if not frame.initialized:
                frame.initialized = True
                live = frame.pre_state.live_threads(config.max_depth_per_thread)
                frame.enabled = frame.pre_state.enabled_threads(live=live)
                self._add_backtrack_points(frame, live)
                if not frame.enabled:
                    self._end_trace(frame.pre_state, classify_endstate(frame.pre_state, config))
                    self._pop()
                    continue
                self._scan_races(frame)
                seed = None
                for tid in frame.enabled:
                    if frame.pre_state.pending_of(tid).triple() not in frame.sleep:
                        seed = tid
                        break
                if seed is None:
                    self._end_trace(frame.pre_state, BLOCKED)
                    self._pop()
                    continue
                frame.backtrack.add(seed)

            tid = select_next(frame)
            if tid is None:
                self._pop()
                continue
            if self.moved:
                self._redrive()
            self._execute(frame, tid)
        return self.report

    def _pop(self) -> None:
        self.stack.pop()
        if not self.stack:
            return
        executed = self.trace.pop()
        self.step_clocks.pop()
        self.index.pop()
        if self.config.sleep_sets_enabled:
            self.stack[-1].sleep[executed.triple()] = executed
        self.moved.update(body for body, _ in moved_bodies(executed)
                          if body in self.session.host_threads)

    def _execute(self, frame: StackEntry, tid: ThreadId) -> None:
        outcome = execute_step(self.session, frame.pre_state, tid, self.ctx)
        t = outcome.transition
        frame.chosen = tid
        frame.done.add(tid)
        self._record_step_findings(outcome.findings)

        clock = self._step_clock(frame, t)
        child_clocks = dict(frame.thread_clocks)
        child_clocks[tid] = clock
        if t.kind == "create":
            # The child's first transition causally follows its creation.
            child_clocks[t.thread_target] = clock

        child_sleep = (propagate_sleep_set(frame.sleep, t)
                       if self.config.sleep_sets_enabled else {})
        self.trace.append(t)
        self.step_clocks.append(clock)
        self.index.push(t)
        self.stack.append(StackEntry(outcome.state, child_sleep, child_clocks))

        if self.config.stop_at_first_failure and any(
                f.category == "assert" for f in outcome.findings):
            self._end_trace(outcome.state, STOPPED_ON_FAILURE)
            self.stop = True


def explore(program: Program, config: Optional[ExplorationConfig] = None,
            trace_sink: Optional[Callable] = None,
            observer: Optional[Callable] = None) -> ExplorationReport:
    """Explore every schedule of `program` modulo independent reordering.

    `trace_sink` receives TraceResults selected for persistence (findings
    only, or everything under keep_all_traces); `observer`, when given,
    receives every finished trace.
    """
    if config is None:
        config = ExplorationConfig()
    return _Search(program, config, trace_sink, observer).run()


__all__ = [
    "BLOCKED", "BUDGET_EXHAUSTED", "COMPLETED", "DEADLOCK", "STOPPED_ON_FAILURE",
    "ExplorationConfig", "ExplorationReport", "FootprintIndex", "StackEntry",
    "TraceResult",
    "classify_endstate", "explore", "propagate_sleep_set", "select_next",
    "update_backtrack_sets",
]
