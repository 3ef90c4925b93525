"""Depth-first interleaving exploration with dynamic partial order reduction.

The search keeps one frame per executed step: the pre-state snapshot, the
enabled set, the backtrack and done sets, and the sleep set.  At every new
frontier it computes backtrack points for the pending transition of each
live thread (the full Flanagan-Godefroid form), runs the lowest eligible
thread id, and descends.  Finished subtrees push their transition into the
frame's sleep set so sibling branches skip reorderings that are already
covered.

Race detection and the backtrack policy are apart.  Detection finds, for a
pending transition, the latest step it races with (`latest_race`, or the
newest-step test of `_Search._init_frame`); the policy turns one race into
points at the frame the race lands at (`add_backtrack_point`), and is the
only place that does.

The work per step follows what the step changed:

- The backward scans only visit steps that can conflict through a claim:
  a footprint index lists the trace positions of each footprint key and of
  wildcard steps (see `Transition.footprint`).  The other steps dependent
  with a transition -- its thread's own, and those a create or join relates
  to it -- are never co-enabled with it (`core.coenabled`), so the backtrack
  scan skips them, and the clock merge takes their order from the thread
  clocks (`_Search._step_clock`).  The lists a shared transition is pushed
  to and scanned over are gathered once per search, into its scan plan
  (`FootprintIndex.plan`), and the backtrack scan reads the causal order
  from the thread's clock directly.
- A frame other than the root is set up from its parent frame and the one
  step `t` between them (`_Search._init_frame`).  `ModelState.successor`
  copies only the thread entries of `t`'s executor and target (all of them
  after a wildcard step), so a thread whose entry is still the parent's
  keeps its status, pending transition and clock.  By the footprint
  contract (`Transition.enabled_in`), `t` can change such a thread's
  enabledness, or race with it, only when it *touches* the thread: when
  either transition is a wildcard, when they share a footprint key, or when
  the entry of the pending transition's `thread_target` was copied (a join
  whose target just exited or crashed).  An untouched thread keeps the
  parent's live and enabled answers and needs no backtrack test; a touched
  one is re-tested for enabledness and tested against the newest step
  only; a copied one gets the full live, enabled and backtrack treatment.
- A live thread the last step did not move -- its pending transition and
  its clock are the objects the parent frame held -- was already scanned by
  the parent frame over every step but the newest, so only the newest step
  is tested for it (see `_Search._init_frame`).
- The race scan runs only when a thread with a pending read or write is new
  to the enabled set or has a new pending transition, and one of the race
  keys such an access could form is not yet seen: every other pair was
  scanned by an ancestor frame, and its race key is already seen.  It pairs
  only the accesses to the variables of such new accesses.
- The clock merge walks its candidates newest first and skips a step its
  accumulating clock already covers.
- Each compiled body step runs once per build context: `BuildContext.resume`
  memoizes a compiled thread's step by the step it resumes past, its body
  state and the result, and a repeat installs the recorded body state and
  pending transition without running the interpreter.
- Each relation is decided once per pair of transitions: the runtime shares
  one transition per distinct request of a thread (its intern table), and
  `pair_relations` remembers, for each pair of shared transitions, their
  dependence (used by the clock merge and sleep-set propagation) and whether
  they are dependent and co-enabled (used by the backtrack scan).  The
  footprint, its key set and the sleep-set triple are read from the values
  stored when the transition was built (`Transition.seal`).
- Each distinct step of the search runs once, when no thread is a host
  generator: every state the search makes is keyed by its content, and
  `SuccessorMemo` keeps the outcome of the newest `SUCCESSOR_MEMO_BOUND`
  steps by the key of their pre-state and the thread that moved; a repeat
  takes the recorded successor instead of executing the step, and another
  step that reads what a recent one read (`Transition.footprint`) takes
  its recorded effect.  The bound keeps the search's memory bounded, as a
  stateless search's is.  This is not visited-state pruning, which would
  need the treatment of Yang et al. (SPIN 2008) to stay sound with sleep
  sets: every frame is still explored with its own backtrack and sleep
  sets, as in Flanagan and Godefroid (POPL 2005), and only the computing
  of its state is skipped.  The keyed states are hash-consed, so on them
  the identity tests above on thread entries are content tests.
- A repeated step also reuses the set-up of the frame it leads to: the
  memo's entry for the step keeps that frame's record, which holds the
  races of the newest-step tests, not the points they made; a repeat hands
  them to the policy and runs only the full backtrack scans and no race
  scan (`_Search._init_frame`).

Backtracking restores model state from the frame snapshots.  Every body
keeps its state in the snapshot too, so popping a frame is all it takes to
move it back; how a host generator body, which cannot be rewound, gets
back to an earlier point is `runtime.HostBody`'s business.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from .core import (
    EMPTY_CLOCK,
    RUNNABLE,
    ClockVector,
    ModelState,
    Record,
    ThreadId,
    Transition,
    coenabled,
    dependent,
    exact_key,
    fingerprint,
)
from .primitives import DEFAULT_POLICY, POLICIES
from .runtime import (BuildContext, Program, StepOutcome, execute_step, initial_state,
                      schedule_step)

# Trace verdicts.
COMPLETED = "completed"
DEADLOCK = "deadlock"
BUDGET_EXHAUSTED = "budget_exhausted"
BLOCKED = "blocked"                  # every enabled transition was asleep
STOPPED_ON_FAILURE = "stopped_on_failure"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The default of `policy_overrides`, which stands for a fresh empty dict; not
# None, which a trace file's config line may carry and which is refused.
_NO_OVERRIDES = object()


class ExplorationConfig(Record):
    __slots__ = ("max_depth_per_thread", "stop_at_first_deadlock", "sleep_sets_enabled",
                 "max_spurious_wakeups", "policy_overrides", "stop_at_first_failure",
                 "keep_all_traces")

    def __init__(self, max_depth_per_thread: Optional[int] = None,
                 stop_at_first_deadlock: bool = False, sleep_sets_enabled: bool = True,
                 max_spurious_wakeups: int = 0, policy_overrides: dict = _NO_OVERRIDES,
                 stop_at_first_failure: bool = False, keep_all_traces: bool = False):
        self.max_depth_per_thread = max_depth_per_thread
        self.stop_at_first_deadlock = stop_at_first_deadlock
        self.sleep_sets_enabled = sleep_sets_enabled
        self.max_spurious_wakeups = max_spurious_wakeups
        self.policy_overrides = {} if policy_overrides is _NO_OVERRIDES else policy_overrides
        self.stop_at_first_failure = stop_at_first_failure
        self.keep_all_traces = keep_all_traces
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
        if spurious < 0:
            raise ValueError("max_spurious_wakeups must be >= 0")
        overrides = self.policy_overrides
        if not isinstance(overrides, dict) or not all(
                isinstance(kind, str) and policy in POLICIES
                for kind, policy in overrides.items()):
            raise TypeError("policy_overrides must map object kinds to policies "
                            f"{POLICIES}, not {overrides!r}")
        unknown = [kind for kind in overrides if kind not in DEFAULT_POLICY]
        if unknown:
            raise ValueError(f"policy_overrides names {unknown}, but only the kinds "
                             f"{tuple(DEFAULT_POLICY)} take a wakeup policy")

    def as_dict(self) -> dict:
        """The fields by name: what a trace file's `config:` line holds, and
        what this class takes back as keywords."""
        return dict(zip(self.__slots__, self._fields()))


class ExplorationReport(Record):
    __slots__ = ("total_transitions", "traces", "deadlocks", "first_deadlock_trace",
                 "assertion_failures", "data_races", "budget_exhausted_traces",
                 "usage_errors", "crashes", "blocked_traces", "completed_traces")

    def __init__(self, total_transitions: int = 0, traces: int = 0, deadlocks: int = 0,
                 first_deadlock_trace: Optional[int] = None,
                 assertion_failures: Optional[list] = None,
                 data_races: Optional[list] = None, budget_exhausted_traces: int = 0,
                 usage_errors: Optional[list] = None, crashes: Optional[list] = None,
                 blocked_traces: int = 0, completed_traces: int = 0):
        self.total_transitions = total_transitions
        self.traces = traces
        self.deadlocks = deadlocks
        self.first_deadlock_trace = first_deadlock_trace
        # (trace idx, message)
        self.assertion_failures = [] if assertion_failures is None else assertion_failures
        # (var, (tid, tid), trace idx)
        self.data_races = [] if data_races is None else data_races
        self.budget_exhausted_traces = budget_exhausted_traces
        # Extra findings kept alongside the fixed report surface:
        self.usage_errors = [] if usage_errors is None else usage_errors
        self.crashes = [] if crashes is None else crashes
        self.blocked_traces = blocked_traces
        self.completed_traces = completed_traces

    def has_findings(self) -> bool:
        return bool(self.deadlocks or self.assertion_failures or self.data_races
                    or self.usage_errors or self.crashes)


class TraceResult(Record):
    """One finished trace, as handed to observers and the trace store."""

    __slots__ = ("index", "verdict", "fingerprint", "schedule", "findings")

    def __init__(self, index: int, verdict: str, fingerprint: str, schedule: list,
                 findings: list):
        self.index = index
        self.verdict = verdict
        self.fingerprint = fingerprint
        self.schedule = schedule    # ScheduleStep per executed step
        self.findings = findings    # (category, message) found on this trace's new edges


class StackEntry:
    """One depth-first-search frame."""

    __slots__ = ("pre_state", "key", "edge", "live", "enabled", "backtrack", "done",
                 "sleep", "thread_clocks", "initialized")

    def __init__(self, pre_state: ModelState, sleep: dict, thread_clocks: dict,
                 key: Optional[tuple] = None, edge: Optional[list] = None):
        self.pre_state = pre_state
        self.key = key                      # the pre-state's `SuccessorMemo` key, if any
        self.edge = edge                    # the memo's entry for the step into this frame
        self.live: list = []                # threads with a next step, in id order
        self.enabled: list = []             # the live ones that can take it, in id order
        self.backtrack: set = set()
        self.done: set = set()
        self.sleep = sleep                  # triple -> Transition
        self.thread_clocks = thread_clocks  # tid -> clock of its last step
        self.initialized = False


def select_next(entry: StackEntry) -> Optional[ThreadId]:
    """Smallest backtrack candidate not yet explored and not asleep.  Only
    enabled threads are ever added to the backtrack set, so the candidates
    are met in id order by walking `entry.enabled`."""
    backtrack, done, sleep = entry.backtrack, entry.done, entry.sleep
    threads = entry.pre_state.threads
    for tid in entry.enabled:
        if (tid in backtrack and tid not in done
                and threads[tid].pending.sleep_key not in sleep):
            return tid
    return None


def pair_relations(a: Transition, b: Transition) -> tuple:
    """(dependent(a, b), dependent and coenabled(a, b)).  Decided once per
    pair of transitions one build context shares (`BuildContext.resume`)
    and remembered in `b.relations` under `a.serial`; any other pair is
    decided on every call.  The memo holds numbers, not transitions, so the
    shared transitions form no reference cycle and are freed with their
    context."""
    memo, serial = b.relations, a.serial
    if memo is not None and serial is not None:
        known = memo.get(serial)
        if known is None:
            dep = dependent(a, b)
            known = memo[serial] = (dep, dep and coenabled(a, b))
        return known
    dep = dependent(a, b)
    return dep, dep and coenabled(a, b)


def propagate_sleep_set(sleep: dict, executed: Transition) -> dict:
    """Initial sleep set of the child frame: entries still independent of
    the transition just executed."""
    if not sleep:
        return {}
    return {k: t for k, t in sleep.items() if not pair_relations(t, executed)[0]}


class FootprintIndex:
    """Trace positions by footprint key, pushed and popped in step with the
    trace.

    A step is listed under each key of its footprint, or in the wildcard
    list when it declares none.  A step of another thread can only be
    dependent with a transition through a claim when they share a key or
    when one of them is a wildcard, so a scan for the steps a transition
    may depend on visits just those lists; a wildcard transition visits
    every position.  The steps the framework rule makes dependent -- a
    thread's own and those related to it by a create or join -- are listed
    nowhere: the thread clocks order them (`_Search._step_clock`).

    Every list is made once and kept as long as the index, so the lists of
    a transition the build context shares are gathered once, into its scan
    plan (`plan`).
    """

    __slots__ = ("by_key", "wildcard", "lists_at", "plans")

    def __init__(self):
        self.by_key: dict = {}
        self.wildcard: list = []
        self.lists_at: list = []     # per trace position: the lists holding it
        self.plans: dict = {}        # serial -> scan plan of a shared transition

    def plan(self, t: Transition) -> tuple:
        """The scan plan of `t`: the ascending position lists that `push`
        appends its position to, and the candidate lists, which together
        hold every step of another thread that `t` may be dependent with
        through a claim (its key lists and the wildcard list).  A list may
        hold steps of t's own thread too, and a position may appear in more
        than one.  The plan of a shared transition with a footprint is kept
        by its serial; any other is made on every call."""
        plan = self.plans.get(t.serial)
        if plan is not None:
            return plan
        footprint = t.keys
        if footprint is None:
            return [self.wildcard], [range(len(self.lists_at))]
        keyed = [self.by_key.setdefault(key, []) for key in footprint]
        plan = keyed, [self.wildcard] + keyed
        if t.serial is not None:
            self.plans[t.serial] = plan
        return plan

    def push(self, t: Transition) -> None:
        lists = self.plan(t)[0]
        position = len(self.lists_at)
        for positions in lists:
            positions.append(position)
        self.lists_at.append(lists)

    def pop(self) -> None:
        for positions in self.lists_at.pop():
            positions.pop()


def latest_race(trace: list, clock: ClockVector, next_t: Transition,
                index: FootprintIndex) -> int:
    """The position of the latest step of `trace` that races with `next_t`:
    dependent with it, co-enabled with it, and not causally before it; -1
    when there is none.  `clock` is the clock of `next_t`'s thread.

    Only the candidate steps `index` lists for `next_t` are tested: the
    latest qualifying step of each candidate list, the latest of those
    winning.  The steps related to `next_t` by a create or join need not be
    candidates: `coenabled` rejects every pair `core.thread_related`
    relates.  A step is causally before `next_t` when `clock` covers it
    (`core.happens_before`).
    """
    executor = next_t.executor
    entries = clock.entries
    latest = -1
    for positions in index.plan(next_t)[1]:
        for i in reversed(positions):
            if i <= latest:
                break
            prior = trace[i]
            # Steps of next_t's own thread are never co-enabled with it.
            if prior.executor == executor:
                continue
            if not pair_relations(prior, next_t)[1]:
                continue
            if i < entries.get(prior.executor, 0):   # causally before next_t
                continue
            latest = i
            break
    return latest


def add_backtrack_point(entry: StackEntry, tid: ThreadId) -> None:
    """The backtrack policy of Flanagan and Godefroid (POPL 2005), for a
    race of thread `tid`'s pending transition that lands at `entry`, the
    frame before the racing step: schedule `tid` there, or every thread
    enabled there when `tid` is not."""
    if tid in entry.enabled:
        entry.backtrack.add(tid)
    else:
        entry.backtrack.update(entry.enabled)


def update_backtrack_sets(stack: list, trace: list, frontier: StackEntry,
                          next_t: Transition, index: FootprintIndex) -> None:
    """Add the backtrack point for the latest race of `next_t`, pending at
    `frontier`, with a step of `trace` (`latest_race`), at the frame that
    race lands at (`add_backtrack_point`)."""
    latest = latest_race(trace, frontier.thread_clocks.get(next_t.executor, EMPTY_CLOCK),
                         next_t, index)
    if latest >= 0:
        add_backtrack_point(stack[latest], next_t.executor)


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


# The most entries each table of a search's successor memo keeps: steps,
# effects, parts of each kind, and fingerprints.  A full memo holds about
# 1.3 KB per step (the successor, the keys and the parts they hold, by
# tracemalloc on reader_two_writers_cond at depth 16), while the rest of a
# search's memory follows its depth; with a bound, the memo adds a fixed
# amount, whatever the size of the state space.  Repeats come mostly from
# recent states, so the newest steps are the ones kept.  Every distinct
# step of the corpus's short checks fits (at most 376, sem_wakeup_order
# under lifo).
SUCCESSOR_MEMO_BOUND = 512


class SuccessorMemo:
    """The outcome of each step one search took lately, by the key of its
    pre-state and the thread that moved, and what each step did, by what
    it read.

    Stateless search reaches the same state along many schedules and runs
    the same steps from it each time.  When every thread is compiled, a step
    is a pure function of its pre-state and thread, so the memo runs it once
    and hands the recorded outcome to every repeat.  It prunes nothing: the
    search explores every frame it would explore without it, with the same
    backtrack and sleep sets, and only skips computing a successor it has
    computed before.  No state of a program with host threads is keyed: a
    host body's steps all run, so that its re-drives check it.

    A state's key is made of its parts -- its objects, its thread entries,
    and the content of the variable and spurious-wakeup tables -- and the
    objects and thread entries are hash-consed: each is the one part with
    its content the memo knows.  Contents are keyed type-exactly: an object
    by `VisibleObject.content_key`, a table by `exact_key` of each value,
    and a thread entry by its status, step count, pending transition and
    body state, the last two by identity, since the build context hands out
    one object per distinct transition and body state of a compiled thread.
    Equal keys are then equal states, and the search's identity tests on
    thread entries (`_Search._init_frame`) stay exact content tests when a
    recorded successor was first reached from another parent.  A successor
    is keyed from its parent's parts: only the parts that are not the
    parent's are keyed anew.

    A step reads only what the read rule of `Transition.footprint` names,
    and the bodies it resumes create the missing objects their next
    transitions name.  So the memo also keeps each step's effect -- the
    parts it may write, and its findings -- by what it reads: its executor's
    and target's entries, the existing object ids, and each footprint key's
    object, variable (`exact_key`) and spurious count.  A step missing from
    the step map takes the effect it reads, if any, on copies of its
    pre-state's tables; a wildcard step runs.

    A keyed part is never mutated: `ModelState.successor` copies every part
    a step writes before `Transition.apply` runs, as the replay audit
    `_assert_writes_within_footprint` (tests/test_engine.py) checks.  So
    states that share a part agree on it, and two equal parts that are not
    one object (a part table started afresh between them) cost only a miss.

    A step's entry also holds the record of the frame it leads to, filled
    in when the search first sets that frame up (`_Search._init_frame`).

    Each table holds at most `SUCCESSOR_MEMO_BOUND` entries: a full step or
    effect map drops its oldest entry, and a full part or fingerprint table
    starts afresh.
    """

    __slots__ = ("steps", "effects", "fingerprints", "objects", "threads")

    def __init__(self):
        # (state key, thread) -> [StepOutcome, successor key, frame record or None]
        self.steps: dict = {}
        self.effects: dict = {}        # `_reads` of a step -> `_effect` of it
        self.fingerprints: dict = {}   # state key -> fingerprint
        # Content key -> the part with that content, one table per kind.
        self.objects: dict = {}
        self.threads: dict = {}

    def step(self, state: ModelState, key: Optional[tuple], tid: ThreadId,
             ctx: BuildContext) -> list:
        """The entry [`execute_step(state, tid, ctx)`, the key of its state,
        the record of the frame it leads to], run once per recent step from
        a state with `key`, or served the effect of a step that read what it
        reads.  A state without a key has successors without one."""
        if key is None:
            return [execute_step(state, tid, ctx), None, None]
        edge = key, tid
        steps = self.steps
        known = steps.get(edge)
        if known is None:
            # A keyed state holds only hashable values, so its reads hash.
            reads = _reads(state, tid)
            effect = None if reads is None else self.effects.get(reads)
            if effect is None:
                outcome = execute_step(state, tid, ctx)
                known = [outcome, self.key(outcome.state, state, key), None]
                if reads is not None and known[1] is not None:
                    _keep(self.effects, reads, _effect(state, outcome))
            else:
                known = _served(state, key, tid, effect)
            if known[1] is not None:
                _keep(steps, edge, known)
        return known

    def fingerprint(self, state: ModelState, key: Optional[tuple]) -> str:
        """`fingerprint(state)`, computed once per recent key."""
        if key is None:
            return fingerprint(state)
        fingerprints = self.fingerprints
        fp = fingerprints.get(key)
        if fp is None:
            if len(fingerprints) >= SUCCESSOR_MEMO_BOUND:
                fingerprints.clear()
            fp = fingerprints[key] = fingerprint(state)
        return fp

    def key(self, s: ModelState, parent: Optional[ModelState] = None,
            parent_key: Optional[tuple] = None) -> Optional[tuple]:
        """The key of `s`, a root or a successor of `parent`, whose key is
        `parent_key`; None when a value cannot be hashed.  Each object and
        thread entry that is not the parent's is swapped for the part with
        its content the memo knows; a part new to the memo joins it."""
        objects, threads = s.objects, s.threads
        parent_objects = parent_threads = {}
        if parent is not None:
            parent_objects, parent_threads = parent.objects, parent.threads
        try:
            for oid, obj in objects.items():
                if obj is not parent_objects.get(oid):
                    objects[oid] = _part(self.objects, obj.content_key(), obj)
            for tid, info in threads.items():
                if info is not parent_threads.get(tid):
                    content = (info.status, info.pending, info.executed, id(info.body_state))
                    threads[tid] = _part(self.threads, content, info)
            return _state_key(s, parent, parent_key)
        except TypeError:   # an unhashable value
            return None


def _state_key(s: ModelState, parent: Optional[ModelState], parent_key: Optional[tuple]) -> tuple:
    """`SuccessorMemo.key` of `s`, whose objects and thread entries are
    parts; a table shared with the parent keeps its key."""
    if parent is None or len(s.objects) != len(parent.objects):
        s.objects = dict(sorted(s.objects.items()))   # keys follow oid order
    shared = parent is not None
    variables = (parent_key[2] if shared and s.shared_vars is parent.shared_vars
                 else _table_key(s.shared_vars))
    spurious = (parent_key[3] if shared and s.spurious_used is parent.spurious_used
                else _table_key(s.spurious_used))
    return tuple(s.objects.values()), tuple(s.threads.values()), variables, spurious


def _part(table: dict, content, part):
    """The part with `content` that `table` holds, else `part`, which joins
    it; a table that outgrows the bound starts afresh."""
    part = table.setdefault(content, part)
    if len(table) > SUCCESSOR_MEMO_BOUND:
        table.clear()
    return part


def _keep(table: dict, key, value) -> None:
    """Add an entry to a map that drops its oldest one past the bound."""
    table[key] = value
    if len(table) > SUCCESSOR_MEMO_BOUND:
        del table[next(iter(table))]


def _reads(state: ModelState, tid: ThreadId) -> Optional[tuple]:
    """What the step of `tid` from `state`, a keyed state, reads: the key
    of its effect.  None for a wildcard step."""
    threads = state.threads
    info = threads[tid]
    keys = info.pending.keys
    if keys is None:
        return None
    objects, variables, spurious = state.objects, state.shared_vars, state.spurious_used
    return (info, threads.get(info.pending.thread_target), tuple(objects),
            tuple([(objects.get(k), exact_key(variables.get(k)), spurious.get(k))
                   for k in keys]))


def _effect(pre: ModelState, outcome: StepOutcome) -> tuple:
    """What a step did from `pre`: the objects its footprint names or its
    bodies created, its executor's and target's entries, its variable and
    spurious entries (None for a table it shares), and its findings."""
    t, post = outcome.transition, outcome.state
    keys, pre_objects, objects = t.keys, pre.objects, post.objects
    written = {k: objects[k] for k in keys if k in objects}
    if len(objects) != len(pre_objects):
        written.update((oid, obj) for oid, obj in objects.items() if oid not in pre_objects)
    threads = {tid: post.threads[tid] for tid in (t.executor, t.thread_target)
               if tid in post.threads}
    return (written, threads, _entries(pre.shared_vars, post.shared_vars, keys),
            _entries(pre.spurious_used, post.spurious_used, keys), outcome.findings)


def _entries(before: dict, after: dict, keys: tuple) -> Optional[dict]:
    return None if after is before else {k: after[k] for k in keys if k in after}


def _served(state: ModelState, key: tuple, tid: ThreadId, effect: tuple) -> list:
    """The entry of the step of `tid` from `state`, whose key is `key`, made
    by installing the `effect` a step that read the same left."""
    objects, threads, variables, spurious, findings = effect
    s = ModelState({**state.objects, **objects}, {**state.threads, **threads},
                   state.shared_vars if variables is None else {**state.shared_vars, **variables},
                   state.spurious_used if spurious is None
                   else {**state.spurious_used, **spurious})
    return [StepOutcome(s, state.threads[tid].pending, findings), _state_key(s, state, key), None]


def _table_key(table: dict) -> tuple:
    """The content of a variable or spurious-count table, keyed
    type-exactly; TypeError when a value cannot be hashed."""
    key = tuple((name, exact_key(value)) for name, value in table.items())
    hash(key)
    return key


# The race keys of a read and a write, and of two writes (`_Search._scan_races`).
_READ_WRITE = frozenset(("read", "write"))
_WRITES = frozenset(("write",))


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
        state0 = initial_state(self.ctx)
        self.memo = SuccessorMemo()
        # A host body runs every step it takes: no state of it is keyed.
        key = None if self.ctx.host_threads else self.memo.key(state0)
        self.stack = [StackEntry(state0, {}, {0: EMPTY_CLOCK}, key)]
        self.trace: list = []
        self.step_clocks: list = []
        self.index = FootprintIndex()
        self.race_seen: set = set()
        self.counted_steps = 0    # steps of the trace that are not exits
        self.segment_findings: list = []
        self.stop = False

    # -- trace bookkeeping ---------------------------------------------

    def _end_trace(self, frame: StackEntry, verdict: str) -> None:
        report = self.report
        idx = report.traces
        report.traces += 1
        # Transition work is counted per finished schedule, prefix included:
        # the transitions it takes to run every explored schedule from its
        # start.  Exit bookkeeping steps don't count.
        report.total_transitions += self.counted_steps
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
            fp = self.memo.fingerprint(frame.pre_state, frame.key)
            result = TraceResult(idx, verdict, fp, [schedule_step(t) for t in self.trace],
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

    def _scan_races(self, frame: StackEntry, new: Optional[list] = None) -> None:
        """Report each race key first formed by two enabled accesses of the
        frame.  `new`, when given, lists the pending accesses new to the
        frame; any other pair was scanned by an ancestor frame, and its race
        key is already seen.  So only the variables of new accesses that
        could still form an unseen key are scanned, in the same order, and
        when there are none the scan is skipped."""
        seen = self.race_seen
        variables = None
        if new is not None:
            variables = {t.object_name for t in new
                         if (t.object_name, _READ_WRITE) not in seen
                         or (t.kind == "write" and (t.object_name, _WRITES) not in seen)}
            if not variables:
                return
        accesses = {}
        for tid in frame.enabled:
            pending = frame.pre_state.pending_of(tid)
            if pending.kind in ("read", "write") and (
                    variables is None or pending.object_name in variables):
                accesses.setdefault(pending.object_name, []).append((tid, pending.kind))
        idx = self.report.traces
        for var in sorted(accesses):
            pairs = accesses[var]
            for (t1, k1), (t2, k2) in itertools.combinations(pairs, 2):
                if k1 == "read" and k2 == "read":
                    continue
                key = (var, frozenset((k1, k2)))
                if key in seen:
                    continue
                seen.add(key)
                self.report.data_races.append((var, (t1, t2), idx))
                self.segment_findings.append(
                    ("race", f"{var}: {k1} by thread {t1} vs {k2} by thread {t2}"))

    def _init_frame(self, frame: StackEntry) -> None:
        """Set up a new frame: its live and enabled threads, the backtrack
        points for the pending transition of every live thread, and the race
        scan.

        Every live thread gets backtrack points, enabled or not: a blocked
        transition can still race with the step that blocked it, and its
        alternative ordering must be scheduled at that older frame.  End
        states, where every live thread is blocked, are no exception.  (A
        thread at the depth budget is not live: it has no further step in
        the truncated program.)

        The root frame tests every thread; it has no earlier step to add
        backtrack points for.  Any other frame starts from its parent's
        answers and re-tests only the threads the step between them copied
        or touched (see the module docstring).  Every state of a compiled
        search is keyed by `SuccessorMemo`, and may be a recorded successor
        first reached from another parent with the same key: the identity
        tests on thread entries are content tests.  An entry equal to the
        parent's but not the same object (its part table started afresh
        between them) only costs the full treatment.

        A frame's record is what its set-up derives from the state and the
        parent frame: its live and enabled lists, the threads whose pending
        transitions race with the newest step (by the tests below), and the
        pending transitions whose thread or clock the step changed, which
        are scanned over the whole trace.  Every frame installs its record
        the same way: each racing thread gets its point at the parent frame
        by the policy (`add_backtrack_point`), and each rescanned transition
        gets the full scan (`update_backtrack_sets`).

        A frame reached by a memoized step -- its edge, the pre-state's key
        and the thread that moved -- keeps its record in the memo's entry
        for that step.  The record depends only on the edge:

        - keyed states are hash-consed, so the identity tests are content
          tests;
        - `parent.live` and `parent.enabled` depend only on the parent's
          key;
        - the budget is fixed for the whole search;
        - whether a thread races with the newest step depends only on the
          step `t`, the thread's pending transition, and whether the
          thread's clock covers the newest position (only a create target's
          clock does, and its clock changed).

        So a frame reached again by the same edge installs the record
        without deriving it.  It needs no race scan: the first frame of the
        edge left every race key its enabled accesses can form in
        `race_seen`, and this frame has the same enabled accesses.
        """
        stack, trace, index = self.stack, self.trace, self.index
        state = frame.pre_state
        budget = self.config.max_depth_per_thread
        if not trace:
            frame.live = state.live_threads(budget)
            frame.enabled = state.enabled_threads(live=frame.live)
            self._scan_races(frame)
            return

        parent = stack[-2]
        edge = frame.edge
        record = None if edge is None else edge[2]
        new_accesses = None
        if record is None:
            step = trace[-1]
            step_keys = step.key_set
            threads, parent_threads = state.threads, parent.pre_state.threads
            clocks, parent_clocks = frame.thread_clocks, parent.thread_clocks
            parent_live, parent_enabled = parent.live, parent.enabled
            live, enabled, racing, rescanned, new_accesses = [], [], [], [], []
            # Every thread of the program is in the table from the initial
            # state on, in id order, and successors keep that order.
            for tid, info in threads.items():
                pending = info.pending
                parent_info = parent_threads[tid]
                if info is parent_info:
                    if tid not in parent_live:
                        continue
                    live.append(tid)
                    pending_keys = pending.keys
                    target = pending.thread_target
                    if (step_keys is not None and pending_keys is not None
                            and step_keys.isdisjoint(pending_keys)
                            and (target is None
                                 or threads.get(target) is parent_threads.get(target))):
                        # Untouched: the parent's answers stand, and the
                        # newest step is in none of its candidate lists.
                        if tid in parent_enabled:
                            enabled.append(tid)
                        continue
                    rescan = False
                else:
                    if not info.has_step(budget):
                        continue
                    live.append(tid)
                    rescan = (parent_info.pending is not pending
                              or parent_clocks.get(tid) is not clocks.get(tid))
                if pending.enabled_in(state):
                    enabled.append(tid)
                    if pending.kind in ("read", "write") and (
                            pending is not parent_info.pending or tid not in parent_enabled):
                        new_accesses.append(pending)
                if rescan:
                    rescanned.append(pending)
                elif pair_relations(step, pending)[1]:
                    # The parent frame ran the full scan for this transition
                    # with this clock, and nothing that decides an older
                    # step's race (the step, the transition, its clock) has
                    # changed since: only the newest step is tested, directly
                    # (by the footprint contract, the scan's candidates hold
                    # it whenever the two race).  The clock is the parent's,
                    # which covers no step this late.
                    racing.append(tid)
            record = live, enabled, tuple(racing), tuple(rescanned)
            if edge is not None:
                edge[2] = record
        frame.live, frame.enabled, racing, rescanned = record
        for tid in racing:
            add_backtrack_point(parent, tid)
        for pending in rescanned:
            update_backtrack_sets(stack, trace, frame, pending, index)
        if new_accesses:
            self._scan_races(frame, new_accesses)

    def _step_clock(self, frame: StackEntry, t: Transition) -> ClockVector:
        """Clock vector of step `t` from `frame`: its thread's clock, merged
        with the clock of the thread it creates or joins and with the clocks
        of the earlier steps it depends on through a claim, then its own
        entry.

        The thread clocks order the steps the framework rule relates to `t`
        (`core.dependent`).  Its thread's clock covers the thread's own steps
        and the create that started it (`_execute` seeds it).  A joined
        thread's clock covers every step of that thread and its create, and
        no step of a thread follows a join of it, which is enabled only once
        the thread has exited.  A create's target has no clock yet.  A join
        seeds no clock: two joins of one thread are independent.

        The candidates of `t`'s scan plan are walked newest first, and a
        step whose executor entry the accumulating clock already covers is
        skipped: its clock is already below the accumulated one, so merging
        it changes nothing."""
        clocks = frame.thread_clocks
        clock = clocks.get(t.executor, EMPTY_CLOCK)
        if t.thread_target is not None:
            clock = clock.merged(clocks.get(t.thread_target, EMPTY_CLOCK))
        trace, step_clocks = self.trace, self.step_clocks
        for positions in self.index.plan(t)[1]:
            for j in reversed(positions):
                prior = trace[j]
                if clock.entries.get(prior.executor, 0) > j:
                    continue
                if pair_relations(prior, t)[0]:
                    clock = clock.merged(step_clocks[j])
        return clock.with_entry(t.executor, len(trace) + 1)

    # -- main loop ---------------------------------------------------------

    def run(self) -> ExplorationReport:
        config = self.config
        while self.stack and not self.stop:
            frame = self.stack[-1]
            if not frame.initialized:
                frame.initialized = True
                self._init_frame(frame)
                if not frame.enabled:
                    self._end_trace(frame, classify_endstate(frame.pre_state, config))
                    self._pop()
                    continue
                seed = None
                for tid in frame.enabled:
                    if frame.pre_state.pending_of(tid).sleep_key not in frame.sleep:
                        seed = tid
                        break
                if seed is None:
                    self._end_trace(frame, BLOCKED)
                    self._pop()
                    continue
                frame.backtrack.add(seed)

            tid = select_next(frame)
            if tid is None:
                self._pop()
                continue
            self._execute(frame, tid)
        return self.report

    def _pop(self) -> None:
        self.stack.pop()
        if not self.stack:
            return
        executed = self.trace.pop()
        if executed.kind != "exit":
            self.counted_steps -= 1
        self.step_clocks.pop()
        self.index.pop()
        if self.config.sleep_sets_enabled:
            self.stack[-1].sleep[executed.sleep_key] = executed

    def _execute(self, frame: StackEntry, tid: ThreadId) -> None:
        edge = self.memo.step(frame.pre_state, frame.key, tid, self.ctx)
        outcome, key = edge[0], edge[1]
        t = outcome.transition
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
        if t.kind != "exit":
            self.counted_steps += 1
        self.step_clocks.append(clock)
        self.index.push(t)
        child = StackEntry(outcome.state, child_sleep, child_clocks, key,
                           None if key is None else edge)
        self.stack.append(child)

        if self.config.stop_at_first_failure and any(
                f.category == "assert" for f in outcome.findings):
            self._end_trace(child, STOPPED_ON_FAILURE)
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
    "add_backtrack_point", "classify_endstate", "explore", "latest_race", "pair_relations",
    "propagate_sleep_set", "select_next", "update_backtrack_sets",
]
