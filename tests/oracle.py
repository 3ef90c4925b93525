"""Brute-force interleaving enumeration, independent of the DPOR engine.

Explores every schedule with no pruning of any kind: at each state it
branches over every enabled thread, each branch stepping from the state
itself (a step leaves its pre-state as it was, and every body resumes from
the state alone).  Shares the primitive semantics and the runtime stepping
(those are not under test here) but none of the search machinery --
backtrack sets, sleep sets, and clock vectors are deliberately absent.
Used as the ground truth for deadlock sets, assertion verdicts, and
final-state fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from permute.core import RUNNABLE, fingerprint
from permute.runtime import BuildContext, execute_step, initial_state


@dataclass
class BruteResult:
    traces: int = 0
    deadlock_fps: set = field(default_factory=set)
    final_fps: set = field(default_factory=set)
    assertion_failed: bool = False
    race_vars: set = field(default_factory=set)
    deadlock_traces: int = 0


def _classify_deadlock(state, budget) -> bool:
    live = [tid for tid, ti in state.threads.items() if ti.status == RUNNABLE]
    if not live:
        return False
    if budget is not None and any(state.threads[t].executed >= budget for t in live):
        return False
    return True


def _context(program, config):
    """The build context and the per-thread budget that `config` asks for."""
    if config is None:
        return BuildContext(program), None
    ctx = BuildContext(program, config.policy_overrides, config.max_spurious_wakeups)
    return ctx, config.max_depth_per_thread


def brute_force(program, config=None, max_traces=2_000_000) -> BruteResult:
    """Enumerate every interleaving of `program` under `config` limits."""
    ctx, budget = _context(program, config)
    result = BruteResult()

    def note_findings(findings, state):
        for f in findings:
            if f.category == "assert":
                result.assertion_failed = True

    def scan_races(state, enabled):
        accesses = {}
        for tid in enabled:
            pending = state.threads[tid].pending
            if pending.kind in ("read", "write"):
                accesses.setdefault(pending.object_name, []).append(pending.kind)
        for var, kinds in accesses.items():
            if len(kinds) >= 2 and "write" in kinds:
                result.race_vars.add(var)

    def rec(state):
        if result.traces >= max_traces:
            raise RuntimeError("brute force exceeded the trace limit")
        enabled = state.enabled_threads(budget)
        if not enabled:
            fp = fingerprint(state)
            result.final_fps.add(fp)
            result.traces += 1
            if _classify_deadlock(state, budget):
                result.deadlock_fps.add(fp)
                result.deadlock_traces += 1
            return
        scan_races(state, enabled)
        for tid in enabled:
            outcome = execute_step(state, tid, ctx)
            note_findings(outcome.findings, state)
            rec(outcome.state)

    rec(initial_state(ctx))
    return result


@dataclass
class StateGraph:
    ctx: object                                  # the build context of the walk
    states: dict = field(default_factory=dict)   # state_key -> ModelState
    deadlock_fps: set = field(default_factory=set)
    final_fps: set = field(default_factory=set)


def state_key(state) -> tuple:
    """What tells two reachable states apart: the fingerprint, and each
    thread's body state (a host thread's history), which the fingerprint
    leaves out but which decides what the thread does next."""
    bodies = tuple(state.threads[tid].body_state for tid in sorted(state.threads))
    try:
        hash(bodies)
    except TypeError:   # a host history holding an unhashable payload
        bodies = tuple(map(id, bodies))   # kept alive by `StateGraph.states`
    return fingerprint(state), bodies


def reachable_states(program, config=None, max_states=500_000) -> StateGraph:
    """Every distinct reachable state, by depth-first walk memoized on
    `state_key` (each state expanded once, whatever path reached it)."""
    ctx, budget = _context(program, config)
    graph = StateGraph(ctx)

    def rec(state):
        key = state_key(state)
        if key in graph.states:
            return
        if len(graph.states) >= max_states:
            raise RuntimeError("state sweep exceeded the state limit")
        graph.states[key] = state
        enabled = state.enabled_threads(budget)
        if not enabled:
            fp = key[0]
            graph.final_fps.add(fp)
            if _classify_deadlock(state, budget):
                graph.deadlock_fps.add(fp)
            return
        for tid in enabled:
            rec(execute_step(state, tid, ctx).state)

    rec(initial_state(ctx))
    return graph
