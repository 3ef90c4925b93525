"""Brute-force interleaving enumeration, independent of the DPOR engine.

Explores every schedule with no pruning of any kind: at each state it
branches over every enabled thread.  Shares the primitive semantics and the
runtime stepping (those are not under test here) but none of the search
machinery -- backtrack sets, sleep sets, and clock vectors are deliberately
absent.  Used as the ground truth for deadlock sets, assertion verdicts,
and final-state fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from permute.core import RUNNABLE, fingerprint
from permute.runtime import BuildContext, RuntimeSession, execute_step, initial_state


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


def brute_force(program, config=None, max_traces=2_000_000) -> BruteResult:
    """Enumerate every interleaving of `program` under `config` limits."""
    policy_overrides = getattr(config, "policy_overrides", {}) if config else {}
    max_spurious = getattr(config, "max_spurious_wakeups", 0) if config else 0
    budget = getattr(config, "max_depth_per_thread", None) if config else None

    ctx = BuildContext(program, policy_overrides, max_spurious)
    result = BruteResult()

    def fresh_session_at(path):
        session = RuntimeSession(program, ctx)
        state = initial_state(program, session, ctx)
        for tid in path:
            state = execute_step(session, state, tid, ctx).state
        return session, state

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

    path = []
    session, state0 = fresh_session_at(path)

    def rec(session, state):
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
        for k, tid in enumerate(enabled):
            if k > 0:
                # Generators cannot be forked; rebuild and re-run the prefix.
                session, state = fresh_session_at(path)
            outcome = execute_step(session, state, tid, ctx)
            note_findings(outcome.findings, state)
            path.append(tid)
            rec(session, outcome.state)
            path.pop()

    rec(session, state0)
    return result


@dataclass
class StateGraph:
    states: dict = field(default_factory=dict)   # fingerprint -> ModelState
    deadlock_fps: set = field(default_factory=set)
    final_fps: set = field(default_factory=set)


def reachable_states(program, config=None, max_states=500_000) -> StateGraph:
    """Every distinct reachable state, by depth-first walk memoized on the
    state fingerprint (each state expanded once, whatever path reached it)."""
    policy_overrides = getattr(config, "policy_overrides", {}) if config else {}
    max_spurious = getattr(config, "max_spurious_wakeups", 0) if config else 0
    budget = getattr(config, "max_depth_per_thread", None) if config else None

    ctx = BuildContext(program, policy_overrides, max_spurious)
    graph = StateGraph()

    def fresh_session_at(path):
        session = RuntimeSession(program, ctx)
        state = initial_state(program, session, ctx)
        for tid in path:
            state = execute_step(session, state, tid, ctx).state
        return session, state

    path = []

    def rec(session, state):
        fp = fingerprint(state)
        if fp in graph.states:
            return
        if len(graph.states) >= max_states:
            raise RuntimeError("state sweep exceeded the state limit")
        graph.states[fp] = state
        enabled = state.enabled_threads(budget)
        if not enabled:
            graph.final_fps.add(fp)
            if _classify_deadlock(state, budget):
                graph.deadlock_fps.add(fp)
            return
        for k, tid in enumerate(enabled):
            if k > 0:
                session, state = fresh_session_at(path)
            outcome = execute_step(session, state, tid, ctx)
            path.append(tid)
            rec(session, outcome.state)
            path.pop()

    session, state0 = fresh_session_at(path)
    rec(session, state0)
    return graph
