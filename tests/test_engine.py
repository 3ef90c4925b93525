"""Search mechanics: selection, sleep sets, backtrack points, verdicts."""

import itertools

import pytest

from permute.core import EMPTY_CLOCK, RUNNABLE, ClockVector, ModelState, ThreadInfo, dependent
from permute import engine
from permute import primitives as prim
from permute.corpus import list_scenarios
from permute.engine import (
    BLOCKED,
    BUDGET_EXHAUSTED,
    COMPLETED,
    DEADLOCK,
    ExplorationConfig,
    FootprintIndex,
    StackEntry,
    classify_endstate,
    explore,
    propagate_sleep_set,
    select_next,
    update_backtrack_sets,
)
from permute.runtime import NondeterminismDetected, ObjectDecl, Program, ReplayCursor, ops
from permute.scenario import instantiate, parse_scenario

from full_scan import use_full_scans
from oracle import brute_force, reachable_states


def scenario(text):
    return instantiate(parse_scenario(text))


def frame_with(pendings, enabled=None, sleep=(), backtrack=(), done=()):
    state = ModelState()
    for tid, t in pendings.items():
        state.threads[tid] = ThreadInfo(RUNNABLE, t)
    entry = StackEntry(state, {t.triple(): t for t in sleep}, {})
    entry.enabled = sorted(enabled if enabled is not None else pendings)
    entry.backtrack = set(backtrack)
    entry.done = set(done)
    return entry


# -- select_next ---------------------------------------------------------------

def test_select_next_prefers_lowest_id():
    entry = frame_with({1: prim.SemPost(1, 0, "s"), 3: prim.SemPost(3, 0, "s")},
                       backtrack={3, 1})
    assert select_next(entry) == 1


def test_select_next_skips_done_and_sleeping():
    entry = frame_with({2: prim.SemPost(2, 0, "s")}, backtrack={2}, done={2})
    assert select_next(entry) is None

    sleeping = prim.MutexLock(3, 0, "m")
    entry = frame_with({2: prim.MutexLock(2, 0, "m"), 3: prim.MutexLock(3, 0, "m")},
                       backtrack={2, 3}, sleep=[sleeping])
    assert select_next(entry) == 2


# -- sleep-set propagation -------------------------------------------------------

def test_propagate_sleep_set():
    assert propagate_sleep_set({}, prim.SemPost(1, 0, "s")) == {}

    kept = prim.SemPost(2, 1, "s2")
    dropped = prim.MutexLock(2, 0, "m")
    sleep = {kept.triple(): kept, dropped.triple(): dropped}
    out = propagate_sleep_set(sleep, prim.MutexLock(1, 0, "m"))
    assert kept.triple() in out
    assert dropped.triple() not in out


# -- backtrack set computation ----------------------------------------------------

def indexed(trace):
    index = FootprintIndex()
    for t in trace:
        index.push(t)
    return index


def test_update_backtrack_sets_adds_conflicting_thread():
    lock1 = prim.MutexLock(1, 0, "m")
    root = frame_with({1: lock1, 2: prim.MutexLock(2, 0, "m")})
    root.thread_clocks = {1: EMPTY_CLOCK, 2: EMPTY_CLOCK}
    frontier = StackEntry(ModelState(), {}, {1: ClockVector({1: 1}), 2: EMPTY_CLOCK})
    nxt = prim.MutexLock(2, 0, "m")
    update_backtrack_sets([root, frontier], [lock1], frontier, nxt, indexed([lock1]))
    assert 2 in root.backtrack


def test_update_backtrack_sets_ignores_independent_and_empty():
    post1 = prim.SemPost(1, 0, "s1")
    root = frame_with({1: post1, 2: prim.SemPost(2, 1, "s2")})
    frontier = StackEntry(ModelState(), {}, {1: ClockVector({1: 1})})
    update_backtrack_sets([root, frontier], [post1], frontier, prim.SemPost(2, 1, "s2"),
                          indexed([post1]))
    assert root.backtrack == set()
    update_backtrack_sets([root], [], root, post1, indexed([]))  # empty trace: no-op
    assert root.backtrack == set()


def test_update_backtrack_sets_respects_happens_before():
    create = prim.ThreadCreate(0, 1, "t1")
    root = frame_with({0: create})
    frontier = StackEntry(ModelState(), {},
                          {0: ClockVector({0: 1}), 1: ClockVector({0: 1})})
    # The child's first op causally follows its creation: no backtrack point.
    update_backtrack_sets([root, frontier], [create], frontier,
                          prim.SemPost(1, 0, "s"), indexed([create]))
    assert root.backtrack == set()


# -- end-state classification ------------------------------------------------------

def _endstate(statuses, executed=None, budget=None):
    s = ModelState()
    for tid, status in enumerate(statuses):
        info = ThreadInfo(status)
        if status == RUNNABLE:
            info.pending = prim.SemWaitFused(tid, 0, "s")  # blocked: value 0
        info.executed = (executed or {}).get(tid, 0)
        s.threads[tid] = info
    s.objects[0] = prim.SemObj(0, "s", 0)
    return s, ExplorationConfig(max_depth_per_thread=budget)


def test_classify_endstate():
    s, cfg = _endstate(["exited", "exited"])
    assert classify_endstate(s, cfg) == COMPLETED

    s, cfg = _endstate([RUNNABLE, RUNNABLE])
    assert classify_endstate(s, cfg) == DEADLOCK

    s, cfg = _endstate([RUNNABLE], executed={0: 6}, budget=6)
    assert classify_endstate(s, cfg) == BUDGET_EXHAUSTED

    # One thread cut by the budget makes the whole verdict a budget cut.
    s, cfg = _endstate([RUNNABLE, RUNNABLE], executed={0: 6, 1: 2}, budget=6)
    assert classify_endstate(s, cfg) == BUDGET_EXHAUSTED


# -- whole explorations --------------------------------------------------------------

def test_two_contending_locks_explore_two_traces():
    prog = scenario("mutex m\n"
                    "thread a { lock m; unlock m; }\n"
                    "thread b { lock m; unlock m; }\n")
    report = explore(prog)
    assert report.traces == 2
    assert report.deadlocks == 0


def test_empty_program_is_one_trace_with_no_transitions():
    report = explore(scenario(""))
    assert report.traces == 1
    assert report.total_transitions == 0
    assert report.deadlocks == 0


def test_deadlock_detection_and_first_deadlock_stop():
    text = open("src/permute/corpus/philosophers_mut_deadlock_2.scn").read()
    full = explore(scenario(text))
    assert full.deadlocks >= 1
    assert full.first_deadlock_trace is not None

    stopped = explore(scenario(text), ExplorationConfig(stop_at_first_deadlock=True))
    assert stopped.deadlocks == 1
    assert stopped.traces <= full.traces


def _end_states(program, config):
    """(deadlock, final) fingerprint sets of the search, then of the oracle."""
    traces = []
    explore(program, config, observer=traces.append)
    ends = [tr for tr in traces if tr.verdict != BLOCKED]
    deadlocks = {tr.fingerprint for tr in ends if tr.verdict == DEADLOCK}
    oracle = brute_force(program, config)
    return ((deadlocks, {tr.fingerprint for tr in ends}),
            (oracle.deadlock_fps, oracle.final_fps))


def test_races_of_blocked_threads_in_end_states_are_backtracked():
    # The race between the two first locks shows only in the end state,
    # where every thread is blocked: t0 waits on the mutex it holds.  Cut
    # by the budget, producer_consumer_if ends with blocked threads whose
    # races also show only there.
    self_deadlock = scenario("mutex m\nthread t0 { lock m; lock m; }\nthread t1 { lock m; }\n")
    search, oracle = _end_states(self_deadlock, ExplorationConfig())
    assert search == oracle and len(oracle[0]) == 2
    text = open("src/permute/corpus/producer_consumer_if.scn").read()
    search, oracle = _end_states(scenario(text), ExplorationConfig(max_depth_per_thread=6))
    assert search == oracle and len(oracle[1]) == 4


def test_oracles_keep_states_that_differ_only_in_thread_locals():
    # After `b` writes x back to 0, the states where `a` read 0 and where it
    # read 1 have one fingerprint; only `a`'s local tells them apart, and
    # only the second writes y.
    program = scenario("mutex m\nvar x = 0\nvar y = 0\n"
                       "thread a { r = read x; lock m; if (r == 1) { write y 1; } unlock m; }\n"
                       "thread b { write x 1; write x 0; }\n")
    finals = brute_force(program).final_fps
    assert len(finals) == 2
    assert reachable_states(program).final_fps == finals
    traces = []
    explore(program, observer=traces.append)
    assert {tr.fingerprint for tr in traces if tr.verdict != BLOCKED} == finals


def test_budget_limits_thread_appearances():
    text = open("src/permute/corpus/producer_consumer_if.scn").read()
    schedules = []
    explore(scenario(text), ExplorationConfig(max_depth_per_thread=6),
            observer=lambda tr: schedules.append(tr.schedule))
    assert schedules
    for schedule in schedules:
        for tid in {step.tid for step in schedule}:
            steps = [s for s in schedule if s.tid == tid and s.label != "exit"]
            assert len(steps) <= 6


def test_reports_are_deterministic():
    text = open("src/permute/corpus/philosophers_mut_3.scn").read()
    a = explore(scenario(text))
    b = explore(scenario(text))
    assert a == b


def test_sleep_sets_reduce_traces_with_identical_verdicts():
    text = open("src/permute/corpus/philosophers_mut_3.scn").read()
    with_sleep = explore(scenario(text))
    without = explore(scenario(text), ExplorationConfig(sleep_sets_enabled=False))
    assert with_sleep.traces < without.traces
    assert with_sleep.deadlocks == without.deadlocks == 0


def test_schedule_steps_were_enabled_in_their_prestates():
    # Validity of recorded schedules, checked by replaying each one.
    text = open("src/permute/corpus/small_cond_signal.scn").read()
    results = []
    explore(scenario(text), ExplorationConfig(keep_all_traces=True),
            observer=results.append)
    assert results
    for tr in results:
        cursor = ReplayCursor(scenario(text))
        cursor.run(tr.schedule)  # raises if any step was not enabled


def test_stop_at_first_failure():
    text = open("src/permute/corpus/small_assert_race.scn").read()
    report = explore(scenario(text), ExplorationConfig(stop_at_first_failure=True))
    assert len(report.assertion_failures) == 1


# -- body re-drive ---------------------------------------------------------------------

def test_body_that_diverges_when_rebuilt_is_detected():
    # The worker's body takes another mutex each time it is rebuilt, so the
    # first backtrack that moves it back re-drives it to a different request.
    builds = itertools.count()

    def main():
        yield ops.create("a")
        yield ops.create("b")
        yield ops.join("a")
        yield ops.join("b")

    def flaky():
        name = "m" if next(builds) == 0 else "other"
        yield ops.lock(name)
        yield ops.unlock(name)

    def steady():
        yield ops.lock("m")
        yield ops.unlock("m")

    program = Program([("main", main), ("a", flaky), ("b", steady)])
    with pytest.raises(NondeterminismDetected, match="thread 1"):
        explore(program)


def _create_and_join(*names):
    def main():
        for name in names:
            yield ops.create(name)
        for name in names:
            yield ops.join(name)
    return main


def _lock_unlock():
    yield ops.lock("m")
    yield ops.unlock("m")


def test_rebuilt_body_writing_another_value_is_detected():
    # Same kind, same variable, another value: the re-surfaced request is
    # not the recorded one, and the step it builds differs in its payload.
    builds = itertools.count()

    def flaky():
        yield ops.write("x", 1 if next(builds) == 0 else 2)
        yield from _lock_unlock()

    program = Program([("main", _create_and_join("a", "b")), ("a", flaky),
                       ("b", _lock_unlock)], [ObjectDecl("x", "var", {"init": 0})])
    with pytest.raises(NondeterminismDetected, match="thread 1 re-executed to .*write"):
        explore(program)


def test_fresh_assert_closure_per_build_is_not_a_divergence():
    # Each build yields a new predicate object, so the re-surfaced request
    # differs from the recorded one; the step it builds does not.
    builds = itertools.count()

    def checker(shared_predicate):
        def body():
            next(builds)
            predicate = shared_predicate or (lambda shared: shared["x"] == 0)
            yield ops.assert_check(predicate, "x is zero", var_refs=("x",))
            yield from _lock_unlock()
        return body

    def program(shared_predicate=None):
        return Program([("main", _create_and_join("a", "b")),
                        ("a", checker(shared_predicate)), ("b", _lock_unlock)],
                       [ObjectDecl("x", "var", {"init": 0})])

    report = explore(program())
    assert next(builds) >= 2   # the checker was re-driven
    assert report == explore(program(lambda shared: shared["x"] == 0))
    assert report.traces > 1 and not report.has_findings()


# -- incremental analysis ----------------------------------------------------------------

def _join_then_read():
    # Main reads what a joined worker wrote: only the join's clock, merged
    # from the worker's steps, orders the read after the write.
    def main():
        yield ops.create("w")
        yield ops.create("v")
        yield ops.join("w")
        yield ops.read("x")
        yield ops.join("v")

    def writer():
        yield ops.write("x", 1)

    return Program([("main", main), ("w", writer), ("v", writer)],
                   [ObjectDecl("x", "var", {"init": 0})])


def test_incremental_scans_explore_like_full_scans(monkeypatch):
    # The newest-step test for unmoved threads, the candidate lists without
    # create/join relations, and the covered-clock skip must not change a
    # single trace: compare with the textbook scans on the whole corpus.
    programs = [(name, lambda path=path: instantiate(parse_scenario(path.read_text())))
                for name, path in list_scenarios()]
    programs.append(("join_then_read", _join_then_read))
    runs = []
    for name, program in programs:
        for kw in AUDIT_CONFIGS:
            config = ExplorationConfig(max_depth_per_thread=4, **kw)
            traces = []
            report = explore(program(), config, observer=traces.append)
            runs.append((name, kw, program, config, report, traces))
    use_full_scans(monkeypatch)
    for name, kw, program, config, report, traces in runs:
        reference = []
        assert explore(program(), config, observer=reference.append) == report, f"{name} {kw}"
        assert reference == traces, f"{name} {kw}"


# -- compiled bodies -------------------------------------------------------------------

def test_generator_bodies_explore_like_compiled_ones(monkeypatch):
    # Scenario threads resume from their snapshots; run as host generators
    # over the same code, they are re-driven on every backtrack instead.  The
    # two paths must find the same traces and reports.
    redrives = []
    redrive = engine._Search._redrive
    monkeypatch.setattr(engine._Search, "_redrive",
                        lambda search: redrives.append(1) or redrive(search))
    for name, path in list_scenarios():
        compiled = instantiate(parse_scenario(path.read_text()))
        hosted = Program(compiled.threads, compiled.declarations)
        for kw in AUDIT_CONFIGS:
            config = ExplorationConfig(max_depth_per_thread=4, **kw)
            runs = []
            for program in (compiled, hosted):
                traces = []
                runs.append((explore(program, config, observer=traces.append), traces))
            assert runs[0] == runs[1], f"{name} {kw}"
    assert redrives


def test_scenario_threads_are_never_redriven(monkeypatch):
    def refuse(search):
        raise AssertionError("a scenario thread was re-driven")

    monkeypatch.setattr(engine._Search, "_redrive", refuse)
    for name, path in list_scenarios():
        explore(instantiate(parse_scenario(path.read_text())),
                ExplorationConfig(max_depth_per_thread=4))


# -- footprints ------------------------------------------------------------------------

AUDIT_CONFIGS = [
    {},
    {"policy_overrides": {"mutex": "lifo", "sem": "lifo", "cond": "lifo"},
     "max_spurious_wakeups": 1},
]


def _contents(state):
    return ({oid: obj.snapshot() for oid, obj in state.objects.items()},
            {tid: (info.status, info.pending, info.executed, info.body_state)
             for tid, info in state.threads.items()},
            dict(state.shared_vars), dict(state.spurious_used))


def _assert_writes_within_footprint(pre, contents, outcome):
    """A step leaves its pre-state as it was, and its successor shares every
    object outside its footprint and every thread it neither runs nor
    targets: those are the parts `ModelState.successor` does not copy."""
    t, post = outcome.transition, outcome.state
    assert _contents(pre) == contents, f"{t} wrote its pre-state"
    footprint = t.footprint()
    if footprint is None:
        return
    for oid, obj in pre.objects.items():
        if oid not in footprint:
            assert post.objects[oid] is obj, f"{t} copied object {oid}"
    for tid, info in pre.threads.items():
        if tid not in (t.executor, t.thread_target):
            assert post.threads[tid] is info, f"{t} copied thread {tid}"


def _transitions_seen(program, config):
    """Every distinct transition executed or pending on an explored trace.
    The replay also audits each step's writes against its footprint."""
    traces = []
    explore(program, config, observer=traces.append)
    seen = {}
    for tr in traces:
        # Scenario objects are all declared, so their ids agree across replays.
        cursor = ReplayCursor(program, config.policy_overrides, config.max_spurious_wakeups,
                              config.max_depth_per_thread)
        for step in tr.schedule + [None]:
            # Replays test one thread's enabledness; it must agree with the
            # search's enabled set on every state visited.
            state, budget = cursor.state, config.max_depth_per_thread
            assert [tid for tid in sorted(state.threads)
                    if state.thread_enabled(tid, budget)] == state.enabled_threads(budget)
            for info in cursor.state.threads.values():
                t = info.pending
                if t is not None:
                    key = (type(t), t.kind, t.executor, t.object_key(), t.thread_target,
                           t.mutex_owner_refs(), t.mutex_queue_refs(), t.footprint(),
                           getattr(t, "policy", None))
                    seen.setdefault(key, t)
            if step is not None:
                contents = _contents(state)
                _assert_writes_within_footprint(state, contents, cursor.step(step))
    return list(seen.values())


def test_footprints_cover_every_dependence_in_the_corpus():
    # The index only tests steps that share a footprint key or a thread
    # relation; a dependent pair outside those would be missed.
    pairs = 0
    for name, path in list_scenarios():
        program = instantiate(parse_scenario(path.read_text()))
        for kw in AUDIT_CONFIGS:
            config = ExplorationConfig(max_depth_per_thread=4, **kw)
            for a, b in itertools.combinations(_transitions_seen(program, config), 2):
                pairs += 1
                if not dependent(a, b):
                    continue
                fa, fb = a.footprint(), b.footprint()
                assert (fa is None or fb is None or a.executor == b.executor
                        or a.thread_target == b.executor or b.thread_target == a.executor
                        or set(fa) & set(fb)), f"{name} {kw}: {a} / {b}"
    assert pairs > 1000
