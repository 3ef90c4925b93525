"""Search mechanics: selection, sleep sets, backtrack points, verdicts."""

import collections
import itertools
from unittest import mock

import pytest

from permute.core import (
    EMPTY_CLOCK,
    OBJECT_CLASSES,
    RUNNABLE,
    TRANSITION_CLASSES,
    ClockVector,
    ModelState,
    ThreadInfo,
    Transition,
    coenabled,
    dependent,
    exact_key,
    fingerprint,
    thread_related,
)
from permute import engine, runtime
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
from permute.runtime import (
    BuildContext,
    NondeterminismDetected,
    ObjectDecl,
    Program,
    ReplayCursor,
    ScheduleStep,
    ops,
    schedule_step,
    surfaced_transition,
)
from permute.scenario import ThreadCode, instantiate, parse_scenario

import full_scan
from full_scan import use_full_scans
from scripted import Script, body_of, scripted
from test_extension import GateObj, GateOpen, GatePass, make_program as gate_program
from oracle import brute_force, reachable_states, state_key


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


def test_update_backtrack_sets_falls_back_when_the_racer_is_disabled():
    # Thread 2 is not enabled where its race lands: every thread enabled
    # there gets a point instead.
    lock1 = prim.MutexLock(1, 0, "m")
    root = frame_with({1: lock1, 2: prim.MutexLock(2, 0, "m"), 3: prim.SemPost(3, 1, "s")},
                      enabled=[1, 3])
    frontier = StackEntry(ModelState(), {}, {1: ClockVector({1: 1})})
    update_backtrack_sets([root, frontier], [lock1], frontier, prim.MutexLock(2, 0, "m"),
                          indexed([lock1]))
    assert root.backtrack == {1, 3}


def test_latest_race_is_the_latest_racing_step():
    # The locks of threads 1 and 3 both race with thread 2's: the later one
    # is its race.  A clock that covers the later step leaves the earlier
    # one, and a clock that covers both leaves none.
    trace = [prim.MutexLock(1, 0, "m"), prim.MutexLock(3, 0, "m")]
    index, nxt = indexed(trace), prim.MutexLock(2, 0, "m")
    assert engine.latest_race(trace, EMPTY_CLOCK, nxt, index) == 1
    assert engine.latest_race(trace, ClockVector({3: 2}), nxt, index) == 0
    assert engine.latest_race(trace, ClockVector({1: 1, 3: 2}), nxt, index) == -1
    assert engine.latest_race([], EMPTY_CLOCK, nxt, indexed([])) == -1


def test_add_backtrack_point_adds_the_racing_thread_when_it_is_enabled():
    entry = frame_with({1: prim.MutexLock(1, 0, "m"), 2: prim.MutexLock(2, 0, "m"),
                        3: prim.SemPost(3, 1, "s")}, backtrack={1})
    engine.add_backtrack_point(entry, 2)
    assert entry.backtrack == {1, 2}


def test_add_backtrack_point_adds_every_enabled_thread_when_the_racer_is_not():
    entry = frame_with({1: prim.MutexLock(1, 0, "m"), 2: prim.MutexLock(2, 0, "m"),
                        3: prim.SemPost(3, 1, "s")}, enabled=[1, 3])
    engine.add_backtrack_point(entry, 2)
    assert entry.backtrack == {1, 3}
    entry = frame_with({1: prim.MutexLock(1, 0, "m")}, enabled=[])
    engine.add_backtrack_point(entry, 1)   # nothing enabled: no point
    assert entry.backtrack == set()


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
    # A host thread's body state, its history, tells them apart too.
    program = scenario("mutex m\nvar x = 0\nvar y = 0\n"
                       "thread a { r = read x; lock m; if (r == 1) { write y 1; } unlock m; }\n"
                       "thread b { write x 1; write x 0; }\n")
    finals = brute_force(program).final_fps
    assert len(finals) == 2
    hosted = Program(program.threads, program.declarations)
    assert brute_force(hosted).final_fps == finals
    for form in (program, hosted):
        assert reachable_states(form).final_fps == finals
        traces = []
        explore(form, observer=traces.append)
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


def test_policy_overrides_name_only_kinds_that_take_a_policy():
    ExplorationConfig(policy_overrides=dict.fromkeys(prim.DEFAULT_POLICY, prim.LIFO))
    for kind in ("mutx", "barrier"):
        with pytest.raises(ValueError, match=kind):
            ExplorationConfig(policy_overrides={"mutex": prim.FIFO, kind: prim.FIFO})


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


@pytest.mark.parametrize("first,second", [([1], [True]), ({"k": 1}, {"k": True})],
                         ids=["list", "dict"])
def test_rebuilt_body_writing_items_of_another_type_is_detected(first, second):
    # Equal containers whose items differ in type print apart, so the
    # re-surfaced write is not the recorded one either.
    builds = itertools.count()

    def flaky():
        yield ops.write("x", first if next(builds) == 0 else second)
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

    # A host thread's transitions are built anew on every surfacing, so the
    # fresh closures leave nothing behind in the build context.
    search = engine._Search(program(), ExplorationConfig())
    assert search.run() == report
    assert search.ctx.transitions == {}
    assert search.ctx.steps == {}
    # Nor does the successor memo key a host program's states.
    memo = search.memo
    assert not (memo.steps or memo.effects or memo.objects or memo.threads
                or memo.fingerprints)


def test_rebuilt_assert_naming_other_variables_is_detected():
    # Same kind, message and predicate: only the variables the re-surfaced
    # assertion names differ, which its schedule step does not show.
    builds = itertools.count()

    def checker():
        var_refs = ("x",) if next(builds) == 0 else ("y",)
        yield ops.assert_check(lambda shared: shared["x"] == 0, "x is zero", var_refs=var_refs)
        yield from _lock_unlock()

    program = Program([("main", _create_and_join("a", "b")), ("a", checker),
                       ("b", _lock_unlock)],
                      [ObjectDecl("x", "var", {"init": 0}), ObjectDecl("y", "var", {"init": 0})])
    with pytest.raises(NondeterminismDetected,
                       match=r"thread 1 re-executed to .*var_refs=\('y',\)"):
        explore(program)


def _mixed_writes(compiled):
    # Equal values of four types, one of them unhashable, written to one
    # variable by one thread while another reads it.
    return scripted({"main": [ops.create("w"), ops.create("r"), ops.join("w"), ops.join("r")],
                      "w": [ops.write("x", value) for value in ([1], True, 1, 1.0)],
                      "r": [ops.read("x")]},
                     [ObjectDecl("x", "var", {"init": 0})], compiled)


@pytest.mark.parametrize("compiled", [False, True], ids=["host", "compiled"])
def test_equal_payloads_of_other_types_stay_apart(compiled):
    traces = []
    program = _mixed_writes(compiled)
    explore(program, observer=traces.append)
    assert [" ".join(f"{step.label}:{step.payload}" for step in tr.schedule if step.tid)
            for tr in traces] == [
        "write:[1] write:True write:1 write:1.0 exit:- read:- exit:-",
        "write:[1] write:True write:1 read:- write:1.0 exit:- exit:-",
        "write:[1] write:True read:- write:1 write:1.0 exit:- exit:-",
        "write:[1] read:- write:True write:1 write:1.0 exit:- exit:-",
        "read:- write:[1] write:True write:1 write:1.0 exit:- exit:-",
    ]
    # The state oracle walks these states too, a host history that holds
    # the unhashable payload included.
    assert reachable_states(program).final_fps == {tr.fingerprint for tr in traces}


_READER = ("var x = 0\nvar y = 0\nmutex m\n"
           "thread r { v = read x; lock m; unlock m; write y v; }")


def _mixed_reads(first=True, second=1):
    # A compiled thread reads equal values of two types that a host thread
    # writes, keeps the value in a local across two steps and writes it.
    reader = scenario(_READER)
    main = [ops.create("w"), ops.create("r"), ops.join("w"), ops.join("r")]
    return Program([("main", body_of(main)),
                    ("w", body_of([ops.write("x", first), ops.write("x", second)])),
                    reader.threads[1]],
                   reader.declarations, [Script(main), None, reader.codes[1]])


def _racing_writes():
    # Compiled threads a and b write equal values of two types to x, and
    # the compiled reader of `_mixed_reads` copies x to y: once both writers
    # exited, two states differ only in the type of x.
    reader = scenario(_READER)
    main = [ops.create("a"), ops.create("b"), ops.create("r"),
            ops.join("a"), ops.join("b"), ops.join("r")]
    writers = {"a": [ops.write("x", True)], "b": [ops.write("x", 1)]}
    return Program([("main", body_of(main))]
                   + [(name, body_of(requests)) for name, requests in writers.items()]
                   + [reader.threads[1]],
                   reader.declarations,
                   [Script(main)] + [Script(requests) for requests in writers.values()]
                   + [reader.codes[1]])


def _reader_writes(program):
    traces = []
    explore(program, observer=traces.append)
    reader = program.tid_of["r"]
    return {f"{step.label}:{step.payload}" for tr in traces for step in tr.schedule
            if step.tid == reader and step.label == "write"}


def test_memoized_steps_keep_equal_values_of_other_types_apart():
    # The steps that deliver True and 1 to the reader, and the ones that
    # resume it with either in its local, are different steps.
    assert _reader_writes(_mixed_reads()) == {"write:0", "write:1", "write:True"}


def test_memoized_steps_keep_nested_values_of_other_types_apart():
    # The same, one level down: the values are tuples whose items differ
    # in type.
    assert _reader_writes(_mixed_reads((True, 2), (1, 2))) == {
        "write:0", "write:(1, 2)", "write:(True, 2)"}


def test_each_distinct_request_is_built_once_per_check(monkeypatch):
    builds = collections.Counter()
    build = runtime.build_transition

    def counted(tid, req, state, ctx):
        builds[tid, req] += 1
        return build(tid, req, state, ctx)

    monkeypatch.setattr(runtime, "build_transition", counted)
    explore(scenario(open("src/permute/corpus/reader_two_writers_cond.scn").read()),
            ExplorationConfig(max_depth_per_thread=16))
    assert builds and max(builds.values()) == 1


def test_each_distinct_body_step_runs_once_per_check(monkeypatch):
    resumes = collections.Counter()
    resume = ThreadCode.resume

    def counted(code, state, result=None):
        resumes[id(code), exact_key(state), exact_key(result)] += 1
        return resume(code, state, result)

    monkeypatch.setattr(ThreadCode, "resume", counted)
    explore(scenario(open("src/permute/corpus/reader_two_writers_cond.scn").read()),
            ExplorationConfig(max_depth_per_thread=16))
    assert resumes and max(resumes.values()) == 1


def test_each_distinct_step_of_a_search_is_applied_once(monkeypatch):
    # Every schedule of cond_broadcast_fan runs through a few hundred
    # distinct (pre-state, thread) steps, thousands of times over; each is
    # applied once, and every repeat takes the recorded successor.
    applies = collections.Counter()
    apply_to = Transition.apply_to

    def counted(t, state):
        applies[state_key(state), t.executor] += 1
        return apply_to(t, state)

    monkeypatch.setattr(Transition, "apply_to", counted)
    report = explore(scenario(open("src/permute/corpus/cond_broadcast_fan.scn").read()))
    assert report.total_transitions > 10 * len(applies)
    assert applies and max(applies.values()) == 1


def _deep_lib_search(observer=None):
    return engine._Search(
        scenario(open("src/permute/corpus/reader_two_writers_cond.scn").read()),
        ExplorationConfig(max_depth_per_thread=16), observer=observer)


def test_successor_memo_holds_at_most_its_bound():
    # The search makes thousands of distinct steps and states: each table
    # of the memo fills, and keeps at most its bound.
    search = _deep_lib_search(observer=lambda result: None)
    search.run()
    memo, bound = search.memo, engine.SUCCESSOR_MEMO_BOUND
    assert len(memo.steps) == len(memo.effects) == bound
    for table in (memo.objects, memo.threads, memo.fingerprints):
        assert len(table) <= bound
    # The frame records live in the step entries and go with them.
    assert 0 < sum(record is not None for _, _, record in memo.steps.values()) <= bound


def test_successor_memo_runs_the_repeats_of_recent_steps_once(monkeypatch):
    # 15,484 steps, 5,053 of them missing the step map: most repeats come
    # from recent states, and most misses read what a recent step read, so
    # the effect table serves them.
    runs = itertools.count()
    run = engine.execute_step

    def counted(*args):
        next(runs)
        return run(*args)

    monkeypatch.setattr(engine, "execute_step", counted)
    _deep_lib_search().run()
    assert next(runs) <= 1000


def _register_gate(monkeypatch):
    monkeypatch.setitem(OBJECT_CLASSES, "gate", GateObj)
    monkeypatch.setitem(TRANSITION_CLASSES, "gate_open", GateOpen)
    monkeypatch.setitem(TRANSITION_CLASSES, "gate_pass", GatePass)


@pytest.mark.parametrize("bound", [8, None], ids=["filled", "default"])
def test_successor_memo_explores_like_no_memo(monkeypatch, bound):
    # The memo only skips computing successors: with it (filled so early
    # that it drops steps on nearly every program, or at its default bound,
    # None) and without it (no state keyed, as for an unhashable value),
    # every report and every trace must be the same.  The keyed runs must
    # serve some steps from the memo, or the comparison shows nothing.
    programs = [(name, lambda path=path: instantiate(parse_scenario(path.read_text())))
                for name, path in list_scenarios()]
    # The gate's steps are wildcards: a keyed search copies and keys every
    # part after one.
    programs += [("racing_writes", _racing_writes),
                 ("mixed_writes", lambda: _mixed_writes(True)),
                 ("gate", lambda: gate_program(waiters=3, compiled=True))]
    _register_gate(monkeypatch)
    if bound is not None:
        monkeypatch.setattr(engine, "SUCCESSOR_MEMO_BOUND", bound)
    counts = collections.Counter()
    step, run = engine.SuccessorMemo.step, engine.execute_step

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    def counted_run(*args):
        counts["runs"] += 1
        return run(*args)

    monkeypatch.setattr(engine.SuccessorMemo, "step", counted_step)
    monkeypatch.setattr(engine, "execute_step", counted_run)
    runs = []
    for keyed in (True, False):
        if not keyed:
            monkeypatch.setattr(engine.SuccessorMemo, "key", lambda *args: None)
        for name, program in programs:
            for kw in AUDIT_CONFIGS:
                traces = []
                report = explore(program(), ExplorationConfig(max_depth_per_thread=4, **kw),
                                 observer=traces.append)
                runs.append((name, kw, report, traces))
        if keyed:
            assert counts["steps"] > counts["runs"], "no step was served from the memo"
    half = len(runs) // 2
    for (name, kw, report, traces), reference in zip(runs[:half], runs[half:]):
        assert (report, traces) == reference[2:], f"{name} {kw}"


def _outcome_contents(outcome) -> tuple:
    """A step's successor by content, with values typed, and its pending
    transitions by identity; its transition and findings."""
    s = outcome.state
    return ({oid: obj.content_key() for oid, obj in s.objects.items()},
            {tid: (info.status, info.pending, info.executed, exact_key(info.body_state))
             for tid, info in s.threads.items()},
            {name: exact_key(value) for name, value in s.shared_vars.items()},
            {oid: exact_key(count) for oid, count in s.spurious_used.items()},
            outcome.transition, outcome.findings)


def _audit_served_steps(monkeypatch) -> tuple:
    """Check every step the successor memo serves from its effect table
    against a fresh `execute_step` of the same step, and the key it serves
    against the successor's parts.  Returns the served steps and the ones
    that differ, both filled as searches run."""
    served, wrong = [], []
    contexts = []
    step, serve = engine.SuccessorMemo.step, engine._served

    def stepped(memo, state, key, tid, ctx):
        contexts.append(ctx)
        try:
            return step(memo, state, key, tid, ctx)
        finally:
            contexts.pop()

    def audited(state, key, tid, effect):
        entry = serve(state, key, tid, effect)
        outcome, successor_key = entry[0], entry[1]
        s = outcome.state
        served.append(outcome.transition)
        fresh = runtime.execute_step(state, tid, contexts[-1])
        if (_outcome_contents(outcome) != _outcome_contents(fresh)
                or list(s.objects) != sorted(s.objects)
                or successor_key != (tuple(s.objects.values()), tuple(s.threads.values()),
                                     engine._table_key(s.shared_vars),
                                     engine._table_key(s.spurious_used))):
            wrong.append(outcome.transition)
        return entry

    monkeypatch.setattr(engine.SuccessorMemo, "step", stepped)
    monkeypatch.setattr(engine, "_served", audited)
    return served, wrong


def test_served_steps_equal_fresh_steps(monkeypatch):
    # A step served from the effect of a step that read the same entries
    # must be the step a fresh run makes: its objects, thread entries,
    # variables and spurious counts by typed content, its pending
    # transitions by identity, and its findings.  Over the corpus, the
    # typed writes of `_racing_writes`, a failing assertion that runs
    # with another variable at either value, and the wildcard gate.
    _register_gate(monkeypatch)
    served, wrong = _audit_served_steps(monkeypatch)
    programs = [lambda path=path: instantiate(parse_scenario(path.read_text()))
                for _, path in list_scenarios()]
    programs += [_racing_writes, lambda: gate_program(waiters=3, compiled=True),
                 lambda: scenario("var x = 0\nvar y = 0\nmutex m\n"
                                  "thread a { lock m; unlock m; assert(x == 1); }\n"
                                  "thread b { lock m; write y 1; unlock m; }")]
    for program in programs:
        for kw in AUDIT_CONFIGS:
            explore(program(), ExplorationConfig(max_depth_per_thread=6, **kw))
    assert not wrong, wrong[:3]
    kinds = {t.kind for t in served}
    assert len(served) > 5000 and {"write", "read", "assert", "cond_wake", "join"} <= kinds


class _Recorder(Script):
    """Compiled code that surfaces a fixed list of requests and keeps each
    result it is handed in its state."""

    def start(self):
        return self.requests[0], ()

    def resume(self, state, result):
        state += (result,)
        return (self.requests[len(state)] if len(state) < len(self.requests) else None), state


class _PeekAll(Transition):
    """Reads the sum of every semaphore's value, though its footprint names
    only its own object: it breaks the read rule."""

    kind = "peek"
    __slots__ = ()

    def depends_with(self, other):
        return self.same_object(other)

    def footprint(self):
        return (self.oid,)

    def result_in(self, state):
        return sum(obj.value for obj in state.objects.values() if obj.kind == "sem")


def test_served_step_audit_flags_a_read_outside_the_footprint(monkeypatch):
    # b peeks after its lock and unlock, a posts s inside its own: both
    # lock orders are explored, so b peeks with s at 0 and at 1, reading
    # the same entries of its footprint.  The second peek is served the
    # first one's result, which the audit must flag.
    monkeypatch.setitem(TRANSITION_CLASSES, "peek", _PeekAll)
    served, wrong = _audit_served_steps(monkeypatch)
    scripts = {"main": [ops.create("b"), ops.create("a"), ops.join("b"), ops.join("a")],
               "b": [ops.lock("m"), ops.unlock("m"), runtime.OpRequest("peek", "p", "sem")],
               "a": [ops.sem_getvalue("s"), ops.lock("m"), ops.sem_post("s"), ops.unlock("m")]}
    program = Program([(name, body_of(requests)) for name, requests in scripts.items()],
                      [ObjectDecl("m", "mutex"), ObjectDecl("s", "sem"), ObjectDecl("p", "sem")],
                      [_Recorder(requests) for requests in scripts.values()])
    explore(program)
    assert [t.kind for t in wrong] == ["peek"]


def test_wildcard_steps_always_run(monkeypatch):
    # A wildcard step may read anything, so no recorded effect serves it:
    # each one missing from the step map runs, and none is kept.
    _register_gate(monkeypatch)
    runs, missed = [], []
    step, run = engine.SuccessorMemo.step, engine.execute_step

    def counted(memo, state, key, tid, ctx):
        wildcard = state.pending_of(tid).keys is None and (key, tid) not in memo.steps
        before = len(runs)
        entry = step(memo, state, key, tid, ctx)
        if wildcard:
            missed.append(len(runs) - before)
        return entry

    monkeypatch.setattr(engine.SuccessorMemo, "step", counted)
    monkeypatch.setattr(engine, "execute_step", lambda *args: runs.append(1) or run(*args))
    search = engine._Search(gate_program(waiters=3, compiled=True), ExplorationConfig())
    search.run()
    assert missed and set(missed) == {1}
    # The search is keyed: the effects of its other steps are kept.
    assert search.memo.effects
    assert all(info.pending.keys is not None for info, *_ in search.memo.effects)


def _long_way_record(search, frame) -> tuple:
    """The record of `frame` derived from its state and its parent frame
    alone -- the live and enabled threads from the state, the unmoved live
    threads whose latest race, found by the full scan (`latest_race`), is
    with the newest step, and the pending transitions whose thread or clock
    the step changed -- and the points that full backtrack scans for the
    unmoved threads add to the parent's backtrack set.  The search's
    backtrack sets are left as they were."""
    state, parent, stack = frame.pre_state, search.stack[-2], search.stack
    live = state.live_threads(search.config.max_depth_per_thread)
    enabled = state.enabled_threads(live=live)
    newest = len(search.trace) - 1
    racing, rescanned = [], []
    backtracks = [entry.backtrack for entry in stack]
    for entry in stack:
        entry.backtrack = set()
    for tid in live:
        pending = state.pending_of(tid)
        clock = frame.thread_clocks.get(tid, EMPTY_CLOCK)
        if (parent.pre_state.pending_of(tid) is not pending
                or parent.thread_clocks.get(tid) is not clock):
            rescanned.append(pending)
            continue
        if engine.latest_race(search.trace, clock, pending, search.index) == newest:
            racing.append(tid)
        update_backtrack_sets(stack, search.trace, frame, pending, search.index)
    points = parent.backtrack
    for entry, backtrack in zip(stack, backtracks):
        entry.backtrack = backtrack
    return (live, enabled, racing, rescanned), points


@pytest.mark.parametrize("bound", [8, None], ids=["evicting", "default"])
def test_frame_records_equal_the_frames_derived_the_long_way(monkeypatch, bound):
    # A frame reached again by a memoized step installs the record its edge
    # left: each must equal the frame set up from scratch, whichever parent
    # the frame has this time, down to the exact list of racing threads, and
    # the points the policy makes of them must be the ones the full scans
    # add to the parent.  At bound 8 the step map drops steps on 59 of the
    # 60 searches, and repeats are still served (at 4, the part tables start
    # afresh before any state comes back, so no step repeats).
    if bound is not None:
        monkeypatch.setattr(engine, "SUCCESSOR_MEMO_BOUND", bound)
    init = engine._Search._init_frame
    hits, fallbacks = [], itertools.count()

    def audited(search, frame):
        record = None if frame.edge is None else frame.edge[2]
        if record is not None:
            hits.append(record)
            live, enabled, racing, rescanned = record
            if not set(racing) <= set(search.stack[-2].enabled):
                next(fallbacks)
            derived, points = _long_way_record(search, frame)
            assert (live, enabled, list(racing), list(rescanned)) == derived
            # The policy makes of the racing threads the points the full
            # scans add to the parent.
            landing = StackEntry(None, {}, {})
            landing.enabled = search.stack[-2].enabled
            for tid in racing:
                engine.add_backtrack_point(landing, tid)
            assert landing.backtrack == points
        init(search, frame)

    monkeypatch.setattr(engine._Search, "_init_frame", audited)
    for name, path in list_scenarios():
        for kw in AUDIT_CONFIGS:
            explore(instantiate(parse_scenario(path.read_text())),
                    ExplorationConfig(max_depth_per_thread=4, **kw))
    assert len(hits) > 1000
    assert any(racing for _, _, racing, _ in hits) and any(rescanned for *_, rescanned in hits)
    # Some racing thread is disabled at the parent, so the policy's fallback
    # to every enabled thread is audited too.
    assert next(fallbacks) > 0


def test_repeated_steps_reuse_their_frame_records(monkeypatch):
    # deep-lib takes 18,167 steps, 12,095 of them served by the memo: a
    # served step installs its frame's record, scans again only for the
    # threads it moved, and runs no race scan.  (Without records: 10,271
    # race scans and 26,139 backtrack scans.)
    calls = collections.Counter()
    scan, scan_races = engine.update_backtrack_sets, engine._Search._scan_races

    def counted_scan(*args):
        calls["backtrack"] += 1
        return scan(*args)

    def counted_scan_races(*args):
        calls["races"] += 1
        return scan_races(*args)

    monkeypatch.setattr(engine, "update_backtrack_sets", counted_scan)
    monkeypatch.setattr(engine._Search, "_scan_races", counted_scan_races)
    _deep_lib_search().run()
    assert calls["races"] <= 3500 and calls["backtrack"] <= 16000


def test_host_generator_programs_leave_no_frame_records(monkeypatch):
    edges = []
    init = engine._Search._init_frame
    monkeypatch.setattr(engine._Search, "_init_frame",
                        lambda search, frame: edges.append(frame.edge) or init(search, frame))
    compiled = scenario(open("src/permute/corpus/reader_two_writers_cond.scn").read())
    search = engine._Search(Program(compiled.threads, compiled.declarations),
                            ExplorationConfig(max_depth_per_thread=6))
    search.run()
    assert len(edges) > 1 and not any(edges)
    assert not (search.memo.steps or search.memo.effects)


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


def _read_then_write():
    # The read of b races with the write of a first; only b's write, new to
    # a later frame, races with a's write too.
    return scenario("var x = 0\nthread a { write x 1; }\nthread b { v = read x; write x 2; }")


def test_incremental_scans_explore_like_full_scans(monkeypatch):
    # The newest-step test for unmoved threads, the candidate lists without
    # create/join relations, the covered-clock skip and the race scans
    # skipped for accesses whose race keys are all seen must not change a
    # single trace or race: compare with the textbook scans on the whole
    # corpus.
    programs = [(name, lambda path=path: instantiate(parse_scenario(path.read_text())))
                for name, path in list_scenarios()]
    programs += [("join_then_read", _join_then_read), ("read_then_write", _read_then_write)]
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


def _worker_joins_its_child():
    # A worker creates and joins its own child, which writes x; main reads
    # x after joining the worker, so only the two joins order the read
    # after the write.
    def main():
        yield ops.create("w")
        yield ops.lock("m")
        yield ops.unlock("m")
        yield ops.join("w")
        yield ops.read("x")

    def worker():
        yield ops.create("c")
        yield ops.join("c")
        yield from _lock_unlock()

    def child():
        yield ops.write("x", 1)
        yield from _lock_unlock()

    return Program([("main", main), ("w", worker), ("c", child)],
                   [ObjectDecl("x", "var", {"init": 0})])


def _two_joiners():
    # Threads a and b both join t, which writes x, then each reads x and
    # one writes y, which the other reads: the joins are independent, so
    # neither joiner is ordered after the other.
    def joiner(then):
        def body():
            yield ops.join("t")
            yield ops.read("x")
            yield then
        return body

    return Program([("main", _create_and_join("t", "a", "b")),
                    ("t", body_of([ops.write("x", 1)])),
                    ("a", joiner(ops.write("y", 1))), ("b", joiner(ops.read("y")))],
                   [ObjectDecl("x", "var", {"init": 0}), ObjectDecl("y", "var", {"init": 0})])


def test_step_clocks_equal_the_textbook_merge(monkeypatch):
    # The search takes create and join order from the thread clocks and
    # merges only the clocks of its scan plan's candidates; the textbook
    # clock merges the clock of every dependent earlier step.  They must be
    # equal for every step of the corpus and of programs whose workers
    # create, join and are joined, or join a thread another thread creates.
    step_clock = engine._Search._step_clock
    clocks = []

    def audited(search, frame, t):
        clock = step_clock(search, frame, t)
        assert clock == full_scan.step_clock(search, frame, t), (search.trace, t)
        clocks.append(clock)
        return clock

    monkeypatch.setattr(engine._Search, "_step_clock", audited)
    programs = [lambda path=path: instantiate(parse_scenario(path.read_text()))
                for _, path in list_scenarios()]
    programs += [_worker_joins_its_child, _two_joiners, _join_then_read,
                 lambda: _joins_crashing_thread(True), lambda: _joins_crashing_thread(False)]
    for program in programs:
        for kw in AUDIT_CONFIGS:
            explore(program(), ExplorationConfig(max_depth_per_thread=4, **kw))
    assert len(clocks) > 10000


def test_scan_plans_are_kept_only_for_shared_transitions():
    # A host body's steps are built anew on every re-drive, so none has a
    # serial and no plan is kept; a compiled search keeps at most one plan
    # per transition its build context shares.
    compiled = scenario(open("src/permute/corpus/reader_two_writers_cond.scn").read())
    hosted = engine._Search(Program(compiled.threads, compiled.declarations),
                            ExplorationConfig(max_depth_per_thread=6))
    hosted.run()
    assert hosted.report.traces > 1 and hosted.index.plans == {}
    search = _deep_lib_search()
    search.run()
    serials = {t.serial for t, _ in search.ctx.transitions.values()}
    assert search.index.plans and set(search.index.plans) <= serials


def _joins_crashing_thread(crash_at_once):
    # Main joins `w` before `w` exists; a spawner creates it, so main's
    # blocked join is a thread entry the crash leaves shared, and only the
    # copied entry of its target says the join is now enabled.  `w` crashes
    # when first resumed (by the create), or after a lock and an unlock.
    def main():
        yield ops.create("spawner")
        yield ops.create("locker")
        yield ops.join("w")
        yield ops.join("spawner")
        yield ops.join("locker")

    def spawner():
        yield ops.create("w")

    def worker():
        if not crash_at_once:
            yield from _lock_unlock()
        raise RuntimeError("worker fault")
        yield   # a generator body

    return Program([("main", main), ("spawner", spawner), ("locker", _lock_unlock),
                    ("w", worker)])


@pytest.mark.parametrize("crash_at_once", [True, False], ids=["first-resume", "mid-way"])
def test_join_of_a_crashed_thread_becomes_enabled(monkeypatch, crash_at_once):
    traces = []
    report = explore(_joins_crashing_thread(crash_at_once), observer=traces.append)
    assert report.crashes and report.deadlocks == 0
    assert {tr.verdict for tr in traces} <= {COMPLETED, BLOCKED}
    completed = [tr for tr in traces if tr.verdict == COMPLETED]
    assert completed
    for tr in completed:
        assert (0, "join", "w", "-") in tr.schedule
    use_full_scans(monkeypatch)
    reference = []
    assert explore(_joins_crashing_thread(crash_at_once), observer=reference.append) == report
    assert reference == traces


@pytest.mark.xfail(strict=True, reason=(
    "sleep sets miss one budget-cut end state at max_depth_per_thread=6 (20 "
    "against 21); see the CHANGES.md line 'FOUND: src/permute/engine.py sleep "
    "sets under --max-thread-depth'"))
def test_sleep_sets_reach_every_budget_cut_end_state():
    program = scenario(open("src/permute/corpus/reader_two_writers_cond.scn").read())
    config = ExplorationConfig(max_depth_per_thread=6)
    traces = []
    explore(program, config, observer=traces.append)
    ends = {tr.fingerprint for tr in traces if tr.verdict != BLOCKED}
    assert ends == reachable_states(program, config).final_fps


# -- compiled bodies -------------------------------------------------------------------

def test_generator_bodies_explore_like_compiled_ones(monkeypatch):
    # Scenario threads resume from their snapshots; run as host generators
    # over the same code, they are re-driven whenever a backtrack resumes
    # one from an earlier point instead.  The two paths must find the same
    # traces and reports.
    redrives = []
    redrive = runtime.HostBody._redrive
    monkeypatch.setattr(runtime.HostBody, "_redrive",
                        lambda body, state: redrives.append(1) or redrive(body, state))
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
    def refuse(body, state):
        raise AssertionError("a scenario thread was re-driven")

    monkeypatch.setattr(runtime.HostBody, "_redrive", refuse)
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
    object outside its footprint, every thread it neither runs nor targets,
    and each table it does not write: those are the parts
    `ModelState.successor` does not copy.  A wildcard step copies all."""
    t, post = outcome.transition, outcome.state
    assert _contents(pre) == contents, f"{t} wrote its pre-state"
    footprint = t.footprint()
    if footprint is None:
        return
    if t.kind != "write":
        assert post.shared_vars is pre.shared_vars, f"{t} copied the variables"
    if post.spurious_used == pre.spurious_used:
        assert post.spurious_used is pre.spurious_used, f"{t} copied the spurious counts"
    for oid, obj in pre.objects.items():
        if oid not in footprint:
            assert post.objects[oid] is obj, f"{t} copied object {oid}"
    for tid, info in pre.threads.items():
        if tid not in (t.executor, t.thread_target):
            assert post.threads[tid] is info, f"{t} copied thread {tid}"


def _touches(t, pending, pre, post):
    """Whether step `t` from `pre` to `post` touches a thread with `pending`
    pending whose entry it leaves shared: either is a wildcard, they share
    a footprint key, or the entry of `pending`'s thread_target was copied."""
    keys, pending_keys = t.footprint(), pending.footprint()
    target = pending.thread_target
    return (keys is None or pending_keys is None or bool(set(keys) & set(pending_keys))
            or (target is not None and post.threads.get(target) is not pre.threads.get(target)))


def _assert_enabledness_within_footprint(pre, outcome):
    """A step changes the enabledness of a thread whose entry its successor
    shares only when it touches that thread: the engine keeps the parent
    frame's answer for every other one."""
    t, post = outcome.transition, outcome.state
    for tid, info in pre.threads.items():
        pending = info.pending
        if (pending is not None and post.threads[tid] is info
                and pending.enabled_in(pre) != pending.enabled_in(post)):
            assert _touches(t, pending, pre, post), f"{t} changed {pending} untouched"


class _AuditedContext(BuildContext):
    """A build context that checks every step of a compiled thread it hands
    out, memoized or not, against a fresh resume and build of the same step
    on a copy of the same state: the body state must be the one the fresh
    resume reaches, with values of the same types, the shared transition
    the one a build would make, with the same stored search attributes,
    and the state must already hold every object the build ensures."""

    def resume(self, tid, body_state, after, result, state):
        body_after, t = super().resume(tid, body_state, after, result, state)
        if tid in self.host_threads:
            return body_after, t
        op, fresh_after = self.next_request(tid, body_state, after, result)
        scratch = ModelState(dict(state.objects), state.threads, state.shared_vars,
                             state.spurious_used)
        fresh = surfaced_transition(tid, op, scratch, self)
        assert scratch.objects.keys() == state.objects.keys(), f"{t}: an object is missing"
        assert exact_key(body_after) == exact_key(fresh_after), f"{t}: {body_after} / {fresh_after}"
        fresh_keys = fresh.footprint()
        assert ((type(t), schedule_step(t), t.keys, t.sleep_key, t.thread_target)
                == (type(fresh), schedule_step(fresh),
                    None if fresh_keys is None else tuple(fresh_keys),
                    fresh.triple(), fresh.thread_target)), f"{t} / {fresh}"
        return body_after, t


def _assert_memo_holds(ctx):
    """Every pair relation the search remembered is the one the framework
    rules give."""
    shared = [t for t, _ in ctx.transitions.values()]
    for t in shared:
        assert shared[t.serial] is t
        for serial, known in t.relations.items():
            other = shared[serial]
            dep = dependent(other, t)
            assert known == (dep, dep and coenabled(other, t)), f"{other} / {t}"


def _transitions_seen(program, config):
    """Every distinct transition executed or pending on an explored trace.
    The search and the walks of its schedules share transitions through an
    audited build context, and the search's remembered pair relations are
    audited too.  Each walk steps as the search does, by `execute_step` on
    copies, and audits each step's writes and the enabledness it changes
    against the footprints, and each pending transition's schedule step."""
    traces = []
    with mock.patch.object(engine, "BuildContext", _AuditedContext):
        search = engine._Search(program, config, observer=traces.append)
    search.run()
    _assert_memo_holds(search.ctx)
    # The walks share one context, as verifies of one scenario do; each
    # starts from a state without objects, so every object a shared
    # transition needs is created on a hit.  Scenario objects are all
    # declared, so their ids agree across walks.
    ctx = _AuditedContext(program, config.policy_overrides, config.max_spurious_wakeups)
    budget = config.max_depth_per_thread
    seen = {}
    for tr in traces:
        state = runtime.initial_state(ctx)
        for step in tr.schedule + [None]:
            # Replays test one thread's enabledness; it must agree with the
            # search's enabled set on every state visited.
            assert [tid for tid in sorted(state.threads)
                    if state.thread_enabled(tid, budget)] == state.enabled_threads(budget)
            for info in state.threads.values():
                t = info.pending
                if t is not None:
                    # The schedule step kept on the transition is the one a
                    # fresh formatting gives.
                    assert schedule_step(t) == ScheduleStep(
                        t.executor, t.kind, t.object_name or "-",
                        " ".join(str(p) for p in t.payload) or "-"), t
                    key = (type(t), t.kind, t.executor, t.object_key(), t.thread_target,
                           t.mutex_owner_refs(), t.mutex_queue_refs(), t.footprint(),
                           getattr(t, "policy", None))
                    seen.setdefault(key, t)
            if step is not None:
                # What a replay checks before each step.
                assert schedule_step(state.threads[step.tid].pending) == step
                assert state.thread_enabled(step.tid, budget), step
                contents = _contents(state)
                outcome = runtime.execute_step(state, step.tid, ctx)
                _assert_writes_within_footprint(state, contents, outcome)
                _assert_enabledness_within_footprint(state, outcome)
                state = outcome.state
    return list(seen.values())


def test_footprints_cover_every_dependence_in_the_corpus():
    # The index only tests steps that share a footprint key or a thread
    # relation; a dependent pair outside those would be missed.  Walking the
    # corpus also audits the shared transitions and the remembered pair
    # relations (`_transitions_seen`).
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
                        or thread_related(a, b) or set(fa) & set(fb)), f"{name} {kw}: {a} / {b}"
    assert pairs > 1000


@pytest.mark.parametrize("kw", AUDIT_CONFIGS)
def test_shared_transitions_keep_payload_types_apart(kw):
    # The corpus writes integers only, so the audit in `_transitions_seen`
    # also walks a compiled thread that writes equal values of other types,
    # and one that reads them: each surfaced write must print as a new build
    # of it would, and each memoized step reach the body state a fresh
    # resume would.
    assert _transitions_seen(_mixed_writes(True), ExplorationConfig(**kw))
    assert _transitions_seen(_mixed_reads(), ExplorationConfig(**kw))


@pytest.mark.parametrize("kw", AUDIT_CONFIGS)
def test_in_place_replay_ends_where_a_copying_walk_does(kw):
    # A replay cursor writes its own state in place, while the search steps
    # on copies (`execute_step` without `in_place`).  On every trace a check
    # persists, both must reach the recorded fingerprint with equal findings.
    config = ExplorationConfig(max_depth_per_thread=4, keep_all_traces=True, **kw)
    replays = 0
    for name, path in list_scenarios():
        program = scenario(path.read_text())
        persisted = []
        explore(program, config, trace_sink=persisted.append)
        ctx = BuildContext(program, config.policy_overrides, config.max_spurious_wakeups)
        for tr in persisted:
            cursor = ReplayCursor(program, budget=config.max_depth_per_thread,
                                  ctx=ctx).run(tr.schedule)
            state, findings = runtime.initial_state(ctx), []
            for step in tr.schedule:
                outcome = runtime.execute_step(state, step.tid, ctx)
                state = outcome.state
                findings.extend(outcome.findings)
            assert fingerprint(cursor.state) == fingerprint(state) == tr.fingerprint, name
            assert cursor.findings == findings, name
            replays += 1
    assert replays > 500
