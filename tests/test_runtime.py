"""Body stepping, transition building, and deterministic replay."""

import time

import pytest

from permute.core import EXITED, fingerprint
from permute.engine import ExplorationConfig, explore
from permute.runtime import (
    BuildContext,
    NondeterminismDetected,
    ObjectDecl,
    Program,
    ProgramError,
    ReplayCursor,
    execute_step,
    initial_state,
    ops,
    schedule_step,
)
from permute.scenario import instantiate, parse_scenario


def program_of(*bodies, declarations=()):
    """Host-style program: main spawns and joins every worker."""
    names = [f"t{i+1}" for i in range(len(bodies))]

    def main():
        for name in names:
            yield ops.create(name)
        for name in names:
            yield ops.join(name)

    threads = [("main", main)] + list(zip(names, bodies))
    return Program(threads, list(declarations))


def bootstrap(program, **cfg):
    config = ExplorationConfig(**cfg)
    ctx = BuildContext(program, config.policy_overrides,
                       config.max_spurious_wakeups)
    return initial_state(ctx), ctx


def test_first_step_surfaces_first_visible_operation():
    def body():
        yield ops.lock("m")
        yield ops.unlock("m")

    state, ctx = bootstrap(program_of(body))
    assert state.threads[0].pending.kind == "create"
    out = execute_step(state, 0, ctx)
    assert out.state.threads[1].pending.kind == "lock"
    assert out.state.threads[1].pending.object_name == "m"


def test_body_end_becomes_exit_transition():
    def body():
        return
        yield  # pragma: no cover

    state, ctx = bootstrap(program_of(body))
    out = execute_step(state, 0, ctx)
    assert out.state.threads[1].pending.kind == "exit"
    out2 = execute_step(out.state, 1, ctx)
    assert out2.state.threads[1].status == EXITED


def test_read_result_drives_control_flow():
    def body():
        value = yield ops.read("x")
        if value > 0:
            yield ops.sem_post("s")

    decls = [ObjectDecl("x", "var", {"init": 0}), ObjectDecl("s", "sem", {"init": 0})]
    state, ctx = bootstrap(program_of(body, declarations=decls))
    state = execute_step(state, 0, ctx).state   # create
    state = execute_step(state, 1, ctx).state   # read returns 0
    assert state.threads[1].pending.kind == "exit"   # no post


def test_objects_created_once_with_stable_ids():
    def body():
        yield ops.lock("m")
        yield ops.unlock("m")
        yield ops.lock("m")
        yield ops.unlock("m")

    state, ctx = bootstrap(program_of(body))
    state = execute_step(state, 0, ctx).state
    oid = state.threads[1].pending.oid
    assert state.objects[oid].kind == "mutex"
    for _ in range(3):
        state = execute_step(state, 1, ctx).state
        assert state.threads[1].pending.oid == oid
    assert len(state.objects) == 1


def test_wait_requests_expand_per_policy():
    def body():
        yield ops.sem_wait("s")

    decls = [ObjectDecl("s", "sem", {"init": 1})]
    # fifo: split into enqueue + finish
    state, ctx = bootstrap(program_of(body, declarations=decls),
                           policy_overrides={"sem": "fifo"})
    state = execute_step(state, 0, ctx).state
    assert state.threads[1].pending.kind == "sem_enqueue"
    state = execute_step(state, 1, ctx).state
    assert state.threads[1].pending.kind == "sem_finish"

    # fused: one atomic wait
    state, ctx = bootstrap(program_of(body, declarations=decls),
                           policy_overrides={"sem": "arb_fused"})
    state = execute_step(state, 0, ctx).state
    assert state.threads[1].pending.kind == "sem_wait"


def test_unknown_kind_and_undeclared_variable_are_program_errors():
    from permute.runtime import OpRequest

    def body():
        yield OpRequest("frobnicate", "z", "mutex")

    state, ctx = bootstrap(program_of(body))
    with pytest.raises(ProgramError):
        execute_step(state, 0, ctx)

    def reader():
        yield ops.read("nosuch")

    state, ctx = bootstrap(program_of(reader))
    with pytest.raises(ProgramError):
        execute_step(state, 0, ctx)


@pytest.mark.parametrize("decl,message", [
    (ObjectDecl("s", "sem", {"init": -1}), "init of sem 's' must be at least 0, found -1"),
    (ObjectDecl("b", "barrier", {"parties": 0}),
     "parties of barrier 'b' must be at least 1, found 0"),
    (ObjectDecl("s", "sem", {"init": "x"}), "init of sem 's' must be an integer, found 'x'"),
    (ObjectDecl("s", "sem", {"init": True}), "init of sem 's' must be an integer, found True"),
    (ObjectDecl("s", "sem", {"initial": 1}), "sem 's' has no attribute 'initial'"),
    (ObjectDecl("c", "cond", {"policy": "lifoo"}),
     "expected a policy ('fifo', 'lifo', 'arb_indep', 'arb_dep', 'arb_fused'), found 'lifoo'"),
])
def test_host_declarations_are_checked_against_their_rows(decl, message):
    # A host program's declarations meet the bounds and choices a scenario's
    # do, and a misspelled attribute is not ignored.
    with pytest.raises(ProgramError) as err:
        program_of(lambda: iter(()), declarations=[decl])
    assert str(err.value) == message


def test_host_declarations_without_a_row_or_bound_take_any_value():
    # A kind outside the table is its class's business, and a variable
    # holds any value.
    program_of(declarations=[ObjectDecl("g", "gate", {"anything": object()}),
                             ObjectDecl("x", "var", {"init": "x"}),
                             ObjectDecl("y", "var", {"init": [1, True]})])


def test_crashing_body_is_a_finding_not_an_abort():
    def body():
        yield ops.sem_post("s")
        raise RuntimeError("boom")

    prog = program_of(body, declarations=[ObjectDecl("s", "sem", {"init": 0})])
    report = explore(prog)
    assert len(report.crashes) == 1
    assert "boom" in report.crashes[0][1]
    assert report.traces >= 1


def test_replay_reproduces_recorded_schedules():
    text = open("src/permute/corpus/small_mixed.scn").read()
    results = []
    explore(instantiate(parse_scenario(text)),
            ExplorationConfig(keep_all_traces=True), observer=results.append)
    assert results
    for tr in results:
        cursor = ReplayCursor(instantiate(parse_scenario(text)))
        cursor.run(tr.schedule)
        assert fingerprint(cursor.state) == tr.fingerprint


def test_replay_detects_nondeterministic_bodies():
    def flaky():
        if time.perf_counter_ns() % 2:
            yield ops.sem_post("s")
        else:
            yield ops.sem_post("t")

    decls = [ObjectDecl("s", "sem", {}), ObjectDecl("t", "sem", {})]
    prog = program_of(flaky, declarations=decls)
    state, ctx = bootstrap(prog)
    state = execute_step(state, 0, ctx).state
    recorded = [schedule_step(state.threads[1].pending)]

    diverged = False
    for _ in range(64):
        cursor = ReplayCursor(prog)
        cursor.step(tid=0)
        try:
            cursor.step(recorded[0])
        except NondeterminismDetected:
            diverged = True
            break
    assert diverged


def test_replayed_prefix_assigns_identical_object_ids():
    text = open("src/permute/corpus/small_mixed.scn").read()
    results = []
    explore(instantiate(parse_scenario(text)),
            ExplorationConfig(keep_all_traces=True), observer=results.append)
    schedule = results[0].schedule
    a = ReplayCursor(instantiate(parse_scenario(text))).run(schedule)
    b = ReplayCursor(instantiate(parse_scenario(text))).run(schedule)
    assert a.ctx.registry._ids == b.ctx.registry._ids


def test_split_wait_halves_are_built_once_per_request():
    # Both executions of one cond_wait surface the very same enqueue and
    # finish halves: for compiled code, whose request is one object, and for
    # a generator that builds an equal request each time.
    def waiter():
        for _ in range(2):
            yield ops.lock("m")
            yield ops.cond_wait("c", "m")
            yield ops.unlock("m")

    text = "mutex m\ncond c\nthread t { repeat 2 { lock m; cond_wait c m; unlock m; } }"
    decls = [ObjectDecl("m", "mutex", {}), ObjectDecl("c", "cond", {})]
    for prog in (instantiate(parse_scenario(text)), program_of(waiter, declarations=decls)):
        state, ctx = bootstrap(prog, max_spurious_wakeups=2)
        state = execute_step(state, 0, ctx).state   # create
        surfaced = {}
        while state.threads[1].pending.kind != "exit":
            request = state.threads[1].pending.request
            surfaced.setdefault(request.kind, []).append(request)
            state = execute_step(state, 1, ctx).state
        for kind in ("cond_enqueue", "cond_wake"):
            first, second = surfaced[kind]
            assert first is second, kind


class _CreatesTwice:
    """Compiled code of a main that creates thread t1 twice; its state is
    the number of creates it surfaced."""

    def start(self):
        return ops.create("t1"), 1

    def resume(self, state, result):
        return (ops.create("t1") if state < 2 else None), state + 1


def test_spawning_twice_is_rejected():
    # The second create of t1 is an error whether main is a host generator
    # or compiled code.
    def main():
        yield ops.create("t1")
        yield ops.create("t1")

    t1 = instantiate(parse_scenario("sem s = 0\nthread t1 { sem_post s; }"))
    threads = [("main", main), t1.threads[1]]
    for codes in ((), [_CreatesTwice(), t1.codes[1]]):
        with pytest.raises(ProgramError, match="thread 1 spawned twice"):
            explore(Program(threads, t1.declarations, codes))
