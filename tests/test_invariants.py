"""Cross-cutting safety properties checked over whole explorations."""

from permute.core import RUNNABLE, fingerprint
from permute.engine import ExplorationConfig, explore
from permute.runtime import BuildContext, ReplayCursor, execute_step, initial_state
from permute.scenario import instantiate, parse_scenario

from oracle import reachable_states


def program(text):
    return instantiate(parse_scenario(text))


def corpus(name):
    return open(f"src/permute/corpus/{name}.scn").read()


def all_schedules(text, **kw):
    results = []
    explore(program(text), ExplorationConfig(keep_all_traces=True, **kw),
            observer=results.append)
    return results


def walk_states(text, **kw):
    cfg = ExplorationConfig(**kw)
    return reachable_states(program(text), cfg).states.values()


def test_mutex_has_at_most_one_owner_everywhere():
    for state in walk_states(corpus("philosophers_mut_deadlock_3")):
        owners = [obj.owner for obj in state.objects.values() if obj.kind == "mutex"]
        assert all(o is None or isinstance(o, int) for o in owners)


def test_rwlock_never_mixes_writers_and_readers():
    for name in ("rw_writer_pref", "rw_reader_pref", "rw_no_pref", "reader_two_writers"):
        for state in walk_states(corpus(name)):
            for obj in state.objects.values():
                if obj.kind in ("rwlock", "rwwlock"):
                    if obj.active_writer is not None:
                        assert not obj.active_readers


def test_semaphore_conservation():
    # value on every reachable state equals init + posts - finished waits.
    text = corpus("philosophers_sem_3")
    cfg = ExplorationConfig(policy_overrides={"sem": "fifo"})
    prog = program(text)
    ctx = BuildContext(prog, cfg.policy_overrides, 0)
    state = initial_state(ctx)
    counts = {}  # oid -> posts - waits

    def check(state):
        for oid, obj in state.objects.items():
            if obj.kind == "sem":
                assert obj.value == 1 + counts.get(oid, 0)
                assert obj.value >= 0

    # Follow one maximal schedule, tracking the operations applied.
    while True:
        enabled = state.enabled_threads()
        if not enabled:
            break
        pending = state.pending_of(enabled[0])
        if pending.kind == "sem_post":
            counts[pending.oid] = counts.get(pending.oid, 0) + 1
        elif pending.kind in ("sem_finish", "sem_wait"):
            counts[pending.oid] = counts.get(pending.oid, 0) - 1
        state = execute_step(state, enabled[0], ctx).state
        check(state)


def test_spurious_wakeups_bounded_per_condvar_per_trace():
    for max_spurious in (0, 1, 2):
        traces = all_schedules(corpus("producer_consumer_if"),
                               max_depth_per_thread=6,
                               max_spurious_wakeups=max_spurious)
        for tr in traces:
            # Replay and confirm the consumed-spurious ledger stays bounded.
            cursor = ReplayCursor(program(corpus("producer_consumer_if")),
                                  max_spurious=max_spurious,
                                  budget=6)
            cursor.run(tr.schedule)
            for used in cursor.state.spurious_used.values():
                assert used <= max_spurious


def test_waker_owns_its_mutex_immediately_after_wake():
    text = corpus("small_cond_signal")
    for tr in all_schedules(text, max_spurious_wakeups=1):
        cursor = ReplayCursor(program(text), max_spurious=1)
        for step in tr.schedule:
            cursor.step(step)
            if step.label == "cond_wake":
                mutex = next(o for o in cursor.state.objects.values()
                             if o.kind == "mutex" and o.name == "m")
                assert mutex.owner == step.tid


def test_writer_preferred_gate_blocks_readers():
    # No reachable state grants a reader while a writer is queued and the
    # reader could not have passed the gate.
    for state in walk_states(corpus("rw_writer_pref")):
        for obj in state.objects.values():
            if obj.kind == "rwlock" and obj.preference == "writer_pref":
                for tid in state.threads:
                    pending = state.pending_of(tid)
                    if pending is not None and pending.kind == "rd_lock":
                        if obj.has_queued_writers() and pending.oid == obj.oid:
                            assert not pending.enabled_in(state)


def test_usage_errors_are_findings_not_crashes():
    report = explore(program("mutex m\nthread t { unlock m; }"))
    assert len(report.usage_errors) == 1
    assert report.traces == 1
    assert not report.crashes


def test_fingerprints_identical_for_reconverging_schedules():
    # Two independent posts reach the same state in either order.
    text = "sem a = 0\nsem b = 0\nthread t1 { sem_post a; }\nthread t2 { sem_post b; }"
    fps = {tr.fingerprint for tr in all_schedules(text)}
    assert len(fps) == 1
