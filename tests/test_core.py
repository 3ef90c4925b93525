"""Framework relations, clock vectors, and fingerprints."""

import itertools

import pytest

from permute.core import (
    EMPTY_CLOCK,
    RUNNABLE,
    ClockVector,
    ModelState,
    ThreadInfo,
    Transition,
    coenabled,
    dependent,
    fingerprint,
    happens_before,
)
from permute import primitives as prim


def make_builtins(tid, oid=0, name="o", other_oid=1):
    """A representative instance of every built-in transition kind."""
    return [
        prim.MutexEnqueue(tid, oid, name, prim.FIFO),
        prim.MutexLock(tid, oid, name),
        prim.MutexUnlock(tid, oid, name),
        prim.SemPost(tid, oid, name),
        prim.SemGetValue(tid, oid, name),
        prim.SemEnqueue(tid, oid, name, prim.FIFO),
        prim.SemEnqueue(tid, oid, name, prim.LIFO),
        prim.SemEnqueue(tid, oid, name, prim.ARB_INDEP),
        prim.SemWaitFinish(tid, oid, name),
        prim.SemWaitFused(tid, oid, name),
        prim.CondEnqueue(tid, oid, name, other_oid, "m", prim.ARB_INDEP),
        prim.CondWakeFinish(tid, oid, name, other_oid, "m"),
        prim.CondSignal(tid, oid, name),
        prim.CondBroadcast(tid, oid, name),
        prim.RWEnqueue(tid, oid, name, "r"),
        prim.RWEnqueue(tid, oid, name, "w"),
        prim.RWEnqueue(tid, oid, name, "w1"),
        prim.RWReaderLock(tid, oid, name),
        prim.RWWriterLock(tid, oid, name, "w"),
        prim.RWWriterLock(tid, oid, name, "w1"),
        prim.RWWriterLock(tid, oid, name, "w2"),
        prim.RWUnlock(tid, oid, name),
        prim.BarrierArrive(tid, oid, name),
        prim.BarrierWaitFinish(tid, oid, name),
        prim.ThreadCreate(tid, 5, "t5"),
        prim.ThreadJoin(tid, 5, "t5"),
        prim.ThreadExit(tid),
        prim.VarRead(tid, None, "x"),
        prim.VarWrite(tid, "x", 1),
        prim.AssertCheck(tid, lambda sv: True, ("x",), "msg", "x > 0"),
    ]


def test_dependent_and_coenabled_are_symmetric():
    # Every pair of built-in kinds, same/different object, same/different thread.
    for same_obj, same_thread in itertools.product((True, False), repeat=2):
        lhs = make_builtins(1, oid=0)
        rhs = make_builtins(1 if same_thread else 2, oid=0 if same_obj else 7,
                            name="o" if same_obj else "p", other_oid=1 if same_obj else 8)
        for a in lhs:
            for b in rhs:
                assert dependent(a, b) == dependent(b, a), (a, b)
                assert coenabled(a, b) == coenabled(b, a), (a, b)


def test_same_thread_pairs_are_dependent_never_coenabled():
    for a in make_builtins(3):
        for b in make_builtins(3):
            assert dependent(a, b)
            assert not coenabled(a, b)


def test_framework_create_join_rule():
    create = prim.ThreadCreate(0, 2, "t2")
    join = prim.ThreadJoin(0, 2, "t2")
    childs_op = prim.SemPost(2, 9, "s")
    unrelated = prim.SemPost(1, 9, "s")
    assert dependent(create, childs_op)
    assert dependent(join, childs_op)
    assert not dependent(create, unrelated)
    # The child cannot have a pending transition before it exists / after exit.
    assert not coenabled(create, childs_op)
    assert not coenabled(join, childs_op)


def test_framework_rule_covers_user_defined_thread_ops():
    # A user-defined transition that names a thread and keeps the default
    # (conservative) claims: the framework, not the class, rules out its
    # co-enabledness with the named thread's steps.
    class Spawn(Transition):
        kind = "spawn"
        __slots__ = ()

        def __init__(self, executor, target):
            super().__init__(executor)
            self.thread_target = target

    spawn = Spawn(0, 2)
    childs_op = prim.SemPost(2, 9, "s")
    assert dependent(spawn, childs_op)
    assert not coenabled(spawn, childs_op)
    assert not coenabled(childs_op, spawn)
    assert coenabled(spawn, prim.SemPost(1, 9, "s"))


def test_spec_relation_examples():
    post1 = prim.SemPost(1, 0, "s")
    post2 = prim.SemPost(2, 0, "s")
    assert not dependent(post1, post2)

    rd1 = prim.RWReaderLock(1, 0, "l")
    rd2 = prim.RWReaderLock(2, 0, "l")
    assert not dependent(rd1, rd2)

    lock_a = prim.MutexLock(1, 0, "m")
    lock_a_again = prim.MutexLock(1, 0, "m")
    assert dependent(lock_a, lock_a_again)

    lock1 = prim.MutexLock(1, 0, "m")
    lock2 = prim.MutexLock(2, 0, "m")
    unlock2 = prim.MutexUnlock(2, 0, "m")
    assert not coenabled(lock1, unlock2)
    assert coenabled(lock1, lock2)
    assert not coenabled(lock1, prim.SemPost(1, 3, "s"))

    assert not dependent(prim.MutexLock(1, 0, "m1"), prim.MutexLock(2, 1, "m2"))


def test_clock_vector_merge_is_monotone_and_commutative():
    a = ClockVector({1: 3, 2: 1})
    b = ClockVector({2: 5, 3: 2})
    m = a.merged(b)
    assert m.entries == {1: 3, 2: 5, 3: 2}
    assert b.merged(a).entries == m.entries
    for tid in (1, 2, 3):
        assert m.get(tid) >= a.get(tid)
        assert m.get(tid) >= b.get(tid)
    assert m.merged(m).entries == m.entries
    assert a.get(99) == 0


def test_happens_before_examples():
    # Empty trace: no valid index at all.
    t = prim.SemPost(2, 0, "s")
    with pytest.raises(IndexError):
        happens_before(0, [], {}, t)

    # create(T2) by T1 precedes T2's first operation.
    create = prim.ThreadCreate(1, 2, "t2")
    create_clock = ClockVector({1: 1})
    clocks = {2: create_clock}  # child inherits the creator's clock
    assert happens_before(0, [create], clocks, t)

    # Two independent posts: no causal edge between them.
    trace = [prim.SemPost(1, 0, "s1"), prim.SemPost(2, 1, "s2")]
    clocks = {1: ClockVector({1: 1}), 2: ClockVector({2: 2})}
    nxt = prim.SemPost(2, 1, "s2")
    assert not happens_before(0, trace, clocks, nxt)


def _tiny_state():
    s = ModelState()
    s.threads[0] = ThreadInfo(RUNNABLE)
    s.objects[0] = prim.SemObj(0, "s", 2)
    s.shared_vars["x"] = 1
    return s


def test_fingerprint_is_stable_and_distinguishes_values():
    s = _tiny_state()
    assert fingerprint(s) == fingerprint(s)
    assert fingerprint(s) == fingerprint(s.clone())

    other = _tiny_state()
    other.objects[0].value = 3
    assert fingerprint(other) != fingerprint(s)


def test_fingerprint_ignores_insertion_order():
    a = ModelState()
    a.threads[0] = ThreadInfo(RUNNABLE)
    a.objects[0] = prim.MutexObj(0, "m")
    a.objects[1] = prim.SemObj(1, "s", 1)

    b = ModelState()
    b.objects[1] = prim.SemObj(1, "s", 1)
    b.objects[0] = prim.MutexObj(0, "m")
    b.threads[0] = ThreadInfo(RUNNABLE)
    assert fingerprint(a) == fingerprint(b)
