"""Enabledness, apply actions, and policy gates of the built-in primitives."""

import pytest

from permute.core import EMBRYO, EXITED, RUNNABLE, ModelState, ThreadInfo, fingerprint
from permute import primitives as prim


def state_with(objects=(), threads=(0, 1, 2, 3), svars=None):
    s = ModelState()
    for tid in threads:
        s.threads[tid] = ThreadInfo(RUNNABLE)
    for obj in objects:
        s.objects[obj.oid] = obj
    if svars:
        s.shared_vars.update(svars)
    return s


# -- mutex -------------------------------------------------------------------

def test_mutex_lock_enabled_and_apply():
    m = prim.MutexObj(0, "m")
    s = state_with([m])
    lock = prim.MutexLock(1, 0, "m")
    assert lock.enabled_in(s)
    s2 = lock.apply_to(s)
    assert s2.objects[0].owner == 1
    assert s.objects[0].owner is None  # snapshot untouched
    assert not prim.MutexLock(2, 0, "m").enabled_in(s2)


def test_mutex_queued_policies_gate_the_lock():
    m = prim.MutexObj(0, "m", prim.FIFO)
    m.queue = [1, 2]
    s = state_with([m])
    assert prim.MutexLock(1, 0, "m").enabled_in(s)
    assert not prim.MutexLock(2, 0, "m").enabled_in(s)
    m.policy = prim.LIFO
    assert not prim.MutexLock(1, 0, "m").enabled_in(s)
    assert prim.MutexLock(2, 0, "m").enabled_in(s)


def test_unlock_by_non_owner_is_a_usage_error():
    m = prim.MutexObj(0, "m")
    m.owner = 1
    s = state_with([m])
    unlock = prim.MutexUnlock(2, 0, "m")
    assert unlock.enabled_in(s)
    assert unlock.usage_error(s)
    assert unlock.apply_to(s).objects[0].owner == 1  # no effect
    assert prim.MutexUnlock(1, 0, "m").usage_error(s) is None


# -- semaphore ---------------------------------------------------------------

def test_sem_post_and_getvalue():
    sem = prim.SemObj(0, "s", 3)
    s = state_with([sem])
    assert prim.SemGetValue(1, 0, "s").result_in(s) == 3
    s2 = prim.SemPost(1, 0, "s").apply_to(s)
    assert s2.objects[0].value == 4


def test_sem_finish_gates_fifo_front_lifo_top():
    sem = prim.SemObj(0, "s", 1, prim.FIFO)
    sem.queue = [1, 2]
    s = state_with([sem])
    assert prim.SemWaitFinish(1, 0, "s").enabled_in(s)
    assert not prim.SemWaitFinish(2, 0, "s").enabled_in(s)

    sem.policy = prim.LIFO
    assert not prim.SemWaitFinish(1, 0, "s").enabled_in(s)
    assert prim.SemWaitFinish(2, 0, "s").enabled_in(s)

    sem.policy = prim.ARB_DEP
    assert prim.SemWaitFinish(1, 0, "s").enabled_in(s)
    assert prim.SemWaitFinish(2, 0, "s").enabled_in(s)

    sem.value = 0
    assert not prim.SemWaitFinish(1, 0, "s").enabled_in(s)


def test_sem_finish_apply_consumes_and_dequeues():
    sem = prim.SemObj(0, "s", 2, prim.FIFO)
    sem.queue = [1, 2]
    s = state_with([sem])
    s2 = prim.SemWaitFinish(1, 0, "s").apply_to(s)
    assert s2.objects[0].value == 1
    assert s2.objects[0].queue == [2]


def test_sem_fused_wait():
    sem = prim.SemObj(0, "s", 1)
    s = state_with([sem])
    wait = prim.SemWaitFused(1, 0, "s")
    assert wait.enabled_in(s)
    s2 = wait.apply_to(s)
    assert s2.objects[0].value == 0
    assert not prim.SemWaitFused(2, 0, "s").enabled_in(s2)


def test_sem_enqueue_policy_dependence():
    enq_fifo = prim.SemEnqueue(1, 0, "s", prim.FIFO)
    enq_fifo_2 = prim.SemEnqueue(2, 0, "s", prim.FIFO)
    fin = prim.SemWaitFinish(2, 0, "s")
    post = prim.SemPost(2, 0, "s")
    assert enq_fifo.depends_with(enq_fifo_2)
    assert not enq_fifo.depends_with(fin)
    assert not enq_fifo.depends_with(post)

    enq_lifo = prim.SemEnqueue(1, 0, "s", prim.LIFO)
    assert enq_lifo.depends_with(fin)

    enq_indep = prim.SemEnqueue(1, 0, "s", prim.ARB_INDEP)
    assert not enq_indep.depends_with(prim.SemEnqueue(2, 0, "s", prim.ARB_INDEP))

    enq_dep = prim.SemEnqueue(1, 0, "s", prim.ARB_DEP)
    assert enq_dep.depends_with(prim.SemEnqueue(2, 0, "s", prim.ARB_DEP))


def test_arbitrary_wait_sets_are_canonical():
    # Two arbitrary-policy enqueues commute structurally, matching their
    # declared independence.
    sem = prim.SemObj(0, "s", 0, prim.ARB_INDEP)
    s = state_with([sem])
    e1 = prim.SemEnqueue(1, 0, "s", prim.ARB_INDEP)
    e2 = prim.SemEnqueue(2, 0, "s", prim.ARB_INDEP)
    assert fingerprint(e2.apply_to(e1.apply_to(s))) == fingerprint(e1.apply_to(e2.apply_to(s)))


# -- condition variable --------------------------------------------------------

def _cond_setup(spurious=0, policy=prim.ARB_INDEP):
    cond = prim.CondObj(0, "c", policy, spurious)
    mutex = prim.MutexObj(1, "m")
    return cond, mutex, state_with([cond, mutex])


def test_cond_enqueue_releases_mutex_and_queues():
    cond, mutex, s = _cond_setup()
    mutex.owner = 1
    enq = prim.CondEnqueue(1, 0, "c", 1, "m", prim.ARB_INDEP)
    assert enq.usage_error(s) is None
    s2 = enq.apply_to(s)
    assert s2.objects[1].owner is None
    assert s2.objects[0].queue == [(1, 1)]
    assert prim.CondEnqueue(2, 0, "c", 1, "m", prim.ARB_INDEP).usage_error(s)


def test_wake_requires_permit_and_free_mutex():
    cond, mutex, s = _cond_setup(spurious=1)
    cond.queue = [(1, 1)]
    wake = prim.CondWakeFinish(1, 0, "c", 1, "m")
    assert wake.enabled_in(s)  # spurious budget
    s2 = wake.apply_to(s)
    assert s2.objects[1].owner == 1
    assert s2.objects[0].spurious_budget == 0
    assert s2.spurious_used[0] == 1

    cond.spurious_budget = 0
    assert not wake.enabled_in(s)
    cond.grants = {1}
    assert wake.enabled_in(s)
    mutex.owner = 2
    assert not wake.enabled_in(s)


def test_wake_prefers_grant_over_spurious_budget():
    cond, mutex, s = _cond_setup(spurious=1)
    cond.queue = [(1, 1)]
    cond.grants = {1}
    s2 = prim.CondWakeFinish(1, 0, "c", 1, "m").apply_to(s)
    assert s2.objects[0].spurious_budget == 1
    assert not s2.spurious_used


def test_signal_grants_by_policy_and_is_lost_when_empty():
    cond, mutex, s = _cond_setup(policy=prim.FIFO)
    s2 = prim.CondSignal(3, 0, "c").apply_to(s)
    assert not s2.objects[0].grants and s2.objects[0].credits == 0

    cond.queue = [(1, 1), (2, 1)]
    s2 = prim.CondSignal(3, 0, "c").apply_to(s)
    assert s2.objects[0].grants == {1}
    s3 = prim.CondSignal(3, 0, "c").apply_to(s2)
    assert s3.objects[0].grants == {1, 2}

    cond.policy = prim.LIFO
    s2 = prim.CondSignal(3, 0, "c").apply_to(s)
    assert s2.objects[0].grants == {2}

    cond.policy = prim.ARB_INDEP
    s2 = prim.CondSignal(3, 0, "c").apply_to(s)
    assert s2.objects[0].credits == 1
    # Credits never exceed the waiters they could wake.
    s3 = prim.CondSignal(3, 0, "c").apply_to(s2)
    s4 = prim.CondSignal(3, 0, "c").apply_to(s3)
    assert s4.objects[0].credits == 2


def test_declared_spurious_budget_beats_the_run_default():
    pinned = prim.make_object("cond", 0, "c", {"spurious": 0}, prim.ARB_INDEP, 5)
    assert pinned.spurious_budget == 0
    defaulted = prim.make_object("cond", 0, "c", {}, prim.ARB_INDEP, 5)
    assert defaulted.spurious_budget == 5


def test_broadcast_grants_every_waiter():
    cond, mutex, s = _cond_setup()
    cond.queue = [(1, 1), (2, 1), (3, 1)]
    s2 = prim.CondBroadcast(0, 0, "c").apply_to(s)
    assert s2.objects[0].grants == {1, 2, 3}
    assert s2.objects[0].credits == 0


# -- reader-writer locks -------------------------------------------------------

def _rw(preference):
    lock = prim.RWLockObj(0, "l", preference)
    return lock, state_with([lock])


def test_writer_preferred_reader_gate():
    lock, s = _rw(prim.WRITER_PREF)
    lock.reader_queue = [1]
    assert prim.RWReaderLock(1, 0, "l").enabled_in(s)
    lock.writer_queue = [2]
    assert not prim.RWReaderLock(1, 0, "l").enabled_in(s)  # enqueued writer blocks
    assert prim.RWWriterLock(2, 0, "l", "w").enabled_in(s)


def test_reader_preferred_drops_writer_gate():
    lock, s = _rw(prim.READER_PREF)
    lock.reader_queue = [1]
    lock.writer_queue = [2]
    assert prim.RWReaderLock(1, 0, "l").enabled_in(s)
    assert not prim.RWWriterLock(2, 0, "l", "w").enabled_in(s)  # queued reader blocks


def test_no_preference_uses_arrival_order():
    lock, s = _rw(prim.NO_PREF)
    lock.arrival_queue = [(2, "w"), (1, "r")]
    assert not prim.RWReaderLock(1, 0, "l").enabled_in(s)
    assert prim.RWWriterLock(2, 0, "l", "w").enabled_in(s)


def test_rw_mutual_exclusion_and_unlock():
    lock, s = _rw(prim.WRITER_PREF)
    lock.writer_queue = [2]
    s2 = prim.RWWriterLock(2, 0, "l", "w").apply_to(s)
    assert s2.objects[0].active_writer == 2
    lock2 = s2.objects[0]
    lock2.reader_queue = [1]
    assert not prim.RWReaderLock(1, 0, "l").enabled_in(s2)
    s3 = prim.RWUnlock(2, 0, "l").apply_to(s2)
    assert s3.objects[0].active_writer is None
    assert prim.RWUnlock(3, 0, "l").usage_error(s3)


def test_rww_gates():
    lock = prim.RWWLockObj(0, "l")
    s = state_with([lock])
    lock.reader_queue = [1]
    lock.writer1_queue = [2]
    lock.writer2_queue = [3]
    # Queued writers of either class gate the reader.
    assert not prim.RWReaderLock(1, 0, "l").enabled_in(s)
    assert prim.RWWriterLock(2, 0, "l", "w1").enabled_in(s)
    assert prim.RWWriterLock(3, 0, "l", "w2").enabled_in(s)

    s2 = prim.RWWriterLock(2, 0, "l", "w1").apply_to(s)
    assert not prim.RWReaderLock(1, 0, "l").enabled_in(s2)
    assert not prim.RWWriterLock(3, 0, "l", "w2").enabled_in(s2)

    lock.writer1_queue = []
    lock.writer2_queue = []
    s3 = prim.RWReaderLock(1, 0, "l").apply_to(s)
    assert not prim.RWWriterLock(3, 0, "l", "w2").enabled_in(s3)


def test_rw_relations():
    rd = prim.RWReaderLock(1, 0, "l")
    wr = prim.RWWriterLock(2, 0, "l", "w")
    rd2 = prim.RWReaderLock(2, 0, "l")
    from permute.core import coenabled, dependent
    assert dependent(rd, rd2)   # only the head of the reader queue may acquire
    assert dependent(rd, wr)
    assert not coenabled(rd, wr)
    assert not dependent(rd, prim.RWReaderLock(2, 9, "l2"))


# -- barrier -------------------------------------------------------------------

def test_barrier_gate_and_independence():
    barrier = prim.BarrierObj(0, "b", 10)
    barrier.arrived = 9
    s = state_with([barrier])
    assert not prim.BarrierWaitFinish(1, 0, "b").enabled_in(s)
    s2 = prim.BarrierArrive(2, 0, "b").apply_to(s)
    assert prim.BarrierWaitFinish(1, 0, "b").enabled_in(s2)

    from permute.core import dependent
    assert not dependent(prim.BarrierArrive(1, 0, "b"), prim.BarrierWaitFinish(2, 0, "b"))


def test_barrier_commutation():
    barrier = prim.BarrierObj(0, "b", 2)
    barrier.arrived = 2
    s = state_with([barrier])
    a = prim.BarrierArrive(1, 0, "b")
    f = prim.BarrierWaitFinish(2, 0, "b")
    assert fingerprint(f.apply_to(a.apply_to(s))) == fingerprint(a.apply_to(f.apply_to(s)))


# -- threads -------------------------------------------------------------------

def test_thread_lifecycle():
    s = state_with(threads=())
    s.threads[0] = ThreadInfo(RUNNABLE)
    s.threads[1] = ThreadInfo(EMBRYO)
    create = prim.ThreadCreate(0, 1, "t1")
    s2 = create.apply_to(s)
    assert s2.threads[1].status == RUNNABLE

    join = prim.ThreadJoin(0, 1, "t1")
    assert not join.enabled_in(s2)
    s2.threads[1].status = EXITED
    assert join.enabled_in(s2)

    s3 = prim.ThreadExit(0).apply_to(s2)
    assert s3.threads[0].status == EXITED
    assert s3.threads[0].pending is None


# -- shared variables and assertions --------------------------------------------

def test_var_ops_and_relations():
    s = state_with(svars={"x": 5})
    assert prim.VarRead(1, None, "x").result_in(s) == 5
    s2 = prim.VarWrite(1, "x", 9).apply_to(s)
    assert s2.shared_vars["x"] == 9

    from permute.core import dependent
    r1 = prim.VarRead(1, None, "x")
    r2 = prim.VarRead(2, None, "x")
    w2 = prim.VarWrite(2, "x", 1)
    wy = prim.VarWrite(2, "y", 1)
    assert not dependent(r1, r2)
    assert dependent(r1, w2)
    assert dependent(prim.VarWrite(1, "x", 2), w2)
    assert not dependent(r1, wy)


def test_assert_check():
    s = state_with(svars={"x": 0})
    good = prim.AssertCheck(1, lambda sv: sv["x"] == 0, ("x",), "x zero", "x == 0")
    bad = prim.AssertCheck(1, lambda sv: sv["x"] > 0, ("x",), "x positive", "x > 0")
    assert good.assertion_failure(s) is None
    assert bad.assertion_failure(s) == "x positive"

    from permute.core import dependent
    assert dependent(bad, prim.VarWrite(2, "x", 1))
    assert not dependent(bad, prim.VarWrite(2, "y", 1))
    assert not dependent(bad, prim.VarRead(2, None, "x"))
