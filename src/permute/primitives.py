"""Built-in visible objects and transitions: thread lifecycle, mutex,
semaphore, condition variable, reader-writer locks (including the
readers-and-two-writers variant), barrier, shared variables, assertions.

Each transition family also serves as the worked example for extensions:
subclass `Transition`, define the enabled predicate, narrow the dependence
and co-enabledness claims you understand, give the apply action, and
optionally declare the footprint the search indexes steps by.

Wait-style operations split into an enqueue step and a finish step so that
wakeup policies (who gets to complete the wait) are expressible as plain
enabled predicates.  Under arbitrary wakeup the queue order is semantically
irrelevant, so those wait sets are kept canonically sorted; this makes the
declared independence of two enqueues hold structurally (both insertion
orders produce the same snapshot), which the commutation audits rely on.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from .core import (
    EMBRYO,
    EXITED,
    RUNNABLE,
    ModelState,
    ObjectId,
    ThreadId,
    Transition,
    VisibleObject,
)

# Wakeup policies.  arb_fused folds the enqueue into the wait itself: all
# blocked waiters become enabled when the resource frees up, and no queue is
# kept at all.
FIFO = "fifo"
LIFO = "lifo"
ARB_INDEP = "arb_indep"
ARB_DEP = "arb_dep"
ARB_FUSED = "arb_fused"

POLICIES = (FIFO, LIFO, ARB_INDEP, ARB_DEP, ARB_FUSED)
ARBITRARY = (ARB_INDEP, ARB_DEP)

# Reader-writer preferences.
READER_PREF = "reader_pref"
WRITER_PREF = "writer_pref"
NO_PREF = "no_pref"
PREFERENCES = (READER_PREF, WRITER_PREF, NO_PREF)


def _enqueue(queue: list, item, policy: str) -> None:
    # fifo: front is index 0; lifo: top is the last element; arbitrary:
    # sorted insertion keeps the snapshot canonical.
    if policy in ARBITRARY:
        insort(queue, item)
    else:
        queue.append(item)


def _eligible(queue: list, item, policy: str) -> bool:
    if policy == FIFO:
        return bool(queue) and queue[0] == item
    if policy == LIFO:
        return bool(queue) and queue[-1] == item
    return item in queue


class _ObjectOp(Transition):
    """An operation on the one object or variable it names.  Its dependence
    claims only look at that object, so its footprint is the object's key;
    operations that also touch a mutex add the mutex's id."""

    __slots__ = ()

    def footprint(self):
        return (self.object_key(),)


# ---------------------------------------------------------------------------
# Mutex
# ---------------------------------------------------------------------------


class MutexObj(VisibleObject):
    kind = "mutex"
    __slots__ = ("owner", "queue", "policy")

    def __init__(self, oid, name, policy=ARB_FUSED):
        super().__init__(oid, name)
        self.owner: Optional[ThreadId] = None
        self.queue: list = []
        self.policy = policy

    def clone(self):
        c = MutexObj(self.oid, self.name, self.policy)
        c.owner = self.owner
        c.queue = list(self.queue)
        return c

    def snapshot(self):
        return (-1 if self.owner is None else self.owner, tuple(self.queue), self.policy)

    def lockable_by(self, tid: ThreadId) -> bool:
        if self.owner is not None:
            return False
        if self.policy == ARB_FUSED:
            return True
        return _eligible(self.queue, tid, self.policy)

    def wake_acquirable_by(self, tid: ThreadId) -> bool:
        # Reacquisition after a condition wake bypasses the lock queue; it is
        # only allowed when no explicitly queued locker is waiting.
        if self.owner is not None:
            return False
        return self.policy == ARB_FUSED or not self.queue


class MutexEnqueue(_ObjectOp):
    """First half of a lock under a queued policy; registers the caller."""

    kind = "lock_enqueue"
    __slots__ = ("policy",)

    def __init__(self, executor, oid, name, policy):
        super().__init__(executor, oid, name)
        self.policy = policy

    def mutex_queue_refs(self):
        return (self.oid,)

    def depends_with(self, other):
        if not self.same_object(other):
            return False
        if self.policy == FIFO or self.policy == ARB_DEP:
            return other.kind == "lock_enqueue"
        if self.policy == LIFO:
            return other.kind in ("lock_enqueue", "lock")
        return False  # arb_indep

    def apply_to(self, state):
        s = state.clone()
        _enqueue(s.objects[self.oid].queue, self.executor, self.policy)
        return s


class MutexLock(_ObjectOp):
    kind = "lock"
    __slots__ = ()

    def mutex_owner_refs(self):
        return (self.oid,)

    def enabled_in(self, state):
        return state.objects[self.oid].lockable_by(self.executor)

    def depends_with(self, other):
        return self.oid in other.mutex_owner_refs()

    def coenabled_with(self, other):
        # Either the mutex is free or it is held: lock and unlock of the
        # same mutex are never simultaneously enabled.
        if other.kind == "unlock" and self.same_object(other):
            return False
        return True

    def apply_to(self, state):
        s = state.clone()
        m = s.objects[self.oid]
        m.owner = self.executor
        if self.executor in m.queue:
            m.queue.remove(self.executor)
        return s


class MutexUnlock(_ObjectOp):
    kind = "unlock"
    __slots__ = ()

    def mutex_owner_refs(self):
        return (self.oid,)

    def usage_error(self, state):
        if state.objects[self.oid].owner != self.executor:
            return f"unlock of {self.object_name} by non-owner thread {self.executor}"
        return None

    def depends_with(self, other):
        return self.oid in other.mutex_owner_refs()

    def coenabled_with(self, other):
        if other.kind == "lock" and self.same_object(other):
            return False
        return True

    def apply_to(self, state):
        s = state.clone()
        m = s.objects[self.oid]
        if m.owner == self.executor:
            m.owner = None
        return s


# ---------------------------------------------------------------------------
# Semaphore
# ---------------------------------------------------------------------------


class SemObj(VisibleObject):
    kind = "sem"
    __slots__ = ("value", "queue", "policy")

    def __init__(self, oid, name, value=0, policy=ARB_FUSED):
        super().__init__(oid, name)
        self.value = value
        self.queue: list = []
        self.policy = policy

    def clone(self):
        c = SemObj(self.oid, self.name, self.value, self.policy)
        c.queue = list(self.queue)
        return c

    def snapshot(self):
        return (self.value, tuple(self.queue), self.policy)


class SemPost(_ObjectOp):
    kind = "sem_post"
    __slots__ = ()

    def depends_with(self, other):
        # Two posts commute; the value observers and decrementers do not.
        return self.same_object(other) and other.kind in (
            "sem_finish", "sem_wait", "sem_getvalue")

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].value += 1
        return s


class SemGetValue(_ObjectOp):
    kind = "sem_getvalue"
    __slots__ = ()

    def depends_with(self, other):
        # Independent of enqueues: the observable count is the classic
        # semaphore value, which enqueueing does not change.
        return self.same_object(other) and other.kind in (
            "sem_post", "sem_finish", "sem_wait")

    def result_in(self, state):
        return state.objects[self.oid].value


class SemEnqueue(_ObjectOp):
    kind = "sem_enqueue"
    __slots__ = ("policy",)

    def __init__(self, executor, oid, name, policy):
        super().__init__(executor, oid, name)
        self.policy = policy

    def depends_with(self, other):
        if not self.same_object(other):
            return False
        if self.policy == FIFO or self.policy == ARB_DEP:
            return other.kind == "sem_enqueue"
        if self.policy == LIFO:
            # Under LIFO an enqueue changes who is on top, so it conflicts
            # with the wait completion as well.
            return other.kind in ("sem_enqueue", "sem_finish")
        return False  # arb_indep

    def apply_to(self, state):
        s = state.clone()
        _enqueue(s.objects[self.oid].queue, self.executor, self.policy)
        return s


class SemWaitFinish(_ObjectOp):
    """Second half of a split wait: consume one unit and leave the queue."""

    kind = "sem_finish"
    __slots__ = ()

    def enabled_in(self, state):
        sem = state.objects[self.oid]
        return sem.value > 0 and _eligible(sem.queue, self.executor, sem.policy)

    def depends_with(self, other):
        return self.same_object(other) and other.kind in (
            "sem_post", "sem_finish", "sem_getvalue")

    def apply_to(self, state):
        s = state.clone()
        sem = s.objects[self.oid]
        sem.value -= 1
        sem.queue.remove(self.executor)
        return s


class SemWaitFused(_ObjectOp):
    """Atomic wait under the arbitrary-no-enqueue policy: no queue at all."""

    kind = "sem_wait"
    __slots__ = ()

    def enabled_in(self, state):
        return state.objects[self.oid].value > 0

    def depends_with(self, other):
        return self.same_object(other) and other.kind in (
            "sem_post", "sem_wait", "sem_getvalue")

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].value -= 1
        return s


# ---------------------------------------------------------------------------
# Condition variable
# ---------------------------------------------------------------------------


class CondObj(VisibleObject):
    kind = "cond"
    __slots__ = ("queue", "grants", "credits", "spurious_budget", "policy")

    def __init__(self, oid, name, policy=ARB_INDEP, spurious_budget=0):
        super().__init__(oid, name)
        self.queue: list = []           # (tid, mutex oid) pairs
        self.grants: set = set()        # tids allowed to wake (fifo/lifo signal)
        self.credits = 0                # floating wake permits (arbitrary signal)
        self.spurious_budget = spurious_budget
        self.policy = policy

    def clone(self):
        c = CondObj(self.oid, self.name, self.policy, self.spurious_budget)
        c.queue = list(self.queue)
        c.grants = set(self.grants)
        c.credits = self.credits
        return c

    def snapshot(self):
        return (tuple(self.queue), tuple(sorted(self.grants)), self.credits,
                self.spurious_budget, self.policy)

    def waiting(self, tid: ThreadId) -> bool:
        return any(entry[0] == tid for entry in self.queue)

    def ungranted_count(self) -> int:
        return sum(1 for entry in self.queue if entry[0] not in self.grants)

    def clamp_credits(self) -> None:
        # A signal can only ever wake someone already waiting; excess
        # permits are lost, never banked for future waiters.
        self.credits = min(self.credits, self.ungranted_count())


COND_KINDS = ("cond_enqueue", "cond_wake", "cond_signal", "cond_broadcast")


class CondEnqueue(_ObjectOp):
    """First half of a wait: atomically release the mutex and join the queue."""

    kind = "cond_enqueue"
    __slots__ = ("mutex_oid", "mutex_name", "policy")

    def __init__(self, executor, oid, name, mutex_oid, mutex_name, policy):
        super().__init__(executor, oid, name, payload=(mutex_name,))
        self.mutex_oid = mutex_oid
        self.mutex_name = mutex_name
        self.policy = policy

    def mutex_owner_refs(self):
        return (self.mutex_oid,)

    def footprint(self):
        return (self.oid, self.mutex_oid)

    def usage_error(self, state):
        if state.objects[self.mutex_oid].owner != self.executor:
            return (f"cond_wait on {self.object_name} without holding "
                    f"{self.mutex_name} (thread {self.executor})")
        return None

    def depends_with(self, other):
        if self.mutex_oid in other.mutex_owner_refs():
            return True
        if not self.same_object(other):
            return False
        if other.kind in ("cond_signal", "cond_broadcast", "cond_wake"):
            return True
        if other.kind == "cond_enqueue":
            return self.policy in (FIFO, LIFO, ARB_DEP)
        return False

    def apply_to(self, state):
        s = state.clone()
        mutex = s.objects[self.mutex_oid]
        if mutex.owner == self.executor:
            mutex.owner = None
        _enqueue(s.objects[self.oid].queue, (self.executor, self.mutex_oid), self.policy)
        return s


class CondWakeFinish(_ObjectOp):
    """Second half of a wait: leave the queue and reacquire the mutex.

    Enabled when the caller holds a wake permit -- a bound grant, a floating
    signal credit, or remaining spurious budget -- and the mutex is free.
    """

    kind = "cond_wake"
    __slots__ = ("mutex_oid", "mutex_name")

    def __init__(self, executor, oid, name, mutex_oid, mutex_name):
        super().__init__(executor, oid, name, payload=(mutex_name,))
        self.mutex_oid = mutex_oid
        self.mutex_name = mutex_name

    def mutex_owner_refs(self):
        return (self.mutex_oid,)

    def footprint(self):
        return (self.oid, self.mutex_oid)

    def enabled_in(self, state):
        cond = state.objects[self.oid]
        if not cond.waiting(self.executor):
            return False
        permitted = (self.executor in cond.grants or cond.credits > 0
                     or cond.spurious_budget > 0)
        if not permitted:
            return False
        return state.objects[self.mutex_oid].wake_acquirable_by(self.executor)

    def depends_with(self, other):
        if self.mutex_oid in other.mutex_owner_refs():
            return True
        if self.mutex_oid in other.mutex_queue_refs():
            return True
        return self.same_object(other) and other.kind in COND_KINDS

    def apply_to(self, state):
        s = state.clone()
        cond = s.objects[self.oid]
        cond.queue.remove((self.executor, self.mutex_oid))
        if self.executor in cond.grants:
            cond.grants.discard(self.executor)
        elif cond.credits > 0:
            cond.credits -= 1
        else:
            cond.spurious_budget -= 1
            s.spurious_used[self.oid] = s.spurious_used.get(self.oid, 0) + 1
        cond.clamp_credits()
        s.objects[self.mutex_oid].owner = self.executor
        return s


class CondSignal(_ObjectOp):
    kind = "cond_signal"
    __slots__ = ()

    def depends_with(self, other):
        return self.same_object(other) and other.kind in COND_KINDS

    def apply_to(self, state):
        s = state.clone()
        cond = s.objects[self.oid]
        if cond.policy == FIFO:
            for tid, _m in cond.queue:
                if tid not in cond.grants:
                    cond.grants.add(tid)
                    break
        elif cond.policy == LIFO:
            for tid, _m in reversed(cond.queue):
                if tid not in cond.grants:
                    cond.grants.add(tid)
                    break
        else:
            # Arbitrary: a floating permit any waiter may claim; lost when
            # nobody is waiting (POSIX lost-signal semantics).
            if cond.ungranted_count() > cond.credits:
                cond.credits += 1
        return s


class CondBroadcast(_ObjectOp):
    kind = "cond_broadcast"
    __slots__ = ()

    def depends_with(self, other):
        return self.same_object(other) and other.kind in COND_KINDS

    def apply_to(self, state):
        s = state.clone()
        cond = s.objects[self.oid]
        cond.grants.update(tid for tid, _m in cond.queue)
        cond.credits = 0
        return s


# ---------------------------------------------------------------------------
# Reader-writer locks (and the readers-and-two-writers variant)
# ---------------------------------------------------------------------------

RW_KINDS = ("rd_enqueue", "rd_lock", "wr_enqueue", "wr_lock",
            "wr1_enqueue", "wr1_lock", "wr2_enqueue", "wr2_lock", "rw_unlock")


class RWLockObj(VisibleObject):
    kind = "rwlock"
    __slots__ = ("preference", "active_writer", "active_readers",
                 "reader_queue", "writer_queue", "arrival_queue")

    def __init__(self, oid, name, preference=WRITER_PREF):
        super().__init__(oid, name)
        self.preference = preference
        self.active_writer: Optional[ThreadId] = None
        self.active_readers: list = []      # kept sorted: readers commute
        self.reader_queue: list = []
        self.writer_queue: list = []
        self.arrival_queue: list = []       # (tid, tag) under no_pref

    def clone(self):
        c = RWLockObj(self.oid, self.name, self.preference)
        c.active_writer = self.active_writer
        c.active_readers = list(self.active_readers)
        c.reader_queue = list(self.reader_queue)
        c.writer_queue = list(self.writer_queue)
        c.arrival_queue = list(self.arrival_queue)
        return c

    def snapshot(self):
        return (self.preference,
                -1 if self.active_writer is None else self.active_writer,
                tuple(self.active_readers), tuple(self.reader_queue),
                tuple(self.writer_queue), tuple(self.arrival_queue))

    def has_queued_writers(self) -> bool:
        if self.preference == NO_PREF:
            return any(tag != "r" for _t, tag in self.arrival_queue)
        return bool(self.writer_queue)

    def enqueue(self, tid: ThreadId, tag: str) -> None:
        if self.preference == NO_PREF:
            self.arrival_queue.append((tid, tag))
        elif tag == "r":
            self.reader_queue.append(tid)
        else:
            self.writer_queue.append(tid)

    def can_acquire_reader(self, tid: ThreadId) -> bool:
        if self.active_writer is not None:
            return False
        if self.preference == NO_PREF:
            return bool(self.arrival_queue) and self.arrival_queue[0] == (tid, "r")
        if self.preference == WRITER_PREF and self.has_queued_writers():
            return False
        return bool(self.reader_queue) and self.reader_queue[0] == tid

    def can_acquire_writer(self, tid: ThreadId, tag: str) -> bool:
        if self.active_writer is not None or self.active_readers:
            return False
        if self.preference == NO_PREF:
            return bool(self.arrival_queue) and self.arrival_queue[0] == (tid, tag)
        if self.preference == READER_PREF and self.reader_queue:
            return False
        return bool(self.writer_queue) and self.writer_queue[0] == tid

    def acquire_reader(self, tid: ThreadId) -> None:
        if self.preference == NO_PREF:
            self.arrival_queue.remove((tid, "r"))
        else:
            self.reader_queue.remove(tid)
        insort(self.active_readers, tid)

    def acquire_writer(self, tid: ThreadId, tag: str) -> None:
        if self.preference == NO_PREF:
            self.arrival_queue.remove((tid, tag))
        else:
            self.writer_queue.remove(tid)
        self.active_writer = tid

    def release(self, tid: ThreadId) -> bool:
        if self.active_writer == tid:
            self.active_writer = None
            return True
        if tid in self.active_readers:
            self.active_readers.remove(tid)
            return True
        return False


class RWWLockObj(RWLockObj):
    """Reader-writer lock with two writer classes, writer-preferred; neither
    writer class takes precedence over the other."""

    kind = "rwwlock"
    __slots__ = ("writer1_queue", "writer2_queue")

    def __init__(self, oid, name):
        super().__init__(oid, name, WRITER_PREF)
        self.writer1_queue: list = []
        self.writer2_queue: list = []

    def clone(self):
        c = RWWLockObj(self.oid, self.name)
        c.active_writer = self.active_writer
        c.active_readers = list(self.active_readers)
        c.reader_queue = list(self.reader_queue)
        c.writer1_queue = list(self.writer1_queue)
        c.writer2_queue = list(self.writer2_queue)
        return c

    def snapshot(self):
        return (-1 if self.active_writer is None else self.active_writer,
                tuple(self.active_readers), tuple(self.reader_queue),
                tuple(self.writer1_queue), tuple(self.writer2_queue))

    def has_queued_writers(self) -> bool:
        return bool(self.writer1_queue) or bool(self.writer2_queue)

    def enqueue(self, tid, tag):
        if tag == "r":
            self.reader_queue.append(tid)
        elif tag == "w1":
            self.writer1_queue.append(tid)
        else:
            self.writer2_queue.append(tid)

    def can_acquire_writer(self, tid, tag):
        if self.active_writer is not None or self.active_readers:
            return False
        queue = self.writer1_queue if tag == "w1" else self.writer2_queue
        return bool(queue) and queue[0] == tid

    def acquire_writer(self, tid, tag):
        queue = self.writer1_queue if tag == "w1" else self.writer2_queue
        queue.remove(tid)
        self.active_writer = tid


class _RWTransition(_ObjectOp):
    """Common dependence rule: everything on the same lock conflicts, except
    two reader acquisitions, which share."""

    __slots__ = ()

    def depends_with(self, other):
        if self.kind == "rd_lock" and other.kind == "rd_lock":
            return False
        return other.kind in RW_KINDS and self.same_object(other)


_WRITER_LOCK_KINDS = ("wr_lock", "wr1_lock", "wr2_lock")


_ENQUEUE_KINDS = {"r": "rd_enqueue", "w": "wr_enqueue",
                  "w1": "wr1_enqueue", "w2": "wr2_enqueue"}
_WRITER_KIND_OF_TAG = {"w": "wr_lock", "w1": "wr1_lock", "w2": "wr2_lock"}


class RWEnqueue(_RWTransition):
    # The kind depends on the tag; it is fixed once here because the search
    # reads it on every dependence test.
    __slots__ = ("tag", "kind")

    def __init__(self, executor, oid, name, tag):
        super().__init__(executor, oid, name)
        self.tag = tag
        self.kind = _ENQUEUE_KINDS[tag]

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].enqueue(self.executor, self.tag)
        return s


class RWReaderLock(_RWTransition):
    kind = "rd_lock"
    __slots__ = ()

    def enabled_in(self, state):
        return state.objects[self.oid].can_acquire_reader(self.executor)

    def coenabled_with(self, other):
        if other.kind in _WRITER_LOCK_KINDS and self.same_object(other):
            return False
        return True

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].acquire_reader(self.executor)
        return s


class RWWriterLock(_RWTransition):
    __slots__ = ("tag", "kind")

    def __init__(self, executor, oid, name, tag):
        super().__init__(executor, oid, name)
        self.tag = tag
        self.kind = _WRITER_KIND_OF_TAG[tag]

    def enabled_in(self, state):
        return state.objects[self.oid].can_acquire_writer(self.executor, self.tag)

    def coenabled_with(self, other):
        if other.kind == "rd_lock" and self.same_object(other):
            return False
        return True

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].acquire_writer(self.executor, self.tag)
        return s


class RWUnlock(_RWTransition):
    kind = "rw_unlock"
    __slots__ = ()

    def usage_error(self, state):
        lock = state.objects[self.oid]
        if lock.active_writer != self.executor and self.executor not in lock.active_readers:
            return f"rwunlock of {self.object_name} by non-holder thread {self.executor}"
        return None

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].release(self.executor)
        return s


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------


class BarrierObj(VisibleObject):
    kind = "barrier"
    __slots__ = ("parties", "arrived")

    def __init__(self, oid, name, parties=1):
        super().__init__(oid, name)
        self.parties = parties
        self.arrived = 0

    def clone(self):
        c = BarrierObj(self.oid, self.name, self.parties)
        c.arrived = self.arrived
        return c

    def snapshot(self):
        return (self.parties, self.arrived)


class BarrierArrive(_ObjectOp):
    kind = "arrive"
    __slots__ = ()

    # The arrival counter only grows and the finish gate only reads it, so
    # every pair of same-barrier operations commutes: claim nothing.
    def depends_with(self, other):
        return False

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].arrived += 1
        return s


class BarrierWaitFinish(_ObjectOp):
    kind = "barrier_finish"
    __slots__ = ()

    def enabled_in(self, state):
        barrier = state.objects[self.oid]
        return barrier.arrived >= barrier.parties

    def depends_with(self, other):
        return False


# ---------------------------------------------------------------------------
# Thread lifecycle
# ---------------------------------------------------------------------------


class ThreadCreate(Transition):
    kind = "create"
    __slots__ = ()

    def __init__(self, executor, target, target_name):
        super().__init__(executor, None, target_name)
        self.thread_target = target

    def depends_with(self, other):
        return False  # the framework create/join rule covers the child

    def footprint(self):
        return ()

    def coenabled_with(self, other):
        # The child has no pending transition until the create applies.
        return other.executor != self.thread_target

    def apply_to(self, state):
        s = state.clone()
        child = s.threads[self.thread_target]
        if child.status == EMBRYO:
            child.status = RUNNABLE
        return s


class ThreadJoin(Transition):
    kind = "join"
    __slots__ = ()

    def __init__(self, executor, target, target_name):
        super().__init__(executor, None, target_name)
        self.thread_target = target

    def enabled_in(self, state):
        info = state.threads.get(self.thread_target)
        return info is None or info.status == EXITED

    def usage_error(self, state):
        if self.thread_target not in state.threads:
            return f"join on unknown thread {self.object_name}"
        return None

    def depends_with(self, other):
        return False

    def footprint(self):
        return ()

    def coenabled_with(self, other):
        # Enabled only once the target has exited, i.e. once the target can
        # have no transition of its own.
        return other.executor != self.thread_target


class ThreadExit(Transition):
    kind = "exit"
    __slots__ = ()

    def depends_with(self, other):
        return False

    def footprint(self):
        return ()

    def apply_to(self, state):
        s = state.clone()
        info = s.threads[self.executor]
        info.status = EXITED
        info.pending = None
        return s


# ---------------------------------------------------------------------------
# Shared variables and assertions
# ---------------------------------------------------------------------------


class VarRead(_ObjectOp):
    kind = "read"
    __slots__ = ()

    def depends_with(self, other):
        return other.kind == "write" and self.same_object(other)

    def result_in(self, state):
        return state.shared_vars[self.object_name]


class VarWrite(_ObjectOp):
    kind = "write"
    __slots__ = ()

    def __init__(self, executor, name, value):
        super().__init__(executor, None, name, payload=(value,))

    def depends_with(self, other):
        if other.kind in ("read", "write") and self.same_object(other):
            return True
        return other.kind == "assert" and self.object_name in other.var_refs

    def apply_to(self, state):
        s = state.clone()
        s.shared_vars[self.object_name] = self.payload[0]
        return s


class AssertCheck(Transition):
    """Atomically evaluate a predicate over the shared variables; a false
    result is recorded as a trace finding, and exploration continues."""

    kind = "assert"
    __slots__ = ("predicate", "var_refs", "message")

    def __init__(self, executor, predicate, var_refs, message, text):
        super().__init__(executor, None, None, payload=(message, text))
        self.predicate = predicate
        self.var_refs = tuple(var_refs)
        self.message = message

    def depends_with(self, other):
        return other.kind == "write" and other.object_name in self.var_refs

    def footprint(self):
        return self.var_refs

    def assertion_failure(self, state):
        if not self.predicate(state.shared_vars):
            return self.message
        return None


# ---------------------------------------------------------------------------
# Object construction
# ---------------------------------------------------------------------------


def make_object(kind: str, oid: ObjectId, name: str, attrs: dict,
                policy: str, max_spurious: int) -> VisibleObject:
    """Build a fresh visible object of the given kind.

    `attrs` come from the scenario declaration (or a host program); `policy`
    is the already-resolved wakeup policy for queue-bearing kinds.
    """
    if kind == "mutex":
        return MutexObj(oid, name, policy)
    if kind == "sem":
        return SemObj(oid, name, attrs.get("init", 0), policy)
    if kind == "cond":
        budget = attrs.get("spurious")
        if budget is None:
            budget = max_spurious
        return CondObj(oid, name, policy, budget)
    if kind == "rwlock":
        return RWLockObj(oid, name, attrs.get("preference", WRITER_PREF))
    if kind == "rwwlock":
        return RWWLockObj(oid, name)
    if kind == "barrier":
        return BarrierObj(oid, name, attrs.get("parties", 1))
    raise ValueError(f"unknown visible-object kind {kind!r}")
