"""Built-in visible objects and transitions: thread lifecycle, mutex,
semaphore, condition variable, reader-writer locks (including the
readers-and-two-writers variant), barrier, shared variables, assertions.

Each class is declared once: `@register` makes it the class built for its
request kind (or created for its object kind), and only classes whose
constructors take more than the inherited `build`/`create` pass -- a policy,
a mutex, a tag, a thread, a checked variable -- override those.  Each
transition family also serves as the worked example for extensions: subclass
`Transition`, define the enabled predicate, narrow the dependence and
co-enabledness claims you understand, give the effect in `apply`, and
declare the footprint that the search indexes steps by and that names the
objects `apply` writes (optional: the wildcard default is sound).

Every operation a body can request is one row of `OPERATIONS`: the kinds of
object it takes, its scenario statement and, for a wait, how it splits.
Every object kind's scenario declaration is one row of `DECLARATIONS`.
Wait-style operations split into an enqueue step and a finish step so that
wakeup policies (who gets to complete the wait) are expressible as plain
enabled predicates.  Under arbitrary wakeup the queue order is semantically
irrelevant, so those wait sets are kept canonically sorted; this makes the
declared independence of two enqueues hold structurally (both insertion
orders produce the same snapshot), which the commutation audits rely on.
"""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple, Optional

from .core import (
    EMBRYO,
    EXITED,
    OBJECT_CLASSES,
    RUNNABLE,
    ModelState,
    ObjectId,
    ProgramError,
    ThreadId,
    Transition,
    VisibleObject,
    register,
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

# The object kinds that take a wakeup policy, each with its default one.
DEFAULT_POLICY = {"mutex": ARB_FUSED, "sem": ARB_FUSED, "cond": ARB_INDEP}

# Statement forms of the scenario language: `v` is the local that receives
# the result, `expr` the value written.
PLAIN = "word obj"
VALUE = "v = word obj"
WRITE = "word obj expr"
WITH_MUTEX = "word obj mutex"


class Operation(NamedTuple):
    """An operation a body requests by its word: the kinds of object it
    takes (a host request's default first) and its statement `form`.  A
    wait's `split` names its enqueue and finish kinds, surfaced a step each
    unless its `fused_on` object kind's policy is arb_fused."""

    object_kinds: tuple
    form: str = PLAIN
    split: tuple = ()
    fused_on: Optional[str] = None


# Every operation on an object, declared once: the scenario language, the
# host requests (`runtime.ops`) and the runtime's wait splits read it.
OPERATIONS = {
    "lock": Operation(("mutex",), split=("lock_enqueue", "lock"), fused_on="mutex"),
    "unlock": Operation(("mutex",)),
    "sem_wait": Operation(("sem",), split=("sem_enqueue", "sem_finish"), fused_on="sem"),
    "sem_post": Operation(("sem",)),
    "sem_getvalue": Operation(("sem",), VALUE),
    "cond_wait": Operation(("cond",), WITH_MUTEX, ("cond_enqueue", "cond_wake")),
    "cond_signal": Operation(("cond",)),
    "cond_broadcast": Operation(("cond",)),
    "rdlock": Operation(("rwlock", "rwwlock"), split=("rd_enqueue", "rd_lock")),
    "wrlock": Operation(("rwlock",), split=("wr_enqueue", "wr_lock")),
    "wrlock1": Operation(("rwwlock",), split=("wr1_enqueue", "wr1_lock")),
    "wrlock2": Operation(("rwwlock",), split=("wr2_enqueue", "wr2_lock")),
    "rwunlock": Operation(("rwlock", "rwwlock")),
    "barrier_wait": Operation(("barrier",), split=("arrive", "barrier_finish")),
    "read": Operation(("var",), VALUE),
    "write": Operation(("var",), WRITE),
}


class Attribute(NamedTuple):
    """One attribute of an object kind's declaration: its key in `attrs`, its
    `form` in the scenario language, whose `{}` marks the value and whose
    other parts are tokens apart from it (`"= {}"`, `"policy {}"`,
    `"({})"`), and the words the value is one of, or else the least integer
    it may be (None: any).  An `optional` attribute's form starts with a
    token, which a declaration that leaves the attribute out omits too."""

    key: str
    form: str
    choices: tuple = ()
    least: Optional[int] = None
    optional: bool = False


_POLICY = Attribute("policy", "policy {}", POLICIES, optional=True)

# Every object kind's declaration, declared once: the scenario language's
# keywords, parser, bound checks and printer read it.  Its attributes come in
# the order they are written.
DECLARATIONS = {
    "mutex": (),
    "sem": (Attribute("init", "= {}", least=0), _POLICY),
    "cond": (_POLICY, Attribute("spurious", "spurious {}", least=0, optional=True)),
    "rwlock": (Attribute("preference", "{}", PREFERENCES),),
    "rwwlock": (),
    "barrier": (Attribute("parties", "({})", least=1),),
    "var": (Attribute("init", "= {}"),),
}


def attribute_error(kind: str, name: str, attr: Attribute, value) -> Optional[str]:
    """Why `value` cannot be attribute `attr` of the `kind` object `name`:
    it is not one of the attribute's choices, or, for an attribute with a
    least value, it is not an int or is below that value.  None when it can
    be; an attribute with neither, such as a variable's `init`, takes any
    value."""
    if attr.choices:
        if value not in attr.choices:
            return f"expected a {attr.key} {attr.choices}, found {value!r}"
    elif attr.least is not None:
        if not isinstance(value, int) or isinstance(value, bool):
            return f"{attr.key} of {kind} {name!r} must be an integer, found {value!r}"
        if value < attr.least:
            return f"{attr.key} of {kind} {name!r} must be at least {attr.least}, found {value}"
    return None


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
    operations that also touch a mutex add the mutex's id.  By default it
    conflicts with the same-object operations whose kinds it lists."""

    __slots__ = ()
    conflicts: tuple = ()

    def depends_with(self, other):
        return other.kind in self.conflicts and self.same_object(other)

    def footprint(self):
        return (self.object_key(),)


class _QueuedEnqueue(_ObjectOp):
    """First half of a wait on a queue-keeping object, under its policy.
    Under fifo and arb_dep two enqueues conflict (their order is the queue
    order); under lifo an enqueue also changes who is on top, so it conflicts
    with the finish step too; under arb_indep the sorted queue commutes."""

    __slots__ = ("policy",)
    finish_kind = ""

    def __init__(self, executor, oid, name, policy):
        super().__init__(executor, oid, name)
        self.policy = policy

    @classmethod
    def build(cls, tid, req, state, ctx):
        oid = ctx.ensure_object(state, req.object_name, req.object_kind)
        return cls(tid, oid, req.object_name, state.objects[oid].policy)

    def depends_with(self, other):
        if not self.same_object(other):
            return False
        if self.policy == FIFO or self.policy == ARB_DEP:
            return other.kind == self.kind
        if self.policy == LIFO:
            return other.kind == self.kind or other.kind == self.finish_kind
        return False  # arb_indep

    def apply(self, s):
        _enqueue(s.objects[self.oid].queue, self.executor, self.policy)


# ---------------------------------------------------------------------------
# Mutex
# ---------------------------------------------------------------------------


@register
class MutexObj(VisibleObject):
    kind = "mutex"
    __slots__ = ("owner", "queue", "policy")

    def __init__(self, oid, name, policy=ARB_FUSED):
        super().__init__(oid, name)
        self.owner: Optional[ThreadId] = None
        self.queue: list = []
        self.policy = policy

    @classmethod
    def create(cls, oid, name, attrs, policy, max_spurious):
        return cls(oid, name, policy)

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


@register
class MutexEnqueue(_QueuedEnqueue):
    """First half of a lock under a queued policy."""

    kind = "lock_enqueue"
    finish_kind = "lock"
    __slots__ = ()

    def mutex_queue_refs(self):
        return (self.oid,)


class _MutexOwnerOp(_ObjectOp):
    """A lock or unlock: it reads and writes the mutex's owner.  Either the
    mutex is free or it is held, so the two are never enabled together."""

    __slots__ = ()
    never_with = ""

    def mutex_owner_refs(self):
        return (self.oid,)

    def depends_with(self, other):
        return self.oid in other.mutex_owner_refs()

    def coenabled_with(self, other):
        return other.kind != self.never_with or not self.same_object(other)


@register
class MutexLock(_MutexOwnerOp):
    kind = "lock"
    never_with = "unlock"
    __slots__ = ()

    def enabled_in(self, state):
        return state.objects[self.oid].lockable_by(self.executor)

    def apply(self, s):
        m = s.objects[self.oid]
        m.owner = self.executor
        if self.executor in m.queue:
            m.queue.remove(self.executor)


@register
class MutexUnlock(_MutexOwnerOp):
    kind = "unlock"
    never_with = "lock"
    __slots__ = ()

    def usage_error(self, state):
        if state.objects[self.oid].owner != self.executor:
            return f"unlock of {self.object_name} by non-owner thread {self.executor}"
        return None

    def coenabled_with(self, other):
        # The unlocking thread holds the mutex; a wake needs it free.
        if other.kind == "cond_wake":
            return other.mutex_oid != self.oid
        return super().coenabled_with(other)

    def apply(self, s):
        m = s.objects[self.oid]
        if m.owner == self.executor:
            m.owner = None


# ---------------------------------------------------------------------------
# Semaphore
# ---------------------------------------------------------------------------


@register
class SemObj(VisibleObject):
    kind = "sem"
    __slots__ = ("value", "queue", "policy")

    def __init__(self, oid, name, value=0, policy=ARB_FUSED):
        super().__init__(oid, name)
        self.value = value
        self.queue: list = []
        self.policy = policy

    @classmethod
    def create(cls, oid, name, attrs, policy, max_spurious):
        return cls(oid, name, attrs.get("init", 0), policy)

    def snapshot(self):
        return (self.value, tuple(self.queue), self.policy)


@register
class SemPost(_ObjectOp):
    kind = "sem_post"
    __slots__ = ()
    # Two posts commute; the value observers and decrementers do not.
    conflicts = ("sem_finish", "sem_wait", "sem_getvalue")

    def apply(self, s):
        s.objects[self.oid].value += 1


@register
class SemGetValue(_ObjectOp):
    kind = "sem_getvalue"
    __slots__ = ()
    # Independent of enqueues: the observable count is the classic
    # semaphore value, which enqueueing does not change.
    conflicts = ("sem_post", "sem_finish", "sem_wait")

    def result_in(self, state):
        return state.objects[self.oid].value


@register
class SemEnqueue(_QueuedEnqueue):
    kind = "sem_enqueue"
    finish_kind = "sem_finish"
    __slots__ = ()


@register
class SemWaitFinish(_ObjectOp):
    """Second half of a split wait: consume one unit and leave the queue."""

    kind = "sem_finish"
    __slots__ = ()
    conflicts = ("sem_post", "sem_finish", "sem_getvalue")

    def enabled_in(self, state):
        sem = state.objects[self.oid]
        return sem.value > 0 and _eligible(sem.queue, self.executor, sem.policy)

    def apply(self, s):
        sem = s.objects[self.oid]
        sem.value -= 1
        sem.queue.remove(self.executor)


@register
class SemWaitFused(_ObjectOp):
    """Atomic wait under the arbitrary-no-enqueue policy: no queue at all."""

    kind = "sem_wait"
    __slots__ = ()
    conflicts = ("sem_post", "sem_wait", "sem_getvalue")

    def enabled_in(self, state):
        return state.objects[self.oid].value > 0

    def apply(self, s):
        s.objects[self.oid].value -= 1


# ---------------------------------------------------------------------------
# Condition variable
# ---------------------------------------------------------------------------


@register
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

    @classmethod
    def create(cls, oid, name, attrs, policy, max_spurious):
        budget = attrs.get("spurious")
        return cls(oid, name, policy, max_spurious if budget is None else budget)

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


class _CondWaitStep(_ObjectOp):
    """A half of a condition wait: it also reads and writes the ownership of
    the mutex the waiter releases and reacquires, so it indexes both."""

    __slots__ = ("mutex_oid", "mutex_name")

    def __init__(self, executor, oid, name, mutex_oid, mutex_name):
        super().__init__(executor, oid, name, payload=(mutex_name,))
        self.mutex_oid = mutex_oid
        self.mutex_name = mutex_name

    @staticmethod
    def _object_ids(req, state, ctx):
        # The condition first, then the mutex: ids follow first encounter.
        return (ctx.ensure_object(state, req.object_name, req.object_kind),
                ctx.ensure_object(state, req.mutex_name, "mutex"))

    @classmethod
    def build(cls, tid, req, state, ctx):
        oid, moid = cls._object_ids(req, state, ctx)
        return cls(tid, oid, req.object_name, moid, req.mutex_name)

    def mutex_owner_refs(self):
        return (self.mutex_oid,)

    def footprint(self):
        return (self.oid, self.mutex_oid)


@register
class CondEnqueue(_CondWaitStep):
    """First half of a wait: atomically release the mutex and join the queue."""

    kind = "cond_enqueue"
    __slots__ = ("policy",)

    def __init__(self, executor, oid, name, mutex_oid, mutex_name, policy):
        super().__init__(executor, oid, name, mutex_oid, mutex_name)
        self.policy = policy

    @classmethod
    def build(cls, tid, req, state, ctx):
        oid, moid = cls._object_ids(req, state, ctx)
        return cls(tid, oid, req.object_name, moid, req.mutex_name,
                   state.objects[oid].policy)

    def usage_error(self, state):
        if state.objects[self.mutex_oid].owner != self.executor:
            return (f"cond_wait on {self.object_name} without holding "
                    f"{self.mutex_name} (thread {self.executor})")
        return None

    def coenabled_with(self, other):
        # The waiter holds the mutex (else `usage_error`); a lock or a wake
        # on it needs it free.
        if other.kind == "lock":
            return other.oid != self.mutex_oid
        if other.kind == "cond_wake":
            return other.mutex_oid != self.mutex_oid
        return True

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

    def apply(self, s):
        mutex = s.objects[self.mutex_oid]
        if mutex.owner == self.executor:
            mutex.owner = None
        _enqueue(s.objects[self.oid].queue, (self.executor, self.mutex_oid), self.policy)


@register
class CondWakeFinish(_CondWaitStep):
    """Second half of a wait: leave the queue and reacquire the mutex.

    Enabled when the caller holds a wake permit -- a bound grant, a floating
    signal credit, or remaining spurious budget -- and the mutex is free.
    """

    kind = "cond_wake"
    __slots__ = ()

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

    def apply(self, s):
        cond = s.objects[self.oid]
        cond.queue.remove((self.executor, self.mutex_oid))
        if self.executor in cond.grants:
            cond.grants.discard(self.executor)
        elif cond.credits > 0:
            cond.credits -= 1
        else:
            cond.spurious_budget -= 1
            s.spurious_used = {**s.spurious_used,
                               self.oid: s.spurious_used.get(self.oid, 0) + 1}
        cond.clamp_credits()
        s.objects[self.mutex_oid].owner = self.executor


# Signals and broadcasts on one condition commute, as two posts do, so they
# conflict only with the halves of a wait:
# - Signals and broadcasts are always enabled, so none of them can enable or
#   disable another.
# - A signal grants the first ungranted waiter (fifo) or the last one
#   (lifo); under an arbitrary policy it adds a credit while ungranted
#   waiters outnumber credits.
# - A broadcast grants every queued waiter and sets the credits to zero.
# - `grants` is a set, and no field records who signalled, so any two of
#   these steps reach the same state in either order.
WAIT_KINDS = ("cond_enqueue", "cond_wake")


@register
class CondSignal(_ObjectOp):
    kind = "cond_signal"
    __slots__ = ()
    conflicts = WAIT_KINDS

    def apply(self, s):
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


@register
class CondBroadcast(_ObjectOp):
    kind = "cond_broadcast"
    __slots__ = ()
    conflicts = WAIT_KINDS

    def apply(self, s):
        cond = s.objects[self.oid]
        cond.grants.update(tid for tid, _m in cond.queue)
        cond.credits = 0


# ---------------------------------------------------------------------------
# Reader-writer locks (and the readers-and-two-writers variant)
# ---------------------------------------------------------------------------

RW_KINDS = ("rd_enqueue", "rd_lock", "wr_enqueue", "wr_lock",
            "wr1_enqueue", "wr1_lock", "wr2_enqueue", "wr2_lock", "rw_unlock")


@register
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

    @classmethod
    def create(cls, oid, name, attrs, policy, max_spurious):
        return cls(oid, name, attrs.get("preference", WRITER_PREF))

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


@register
class RWWLockObj(RWLockObj):
    """Reader-writer lock with two writer classes, writer-preferred; neither
    writer class takes precedence over the other."""

    kind = "rwwlock"
    __slots__ = ("writer1_queue", "writer2_queue")

    def __init__(self, oid, name):
        super().__init__(oid, name, WRITER_PREF)
        self.writer1_queue: list = []
        self.writer2_queue: list = []

    @classmethod
    def create(cls, oid, name, attrs, policy, max_spurious):
        return cls(oid, name)

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
_TAG_OF_KIND = {kind: tag for table in (_ENQUEUE_KINDS, _WRITER_KIND_OF_TAG)
                for tag, kind in table.items()}


class _RWTagged(_RWTransition):
    """A step of one lock class -- reader `r`, writer `w`, or the two-writer
    lock's `w1`/`w2` -- whose kind follows that tag.  The kind is fixed once
    per instance because the search reads it on every dependence test."""

    __slots__ = ("tag", "kind")

    def __init__(self, executor, oid, name, tag):
        super().__init__(executor, oid, name)
        self.tag = tag
        self.kind = self.kind_of_tag[tag]

    @classmethod
    def build(cls, tid, req, state, ctx):
        return cls(tid, ctx.ensure_object(state, req.object_name, req.object_kind),
                   req.object_name, _TAG_OF_KIND[req.kind])


@register(kinds=tuple(_ENQUEUE_KINDS.values()))
class RWEnqueue(_RWTagged):
    kind_of_tag = _ENQUEUE_KINDS
    __slots__ = ()

    def apply(self, s):
        s.objects[self.oid].enqueue(self.executor, self.tag)


@register
class RWReaderLock(_RWTransition):
    kind = "rd_lock"
    __slots__ = ()

    def enabled_in(self, state):
        return state.objects[self.oid].can_acquire_reader(self.executor)

    def coenabled_with(self, other):
        if other.kind in _WRITER_LOCK_KINDS and self.same_object(other):
            return False
        return True

    def apply(self, s):
        s.objects[self.oid].acquire_reader(self.executor)


@register(kinds=tuple(_WRITER_KIND_OF_TAG.values()))
class RWWriterLock(_RWTagged):
    kind_of_tag = _WRITER_KIND_OF_TAG
    __slots__ = ()

    def enabled_in(self, state):
        return state.objects[self.oid].can_acquire_writer(self.executor, self.tag)

    def coenabled_with(self, other):
        if other.kind == "rd_lock" and self.same_object(other):
            return False
        return True

    def apply(self, s):
        s.objects[self.oid].acquire_writer(self.executor, self.tag)


@register(kinds=("rwunlock",))
class RWUnlock(_RWTransition):
    kind = "rw_unlock"
    __slots__ = ()

    def usage_error(self, state):
        lock = state.objects[self.oid]
        if lock.active_writer != self.executor and self.executor not in lock.active_readers:
            return f"rwunlock of {self.object_name} by non-holder thread {self.executor}"
        return None

    def apply(self, s):
        s.objects[self.oid].release(self.executor)


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------


@register
class BarrierObj(VisibleObject):
    kind = "barrier"
    __slots__ = ("parties", "arrived")

    def __init__(self, oid, name, parties=1):
        super().__init__(oid, name)
        self.parties = parties
        self.arrived = 0

    @classmethod
    def create(cls, oid, name, attrs, policy, max_spurious):
        return cls(oid, name, attrs.get("parties", 1))

    def snapshot(self):
        return (self.parties, self.arrived)


@register
class BarrierArrive(_ObjectOp):
    # The arrival counter only grows and the finish gate only reads it, so
    # every pair of same-barrier operations commutes: claim no conflicts.
    kind = "arrive"
    __slots__ = ()

    def apply(self, s):
        s.objects[self.oid].arrived += 1


@register
class BarrierWaitFinish(_ObjectOp):
    kind = "barrier_finish"
    __slots__ = ()

    def enabled_in(self, state):
        barrier = state.objects[self.oid]
        return barrier.arrived >= barrier.parties


# ---------------------------------------------------------------------------
# Thread lifecycle
# ---------------------------------------------------------------------------


class _ThreadOp(Transition):
    """A create or join.  The framework rules cover the thread it names (in
    dependence and co-enabledness alike), so it claims nothing of its own and
    is indexed under no key."""

    __slots__ = ()

    def __init__(self, executor, target, target_name):
        super().__init__(executor, None, target_name)
        self.thread_target = target

    @classmethod
    def build(cls, tid, req, state, ctx):
        return cls(tid, ctx.program.tid_of.get(req.target_name, -1), req.target_name)

    def depends_with(self, other):
        return False

    def footprint(self):
        return ()


@register
class ThreadCreate(_ThreadOp):
    kind = "create"
    __slots__ = ()

    @classmethod
    def build(cls, tid, req, state, ctx):
        if req.target_name not in ctx.program.tid_of:
            raise ProgramError(f"create names unknown thread {req.target_name!r}")
        return super().build(tid, req, state, ctx)

    def apply(self, s):
        child = s.threads[self.thread_target]
        if child.status != EMBRYO:
            raise ProgramError(f"thread {self.thread_target} spawned twice")
        child.status = RUNNABLE


@register
class ThreadJoin(_ThreadOp):
    kind = "join"
    __slots__ = ()

    def enabled_in(self, state):
        info = state.threads.get(self.thread_target)
        return info is None or info.status == EXITED

    def usage_error(self, state):
        if self.thread_target not in state.threads:
            return f"join on unknown thread {self.object_name}"
        return None


@register
class ThreadExit(Transition):
    kind = "exit"
    __slots__ = ()

    @classmethod
    def build(cls, tid, req, state, ctx):
        return cls(tid)

    def depends_with(self, other):
        return False

    def footprint(self):
        return ()

    def apply(self, s):
        info = s.threads[self.executor]
        info.status = EXITED
        info.pending = None


# ---------------------------------------------------------------------------
# Shared variables and assertions
# ---------------------------------------------------------------------------


def _require_var(req, state) -> None:
    if req.object_name not in state.shared_vars:
        raise ProgramError(f"{req.kind} of undeclared variable {req.object_name!r}")


@register
class VarRead(_ObjectOp):
    kind = "read"
    __slots__ = ()
    conflicts = ("write",)

    @classmethod
    def build(cls, tid, req, state, ctx):
        _require_var(req, state)
        return cls(tid, None, req.object_name)

    def result_in(self, state):
        return state.shared_vars[self.object_name]


@register
class VarWrite(_ObjectOp):
    kind = "write"
    __slots__ = ()

    def __init__(self, executor, name, value):
        super().__init__(executor, None, name, payload=(value,))

    @classmethod
    def build(cls, tid, req, state, ctx):
        _require_var(req, state)
        return cls(tid, req.object_name, req.payload[0])

    def depends_with(self, other):
        if other.kind in ("read", "write") and self.same_object(other):
            return True
        return other.kind == "assert" and self.object_name in other.var_refs

    def apply(self, s):
        s.shared_vars = {**s.shared_vars, self.object_name: self.payload[0]}


@register
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

    @classmethod
    def build(cls, tid, req, state, ctx):
        return cls(tid, req.predicate, req.var_refs, req.message, req.text)

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
    """Build a fresh visible object of a registered kind.

    `attrs` come from the scenario declaration (or a host program); `policy`
    is the already-resolved wakeup policy for queue-bearing kinds.
    """
    cls = OBJECT_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown visible-object kind {kind!r}")
    return cls.create(oid, name, attrs, policy, max_spurious)
