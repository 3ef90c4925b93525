"""Shared vocabulary for the checker: transitions, visible objects, the
mirrored program state, clock vectors, and the framework rules that combine
per-transition attribute claims into the relations the search engine uses.

Every synchronization primitive is expressed as a family of `Transition`
subclasses acting on `VisibleObject` subclasses, each made known to the
runtime by `register`, which maps request kinds and object kinds to the
classes that build themselves from them.  A transition declares only
its *own* relations: the framework combines two transitions' claims with OR
for dependence (either side may assert a conflict) and AND for co-enabledness
(either side may veto).  Claims are written under the framework guarantee
that the two transitions run on different threads, that neither creates or
joins the other's thread, and that they do not create and join one thread;
those cases are handled here, once, for both relations.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import operator
from typing import Optional

ThreadId = int
ObjectId = int

# Thread status values stored in ModelState.  "blocked" is derived:
# a runnable thread whose pending transition is not enabled.
EMBRYO = "embryo"
RUNNABLE = "runnable"
EXITED = "exited"


class ProgramError(Exception):
    """Malformed program or unregistered operation kind."""


class Record:
    """A plain record whose fields are its class's `__slots__`, in order: it
    equals a record of its own class with equal fields, and shows them."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__name__}({fields})"


class VisibleObject:
    """State mirror of one synchronization object (mutex, semaphore, ...).

    Created once, on first encounter of an operation naming it, and carried
    through every snapshot from then on; a step that writes it works on the
    copy `clone` makes.  Subclasses hold the kind-specific fields in slots
    and must implement `snapshot`.
    """

    kind = "object"
    __slots__ = ("oid", "name")
    # Every slot along the MRO, and a getter of their values; set per subclass.
    _copied_slots = __slots__
    _slot_values = operator.attrgetter(*__slots__)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = []
        for klass in reversed(cls.__mro__):
            declared = klass.__dict__.get("__slots__", ())
            slots.extend((declared,) if isinstance(declared, str) else declared)
        cls._copied_slots = tuple(name for name in slots
                                  if name not in ("__dict__", "__weakref__"))
        cls._slot_values = operator.attrgetter(*cls._copied_slots)

    def __init__(self, oid: ObjectId, name: str):
        self.oid = oid
        self.name = name

    @classmethod
    def create(cls, oid: ObjectId, name: str, attrs: dict, policy: str,
               max_spurious: int) -> "VisibleObject":
        """A fresh object: `attrs` from its declaration, its resolved wakeup
        `policy`, the run's `max_spurious` wakeups; kinds that use any override."""
        return cls(oid, name)

    def clone(self) -> "VisibleObject":
        """A copy that a step may write without touching this object: every
        slot along the class hierarchy (and any instance dict), with list,
        set and dict values copied one level deep."""
        cls = type(self)
        copy = cls.__new__(cls)
        for name in cls._copied_slots:
            value = getattr(self, name)
            setattr(copy, name, value.copy() if type(value) in _CONTAINERS else value)
        if hasattr(self, "__dict__"):
            copy.__dict__.update({name: value.copy() if type(value) in _CONTAINERS else value
                                  for name, value in self.__dict__.items()})
        return copy

    def snapshot(self) -> tuple:
        """Canonical, order-stable summary of the object state."""
        raise NotImplementedError

    def content_key(self) -> tuple:
        """A key equal for two objects only when they are of one class and
        hold equal values of the same types, at any depth, in every slot
        that `clone` copies and in any instance attribute.  `marshal` writes
        each value of a builtin type with its exact type and refuses any
        other type; then the values are keyed by `typed_key`.  Raises
        TypeError when a value can be neither written nor hashed."""
        values = self._slot_values(self)
        if hasattr(self, "__dict__"):
            values += (tuple(sorted(self.__dict__.items())),)
        try:
            return type(self), marshal.dumps(values, 2)
        except ValueError:   # a value of a type marshal does not write
            return type(self), typed_key(values)


_CONTAINERS = (list, set, dict)


def exact_key(value):
    """A hashable stand-in for a hashable `value`, equal to another's only
    when the two values are equal with the same types throughout: 1, True
    and 1.0 stay apart, also inside tuples and frozensets, at any depth.  A
    flat tuple, one without items of an `EXACT_NESTING` type, is the common
    case: its key is the tuple and the types of its items."""
    kind = type(value)
    if kind is tuple:
        types = tuple(map(type, value))
        if EXACT_NESTING.isdisjoint(types):
            return value, types
        return tuple, tuple(map(exact_key, value))
    if kind is frozenset:
        return frozenset, frozenset(map(exact_key, value))
    return value, kind


EXACT_NESTING = frozenset((tuple, frozenset))   # the types `exact_key` looks into


def typed_key(value):
    """`value` with the type of each value in it, at any depth, also inside
    lists, sets and dicts (a dict's items in order): equal to another's only
    when the two values are equal with the same types throughout, and
    hashable when every value outside those containers is.  Unlike
    `exact_key`, it takes lists, sets and dicts."""
    kind = type(value)
    if kind is set or kind is frozenset:
        return kind, frozenset(map(typed_key, value))
    if kind is tuple or kind is list or kind is dict:
        return kind, tuple(map(typed_key, value.items() if kind is dict else value))
    return kind, value


class _TransitionType(type):
    """Fills a transition's stored search attributes (`Transition.seal`) as
    soon as its constructor returns, so no transition is ever seen without
    them."""

    def __call__(cls, *args, **kwargs):
        t = super().__call__(*args, **kwargs)
        t.seal()
        return t


class Transition(metaclass=_TransitionType):
    """One visible operation by one thread, plus its search attributes.

    Subclasses override:
      build(tid, req, ...) -- construct from a request (default: one object)
      enabled_in(state)    -- can this operation complete right now?
      depends_with(other)  -- this transition's own dependence claims
      coenabled_with(other)-- this transition's own co-enabledness claims
      apply(s)             -- the operation's effect, made on a successor
      footprint()          -- the keys its claims and its writes touch

    The defaults are the conservative ones: everything is dependent and
    co-enabled with everything, enabled always, apply does nothing, and the
    footprint is the wildcard.  A new primitive only has to narrow the claims
    it understands; unknown future transition kinds are then handled soundly.
    `apply_to` is the framework's, and is not overridden.

    A transition is an immutable value: the runtime builds one per distinct
    request of a thread and check, and every branch of the search shares it.
    Its footprint, sleep-set triple and object key are therefore computed
    once, when it is constructed, and stored (`seal`); so is the schedule
    step that shows it, on first use (`runtime.schedule_step`).
    """

    kind = "op"

    # thread_target: the thread created or joined by this transition, if
    # any -- consulted by the framework create/join rules.  request: the
    # request the runtime built this transition from, if any.  keys,
    # key_set, sleep_key, obj_key: `footprint()` as a tuple and as a set
    # (None for the wildcard), `triple()` and `object_key()`, stored by
    # `seal`.  serial, relations: when the runtime shares this transition,
    # its number among the ones its build context shares and the engine's
    # memo of its relations with them, by their serial (None otherwise).
    # schedule: the `runtime.ScheduleStep` showing it, None until formatted.
    __slots__ = ("executor", "oid", "object_name", "payload", "thread_target",
                 "request", "keys", "key_set", "sleep_key", "obj_key", "serial",
                 "relations", "schedule")

    def __init__(self, executor: ThreadId, oid: Optional[ObjectId] = None,
                 object_name: Optional[str] = None, payload: tuple = ()):
        self.executor = executor
        self.oid = oid
        self.object_name = object_name
        self.payload = payload
        self.thread_target: Optional[ThreadId] = None
        self.request = None

    def seal(self) -> None:
        """Store the search attributes the engine reads on every step; run
        once, after the constructor, by the class."""
        keys = self.footprint()
        self.keys = None if keys is None else tuple(keys)
        self.key_set = None if keys is None else frozenset(self.keys)
        self.obj_key = self.object_key()
        self.sleep_key = self.triple()
        self.serial = self.relations = self.schedule = None

    @classmethod
    def build(cls, tid: ThreadId, req, state: "ModelState", ctx) -> "Transition":
        """The transition for request `req` surfaced by thread `tid`; the
        default suits the plain (executor, oid, name) constructor.
        `ctx.ensure_object` creates the object `req` names on first use."""
        return cls(tid, ctx.ensure_object(state, req.object_name, req.object_kind),
                   req.object_name)

    # -- search attributes -------------------------------------------------

    def enabled_in(self, state: "ModelState") -> bool:
        """Whether this operation can complete in `state`.  It may read only
        the objects its footprint names (any, under the wildcard) and the
        status of `thread_target`: the search keeps a thread's enabledness
        from the parent frame unless the step between them shares a key
        with its pending transition or copies its target's thread entry."""
        return True

    def depends_with(self, other: "Transition") -> bool:
        return True

    def coenabled_with(self, other: "Transition") -> bool:
        return True

    def apply_to(self, state: "ModelState") -> "ModelState":
        """The state after this step from `state`, which is left as it was."""
        s = state.successor(self)
        self.apply(s)
        return s

    def apply(self, s: "ModelState") -> None:
        """Make this operation's effect on `s`, a successor this step owns.
        It may write the objects its footprint names (any, under the
        wildcard) and the threads of its executor and `thread_target`; the
        rest of `s` is shared with the pre-state.  That includes the
        shared-variable and spurious-wakeup tables, so a step that writes
        one replaces it with a new dict (`s.shared_vars = {...}`) and never
        mutates it.  It reads by the footprint's read rule (`footprint`)."""

    # -- optional hooks ----------------------------------------------------

    def result_in(self, state: "ModelState"):
        """Value delivered back to the executing thread's body (reads)."""
        return None

    def usage_error(self, state: "ModelState") -> Optional[str]:
        """Misuse diagnostic (e.g. unlock by non-owner); a trace finding."""
        return None

    def assertion_failure(self, state: "ModelState") -> Optional[str]:
        """Failure message when this transition checks a predicate."""
        return None

    def mutex_owner_refs(self) -> tuple:
        """ObjectIds of mutexes whose ownership this transition reads/writes."""
        return ()

    def mutex_queue_refs(self) -> tuple:
        """ObjectIds of mutexes whose wait queue this transition mutates."""
        return ()

    def footprint(self) -> Optional[tuple]:
        """Keys of everything this transition's dependence claims can touch,
        of every object its `apply` writes, and of every object its
        `enabled_in` reads.

        The engine only tests dependence between steps that share a key (or
        a thread relation, which the framework rule covers), so any
        transition this one may claim a conflict with -- or that may claim
        one with it -- must share a key.  A successor state copies only the
        objects listed here.  A pending transition is re-tested for
        enabledness only after a step that shares a key with it (or copies
        its `thread_target`'s entry), so `enabled_in` may read no other
        object.  The read rule: `apply`, `result_in`, `usage_error` and
        `assertion_failure` read only the objects, variables and spurious
        counts the footprint names, and the executor's and `thread_target`'s
        entries, so a step that reads what another read does what it did
        (`engine.SuccessorMemo`).  None is the wildcard: the step is tested
        against everything, copies everything, re-tests everyone and may
        read anything, which is always sound.

        Called once, by `seal`; the search reads the stored `keys`.
        """
        return None

    # -- identity ----------------------------------------------------------

    def triple(self) -> tuple:
        """(executor, kind, object key): the identity used by sleep sets."""
        return (self.executor, self.kind, self.object_key())

    def object_key(self):
        return self.oid if self.oid is not None else self.object_name

    def same_object(self, other: "Transition") -> bool:
        key = self.obj_key
        return key is not None and key == other.obj_key

    def __repr__(self):
        obj = self.object_name or ""
        return f"<{self.kind} {obj} by T{self.executor}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

TRANSITION_CLASSES: dict = {}   # request kind -> Transition subclass
OBJECT_CLASSES: dict = {}       # object kind -> VisibleObject subclass


def register(cls=None, kinds=()):
    """Declare a primitive class, as `@register` or `@register(kinds=...)`:
    a `Transition` subclass builds the requests of each kind in `kinds`
    (default: its own `kind`), a `VisibleObject` subclass is created for
    objects of its `kind`.  Registering a kind again replaces the class."""
    if cls is None:
        return lambda c: register(c, kinds)
    if issubclass(cls, VisibleObject):
        OBJECT_CLASSES[cls.kind] = cls
    else:
        for kind in kinds or (cls.kind,):
            TRANSITION_CLASSES[kind] = cls
    return cls


# ---------------------------------------------------------------------------
# Framework combination rules
# ---------------------------------------------------------------------------


def thread_related(a: Transition, b: Transition) -> bool:
    """The create/join rule: one of the two steps is of the thread the other
    creates or joins, or one creates the thread the other creates or joins.
    Such a pair is dependent and never co-enabled: the named thread has no
    pending transition before its create applies, nor once a join of it is
    enabled, and a join needs the thread exited where a create needs it
    embryo.  Two joins of one thread are not related."""
    if a.thread_target == b.executor or b.thread_target == a.executor:
        return True
    return (a.thread_target is not None and a.thread_target == b.thread_target
            and (a.kind == "create" or b.kind == "create"))


def dependent(a: Transition, b: Transition) -> bool:
    """Symmetric dependence: same thread, create/join relation, or either claim."""
    if a.executor == b.executor or thread_related(a, b):
        return True
    return a.depends_with(b) or b.depends_with(a)


def coenabled(a: Transition, b: Transition) -> bool:
    """Symmetric co-enabledness: a thread has one next transition; a pair
    `thread_related` relates is never co-enabled; otherwise either side may
    veto the pair (AND of the two claims).  The engine's backtrack scan
    relies on the create/join rule being here: it does not visit steps
    related to a transition only by `thread_target`, since this rule
    rejects every such pair."""
    if a.executor == b.executor or thread_related(a, b):
        return False
    return a.coenabled_with(b) and b.coenabled_with(a)


# ---------------------------------------------------------------------------
# Clock vectors (happens-before timestamps over trace indices)
# ---------------------------------------------------------------------------


class ClockVector:
    """Map thread id -> 1-based trace step number, default 0 when absent.

    Entries only grow along a trace; `merged` is the componentwise max.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[dict] = None):
        self.entries = entries or {}

    def get(self, tid: ThreadId) -> int:
        return self.entries.get(tid, 0)

    def merged(self, other: "ClockVector") -> "ClockVector":
        if not other.entries:
            return self
        if not self.entries:
            return other
        out = dict(self.entries)
        for tid, k in other.entries.items():
            if k > out.get(tid, 0):
                out[tid] = k
        return ClockVector(out)

    def with_entry(self, tid: ThreadId, step: int) -> "ClockVector":
        out = dict(self.entries)
        out[tid] = step
        return ClockVector(out)

    def __eq__(self, other):
        return isinstance(other, ClockVector) and self.entries == other.entries

    def __repr__(self):
        return f"ClockVector({self.entries!r})"


EMPTY_CLOCK = ClockVector()


def happens_before(i: int, trace: list, thread_clocks: dict, t: Transition) -> bool:
    """Is trace step i (0-based) in the causal past of t.executor's next step?

    thread_clocks maps thread id -> clock of that thread's last executed
    transition (seeded with the creator's clock at create time).
    """
    if not 0 <= i < len(trace):
        raise IndexError(f"trace index {i} out of range")
    clock = thread_clocks.get(t.executor, EMPTY_CLOCK)
    return (i + 1) <= clock.get(trace[i].executor)


# ---------------------------------------------------------------------------
# Model state
# ---------------------------------------------------------------------------


class ThreadInfo:
    """One thread's status, pending transition and executed-step count, and
    `body_state`: the immutable state its body resumes from (None for a
    body that has not started; see `runtime.BuildContext.resume`).  A clone
    shares the pending transition and `body_state`, which are never mutated;
    fingerprints leave `body_state` out."""

    __slots__ = ("status", "pending", "executed", "body_state")

    def __init__(self, status: str = EMBRYO, pending: Optional[Transition] = None,
                 executed: int = 0, body_state=None):
        self.status = status
        self.pending = pending
        self.executed = executed
        self.body_state = body_state

    def clone(self) -> "ThreadInfo":
        return ThreadInfo(self.status, self.pending, self.executed, self.body_state)

    def has_step(self, budget: Optional[int] = None) -> bool:
        """Whether the thread has a next step: runnable, with a pending
        transition, and under the per-thread depth `budget` unless that step
        is its exit bookkeeping.  A thread at the budget has no further step
        in the truncated program."""
        pending = self.pending
        return (self.status == RUNNABLE and pending is not None
                and (budget is None or self.executed < budget or pending.kind == "exit"))


class ModelState:
    """The checker's mirror of the program: visible objects, per-thread
    status, pending transition and body state, shared variables,
    spurious-wakeup use.

    Treated as an immutable snapshot by the engine: a step writes only the
    `successor` made for it, so stored pre-states stay valid for
    backtracking.  Snapshots share every object, thread and table no step
    between them wrote.
    """

    __slots__ = ("objects", "threads", "shared_vars", "spurious_used")

    def __init__(self, objects: Optional[dict] = None, threads: Optional[dict] = None,
                 shared_vars: Optional[dict] = None, spurious_used: Optional[dict] = None):
        self.objects = objects if objects is not None else {}
        self.threads = threads if threads is not None else {}
        self.shared_vars = shared_vars if shared_vars is not None else {}
        self.spurious_used = spurious_used if spurious_used is not None else {}

    def successor(self, t: Transition) -> "ModelState":
        """A state for step `t` to write: fresh copies of the objects in
        `t`'s footprint and of the threads of its executor and target (the
        ones `runtime.execute_step` resumes), and everything else shared
        with this state, the variable and spurious-wakeup tables included:
        a step replaces a table it writes (`Transition.apply`).  A wildcard
        step gets a `clone`."""
        keys = t.keys
        if keys is None:
            return self.clone()
        return self._copy(keys, (t.executor, t.thread_target),
                          self.shared_vars, self.spurious_used)

    def clone(self) -> "ModelState":
        """A copy that shares nothing mutable with this state."""
        return self._copy(self.objects, self.threads,
                          dict(self.shared_vars), dict(self.spurious_used))

    def _copy(self, object_keys, tids, shared_vars: dict,
              spurious_used: dict) -> "ModelState":
        objects, threads = dict(self.objects), dict(self.threads)
        for key in object_keys:
            obj = objects.get(key)
            if obj is not None:
                objects[key] = obj.clone()
        for tid in tids:
            info = threads.get(tid)
            if info is not None:
                threads[tid] = info.clone()
        return ModelState(objects, threads, shared_vars, spurious_used)

    def live_threads(self, budget: Optional[int] = None) -> list:
        """Thread ids that have a next step (`ThreadInfo.has_step`), in id
        order."""
        return [tid for tid, info in sorted(self.threads.items()) if info.has_step(budget)]

    def enabled_threads(self, budget: Optional[int] = None, live: Optional[list] = None) -> list:
        """The live threads (`live_threads(budget)`, unless given) whose
        pending transition can execute now, in id order."""
        if live is None:
            live = self.live_threads(budget)
        threads = self.threads
        return [tid for tid in live if threads[tid].pending.enabled_in(self)]

    def thread_enabled(self, tid: ThreadId, budget: Optional[int] = None) -> bool:
        """Whether `tid` is in `enabled_threads(budget)`, testing `tid` alone."""
        info = self.threads.get(tid)
        return info is not None and info.has_step(budget) and info.pending.enabled_in(self)

    def pending_of(self, tid: ThreadId) -> Optional[Transition]:
        return self.threads[tid].pending


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def canonical_transition(t: Optional[Transition]) -> list:
    if t is None:
        return []
    return [t.kind, -1 if t.oid is None else t.oid, t.object_name or "",
            [str(p) for p in t.payload]]


def canonical_state(s: ModelState) -> dict:
    """Order-independent structural summary used for fingerprinting."""
    return {
        "objects": [
            [oid, s.objects[oid].kind, s.objects[oid].name, list(s.objects[oid].snapshot())]
            for oid in sorted(s.objects)
        ],
        "threads": [
            [tid, s.threads[tid].status, s.threads[tid].executed,
             canonical_transition(s.threads[tid].pending)]
            for tid in sorted(s.threads)
        ],
        "vars": sorted(s.shared_vars.items()),
        "spurious": sorted(s.spurious_used.items()),
    }


def fingerprint(s: ModelState) -> str:
    """Digest of the canonical serialization; equal states hash equally
    regardless of map insertion order or the path taken to reach them."""
    blob = json.dumps(canonical_state(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
