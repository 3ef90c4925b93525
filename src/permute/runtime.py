"""Cooperative execution of program bodies as logical threads.

A body yields a visible-operation request, the engine decides when to run
it, and the request's result (for reads) is delivered when the body
resumes.  Between two requests a body may only do thread-local work.
Every body runs behind one interface, that of compiled code: `start()` and
`resume(state, result)` return the thread's next request and the immutable
state to resume it from.  That body state is kept in the thread's
`ThreadInfo`, so every model-state snapshot holds each thread's body state
too, and a thread resumes from any snapshot.  A body comes in one of two
forms:

- Compiled code (`Program.codes`), as every scenario thread is.  Its steps
  are pure functions of their inputs, so `BuildContext.resume` runs each
  distinct step once per build context and installs the recorded outcome
  on every later one.
- A host generator, which the build context wraps in a `HostBody`, the only
  code that knows a generator cannot be rewound.  Given the same sequence
  of delivered results it must emit the same requests; that determinism
  contract is what lets the wrapper restart a generator and re-drive it
  through its history instead of forking the process, and it is checked
  on every re-drive and every replay.  Each of its steps runs anew.

`BuildContext.next_request` runs one step of either form.  Wait-style
requests (`sem_wait`, `cond_wait`, `lock` under a queued policy, read/write
lock acquisition, `barrier_wait`) are split there into the enqueue and
finish halves that their rows of `primitives.OPERATIONS` name: the body
yields one high-level request and the context surfaces the parts one
scheduling step at a time.
Each surfaced request becomes a transition through the class registered for
its kind (`core.register`), whose `build` names the objects it needs from
the `BuildContext`.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from .core import (
    EMBRYO,
    EXACT_NESTING,
    EXITED,
    RUNNABLE,
    TRANSITION_CLASSES,
    ModelState,
    ProgramError,
    Record,
    ThreadInfo,
    ThreadId,
    Transition,
    exact_key,
    typed_key,
)
from . import primitives as prim


class NondeterminismDetected(Exception):
    """A body diverged from what it did before.  `step` counts from 0: a
    replay (`ReplayCursor`) names the schedule step that diverged, and a
    host body re-driven to an earlier point (`HostBody`) the position, in
    its own history, of the request it surfaced differently."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class BodyCrash(Exception):
    """A thread body raised; recorded as a crash finding for the trace."""

    def __init__(self, tid: ThreadId, cause: BaseException):
        super().__init__(f"thread {tid} crashed: {cause!r}")
        self.tid = tid
        self.cause = cause


# ---------------------------------------------------------------------------
# Operation requests (what bodies yield)
# ---------------------------------------------------------------------------


class OpRequest(Record):
    """What a body yields: one visible operation.  Immutable, and hashable
    by its fields, which `_fields` lists out since the build context keys
    its tables by requests."""

    __slots__ = ("kind", "object_name", "object_kind", "payload", "mutex_name",
                 "target_name", "predicate", "var_refs", "message", "text")

    def __init__(self, kind: str, object_name: Optional[str] = None,
                 object_kind: Optional[str] = None, payload: tuple = (),
                 mutex_name: Optional[str] = None, target_name: Optional[str] = None,
                 predicate: Optional[Callable[[dict], bool]] = None,
                 var_refs: tuple = (), message: str = "", text: str = ""):
        _set = object.__setattr__
        _set(self, "kind", kind)
        _set(self, "object_name", object_name)
        _set(self, "object_kind", object_kind)
        _set(self, "payload", payload)
        _set(self, "mutex_name", mutex_name)
        _set(self, "target_name", target_name)
        _set(self, "predicate", predicate)
        _set(self, "var_refs", var_refs)
        _set(self, "message", message)
        _set(self, "text", text)

    def _fields(self) -> tuple:
        return (self.kind, self.object_name, self.object_kind, self.payload,
                self.mutex_name, self.target_name, self.predicate, self.var_refs,
                self.message, self.text)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an OpRequest")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an OpRequest")

    def replace(self, **changes) -> OpRequest:
        """A copy of this request with the fields in `changes` replaced."""
        return OpRequest(**dict(zip(self.__slots__, self._fields()), **changes))


def _request(kind: str, op: prim.Operation):
    """Constructor of `kind` requests, whose arguments follow the statement
    form: `(name)`, `(name, mutex)` or `(name, value)`.  The request names
    the object kind the row lists first unless the caller names another."""
    default = op.object_kinds[0]
    if op.form == prim.WITH_MUTEX:
        return lambda name, mutex, object_kind=default: OpRequest(
            kind, name, object_kind, mutex_name=mutex)
    if op.form == prim.WRITE:
        return lambda name, value, object_kind=default: OpRequest(
            kind, name, object_kind, payload=(value,))
    return lambda name, object_kind=default: OpRequest(kind, name, object_kind)


class ops:
    """Request constructors for host-language bodies (and the interpreter):
    one per row of `primitives.OPERATIONS`, such as `ops.lock("m")` or
    `ops.write("x", 1)`, set below, and assertions and thread lifecycle."""

    @staticmethod
    def assert_check(predicate, message, var_refs=(), text=""):
        return OpRequest("assert", predicate=predicate, var_refs=tuple(var_refs),
                         message=message, text=text or message)

    @staticmethod
    def create(thread_name):
        return OpRequest("create", target_name=thread_name)

    @staticmethod
    def join(thread_name):
        return OpRequest("join", target_name=thread_name)


for _kind, _op in prim.OPERATIONS.items():
    setattr(ops, _kind, staticmethod(_request(_kind, _op)))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


class ObjectDecl(Record):
    """A declared object or variable: its kind's attributes, such as a
    semaphore's `init`, are in `attrs`, keyed as `primitives.DECLARATIONS`
    lists them."""

    __slots__ = ("name", "kind", "attrs")

    def __init__(self, name: str, kind: str, attrs: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.attrs = {} if attrs is None else attrs


BodyFactory = Callable[[], Iterator[OpRequest]]


class Program:
    """A checkable program: ordered thread bodies plus object declarations.

    Thread ids follow list order; thread 0 starts runnable, the rest run
    only after a create names them, and only once.  Rebuilding bodies from
    the factories must produce identical behaviour -- the determinism
    contract.

    `codes`, when given, holds per thread either None, for a thread that
    runs as its generator body (behind a `HostBody`), or its compiled
    code: an object whose `start()` and `resume(state, result)` return the
    thread's next request (None once it returned) and the immutable state
    to resume it from.  `start()` must always return the same, and
    `resume(state, result)` must be a pure function of its arguments: the
    runtime memoizes both per build context, and runs them again only for a
    key it has not seen (equal values of other types count as other keys)
    or cannot hash.
    """

    def __init__(self, threads: list, declarations: list = (),  # type: ignore[assignment]
                 codes: list = ()):  # type: ignore[assignment]
        self.threads = list(threads)
        self.declarations = list(declarations)
        self.codes = list(codes) or [None] * len(self.threads)
        if len(self.codes) != len(self.threads):
            raise ProgramError(f"{len(self.codes)} codes for {len(self.threads)} threads")
        self.tid_of = {}
        for tid, (name, _body) in enumerate(self.threads):
            if name in self.tid_of:
                raise ProgramError(f"duplicate thread name {name!r}")
            self.tid_of[name] = tid

    def thread_name(self, tid: ThreadId) -> str:
        return self.threads[tid][0]

    def body_factory(self, tid: ThreadId) -> BodyFactory:
        return self.threads[tid][1]


# ---------------------------------------------------------------------------
# Object identity and build context
# ---------------------------------------------------------------------------


class ObjectRegistry:
    """Deterministic object-name -> id assignment, first encounter wins.

    One registry serves a whole exploration, so an object keeps its id on
    every branch of the search.
    """

    def __init__(self):
        self._ids: dict = {}
        self._kinds: dict = {}

    def oid_for(self, name: str, kind: str) -> int:
        oid = self._ids.get(name)
        if oid is None:
            oid = len(self._ids)
            self._ids[name] = oid
            self._kinds[name] = kind
        elif self._kinds[name] != kind:
            raise ProgramError(
                f"object {name!r} used both as {self._kinds[name]} and as {kind}")
        return oid


class BuildContext:
    """Everything transition building needs: the program, object identity,
    and the resolved policy/spurious configuration.

    It also steps every thread (`resume`), each behind the compiled-code
    interface: a thread without compiled code runs its generator behind a
    `HostBody`.  It keeps two memos for the steps of compiled threads:

    - The step table.  A compiled thread's step is a pure function of the
      thread, the step it resumes past, its body state and the step's
      result, so the context runs it once; every later step with an equal
      key, on any branch and in every replay that shares the context,
      installs the recorded body state and pending transition.  Keys are
      type-exact (`core.exact_key`): `1`, `True` and `1.0` stay apart, in
      the result and in the body state, at any depth.  Body states are
      interned by the same keys, so equal body states that `resume` hands
      out are one object.
    - The intern table.  Each distinct request of each compiled thread is
      built once, and every later surfacing of an equal request shares the
      transition.  A build may read only the request, this context and the
      objects it ensures, so the shared transition is the one a new build
      would make.

    On a hit in either table, every object the first build ensured is
    created in the state if it lacks it.  A step whose key or request is
    unhashable, or that resumes past a transition that is not interned,
    runs and builds every time, which keeps both tables bounded by the
    program's distinct steps.  So does every step of a host thread
    (`host_threads`): a memo hit would skip the re-drive that catches a
    nondeterministic body, and its requests may carry a fresh closure on
    every re-drive.  The split halves of each wait request are built once
    per context, so every execution of a wait surfaces the same objects.
    """

    def __init__(self, program: Program, policy_overrides: Optional[dict] = None,
                 max_spurious: int = 0):
        self.program = program
        self.registry = ObjectRegistry()
        self.policy_overrides = dict(policy_overrides or {})
        self.max_spurious = max_spurious
        self.decls = {d.name: d for d in program.declarations}
        self.codes = [HostBody(tid, program.body_factory(tid)) if code is None else code
                      for tid, code in enumerate(program.codes)]
        self.host_threads = frozenset(
            tid for tid, code in enumerate(program.codes) if code is None)
        # (thread, request, `exact_key` of its payload) -> (transition,
        # objects it ensured), each transition numbered by its `serial`, in
        # insertion order.
        self.transitions: dict = {}
        # step key (`_step_key`) -> (body state after, `transitions` entry of
        # the pending transition there).
        self.steps: dict = {}
        # `exact_key` -> the one body state with that content that `resume`
        # hands out, so that equal body states are one object.
        self.body_states: dict = {}
        self._ensured: Optional[list] = None   # the log of the build under way
        self._first_half: dict = {}    # wait request -> the part surfaced first
        self._finish_half: dict = {}   # enqueue half -> its finish half
        # Declared objects claim their ids up front, in declaration order, so
        # ids cannot depend on which branch of the search touches them first.
        for decl in program.declarations:
            if decl.kind != "var":
                self.registry.oid_for(decl.name, decl.kind)

    def policy_for(self, kind: str, name: str) -> str:
        decl = self.decls.get(name)
        policy = None
        if decl is not None:
            policy = decl.attrs.get("policy")
        if policy is None:
            policy = self.policy_overrides.get(kind)
        if policy is None:
            policy = prim.DEFAULT_POLICY.get(kind, prim.ARB_FUSED)
        if kind == "cond" and policy == prim.ARB_FUSED:
            # A condition wait is inherently two steps; fused degrades to
            # the arbitrary policy with an independent enqueue.
            policy = prim.ARB_INDEP
        return policy

    def ensure_object(self, state: ModelState, name: str, kind_hint: Optional[str]) -> int:
        """The id of object `name`, of its declared kind or else `kind_hint`,
        creating the object in `state` (an owned snapshot) on first encounter."""
        decl = self.decls.get(name)
        kind = decl.kind if decl is not None else kind_hint
        if kind is None:
            raise ProgramError(f"object {name!r} has no declaration and no kind hint")
        oid = self.registry.oid_for(name, kind)
        if self._ensured is not None:
            self._ensured.append((oid, name, kind))
        if oid not in state.objects:
            self._create(state, oid, name, kind)
        return oid

    def _create(self, state: ModelState, oid: int, name: str, kind: str) -> None:
        decl = self.decls.get(name)
        state.objects[oid] = prim.make_object(
            kind, oid, name, decl.attrs if decl is not None else {},
            self.policy_for(kind, name), self.max_spurious)

    def resume(self, tid: ThreadId, body_state, after: Optional[Transition], result,
               state: ModelState) -> tuple:
        """Thread `tid`'s body state and pending transition after its step
        `after` (None: at its start), which returned `result`, resumed from
        `body_state`, with every object the transition needs created in
        `state` (an owned snapshot).  A body that raises raises BodyCrash."""
        if tid in self.host_threads:
            op, body_state = self.next_request(tid, body_state, after, result)
            return body_state, surfaced_transition(tid, op, state, self)
        key = _step_key(tid, body_state, after, result)
        try:
            step = self.steps.get(key)
        except TypeError:   # an unhashable body state or result
            key = step = None
        if step is None:
            op, body_state = self.next_request(tid, body_state, after, result)
            try:
                body_state = self.body_states.setdefault(exact_key(body_state), body_state)
            except TypeError:   # an unhashable body state
                pass
            entry = self._interned(tid, op, state)
            if entry is None:
                return body_state, surfaced_transition(tid, op, state, self)
            step = (body_state, entry)
            if key is not None:
                self.steps[key] = step
        body_state, (t, ensured) = step
        objects = state.objects
        for oid, name, kind in ensured:
            if oid not in objects:
                self._create(state, oid, name, kind)
        return body_state, t

    def next_request(self, tid: ThreadId, body_state, after: Optional[Transition],
                     result) -> tuple:
        """Thread `tid`'s next request and its body state there, run anew:
        its first when `after` is None, else the one after its step `after`,
        which returned `result`, resumed from `body_state`.  The request is
        None once the body returned.  An enqueue half is followed by its
        finish half without resuming the body.  A body that raises raises
        BodyCrash; a host body that diverges when re-driven raises
        NondeterminismDetected."""
        if after is not None:
            finish = self._finish_of(after.request)
            if finish is not None:
                return finish, body_state
        code = self.codes[tid]
        try:
            if after is None:
                req, body_state = code.start()
            else:
                req, body_state = code.resume(body_state, result)
        except NondeterminismDetected:
            raise
        except Exception as exc:  # body fault: the crash-finding path
            raise BodyCrash(tid, exc) from exc
        return self._surfaced(req), body_state

    def _interned(self, tid: ThreadId, op: Optional[OpRequest], state: ModelState):
        """The `transitions` entry of the transition for request `op` that
        compiled thread `tid` surfaced in `state`, built on first sight;
        None for an unhashable request.  Equal requests whose payload values
        differ in type (1, 1.0, True), at any depth, print apart, so they
        are interned apart."""
        try:
            key = (tid, op) if op is None else (tid, op, exact_key(op.payload))
            entry = self.transitions.get(key)
        except TypeError:   # an unhashable payload, such as a list
            return None
        if entry is None:
            self._ensured = ensured = []
            try:
                t = surfaced_transition(tid, op, state, self)
            finally:
                self._ensured = None
            t.serial, t.relations = len(self.transitions), {}
            entry = self.transitions[key] = (t, tuple(ensured))
        return entry

    def _surfaced(self, req: Optional[OpRequest]) -> Optional[OpRequest]:
        """The enqueue half of a wait request that this context's policy
        splits, otherwise the request itself."""
        op = prim.OPERATIONS.get(req.kind) if req is not None else None
        if op is None or not op.split:
            return req
        first = self._first_half.get(req)
        if first is None:
            first = req
            if (op.fused_on is None
                    or self.policy_for(op.fused_on, req.object_name) != prim.ARB_FUSED):
                first = req.replace(kind=op.split[0])
            self._first_half[req] = first
        return first

    def _finish_of(self, req: Optional[OpRequest]) -> Optional[OpRequest]:
        """The finish half that follows `req`, if it is an enqueue half."""
        kind = _FINISH_KINDS.get(req.kind) if req is not None else None
        if kind is None:
            return None
        finish = self._finish_half.get(req)
        if finish is None:
            finish = self._finish_half[req] = req.replace(kind=kind)
        return finish


# enqueue half kind -> finish half kind
_FINISH_KINDS = dict(op.split for op in prim.OPERATIONS.values() if op.split)


def _step_key(tid: ThreadId, body_state, after: Optional[Transition], result):
    """The key of a compiled thread's step in `BuildContext.steps`, None for
    one past a transition that is not interned.  A start depends on the
    thread alone; any other step on the transition it resumes past (its
    serial names the thread too), the body state and the result, each with
    the types of its values (`core.exact_key`)."""
    if after is None:
        return tid
    if after.serial is None:
        return None
    if type(body_state) is tuple and type(result) not in EXACT_NESTING:
        types = tuple(map(type, body_state))
        if EXACT_NESTING.isdisjoint(types):
            # `exact_key` of both, inlined for the common flat case.
            return after.serial, body_state, types, result, type(result)
    return after.serial, exact_key(body_state), exact_key(result)


# ---------------------------------------------------------------------------
# Host bodies
# ---------------------------------------------------------------------------


class HostBody:
    """A host generator body behind the compiled-code interface.

    Its body state names the body's history: a state is the tuple
    (previous state or None, the result delivered to get here, the request
    surfaced here, None once the body returned).  The wrapper keeps the
    live generator at the newest state it handed out, so a resume from
    there is one `send`.  A resume from any other state restarts the
    factory and re-drives the body through that state's history; every
    request it surfaces again must equal the recorded one (`_same_request`),
    otherwise NondeterminismDetected.
    """

    __slots__ = ("tid", "factory", "generator", "at")

    def __init__(self, tid: ThreadId, factory: BodyFactory):
        self.tid = tid
        self.factory = factory
        self.generator = None
        self.at = None   # the state the live generator is at

    def start(self) -> tuple:
        self.generator = self.factory()
        return self._send(None, None)

    def resume(self, state: tuple, result) -> tuple:
        if state is not self.at:
            self._redrive(state)
        return self._send(state, result)

    def _send(self, state: Optional[tuple], result) -> tuple:
        """The live generator's next request, `result` delivered, and the
        state there, which follows `state`."""
        self.at = None   # until the generator is known to be at a state
        try:
            request = self.generator.send(result)
        except StopIteration:
            request = None
        self.at = state = (state, result, request)
        return request, state

    def _redrive(self, state: tuple) -> None:
        """Restart the body and drive it through the history `state` names."""
        history = []
        while state is not None:
            history.append(state)
            state = state[0]
        self.generator = self.factory()
        for step, (previous, result, recorded) in enumerate(reversed(history)):
            try:
                request = self._send(previous, result)[0]
            except Exception as exc:   # a crash where the body had surfaced a request
                request = f"a crash ({exc!r})"
            if not _same_request(request, recorded):
                raise NondeterminismDetected(
                    step, f"thread {self.tid} re-executed to {request}, recorded {recorded}")


def _same_request(request, recorded: Optional[OpRequest]) -> bool:
    """Whether a re-surfaced request is the recorded one: equal apart from
    the identity of its predicate (a body may build a new closure on every
    run), with payload values equal in type too, at any depth, since equal
    values of different types (1, 1.0, True) print apart."""
    return request is recorded or (
        isinstance(request, OpRequest) and recorded is not None
        and request.replace(predicate=recorded.predicate) == recorded
        and typed_key(request.payload) == typed_key(recorded.payload))


# ---------------------------------------------------------------------------
# Transition building
# ---------------------------------------------------------------------------


def build_transition(tid: ThreadId, req: OpRequest, state: ModelState,
                     ctx: BuildContext) -> Transition:
    """Convert a surfaced request into its transition, creating any visible
    object it names on first encounter.  `state` must be an owned snapshot;
    object creation mutates it in place.
    """
    cls = TRANSITION_CLASSES.get(req.kind)
    if cls is None:
        raise ProgramError(f"no transition class registered for operation kind {req.kind!r}")
    return cls.build(tid, req, state, ctx)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


class Finding(Record):
    __slots__ = ("category", "message")

    def __init__(self, category: str, message: str):
        self.category = category   # "usage" | "assert" | "crash"
        self.message = message


class StepOutcome:
    __slots__ = ("state", "transition", "findings")

    def __init__(self, state: ModelState, transition: Transition, findings: list):
        self.state = state
        self.transition = transition
        self.findings = findings


def initial_state(ctx: BuildContext) -> ModelState:
    """Fresh model state of `ctx`'s program with thread 0 started and at its
    first operation."""
    program = ctx.program
    state = ModelState()
    for tid in range(len(program.threads)):
        state.threads[tid] = ThreadInfo(RUNNABLE if tid == 0 else EMBRYO)
    for decl in program.declarations:
        if decl.kind == "var":
            state.shared_vars[decl.name] = decl.attrs.get("init", 0)
    info = state.threads[0]
    info.body_state, info.pending = ctx.resume(0, None, None, None, state)
    return state


def surfaced_transition(tid: ThreadId, op: Optional[OpRequest], state: ModelState,
                        ctx: BuildContext) -> Transition:
    """A new build of the pending transition for a request a body surfaced,
    which keeps the request; a body that returned (`op` None) has its exit
    step pending.  Compiled threads take it from `BuildContext.resume`,
    which builds each one once; host threads build it on every step."""
    if op is None:
        return prim.ThreadExit(tid)
    t = build_transition(tid, op, state, ctx)
    t.request = op
    return t


def execute_step(state: ModelState, tid: ThreadId, ctx: BuildContext,
                 in_place: bool = False) -> StepOutcome:
    """Run one granted transition: apply it to the model, resume the bodies
    it moves to their next visible operation, and install their new pending
    transitions and body states.  The step writes a successor and leaves
    `state` as it was, unless `in_place`: then it writes `state` itself,
    which the caller must own outright and never need again."""
    t = state.threads[tid].pending
    if t is None:
        raise ProgramError(f"thread {tid} has no pending transition")
    findings = []
    msg = t.usage_error(state)
    if msg:
        findings.append(Finding("usage", msg))
    msg = t.assertion_failure(state)
    if msg:
        findings.append(Finding("assert", msg))
    result = t.result_in(state)

    if in_place:
        t.apply(state)
        new_state = state
    else:
        new_state = t.apply_to(state)
    if t.kind == "exit":
        return StepOutcome(new_state, t, findings)
    new_state.threads[tid].executed += 1
    # The bodies `t` moves, each with the step to resume it past (None:
    # start it): the executor, then the child a create starts.
    moved = ((tid, t), (t.thread_target, None)) if t.kind == "create" else ((tid, t),)
    for body, after in moved:
        info = new_state.threads[body]
        try:
            info.body_state, info.pending = ctx.resume(body, info.body_state, after, result,
                                                       new_state)
        except BodyCrash as crash:
            findings.append(Finding("crash", str(crash)))
            info.status = EXITED
            info.pending = None

    return StepOutcome(new_state, t, findings)


# ---------------------------------------------------------------------------
# Schedules and replay
# ---------------------------------------------------------------------------


class ScheduleStep(NamedTuple):
    tid: ThreadId
    label: str
    obj: str
    payload: str


def schedule_step(t: Transition) -> ScheduleStep:
    """How a schedule shows `t`: formatted on first use and kept on the
    transition, which is immutable once built."""
    step = t.schedule
    if step is None:
        payload = " ".join(str(p) for p in t.payload)
        step = t.schedule = ScheduleStep(t.executor, t.kind, t.object_name or "-",
                                         payload or "-")
    return step


class ReplayCursor:
    """Deterministic re-execution of a recorded schedule from step zero.

    Each `step` checks that the body surfaces exactly the recorded operation
    and that it is enabled in the current state; any divergence raises
    NondeterminismDetected with the offending step index.  A compiled
    thread's step that the build context has memoized is not run again, but
    the pending transition it installs is checked the same way.

    The cursor owns its state and only moves forward, so each step writes
    that state in place instead of copying the parts it changes: the
    `StepOutcome.state` a step returns is the cursor's live state, which the
    next step changes.  To go back, start a new cursor (as `permute
    replay`'s `back` does).  A step that raises may leave the state half
    written; the cursor is then spent.
    """

    def __init__(self, program: Program, policy_overrides=None, max_spurious=0,
                 budget=None, ctx: Optional[BuildContext] = None):
        """`ctx`, when given, is a context for `program` and this
        configuration that earlier replays used: they share its objects' ids
        and its transitions."""
        self.ctx = ctx if ctx is not None else BuildContext(program, policy_overrides,
                                                            max_spurious)
        self.budget = budget
        self.state = initial_state(self.ctx)
        self.position = 0
        self.findings: list = []

    def step(self, expected: Optional[ScheduleStep] = None,
             tid: Optional[ThreadId] = None) -> StepOutcome:
        if expected is not None:
            tid = expected.tid
        if tid is None:
            raise ValueError("either an expected step or a thread id is required")
        info = self.state.threads.get(tid)
        if info is None or info.pending is None:
            raise NondeterminismDetected(self.position, f"thread {tid} has no pending operation")
        pending = info.pending
        if expected is not None and schedule_step(pending) != expected:
            raise NondeterminismDetected(
                self.position,
                f"expected {expected}, program surfaced {schedule_step(pending)}")
        if not self.state.thread_enabled(tid, self.budget):
            raise NondeterminismDetected(
                self.position, f"recorded transition {schedule_step(pending)} is not enabled")
        outcome = execute_step(self.state, tid, self.ctx, in_place=True)
        self.findings.extend(outcome.findings)
        self.position += 1
        return outcome

    def run(self, schedule) -> "ReplayCursor":
        for step in schedule:
            self.step(step)
        return self
