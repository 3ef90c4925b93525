"""Cooperative execution of program bodies as logical threads.

A body is a deterministic generator: it yields a visible-operation request,
the engine decides when to run it, and the request's result (for reads) is
delivered when the generator resumes.  Between two yields a body may only do
thread-local work.  Given the same sequence of delivered results a body must
emit the same requests; that determinism contract is what lets the engine
restart a body and re-drive it through its steps instead of forking the
process, and it is checked on every re-drive and every replay.

Wait-style requests (`sem_wait`, `cond_wait`, `lock` under a queued policy,
read/write lock acquisition, `barrier_wait`) are split here into their
enqueue and finish halves, by `primitives.WAIT_SPLITS`: the body yields one
high-level request and the session surfaces the parts one scheduling step at
a time.  Each surfaced request becomes a transition through the class
registered for its kind (`core.register`), whose `build` names the objects
it needs from the `BuildContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional

from .core import (
    EMBRYO,
    EXITED,
    RUNNABLE,
    TRANSITION_CLASSES,
    ModelState,
    ProgramError,
    ThreadInfo,
    ThreadId,
    Transition,
)
from . import primitives as prim


class NondeterminismDetected(Exception):
    """A replayed body diverged from the recorded schedule."""

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


@dataclass(frozen=True)
class OpRequest:
    kind: str
    object_name: Optional[str] = None
    object_kind: Optional[str] = None
    payload: tuple = ()
    mutex_name: Optional[str] = None
    target_name: Optional[str] = None
    predicate: Optional[Callable[[dict], bool]] = None
    var_refs: tuple = ()
    message: str = ""
    text: str = ""


def _request(kind: str, object_kind: str):
    """Constructor of `kind` requests on one object, of `object_kind` unless
    the caller names another."""
    return staticmethod(lambda name, object_kind=object_kind: OpRequest(kind, name, object_kind))


class ops:
    """Request constructors for host-language bodies (and the interpreter)."""

    lock = _request("lock", "mutex")
    unlock = _request("unlock", "mutex")
    sem_wait = _request("sem_wait", "sem")
    sem_post = _request("sem_post", "sem")
    sem_getvalue = _request("sem_getvalue", "sem")
    cond_signal = _request("cond_signal", "cond")
    cond_broadcast = _request("cond_broadcast", "cond")
    rdlock = _request("rdlock", "rwlock")
    wrlock = _request("wrlock", "rwlock")
    wrlock1 = _request("wrlock1", "rwwlock")
    wrlock2 = _request("wrlock2", "rwwlock")
    rwunlock = _request("rwunlock", "rwlock")
    barrier_wait = _request("barrier_wait", "barrier")
    read = _request("read", "var")

    @staticmethod
    def cond_wait(cond, mutex):
        return OpRequest("cond_wait", cond, "cond", mutex_name=mutex)

    @staticmethod
    def write(name, value):
        return OpRequest("write", name, "var", payload=(value,))

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


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass
class ObjectDecl:
    name: str
    kind: str
    attrs: dict = field(default_factory=dict)


BodyFactory = Callable[[], Iterator[OpRequest]]


class Program:
    """A checkable program: ordered thread bodies plus object declarations.

    Thread ids follow list order; thread 0 starts runnable, the rest run
    only after a create names them.  Rebuilding bodies from the factories
    must produce identical behaviour -- the determinism contract.
    """

    def __init__(self, threads: list, declarations: list = ()):  # type: ignore[assignment]
        self.threads = list(threads)
        self.declarations = list(declarations)
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


_DEFAULT_POLICY = {"mutex": prim.ARB_FUSED, "sem": prim.ARB_FUSED, "cond": prim.ARB_INDEP}


class BuildContext:
    """Everything transition building needs: the program, object identity,
    and the resolved policy/spurious configuration."""

    def __init__(self, program: Program, policy_overrides: Optional[dict] = None,
                 max_spurious: int = 0):
        self.program = program
        self.registry = ObjectRegistry()
        self.policy_overrides = dict(policy_overrides or {})
        self.max_spurious = max_spurious
        self.decls = {d.name: d for d in program.declarations}
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
            policy = _DEFAULT_POLICY.get(kind, prim.ARB_FUSED)
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
        if oid not in state.objects:
            state.objects[oid] = prim.make_object(
                kind, oid, name, decl.attrs if decl is not None else {},
                self.policy_for(kind, name), self.max_spurious)
        return oid


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class _ThreadRun:
    __slots__ = ("gen", "parts", "started")

    def __init__(self):
        self.gen = None
        self.parts: list = []
        self.started = False


class RuntimeSession:
    """Owns the live generators of one execution attempt.

    At most one body runs between a grant and its next yield; the engine
    drives that by calling `advance` only for the thread it just executed.
    """

    def __init__(self, program: Program, ctx: BuildContext):
        self.program = program
        self.ctx = ctx
        self.runs = {tid: _ThreadRun() for tid in range(len(program.threads))}

    def start(self) -> Optional[OpRequest]:
        return self.spawn(0)

    def spawn(self, tid: ThreadId) -> Optional[OpRequest]:
        run = self.runs[tid]
        if run.started:
            raise ProgramError(f"thread {tid} spawned twice")
        run.started = True
        run.gen = self.program.body_factory(tid)()
        return self._advance_gen(tid, run, first=True)

    def advance(self, tid: ThreadId, result=None) -> Optional[OpRequest]:
        run = self.runs[tid]
        if run.parts:
            return run.parts.pop(0)
        return self._advance_gen(tid, run, result=result)

    def rewind(self, tid: ThreadId) -> None:
        """Drop a thread's body so that the next `spawn` starts it afresh."""
        self.runs[tid] = _ThreadRun()

    def _advance_gen(self, tid, run, result=None, first=False):
        try:
            req = next(run.gen) if first else run.gen.send(result)
        except StopIteration:
            return None
        except Exception as exc:  # body fault: the crash-finding path
            raise BodyCrash(tid, exc) from exc
        parts = prim.WAIT_SPLITS.get(req.kind)
        if parts is None:
            return req
        fused_kind = prim.FUSED_WAITS.get(req.kind)
        if (fused_kind is not None
                and self.ctx.policy_for(fused_kind, req.object_name) == prim.ARB_FUSED):
            return req
        run.parts = [replace(req, kind=parts[1])]
        return replace(req, kind=parts[0])


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


@dataclass
class Finding:
    category: str   # "usage" | "assert" | "crash"
    message: str


@dataclass
class StepOutcome:
    state: ModelState
    transition: Transition
    findings: list


def initial_state(program: Program, session: RuntimeSession,
                  ctx: BuildContext) -> ModelState:
    """Fresh model state with thread 0 started and at its first operation."""
    state = ModelState()
    for tid in range(len(program.threads)):
        state.threads[tid] = ThreadInfo(RUNNABLE if tid == 0 else EMBRYO)
    for decl in program.declarations:
        if decl.kind == "var":
            state.shared_vars[decl.name] = decl.attrs.get("init", 0)
    op = session.start()
    state.threads[0].pending = surfaced_transition(0, op, state, ctx)
    return state


def surfaced_transition(tid: ThreadId, op: Optional[OpRequest], state: ModelState,
                        ctx: BuildContext) -> Transition:
    """The pending transition for a request a body surfaced, which keeps the
    request; a body that returned (`op` None) has its exit step pending."""
    if op is None:
        return prim.ThreadExit(tid)
    t = build_transition(tid, op, state, ctx)
    t.request = op
    return t


def moved_bodies(t: Transition) -> tuple:
    """The bodies a granted transition resumes, in order, as (thread, from
    start) pairs: the executor past the step (an exit resumes nothing), then
    the child a create starts."""
    kind = t.kind
    if kind == "exit":
        return ()
    if kind == "create":
        return ((t.executor, False), (t.thread_target, True))
    return ((t.executor, False),)


def resume_body(session: RuntimeSession, tid: ThreadId, from_start: bool, result=None):
    """Drive one body to its next request: spawn it, or deliver `result` of
    its last step.  Returns (request, None), the request being None when the
    body returned, or (None, BodyCrash) when the body raised."""
    try:
        op = session.spawn(tid) if from_start else session.advance(tid, result)
    except BodyCrash as crash:
        return None, crash
    return op, None


def execute_step(session: RuntimeSession, state: ModelState, tid: ThreadId,
                 ctx: BuildContext) -> StepOutcome:
    """Run one granted transition: apply it to the model, resume the bodies
    it moves to their next visible operation, and install their new pending
    transitions."""
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

    new_state = t.apply_to(state)
    if t.kind != "exit":
        new_state.threads[tid].executed += 1
    for body, from_start in moved_bodies(t):
        op, crash = resume_body(session, body, from_start, result)
        info = new_state.threads[body]
        if crash is None:
            info.pending = surfaced_transition(body, op, new_state, ctx)
        else:
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
    payload = " ".join(str(p) for p in t.payload)
    return ScheduleStep(t.executor, t.kind, t.object_name or "-", payload or "-")


class ReplayCursor:
    """Deterministic re-execution of a recorded schedule from step zero.

    Each `step` checks that the body surfaces exactly the recorded operation
    and that it is enabled in the current state; any divergence raises
    NondeterminismDetected with the offending step index.
    """

    def __init__(self, program: Program, policy_overrides=None, max_spurious=0,
                 budget=None):
        self.ctx = BuildContext(program, policy_overrides, max_spurious)
        self.budget = budget
        self.session = RuntimeSession(program, self.ctx)
        self.state = initial_state(program, self.session, self.ctx)
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
        outcome = execute_step(self.session, self.state, tid, self.ctx)
        self.state = outcome.state
        self.findings.extend(outcome.findings)
        self.position += 1
        return outcome

    def run(self, schedule) -> "ReplayCursor":
        for step in schedule:
            self.step(step)
        return self
