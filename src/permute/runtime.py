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
enqueue and finish halves: the body yields one high-level request and the
session surfaces the parts one scheduling step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional

from .core import EMBRYO, EXITED, RUNNABLE, ModelState, ThreadInfo, ThreadId, Transition
from . import primitives as prim


class ProgramError(Exception):
    """Malformed program or unregistered operation kind."""


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


class ops:
    """Request constructors for host-language bodies (and the interpreter)."""

    @staticmethod
    def lock(name):
        return OpRequest("lock", name, "mutex")

    @staticmethod
    def unlock(name):
        return OpRequest("unlock", name, "mutex")

    @staticmethod
    def sem_wait(name):
        return OpRequest("sem_wait", name, "sem")

    @staticmethod
    def sem_post(name):
        return OpRequest("sem_post", name, "sem")

    @staticmethod
    def sem_getvalue(name):
        return OpRequest("sem_getvalue", name, "sem")

    @staticmethod
    def cond_wait(cond, mutex):
        return OpRequest("cond_wait", cond, "cond", mutex_name=mutex)

    @staticmethod
    def cond_signal(name):
        return OpRequest("cond_signal", name, "cond")

    @staticmethod
    def cond_broadcast(name):
        return OpRequest("cond_broadcast", name, "cond")

    @staticmethod
    def rdlock(name, object_kind="rwlock"):
        return OpRequest("rdlock", name, object_kind)

    @staticmethod
    def wrlock(name):
        return OpRequest("wrlock", name, "rwlock")

    @staticmethod
    def wrlock1(name):
        return OpRequest("wrlock1", name, "rwwlock")

    @staticmethod
    def wrlock2(name):
        return OpRequest("wrlock2", name, "rwwlock")

    @staticmethod
    def rwunlock(name, object_kind="rwlock"):
        return OpRequest("rwunlock", name, object_kind)

    @staticmethod
    def barrier_wait(name):
        return OpRequest("barrier_wait", name, "barrier")

    @staticmethod
    def read(name):
        return OpRequest("read", name, "var")

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


class PendingOp(NamedTuple):
    """A surfaced visible-operation request, pre-transition form."""

    thread: ThreadId
    op: OpRequest


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

    def decl_for(self, name: str) -> Optional[ObjectDecl]:
        return self.decls.get(name)

    def object_kind(self, name: str, fallback: Optional[str]) -> str:
        decl = self.decls.get(name)
        if decl is not None:
            return decl.kind
        if fallback is None:
            raise ProgramError(f"object {name!r} has no declaration and no kind hint")
        return fallback

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


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class _ThreadRun:
    __slots__ = ("gen", "parts", "current", "started", "finished")

    def __init__(self):
        self.gen = None
        self.parts: list = []
        self.current: Optional[OpRequest] = None
        self.started = False
        self.finished = False


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
            run.current = run.parts.pop(0)
            return run.current
        return self._advance_gen(tid, run, result=result)

    def current_op(self, tid: ThreadId) -> Optional[OpRequest]:
        return self.runs[tid].current

    def rewind(self, tid: ThreadId) -> None:
        """Drop a thread's body so that the next `spawn` starts it afresh."""
        self.runs[tid] = _ThreadRun()

    def _advance_gen(self, tid, run, result=None, first=False):
        try:
            req = next(run.gen) if first else run.gen.send(result)
        except StopIteration:
            run.finished = True
            run.current = None
            return None
        except Exception as exc:  # body fault: the crash-finding path
            run.finished = True
            run.current = None
            raise BodyCrash(tid, exc) from exc
        parts = self._expand(req)
        run.current = parts[0]
        run.parts = parts[1:]
        return run.current

    def _expand(self, req: OpRequest) -> list:
        kind = req.kind
        if kind == "lock":
            policy = self.ctx.policy_for("mutex", req.object_name)
            if policy == prim.ARB_FUSED:
                return [req]
            return [replace(req, kind="lock_enqueue"), req]
        if kind == "sem_wait":
            policy = self.ctx.policy_for("sem", req.object_name)
            if policy == prim.ARB_FUSED:
                return [req]
            return [replace(req, kind="sem_enqueue"), replace(req, kind="sem_finish")]
        if kind == "cond_wait":
            return [replace(req, kind="cond_enqueue"), replace(req, kind="cond_wake")]
        if kind == "rdlock":
            return [replace(req, kind="rd_enqueue"), replace(req, kind="rd_lock")]
        if kind == "wrlock":
            return [replace(req, kind="wr_enqueue"), replace(req, kind="wr_lock")]
        if kind == "wrlock1":
            return [replace(req, kind="wr1_enqueue"), replace(req, kind="wr1_lock")]
        if kind == "wrlock2":
            return [replace(req, kind="wr2_enqueue"), replace(req, kind="wr2_lock")]
        if kind == "barrier_wait":
            return [replace(req, kind="arrive"), replace(req, kind="barrier_finish")]
        return [req]


# ---------------------------------------------------------------------------
# Transition building
# ---------------------------------------------------------------------------


def _ensure_object(state: ModelState, ctx: BuildContext, name: str,
                   kind_hint: Optional[str]) -> int:
    kind = ctx.object_kind(name, kind_hint)
    oid = ctx.registry.oid_for(name, kind)
    if oid not in state.objects:
        decl = ctx.decl_for(name)
        attrs = decl.attrs if decl is not None else {}
        policy = ctx.policy_for(kind, name)
        state.objects[oid] = prim.make_object(kind, oid, name, attrs, policy,
                                              ctx.max_spurious)
    return oid


def _rw_tags(kind: str):
    return {"rd_enqueue": "r", "rd_lock": "r", "wr_enqueue": "w", "wr_lock": "w",
            "wr1_enqueue": "w1", "wr1_lock": "w1", "wr2_enqueue": "w2",
            "wr2_lock": "w2"}[kind]


def build_transition(p: PendingOp, state: ModelState, ctx: BuildContext) -> Transition:
    """Convert a surfaced request into its transition, creating any visible
    object it names on first encounter.  `state` must be an owned snapshot;
    object creation mutates it in place.
    """
    tid, req = p.thread, p.op
    kind = req.kind
    builder = HANDLERS.get(kind)
    if builder is None:
        raise ProgramError(f"no handler registered for operation kind {kind!r}")
    return builder(tid, req, state, ctx)


HANDLERS: dict = {}


def register_handler(kind: str, builder) -> None:
    """Install a builder for a new operation kind (extension point)."""
    HANDLERS[kind] = builder


def _handler(kind):
    def deco(fn):
        register_handler(kind, fn)
        return fn
    return deco


@_handler("create")
def _build_create(tid, req, state, ctx):
    target = ctx.program.tid_of.get(req.target_name, -1)
    if target < 0:
        raise ProgramError(f"create names unknown thread {req.target_name!r}")
    return prim.ThreadCreate(tid, target, req.target_name)


@_handler("join")
def _build_join(tid, req, state, ctx):
    target = ctx.program.tid_of.get(req.target_name, -1)
    return prim.ThreadJoin(tid, target, req.target_name)


@_handler("exit")
def _build_exit(tid, req, state, ctx):
    return prim.ThreadExit(tid)


@_handler("lock_enqueue")
def _build_lock_enqueue(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "mutex")
    return prim.MutexEnqueue(tid, oid, req.object_name,
                             ctx.policy_for("mutex", req.object_name))


@_handler("lock")
def _build_lock(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "mutex")
    return prim.MutexLock(tid, oid, req.object_name)


@_handler("unlock")
def _build_unlock(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "mutex")
    return prim.MutexUnlock(tid, oid, req.object_name)


@_handler("sem_post")
def _build_sem_post(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "sem")
    return prim.SemPost(tid, oid, req.object_name)


@_handler("sem_getvalue")
def _build_sem_getvalue(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "sem")
    return prim.SemGetValue(tid, oid, req.object_name)


@_handler("sem_enqueue")
def _build_sem_enqueue(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "sem")
    return prim.SemEnqueue(tid, oid, req.object_name,
                           ctx.policy_for("sem", req.object_name))


@_handler("sem_finish")
def _build_sem_finish(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "sem")
    return prim.SemWaitFinish(tid, oid, req.object_name)


@_handler("sem_wait")
def _build_sem_fused(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "sem")
    return prim.SemWaitFused(tid, oid, req.object_name)


@_handler("cond_enqueue")
def _build_cond_enqueue(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "cond")
    moid = _ensure_object(state, ctx, req.mutex_name, "mutex")
    return prim.CondEnqueue(tid, oid, req.object_name, moid, req.mutex_name,
                            ctx.policy_for("cond", req.object_name))


@_handler("cond_wake")
def _build_cond_wake(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "cond")
    moid = _ensure_object(state, ctx, req.mutex_name, "mutex")
    return prim.CondWakeFinish(tid, oid, req.object_name, moid, req.mutex_name)


@_handler("cond_signal")
def _build_cond_signal(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "cond")
    return prim.CondSignal(tid, oid, req.object_name)


@_handler("cond_broadcast")
def _build_cond_broadcast(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "cond")
    return prim.CondBroadcast(tid, oid, req.object_name)


def _build_rw_enqueue(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, req.object_kind or "rwlock")
    return prim.RWEnqueue(tid, oid, req.object_name, _rw_tags(req.kind))


def _build_rw_lock(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, req.object_kind or "rwlock")
    tag = _rw_tags(req.kind)
    if tag == "r":
        return prim.RWReaderLock(tid, oid, req.object_name)
    return prim.RWWriterLock(tid, oid, req.object_name, tag)


for _k in ("rd_enqueue", "wr_enqueue", "wr1_enqueue", "wr2_enqueue"):
    register_handler(_k, _build_rw_enqueue)
for _k in ("rd_lock", "wr_lock", "wr1_lock", "wr2_lock"):
    register_handler(_k, _build_rw_lock)


@_handler("rwunlock")
def _build_rw_unlock(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, req.object_kind or "rwlock")
    return prim.RWUnlock(tid, oid, req.object_name)


@_handler("arrive")
def _build_arrive(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "barrier")
    return prim.BarrierArrive(tid, oid, req.object_name)


@_handler("barrier_finish")
def _build_barrier_finish(tid, req, state, ctx):
    oid = _ensure_object(state, ctx, req.object_name, "barrier")
    return prim.BarrierWaitFinish(tid, oid, req.object_name)


@_handler("read")
def _build_read(tid, req, state, ctx):
    if req.object_name not in state.shared_vars:
        raise ProgramError(f"read of undeclared variable {req.object_name!r}")
    return prim.VarRead(tid, None, req.object_name)


@_handler("write")
def _build_write(tid, req, state, ctx):
    if req.object_name not in state.shared_vars:
        raise ProgramError(f"write of undeclared variable {req.object_name!r}")
    return prim.VarWrite(tid, req.object_name, req.payload[0])


@_handler("assert")
def _build_assert(tid, req, state, ctx):
    return prim.AssertCheck(tid, req.predicate, req.var_refs, req.message, req.text)


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
    """The pending transition for a request a body surfaced; a body that
    returned (`op` None) has its exit step pending."""
    if op is None:
        return prim.ThreadExit(tid)
    return build_transition(PendingOp(tid, op), state, ctx)


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
