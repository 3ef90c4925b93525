"""A user-defined primitive, wired in the same way the built-ins are.

Models a one-shot gate: `gate_open` flips it open (idempotent), `gate_pass`
completes only once the gate is open.  The declared attributes are minimal:
pass is enabled when the gate is open, open conflicts with same-gate
operations, and two passes of the same gate share (the gate never closes
again, so their order is dead).
"""

import pytest

from permute.core import Transition, VisibleObject, dependent, fingerprint
from permute.engine import ExplorationConfig, FootprintIndex, explore
from permute.runtime import (
    HANDLERS,
    ObjectDecl,
    OpRequest,
    Program,
    register_handler,
)


class GateObj(VisibleObject):
    kind = "gate"
    __slots__ = ("open",)

    def __init__(self, oid, name):
        super().__init__(oid, name)
        self.open = False

    def clone(self):
        c = GateObj(self.oid, self.name)
        c.open = self.open
        return c

    def snapshot(self):
        return (self.open,)


class GateOpen(Transition):
    kind = "gate_open"
    __slots__ = ()

    def depends_with(self, other):
        # Opening flips pass enabledness; two opens of the same gate are
        # idempotent and could claim independence, kept dependent for the
        # conservative default.
        return other.kind in ("gate_open", "gate_pass") and self.same_object(other)

    def apply_to(self, state):
        s = state.clone()
        s.objects[self.oid].open = True
        return s


class GatePass(Transition):
    kind = "gate_pass"
    __slots__ = ()

    def enabled_in(self, state):
        return state.objects[self.oid].open

    def depends_with(self, other):
        if other.kind == "gate_open":
            return self.same_object(other)
        return False  # pass/pass share: the gate never closes again


class ConservativePass(GatePass):
    """A pass that claims a conflict with every same-gate operation."""

    __slots__ = ()

    def depends_with(self, other):
        return other.kind in ("gate_open", "gate_pass") and self.same_object(other)


def _ensure_gate(state, ctx, name):
    oid = ctx.registry.oid_for(name, "gate")
    if oid not in state.objects:
        state.objects[oid] = GateObj(oid, name)
    return oid


@pytest.fixture(autouse=True)
def _registered_gate_ops():
    register_handler("gate_open", lambda tid, req, state, ctx: GateOpen(
        tid, _ensure_gate(state, ctx, req.object_name), req.object_name))
    register_handler("gate_pass", lambda tid, req, state, ctx: GatePass(
        tid, _ensure_gate(state, ctx, req.object_name), req.object_name))
    yield
    HANDLERS.pop("gate_open", None)
    HANDLERS.pop("gate_pass", None)


def gate_open(name):
    return OpRequest("gate_open", name, "gate")


def gate_pass(name):
    return OpRequest("gate_pass", name, "gate")


def make_program(waiters=2):
    def main():
        for i in range(waiters + 1):
            yield OpRequest("create", target_name=f"t{i+1}")
        for i in range(waiters + 1):
            yield OpRequest("join", target_name=f"t{i+1}")

    def opener():
        yield gate_open("g")

    def waiter():
        yield gate_pass("g")

    threads = [("main", main), ("t1", opener)]
    threads += [(f"t{i+2}", waiter) for i in range(waiters)]
    return Program(threads, [ObjectDecl("g", "gate")])


def test_custom_primitive_explores_and_blocks_correctly():
    report = explore(make_program())
    assert report.traces >= 1
    assert report.deadlocks == 0  # the opener always eventually runs
    assert not report.crashes and not report.usage_errors


def test_custom_primitive_deadlocks_without_opener():
    def main():
        yield OpRequest("create", target_name="t1")
        yield OpRequest("join", target_name="t1")

    def waiter():
        yield gate_pass("g")

    program = Program([("main", main), ("t1", waiter)], [ObjectDecl("g", "gate")])
    report = explore(program)
    assert report.deadlocks == report.traces == 1


def test_custom_claims_feed_the_reduction():
    a = GatePass(1, 0, "g")
    b = GatePass(2, 0, "g")
    opener = GateOpen(3, 0, "g")
    other_gate = GatePass(2, 1, "h")
    assert not dependent(a, b)
    assert dependent(a, opener)
    assert not dependent(a, other_gate)

    # Two passes through an open gate commute, as their independence claims.
    from permute.core import ModelState, RUNNABLE, ThreadInfo
    s = ModelState()
    for tid in (1, 2):
        s.threads[tid] = ThreadInfo(RUNNABLE)
    gate = GateObj(0, "g")
    gate.open = True
    s.objects[0] = gate
    assert fingerprint(b.apply_to(a.apply_to(s))) == fingerprint(a.apply_to(b.apply_to(s)))


def test_independent_passes_collapse_to_one_trace():
    # With pass/pass declared independent, the two waiters' orders collapse;
    # only the open-vs-pass races remain.
    independent = explore(make_program(waiters=2))
    register_handler("gate_pass", lambda tid, req, state, ctx: ConservativePass(
        tid, _ensure_gate(state, ctx, req.object_name), req.object_name))
    conservative = explore(make_program(waiters=2))
    assert independent.traces <= conservative.traces
    assert independent.deadlocks == conservative.deadlocks == 0


@pytest.mark.parametrize("pass_class", [GatePass, ConservativePass])
def test_undeclared_footprint_explores_like_a_full_scan(monkeypatch, pass_class):
    # The gate declares no footprint, so its steps are wildcards in the
    # index; the search must match one that scans every step for everything.
    register_handler("gate_pass", lambda tid, req, state, ctx: pass_class(
        tid, _ensure_gate(state, ctx, req.object_name), req.object_name))

    def explore_all():
        traces = []
        report = explore(make_program(waiters=3), observer=traces.append)
        return report, traces

    indexed = explore_all()
    monkeypatch.setattr(FootprintIndex, "candidates",
                        lambda self, t: [range(len(self.lists_at))])
    assert explore_all() == indexed
