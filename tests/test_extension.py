"""A user-defined primitive, declared in the same way the built-ins are.

Models a one-shot gate: `gate_open` flips it open (idempotent), `gate_pass`
completes only once the gate is open.  The declared attributes are minimal:
pass is enabled when the gate is open, open conflicts with same-gate
operations, and two passes of the same gate share (the gate never closes
again, so their order is dead).
"""

import re
from pathlib import Path

import pytest

from permute.core import (
    OBJECT_CLASSES,
    TRANSITION_CLASSES,
    Transition,
    VisibleObject,
    dependent,
    fingerprint,
    register,
)
from permute.engine import ExplorationConfig, explore
from permute.runtime import BuildContext, ObjectDecl, OpRequest, Program

from full_scan import use_full_scans
from scripted import scripted


class GateObj(VisibleObject):
    kind = "gate"
    __slots__ = ("open",)

    def __init__(self, oid, name):
        super().__init__(oid, name)
        self.open = False

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

    def apply(self, s):
        s.objects[self.oid].open = True


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


@pytest.fixture(autouse=True)
def _registered_gate():
    for cls in (GateObj, GateOpen, GatePass):
        register(cls)
    yield
    OBJECT_CLASSES.pop("gate", None)
    TRANSITION_CLASSES.pop("gate_open", None)
    TRANSITION_CLASSES.pop("gate_pass", None)


def gate_open(name):
    return OpRequest("gate_open", name, "gate")


def gate_pass(name):
    return OpRequest("gate_pass", name, "gate")


def make_program(waiters=2, compiled=False):
    """Main starts an opener t1 and `waiters` passers, then joins them; the
    threads run as host generators, or as compiled code, which the search
    keys in its successor memo."""
    workers = [f"t{i + 1}" for i in range(waiters + 1)]
    scripts = {"main": [OpRequest("create", target_name=name) for name in workers]
               + [OpRequest("join", target_name=name) for name in workers],
               "t1": [gate_open("g")]}
    scripts.update((name, [gate_pass("g")]) for name in workers[1:])
    return scripted(scripts, [ObjectDecl("g", "gate")], compiled)


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
    register(ConservativePass)
    conservative = explore(make_program(waiters=2))
    assert independent.traces <= conservative.traces
    assert independent.deadlocks == conservative.deadlocks == 0


@pytest.mark.parametrize("pass_class,compiled", [
    pytest.param(cls, compiled, id=cls.__name__ + ("-compiled" if compiled else ""))
    for compiled in (False, True) for cls in (GatePass, ConservativePass)])
def test_undeclared_footprint_explores_like_a_full_scan(monkeypatch, pass_class, compiled):
    # The gate declares no footprint, so its steps are wildcards in the
    # index; the search must match one that scans every step for everything,
    # also when it keys its states (compiled threads).
    register(pass_class)
    # Compiled, no thread is a host generator, so the search keys its states.
    assert (not BuildContext(make_program(compiled=compiled), {}, 0).host_threads) == compiled

    def explore_all():
        traces = []
        report = explore(make_program(waiters=3, compiled=compiled), observer=traces.append)
        return report, traces

    indexed = explore_all()
    use_full_scans(monkeypatch)
    assert explore_all() == indexed


def test_readme_gate_example_runs():
    # The README's "Adding a primitive" code block is executed as written,
    # so it cannot drift from the API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Adding a primitive"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert TRANSITION_CLASSES["gate_pass"] is ns["GatePass"]
    assert OBJECT_CLASSES["gate"] is ns["GateObj"]

    def program(opener):
        workers = ["t1", "t2", "t3"] if opener else ["t2", "t3"]

        def main():
            for name in workers:
                yield OpRequest("create", target_name=name)
            for name in workers:
                yield OpRequest("join", target_name=name)

        def opens():
            yield ns["gate_open"]("g")

        def passes():
            yield ns["gate_pass"]("g")

        bodies = {"t1": opens, "t2": passes, "t3": passes}
        return Program([("main", main)] + [(w, bodies[w]) for w in workers])

    report = explore(program(opener=True))
    assert report.traces >= 1 and not report.has_findings()
    blocked = explore(program(opener=False))
    assert blocked.deadlocks == blocked.traces == 1
