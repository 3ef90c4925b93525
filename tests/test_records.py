"""The plain record classes: fresh defaults, equality, `OpRequest`'s
immutability and hash, and an import of the CLI that generates no code."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permute
from permute.engine import ExplorationConfig, ExplorationReport
from permute.runtime import ObjectDecl, OpRequest
from permute.scenario import (
    Assign,
    AssertStmt,
    Binary,
    IfStmt,
    Name,
    Num,
    OpStmt,
    RepeatStmt,
    ScenarioProgram,
    ThreadDef,
    Unary,
    WhileStmt,
    parse_scenario,
)


@pytest.mark.parametrize("make, fields", [
    (ExplorationReport, ("assertion_failures", "data_races", "usage_errors", "crashes")),
    (ScenarioProgram, ("declarations", "threads", "options")),
    (lambda: parse_scenario("mutex x").declarations[0], ("attrs",)),
    (lambda: ObjectDecl("x", "var"), ("attrs",)),
    (ExplorationConfig, ("policy_overrides",)),
])
def test_default_containers_are_fresh_per_instance(make, fields):
    first, second = make(), make()
    for name in fields:
        value = getattr(first, name)
        assert value == type(value)() and value is not getattr(second, name), name


def test_config_refuses_unknown_keywords_and_null_overrides():
    with pytest.raises(TypeError, match="bogus"):
        ExplorationConfig(bogus=1)
    with pytest.raises(TypeError, match="policy_overrides"):
        ExplorationConfig(policy_overrides=None)


def test_config_as_dict_round_trips():
    config = ExplorationConfig(6, False, True, 1, {"sem": "lifo"}, False, True)
    fields = config.as_dict()
    assert list(fields) == ["max_depth_per_thread", "stop_at_first_deadlock",
                            "sleep_sets_enabled", "max_spurious_wakeups",
                            "policy_overrides", "stop_at_first_failure", "keep_all_traces"]
    assert ExplorationConfig(**fields) == config


def test_op_request_is_hashable_by_value_and_immutable():
    def check(shared):
        return True
    one = OpRequest("write", "x", "var", payload=(1,), predicate=check)
    two = OpRequest("write", "x", "var", (1,), None, None, check)
    assert one == two and hash(one) == hash(two) and len({one, two}) == 1
    assert one != OpRequest("write", "x", "var", payload=(2,), predicate=check)
    assert one != ("write", "x", "var", (1,), None, None, check, (), "", "")
    with pytest.raises(AttributeError):
        one.kind = "read"
    with pytest.raises(AttributeError):
        del one.payload
    assert one.kind == "write" and one.payload == (1,)


def test_op_request_replace_changes_only_the_named_fields():
    request = OpRequest("cond_wait", "c", "cond", mutex_name="m", message="m1")
    half = request.replace(kind="cond_enqueue")
    assert half == OpRequest("cond_enqueue", "c", "cond", mutex_name="m", message="m1")
    assert request.kind == "cond_wait"
    assert request.replace() == request and request.replace() is not request
    with pytest.raises(TypeError):
        request.replace(bogus=1)


def test_op_request_repr_names_every_field():
    assert repr(OpRequest("read", "x", "var")) == (
        "OpRequest(kind='read', object_name='x', object_kind='var', payload=(), "
        "mutex_name=None, target_name=None, predicate=None, var_refs=(), message='', "
        "text='')")


# Node types, grouped by the field values each is built from here.
_SAME_FIELDS = [
    ((Num, Name), ("x",)),
    ((Unary, Assign, WhileStmt, RepeatStmt, ThreadDef, AssertStmt), ("x", [])),
    ((Binary, IfStmt, ObjectDecl, ScenarioProgram), ("x", "y", None)),
    ((OpStmt,), ("x", "y", None, None, None)),
]


@pytest.mark.parametrize("types, args", _SAME_FIELDS)
def test_ast_nodes_of_different_types_never_compare_equal(types, args):
    nodes = [node_type(*args) for node_type in types]
    for a, b in itertools.permutations(nodes, 2):
        assert a != b and not a == b, (a, b)
    for node, node_type in zip(nodes, types):
        assert node == node_type(*args) and not node != node_type(*args)


def test_ast_nodes_compare_by_fields():
    tree = Binary("+", Num(1), Unary("-", Name("a")))
    assert tree == Binary("+", Num(1), Unary("-", Name("a")))
    assert tree != Binary("+", Num(1), Unary("-", Name("b")))
    assert tree != Binary("-", Num(1), Unary("-", Name("a")))


def test_cli_import_generates_no_classes():
    # Importing the CLI is paid on every `permute` invocation: it must not
    # pull in `dataclasses` (nor `inspect`, which it imports) to build its
    # record classes.
    probe = (
        "import sys, permute.cli\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"
        "assert 'inspect' not in sys.modules, 'inspect imported'\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name == 'permute' or name.startswith('permute.'):\n"
        "        for value in vars(module).values():\n"
        "            if isinstance(value, type):\n"
        "                assert '__dataclass_fields__' not in vars(value), value\n"
    )
    src = Path(permute.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert result.returncode == 0, result.stderr
