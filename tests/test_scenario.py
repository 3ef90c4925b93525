"""Parsing, printing, validation, and interpretation of scenario files."""

import pytest

from permute.corpus import list_scenarios
from permute.engine import ExplorationConfig, explore
from permute.runtime import BuildContext, RuntimeSession, execute_step, initial_state
from permute.cli import main
from permute.scenario import (
    MAX_NESTING,
    Assign,
    IfStmt,
    OpStmt,
    ScenarioError,
    eval_expr,
    instantiate,
    parse_scenario,
    print_scenario,
)


def test_minimal_scenario_parses():
    prog = parse_scenario("mutex m\nthread t1 { lock m; unlock m; }")
    assert len(prog.declarations) == 1
    assert len(prog.threads) == 1
    assert [type(s) for s in prog.threads[0].body] == [OpStmt, OpStmt]


def test_declaration_attributes():
    text = ("sem s = 2 policy lifo\n"
            "cond c policy fifo spurious 1\n"
            "rwlock l reader_pref\n"
            "barrier b (4)\n"
            "var x = -3\n")
    prog = parse_scenario(text)
    attrs = {d.name: d.attrs for d in prog.declarations}
    assert attrs["s"] == {"init": 2, "policy": "lifo"}
    assert attrs["c"] == {"policy": "fifo", "spurious": 1}
    assert attrs["l"] == {"preference": "reader_pref"}
    assert attrs["b"] == {"parties": 4}
    assert attrs["x"] == {"init": -3}


@pytest.mark.parametrize("text,needle", [
    ("thread t { lock q; }", "undeclared identifier 'q'"),
    ("mutex m\nmutex m\nthread t { lock m; }", "duplicate"),
    ("sem s = 1\nthread t { lock s; }", "needs a mutex"),
    ("mutex m\nthread t { lock m }", "expected ';'"),
    ("mutex m\nthread t { x = y + 1; }", "undeclared identifier 'y'"),
    ("var x = 0\nthread t { assert(x == y); }", "undeclared identifier 'y'"),
    ("thread main { }", "reserved"),
    ("option frobnicate", "unknown option"),
    ("rwlock l sideways\nthread t { rdlock l; }", "preference"),
    ("mutex if\nthread t { lock if; }", "keyword"),
    ("rwwlock l\nthread t { wrlock l; }", "needs a rwlock"),
])
def test_parse_and_validation_errors(text, needle):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert needle in str(err.value)


def test_error_carries_position():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("mutex m\nthread t {\n  lock ??; }")
    assert err.value.line == 3


def _nested_whiles(levels):
    return ("var v = 0\nthread t {\n n = 1;\n" + "while (n) {\n" * levels
            + "n = 0;\n" + "}\n" * levels + "}\n")


@pytest.mark.parametrize("expr", [
    "(" * 2000 + "1" + ")" * 2000,
    "!" * 2000 + "1",
    "- " * 2000 + "1",
    " + ".join(["1"] * 2000),
])
def test_over_deep_expression_is_a_positioned_error(expr):
    with pytest.raises(ScenarioError) as err:
        parse_scenario("var v = 0\nthread t {\n  x = " + expr + ";\n}")
    assert err.value.line == 3 and err.value.col > 0
    assert "nest" in err.value.message


def test_over_deep_while_blocks_are_a_positioned_error(tmp_path, capsys):
    parse_scenario(_nested_whiles(MAX_NESTING))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_nested_whiles(MAX_NESTING + 1))
    assert (err.value.line, err.value.col) == (MAX_NESTING + 4, 11)  # its "{"

    path = tmp_path / "deep.scn"
    path.write_text(_nested_whiles(2000))
    assert main(["check", str(path), "--trace-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "nesting deeper than" in captured.err


def test_expression_at_the_nesting_limit_parses_and_runs():
    chain = " + ".join(["1"] * (MAX_NESTING + 1))
    prog = parse_scenario("var v = 0\nthread t { x = " + chain + "; write v x; }")
    report = explore(instantiate(prog))
    assert report.traces == 1 and not report.has_findings()
    with pytest.raises(ScenarioError):
        parse_scenario("var v = 0\nthread t { x = " + chain + " + 1; }")


def test_round_trip_on_every_corpus_file():
    for name, path in list_scenarios():
        text = path.read_text()
        tree = parse_scenario(text)
        printed = print_scenario(tree)
        assert parse_scenario(printed) == tree, name


def test_printer_preserves_expression_structure():
    text = "var x = 0\nthread t { a = 1; b = (a + 2) * 3 - -a; c = !(a == 3) && 1 || 0; }"
    tree = parse_scenario(text)
    assert parse_scenario(print_scenario(tree)) == tree


def test_expression_evaluation():
    env = {"a": 3, "b": 0}
    cases = {
        "a + 2 * 3": 9,
        "(a + 2) * 3": 15,
        "a == 3": 1,
        "a != 3": 0,
        "!b": 1,
        "a && b": 0,
        "a || b": 1,
        "-a + 5": 2,
        "a <= 3": 1,
    }
    for src, expected in cases.items():
        tree = parse_scenario(f"var x = 0\nthread t {{ a = 3; b = 0; r = {src}; }}")
        expr = tree.threads[0].body[-1].expr
        assert eval_expr(expr, env) == expected, src


def test_listing_style_if_variant_shape():
    text = open("src/permute/corpus/producer_consumer_if.scn").read()
    tree = parse_scenario(text)
    consumer = next(t for t in tree.threads if t.name == "consumer")
    loop = consumer.body[0]
    guard = next(s for s in loop.body if isinstance(s, IfStmt))
    assert any(isinstance(s, OpStmt) and s.kind == "cond_wait" for s in guard.then)


def test_instantiate_main_creates_then_joins():
    prog = instantiate(parse_scenario(
        "mutex m\nthread a { lock m; unlock m; }\nthread b { lock m; unlock m; }"))
    main = prog.body_factory(0)()
    kinds = [op.kind for op in main]
    assert kinds == ["create", "create", "join", "join"]

    nojoin = instantiate(parse_scenario(
        "option nojoin\nmutex m\nthread a { lock m; unlock m; }"))
    kinds = [op.kind for op in nojoin.body_factory(0)()]
    assert kinds == ["create"]


def test_repeat_emits_n_requests():
    prog = instantiate(parse_scenario("sem s = 0\nthread t { repeat 3 { sem_post s; } }"))
    body = prog.body_factory(1)()
    assert [op.kind for op in body] == ["sem_post", "sem_post", "sem_post"]


def test_straight_line_interpreter_matches_direct_evaluation():
    text = ("var x = 1\nvar y = 10\n"
            "thread t {\n"
            "  a = 2 + 3;\n"
            "  write x a;\n"
            "  b = read x;\n"
            "  write y b * 4;\n"
            "  if (b > 4) { write x 100; } else { write x -1; }\n"
            "  n = 0;\n"
            "  while (n < 3) { n = n + 1; }\n"
            "  write y n;\n"
            "}\n")
    prog = instantiate(parse_scenario(text))
    ctx = BuildContext(prog)
    session = RuntimeSession(prog, ctx)
    state = initial_state(prog, session, ctx)
    while state.enabled_threads():
        state = execute_step(session, state, state.enabled_threads()[0], ctx).state
    # Direct evaluation: a=5; x=5; b=5; y=20; x=100; n iterates to 3; y=3.
    assert state.shared_vars == {"x": 100, "y": 3}


def test_fixed_requests_are_built_once_per_statement():
    # Every execution of a statement whose request does not depend on the
    # thread's locals yields the one request built for it, and two
    # assertions in a block keep their own predicates.
    prog = instantiate(parse_scenario(
        "var x = 0\nmutex m\n"
        'thread t { lock m; if (1) { assert(x == 0); assert(x == 1, "second"); } '
        "a = read x; write x a + 1; unlock m; }"))
    runs = [prog.body_factory(1)() for _ in range(2)]
    first, second = [[next(run) for _ in range(4)] for run in runs]
    assert [req.kind for req in first] == ["lock", "assert", "assert", "read"]
    assert all(a is b for a, b in zip(first, second))
    writes = [run.send(0) for run in runs]
    assert writes[0] == writes[1] and writes[0] is not writes[1]
    report = explore(prog)
    assert [message for _, message in report.assertion_failures] == ["second"]


CORPUS_BUDGETS = {
    "producer_consumer_if": 6,
    "producer_consumer_while": 6,
    "reader_two_writers_cond": 10,
    "cond_broadcast_fan_lib": 8,
}


def test_corpus_health_every_scenario_explores():
    for name, path in list_scenarios():
        tree = parse_scenario(path.read_text())
        prog = instantiate(tree)
        budget = CORPUS_BUDGETS.get(name)
        report = explore(prog, ExplorationConfig(max_depth_per_thread=budget))
        assert report.traces >= 1, name
