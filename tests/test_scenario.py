"""Parsing, printing, validation, and interpretation of scenario files."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permute.corpus import list_scenarios
from permute.engine import ExplorationConfig, explore
from permute.runtime import BuildContext, ObjectDecl, execute_step, initial_state, ops
from permute.cli import main
from permute.core import TRANSITION_CLASSES
from permute.primitives import DECLARATIONS, DEFAULT_POLICY, OPERATIONS, WITH_MUTEX, WRITE
from permute.scenario import (
    INT_MAX,
    MAX_NESTING,
    Assign,
    Binary,
    IfStmt,
    Name,
    Num,
    OpStmt,
    ScenarioError,
    Unary,
    eval_expr,
    instantiate,
    parse_scenario,
    print_expr,
    print_scenario,
    tokenize,
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
    ("thread t { repeat -1 { } }", "expected 'INT'"),
    ("barrier b (3", "1:13: expected ')', found end of file"),
    ("mutex m\nthread t { x = ", "2:16: expected an expression, found end of file"),
    ("thread t { lock", "1:16: expected 'NAME', found end of file"),
    ("sem s = ", "1:9: expected 'INT', found end of file"),
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


def _sample(attr):
    """A value `attr` may take: its last choice, or one above its bound."""
    return attr.choices[-1] if attr.choices else (attr.least or 0) + 1


def _declaration(kind: str, values: dict) -> str:
    """The declaration of object o of `kind` with the attributes in `values`."""
    return " ".join([kind, "o"] + [attr.form.format(values[attr.key])
                                   for attr in DECLARATIONS[kind] if attr.key in values])


@pytest.mark.parametrize("kind", list(DECLARATIONS))
def test_every_declaration_round_trips_and_refuses_values_out_of_range(kind, tmp_path, capsys):
    # The declaration with every attribute of its row parses to the record
    # `Program` takes and prints back byte for byte.
    values = {attr.key: _sample(attr) for attr in DECLARATIONS[kind]}
    text = _declaration(kind, values) + "\n"
    prog = parse_scenario(text)
    assert prog.declarations == [ObjectDecl("o", kind, values)]
    assert print_scenario(prog) == text and parse_scenario(print_scenario(prog)) == prog
    # A value outside the choices or below the bound is an error at the
    # value's position, and `permute check` says so in one line.
    for attr in DECLARATIONS[kind]:
        if attr.choices:
            bad = "bogus"
        elif attr.least is not None:
            bad = attr.least - 1
        else:
            continue
        marked = _declaration(kind, {**values, attr.key: "@"})
        col, text = marked.index("@") + 1, marked.replace("@", str(bad)) + "\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.col) == (1, col), attr.key
        path = tmp_path / f"{attr.key}.scn"
        path.write_text(text)
        assert main(["check", str(path), "--trace-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"1:{col}: " in captured.err, captured.err


# Object o of each kind, with only the attributes its declaration needs.
_DECLARATION = {kind: _declaration(kind, {attr.key: _sample(attr) for attr in attrs
                                          if not attr.optional})
                for kind, attrs in DECLARATIONS.items()}


@pytest.mark.parametrize("word", list(OPERATIONS))
def test_every_operation_round_trips_and_compiles_to_its_host_request(word):
    # Each row's statement, on object o of each kind it takes (mutex m and
    # the value 1 where its form has them), parses, prints and parses back
    # to the same tree, and compiles to the request `ops` builds for it.
    op = OPERATIONS[word]
    fill = {"word": word, "obj": "o", "mutex": "m", "expr": "1"}
    statement = " ".join(fill.get(part, part) for part in op.form.split())
    args = {WITH_MUTEX: ("o", "m"), WRITE: ("o", 1)}.get(op.form, ("o",))
    for kind in op.object_kinds:
        tree = parse_scenario(f"{_DECLARATION[kind]}\nmutex m\nthread t {{ {statement}; }}")
        assert parse_scenario(print_scenario(tree)) == tree
        request, _ = instantiate(tree).codes[1].start()
        named = {} if kind == op.object_kinds[0] else {"object_kind": kind}
        assert request == getattr(ops, word)(*args, **named)
    # Every kind it can surface, the word itself or the halves of a wait,
    # builds through a registered transition class.
    surfaced = op.split + ((word,) if op.fused_on or not op.split else ())
    assert all(kind in TRANSITION_CLASSES for kind in surfaced)
    for policy in ("fifo", "arb_fused"):
        ctx = BuildContext(instantiate(tree), dict.fromkeys(DEFAULT_POLICY, policy))
        state = execute_step(initial_state(ctx), 0, ctx).state
        assert state.threads[1].pending.request.kind in surfaced


def test_readme_scenario_example_uses_every_operation():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario language"):]
    text = re.search(r"```\n(.*?)```", section, re.S).group(1)
    prog = parse_scenario(text)
    assert {decl.kind for decl in prog.declarations} == set(DECLARATIONS)
    words = {tok.value for tok in tokenize(text) if tok.type == "NAME"}
    assert set(OPERATIONS) <= words


def test_printer_preserves_expression_structure():
    text = "var x = 0\nthread t { a = 1; b = (a + 2) * 3 - -a; c = !(a == 3) && 1 || 0; }"
    tree = parse_scenario(text)
    assert parse_scenario(print_scenario(tree)) == tree


_EXPRESSIONS = st.recursive(
    st.one_of(st.builds(Num, st.integers(0, INT_MAX)), st.builds(Name, st.sampled_from("abc"))),
    lambda inner: st.one_of(
        st.builds(Unary, st.sampled_from("-!"), inner),
        st.builds(Binary, st.sampled_from(["||", "&&", "==", "!=", "<", "<=", ">", ">=",
                                           "+", "-", "*"]), inner, inner)),
    max_leaves=12)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_EXPRESSIONS)
def test_printed_expressions_parse_back_to_the_same_tree(expr):
    text = print_expr(expr)
    prog = parse_scenario(f"thread t {{ a = 0; b = 0; c = 0; r = {text}; }}")
    assert prog.threads[0].body[-1].expr == expr, text


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
    state = initial_state(ctx)
    while state.enabled_threads():
        state = execute_step(state, state.enabled_threads()[0], ctx).state
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


def test_spinning_thread_ends_in_one_livelock_crash(tmp_path, capsys):
    path = tmp_path / "spin.scn"
    path.write_text("thread t { n = 0; while (1) { n = n + 1; } }\n")
    assert main(["check", str(path), "--trace-dir", str(tmp_path)]) == 1
    crashes = [line for line in capsys.readouterr().out.splitlines() if "crash:" in line]
    assert len(crashes) == 1
    assert "livelock: thread t ran" in crashes[0]


@pytest.mark.parametrize("body", [
    "n = 2; repeat 14 { n = n * n; } write x n;",   # without the bound: a 16,385-bit n
    "write x 9223372036854775807 + 1;",
    "n = -9223372036854775807 - 1; n = n - 1;",
], ids=["assignment", "write", "below"])
def test_a_stored_integer_outside_64_bits_is_an_overflow_crash(tmp_path, capsys, body):
    path = tmp_path / "overflow.scn"
    path.write_text(f"var x = 0\nthread t {{ {body} }}\n"
                    "thread u { v = read x; assert(x == 0); }\n")
    assert main(["check", str(path), "--trace-dir", str(tmp_path)]) == 1
    crashes = [line for line in capsys.readouterr().out.splitlines() if "crash:" in line]
    assert len(crashes) == 1
    assert "integer overflow: thread t computed a value outside" in crashes[0]


@pytest.mark.parametrize("literal", ["9223372036854775808", "7" * 5000],
                         ids=["2**63", "5000-digits"])
def test_an_integer_literal_above_64_bits_is_a_one_line_error(tmp_path, capsys, literal):
    path = tmp_path / "literal.scn"
    path.write_text(f"thread t {{ n = {literal}; }}\n")
    assert main(["check", str(path), "--trace-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "1:16: integer literal above 9223372036854775807" in err
    prog = parse_scenario("var x = -9223372036854775807\nthread t { n = 9223372036854775807; }")
    assert prog.threads[0].body[0].expr.value == 2**63 - 1


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
