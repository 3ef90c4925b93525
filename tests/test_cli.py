"""Command-line surface: report format, exit codes, trace files, replay REPL."""

import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permute import cli as cli_module
from permute import runtime
from permute.cli import (
    REPORT_KEYS,
    ReplayRepl,
    TraceFormatError,
    TraceStore,
    load_trace,
    main,
    verify_trace,
)
from permute.corpus import corpus_path
from permute.scenario import ThreadCode


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out):
    values = {}
    for line in out.splitlines():
        m = re.match(r"^([a-z_]+): (.+)$", line)
        if m and m.group(1) in REPORT_KEYS:
            values[m.group(1)] = m.group(2)
    return values


def test_check_clean_scenario(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", str(corpus_path("simple_barrier_10")),
                           "--trace-dir", str(tmp_path))
    assert code == 0
    values = report_dict(out)
    assert list(values) == list(REPORT_KEYS)
    assert values["traces"] == "1"
    assert values["deadlocks"] == "0"
    assert values["first_deadlock_trace"] == "none"


def test_check_deadlock_exit_code_and_trace_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", str(corpus_path("philosophers_mut_deadlock_2")),
                           "--trace-dir", str(tmp_path))
    assert code == 1
    assert report_dict(out)["deadlocks"] >= "1"
    files = sorted(tmp_path.glob("trace-*.txt"))
    assert files
    # Persisted finding traces replay to their recorded fingerprint.
    for path in files:
        verify_trace(path)


def test_cond_wait_without_its_mutex_stays_a_usage_error(tmp_path, capsys):
    # The search assumes a waiter holds its mutex (a waiter's enqueue is
    # never co-enabled with a lock or a wake on it), so it explores less of
    # a program that breaks that rule; the break itself is still reported.
    scenario = tmp_path / "misuse.scn"
    scenario.write_text("mutex m\ncond c\nthread waiter { cond_wait c m; }\n"
                        "thread other { lock m; cond_broadcast c; unlock m; }\n")
    code, out, _ = run_cli(capsys, "check", str(scenario), "--trace-dir", str(tmp_path))
    assert code == 1
    assert "usage error: cond_wait on c without holding m" in out


def test_check_missing_file_and_parse_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.scn"))
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.scn"
    bad.write_text("mutex m\nthread t { lock q; }\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2 and "undeclared" in err


def test_check_rejects_a_scenario_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfe")
    _one_error_line(*run_cli(capsys, "check", str(bad), "--trace-dir", str(tmp_path / "traces")))
    assert not (tmp_path / "traces").exists()


@pytest.mark.parametrize("nested", [False, True], ids=["a-file", "under-a-file"])
def test_check_rejects_a_trace_dir_that_cannot_be_a_directory(tmp_path, capsys, nested):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    trace_dir = str(blocker / "traces" if nested else blocker)
    _one_error_line(*run_cli(capsys, "check", str(corpus_path("race_two_writers")),
                             "--trace-dir", trace_dir))
    # A check that persists nothing never needs the directory.
    code, out, _ = run_cli(capsys, "check", str(corpus_path("simple_barrier_10")),
                           "--trace-dir", trace_dir)
    assert code == 0 and report_dict(out)["traces"] == "1"
    assert blocker.read_text() == "kept\n"


def test_check_rejects_negative_spurious_bound(tmp_path, capsys):
    _one_error_line(*run_cli(capsys, "check", str(corpus_path("simple_barrier_10")),
                             "--max-spurious-wakeups", "-1", "--trace-dir", str(tmp_path)))
    assert not list(tmp_path.iterdir())


def test_unknown_flag_exits_2(capsys):
    code = main(["check", str(corpus_path("simple_barrier_10")), "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_first_deadlock_stops_early(tmp_path, capsys):
    scn = str(corpus_path("philosophers_mut_deadlock_3"))
    _, full_out, _ = run_cli(capsys, "check", scn, "--trace-dir", str(tmp_path / "a"))
    code, out, _ = run_cli(capsys, "check", scn, "--first-deadlock",
                           "--trace-dir", str(tmp_path / "b"))
    assert code == 1
    full = report_dict(full_out)
    early = report_dict(out)
    assert early["first_deadlock_trace"] != "none"
    assert int(early["traces"]) < int(full["traces"])


def test_quiet_suppresses_findings_table(tmp_path, capsys):
    scn = str(corpus_path("race_two_writers"))
    _, out, _ = run_cli(capsys, "check", scn, "--trace-dir", str(tmp_path), "--quiet")
    assert "findings:" not in out
    _, out, _ = run_cli(capsys, "check", scn, "--trace-dir", str(tmp_path))
    assert "findings:" in out and "data race" in out


def test_trace_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERMUTE_TRACE_DIR", str(tmp_path / "envdir"))
    code, _, _ = run_cli(capsys, "check", str(corpus_path("race_two_writers")))
    assert code == 1
    assert list((tmp_path / "envdir").glob("trace-*.txt"))


def test_keep_all_traces(tmp_path, capsys):
    run_cli(capsys, "check", str(corpus_path("small_mutex_pair")),
            "--trace-dir", str(tmp_path), "--keep-all-traces")
    assert len(list(tmp_path.glob("trace-*.txt"))) == 2


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert "philosophers_mut_3" in names
    assert names == sorted(names)


def test_trace_file_round_trip(tmp_path, capsys):
    run_cli(capsys, "check", str(corpus_path("small_cond_signal")),
            "--trace-dir", str(tmp_path), "--keep-all-traces")
    path = sorted(tmp_path.glob("trace-*.txt"))[0]
    trace = load_trace(path)
    assert trace.steps
    assert trace.verdict in ("completed", "deadlock")
    assert re.fullmatch(r"[0-9a-f]{64}", trace.fingerprint)
    assert verify_trace(path) == trace.fingerprint


def _scenario_copy(tmp_path, name="small_cond_signal"):
    path = tmp_path / f"{name}.scn"
    path.write_text(corpus_path(name).read_text())
    return path


def test_verifies_of_one_scenario_parse_it_once(tmp_path, capsys, monkeypatch):
    scenario = _scenario_copy(tmp_path)
    run_cli(capsys, "check", str(scenario), "--trace-dir", str(tmp_path / "traces"),
            "--keep-all-traces")
    first, second = sorted((tmp_path / "traces").glob("trace-*.txt"))[:2]
    # The memo is keyed on the scenario text, which earlier tests verified too.
    monkeypatch.setattr(cli_module, "_last_program", {})
    parses = []
    parse = cli_module.parse_scenario
    monkeypatch.setattr(cli_module, "parse_scenario",
                        lambda text: parses.append(text) or parse(text))
    assert verify_trace(first) == load_trace(first).fingerprint
    assert verify_trace(second) == load_trace(second).fingerprint
    assert len(parses) == 1


def test_a_second_verify_of_a_trace_builds_no_transition(tmp_path, capsys, monkeypatch):
    scenario = _scenario_copy(tmp_path, "reader_two_writers_cond")
    run_cli(capsys, "check", str(scenario), "--trace-dir", str(tmp_path / "traces"),
            "--max-thread-depth", "4", "--keep-all-traces")
    path = sorted((tmp_path / "traces").glob("trace-*.txt"))[-1]
    monkeypatch.setattr(cli_module, "_last_program", {})
    builds = []
    build = runtime.build_transition
    monkeypatch.setattr(runtime, "build_transition",
                        lambda *args: builds.append(args) or build(*args))
    # Nor does it run a scenario thread's code: every step is memoized.
    for name in ("start", "resume"):
        method = getattr(ThreadCode, name)
        monkeypatch.setattr(ThreadCode, name,
                            lambda *args, method=method: builds.append(args) or method(*args))
    verify_trace(path)
    assert builds
    builds.clear()
    assert verify_trace(path) == load_trace(path).fingerprint
    assert builds == []


def test_verify_refuses_a_scenario_edited_after_a_verify(tmp_path, capsys):
    scenario = _scenario_copy(tmp_path)
    run_cli(capsys, "check", str(scenario), "--trace-dir", str(tmp_path / "traces"),
            "--keep-all-traces")
    path = sorted((tmp_path / "traces").glob("trace-*.txt"))[0]
    verify_trace(path)
    scenario.write_text(scenario.read_text() + "# edited\n")
    with pytest.raises(TraceFormatError, match="changed since the trace was recorded"):
        verify_trace(path)


def test_verify_and_replay_refuse_a_scenario_no_longer_utf8(tmp_path, capsys):
    scenario = _scenario_copy(tmp_path, "philosophers_mut_deadlock_2")
    traces = tmp_path / "traces"
    run_cli(capsys, "check", str(scenario), "--trace-dir", str(traces))
    path = sorted(traces.glob("trace-*.txt"))[0]
    scenario.write_bytes(b"\xff\xfe")
    with pytest.raises(TraceFormatError, match="not a text file"):
        verify_trace(path)
    index = path.stem.split("-")[1]
    _one_error_line(*run_cli(capsys, "replay", index, "--trace-dir", str(traces)))


def _repl_for(tmp_path, capsys, scenario="philosophers_mut_deadlock_2", index=None):
    run_cli(capsys, "check", str(corpus_path(scenario)),
            "--trace-dir", str(tmp_path), "--keep-all-traces")
    paths = sorted(tmp_path.glob("trace-*.txt"))
    path = paths[0] if index is None else tmp_path / f"trace-{index:06d}.txt"
    idx = int(path.stem.split("-")[1])
    out = io.StringIO()
    return ReplayRepl(load_trace(path), idx, out=out), out


def test_repl_positioning(tmp_path, capsys):
    repl, out = _repl_for(tmp_path, capsys)
    repl.where()
    assert f"trace: {repl.index}; transition: 0;" in out.getvalue()

    steps = len(repl.trace.steps)
    assert repl.goto(min(3, steps))
    assert repl.position == min(3, steps)
    assert repl.forward(1) or repl.position == steps
    assert repl.back(1)

    assert not repl.goto(steps + 5)
    assert "out of range" in out.getvalue()


def test_repl_forward_back_restores_fingerprint(tmp_path, capsys):
    from permute.core import fingerprint
    repl, _ = _repl_for(tmp_path, capsys)
    repl.goto(2)
    before = fingerprint(repl.cursor.state)
    k = len(repl.trace.steps) - 2
    repl.forward(k)
    repl.back(k)
    assert fingerprint(repl.cursor.state) == before


def test_repl_command_loop(tmp_path, capsys):
    repl, out = _repl_for(tmp_path, capsys)
    commands = "goto 0\nforward 2\nthreads\nobjects\nvars\nwhere\nback 1\nhelp\nbogus\nquit\n"
    assert repl.run(io.StringIO(commands)) == 0
    text = out.getvalue()
    assert "transition: 2" in text
    assert "thread 0 (main)" in text
    assert "(mutex)" in text
    assert "unknown command 'bogus'" in text


def test_repl_refuses_negative_counts(tmp_path, capsys):
    repl, out = _repl_for(tmp_path, capsys)
    assert repl.goto(2)
    assert not repl.back(-2) and repl.position == 2
    assert not repl.forward(-1) and repl.position == 2
    assert "usage: back [N]" in out.getvalue()
    assert "usage: forward [N]" in out.getvalue()


def test_repl_command_loop_refuses_negative_counts(tmp_path, capsys):
    repl, out = _repl_for(tmp_path, capsys)
    assert repl.run(io.StringIO("back -2\nforward -1\nb -1\nf -3\nwhere\n")) == 0
    text = out.getvalue()
    assert text.count("usage: back [N]") == 2 and text.count("usage: forward [N]") == 2
    assert re.findall(r"transition: (\d+);", text) == ["0", "0"]   # at start, at `where`


@pytest.mark.parametrize("flags, line", [
    ((), 'config: {"keep_all_traces": false, "max_depth_per_thread": null, '
         '"max_spurious_wakeups": 0, "policy_overrides": {}, "sleep_sets_enabled": true, '
         '"stop_at_first_deadlock": false, "stop_at_first_failure": false}'),
    (("--policy", "lifo", "--max-spurious-wakeups", "1", "--max-thread-depth", "6",
      "--keep-all-traces"),
     'config: {"keep_all_traces": true, "max_depth_per_thread": 6, '
     '"max_spurious_wakeups": 1, "policy_overrides": {"cond": "lifo", "mutex": "lifo", '
     '"sem": "lifo"}, "sleep_sets_enabled": true, "stop_at_first_deadlock": false, '
     '"stop_at_first_failure": false}'),
])
def test_trace_config_line_is_pinned(tmp_path, capsys, flags, line):
    # Trace files written by earlier versions must keep loading, so the
    # config line's keys, order and spelling are part of the format.
    run_cli(capsys, "check", str(corpus_path("philosophers_mut_deadlock_2")),
            "--trace-dir", str(tmp_path), *flags)
    paths = sorted(tmp_path.glob("trace-*.txt"))
    assert paths
    for path in paths:
        assert path.read_text(encoding="utf-8").splitlines()[4] == line
        verify_trace(path)


def test_policy_flag_defers_to_per_object_attributes(tmp_path):
    # --policy sets the default; a declared policy wins for its object.
    from permute.engine import ExplorationConfig, explore
    from permute.scenario import instantiate, parse_scenario
    text = ("sem pinned = 0 policy fifo\n"
            "sem floating = 0\n"
            "thread a { sem_wait pinned; }\n"
            "thread b { sem_wait floating; }\n"
            "thread c { sem_post pinned; sem_post floating; }\n")
    kinds = set()
    explore(instantiate(parse_scenario(text)),
            ExplorationConfig(policy_overrides={"sem": "arb_fused"}, keep_all_traces=True),
            observer=lambda tr: kinds.update((s.obj, s.label) for s in tr.schedule))
    assert ("pinned", "sem_enqueue") in kinds     # declared fifo: split wait
    assert ("floating", "sem_wait") in kinds      # flag default: fused wait
    assert ("floating", "sem_enqueue") not in kinds


def test_exit_code_contract_across_corpus(tmp_path, capsys):
    expectations = {
        "simple_barrier_10": 0,
        "philosophers_mut_3": 0,
        "small_mixed": 0,
        "simple_barrier_5_of_10": 1,       # deadlock
        "race_two_writers": 1,             # data race
        "small_assert_race": 1,            # assertion failure
    }
    for name, expected in expectations.items():
        code, _, _ = run_cli(capsys, "check", str(corpus_path(name)),
                             "--trace-dir", str(tmp_path / name))
        assert code == expected, name


def test_exit_code_matches_report_for_every_corpus_file(tmp_path, capsys):
    # Whole-corpus sweep under a small budget: the exit code must agree
    # with the findings the report itself declares.
    from permute.corpus import list_scenarios
    for name, path in list_scenarios():
        code, out, _ = run_cli(capsys, "check", str(path), "--quiet",
                               "--max-thread-depth", "6",
                               "--trace-dir", str(tmp_path / name))
        values = report_dict(out)
        findings = (int(values["deadlocks"]) + int(values["assertion_failures"])
                    + int(values["data_races"]))
        assert code == (1 if findings else 0), name


def test_replay_command_loads_trace(tmp_path, capsys, monkeypatch):
    run_cli(capsys, "check", str(corpus_path("philosophers_mut_deadlock_2")),
            "--trace-dir", str(tmp_path))
    index = int(sorted(tmp_path.glob("trace-*.txt"))[0].stem.split("-")[1])
    monkeypatch.setattr("sys.stdin", io.StringIO("forward 2\nquit\n"))
    code = main(["replay", str(index), "--trace-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "transition: 0" in captured.out
    assert "transition: 2" in captured.out

    assert main(["replay", "999", "--trace-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def _damaged_trace(tmp_path, capsys, damage):
    """Record one trace, rewrite its file with `damage`, and run replay on it."""
    run_cli(capsys, "check", str(corpus_path("philosophers_mut_deadlock_2")),
            "--trace-dir", str(tmp_path))
    path = sorted(tmp_path.glob("trace-*.txt"))[0]
    path.write_text(damage(path.read_text()))
    index = int(path.stem.split("-")[1])
    return run_cli(capsys, "replay", str(index), "--trace-dir", str(tmp_path))


def _one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_replay_rejects_file_cut_inside_config_line(tmp_path, capsys):
    def cut(text):
        return text[:text.index("config: ") + len("config: {\"keep_all")]
    _one_error_line(*_damaged_trace(tmp_path, capsys, cut))


def test_replay_rejects_file_without_footer(tmp_path, capsys):
    def drop_footer(text):
        return "\n".join(text.splitlines()[:-2]) + "\n"
    _one_error_line(*_damaged_trace(tmp_path, capsys, drop_footer))


def test_replay_rejects_unknown_config_key(tmp_path, capsys):
    def add_key(text):
        return text.replace("config: {", "config: {\"bogus\": 1, ", 1)
    _one_error_line(*_damaged_trace(tmp_path, capsys, add_key))


@pytest.mark.parametrize("field, bad", [
    ("policy_overrides", "5"),
    ("policy_overrides", '{"mutex": "sometimes"}'),
    ("policy_overrides", '{"mutx": "fifo"}'),
    ("max_spurious_wakeups", '"x"'),
    ("max_spurious_wakeups", "-1"),
    ("max_depth_per_thread", "true"),
    ("sleep_sets_enabled", "1"),
])
def test_replay_rejects_config_value_of_wrong_type(tmp_path, capsys, field, bad):
    def retype(text):
        return re.sub(rf'"{field}": ([^,{{}}]+|{{[^}}]*}})', f'"{field}": {bad}', text, count=1)
    _one_error_line(*_damaged_trace(tmp_path, capsys, retype))


@pytest.mark.parametrize("argv", [
    ("check", str(corpus_path("cond_broadcast_fan")), "--quiet"),
    ("corpus", "list"),
], ids=["check", "corpus-list"])
def test_closed_stdout_ends_with_exit_2_and_one_error_line(tmp_path, argv):
    # The reader of stdout is gone before permute writes: a clean check
    # must not report the findings code, and no traceback may follow.
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.Popen(
        [sys.executable, "-m", "permute.cli", *argv], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_perfbench_traced_mode_runs_a_check_unchanged(tmp_path, capsys):
    # perfbench's traced repetitions (`run.py --trace 1`) wrap permute's
    # functions by name; a check run inside them must report as without
    # them, and the backtrack layer must be seen.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    argv = ("check", str(corpus_path("cond_broadcast_fan")), "--quiet",
            "--trace-dir", str(tmp_path))

    def report():
        code = cli_module.main(list(argv))
        out, err = capsys.readouterr()
        return code, re.sub(r"(?m)^elapsed_ms: .*$", "", out), err

    untraced = report()
    tracer = tracer_module.Tracer()
    with tracer_module.traced_layers(tracer):
        traced = report()
    assert traced == untraced
    assert untraced[0] == 0 and int(report_dict(untraced[1])["traces"]) > 1
    assert tracer.calls("cli.main") == 1 and tracer.calls("engine.update_backtrack_sets") > 0
    assert cli_module.main is main   # the tracer was taken off again
