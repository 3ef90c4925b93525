"""Command-line surface: report format, exit codes, trace files, replay REPL."""

import io
import re

import pytest

from permute.cli import (
    REPORT_KEYS,
    ReplayRepl,
    TraceStore,
    load_trace,
    main,
    verify_trace,
)
from permute.corpus import corpus_path


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


def test_check_missing_file_and_parse_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.scn"))
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.scn"
    bad.write_text("mutex m\nthread t { lock q; }\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2 and "undeclared" in err


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
    ("max_spurious_wakeups", '"x"'),
    ("max_depth_per_thread", "true"),
    ("sleep_sets_enabled", "1"),
])
def test_replay_rejects_config_value_of_wrong_type(tmp_path, capsys, field, bad):
    def retype(text):
        return re.sub(rf'"{field}": ([^,{{}}]+|{{[^}}]*}})', f'"{field}": {bad}', text, count=1)
    _one_error_line(*_damaged_trace(tmp_path, capsys, retype))
