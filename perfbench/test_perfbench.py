"""The benchmark's own tests; run them from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py

They check the expected verdicts against the exhaustive oracle in
`tests/oracle.py` (read, never changed), the exact search counts of the
checker as it was when the benchmark was defined, that the speed probe's
own time is left out of the timings, the traced run's layer accounting,
and the benchmark's command-line contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests")]

import worker  # noqa: E402  (puts src/ on the path)
from oracle import reachable_states  # noqa: E402
from permute import cli  # noqa: E402
from workloads import NATIVE_WIDE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work_dir(monkeypatch):
    """Run from the repository root, as the benchmark does, with a fresh
    work directory inside the checkout."""
    monkeypatch.chdir(ROOT)
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("check", NATIVE_WIDE, ids=lambda check: check.name)
def test_native_wide_deadlock_verdict_matches_oracle(check):
    # brute_force needs more than 2,000 schedules on every native-wide check,
    # so the deadlock verdict is compared with the oracle's exhaustive walk
    # over reachable states, which has no reduction either.
    args = cli.build_parser().parse_args(check.argv("-"))
    text = (ROOT / args.scenario).read_text(encoding="utf-8")
    program = cli.instantiate(cli.parse_scenario(text))
    graph = reachable_states(program, cli._config_from_args(args))
    assert bool(graph.deadlock_fps) == check.expect.deadlock, check.expect.reason


# Counts of the checker at the commit that defined the benchmark.  A change
# that reduces the search on purpose updates them here.
BASELINE = {
    "deep-lib": (1_715, 60_780, 96),
    "native-wide": (1_700, 29_534, 7),
    "trace-roundtrip": (600, 13_791, 600),
}


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_baseline_counts_and_verdicts(workload, work_dir):
    probe = worker.SpeedProbe()
    cli_module, _ = worker.measure_setup(WORKLOADS[workload], probe)
    rep = worker.run_rep(cli_module, workload, seed=0, work_dir=work_dir, probe=probe)
    assert rep["errors"] == []
    assert (rep["traces"], rep["transitions"], rep["verify_files"]) == BASELINE[workload]
    passes = -(-worker.MIN_VERIFIES // rep["verify_files"])
    assert len(rep["verify_ms"]) == passes * rep["verify_files"]


def test_speed_probe_is_left_out_of_timings():
    probe = worker.SpeedProbe()
    with probe.armed():
        spent, start, wall = probe.spent, probe.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.5:
            pass
        timed, wall = probe.now() - start, time.perf_counter() - wall
        spent = probe.spent - spent
    # A sample between two of the reads above shifts the result by one
    # sample's time, well below the time of all the samples.
    assert len(probe.samples) >= 5 and spent > 0.005
    assert timed == pytest.approx(wall - spent, abs=0.003)
    assert probe.scale(start, start + timed) > 0


def test_traced_run_reports_every_layer_metric(work_dir):
    probe = worker.SpeedProbe()
    cli_module, _ = worker.measure_setup(WORKLOADS["trace-roundtrip"], probe)
    rep = worker.run_traced_rep(cli_module, "trace-roundtrip", seed=0, work_dir=work_dir,
                                probe=probe)
    assert rep["errors"] == []
    measured_by_run_py = {"trace.wall_s", "trace.overhead_s"}
    wanted = {m["name"] for m in SPEC["per_layer"]} - measured_by_run_py
    assert wanted <= set(rep["layers"])
    layers = rep["layers"]
    assert (layers["runtime.new_steps"], layers["runtime.replayed_steps"]) == (3_289, 11_942)
    assert layers["cli.trace_writes"] == 600
    assert layers["primitives.apply_calls"] == layers["core.clone_calls"] == 30_462
    assert layers["engine.blocked_traces"] == 420
    # The tracer is removed again afterwards.
    assert not hasattr(cli.main, "__wrapped__")


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = run_benchmark(ROOT, "trace-roundtrip", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "deep-lib", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
