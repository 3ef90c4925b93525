"""permute's benchmark: time to a full verdict, search work, memory and
trace-verify latency on three workloads, plus per-layer costs from a traced
run.

    python3 perfbench/run.py --workload deep-lib --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports permute from `src/`
and refuses to run without it.  A run repeats its workload, one fresh worker
process per repetition (see worker.py), for about `--seconds` seconds and at
least once.  The seed shuffles the order of the checks and of the verifies;
the work itself is the same for every seed.  Verdicts are checked on every
repetition against workloads.py.

Workloads (one process, one thread):
  deep-lib         reader_two_writers_cond at depth 16: long traces from
                   library-style sync; backward dependence scans dominate.
  native-wide      ten short checks on dedicated primitives with wide
                   branching; many sleep-blocked traces, replay dominates.
  trace-roundtrip  cond_broadcast_fan persisting all 600 traces; trace
                   writing beside reading and standalone replay.
Every workload then verifies each trace file its checks persisted.

Each repetition writes its traces into a directory that did not exist
before and that is deleted as soon as the repetition ends (see worker.py).
Repetitions that start in the first WARMUP_SHARE of the run are warm-up:
their verdicts are checked, but their timings are not used.

On a shared machine the speed of a CPU can change by half or more within
seconds, as other work on the host starts and stops.  Untraced repetitions
therefore run a speed probe (`worker.SpeedProbe`): every 50 ms a signal
handler times a fixed pure-Python reference loop, and the handler's own
time is left out of every timing.  Each timed interval is rescaled by
`worker.REFERENCE_MS` over the mean loop time sampled in and around it, so
timings read as seconds on a reference CPU that runs the loop in
`REFERENCE_MS` (1.5 ms).  The loop is benchmark code and does not change
with permute, so a change that makes permute faster moves the rescaled
timings by the same share as the unscaled ones; the unscaled medians are
printed too.

End-to-end metrics (--trace 0), from the measured untraced repetitions:
  wall_s         time to verdict: each check's `permute.cli.main` call,
                 rescaled, median over the repetitions, summed over the checks
  setup_s        importing permute, parsing every check's argv and parsing +
                 instantiating its scenario in a fresh process, rescaled,
                 median over the repetitions
  peak_rss_mb    peak resident memory of a repetition's process (with the
                 probe's 2 MB table), median
  traces, transitions
                 summed from the checks' own report lines; these must repeat
                 exactly between repetitions
  verify_p50_ms  `permute.cli.verify_trace` latency, rescaled: the median of
                 every verify in the measured repetitions.  Each repetition
                 verifies its persisted trace files in passes until it has
                 made at least 600 verifies.
  verify_p98_ms  the same latencies' 98th percentile, the highest with at
                 least ten samples beyond it in one repetition
The share of failed operations (a check with a wrong verdict, a verify that
diverged) is printed too, as `failed_share`, but carries no bound: it is 0
when the benchmark is correct, and the JSON carries it as `failed` of
`attempted`.

Per-layer metrics (--trace 1): repetitions alternate between untraced and
traced, starting untraced; see tracer.py.  They come from the traced
repetition of median wall time (traced repetitions run no probe), and
`trace.overhead_s` is the median traced minus the median untraced wall
time, both unscaled.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
# Every run must end within 180 s; leave room for reporting.
TIME_LIMIT_S = 170.0
# Share of a run's seconds whose repetitions are warm-up, not measured.
WARMUP_SHARE = 0.1

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def spawn_rep(workload: str, seed: int, traced: bool, run_dir: Path,
              timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PERMUTE_TRACE_DIR", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(run_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a repetition of {workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["traced"] = traced
    return rep


def run_reps(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> list:
    """Repeat the workload for about `seconds`; with `trace`, repetitions
    alternate between untraced and traced, starting untraced.  Each
    repetition writes its traces into a directory of its own under
    `run_dir`, deleted as soon as it ends, and is marked `warm-up` if it
    starts in the first WARMUP_SHARE of the run."""
    rng = random.Random(seed)
    start = time.perf_counter()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.perf_counter()
        timeout = TIME_LIMIT_S - (began - start)
        rep_dir = run_dir / f"rep-{len(reps):03d}"
        rep = spawn_rep(workload, rng.randrange(2**31), traced, rep_dir, timeout)
        if traced:
            spans = Path(rep["spans_file"]).replace(run_dir / f"{rep_dir.name}-spans.json")
            rep["spans_file"] = str(spans)
        shutil.rmtree(rep_dir)
        rep["warm_up"] = began - start < WARMUP_SHARE * seconds
        reps.append(rep)
        now = time.perf_counter()
        if now - start + (now - began) > seconds and (reps[-1]["traced"] or not trace):
            return reps


def measured(reps: list, traced: bool = False) -> list:
    """The repetitions after the warm-up, or the last one if all are in it."""
    same = [rep for rep in reps if rep["traced"] == traced]
    return [rep for rep in same if not rep["warm_up"]] or same[-1:]


def percentile(values: list, p: int) -> float:
    if not values:  # no files persisted, already reported as an error
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median_checks(reps: list, scaled: bool = True) -> list:
    """Each check's median wall time over the measured untraced repetitions,
    rescaled to the reference CPU unless `scaled` is false, in the order of
    the rows (sorted by check name)."""
    timed = measured(reps)
    return [statistics.median(row["wall_s"] * (row["scale"] if scaled else 1)
                              for row in (rep["rows"][k] for rep in timed))
            for k in range(len(timed[0]["rows"]))]


def end_to_end(reps: list, scaled: bool = True) -> dict:
    """The end-to-end metrics, from untraced repetitions only."""
    timed = measured(reps)
    plain = [rep for rep in reps if not rep["traced"]]
    verify = [ms * (scale if scaled else 1) for rep in timed
              for ms, scale in zip(rep["verify_ms"], rep["verify_scale"])]
    return {
        "wall_s": sum(median_checks(reps, scaled)),
        "setup_s": statistics.median(rep["setup_s"] * (rep["setup_scale"] if scaled else 1)
                                     for rep in plain),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        "traces": reps[0]["traces"],
        "transitions": reps[0]["transitions"],
        "verify_p50_ms": percentile(verify, 50),
        "verify_p98_ms": percentile(verify, 98),
    }


def median_traced(reps: list, workload: str) -> dict:
    """The measured traced repetition of median wall time, its span file
    kept in WORK_DIR."""
    traced = sorted(measured(reps, traced=True), key=lambda rep: rep["wall_s"])
    middle = traced[(len(traced) - 1) // 2]
    spans = WORK_DIR / f"spans-{workload}.json"
    Path(middle["spans_file"]).replace(spans)
    middle["spans_file"] = str(spans.relative_to(ROOT))
    return middle


def per_layer(middle: dict, reps: list) -> dict:
    """One traced repetition's layers, so that its self times still add up,
    and the overhead of tracing: median traced minus median untraced
    wall time over the measured repetitions."""
    metrics = dict(middle["layers"])
    metrics["trace.wall_s"] = middle["wall_s"]
    metrics["trace.overhead_s"] = (
        statistics.median(rep["wall_s"] for rep in measured(reps, traced=True))
        - statistics.median(rep["wall_s"] for rep in measured(reps)))
    return metrics


def consistency_errors(reps: list) -> list:
    """Search work must repeat exactly between repetitions."""
    errors = []
    first = {row["name"]: row for row in reps[0]["rows"]}
    for rep in reps[1:]:
        for row in rep["rows"]:
            for key in ("traces", "transitions", "blocked", "deadlocks"):
                if row.get(key) != first[row["name"]].get(key):
                    errors.append(f"{row['name']}: {key} {row.get(key)} differs from "
                                  f"{first[row['name']].get(key)} in an earlier repetition")
    return errors


def describe(workload: str, seed: int, reps: list, elapsed: float) -> list:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "permute").glob("*.py")))
    lines = [
        f"perfbench: workload {workload}, seed {seed}, {len(reps)} repetitions "
        f"({sum(r['traced'] for r in reps)} traced, "
        f"{sum(r['warm_up'] for r in reps)} warm-up) in {elapsed:.1f} s",
        f"env: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"src/permute/*.py lines {src_lines}",
    ]
    for row, wall in zip(reps[0]["rows"], median_checks(reps)):
        lines.append(
            f"check {row['name']}: exit {row['exit']}, traces {row.get('traces')}, "
            f"transitions {row.get('transitions')}, blocked {row['blocked']}, "
            f"deadlocks {row.get('deadlocks')}, wall {wall:.4f} s")
    lines.append(f"verify: {reps[0]['verify_files']} files, "
                 f"{len(reps[0]['verify_ms'])} verifies per repetition")
    samples = [ms for rep in measured(reps) for ms in rep["probe_ms"]]
    lines.append(f"probe: {len(samples)} samples of the reference loop, median "
                 f"{statistics.median(samples):.4f} ms, quartiles "
                 + " ".join(f"{q:.4f}" for q in statistics.quantiles(samples, n=4)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside, still stop the worker and delete the run's files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "permute" / "cli.py").is_file():
        print(f"perfbench: no permute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    compileall.compile_dir(ROOT / "src", quiet=1)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    started = time.perf_counter()
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        elapsed = time.perf_counter() - started
        if args.trace:
            middle = median_traced(reps, args.workload)
            values = per_layer(middle, reps)
        else:
            values = end_to_end(reps)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = [e for rep in reps for e in rep["errors"]] + consistency_errors(reps)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)

    for line in describe(args.workload, args.seed, reps, elapsed):
        print(line)
    if args.trace:
        print(f"spans of the median traced repetition: {middle['spans_file']}")
    for error in errors:
        print(f"error: {error}")
    for m in wanted:
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        unscaled = end_to_end(reps, scaled=False)
        for m in wanted:
            if m["unit"] in ("s", "ms"):
                print(f"unscaled {m['name']} = {unscaled[m['name']]:.6g} {m['unit']} (no bound)")
    print(f"metric failed_share = {failed / attempted:.6g} share "
          f"(no bound; {failed} of {attempted} operations)")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
