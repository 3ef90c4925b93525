"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORK_DIR

prints one JSON object: set-up time, each check's row, every verify latency,
failures, peak memory and, when TRACE is 1, the per-layer metrics.

A repetition measures set-up first (importing permute, parsing every check's
argv and parsing + instantiating its scenario: what a user pays on each
invocation), then runs each check through `permute.cli.main` with the argv a
user would type, in an order shuffled by SEED.  Each check persists traces to
its own directory under WORK_DIR, then the persisted trace files are
replayed with `permute.cli.verify_trace` in passes shuffled by SEED, each
file once per pass, until at least MIN_VERIFIES verifies were made.

Untraced repetitions time everything on the clock of a speed probe (see
SpeedProbe) and report, beside each raw timing, the factor that rescales it
to the reference CPU.

The caller gives each repetition a WORK_DIR that does not exist yet and
deletes it when the repetition ends, so every trace file is new and every
repetition starts from the same history of creates and deletes.  On an
ext4 file system mounted with `discard`, the kernel time of creating a
file changed tenfold with that history (0.02-0.5 s for 600 files), and
rewriting existing files instead truncates them, which starts writeback as
each is closed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

# Share of the traced time that spans may leave uncovered.
MAX_UNATTRIBUTED = 0.02
# Verifies per repetition, so that a workload that persists few trace files
# still gives its latency percentiles enough samples.
MIN_VERIFIES = 600


# How often the speed probe samples; how far before and after a timed
# interval its samples still describe the CPU's speed in it; and the time of
# one reference loop on the reference CPU that untraced timings are
# rescaled to.
PROBE_PERIOD_S = 0.05
PROBE_WINDOW_S = 0.25
REFERENCE_MS = 1.5


class SpeedProbe:
    """Samples the speed of this process's CPU while the program runs.

    Armed, a SIGALRM handler times `reference_loop` every PROBE_PERIOD_S.
    The handler runs in the main thread between two bytecodes of whatever
    runs there, so every timing uses `now()`, a clock that stops while the
    handler runs: it times the program without the probe.  `scale` turns a
    timed interval into the factor that rescales it to the reference CPU.
    """

    def __init__(self):
        self.samples = []  # (time on the `now()` clock, reference loop ms)
        self.spent = 0.0
        # Read at scattered places by `reference_loop`: 2 MB, more than a
        # core's private caches hold, as the checker's heap is.
        self.table = array("q", range(1 << 18))

    def reference_loop(self) -> None:
        """A fixed piece of pure-Python work of the kinds the checker does:
        dict lookups and updates, int arithmetic, str and list operations,
        and reads scattered over more memory than a core's private caches
        hold.  It allocates nothing the garbage collector tracks, so that it
        neither triggers nor takes over the program's collections.  Of the
        loops tried, this one's time followed the checker's own best when
        the CPU's speed changed."""
        counts = {}
        text = []
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0) + i
            text.append(str(i))
        "".join(sorted(text))
        table, mask, total = self.table, len(self.table) - 1, 0
        for i in range(3000):
            total += table[(i * 40503) & mask]

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.reference_loop()
        took = time.perf_counter() - start
        self.samples.append((start - self.spent, took * 1000))
        self.spent += took

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean reference loop time of the samples
        taken in [start, end], widened by PROBE_WINDOW_S on both sides."""
        near = [ms for t, ms in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return REFERENCE_MS / statistics.fmean(near or [ms for _, ms in self.samples])

    def now(self) -> float:
        while True:
            spent = self.spent
            clock = time.perf_counter()
            if spent == self.spent:  # no sample was taken in between
                return clock - spent

    @contextlib.contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 0.001, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pin_to_fastest_cpu(probe: SpeedProbe) -> None:
    """Pin this process to the CPU that runs the probe's reference loop
    fastest right now, so that the program and the probe's samples share
    one CPU."""
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        for _ in range(3):
            start = time.perf_counter()
            probe.reference_loop()
            took = time.perf_counter() - start
            speed[cpu] = min(took, speed.get(cpu, took))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def measure_setup(checks, probe: SpeedProbe) -> tuple:
    """Import permute and parse each check's argv and scenario; returns the
    cli module and the (start, end) of that on the `probe.now()` clock."""
    start = probe.now()
    from permute import cli
    for check in checks:
        args = cli.build_parser().parse_args(check.argv("-"))
        text = Path(args.scenario).read_text(encoding="utf-8")
        cli.instantiate(cli.parse_scenario(text))
    return cli, (start, probe.now())


@contextlib.contextmanager
def captured_reports(cli, reports: list):
    """Keep each ExplorationReport that `cli.explore` returns (for blocked
    traces, which the text report does not print)."""
    explore = cli.explore

    def keeping(*args, **kwargs):
        report = explore(*args, **kwargs)
        reports.append(report)
        return report

    cli.explore = keeping
    try:
        yield
    finally:
        cli.explore = explore


def run_check(cli, check, trace_dir: Path, probe: SpeedProbe) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = check.argv(str(trace_dir))
    start = probe.now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    end = probe.now()
    lines = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                 if ": " in line and not line.startswith(" "))
    row = {"name": check.name, "exit": code, "wall_s": end - start, "span": (start, end)}
    try:
        for key in ("traces", "transitions", "deadlocks", "assertion_failures",
                    "data_races"):
            row[key] = int(lines[key])
    except (KeyError, ValueError):
        row["error"] = f"no report from `permute {' '.join(argv)}`: {err.getvalue()!r}"
        return row
    want = check.expect
    expected = (want.exit_code, want.deadlock, want.assertion, want.race)
    got = (code, row["deadlocks"] > 0, row["assertion_failures"] > 0,
           row["data_races"] > 0)
    if got != expected:
        row["error"] = (f"{check.name}: (exit, deadlock, assertion, race) = {got}, "
                        f"expected {expected} because {want.reason}")
    return row


def verify_all(cli, files: list, rng: random.Random, probe: SpeedProbe) -> tuple:
    """Replay every (key, path) file in shuffled passes until at least
    MIN_VERIFIES verifies were made; returns the (start, end) of each verify
    and the failures."""
    if not files:
        return [], ["no trace files were persisted, nothing to verify"]
    spans, errors = [], []
    order = list(files)
    for _ in range(-(-MIN_VERIFIES // len(files))):
        rng.shuffle(order)
        for key, path in order:
            start = probe.now()
            try:
                cli.verify_trace(path)
            except Exception as exc:  # any failure counts against the verify
                errors.append(f"verify {key}: {exc!r}")
            spans.append((start, probe.now()))
    return spans, errors


def run_rep(cli, workload: str, seed: int, work_dir: Path, probe: SpeedProbe) -> dict:
    """Run every check of `workload`, then verify what they persisted."""
    rng = random.Random(seed)
    checks = list(WORKLOADS[workload])
    rng.shuffle(checks)
    rows, errors, files, reports = [], [], [], []
    with captured_reports(cli, reports):
        for check in checks:
            trace_dir = work_dir / check.name.replace("/", "-")
            del reports[:]
            row = run_check(cli, check, trace_dir, probe)
            row["blocked"] = sum(r.blocked_traces for r in reports)
            rows.append(row)
            if "error" in row:
                errors.append(row["error"])
            files.extend((f"{check.name}/{path.name}", path)
                         for path in sorted(trace_dir.glob("trace-*.txt")))
    start = probe.now()
    verify_spans, verify_errors = verify_all(cli, files, rng, probe)
    verify_s = probe.now() - start
    rows.sort(key=lambda row: row["name"])
    return {
        "rows": rows,
        "wall_s": sum(row["wall_s"] for row in rows),
        "traces": sum(row.get("traces", 0) for row in rows),
        "transitions": sum(row.get("transitions", 0) for row in rows),
        "verify_files": len(files),
        "verify_ms": [(end - start) * 1000 for start, end in verify_spans],
        "verify_spans": verify_spans,
        "verify_s": verify_s,
        "attempted": len(rows) + len(verify_spans),
        "failed": len(errors) + len(verify_errors),
        "errors": errors + verify_errors,
    }


def run_traced_rep(cli, workload: str, seed: int, work_dir: Path,
                   probe: SpeedProbe) -> dict:
    from tracer import Tracer, layer_metrics, traced_layers

    tracer = Tracer()
    with traced_layers(tracer):
        rep = run_rep(cli, workload, seed, work_dir, probe)
    timed = rep["wall_s"] + rep["verify_s"]
    blocked = sum(row["blocked"] for row in rep["rows"])
    rep["layers"] = layer_metrics(tracer, rep["traces"], blocked, timed)
    unattributed = rep["layers"]["trace.unattributed_s"]
    if abs(unattributed) > MAX_UNATTRIBUTED * timed:
        rep["errors"].append(f"layer self times miss {unattributed:.3f} s of the "
                             f"{timed:.3f} s traced")
    spans_path = work_dir / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps({
        "spans": [dict(zip(("name", "start", "end", "parent"), s)) for s in tracer.spans],
        "calls": [{"name": n, "parent": p, "calls": v[0], "total_s": v[1],
                   "child_s": v[2]} for (n, p), v in sorted(tracer.agg.items())],
    }))
    rep["spans_file"] = str(spans_path)
    return rep


def main(argv: list) -> int:
    workload, seed, trace, work_dir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    work_dir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe()
    pin_to_fastest_cpu(probe)
    if trace:
        cli, setup = measure_setup(WORKLOADS[workload], probe)
        rep = run_traced_rep(cli, workload, seed, work_dir, probe)
    else:
        with probe.armed():
            cli, setup = measure_setup(WORKLOADS[workload], probe)
            rep = run_rep(cli, workload, seed, work_dir, probe)
        rep["setup_scale"] = probe.scale(*setup)
        for row in rep["rows"]:
            row["scale"] = probe.scale(*row["span"])
        rep["verify_scale"] = [probe.scale(*span) for span in rep["verify_spans"]]
        rep["probe_ms"] = [ms for _, ms in probe.samples]
    rep["setup_s"] = setup[1] - setup[0]
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
