"""Command-line front end: `check` explores a scenario and emits a report,
`replay` steps through a persisted trace interactively, `corpus list` shows
the bundled benchmarks.

Report output is stable `key: value` text; the only line that varies between
identical runs is `elapsed_ms`.  Trace files are line-oriented text carrying
enough context (scenario path + digest, full configuration) to re-execute
the schedule deterministically and check the final-state fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .core import fingerprint
from .corpus import list_scenarios
from .engine import ExplorationConfig, ExplorationReport, TraceResult, explore
from .primitives import DEFAULT_POLICY, POLICIES
from .runtime import BuildContext, NondeterminismDetected, ReplayCursor, ScheduleStep
from .scenario import ScenarioError, instantiate, parse_scenario

REPORT_KEYS = ("transitions", "traces", "deadlocks", "first_deadlock_trace",
               "assertion_failures", "data_races", "budget_exhausted_traces",
               "elapsed_ms")

TRACE_MAGIC = "permute-trace 1"


def render_report(report: ExplorationReport, elapsed_ms: int) -> str:
    first = report.first_deadlock_trace
    values = {
        "transitions": report.total_transitions,
        "traces": report.traces,
        "deadlocks": report.deadlocks,
        "first_deadlock_trace": "none" if first is None else first,
        "assertion_failures": len(report.assertion_failures),
        "data_races": len(report.data_races),
        "budget_exhausted_traces": report.budget_exhausted_traces,
        "elapsed_ms": elapsed_ms,
    }
    return "\n".join(f"{key}: {values[key]}" for key in REPORT_KEYS)


def _findings_table(report: ExplorationReport, written: dict) -> str:
    lines = ["findings:"]
    for idx, message in report.assertion_failures:
        lines.append(f"  trace {idx}: assertion failed: {message}")
    for var, (t1, t2), idx in report.data_races:
        lines.append(f"  trace {idx}: data race on {var} between threads {t1} and {t2}")
    for idx, message in report.usage_errors:
        lines.append(f"  trace {idx}: usage error: {message}")
    for idx, message in report.crashes:
        lines.append(f"  trace {idx}: crash: {message}")
    if report.deadlocks:
        lines.append(f"  deadlock traces: {report.deadlocks}"
                     + (f" (first at trace {report.first_deadlock_trace})"
                        if report.first_deadlock_trace is not None else ""))
    for idx in sorted(written):
        lines.append(f"  trace {idx} saved: {written[idx]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


class TraceStore:
    """Writes one text file per persisted trace under the trace directory."""

    def __init__(self, directory: Path, scenario_path: Path, scenario_text: str,
                 config: ExplorationConfig):
        self.directory = Path(directory)
        self.scenario_path = Path(scenario_path).resolve()
        self.digest = hashlib.sha256(scenario_text.encode("utf-8")).hexdigest()
        self.written: dict = {}
        # The lines every trace file of this store starts with.
        self.header = [
            TRACE_MAGIC,
            f"version: {__version__}",
            f"scenario: {self.scenario_path}",
            f"scenario_sha256: {self.digest}",
            f"config: {json.dumps(config.as_dict(), sort_keys=True)}",
        ]

    def path_for(self, index: int) -> Path:
        return self.directory / f"trace-{index:06d}.txt"

    def write(self, result: TraceResult) -> Path:
        if not self.written:   # a check that persists nothing makes no directory
            self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.index)
        lines = self.header + [f"steps: {len(result.schedule)}"]
        for k, step in enumerate(result.schedule):
            lines.append(f"step {k} thread {step.tid} {step.label} {step.obj} {step.payload}")
        lines.append(f"verdict: {result.verdict}")
        lines.append(f"fingerprint: {result.fingerprint}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.written[result.index] = path
        return path


class TraceData:
    __slots__ = ("scenario_path", "scenario_sha256", "config", "steps", "verdict",
                 "fingerprint")

    def __init__(self, scenario_path: Path, scenario_sha256: str,
                 config: ExplorationConfig, steps: list, verdict: str, fingerprint: str):
        self.scenario_path = scenario_path
        self.scenario_sha256 = scenario_sha256
        self.config = config
        self.steps = steps
        self.verdict = verdict
        self.fingerprint = fingerprint


class TraceFormatError(Exception):
    pass


def _header_value(line: str, key: str) -> str:
    prefix = f"{key}: "
    if not line.startswith(prefix):
        raise TraceFormatError(f"expected {key!r} header, found {line!r}")
    return line[len(prefix):]


def load_trace(path: Path) -> TraceData:
    """Parse a trace file; a truncated or malformed one raises
    TraceFormatError."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not a text file: {exc}") from None
    if not lines or lines[0] != TRACE_MAGIC:
        raise TraceFormatError(f"{path}: not a permute trace file")
    if len(lines) < 6:
        raise TraceFormatError(f"{path}: truncated header")
    _header_value(lines[1], "version")
    scenario = Path(_header_value(lines[2], "scenario"))
    digest = _header_value(lines[3], "scenario_sha256")
    try:
        config = ExplorationConfig(**json.loads(_header_value(lines[4], "config")))
    except (ValueError, TypeError) as exc:   # bad JSON, unknown key, bad value
        raise TraceFormatError(f"{path}: bad config line: {exc}") from None
    count_text = _header_value(lines[5], "steps")
    try:
        count = int(count_text)
    except ValueError:
        raise TraceFormatError(f"{path}: bad step count {count_text!r}") from None
    if len(lines) < 8 + count:
        raise TraceFormatError(f"{path}: truncated: {count} steps and a footer "
                               f"need {8 + count} lines, found {len(lines)}")
    steps = []
    for k in range(count):
        parts = lines[6 + k].split(" ", 6)
        if len(parts) < 6 or parts[0] != "step" or parts[2] != "thread":
            raise TraceFormatError(f"{path}: malformed step line {lines[6 + k]!r}")
        try:
            tid = int(parts[3])
        except ValueError:
            raise TraceFormatError(f"{path}: malformed step line {lines[6 + k]!r}") from None
        payload = parts[6] if len(parts) > 6 else "-"
        steps.append(ScheduleStep(tid, parts[4], parts[5], payload))
    verdict = _header_value(lines[6 + count], "verdict")
    fp = _header_value(lines[7 + count], "fingerprint")
    return TraceData(scenario, digest, config, steps, verdict, fp)


# The program of the scenario last replayed, by sha256, with one build
# context per configuration its traces were replayed under, so that
# verifying many traces of one scenario parses it once and builds each
# transition once per configuration.  Scenario objects are all declared, so
# their ids do not depend on which replay meets them first.
_last_program: dict = {}   # sha256 -> (program, {config key: BuildContext})


def _program_for(trace: TraceData) -> tuple:
    """The program of the trace's scenario and its build contexts.  The file
    is read and hashed on every call, so a scenario edited since the
    recording is refused; equal text gives an equal program."""
    try:
        text = trace.scenario_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{trace.scenario_path}: not a text file: {exc}") from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != trace.scenario_sha256:
        raise TraceFormatError(
            f"{trace.scenario_path} changed since the trace was recorded")
    cached = _last_program.get(digest)
    if cached is None:
        cached = (instantiate(parse_scenario(text)), {})
        _last_program.clear()
        _last_program[digest] = cached
    return cached


def _cursor_for(trace: TraceData, cached=None) -> ReplayCursor:
    program, contexts = cached if cached is not None else _program_for(trace)
    config = trace.config
    key = (tuple(sorted(config.policy_overrides.items())), config.max_spurious_wakeups)
    ctx = contexts.get(key)
    if ctx is None:
        ctx = contexts[key] = BuildContext(program, config.policy_overrides,
                                           config.max_spurious_wakeups)
    return ReplayCursor(program, budget=config.max_depth_per_thread, ctx=ctx)


def verify_trace(path: Path) -> str:
    """Replay a persisted trace to its end; returns the final fingerprint.

    Raises NondeterminismDetected or TraceFormatError on any divergence,
    including a footer fingerprint mismatch.
    """
    trace = load_trace(path)
    cursor = _cursor_for(trace)
    for step in trace.steps:
        cursor.step(step)
    actual = fingerprint(cursor.state)
    if actual != trace.fingerprint:
        raise TraceFormatError(
            f"{path}: replay fingerprint {actual} != recorded {trace.fingerprint}")
    return actual


# ---------------------------------------------------------------------------
# Replay REPL
# ---------------------------------------------------------------------------


class ReplayRepl:
    def __init__(self, trace: TraceData, trace_index: int, out=None):
        self.trace = trace
        self.index = trace_index
        self.out = out if out is not None else sys.stdout
        self.cached = _program_for(trace)
        self.program = self.cached[0]
        self.cursor = _cursor_for(trace, self.cached)

    # -- positioning -------------------------------------------------------

    @property
    def position(self) -> int:
        return self.cursor.position

    def _rebuild(self) -> None:
        self.cursor = _cursor_for(self.trace, self.cached)

    def goto(self, k: int) -> bool:
        if not 0 <= k <= len(self.trace.steps):
            self._say(f"step {k} out of range (0..{len(self.trace.steps)})")
            return False
        if k < self.position:
            self._rebuild()
        while self.position < k:
            self.cursor.step(self.trace.steps[self.position])
        return True

    def forward(self, n: int = 1) -> bool:
        if n < 0:
            self._say(f"usage: forward [N], with a count N >= 0, not {n}")
            return False
        if self.position + n > len(self.trace.steps):
            self._say(f"cannot move forward {n}: trace ends at step {len(self.trace.steps)}")
            return False
        return self.goto(self.position + n)

    def back(self, n: int = 1) -> bool:
        if n < 0:
            self._say(f"usage: back [N], with a count N >= 0, not {n}")
            return False
        if n > self.position:
            self._say(f"cannot move back {n}: currently at step {self.position}")
            return False
        return self.goto(self.position - n)

    # -- rendering ----------------------------------------------------------

    def _say(self, text: str) -> None:
        print(text, file=self.out)

    def where(self) -> None:
        if self.position < len(self.trace.steps):
            tid = self.trace.steps[self.position].tid
            thread = str(tid)
        else:
            thread = "-"
        self._say(f"trace: {self.index}; transition: {self.position}; thread: {thread}")

    def threads(self) -> None:
        state = self.cursor.state
        for tid in sorted(state.threads):
            info = state.threads[tid]
            name = self.program.thread_name(tid)
            pending = "-"
            if info.pending is not None:
                step = info.pending
                pending = f"{step.kind} {step.object_name or ''}".strip()
            self._say(f"thread {tid} ({name}): {info.status} executed={info.executed} "
                      f"pending={pending}")

    def objects(self) -> None:
        state = self.cursor.state
        for oid in sorted(state.objects):
            obj = state.objects[oid]
            self._say(f"{obj.name} ({obj.kind}): {obj.snapshot()}")

    def vars(self) -> None:
        state = self.cursor.state
        for name in sorted(state.shared_vars):
            self._say(f"{name} = {state.shared_vars[name]}")

    # -- command loop --------------------------------------------------------

    def run(self, stdin=None) -> int:
        stdin = stdin if stdin is not None else sys.stdin
        self.where()
        while True:
            print("(permute) ", end="", file=self.out, flush=True)
            line = stdin.readline()
            if not line:
                return 0
            words = line.split()
            if not words:
                continue
            cmd, args = words[0], words[1:]
            try:
                if cmd == "quit" or cmd == "q":
                    return 0
                elif cmd == "goto":
                    if self.goto(int(args[0])):
                        self.where()
                elif cmd == "forward" or cmd == "f":
                    if self.forward(int(args[0]) if args else 1):
                        self.where()
                elif cmd == "back" or cmd == "b":
                    if self.back(int(args[0]) if args else 1):
                        self.where()
                elif cmd == "threads":
                    self.threads()
                elif cmd == "objects":
                    self.objects()
                elif cmd == "vars":
                    self.vars()
                elif cmd == "where":
                    self.where()
                elif cmd == "help":
                    self._say("commands: goto K, forward [N], back [N], threads, "
                              "objects, vars, where, quit")
                else:
                    self._say(f"unknown command {cmd!r} (try: help)")
            except (ValueError, IndexError):
                self._say(f"usage: {cmd} <integer>")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _default_trace_dir(flag: Optional[str]) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("PERMUTE_TRACE_DIR")
    if env:
        return Path(env)
    return Path("permute-traces")


def _config_from_args(args) -> ExplorationConfig:
    overrides = dict.fromkeys(DEFAULT_POLICY, args.policy) if args.policy else {}
    return ExplorationConfig(
        max_depth_per_thread=args.max_thread_depth,
        stop_at_first_deadlock=args.first_deadlock,
        sleep_sets_enabled=not args.no_sleep_sets,
        max_spurious_wakeups=args.max_spurious_wakeups,
        policy_overrides=overrides,
        stop_at_first_failure=args.stop_at_first_failure,
        keep_all_traces=args.keep_all_traces,
    )


def cmd_check(args) -> int:
    path = Path(args.scenario)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        program = instantiate(parse_scenario(text))
        config = _config_from_args(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2

    store = TraceStore(_default_trace_dir(args.trace_dir), path, text, config)
    started = time.perf_counter()
    try:
        report = explore(program, config, trace_sink=store.write)
    except OSError as exc:   # the trace directory cannot be made or written
        print(f"error: cannot write traces under {store.directory}: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    print(render_report(report, elapsed_ms))
    if not args.quiet and report.has_findings():
        print(_findings_table(report, store.written))
    return 1 if report.has_findings() else 0


def cmd_replay(args) -> int:
    directory = _default_trace_dir(args.trace_dir)
    path = directory / f"trace-{args.index:06d}.txt"
    if not path.exists():
        print(f"error: no trace {args.index} under {directory}", file=sys.stderr)
        return 2
    try:
        trace = load_trace(path)
        repl = ReplayRepl(trace, args.index)
    except (TraceFormatError, ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return repl.run()
    except NondeterminismDetected as exc:
        print(f"error: replay diverged: {exc}", file=sys.stderr)
        return 2


def cmd_corpus(args) -> int:
    if args.action == "list":
        for name, path in list_scenarios():
            print(f"{name}\t{path}")
        return 0
    print(f"error: unknown corpus action {args.action!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permute",
        description="Systematic interleaving checker for scenario programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="explore a scenario and report findings")
    check.add_argument("scenario", help="path to a .scn scenario file")
    check.add_argument("--max-thread-depth", type=int, default=None, metavar="N",
                       help="per-thread transition budget")
    check.add_argument("--first-deadlock", action="store_true",
                       help="stop at the first deadlock trace")
    check.add_argument("--max-spurious-wakeups", type=int, default=0, metavar="K",
                       help="spurious wakeups allowed per condition variable")
    check.add_argument("--policy", choices=POLICIES, default=None,
                       help="default wakeup policy (per-object attributes override)")
    check.add_argument("--no-sleep-sets", action="store_true",
                       help="disable sleep sets (comparison mode)")
    check.add_argument("--keep-all-traces", action="store_true",
                       help="persist every trace, not only findings")
    check.add_argument("--trace-dir", default=None, metavar="PATH",
                       help="trace directory (default: $PERMUTE_TRACE_DIR or ./permute-traces)")
    check.add_argument("--stop-at-first-failure", action="store_true",
                       help="stop at the first assertion failure")
    check.add_argument("--quiet", action="store_true",
                       help="report lines only, no findings table")
    check.set_defaults(func=cmd_check)

    replay = sub.add_parser("replay", help="step through a persisted trace")
    replay.add_argument("index", type=int, help="trace index to load")
    replay.add_argument("--trace-dir", default=None, metavar="PATH")
    replay.set_defaults(func=cmd_replay)

    corpus = sub.add_parser("corpus", help="bundled benchmark scenarios")
    corpus.add_argument("action", choices=["list"])
    corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # argparse: a usage error, or --help
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        # The reader of stdout went away.  Point stdout at the null device,
        # so that the flush at exit cannot fail again (Python's "Note on
        # SIGPIPE"), and end as a failed run, not with the findings code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        try:
            print("error: stdout was closed before the output was written", file=sys.stderr)
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
