"""Per-layer tracing for the benchmark's traced repetitions.

The tracer wraps public functions and methods of permute's six modules from
outside the program: a wrapped name is replaced in every permute module that
bound it (so `from .core import dependent` copies are caught too), and class
attributes are replaced on the class.  The layer of a span is the module it
wraps: engine, core, runtime, primitives, scenario or cli.

Every call is aggregated online per (name, parent name) as call count, total
time, time covered by child spans and, for predicates, the number of True
results.  Hot leaf calls (millions of `dependent()` calls on deep traces)
therefore cost a dictionary update, not a stored span.  Coarse calls (one
check, one verify, one trace file) are also kept as individual spans
(name, start, end, parent span) and written out when the run ends.  A span's
self time is its duration minus the time its child spans cover, so the self
times of all spans sum to the time the outermost spans cover.
"""

from __future__ import annotations

import contextlib
import time

ROOT_NAME = "bench"
LAYERS = ("engine", "core", "runtime", "primitives", "scenario", "cli")


class Tracer:
    def __init__(self):
        # A frame is [name, child seconds, id of the nearest recorded span].
        self.root = [ROOT_NAME, 0.0, -1]
        self.stack = [self.root]
        self.agg: dict = {}      # (name, parent name) -> [calls, total, child, trues]
        self.spans: list = []    # (name, start, end, parent span id)
        self._undo: list = []

    def wrap(self, fn, name: str, record: bool = False):
        stack, agg, spans = self.stack, self.agg, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[2]
            frame = [name, 0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                entry = agg.get((name, parent[0]))
                if entry is None:
                    entry = agg[(name, parent[0])] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += frame[1]
                if record:
                    spans[sid] = (name, start, end, parent[2])
            if result is True:
                entry[3] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, modules, fn, name: str, record: bool = False,
                       impl=None) -> None:
        """Replace every module-level binding of `fn` in `modules` by a traced
        call of `impl` (default: `fn` itself)."""
        traced = self.wrap(impl or fn, name, record)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str, record: bool = False) -> None:
        self._replace(cls, attr, self.wrap(cls.__dict__[attr], name, record))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(v[0] for (n, p), v in self.agg.items()
                   if n == name and parent in (None, p))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(v[1] for (n, p), v in self.agg.items()
                   if n == name and parent in (None, p))

    def trues(self, name: str) -> int:
        return sum(v[3] for (n, _), v in self.agg.items() if n == name)

    def self_by_layer(self) -> dict:
        """Self seconds per layer, summed over every span of the layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, _), (_, total, child, _) in self.agg.items():
            layer = name.split(".", 1)[0]
            out[layer] += total - child
        return out


class _TracedBody:
    """Generator proxy: each resumption of a thread body is one span."""

    __slots__ = ("_gen", "_resume")

    def __init__(self, gen, resume):
        self._gen = gen
        self._resume = resume

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)


def _resume(send, value):
    return send(value)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Install the tracer on permute's layers for the duration of the block."""
    from permute import cli, core, engine, primitives, runtime, scenario

    modules = (cli, core, engine, primitives, runtime, scenario)
    resume = tracer.wrap(_resume, "scenario.body")
    instantiate = scenario.instantiate

    def instantiate_traced_bodies(prog):
        program = instantiate(prog)
        program.threads = [(name, lambda f=factory: _TracedBody(f(), resume))
                           for name, factory in program.threads]
        return program

    functions = [
        (cli.main, "cli.main", True),
        (cli.load_trace, "cli.load_trace", True),
        (cli.verify_trace, "cli.verify_trace", True),
        (cli.render_report, "cli.render_report", False),
        (scenario.parse_scenario, "scenario.parse_scenario", True),
        (engine.explore, "engine.explore", True),
        (engine.update_backtrack_sets, "engine.update_backtrack_sets", False),
        (engine.propagate_sleep_set, "engine.propagate_sleep_set", False),
        (engine.select_next, "engine.select_next", False),
        (engine.classify_endstate, "engine.classify_endstate", False),
        (core.dependent, "core.dependent", False),
        (core.coenabled, "core.coenabled", False),
        (core.happens_before, "core.happens_before", False),
        (core.fingerprint, "core.fingerprint", False),
        (runtime.execute_step, "runtime.execute_step", False),
        (runtime.build_transition, "runtime.build_transition", False),
        (runtime.initial_state, "runtime.initial_state", False),
    ]
    try:
        for fn, name, record in functions:
            tracer.patch_function(modules, fn, name, record)
        tracer.patch_function(modules, instantiate, "scenario.instantiate", True,
                              impl=instantiate_traced_bodies)
        tracer.patch_method(cli.TraceStore, "write", "cli.TraceStore.write", True)
        tracer.patch_method(core.ModelState, "clone", "core.ModelState.clone")
        tracer.patch_method(core.ModelState, "enabled_threads",
                            "core.ModelState.enabled_threads")
        tracer.patch_method(runtime.ReplayCursor, "__init__",
                            "runtime.ReplayCursor.__init__", True)
        tracer.patch_method(runtime.ReplayCursor, "step", "runtime.ReplayCursor.step")
        transition_classes = {core.Transition} | {
            cls for cls in vars(primitives).values()
            if isinstance(cls, type) and issubclass(cls, core.Transition)}
        for cls in transition_classes:
            if "apply_to" in cls.__dict__:
                tracer.patch_method(cls, "apply_to", "primitives.apply_to")
        yield tracer
    finally:
        tracer.uninstall()


def layer_metrics(tracer: Tracer, traces: int, blocked: int, timed_s: float) -> dict:
    """The per-layer metrics of one traced repetition, by metric name.

    `timed_s` is the harness's own timing of the region the spans should
    cover (every check and every verify); the part no span covers is
    reported as `trace.unattributed_s`.
    """
    t = tracer
    explore = "engine.explore"
    new_steps = t.calls("runtime.execute_step", explore)
    replayed = t.calls("runtime.ReplayCursor.step", explore)
    dependent_calls = t.calls("core.dependent")
    metrics = {
        "engine.backtrack_s": t.total("engine.update_backtrack_sets"),
        "engine.backtrack_calls": t.calls("engine.update_backtrack_sets"),
        "engine.clock_dependent_calls": t.calls("core.dependent", explore),
        "engine.clock_dependent_s": t.total("core.dependent", explore),
        "engine.sleep_prop_s": t.total("engine.propagate_sleep_set"),
        "engine.blocked_traces": blocked,
        "engine.useful_trace_ratio": (traces - blocked) / traces if traces else 0.0,
        "core.dependent_calls": dependent_calls,
        "core.dependent_s": t.total("core.dependent"),
        "core.dependent_hit_ratio": (t.trues("core.dependent") / dependent_calls
                                     if dependent_calls else 0.0),
        "core.clone_calls": t.calls("core.ModelState.clone"),
        "core.clone_s": t.total("core.ModelState.clone"),
        "core.enabled_threads_s": t.total("core.ModelState.enabled_threads"),
        "core.fingerprint_calls": t.calls("core.fingerprint"),
        "core.fingerprint_s": t.total("core.fingerprint"),
        "runtime.new_steps": new_steps,
        "runtime.new_step_s": t.total("runtime.execute_step", explore),
        "runtime.resyncs": t.calls("runtime.ReplayCursor.__init__", explore),
        "runtime.replayed_steps": replayed,
        "runtime.replay_s": (t.total("runtime.ReplayCursor.__init__", explore)
                             + t.total("runtime.ReplayCursor.step", explore)),
        "runtime.replay_ratio": replayed / new_steps if new_steps else 0.0,
        "runtime.build_transition_s": t.total("runtime.build_transition"),
        "primitives.apply_calls": t.calls("primitives.apply_to"),
        "primitives.apply_s": t.total("primitives.apply_to"),
        "scenario.parse_s": (t.total("scenario.parse_scenario")
                             + t.total("scenario.instantiate")),
        "scenario.body_resumes": t.calls("scenario.body"),
        "scenario.body_s": t.total("scenario.body"),
        "cli.trace_writes": t.calls("cli.TraceStore.write"),
        "cli.trace_write_s": t.total("cli.TraceStore.write"),
        "cli.trace_load_s": t.total("cli.load_trace"),
        "cli.verify_s": t.total("cli.verify_trace"),
    }
    for layer, seconds in tracer.self_by_layer().items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.unattributed_s"] = timed_s - tracer.root[1]
    return metrics
