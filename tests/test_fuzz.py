"""Differential fuzzing: on small random scenarios, the pruned search must
find exactly the deadlock states and final states of the oracle's walk of
every reachable state (`oracle.reachable_states`, which reaches the end
states of every interleaving while expanding each state once).

Each scenario has two or three threads that run at most five operations in
all, over two mutexes, a semaphore, a condition variable and two shared
variables.  Every thread starts with an operation on one object the
scenario's threads share, so most scenarios have more than one schedule
(74 of the 100 examples explore more than one trace).  Threads keep a local
that reads and writes go through, branch on it, and loop with `repeat` and
with `while` over a local counter, each at most twice, so every scenario
terminates.  Each program is also explored with its threads run as host
generators, which are re-driven through their histories whenever the search
resumes one from an earlier point, instead of resuming from an interpreter
state: both runs must give equal reports and traces.  The examples are
derandomized, so the suite runs the same cases every time.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import reachable_states
from permute.engine import BLOCKED, DEADLOCK, explore
from permute.runtime import Program
from permute.scenario import instantiate, parse_scenario

MAX_OPS = 5

DECLARATIONS = "mutex m\nmutex n\nsem s = {sem}\ncond c\nvar x = 0\nvar y = 0\n"

OPS = (
    "lock m;", "unlock m;", "lock n;", "unlock n;",
    "sem_wait s;", "sem_post s;",
    "cond_wait c m;", "cond_signal c;", "cond_broadcast c;",
    "a = read x;", "a = read y;", "write x a + 1;", "write y 1;",
    "assert(x <= y);",
)

# The first operations of a scenario's threads come from one of these
# groups, and most pairs within a group conflict, so most scenarios have
# more than one schedule.
CONTENDED = (("lock m;",), ("sem_wait s;", "sem_post s;"), ("a = read x;", "write x a + 1;"))


@st.composite
def thread_body(draw, first: str, ops: int) -> str:
    """Statements that run the operation `first`, then at most `ops` more:
    plain, under an `if` on the local `a`, in a `repeat`, or in a `while`
    over a local counter, a loop's operations counting once per pass."""
    parts = ["a = 0;", first]
    loops = 0
    while ops:
        form = draw(st.sampled_from(("plain", "if", "repeat", "while")))
        passes = draw(st.integers(0, min(2, ops))) if form in ("repeat", "while") else 1
        inner = draw(st.integers(1, ops // max(passes, 1)))
        ops -= inner * max(passes, 1)
        block = " ".join(draw(st.sampled_from(OPS)) for _ in range(inner))
        if form == "plain":
            parts.append(block)
        elif form == "if":
            other = draw(st.sampled_from(OPS)) if ops and draw(st.booleans()) else ""
            ops -= bool(other)
            parts.append(f"if (a == 0) {{ {block} }} else {{ {other} }}")
        elif form == "repeat":
            parts.append(f"repeat {passes} {{ {block} }}")
        else:
            loops += 1
            k = f"k{loops}"
            parts.append(f"{k} = 0; while ({k} < {passes}) {{ {block} {k} = {k} + 1; }}")
    return " ".join(parts)


@st.composite
def scenarios(draw) -> str:
    # Two threads twice as often as three, which have many more
    # interleavings to search.
    threads = draw(st.sampled_from((2, 2, 3)))
    spare = MAX_OPS - threads   # operations beyond one per thread
    text = DECLARATIONS.format(sem=draw(st.integers(0, 1)))
    contended = draw(st.sampled_from(CONTENDED))
    for i in range(threads):
        extra = draw(st.integers(0, spare))
        spare -= extra
        first = draw(st.sampled_from(contended))
        text += f"thread t{i} {{ {draw(thread_body(first, extra))} }}\n"
    return text


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_search_finds_the_oracles_deadlock_and_final_states(text):
    program = instantiate(parse_scenario(text))
    deadlocks, finals, traces = set(), set(), []

    def observe(trace):
        traces.append(trace)
        if trace.verdict != BLOCKED:   # a pruned prefix, not an outcome
            finals.add(trace.fingerprint)
            if trace.verdict == DEADLOCK:
                deadlocks.add(trace.fingerprint)

    report = explore(program, observer=observe)
    hosted = []
    assert explore(Program(program.threads, program.declarations),
                   observer=hosted.append) == report
    assert hosted == traces
    oracle = reachable_states(program)
    assert deadlocks == oracle.deadlock_fps
    assert finals == oracle.final_fps
