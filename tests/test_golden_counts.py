"""Search counts and verdicts of every corpus file, pinned.

`golden_counts.json` holds, per corpus file at depth 6, under the default
flags and under `--policy lifo --max-spurious-wakeups 1`, the counts named in
its `fields` entry.  A change to the engine's work per step must leave every
one of them as it is; a change that alters what the search explores must
update the file on purpose and say why.
"""

import json
from pathlib import Path

import pytest

from permute.corpus import list_scenarios
from permute.engine import ExplorationConfig, explore
from permute.scenario import instantiate, parse_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden_counts.json").read_text())

CONFIGS = {
    "default": {},
    "lifo_spurious1": {"policy_overrides": {"mutex": "lifo", "sem": "lifo", "cond": "lifo"},
                       "max_spurious_wakeups": 1},
}


def counts(report) -> list:
    return [report.traces, report.total_transitions, report.completed_traces,
            report.budget_exhausted_traces, report.blocked_traces, report.deadlocks,
            len(report.assertion_failures), len(report.data_races)]


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_corpus_counts_match_the_pinned_ones(label):
    assert GOLDEN["fields"] == ["traces", "transitions", "completed", "budget_exhausted",
                                "blocked", "deadlocks", "assertion_failures", "races"]
    pinned = GOLDEN[label]
    scenarios = list_scenarios()
    assert sorted(pinned) == [name for name, _ in scenarios]
    config = ExplorationConfig(max_depth_per_thread=6, **CONFIGS[label])
    for name, path in scenarios:
        report = explore(instantiate(parse_scenario(path.read_text())), config)
        assert counts(report) == pinned[name], name
