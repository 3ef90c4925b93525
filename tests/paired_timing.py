"""Time the benchmark's checks in one process, alternating two source trees,
and print the median ratio of their search times per check.

    python tests/paired_timing.py PARENT CHANGE [--rounds N] [--check NAME ...]
    python tests/paired_timing.py --miss-cost [TREE] [--rounds N] [--check NAME ...]

PARENT, CHANGE and TREE are checkouts of this repository (TREE defaults to
the one holding this script).  Each tree's `src/permute` is imported under a
name of its own, so both checkers run in one interpreter.  The checks are
the rows of `perfbench/workloads.py`, read from the first tree, with their
flags; each search runs through `explore` with a trace sink that keeps
nothing, so the traces a check persists are made but no file is written.

A round runs every check once on each side, the side that goes first
alternating from round to round, after a garbage collection.  Per check the
script prints the median search time of each side, the median over rounds
of the ratio (second side / first side) and the rounds the second side was
faster; per workload and over all the checks run, the same for the sum
of their times.

`--miss-cost` compares one tree with itself: the first side runs with the
successor memo keying no state (`SuccessorMemo.key` patched to return None,
so every step runs), the second side as it is.  A ratio above 1 is then
what the memo costs a check whose steps seldom repeat.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def load(tree: Path, name: str):
    """The `permute` package of `tree`, imported as module `name`."""
    init = tree / "src" / "permute" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "engine", "scenario"):
        importlib.import_module(f"{name}.{module}")
    return package


def load_workloads(tree: Path) -> dict:
    spec = importlib.util.spec_from_file_location(
        "_paired_workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


class Side:
    """One checker: a package and, for `--miss-cost`, whether its memo keys
    no state."""

    def __init__(self, package, unkeyed: bool = False):
        self.package = package
        self.unkeyed = unkeyed

    def search(self, tree: Path, check) -> float:
        """Seconds one search of `check` takes."""
        pkg = self.package
        path = tree / "src" / "permute" / "corpus" / f"{check.scenario}.scn"
        args = pkg.cli.build_parser().parse_args(["check", str(path), *check.flags])
        config = pkg.cli._config_from_args(args)
        program = pkg.scenario.instantiate(pkg.scenario.parse_scenario(path.read_text()))
        memo = pkg.engine.SuccessorMemo
        key = memo.key
        if self.unkeyed:
            memo.key = lambda *args: None
        gc.collect()
        try:
            started = time.perf_counter()
            pkg.engine.explore(program, config, trace_sink=lambda result: None)
            return time.perf_counter() - started
        finally:
            memo.key = key


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path)
    parser.add_argument("--miss-cost", action="store_true",
                        help="one tree, memo keying off against on")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--check", action="append", default=[],
                        help="run only the checks with this name (repeatable)")
    args = parser.parse_args(argv)
    if args.miss_cost:
        if len(args.trees) > 1:
            parser.error("--miss-cost takes at most one tree")
        tree = (args.trees[0] if args.trees else HERE).resolve()
        package = load(tree, "permute_timed")
        sides = [(tree, Side(package, unkeyed=True)), (tree, Side(package))]
        labels = ("unkeyed", "memo")
    else:
        if len(args.trees) != 2:
            parser.error("two trees are needed, or --miss-cost")
        trees = [tree.resolve() for tree in args.trees]
        sides = [(tree, Side(load(tree, f"permute_timed_{i}"))) for i, tree in enumerate(trees)]
        labels = ("first", "second")

    checks = []
    for workload, rows in load_workloads(sides[0][0]).items():
        for row in rows:
            if not args.check or row.name in args.check:
                checks.append((workload, row))
    if not checks:
        parser.error("no check has that name")

    times = {(workload, row.name): ([], []) for workload, row in checks}
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for workload, row in checks:
            for side in order:
                tree, checker = sides[side]
                times[workload, row.name][side].append(checker.search(tree, row))

    print(f"{'check':40} {labels[0] + '_ms':>11} {labels[1] + '_ms':>11} {'ratio':>7} faster")
    totals: dict = {}
    for (workload, name), (first, second) in times.items():
        _row(name, first, second)
        for total in (f"{workload} (sum)", "all checks (sum)"):
            sums = totals.setdefault(total, ([0.0] * args.rounds, [0.0] * args.rounds))
            for i in range(args.rounds):
                sums[0][i] += first[i]
                sums[1][i] += second[i]
    totals["all checks (sum)"] = totals.pop("all checks (sum)")   # printed last
    for total, (first, second) in totals.items():
        _row(total, first, second)
    return 0


def _row(name: str, first: list, second: list) -> None:
    ratio = statistics.median(b / a for a, b in zip(first, second))
    faster = sum(b < a for a, b in zip(first, second))
    print(f"{name:40} {statistics.median(first) * 1000:11.1f} "
          f"{statistics.median(second) * 1000:11.1f} {ratio:7.3f} {faster}/{len(first)}",
          flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
