"""Print a digest of what `permute check` outputs, per corpus file and flag
set, for one source tree.

    python tests/output_digests.py [TREE] > digests.txt

TREE is a checkout of this repository (default: the one holding this
script); its `src` is imported, so its own checker runs.  Each line reads
`<corpus file> <flags> files=<n> <sha256>`, the digest covering the exit
code, the report without its `elapsed_ms` line, and every trace file
`--keep-all-traces` writes, by name, with the tree's path and the trace
directory masked.  After the corpus lines come the benchmark's own checks,
the rows of the tree's `perfbench/workloads.py` (read as
`tests/paired_timing.py` reads them), one line each reading
`<workload>/<row name> <flags> files=<n> <sha256>`, checked with the row's
flags and `--keep-all-traces`.  Two trees give byte-identical
outputs when the `diff` of their digest files is empty.  pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from paired_timing import load_workloads

FLAG_SETS = [
    ["--max-thread-depth", "12"],
    ["--max-thread-depth", "6", "--policy", "fifo"],
    ["--max-thread-depth", "6", "--no-sleep-sets"],
    ["--max-thread-depth", "6", "--policy", "lifo", "--max-spurious-wakeups", "1"],
    ["--max-thread-depth", "6"],
]


def digest(cli, scenario: Path, flags: list, tree: Path) -> tuple:
    """(number of trace files, sha256) of one check of `scenario`."""
    with tempfile.TemporaryDirectory() as tmp:
        traces = Path(tmp).resolve()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", str(scenario), *flags, "--keep-all-traces",
                             "--trace-dir", str(traces)])
        report = "".join(line for line in out.getvalue().splitlines(keepends=True)
                         if not line.startswith("elapsed_ms: "))
        parts = [f"exit: {code}\n", report]
        files = sorted(traces.glob("*"))
        for path in files:
            parts += [f"== {path.name}\n", path.read_text(encoding="utf-8")]
    text = "".join(parts).replace(str(traces), "<traces>").replace(str(tree), "<tree>")
    return len(files), hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list) -> int:
    tree = Path(argv[0] if argv else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(tree / "src"))
    from permute import cli

    corpus = tree / "src" / "permute" / "corpus"
    for scenario in sorted(corpus.glob("*.scn")):
        for flags in FLAG_SETS:
            count, sha = digest(cli, scenario, flags, tree)
            print(f"{scenario.name} {' '.join(flags)} files={count} {sha}", flush=True)
    for workload, rows in load_workloads(tree).items():
        for row in rows:
            count, sha = digest(cli, corpus / f"{row.scenario}.scn", list(row.flags), tree)
            print(" ".join([f"{workload}/{row.name}", *row.flags, f"files={count}", sha]),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
