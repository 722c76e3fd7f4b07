#!/usr/bin/env python3
"""Peak memory and wall time of `antimagic build`, `label` and `verify`, each
run in a fresh process.

    python3 tools/peak_rss.py --center 300   # wide-blocks: 136,407 edges
    python3 tools/peak_rss.py --center 820   # 1,012,347 edges

Writes a spider p=4 spec with K2 on its nine leg edges and K_n (n =
--center) on its three center edges to a temporary directory. Then runs
`build --graph-out`, `label --out` and `verify` on it, in that order, and
last `verify` of the CSV labeling that `label --out --format csv` writes
(`verify-csv`; that `label` run is not measured). Each runs as a child
process `python -m antimagic.cli` that imports the package from src/ of
this checkout, with its standard output discarded. Prints one line per
measured command, as soon as the command ends: its exit code, its peak
resident set size (`ru_maxrss` of that child alone, from `os.wait4`) and its
wall time. When its standard output closes early, as under `| head -1`, it
stops at the next line it prints and exits 1 with no traceback. Uses only
the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def spider_spec(center: int) -> dict:
    return {
        "base": {"type": "spider", "param": 4},
        "attachments": [{"kind": "K", "params": [2]}] * 9 + [{"kind": "K", "params": [center]}] * 3,
    }


def run_child(argv: list[str]) -> tuple[int, float, float]:
    """Exit code, peak RSS in MB and wall seconds of `antimagic <argv>`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    stdout = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "antimagic.cli", *argv], env, file_actions=stdout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--center", type=int, default=300, help="n of the K_n center blocks (default 300)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        spec, graph, stem = work / "spec.json", work / "graph.json", work / "run"
        spec.write_text(json.dumps(spider_spec(args.center)), encoding="utf-8")
        commands = [  # (name, argv); a step named None is run but not printed
            ("build", ["build", str(spec), "--graph-out", str(graph)]),
            ("label", ["label", str(spec), "--out", str(stem)]),
            ("verify", ["verify", str(graph), f"{stem}.labeling.json"]),
            (None, ["label", str(spec), "--out", str(stem), "--format", "csv"]),
            ("verify-csv", ["verify", str(graph), f"{stem}.labeling.csv"]),
        ]
        failed = 0
        for name, command in commands:
            code, peak_mb, wall = run_child(command)
            failed += code != 0
            if name is not None:
                print(f"{name:10}  exit {code}  peak {peak_mb:7.1f} MB  wall {wall:6.2f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader has gone: send what is still buffered for stdout to
        # devnull, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
