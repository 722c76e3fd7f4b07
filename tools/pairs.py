#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tools/pairs.py PARENT CHANGE WORKLOAD

Runs `python3 bench/run.py --workload WORKLOAD --seconds S` ten times in
each checkout, where S is `run_seconds` of BENCHMARK.json. Each pair is one
run of each side, and the side that runs first alternates from pair to
pair, starting with PARENT. Each run starts in its own checkout, so it
builds what it runs from that checkout's source; this tool changes nothing
there beyond what bench/run.py itself writes.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and the number of pairs the change won: pairs where its value
is strictly better in the metric's declared direction. A run that does not
end with a result line of `correct: true` and 0 failed operations stops the
tool with exit 1 and no summary. Uses only the standard library.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


class RunRefused(Exception):
    """A benchmark run that cannot be summarised."""


def result_of(stdout: str) -> dict:
    """The result object on the last line of a bench/run.py run's output.
    Raises RunRefused unless it is `correct: true` with 0 failed."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunRefused("no result line") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunRefused(f"correct {result.get('correct')}, failed {result.get('failed')}")
    return result


def summary(declared: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per declared metric, over (parent, change) result pairs:
    each side's median [first quartile, third quartile] and the pairs the
    change won."""
    lines = [f"{'metric':12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  change won"]
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        cells = []
        for values in sides:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            cells.append(f"{median:.4f} [{q1:.4f}, {q3:.4f}]")
        won = sum(new < old if lower else new > old for old, new in zip(*sides))
        lines.append(f"{name:12} {cells[0]:>34} {cells[1]:>34}  {won}/{len(pairs)}")
    return lines


def run_bench(checkout: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RunRefused(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return result_of(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/pairs.py PARENT CHANGE WORKLOAD", file=sys.stderr)
        return 2
    parent, change, workload = Path(argv[0]).resolve(), Path(argv[1]).resolve(), argv[2]
    declared = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    order = [("parent", parent), ("change", change)]
    pairs = []
    for k in range(PAIRS):
        results = {}
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            try:
                results[side] = run_bench(checkout, workload, seconds)
            except RunRefused as exc:
                print(f"pair {k + 1}, {side} ({checkout}): {exc}", file=sys.stderr)
                return 1
        pairs.append((results["parent"], results["change"]))
        print(f"# pair {k + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    print(f"# {workload}: {PAIRS} alternating pairs of {seconds} s runs; parent {parent}, change {change}")
    print("\n".join(summary(declared["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
