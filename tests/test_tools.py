"""Smoke tests of the scripts in tools/."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_peak_rss_runs_each_command_in_a_fresh_process():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "peak_rss.py"), "--center", "5"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["build", "label", "verify", "verify-csv"]
    for line in lines:
        match = re.fullmatch(r"[\w-]+ +exit 0 +peak +([\d.]+) MB +wall +([\d.]+) s", line)
        assert match, line
        assert float(match.group(1)) > 1


def test_peak_rss_stops_quietly_when_its_output_closes():
    """A reader that takes one line and closes the pipe, as `head -1` does,
    ends the tool with exit 1 and no traceback."""
    with subprocess.Popen(
        [sys.executable, str(TOOLS / "peak_rss.py"), "--center", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as tool:
        assert tool.stdout.readline().startswith("build ")
        tool.stdout.close()
        _, stderr = tool.communicate(timeout=120)
    assert tool.returncode == 1
    assert "Traceback" not in stderr, stderr


def test_code_lines_counts_each_module_once_and_sums_them():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py")], capture_output=True, text=True, timeout=60, check=True
    )
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    package = TOOLS.parent / "src" / "antimagic"
    assert [name for name, _ in modules] == sorted(path.name for path in package.glob("*.py"))
    assert total[0] == "total"
    assert sum(int(count) for _, count in modules) == int(total[1].replace(",", "")) > 0


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(correct=True, failed=0, **values):
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": 5, "failed": failed, "metrics": metrics})


def test_pairs_summarises_medians_quartiles_and_wins():
    pairs = _load_tool("pairs")
    declared = [{"name": "label_s", "better": "lower"}, {"name": "hits", "better": "higher"}]
    results = [
        (
            pairs.result_of(f"# comment\n{_result_line(label_s=old, hits=1)}\n"),
            pairs.result_of(_result_line(label_s=new, hits=hits)),
        )
        for old, new, hits in [(1.0, 0.5, 2), (2.0, 2.0, 1), (3.0, 3.5, 0), (4.0, 1.0, 2), (5.0, 4.0, 1)]
    ]
    header, label_s, hits = pairs.summary(declared, results)
    assert header.split()[0] == "metric"
    assert label_s.split() == ["label_s", "3.0000", "[2.0000,", "4.0000]", "2.0000", "[1.0000,", "3.5000]", "3/5"]
    assert hits.split() == ["hits", "1.0000", "[1.0000,", "1.0000]", "1.0000", "[1.0000,", "2.0000]", "2/5"]


@pytest.mark.parametrize("stdout", [
    "",
    "# no result\n",
    _result_line(correct=False, label_s=1.0),
    _result_line(failed=1, label_s=1.0),
])
def test_pairs_refuses_a_run_that_is_not_correct(stdout):
    pairs = _load_tool("pairs")
    with pytest.raises(pairs.RunRefused):
        pairs.result_of(stdout)
