"""Smoke tests of the scripts in tools/."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

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
