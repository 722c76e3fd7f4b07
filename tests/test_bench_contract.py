"""The attributes the benchmark's trace patches exist in the package, and
the program calls them.

`bench/run.py --trace 1` wraps functions by module and attribute name; a
renamed or deleted one would only show up when the trace runs, and one the
program stops calling would leave its layer's time at zero.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from antimagic import cli, corona, labeling
from antimagic.io import instance_from_json

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports its siblings check and spans, and its dataclasses look
    # their module up in sys.modules.
    sys.path.insert(0, str(BENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        del sys.modules[spec.name]
    return module


def test_traced_attributes_exist():
    run = _load_bench_run()
    patches = run.FILE_PATCHES + run.SWEEP_PATCHES
    assert patches
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in patches
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _traced(run, table, call):
    """call()'s result and the names of the spans the benchmark's tracer
    records while it runs."""
    tracer = run.spans.Tracer()
    with run.spans.patched(tracer, table):
        result = call()
    return result, {span[2] for span in tracer.spans}


@pytest.mark.parametrize("fixture", ["pan_r5.json", "spider_p4.json"])
def test_file_patches_are_called(fixture, tmp_path):
    run = _load_bench_run()
    stem = tmp_path / "inst"
    commands = [
        ["build", str(FIXTURES / fixture), "--graph-out", f"{stem}.graph.json"],
        ["label", str(FIXTURES / fixture), "--out", str(stem)],
        ["verify", f"{stem}.graph.json", f"{stem}.labeling.json"],
    ]
    names: set[str] = set()
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code, spans = _traced(run, run.FILE_PATCHES, lambda: cli.main(argv))
        assert code == 0, argv
        names |= spans
    assert {"corona.build", "conditions.check", "labeling.run", "verify.sums"} <= names


@pytest.mark.parametrize(
    "fixture, build, label",
    [("pan_r5.json", "build_type1", "run_type1"), ("spider_p4.json", "build_type2", "run_type2")],
)
def test_sweep_patches_are_called(fixture, build, label):
    run = _load_bench_run()
    spec = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    attachments = instance_from_json(spec)[0].attachments

    def sweep_step():
        built = getattr(corona, build)(spec["base"]["param"], attachments)
        getattr(labeling, label)(built, force=True)

    _, names = _traced(run, run.SWEEP_PATCHES, sweep_step)
    assert {"corona.build", "labeling.run"} <= names
