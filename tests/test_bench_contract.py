"""The attributes the benchmark's trace patches exist in the package.

`bench/run.py --trace 1` wraps functions by module and attribute name; a
renamed or deleted one would only show up when the trace runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
