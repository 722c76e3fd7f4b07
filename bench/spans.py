"""Instruments the benchmark installs around calls into the program's modules.

`patched` swaps a module attribute for a wrapper for the duration of a pass,
so callers inside the program that look the name up at call time (module
globals and `aio.<name>` attribute calls) go through the wrapper. `Tracer`
keeps one span per call in memory; `MemoryProbe` records tracemalloc peaks
for a few layers, in a pass of its own so that allocation tracing does not
inflate the timed spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

# (module, attribute, span name or a function of the call's arguments)
Patch = tuple[str, str, Any]


@contextlib.contextmanager
def patched(instrument: Any, table: list[Patch]) -> Iterator[None]:
    saved = []
    try:
        for module_name, attr, name in table:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, instrument.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _namer(name: Any) -> Callable[..., str]:
    return name if callable(name) else (lambda *args, **kwargs: name)


class Tracer:
    """Spans as (pass, tag, name, start_ns, end_ns, parent index), plus
    counts per pass. `tag` names the input the benchmark is working on."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str, int, int, int] | None] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.pass_no = 0
        self.tag = ""
        self._stack: list[int] = []
        self.on_return: dict[str, Callable[[Any, dict[str, int]], None]] = {}

    def wrap(self, name: Any, fn: Callable[..., Any]) -> Callable[..., Any]:
        namer = _namer(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(namer(*args, **kwargs)) as span_name:
                result = fn(*args, **kwargs)
            hook = self.on_return.get(span_name)
            if hook is not None:
                hook(result, self.counts[self.pass_no])
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[str]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield name
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self.pass_no, self.tag, name, start, end, parent)

    def totals(self, pass_no: int, tag: str | None = None) -> dict[str, float]:
        """Seconds per span name, per 'parent>child' name pair, and per
        'parent>' (all direct children of spans with that name)."""
        out: dict[str, float] = defaultdict(float)
        for p, span_tag, name, start, end, parent in self.spans:
            if p != pass_no or tag not in (None, span_tag):
                continue
            seconds = (end - start) / 1e9
            out[name] += seconds
            parent_name = self.spans[parent][2] if parent >= 0 else ""
            out[f"{parent_name}>{name}"] += seconds
            out[f"{parent_name}>"] += seconds
        return out

    def write(self, path: Path) -> None:
        keys = ("pass", "tag", "name", "start_ns", "end_ns", "parent")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class MemoryProbe:
    """Peak traced allocation above the level at entry, per measured group.

    Install it while tracemalloc is tracing. A group opens when a span named
    by its first entry starts and closes when a span named by its second
    entry ends, so one group can cover two consecutive calls (building a
    JSON object, then encoding it).
    """

    def __init__(self, groups: dict[str, tuple[str, str]]) -> None:
        self._opens = {first: group for group, (first, _) in groups.items()}
        self._closes = {last: group for group, (_, last) in groups.items()}
        self._base: dict[str, int] = {}
        self.peak_bytes: dict[str, int] = {group: 0 for group in groups}

    def wrap(self, name: Any, fn: Callable[..., Any]) -> Callable[..., Any]:
        namer = _namer(name)

        def probed(*args: Any, **kwargs: Any) -> Any:
            span_name = namer(*args, **kwargs)
            group = self._opens.get(span_name)
            if group is not None:
                tracemalloc.reset_peak()
                self._base[group] = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            group = self._closes.get(span_name)
            if group is not None:
                peak = tracemalloc.get_traced_memory()[1] - self._base.pop(group)
                self.peak_bytes[group] = max(self.peak_bytes[group], peak)
            return result

        return probed
