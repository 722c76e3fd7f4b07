#!/usr/bin/env python3
"""Benchmark of the antimagic label/verify pipeline.

    python3 bench/run.py --workload long-legs --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout, without installing the package: it imports
`antimagic` from `src/` and drives it through its public functions, in one
process and one thread. Workloads, metrics and layers are described in
bench/README.md; names and units come from BENCHMARK.json. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer ones with
`--trace 1`). No input is random: `--seed` is recorded and changes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is repeated at least this many times and for at least this long,
# and its median reported, so that cheap set-ups get enough samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


# ---------------------------------------------------------------- inputs


def _k(n: int) -> dict[str, Any]:
    return {"kind": "K", "params": [n]}


def pan_spec(r: int) -> dict[str, Any]:
    """Pan base with H_0 = K2 and H_1..H_r = C3 (T41 holds)."""
    return {"base": {"type": "pan", "param": r},
            "attachments": [_k(2)] + [{"kind": "C", "params": [3]}] * r}


def spider_spec(p: int, center: int) -> dict[str, Any]:
    """Spider base with K2 on the 3p-3 leg edges and K_center on the three
    center edges (T43 holds)."""
    return {"base": {"type": "spider", "param": p},
            "attachments": [_k(2)] * (3 * p - 3) + [_k(center)] * 3}


# Each family has two sizes a factor of about 4 apart in |E|.
LONG_LEGS = {
    "pan-r500": lambda: pan_spec(500),
    "pan-r2000": lambda: pan_spec(2000),
    "spider-p256": lambda: spider_spec(256, 5),
    "spider-p1024": lambda: spider_spec(1024, 5),
}
LONG_LEGS_FAMILIES = (("pan-r500", "pan-r2000"), ("spider-p256", "spider-p1024"))
WIDE_BLOCKS = {"spider-p4-k300": lambda: spider_spec(4, 300)}

# The 11-graph attachment catalog, ordered by vertex count; every sweep
# instance lists catalog entries in non-decreasing catalog order.
CATALOG = (
    ("K2", "complete", (2,)), ("P3", "path", (3,)), ("K3", "complete", (3,)),
    ("P4", "path", (4,)), ("S4", "star", (4,)), ("C4", "cycle", (4,)),
    ("diamond", "diamond", ()), ("K4", "complete", (4,)), ("S5", "star", (5,)),
    ("C5", "cycle", (5,)), ("K5", "complete", (5,)),
)
SWEEP_BASES = (("pan", 3), ("pan", 4), ("spider", 2))
SWEEP_SIZE = math.comb(14, 4) + math.comb(15, 5) + math.comb(16, 6)


def sweep_instances(prog: SimpleNamespace) -> list[tuple[str, int, tuple[Any, ...]]]:
    graphs = [prog.graphs.preset_graph(kind, params) for _, kind, params in CATALOG]
    out = []
    for kind, param in SWEEP_BASES:
        blocks = param + 1 if kind == "pan" else 3 * param
        for combo in itertools.combinations_with_replacement(range(len(graphs)), blocks):
            out.append((kind, param, tuple(graphs[i] for i in combo)))
    return out


# ---------------------------------------------------------------- program


class Abort(Exception):
    """The benchmark cannot run here."""


def import_program() -> SimpleNamespace:
    """Import the package's modules afresh from src/ (a cold package import)."""
    for name in [n for n in sys.modules if n == "antimagic" or n.startswith("antimagic.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"antimagic.{name}")
            for name in ("graphs", "corona", "conditions", "labeling", "verify", "io", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise Abort(f"antimagic was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def call_cli(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, float, str]:
    """Run `antimagic <argv>` in-process; return exit code, seconds, stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    if err.getvalue():
        print(f"# antimagic {argv[0]}: {err.getvalue().strip()}", file=sys.stderr)
    return code, elapsed, out.getvalue()


# ---------------------------------------------------------------- passes


@dataclass
class PassResult:
    label_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    failed: int = 0


@dataclass
class Run:
    """State shared by the passes of one run."""

    prog: SimpleNamespace
    work: Path
    failures: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    def fail(self, result: PassResult, what: str, exc: BaseException) -> None:
        result.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def _read(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


class FileWorkload:
    """`antimagic build|label|verify` on spec files, with the argv a user types."""

    def __init__(self, specs: dict[str, Callable[[], dict[str, Any]]],
                 families: tuple[tuple[str, str], ...] = ()) -> None:
        self.specs = specs
        self.families = families

    def setup(self, work: Path) -> SimpleNamespace:
        prog = import_program()
        for name, make in self.specs.items():
            spec_path = work / f"{name}.spec.json"
            spec_path.write_text(json.dumps(make()), encoding="utf-8")
            code, _, _ = call_cli(prog.cli.main, [
                "build", str(spec_path), "--graph-out", str(work / f"{name}.graph.json")])
            if code != 0:
                raise Abort(f"antimagic build {spec_path.name} exited {code}")
        return prog

    def check_setup(self, run: Run) -> None:
        """Check every composite file against the corona definition."""
        self.composites = {}
        for name, make in self.specs.items():
            graph = _read(run.work / f"{name}.graph.json")
            self.composites[name] = (graph["vertices"], check.check_graph(make(), graph))

    def run_pass(self, run: Run, tracer: spans.Tracer | None, memory: bool = False) -> PassResult:
        """Label and verify every instance. The allocation-traced pass takes
        only the instance with the most edges: tracing allocations slows the
        quadratic labeling of the long-legs instances tenfold."""
        result = PassResult()
        main = run.prog.cli.main
        names = self.specs
        if memory:
            names = [max(self.composites, key=lambda name: len(self.composites[name][1]))]
        for name in names:
            stem = run.work / name
            vertex_count, edges = self.composites[name]
            label_argv = ["label", f"{stem}.spec.json", "--out", str(stem)]
            verify_argv = ["verify", f"{stem}.graph.json", f"{stem}.labeling.json"]
            sums: list[int] = []
            for what, argv in (("label", label_argv), ("verify", verify_argv)):
                result.attempted += 1
                if tracer is not None:
                    tracer.tag = name
                root = tracer.span(f"cli.{what}") if tracer else contextlib.nullcontext()
                try:
                    with root:
                        code, seconds, stdout = call_cli(main, argv)
                    if code != 0:
                        raise check.CheckFailed(f"exit code {code}, expected 0")
                    if what == "label":
                        labeling = _read(Path(f"{stem}.labeling.json"))
                        sums = check.check_labeling(vertex_count, edges, labeling)
                        report_text = Path(f"{stem}.report.json").read_text(encoding="utf-8")
                        if stdout != report_text:
                            raise check.CheckFailed("label printed another report than it wrote")
                        if check.check_report(json.loads(report_text), sums) == 0:
                            raise check.CheckFailed("label report has no sum chain")
                        result.label_s += seconds
                    else:
                        check.check_report(json.loads(stdout), sums)
                        result.verify_s += seconds
                except Exception as exc:  # one failed operation; the run goes on
                    run.fail(result, f"{what} {name}", exc)
        return result


class SweepWorkload:
    """Every catalog instance built, checked, force-labeled and verified
    through the library, with no files."""

    families: tuple[tuple[str, str], ...] = ()

    def setup(self, work: Path) -> SimpleNamespace:
        prog = import_program()
        self.instances = sweep_instances(prog)
        return prog

    def check_setup(self, run: Run) -> None:
        if len(self.instances) != SWEEP_SIZE:
            raise Abort(f"sweep has {len(self.instances)} instances, expected {SWEEP_SIZE}")

    def run_pass(self, run: Run, tracer: spans.Tracer | None) -> PassResult:
        result = PassResult()
        prog = run.prog
        held = forced_antimagic = 0
        for kind, param, attachments in self.instances:
            result.attempted += 1
            try:
                start = time.perf_counter()
                if kind == "pan":
                    inst = prog.corona.build_type1(param, attachments)
                    report = prog.conditions.check_conditions(inst)
                    lrun = prog.labeling.run_type1(inst, force=True)
                else:
                    inst = prog.corona.build_type2(param, attachments)
                    report = prog.conditions.check_conditions(inst)
                    lrun = prog.labeling.run_type2(inst, force=True)
                middle = time.perf_counter()
                certified = prog.verify.vertex_sums(inst.composite, lrun.labeling)
                end = time.perf_counter()
                g = inst.composite
                labels = lrun.labeling.labels
                if len(labels) != g.edge_count:
                    raise check.CheckFailed("labeling does not cover the edges")
                check.check_permutation(labels)
                sums = check.vertex_sums(g.vertex_count, g.edges, labels)
                if list(certified.sums) != sums:
                    raise check.CheckFailed("vertex_sums disagrees with the recomputed sums")
                if report.overall:
                    held += 1
                    check.check_distinct(sums)
                    if not lrun.chain or not all(sums[c.left] < sums[c.right] for c in lrun.chain):
                        raise check.CheckFailed("conditions hold but the sum chain breaks")
                elif len(set(sums)) == len(sums):
                    forced_antimagic += 1
                if certified.is_antimagic != (len(set(sums)) == len(sums)):
                    raise check.CheckFailed("vertex_sums misjudges antimagicness")
                result.label_s += middle - start
                result.verify_s += end - middle
            except Exception as exc:  # one failed operation; the run goes on
                run.fail(result, f"{kind} {param} instance {result.attempted}", exc)
        run.stats = {"conditions_hold": held, "forced": len(self.instances) - held,
                     "forced_antimagic": forced_antimagic}
        return result


WORKLOADS: dict[str, Any] = {
    "long-legs": lambda: FileWorkload(LONG_LEGS, LONG_LEGS_FAMILIES),
    "wide-blocks": lambda: FileWorkload(WIDE_BLOCKS),
    "small-sweep": SweepWorkload,
}


# ---------------------------------------------------------------- tracing


def _read_json_span(path: Path) -> str:
    for suffix, span_name in ((".spec.json", "io.read_spec"), (".graph.json", "io.read_graph"),
                              (".labeling.json", "io.read_labeling")):
        if str(path).endswith(suffix):
            return span_name
    return "io.read_other"


def _dumps_span(obj: Any) -> str:
    if "vertex_sums" in obj:
        return "io.dumps_report"
    return "io.dumps_labeling" if "sums" in obj else "io.dumps_other"


FILE_PATCHES: list[spans.Patch] = [
    ("antimagic.cli", "_read_json", _read_json_span),
    ("antimagic.io", "instance_from_json", "io.instance_from_json"),
    ("antimagic.io", "graph_from_json", "io.graph_from_json"),
    ("antimagic.io", "build_type1", "corona.build"),
    ("antimagic.io", "build_type2", "corona.build"),
    ("antimagic.corona", "make_graph", "graphs.make_graph"),
    ("antimagic.labeling", "check_conditions", "conditions.check"),
    ("antimagic.cli", "run_type1", "labeling.run"),
    ("antimagic.cli", "run_type2", "labeling.run"),
    ("antimagic.cli", "vertex_sums", "verify.sums"),
    ("antimagic.io", "labeling_to_json", "io.labeling_to_json"),
    ("antimagic.io", "sum_report_to_json", "io.sum_report_to_json"),
    ("antimagic.io", "labeling_from_json", "io.labeling_from_json"),
    ("antimagic.io", "canonical_dumps", _dumps_span),
]
SWEEP_PATCHES: list[spans.Patch] = [
    ("antimagic.corona", "build_type1", "corona.build"),
    ("antimagic.corona", "build_type2", "corona.build"),
    ("antimagic.corona", "make_graph", "graphs.make_graph"),
    ("antimagic.conditions", "check_conditions", "conditions.check"),
    ("antimagic.labeling", "check_conditions", "conditions.check"),
    ("antimagic.labeling", "run_type1", "labeling.run"),
    ("antimagic.labeling", "run_type2", "labeling.run"),
    ("antimagic.verify", "vertex_sums", "verify.sums"),
]
MEMORY_GROUPS = {
    "corona.build": ("corona.build", "corona.build"),
    "labeling.run": ("labeling.run", "labeling.run"),
    "io.dump_labeling": ("io.labeling_to_json", "io.dumps_labeling"),
}


def _count_build(inst: Any, counts: dict[str, int]) -> None:
    counts["corona.vertices"] += inst.composite.vertex_count
    counts["corona.edges"] += inst.composite.edge_count


def _count_run(lrun: Any, counts: dict[str, int]) -> None:
    counts["labeling.rankings"] += len(lrun.ranked_blocks)
    counts["labeling.ranked_vertices"] += sum(len(rb.vertices) for rb in lrun.ranked_blocks)
    counts["labeling.chain_links"] += len(lrun.chain)


def _count_check(report: Any, counts: dict[str, int]) -> None:
    counts["conditions.count"] += 1


def layer_times(tracer: spans.Tracer, pass_no: int, tag: str | None = None) -> dict[str, float]:
    t = tracer.totals(pass_no, tag)
    return {
        "io.load_spec_s": t["io.read_spec"] + t["io.instance_from_json>io.graph_from_json"],
        "graphs.make_graph_s": t["graphs.make_graph"],
        "corona.build_s": t["corona.build"],
        "conditions.check_s": t["conditions.check"],
        "labeling.run_s": t["labeling.run"],
        "labeling.self_s": t["labeling.run"] - t["labeling.run>conditions.check"],
        "verify.sums_s": t["verify.sums"],
        "io.dump_labeling_s": t["io.labeling_to_json"] + t["io.dumps_labeling"],
        "io.dump_report_s": t["io.sum_report_to_json"] + t["io.dumps_report"],
        "io.load_graph_s": t["io.read_graph"] + t["cli.verify>io.graph_from_json"],
        "io.load_labeling_s": t["io.read_labeling"] + t["io.labeling_from_json"],
        "cli.label_other_s": t["cli.label"] - t["cli.label>"],
        "cli.verify_other_s": t["cli.verify"] - t["cli.verify>"],
    }


# ---------------------------------------------------------------- driver


@dataclass
class Measured:
    attempted: int = 0
    failed: int = 0
    plain: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    tracer: spans.Tracer = field(default_factory=spans.Tracer)
    probe: spans.MemoryProbe = field(default_factory=lambda: spans.MemoryProbe(MEMORY_GROUPS))
    memory_pass_s: float = 0.0

    def add(self, result: PassResult, into: list[PassResult]) -> None:
        into.append(result)
        self.attempted += result.attempted
        self.failed += result.failed


def measure(workload: Any, run: Run, seconds: float, traced: bool) -> Measured:
    """Whole passes until `seconds` have passed. With tracing, untraced and
    traced passes alternate, and one allocation-traced pass follows on the
    file workloads."""
    m = Measured()
    m.tracer.on_return = {"corona.build": _count_build, "labeling.run": _count_run,
                          "conditions.check": _count_check}
    table = FILE_PATCHES if isinstance(workload, FileWorkload) else SWEEP_PATCHES
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if traced and len(m.traced) < len(m.plain):
            m.tracer.pass_no = len(m.traced) + 1
            with spans.patched(m.tracer, table):
                m.add(workload.run_pass(run, m.tracer), m.traced)
        else:
            m.add(workload.run_pass(run, None), m.plain)
        if time.perf_counter() >= deadline and (not traced or m.traced):
            break
    # Allocation tracing slows the sweep ninefold for per-instance peaks
    # under 30 KB, so only the file workloads get the memory pass.
    if traced and isinstance(workload, FileWorkload):
        gc.collect()
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with spans.patched(m.probe, table):
                m.add(workload.run_pass(run, None, memory=True), [])
        finally:
            tracemalloc.stop()
        m.memory_pass_s = time.perf_counter() - start
    return m


def _fmt(values: Any) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _median(values: Any) -> float:
    return statistics.median(list(values))


def per_layer_metrics(workload: Any, run: Run, m: Measured) -> dict[str, float]:
    passes = range(1, len(m.traced) + 1)
    per_pass = [layer_times(m.tracer, p) for p in passes]
    values = {key: _median(d[key] for d in per_pass) for key in per_pass[0]}
    for key in ("corona.vertices", "corona.edges", "conditions.count", "labeling.rankings",
                "labeling.ranked_vertices", "labeling.chain_links"):
        values[key] = m.tracer.counts[1][key]
    values["labeling.run_per_verify"] = values["labeling.run_s"] / values["verify.sums_s"]
    for group, key in (("corona.build", "corona.build_peak_mb"), ("labeling.run", "labeling.peak_mb"),
                       ("io.dump_labeling", "io.dump_labeling_peak_mb")):
        values[key] = m.probe.peak_bytes[group] / 2**20

    values["io.labeling_bytes"] = values["io.graph_bytes"] = 0
    if isinstance(workload, FileWorkload):
        for name in workload.specs:
            values["io.labeling_bytes"] += (run.work / f"{name}.labeling.json").stat().st_size
            values["io.graph_bytes"] += (run.work / f"{name}.graph.json").stat().st_size

    exponents = []
    for small, large in workload.families:
        run_s = {tag: _median(layer_times(m.tracer, p, tag)["labeling.run_s"] for p in passes)
                 for tag in (small, large)}
        edges = {tag: len(workload.composites[tag][1]) for tag in (small, large)}
        exponent = math.log(run_s[large] / run_s[small]) / math.log(edges[large] / edges[small])
        print(f"# scaling {small} -> {large}: |E| {edges[small]} -> {edges[large]}, "
              f"labeling.run_s {run_s[small]:.4f} -> {run_s[large]:.4f}, exponent {exponent:.3f}")
        exponents.append(exponent)
    values["labeling.scaling_exponent"] = max(exponents, default=0.0)

    plain_label = _median(r.label_s for r in m.plain)
    plain_verify = _median(r.verify_s for r in m.plain)
    traced_label = _median(r.label_s for r in m.traced)
    traced_verify = _median(r.verify_s for r in m.traced)
    print(f"# tracing overhead: label_s {traced_label - plain_label:+.4f} s "
          f"({traced_label:.4f} traced, {plain_label:.4f} untraced), verify_s "
          f"{traced_verify - plain_verify:+.4f} s ({traced_verify:.4f} traced, "
          f"{plain_verify:.4f} untraced); {len(m.plain)} untraced, {len(m.traced)} traced passes, "
          f"allocation-traced pass {m.memory_pass_s:.1f} s")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _read(ROOT / "BENCHMARK.json")
    if not (SRC / "antimagic" / "__init__.py").is_file():
        raise Abort(f"no package source at {SRC / 'antimagic'}")
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload]()
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        prog = workload.setup(work)
        setup_s.append(time.perf_counter() - start)
    run = Run(prog, work)
    workload.check_setup(run)

    m = measure(workload, run, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed {args.seed}: {m.attempted} operations, {m.failed} failed; "
          f"setup_s {_fmt(setup_s)}; untraced label_s {_fmt(r.label_s for r in m.plain)}, "
          f"verify_s {_fmt(r.verify_s for r in m.plain)}")
    for line in run.failures:
        print(f"# failed: {line}", file=sys.stderr)
    if run.stats:
        print("# sweep: " + ", ".join(f"{k} {v}" for k, v in run.stats.items()))

    if args.trace:
        values = per_layer_metrics(workload, run, m)
        m.tracer.write(work / "trace.jsonl")
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": _median(setup_s),
            "label_s": _median(r.label_s for r in m.plain),
            "verify_s": _median(r.verify_s for r in m.plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = declared["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in wanted}
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
