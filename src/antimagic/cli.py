"""Command-line front end: build, conditions, label, verify, search, export.

Exit codes are a stable contract: 0 success or antimagic, 1 verified not
antimagic or search exhausted or budget spent, 2 forced run with duplicate
sums, 3 conditions unmet, 4 malformed labeling, 65 malformed input, input
too large to hold in memory or a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import io as aio
from .conditions import check_conditions
from .corona import CoronaError
from .graphs import Graph, GraphError, Labeling, degree_profile
from .labeling import ConditionsNotMet, LabelingError, run_type1, run_type2
from .verify import NotABijection, Status, TooLarge, brute_force_search, random_search, vertex_sums

EXIT_OK = 0
EXIT_NOT_ANTIMAGIC = 1
EXIT_FORCED_DUPLICATES = 2
EXIT_CONDITIONS = 3
EXIT_BAD_LABELING = 4
EXIT_BAD_INPUT = 65


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 means duplicate sums here
        raise SystemExit(EXIT_BAD_INPUT if exc.code else EXIT_OK) from None
    # Pause the cyclic collector for this one command. What a command builds
    # in bulk (JSON values, edge tuples, label lists, documents) holds no
    # reference cycle, so reference counting frees it all, and the collector
    # would only rescan live data: on a 136k-edge input that was a tenth of
    # `verify` and of `label`. Resume it only if it was running, so a caller
    # that turned it off keeps it off.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except ConditionsNotMet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS
    except NotABijection as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_LABELING
    except (aio.SpecError, GraphError, CoronaError, LabelingError, TooLarge, OSError,
            json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (MemoryError, OverflowError) as exc:  # such as a huge "vertices" count
        print(f"error: input too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Build edge corona graphs, label them, and certify the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an instance and print its summary")
    p_build.add_argument("spec", type=Path)
    p_build.add_argument("--out", type=Path, help="write the summary JSON here")
    p_build.add_argument("--graph-out", type=Path, help="write the composite graph descriptor here")
    p_build.set_defaults(handler=_cmd_build)

    p_cond = sub.add_parser("conditions", help="evaluate the labeling hypotheses")
    p_cond.add_argument("spec", type=Path)
    p_cond.set_defaults(handler=_cmd_conditions)

    p_label = sub.add_parser("label", help="run the constructive labeling")
    p_label.add_argument("spec", type=Path)
    p_label.add_argument("--force", action="store_true", help="label even if conditions fail")
    p_label.add_argument("--out", type=Path, help="prefix for .labeling.<ext> and .report.json files")
    p_label.add_argument("--format", choices=("json", "csv", "dot"), default="json")
    p_label.set_defaults(handler=_cmd_label)

    p_verify = sub.add_parser("verify", help="recompute sums for a labeling")
    p_verify.add_argument("graph", type=Path)
    p_verify.add_argument("labeling", type=Path)
    p_verify.set_defaults(handler=_cmd_verify)

    p_search = sub.add_parser("search", help="look for an antimagic labeling")
    p_search.add_argument("graph", type=Path)
    mode = p_search.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--exhaustive",
        action="store_true",
        help="try label permutations in order; the work grows factorially in |E|, "
        "and --limit is the only guard",
    )
    mode.add_argument("--random", action="store_true")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--budget", type=int, default=10000)
    p_search.add_argument(
        "--limit",
        type=int,
        default=10,
        help="largest |E| --exhaustive accepts (default 10); each extra edge multiplies "
        "the worst-case work by about |E|",
    )
    p_search.set_defaults(handler=_cmd_search)

    p_export = sub.add_parser("export", help="convert a graph (and labeling) to json, csv, or dot")
    p_export.add_argument("graph", type=Path)
    p_export.add_argument("--format", choices=("json", "csv", "dot"), default="json")
    p_export.add_argument("--labeling", type=Path, help="decorate with labels and sums")
    p_export.add_argument("--out", type=Path)
    p_export.set_defaults(handler=_cmd_export)
    return parser


def _read_json(path: Path) -> object:
    return aio.load_json(path.read_bytes(), path)


def _read_graph(path: Path) -> Graph:
    with path.open("rb") as file:
        return aio.graph_from_json(file, path)


def _load_labeling(path: Path, g: Graph) -> Labeling:
    """Read a labeling of g from a file whose suffix is .csv, in any case,
    or, otherwise, a JSON file."""
    with path.open("rb") as file:
        if path.suffix.lower() == ".csv":
            return aio.labeling_from_csv(aio.decode_text(file.read(), path), g)
        return aio.labeling_from_json(file, g, path)


def _emit(chunks: Iterable[str], out: Path | None) -> None:
    """Write the chunks of one document to out, or to stdout, as they come.
    A whole document is passed as `(text,)`: `writelines` would write a
    bare str one character at a time."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with out.open("w", encoding="utf-8") as file:
            file.writelines(chunks)


def _cmd_build(args: argparse.Namespace) -> int:
    inst, _ = aio.instance_from_json(_read_json(args.spec))
    profile = degree_profile(inst.composite)
    summary = {
        "kind": inst.kind,
        "vertices": inst.composite.vertex_count,
        "edges": inst.composite.edge_count,
        "max_degree": profile.max_degree,
        "min_degree": profile.min_degree,
        "roles": {
            "base": inst.base_graph.edge_count,
            "internal": sum(inst.attachment_edge_counts),
            "cross": 2 * sum(inst.attachment_orders),
        },
        "blocks": [
            {"index": b.index, "vertices": b.graph.vertex_count, "edges": b.graph.edge_count}
            for b in inst.blocks
        ],
    }
    print(f"{summary['vertices']} vertices, {summary['edges']} edges")
    _emit((aio.canonical_dumps(summary),), args.out)
    if args.graph_out is not None:
        _emit(aio.graph_chunks(inst.composite), args.graph_out)
    return EXIT_OK


def _cmd_conditions(args: argparse.Namespace) -> int:
    inst, _ = aio.instance_from_json(_read_json(args.spec))
    report = check_conditions(inst)
    payload = {
        "overall": report.overall,
        "conditions": [c._asdict() for c in report.conditions],
    }
    sys.stdout.write(aio.canonical_dumps(payload))
    return EXIT_OK if report.overall else EXIT_CONDITIONS


def _cmd_label(args: argparse.Namespace) -> int:
    inst, options = aio.instance_from_json(_read_json(args.spec))
    force = args.force or options["force"]
    # Kept as two calls: bench/run.py traces run_type1/run_type2 as cli attributes.
    run = run_type1(inst, force=force) if inst.kind == "pan" else run_type2(inst, force=force)
    chain_spec = [(c.name, c.left, c.right) for c in run.chain]
    report = vertex_sums(inst.composite, run.labeling, chain=chain_spec)

    roles = inst.edge_roles if args.format == "json" else None
    chunks = _render(args.format, inst.composite, run.labeling, roles, report.sums)
    report_text = aio.canonical_dumps(aio.sum_report_to_json(inst.composite, report))

    if args.out is None:
        _emit(chunks, None)
    else:
        _emit(chunks, Path(f"{args.out}.labeling.{args.format}"))
        _emit((report_text,), Path(f"{args.out}.report.json"))
    sys.stdout.write(report_text)
    if report.is_antimagic:
        return EXIT_OK
    return EXIT_FORCED_DUPLICATES


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    labeling = _load_labeling(args.labeling, g)
    report = vertex_sums(g, labeling)
    sys.stdout.write(aio.canonical_dumps(aio.sum_report_to_json(g, report)))
    return EXIT_OK if report.is_antimagic else EXIT_NOT_ANTIMAGIC


def _cmd_search(args: argparse.Namespace) -> int:
    if args.random and args.budget <= 0:
        raise aio.SpecError(f"--budget must be positive, got {args.budget}")
    g = _read_graph(args.graph)
    if args.exhaustive:
        outcome = brute_force_search(g, limit=args.limit)
    else:
        outcome = random_search(g, budget=args.budget, seed=args.seed)
    payload: dict[str, object] = {
        "status": outcome.status.value,
        "examined": outcome.examined,
    }
    if outcome.labeling is not None:
        payload["labeling"] = aio.labeling_to_json(g, outcome.labeling)
    sys.stdout.write(aio.canonical_dumps(payload))
    return EXIT_OK if outcome.status is Status.FOUND else EXIT_NOT_ANTIMAGIC


def _cmd_export(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    labeling = None
    sums = None
    if args.labeling is not None:
        labeling = _load_labeling(args.labeling, g)
        sums = vertex_sums(g, labeling).sums
    _emit(_render(args.format, g, labeling, None, sums), args.out)
    return EXIT_OK


def _render(
    fmt: str,
    g: Graph,
    labeling: Labeling | None,
    roles: Sequence[str] | None,
    sums: Sequence[int] | None,
) -> Iterable[str]:
    """g and its labeling as the chunks of a json, csv or dot document. A
    labeling is rendered as it is written. Without a labeling, json is the
    graph descriptor and csv is an input error."""
    if labeling is not None and fmt != "dot":
        return aio.labeling_chunks(fmt, g, labeling, roles, sums)
    if fmt == "json":
        return aio.graph_chunks(g)
    if fmt == "csv":
        raise aio.SpecError("csv export needs --labeling")
    # Whole, not streamed: with no bound on the vertex count yet, a streamed
    # dot of {"vertices": 10**20} would write without end instead of running
    # out of memory and exiting 65 (the io.to_dot FOUND line in CHANGES.md).
    return (aio.to_dot(g, labeling, sums),)


if __name__ == "__main__":
    raise SystemExit(main())
