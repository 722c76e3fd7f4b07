"""JSON, CSV, and DOT serialization for graphs, instances, and labelings.

JSON output is canonical: UTF-8, sorted keys, two-space indent, trailing
newline. Exporting and re-importing a graph or labeling is lossless.
"""

from __future__ import annotations

import csv
import io as _io
import json
from typing import Any, Mapping, Sequence

from .corona import (
    BaseEdgeRole,
    CoronaInstance,
    CrossEdgeRole,
    EdgeRole,
    InternalEdgeRole,
    build_type1,
    build_type2,
    normalize_attachments,
)
from .graphs import Graph, make_graph, preset_graph
from .labeling import Labeling
from .verify import NotABijection, SumReport

PRESET_ALIASES = {
    "K": "complete",
    "C": "cycle",
    "P": "path",
    "S": "star",
    "Kab": "complete_bipartite",
}


class SpecError(ValueError):
    """Malformed descriptor file."""


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def graph_from_json(obj: Mapping[str, Any]) -> Graph:
    """Parse a graph descriptor: either {"kind", "params"} or
    {"vertices", "edges"[, "names"]}."""
    if not isinstance(obj, Mapping):
        raise SpecError("graph descriptor must be an object")
    if "kind" in obj:
        kind = PRESET_ALIASES.get(obj["kind"], obj["kind"])
        params = obj.get("params", [])
        if not isinstance(params, list):
            raise SpecError("params must be a list of integers")
        return preset_graph(kind, params)
    if "vertices" in obj and "edges" in obj:
        edges = [tuple(e) for e in obj["edges"]]
        return make_graph(int(obj["vertices"]), edges, obj.get("names"))
    raise SpecError("graph descriptor needs either kind/params or vertices/edges")


def graph_to_json(g: Graph) -> dict[str, Any]:
    out: dict[str, Any] = {
        "vertices": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges],
    }
    if g.names is not None:
        out["names"] = list(g.names)
    return out


def instance_from_json(obj: Mapping[str, Any]) -> tuple[CoronaInstance, dict[str, bool]]:
    """Parse an instance descriptor and return it with its options.

    Shape: {"base": {"type": "pan"|"spider", "param": k},
            "attachments": [graph descriptors...],
            "options": {"force": bool, "normalize": bool}}
    """
    if not isinstance(obj, Mapping):
        raise SpecError("instance descriptor must be an object")
    base = obj.get("base")
    if not isinstance(base, Mapping) or "type" not in base or "param" not in base:
        raise SpecError("base must be an object with type and param")
    raw_attachments = obj.get("attachments")
    if not isinstance(raw_attachments, list):
        raise SpecError("attachments must be a list of graph descriptors")
    attachments = [graph_from_json(a) for a in raw_attachments]
    options_obj = obj.get("options", {})
    if not isinstance(options_obj, Mapping):
        raise SpecError("options must be an object")
    options = {
        "force": bool(options_obj.get("force", False)),
        "normalize": bool(options_obj.get("normalize", False)),
    }
    if options["normalize"]:
        attachments = list(normalize_attachments(attachments))
    base_type = base["type"]
    param = base["param"]
    if isinstance(param, bool) or not isinstance(param, int):
        raise SpecError(f"base param must be an integer, got {param!r}")
    if base_type == "pan":
        return build_type1(param, attachments), options
    if base_type == "spider":
        return build_type2(param, attachments), options
    raise SpecError(f"unknown base type {base_type!r}")


def role_to_str(role: EdgeRole) -> str:
    if isinstance(role, BaseEdgeRole):
        return f"base:{role.index}"
    if isinstance(role, InternalEdgeRole):
        return f"internal:{role.block}"
    if isinstance(role, CrossEdgeRole):
        return f"cross:{role.block}:{role.base_vertex}:{role.attachment_index}"
    raise TypeError(f"unknown role {role!r}")


def labeling_to_json(
    g: Graph,
    labeling: Labeling,
    roles: Sequence[EdgeRole] | None = None,
    sums: Sequence[int] | None = None,
) -> dict[str, Any]:
    edges = []
    for edge_id, (u, v) in enumerate(g.edges):
        entry: dict[str, Any] = {"u": u, "v": v, "label": labeling.labels[edge_id]}
        if roles is not None:
            entry["role"] = role_to_str(roles[edge_id])
        edges.append(entry)
    out: dict[str, Any] = {"edges": edges}
    if sums is not None:
        out["sums"] = list(sums)
    return out


def labeling_from_json(obj: Mapping[str, Any], g: Graph) -> Labeling:
    """Rebuild a labeling for g from an exported edge list, matching by
    vertex pair. An edge listed twice is rejected; bijectivity of the labels
    is left to the verifier."""
    if not isinstance(obj, Mapping) or "edges" not in obj:
        raise SpecError("labeling descriptor needs an edges list")
    by_pair: dict[tuple[int, int], int] = {}
    for entry in obj["edges"]:
        u, v, label = int(entry["u"]), int(entry["v"]), int(entry["label"])
        pair = (min(u, v), max(u, v))
        if pair in by_pair:
            raise NotABijection(f"labeling lists edge {pair} twice")
        by_pair[pair] = label
    labels = []
    for u, v in g.edges:
        if (u, v) not in by_pair:
            raise SpecError(f"labeling is missing edge ({u}, {v})")
        labels.append(by_pair[(u, v)])
    if len(by_pair) != g.edge_count:
        raise SpecError("labeling lists edges not present in the graph")
    return Labeling(tuple(labels), g.edge_count)


def labeling_to_csv(g: Graph, labeling: Labeling) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["edge_u", "edge_v", "label"])
    for edge_id, (u, v) in enumerate(g.edges):
        writer.writerow([u, v, labeling.labels[edge_id]])
    return buf.getvalue()


def labeling_from_csv(text: str, g: Graph) -> Labeling:
    reader = csv.reader(_io.StringIO(text))
    header = next(reader, None)
    if header != ["edge_u", "edge_v", "label"]:
        raise SpecError("csv header must be edge_u,edge_v,label")
    entries = [{"u": row[0], "v": row[1], "label": row[2]} for row in reader if row]
    return labeling_from_json({"edges": entries}, g)


def to_dot(
    g: Graph,
    labeling: Labeling | None = None,
    sums: Sequence[int] | None = None,
) -> str:
    """Graphviz output with edge labels and per-vertex sums when given."""
    lines = ["graph antimagic {"]
    for v in range(g.vertex_count):
        label = g.name_of(v)
        if sums is not None:
            label += f"\\nw={sums[v]}"
        lines.append(f'  {v} [label="{label}"];')
    for edge_id, (u, v) in enumerate(g.edges):
        if labeling is not None:
            lines.append(f'  {u} -- {v} [label="{labeling.labels[edge_id]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def sum_report_to_json(g: Graph, report: SumReport) -> dict[str, Any]:
    named = {f"w({g.name_of(v)})": s for v, s in enumerate(report.sums)}
    out: dict[str, Any] = {
        "vertex_sums": named,
        "is_antimagic": report.is_antimagic,
        "duplicate_groups": [list(grp) for grp in report.duplicate_groups],
    }
    if report.chain:
        out["chain"] = [{"name": name, "holds": holds} for name, holds in report.chain]
    return out
