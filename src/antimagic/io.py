"""JSON, CSV, and DOT serialization for graphs, instances, and labelings.

JSON output is canonical: for every JSON value, `canonical_dumps` returns
exactly `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`
followed by one newline, written as UTF-8. Lists and str-keyed dicts go
through one container path: their items, a dict's in key order, are
written through row templates, many rows filled by one `%`, with columns
typed by exact type, so `bool` is never written by `%d`. Exporting and
re-importing a graph or labeling is lossless. A labeling document's edge
roles are the strings of `CoronaInstance.edge_roles`, written as given.

`labeling_chunks` writes a labeling document, JSON or CSV, as chunks of
text rendered straight from the graph's edges and the labels, roles and
sums, with the same row templates and the same bytes, so that a writer
can pass each chunk on as it comes and hold neither one dict per edge nor
the whole document. `labeling_to_json` builds the same document as a value.

Readers take JSON values by exact type: integers are `int` and never
`bool`, flags are `bool`. A malformed descriptor raises `SpecError`; a
malformed labeling entry raises `NotABijection`.
"""

from __future__ import annotations

import csv
import io as _io
import json
from collections import Counter
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .corona import CoronaInstance, build_type1, build_type2, normalize_attachments
from .graphs import Graph, Labeling, make_graph, preset_graph
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
    """`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)` plus a
    newline, byte for byte.

    `indent` sends `json` to its pure-Python encoder, so this renders the
    bulk shapes itself. A list and the values of a dict with str keys are
    read alike, as items: items of one scalar type, or flat rows of one
    shape (the labeling edges, the report chain, the composite's edge
    pairs). Each shape has one row template, after a `"key": ` field for a
    dict, repeated `_CHUNK` times and filled by one `%` per chunk of rows;
    other items fill the template `%s` one by one. Columns are
    typed by exact type: `int` values fill `%d` fields as they are, `str`
    values fill `%s` fields through `encode_basestring`, and `bool`, an
    `int` subclass, fills `%s` with `true`/`false`. Everything else goes
    through `json.dumps`.
    """
    try:
        return _encode(obj, 0) + "\n"
    except RecursionError:  # circular or very deep: let json decide
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_INDENT = "  "
_CHUNK = 512  # rows filled by one % call
# Conversion and renderer for each exact scalar type; bool is not an int here.
_SCALARS: dict[type, tuple[str, Any]] = {
    int: ("%d", None),
    str: ("%s", encode_basestring),
    bool: ("%s", {False: "false", True: "true"}.__getitem__),
}


def _encode(obj: Any, level: int) -> str:
    kind = type(obj)
    if kind in _SCALARS:
        field, render = _SCALARS[kind]
        return field % (obj if render is None else render(obj))
    inner = "\n" + _INDENT * (level + 1)
    outer = "\n" + _INDENT * level
    if kind is dict and set(map(type, obj)) <= {str}:
        keys = sorted(obj)
        items = list(map(obj.__getitem__, keys))
        brackets, prefix, key_columns = "{}", "%s: ", [map(encode_basestring, keys)]
    elif kind is list or kind is tuple:
        items, brackets, prefix, key_columns = obj, "[]", "", []
    else:
        # Floats, None, subclasses, non-str keys: JSON text holds no raw
        # newline, so indenting every line break places the subtree at `level`.
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", outer)
    if not items:
        return brackets
    row, *columns = _column(items) or _rows(items, level + 1) or ("%s", map(_encode, items, repeat(level + 1)))
    body = "".join(_chunks(prefix + row, len(items), "," + inner, *key_columns, *columns))
    return f"{brackets[0]}{inner}{body}{outer}{brackets[1]}"


def _chunks(row: str, count: int, sep: str, *columns: Iterable[Any]) -> Iterator[str]:
    """`count` copies of the template `row`, joined by `sep` and filled in
    order with one value from each column per row: one chunk of text per
    `_CHUNK` rows, each filled by one `%`."""
    values = chain.from_iterable(zip(*columns))
    full, tail = divmod(count, _CHUNK)
    if full:
        first = sep.join([row] * _CHUNK)
        rest = sep + first
        for n in range(full):
            yield (rest if n else first) % tuple(islice(values, _CHUNK * len(columns)))
    if tail:
        yield ((sep if full else "") + sep.join([row] * tail)) % tuple(values)


def _column(values: Sequence[Any]) -> tuple[str, Iterable[Any]] | None:
    """The conversion and rendered column when all values share one scalar
    type, else None."""
    kinds = set(map(type, values))
    if len(kinds) != 1 or (kind := kinds.pop()) not in _SCALARS:
        return None
    field, render = _SCALARS[kind]
    return field, values if render is None else map(render, values)


def _rows(items: Sequence[Any], level: int) -> tuple[Any, ...] | None:
    """The row template at `level`, then its columns, when every item is a
    dict with the same str keys, or every item a list or tuple of the same
    length, and each column holds one scalar type; else None."""
    kinds = set(map(type, items))
    if kinds != {dict} and not kinds <= {list, tuple}:
        return None
    widths = set(map(len, items))
    if len(widths) != 1 or 0 in widths:
        return None
    if kinds == {dict}:
        if set(map(type, items[0])) != {str}:
            return None
        keys: Sequence[Any] = sorted(items[0])
        prefixes = [encode_basestring(k).replace("%", "%%") + ": " for k in keys]
        brackets = "{}"
    else:
        keys = range(widths.pop())
        prefixes = [""] * len(keys)
        brackets = "[]"
    try:  # equal sizes and the first row's keys make one key set
        typed = [_column(list(map(itemgetter(k), items))) for k in keys]
    except KeyError:
        return None
    if None in typed:
        return None
    fields, columns = zip(*typed)
    inner = "\n" + _INDENT * (level + 1)
    row = brackets[0] + inner + ("," + inner).join(map(str.__add__, prefixes, fields))
    return (row + "\n" + _INDENT * level + brackets[1], *columns)


def graph_from_json(obj: Mapping[str, Any]) -> Graph:
    """Parse a graph descriptor: either {"kind", "params"} or
    {"vertices", "edges"[, "names"]}."""
    if not isinstance(obj, Mapping):
        raise SpecError("graph descriptor must be an object")
    if "kind" in obj:
        kind = obj["kind"]
        if not isinstance(kind, str):
            raise SpecError(f"kind must be a string, got {kind!r}")
        kind = PRESET_ALIASES.get(kind, kind)
        params = obj.get("params", [])
        if not isinstance(params, list) or not set(map(type, params)) <= {int}:
            raise SpecError("params must be a list of integers")
        return preset_graph(kind, params)
    if "vertices" in obj and "edges" in obj:
        vertices, edges = obj["vertices"], obj["edges"]
        if isinstance(vertices, bool) or not isinstance(vertices, int):
            raise SpecError(f"vertices must be an integer, got {vertices!r}")
        if (
            not isinstance(edges, list)
            or not set(map(type, edges)) <= {list}
            or not set(map(len, edges)) <= {2}
            or not set(map(type, chain.from_iterable(edges))) <= {int}
        ):
            raise SpecError("edges must be a list of [u, v] integer pairs")
        names = obj.get("names")
        if names is not None and not isinstance(names, list):
            raise SpecError("names must be a list of strings")
        return make_graph(vertices, edges, names)
    raise SpecError("graph descriptor needs either kind/params or vertices/edges")


def graph_to_json(g: Graph) -> dict[str, Any]:
    """The graph descriptor of g. Edges and names are g's own tuples, which
    `canonical_dumps` writes exactly as lists."""
    out: dict[str, Any] = {"vertices": g.vertex_count, "edges": list(g.edges)}
    if g.names is not None:
        out["names"] = g.names
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
    attachments = _shared_graphs(raw_attachments)
    options_obj = obj.get("options", {})
    if not isinstance(options_obj, Mapping):
        raise SpecError("options must be an object")
    options = {key: options_obj.get(key, False) for key in ("force", "normalize")}
    for key, value in options.items():
        if type(value) is not bool:
            raise SpecError(f"option {key} must be true or false, got {value!r}")
    if options["normalize"]:
        attachments = list(normalize_attachments(attachments))
    base_type = base["type"]
    param = base["param"]
    if isinstance(param, bool) or not isinstance(param, int):
        raise SpecError(f"base param must be an integer, got {param!r}")
    # Kept as two calls: bench/run.py traces build_type1/build_type2 as io attributes.
    if base_type == "pan":
        return build_type1(param, attachments), options
    if base_type == "spider":
        return build_type2(param, attachments), options
    raise SpecError(f"unknown base type {base_type!r}")


def _shared_graphs(descriptors: Sequence[Any]) -> list[Graph]:
    """One Graph per descriptor, shared by every descriptor that reads
    alike, so that each distinct attachment is validated,
    connectivity-checked and degree-profiled once.

    Descriptors read alike when their `repr`s are equal: for the values
    `json.loads` returns, the same keys in the same order with the same
    values, where `true` is not `1` and `3.0` is not `3`. A descriptor too
    deep to `repr` is read on its own.
    """
    shared: dict[str, Graph] = {}
    graphs = []
    for descriptor in descriptors:
        try:
            key = repr(descriptor)
        except RecursionError:
            graphs.append(graph_from_json(descriptor))
            continue
        if key not in shared:
            shared[key] = graph_from_json(descriptor)
        graphs.append(shared[key])
    return graphs


def labeling_to_json(
    g: Graph,
    labeling: Labeling,
    roles: Sequence[str] | None = None,
    sums: Sequence[int] | None = None,
) -> dict[str, Any]:
    """The labeling as {"edges": [{"u", "v", "label"[, "role"]}...][, "sums"]},
    with `roles` (such as `CoronaInstance.edge_roles`) written as given."""
    columns = {"u": map(itemgetter(0), g.edges), "v": map(itemgetter(1), g.edges), "label": labeling.labels}
    if roles is not None:
        columns["role"] = roles
    edges = [dict(zip(columns, row)) for row in zip(*columns.values(), strict=True)]
    out: dict[str, Any] = {"edges": edges}
    if sums is not None:
        out["sums"] = list(sums)
    return out


def labeling_chunks(
    fmt: str,
    g: Graph,
    labeling: Labeling,
    roles: Sequence[str] | None = None,
    sums: Sequence[int] | None = None,
) -> Iterator[str]:
    """The labeling document in `fmt`, json or csv, as chunks of text of
    `_CHUNK` rows each, rendered straight from g's edges, the int labels,
    one role string per edge and the sums, with no object per edge.

    The json chunks join to `canonical_dumps(labeling_to_json(g, labeling,
    roles, sums))`. The csv document is rows edge_u,edge_v,label under that
    header, each value written as `str` writes it, which is what
    `csv.writer` writes for an integer; it has no roles or sums.
    """
    if len(labeling.labels) != g.edge_count or (roles is not None and len(roles) != g.edge_count):
        raise ValueError(f"labels and roles need one entry per edge, {g.edge_count} in all")
    us, vs = map(itemgetter(0), g.edges), map(itemgetter(1), g.edges)
    if fmt == "csv":
        yield "edge_u,edge_v,label\n"
        yield from _chunks("%s,%s,%s\n", g.edge_count, "", us, vs, labeling.labels)
        return
    fields, columns = ['"label": %d', '"u": %d', '"v": %d'], [labeling.labels, us, vs]
    if roles is not None:
        fields.insert(1, '"role": %s')
        columns.insert(1, map(encode_basestring, roles))
    if g.edge_count:
        yield '{\n  "edges": [\n    '
        row = "{\n      " + ",\n      ".join(fields) + "\n    }"
        yield from _chunks(row, g.edge_count, ",\n    ", *columns)
        yield "\n  ]"
    else:
        yield '{\n  "edges": []'
    if sums is not None:
        yield ',\n  "sums": ' + _encode(list(sums), 1)
    yield "\n}\n"


def labeling_from_json(obj: Mapping[str, Any], g: Graph) -> Labeling:
    """Rebuild a labeling for g from an exported edge list, matching by
    vertex pair. Entries need exact integers (not booleans) for u, v and
    label, and an edge listed twice is rejected; bijectivity of the labels
    is left to the verifier."""
    if not isinstance(obj, Mapping) or not isinstance(obj.get("edges"), list):
        raise SpecError("labeling descriptor needs an edges list")
    entries = obj["edges"]
    if not set(map(type, entries)) <= {dict}:
        raise NotABijection("labeling entries must be objects with integer u, v and label")
    try:
        columns = [list(map(itemgetter(key), entries)) for key in ("u", "v", "label")]
    except KeyError as exc:
        raise NotABijection(f"a labeling entry has no {exc.args[0]!r}") from None
    if not set(map(type, chain.from_iterable(columns))) <= {int}:
        bad = next(e for e in entries if {type(e["u"]), type(e["v"]), type(e["label"])} != {int})
        raise NotABijection(f"labeling entry {bad!r} needs integer u, v and label")
    us, vs, labels = columns
    pairs = [(u, v) if u < v else (v, u) for u, v in zip(us, vs)]
    by_pair = dict(zip(pairs, labels))
    if len(by_pair) != len(pairs):
        twice = next(pair for pair, n in Counter(pairs).items() if n > 1)
        raise NotABijection(f"labeling lists edge {twice} twice")
    try:
        ordered = tuple(map(by_pair.__getitem__, g.edges))
    except KeyError as exc:
        raise SpecError(f"labeling is missing edge {exc.args[0]}") from None
    if len(by_pair) != g.edge_count:
        raise SpecError("labeling lists edges not present in the graph")
    return Labeling(ordered, g.edge_count)


def labeling_from_csv(text: str, g: Graph) -> Labeling:
    try:
        rows = list(csv.reader(_io.StringIO(text)))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise SpecError(f"labeling is not readable CSV: {exc}") from None
    if rows[:1] != [["edge_u", "edge_v", "label"]]:
        raise SpecError("csv header must be edge_u,edge_v,label")
    entries = []
    for row in filter(None, rows[1:]):
        try:
            u, v, label = map(int, row)
        except ValueError:
            raise NotABijection(f"csv row {row!r} needs integer edge_u, edge_v and label") from None
        entries.append({"u": u, "v": v, "label": label})
    return labeling_from_json({"edges": entries}, g)


def to_dot(
    g: Graph,
    labeling: Labeling | None = None,
    sums: Sequence[int] | None = None,
) -> str:
    """Graphviz output with edge labels and per-vertex sums when given."""
    lines = ["graph antimagic {"]
    for v in range(g.vertex_count):
        # Inside a quoted DOT string, backslash and double quote are escaped.
        label = g.name_of(v).replace("\\", "\\\\").replace('"', '\\"')
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
    names = g.names or map(str, range(g.vertex_count))
    named = {f"w({name})": s for name, s in zip(names, report.sums, strict=True)}
    out: dict[str, Any] = {
        "vertex_sums": named,
        "is_antimagic": report.is_antimagic,
        "duplicate_groups": report.duplicate_groups,
    }
    if report.chain:
        out["chain"] = [{"name": name, "holds": holds} for name, holds in report.chain]
    return out
