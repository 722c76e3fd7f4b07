"""JSON, CSV, and DOT serialization for graphs, instances, and labelings.

JSON output is canonical: for every JSON value, `canonical_dumps` returns
exactly `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`
followed by one newline, written as UTF-8. Lists and str-keyed dicts go
through one container path: their items, a dict's in key order, are
written through row templates, many scalars or dict rows filled by one
`%`, with columns typed by exact type, so `bool` is never written by
`%d`. Exporting and re-importing a graph or labeling is lossless. A labeling document's edge
roles are the strings of `CoronaInstance.edge_roles`, written as given.

`labeling_chunks` and `graph_chunks` write a labeling document, JSON or
CSV, and a graph descriptor as chunks of text rendered straight from the
graph's edges and the labels, roles and sums, with the same row templates
and the same bytes, so that a writer can pass each chunk on as it comes and
hold neither one object per edge nor the whole document.
`labeling_to_json` builds the same labeling document as a value.

`graph_from_json` and `labeling_from_json` also take the open binary file
of a document. A document in the layout the chunk writers use is read
forward once, `_PIECE` bytes at a time, and its rows are parsed in pieces
cut at row separators, so that neither the document's bytes nor a JSON
value per edge is held for the whole document; any other document, and
any piece that does not read cleanly, is read whole from the file's
start, with the same result or the same error. `labeling_from_csv` reads
its rows one at a time.

Readers take JSON values by exact type: integers are `int` and never
`bool`, flags are `bool`. A malformed descriptor raises `SpecError`; a
malformed labeling entry raises `NotABijection`.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
import sys
from collections import Counter
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

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
    read alike, as items: items of one scalar type, or flat dicts with the
    same str keys (the labeling edges, the report chain). Each shape has
    one row template, after a `"key": ` field for a dict, repeated `_CHUNK`
    times and filled by one `%` per chunk of rows; other items, such as
    lists, fill the template `%s` one by one. Columns are typed by exact
    type: `int` values fill `%d` fields as they are, `str` values fill `%s`
    fields through `encode_basestring`, and `bool`, an `int` subclass,
    fills `%s` with `true`/`false`. Everything else goes through
    `json.dumps`.
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


# The layout of a document whose first key is "edges", as `canonical_dumps`
# writes it: the chunk writers emit it and `_pieces` cuts on it.
_EDGES_OPEN = '{\n  "edges": [\n    '
_ROW_SEP = ",\n    "
_EDGES_CLOSE = "\n  ]"
_GRAPH_ROW = "[\n      %d,\n      %d\n    ]"
_LABELING_ROW = "{\n      %s\n    }"  # filled with the fields, joined by ",\n      "
_PIECE = 1 << 16  # bytes taken from a file by one read, about the row text of one json.loads


def _edge_rows(row: str, count: int, *columns: Iterable[Any]) -> Iterator[str]:
    """The document up to the end of its "edges" list: `count` rows from
    the template `row` and the columns, `_CHUNK` rows per chunk."""
    if not count:
        yield '{\n  "edges": []'
        return
    yield _EDGES_OPEN
    yield from _chunks(row, count, _ROW_SEP, *columns)
    yield _EDGES_CLOSE


def _pieces(file: BinaryIO, row: str, doc: dict[str, Any]) -> Iterator[list[Any]]:
    """Read a document that `_edge_rows` wrote with the template `row`
    forward, once, from the start of the seekable binary file `file`: the
    rows of its "edges" list, one parsed list per piece, and then the rest
    of the document, put in `doc` with that list empty.

    After the head, the file is read `_PIECE` bytes at a time into one
    buffer, and only bytes not searched yet are searched: for the first
    `_EDGES_CLOSE`, else for the last row separator: a comma, a newline,
    the indent and the row's first character. While no close turns up,
    the buffer up to that separator is a piece, parsed and dropped, so the
    buffer holds about a piece and a row; the close ends the last piece,
    and the rest of the document is read and parsed after it, by `_REST`.
    A JSON string holds no raw newline, and bytes of a multi-byte UTF-8
    character are never ASCII. Every piece must parse as a non-empty JSON
    list once brackets close it, and the rest of the document must parse
    with no key repeated (json.loads keeps the last of two "edges"). Then
    json.loads of the whole text would give the same value, with the rows
    in its "edges" list. Otherwise this raises ValueError (a JSON, UTF-8 or
    int-digits error among them) or RecursionError: the layout is not this
    program's, so the caller reads the document whole.
    """
    head, close, sep = _EDGES_OPEN.encode(), _EDGES_CLOSE.encode(), (_ROW_SEP + row[0]).encode()
    file.seek(0)
    if file.read(len(head)) != head:
        raise SpecError("not an edge list in this program's layout")
    buf, stop = bytearray(), -1
    while stop < 0:
        new = max(len(buf) - len(sep), 0)  # searched before, but for a match that spans two reads
        more = file.read(_PIECE)
        if not more:
            raise SpecError("the file ends inside the rows")
        buf += more
        stop = buf.find(close, new)
        cut = stop if stop >= 0 else buf.rfind(sep, new)
        if cut >= 0:
            rows = json.loads("[" + buf[:cut].decode("utf-8") + "]")
            if not rows:
                raise SpecError("an empty piece of rows")
            yield rows
            del buf[: cut + 1]  # past the comma, or the close's newline
    doc.update(_REST.decode((head + buf + file.read()).decode("utf-8")))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise SpecError("a key repeats")
    return obj


# What json.loads(text, object_pairs_hook=_unique_keys) does for a text
# with no byte order mark, with one decoder for every read. json.loads
# makes a decoder and a scanner per call when given a hook; made at the
# end of each read, those objects left the wide-blocks benchmark's
# resident set creeping up by about 1 MB a pass.
_REST = json.JSONDecoder(object_pairs_hook=_unique_keys)


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
    dict with the same str keys and each column holds one scalar type; else
    None."""
    if set(map(type, items)) != {dict} or len(set(map(len, items))) != 1 or set(map(type, items[0])) != {str}:
        return None
    keys = sorted(items[0])
    try:  # equal sizes and the first row's keys make one key set
        typed = [_column(list(map(itemgetter(k), items))) for k in keys]
    except KeyError:
        return None
    if None in typed:
        return None
    fields, columns = zip(*typed)
    inner = "\n" + _INDENT * (level + 1)
    prefixes = [encode_basestring(k).replace("%", "%%") + ": " for k in keys]
    row = "{" + inner + ("," + inner).join(map(str.__add__, prefixes, fields))
    return (row + "\n" + _INDENT * level + "}", *columns)


def graph_from_json(obj: Mapping[str, Any] | BinaryIO, source: object = "<file>") -> Graph:
    """Parse a graph descriptor: either {"kind", "params"} or
    {"vertices", "edges"[, "names"]}. `obj` is the parsed value, or the
    open binary file of the file `source`, read as `load_json` reads it."""
    if isinstance(obj, _io.IOBase):
        return _read_document(obj, source, _graph_from_pieces, graph_from_json)
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
        edges = _edge_pairs(edges)
        names = obj.get("names")
        if names is not None and not isinstance(names, list):
            raise SpecError("names must be a list of strings")
        return make_graph(vertices, edges, names)
    raise SpecError("graph descriptor needs either kind/params or vertices/edges")


def _edge_pairs(edges: Any) -> list[list[int]]:
    if (
        not isinstance(edges, list)
        or not set(map(type, edges)) <= {list}
        or not set(map(len, edges)) <= {2}
        or not set(map(type, chain.from_iterable(edges))) <= {int}
    ):
        raise SpecError("edges must be a list of [u, v] integer pairs")
    return edges


def _read_document(file: BinaryIO, source: object, read: Callable[..., Any], whole: Callable[..., Any]) -> Any:
    """What `read` takes in pieces from the open binary file `file`; or,
    when that raises ValueError or RecursionError, what `whole` makes of
    the JSON value of the whole document, read from its start by
    `load_json`. A file that cannot seek, such as a pipe, is read into
    memory first."""
    if not file.seekable():
        file = _io.BytesIO(file.read())
    try:
        return read(file)
    except (ValueError, RecursionError):
        pass  # not a clean document in this program's layout
    file.seek(0)
    return whole(load_json(file.read(), source))


def _graph_from_pieces(file: BinaryIO) -> Graph:
    """The graph in a descriptor that `graph_chunks` wrote. Its edge pairs
    go to one `make_graph` with no upper vertex bound as the pieces are
    read, since "vertices" and "names" come after the edges; then the
    whole read's checks of vertices and names are made on no edges, and
    every edge's upper end must be below the vertex count."""
    doc: dict[str, Any] = {}
    g = make_graph(sys.maxsize, chain.from_iterable(map(_edge_pairs, _pieces(file, _GRAPH_ROW, doc))))
    shell = graph_from_json(doc)
    if "kind" in doc or max(map(itemgetter(1), g.edges)) >= shell.vertex_count:
        raise SpecError("a preset descriptor, or an edge past the vertices")
    return Graph(shell.vertex_count, g.edges, shell.names)


def graph_chunks(g: Graph) -> Iterator[str]:
    """The graph descriptor of g, {"vertices", "edges"[, "names"]}, as
    chunks of text of `_CHUNK` edges each, rendered from g's edge columns:
    the bytes `canonical_dumps` writes for it, with edges as [u, v] lists."""
    yield from _edge_rows(_GRAPH_ROW, g.edge_count, map(itemgetter(0), g.edges), map(itemgetter(1), g.edges))
    if g.names is not None:
        yield ',\n  "names": ' + _encode(g.names, 1)
    yield ',\n  "vertices": %d\n}\n' % g.vertex_count


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
    yield from _edge_rows(_LABELING_ROW % ",\n      ".join(fields), g.edge_count, *columns)
    if sums is not None:
        yield ',\n  "sums": ' + _encode(list(sums), 1)
    yield "\n}\n"


def labeling_from_json(obj: Mapping[str, Any] | BinaryIO, g: Graph, source: object = "<file>") -> Labeling:
    """Rebuild a labeling for g from an exported edge list, matching by
    vertex pair. Entries need exact integers (not booleans) for u, v and
    label, and an edge listed twice is rejected; bijectivity of the labels
    is left to the verifier. `obj` is the parsed value, or the open binary
    file of the file `source`, read as `load_json` reads it."""
    if isinstance(obj, _io.IOBase):
        return _read_document(
            obj, source, lambda file: _labeling_from_pieces(file, g), lambda doc: labeling_from_json(doc, g)
        )
    if not isinstance(obj, Mapping) or not isinstance(obj.get("edges"), list):
        raise SpecError("labeling descriptor needs an edges list")
    us, vs, labels = _entry_columns(obj["edges"])
    return Labeling(tuple(_ordered_labels(g.edges, us, vs, labels)), g.edge_count)


def _labeling_from_pieces(file: BinaryIO, g: Graph) -> Labeling:
    """The labeling in a document that `labeling_chunks` wrote, each piece
    of entries matched to the edges of g at the same positions."""
    labels: list[int] = []
    for entries in _pieces(file, _LABELING_ROW, {}):
        edges = g.edges[len(labels) : len(labels) + len(entries)]
        labels += _ordered_labels(edges, *_entry_columns(entries))
    if len(labels) != g.edge_count:
        raise SpecError("labeling lists fewer edges than the graph")
    return Labeling(tuple(labels), g.edge_count)


def _entry_columns(entries: list[Any]) -> list[list[int]]:
    """The u, v and label columns of labeling entries, each value an int."""
    if not set(map(type, entries)) <= {dict}:
        raise NotABijection("labeling entries must be objects with integer u, v and label")
    try:
        columns = [list(map(itemgetter(key), entries)) for key in ("u", "v", "label")]
    except KeyError as exc:
        raise NotABijection(f"a labeling entry has no {exc.args[0]!r}") from None
    if not set(map(type, chain.from_iterable(columns))) <= {int}:
        bad = next(e for e in entries if {type(e["u"]), type(e["v"]), type(e["label"])} != {int})
        raise NotABijection(f"labeling entry {bad!r} needs integer u, v and label")
    return columns


def _ordered_labels(edges: Sequence[tuple[int, int]], us: list[int], vs: list[int], labels: list[int]) -> list[int]:
    """The labels of `edges`, in their order, from entries given as the
    columns us, vs and labels: as they are when the entries list `edges` in
    that order, else matched by vertex pair. An edge listed twice raises
    NotABijection, a missing or an extra edge SpecError."""
    if us == list(map(itemgetter(0), edges)) and vs == list(map(itemgetter(1), edges)):
        return labels
    pairs = [(u, v) if u < v else (v, u) for u, v in zip(us, vs)]
    by_pair = dict(zip(pairs, labels))
    if len(by_pair) != len(pairs):
        twice = next(pair for pair, n in Counter(pairs).items() if n > 1)
        raise NotABijection(f"labeling lists edge {twice} twice")
    try:
        ordered = list(map(by_pair.__getitem__, edges))
    except KeyError as exc:
        raise SpecError(f"labeling is missing edge {exc.args[0]}") from None
    if len(by_pair) != len(edges):
        raise SpecError("labeling lists edges not present in the graph")
    return ordered


def labeling_from_csv(text: str, g: Graph) -> Labeling:
    """Rebuild a labeling for g from CSV rows edge_u,edge_v,label under that
    header, blank rows skipped, matched to g's edges as `labeling_from_json`
    matches its entries. A csv.Error in any row, then a wrong header, raise
    SpecError; then the first row that is not three integers raises
    NotABijection.

    Rows are read one at a time into int columns: the labels, and the u and
    v columns from the first row that is not g's edge at its position on,
    so a document in g's edge order holds no int per endpoint."""
    edges, labels, us, vs = g.edges, [], [], []
    header = bad = None
    in_order = 0  # leading rows that are g's edges in order
    try:
        # The lines StringIO(text) gives, without its copy of the text at 4 bytes a character.
        for row in csv.reader(map(itemgetter(0), re.finditer(".*\n|.+", text))):
            if header is None:
                header = row
            elif row and bad is None:
                try:
                    u, v, label = map(int, row)
                except ValueError:
                    bad = row
                    continue
                if in_order == len(labels) < len(edges) and edges[in_order] == (u, v):
                    in_order += 1
                else:
                    us.append(u)
                    vs.append(v)
                labels.append(label)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise SpecError(f"labeling is not readable CSV: {exc}") from None
    if header != ["edge_u", "edge_v", "label"]:
        raise SpecError("csv header must be edge_u,edge_v,label")
    if bad is not None:
        raise NotABijection(f"csv row {bad!r} needs integer edge_u, edge_v and label")
    if us or in_order < len(edges):
        us[:0] = map(itemgetter(0), edges[:in_order])
        vs[:0] = map(itemgetter(1), edges[:in_order])
        labels = _ordered_labels(edges, us, vs, labels)
    return Labeling(tuple(labels), g.edge_count)


def decode_text(data: bytes, source: object) -> str:
    """The bytes of the file `source` as `Path.read_text` reads them: UTF-8,
    with universal newlines. Bytes that are not UTF-8 raise SpecError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_json(data: bytes, source: object) -> Any:
    """The JSON value in the bytes of the file `source`, read by
    `decode_text`. Text too deeply nested to read, or an integer longer
    than `sys.get_int_max_str_digits()`, raises SpecError; malformed JSON
    raises `json.JSONDecodeError` with a message that starts with `source`."""
    text = decode_text(data, source)
    try:
        return json.loads(text)
    except RecursionError:
        raise SpecError(f"{source}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{source}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise SpecError(f"{source}: {exc}") from None


def to_dot(
    g: Graph,
    labeling: Labeling | None = None,
    sums: Sequence[int] | None = None,
) -> str:
    """Graphviz output with edge labels and per-vertex sums when given."""
    names = g.names or map(str, range(g.vertex_count))
    # Inside a quoted DOT string, backslash and double quote are escaped.
    escaped = (name.replace("\\", "\\\\").replace('"', '\\"') for name in names)
    vertex_row, vertex_columns = '  %d [label="%s"];\n', [range(g.vertex_count), escaped]
    if sums is not None:
        vertex_row, vertex_columns = '  %d [label="%s\\nw=%d"];\n', [*vertex_columns, sums]
    edge_row, edge_columns = "  %d -- %d;\n", [map(itemgetter(0), g.edges), map(itemgetter(1), g.edges)]
    if labeling is not None:
        edge_row, edge_columns = '  %d -- %d [label="%d"];\n', [*edge_columns, labeling.labels]
    vertex_rows = _chunks(vertex_row, g.vertex_count, "", *vertex_columns)
    edge_rows = _chunks(edge_row, g.edge_count, "", *edge_columns)
    return "".join(["graph antimagic {\n", *vertex_rows, *edge_rows, "}\n"])


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
