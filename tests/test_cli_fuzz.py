"""Fuzz of the CLI input boundary: whatever the files hold, a command ends
with a documented exit code and at most one line on stderr, and exit 1
("verified not antimagic") only for a graph and labeling that validate.
Output goes through a strict UTF-8 stream, as it does to a file or a
terminal, and an export that fails writes no `--out` file."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antimagic import io as aio
from antimagic import vertex_sums
from antimagic.cli import main

from .conftest import read_whole

EXIT_CODES = {0, 1, 2, 3, 4, 65}
LONE_SURROGATES = ["\ud800", "a\udfffb"]
TEXT = st.text(max_size=3) | st.sampled_from(["\n", "a\nb", "%s", "é", *LONE_SURROGATES])
SMALL = st.integers(-1, 6)
# Powers of ten with 4,290 to 5,000 digits, on both sides of the limit on
# converting between int and str (4,300 digits by default).
LONG = st.integers(4289, 4999).map(lambda exponent: 10**exponent)
JUNK = st.recursive(
    st.none() | st.booleans() | SMALL | LONG | st.floats(-2, 6) | TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6,
)
KINDS = ["K", "C", "P", "S", "Kab", "complete", "cycle", "star", "diamond", "pan", "spider", "nope"]
PRESETS = st.fixed_dictionaries({"kind": st.sampled_from(KINDS), "params": st.lists(st.integers(0, 5), max_size=2)})
VALID_PRESETS = st.sampled_from(
    [("K", [2]), ("K", [3]), ("complete", [4]), ("K", [5]), ("C", [4]), ("P", [3]), ("S", [4]), ("Kab", [2, 2])]
).map(lambda kp: {"kind": kp[0], "params": kp[1]})


def _corrupt(draw, doc, paths):
    """doc with the value at one of `paths` replaced by junk, sometimes."""
    if draw(st.booleans()):
        return doc
    *outer, last = draw(st.sampled_from(paths))
    target = doc
    for key in outer:
        target = target[key]
    target[last] = draw(JUNK)
    return doc


@st.composite
def explicit_graphs(draw):
    """A simple graph on 0..6 vertices, sometimes with a bad edge, names or
    one field replaced by junk."""
    n = draw(st.integers(0, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=8)) if pairs else []
    if not draw(st.integers(0, 4)):
        edges.append([draw(SMALL), draw(SMALL)])
    graph = {"vertices": n, "edges": edges}
    if draw(st.booleans()):
        names = [f"v{i}" for i in range(n)]
        if n and draw(st.booleans()):  # one name with a lone surrogate
            names[draw(st.integers(0, n - 1))] += draw(st.sampled_from(LONE_SURROGATES))
        graph["names"] = draw(st.lists(TEXT, min_size=n, max_size=n) | st.just(names))
    return _corrupt(draw, graph, [("vertices",), ("edges",), ("names",)])


GRAPHS = PRESETS | VALID_PRESETS | explicit_graphs()


@st.composite
def graphs_with_edges(draw):
    """A simple graph on 2..6 vertices with at least one edge, sometimes
    with names."""
    n = draw(st.integers(2, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    graph = {"vertices": n, "edges": draw(st.lists(st.sampled_from(pairs), unique_by=tuple, min_size=1, max_size=8))}
    if draw(st.booleans()):
        graph["names"] = [f"v{i}" for i in range(n)]
    return graph


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["pan", "spider"]))
    param = draw(st.integers(3, 5) if kind == "pan" else st.integers(1, 3))
    count = (param + 1 if kind == "pan" else 3 * param) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    spec = {
        "base": {"type": kind, "param": param},
        "attachments": draw(st.lists(VALID_PRESETS, min_size=count, max_size=count)),
        "options": {"force": draw(st.booleans()), "normalize": draw(st.booleans())},
    }
    if count and draw(st.booleans()):
        spec["attachments"][draw(st.integers(0, count - 1))] = draw(GRAPHS)
    paths = [("base", "type"), ("base", "param"), ("attachments",), ("options",), ("options", "force"), ("base",)]
    return _corrupt(draw, spec, paths)


@st.composite
def labelings(draw, graph):
    """A labeling document for `graph`: its edge list under a permutation of
    1..|E|, sometimes with one field or entry replaced by junk."""
    edges = graph.get("edges")
    pairs = [e for e in edges if type(e) is list and len(e) == 2] if type(edges) is list else []
    labels = draw(st.permutations(range(1, len(pairs) + 1)))
    entries = [{"u": p[0], "v": p[1], "label": label} for p, label in zip(pairs, labels)]
    doc = {"edges": entries}
    paths = [("edges",)] + [("edges", i, key) for i in range(len(entries)) for key in ("u", "v", "label")]
    return _corrupt(draw, doc, paths)


@contextlib.contextmanager
def any_int_digits():
    """Lift the limit on int to str conversion, so that `LONG` values can be
    written into the files; reading them back is what the CLI must survive."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _dumps(doc, **kwargs):
    with any_int_digits():
        return json.dumps(doc, **kwargs)


def _csv(doc):
    entries = doc["edges"] if isinstance(doc["edges"], list) else []
    with any_int_digits():
        rows = [f"{e.get('u')},{e.get('v')},{e.get('label')}" for e in entries if isinstance(e, dict)]
    return "\n".join(["edge_u,edge_v,label", *rows, ""]).encode("utf-8", "surrogatepass")


# Nesting on both sides of the depth `json.loads` accepts, where code that
# walks or reprs a parsed value is closest to the recursion limit.
DEPTHS = st.integers(sys.getrecursionlimit() - 400, sys.getrecursionlimit()) | st.just(100_000)
DEEP_TEMPLATES = [
    "DEEP",
    '{"base": {"type": DEEP, "param": 3}, "attachments": []}',
    '{"base": {"type": "pan", "param": DEEP}, "attachments": []}',
    '{"base": {"type": "spider", "param": 1}, "attachments": [DEEP, DEEP, DEEP]}',
    '{"base": {"type": "pan", "param": 3}, "attachments": [{"kind": DEEP}]}',
    '{"base": {"type": "pan", "param": 3}, "attachments": [], "options": {"force": DEEP}}',
    '{"vertices": DEEP, "edges": []}',
    '{"vertices": 2, "edges": [[0, 1]], "names": DEEP}',
    '{"kind": "K", "params": [DEEP]}',
    '{"edges": [{"u": DEEP, "v": 1, "label": 1}]}',
    '{"edges": [{"u": 0, "v": 1, "label": 1}, DEEP]}',
]
PIECES = st.sampled_from([1, 40, aio._PIECE])  # bytes of rows per piece read
DEEP = st.builds(lambda d, t: t.replace("DEEP", "[" * d + "]" * d).encode(), DEPTHS, st.sampled_from(DEEP_TEMPLATES))


def _laid_out(doc):
    """doc as UTF-8 in the layout this program writes its documents in."""
    return (_dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8", "surrogatepass")


# Bytes that separate, open or close JSON values, digits, and a byte no
# UTF-8 text holds.
EDIT_BYTES = [bytes([byte]) for byte in b',\n []{}"09\xff']


@st.composite
def one_byte_changed(draw, data):
    """data with one byte replaced, deleted or inserted."""
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):  # integers are drawn toward 0: count from either end
        at = len(data) - at
    how = draw(st.sampled_from(["replace", "delete", "insert"]) if at < len(data) else st.just("insert"))
    byte = b"" if how == "delete" else draw(st.sampled_from(EDIT_BYTES))
    return data[:at] + byte + data[at + (how != "insert") :]


def contents(docs):
    """File bytes: a JSON document as UTF-8, in another encoding, raw bytes,
    a document holding a deeply nested value, or a document in the layout
    this program writes (sorted keys, an indent of 2), as it is or with one
    byte changed, which the piecewise readers take."""
    encoded = st.tuples(docs, st.sampled_from(["utf-16", "utf-8-sig", "latin-1"])).map(
        lambda pair: _dumps(pair[0], ensure_ascii=False).encode(pair[1], "replace")
    )
    plain = docs.map(lambda doc: _dumps(doc).encode())
    laid_out = docs.map(_laid_out).flatmap(lambda data: st.just(data) | one_byte_changed(data))
    return st.integers(0, 3).flatmap(
        lambda i: [encoded | st.binary(max_size=24) | DEEP, plain, laid_out, laid_out][i]
    )


def _validates(graph_bytes, labeling_path):
    """Whether the graph and labeling parse, and the sums are not antimagic."""
    try:
        g = aio.graph_from_json(json.loads(graph_bytes.decode("utf-8")))
        text = labeling_path.read_text(encoding="utf-8")
        if labeling_path.suffix == ".csv":
            labeling = aio.labeling_from_csv(text, g)
        else:
            labeling = aio.labeling_from_json(json.loads(text), g)
        return not vertex_sums(g, labeling).is_antimagic
    except (ValueError, TypeError, KeyError, RecursionError):
        return False


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)


def _run(argv):
    """Exit code, standard output and standard error of `antimagic <argv>`,
    with output through a strict UTF-8 stream."""
    err = io.StringIO()
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out.seek(0)
        return code, out.read(), err.getvalue()


def _within_contract(argv, code, stderr):
    assert code in EXIT_CODES, (argv, code, stderr)
    assert "Traceback" not in stderr
    assert stderr.count("\n") <= 1, stderr


@SETTINGS
@given(st.data())
def test_cli_input_boundary(data):
    command = data.draw(st.sampled_from(["label", "build", "conditions", "verify", "export"]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        labeling = None
        if command in ("label", "build", "conditions"):
            spec = root / "spec.json"
            spec.write_bytes(data.draw(contents(specs())))
            argv = [command, str(spec)]
            if command == "label":
                argv += ["--format", data.draw(st.sampled_from(["json", "csv", "dot"]))]
        else:
            graph_doc = data.draw(explicit_graphs() | GRAPHS)
            graph_bytes = data.draw(contents(st.just(graph_doc)))
            graph = root / "graph.json"
            graph.write_bytes(graph_bytes)
            labeling_doc = data.draw(labelings(graph_doc))
            suffix = data.draw(st.sampled_from([".json", ".csv"]))
            labeling = root / f"labeling{suffix}"
            if suffix == ".csv" and data.draw(st.booleans()):
                labeling.write_bytes(_csv(labeling_doc))
            else:
                labeling.write_bytes(data.draw(contents(st.just(labeling_doc))))
            argv = [command, str(graph)]
            if command == "verify":
                argv.append(str(labeling))
            else:
                argv += ["--format", data.draw(st.sampled_from(["json", "csv", "dot"]))]
                if data.draw(st.booleans()):
                    argv += ["--labeling", str(labeling)]
                if data.draw(st.booleans()):
                    argv += ["--out", str(root / "out")]
        with mock.patch.object(aio, "_PIECE", data.draw(PIECES)):
            code, _, stderr = _run(argv)
        if code == 1:
            assert command == "verify" and _validates(graph_bytes, labeling), argv
        assert code == 0 or not (root / "out").exists(), argv
    _within_contract(argv, code, stderr)


@SETTINGS
@given(st.data())
def test_cli_reads_its_own_layout_as_a_whole_read_does(data):
    """A graph with edges and its labeling, written in this program's
    layout, one of the two with one byte changed: `verify` and `export` end
    as they do when every document is read whole."""
    graph_doc = data.draw(graphs_with_edges())
    files = {"graph.json": _laid_out(graph_doc), "labeling.json": _laid_out(data.draw(labelings(graph_doc)))}
    changed = data.draw(st.sampled_from(sorted(files)))
    files[changed] = data.draw(one_byte_changed(files[changed]))
    with tempfile.TemporaryDirectory() as tmp:
        graph, labeling = Path(tmp) / "graph.json", Path(tmp) / "labeling.json"
        for path in (graph, labeling):
            path.write_bytes(files[path.name])
        argv = data.draw(st.sampled_from([
            ["verify", str(graph), str(labeling)],
            ["export", str(graph), "--format", "json"],
            ["export", str(graph), "--format", "dot", "--labeling", str(labeling)],
        ]))
        with mock.patch.object(aio, "_PIECE", data.draw(PIECES)):
            piecewise = _run(argv)
            with mock.patch.object(aio, "_pieces", read_whole):
                assert _run(argv) == piecewise, argv
    _within_contract(argv, piecewise[0], piecewise[2])
