"""Serialization round trips and descriptor parsing."""

from __future__ import annotations

import csv
import io
import json
import os
import time
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import build_type1, build_type2, cli, io as aio
from antimagic import Labeling, make_graph, preset_graph, run_type1, run_type2, vertex_sums
from antimagic.corona import AttachmentTooSmall, DisconnectedAttachment
from antimagic.graphs import BadParams, IndexOutOfRange
from antimagic.verify import NotABijection

from .conftest import graph_descriptor, layout_mutations


def test_graph_json_round_trip_is_byte_identical():
    g = preset_graph("pan", [5])
    text = "".join(aio.graph_chunks(g))
    assert text == reference_dumps(graph_descriptor(g))
    back = aio.graph_from_json(json.loads(text))
    assert back == g
    assert "".join(aio.graph_chunks(back)) == text


def test_preset_descriptor_aliases():
    for obj, kind, params in [
        ({"kind": "K", "params": [4]}, "complete", [4]),
        ({"kind": "C", "params": [5]}, "cycle", [5]),
        ({"kind": "P", "params": [3]}, "path", [3]),
        ({"kind": "S", "params": [4]}, "star", [4]),
        ({"kind": "Kab", "params": [2, 3]}, "complete_bipartite", [2, 3]),
        ({"kind": "diamond", "params": []}, "diamond", []),
    ]:
        assert aio.graph_from_json(obj) == preset_graph(kind, params)


def test_explicit_descriptor():
    g = aio.graph_from_json({"vertices": 3, "edges": [[0, 1], [1, 2]]})
    assert g.edge_count == 2


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"kind": "complete"},  # missing params is fine, but wrong arity fails
        {"vertices": 3},
        {"kind": "K", "params": 4},
        {"kind": "K", "params": [True]},  # not K1
        {"kind": "K", "params": [False]},
    ],
)
def test_bad_graph_descriptors(obj):
    with pytest.raises(Exception):
        aio.graph_from_json(obj)


@pytest.mark.parametrize("kind", [["K"], {"a": 1}, 3, None], ids=["list", "dict", "int", "null"])
def test_non_string_kind(kind):
    with pytest.raises(aio.SpecError) as exc:
        aio.graph_from_json({"kind": kind, "params": [3]})
    assert str(exc.value) == f"kind must be a string, got {kind!r}"


def test_instance_descriptor_round_trip(spider_p2):
    spec = {
        "base": {"type": "spider", "param": 2},
        "attachments": [
            {"kind": "K", "params": [2]},
            {"kind": "C", "params": [3]},
            {"kind": "C", "params": [3]},
            {"kind": "K", "params": [4]},
            {"kind": "K", "params": [4]},
            {"kind": "K", "params": [4]},
        ],
    }
    inst, options = aio.instance_from_json(spec)
    assert inst.composite == spider_p2.composite
    assert options == {"force": False, "normalize": False}


def test_instance_descriptor_normalize_option():
    spec = {
        "base": {"type": "spider", "param": 1},
        "attachments": [
            {"kind": "K", "params": [4]},
            {"kind": "K", "params": [2]},
            {"kind": "C", "params": [3]},
        ],
        "options": {"normalize": True},
    }
    inst, options = aio.instance_from_json(spec)
    assert options["normalize"]
    assert inst.attachment_orders == (2, 3, 4)


def test_instance_descriptor_errors():
    with pytest.raises(aio.SpecError):
        aio.instance_from_json({"base": {"type": "pan"}, "attachments": []})
    with pytest.raises(aio.SpecError):
        aio.instance_from_json({"base": {"type": "wheel", "param": 3}, "attachments": []})
    with pytest.raises(aio.SpecError):
        aio.instance_from_json({"base": {"type": "pan", "param": 3}})


def _pan_spec(attachments, **options):
    return {"base": {"type": "pan", "param": len(attachments) - 1},
            "attachments": attachments, "options": options}


def _c3():
    return {"kind": "C", "params": [3]}


def test_identical_descriptors_share_one_graph():
    spec = json.loads(json.dumps(_pan_spec([{"kind": "K", "params": [2]}] + [_c3()] * 50)))
    inst, _ = aio.instance_from_json(spec)
    k2, c3 = inst.attachments[0], inst.attachments[1]
    assert all(h is c3 for h in inst.attachments[1:])
    assert k2 is not c3
    assert len({id(h) for h in inst.attachments}) == 2
    separate = build_type1(50, [preset_graph("complete", [2])] + [preset_graph("cycle", [3]) for _ in range(50)])
    assert inst.composite == separate.composite
    assert inst.edge_roles == separate.edge_roles


@pytest.mark.parametrize(
    "descriptors, groups",
    [
        # Aliases are different JSON values, so they read apart.
        ([{"kind": "K", "params": [3]}, {"kind": "complete", "params": [3]}] * 2, [0, 1, 0, 1]),
        ([{"kind": "K", "params": [3]}, {"kind": "K", "params": [4]}] * 2, [0, 1, 0, 1]),
        (
            [
                {"vertices": 2, "edges": [[0, 1]], "names": ["a", "b"]},
                {"vertices": 2, "edges": [[0, 1]], "names": ["a", "c"]},
                {"vertices": 2, "edges": [[0, 1]]},
            ]
            * 2,
            [0, 1, 2, 0, 1, 2],
        ),
    ],
)
def test_different_descriptors_stay_separate(descriptors, groups):
    spec = _pan_spec(json.loads(json.dumps(descriptors)))
    inst, _ = aio.instance_from_json(spec)
    for i, g in enumerate(inst.attachments):
        assert g == aio.graph_from_json(descriptors[i])
        for j, h in enumerate(inst.attachments):
            assert (g is h) == (groups[i] == groups[j])


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({"kind": "K", "params": [1]}, AttachmentTooSmall, "attachment at position 2 has < 2 vertices"),
        ({"vertices": 3, "edges": [[0, 1]]}, DisconnectedAttachment, "attachment at position 2 is disconnected"),
        ({"kind": "K", "params": [True]}, aio.SpecError, "params must be a list of integers"),
        ({"kind": "K", "params": [3, 4]}, BadParams, "complete expects 1 parameter"),
    ],
)
def test_repeated_malformed_descriptor_fails_at_its_position(bad, error, message):
    spec = _pan_spec([{"kind": "K", "params": [2]}, _c3(), bad, _c3(), bad, _c3()])
    with pytest.raises(error, match=message):
        aio.instance_from_json(json.loads(json.dumps(spec)))


def test_normalize_stable_sorts_shared_graphs():
    p3, c3, k2, k4 = ({"kind": k, "params": [n]} for k, n in (("P", 3), ("C", 3), ("K", 2), ("K", 4)))
    spec = _pan_spec([k4, p3, c3, p3, k2, c3, k2], normalize=True)
    inst, _ = aio.instance_from_json(json.loads(json.dumps(spec)))
    order = [k2, k2, p3, c3, p3, c3, k4]
    assert list(inst.attachments) == [aio.graph_from_json(d) for d in order]
    assert inst.attachments[0] is inst.attachments[1]
    assert inst.attachments[2] is inst.attachments[4] is not inst.attachments[3]
    assert inst.attachments[3] is inst.attachments[5]


def _deep(depth):
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "twin, bad",
    [
        (_c3(), {"kind": "K", "params": [_deep(100_000)]}),  # too deep to repr
        ({"kind": "K", "params": [3]}, {"kind": ["K"], "params": [3]}),
        ({"kind": "K", "params": [3]}, {"kind": "K", "params": [{3}]}),
        ({"vertices": 2, "edges": [[0, 1]]}, {"vertices": 2, "edges": [(0, 1)]}),
        ({"kind": "K", "params": [3]}, {"kind": "K", "params": (3,)}),
        (_c3(), [_c3()]),
        (_c3(), None),
    ],
    ids=["deep", "list-kind", "set-param", "tuple-edge", "tuple-params", "list", "none"],
)
def test_sharing_adds_no_failure_mode(twin, bad):
    """A descriptor fails inside a spec exactly as it fails on its own, also
    after valid ones, after a look-alike and when it repeats."""
    with pytest.raises(Exception) as alone:
        aio.graph_from_json(bad)
    valid = [{"kind": "K", "params": [2]}, _c3()]
    for attachments in (valid + [_c3(), bad, _c3(), bad], valid + [twin, bad, twin, bad]):
        with pytest.raises(type(alone.value)) as inside:
            aio.instance_from_json(_pan_spec(attachments))
        assert str(inside.value) == str(alone.value)


def test_labeling_json_round_trip(spider_p2):
    labeling = run_type2(spider_p2).labeling
    report = vertex_sums(spider_p2.composite, labeling)
    obj = aio.labeling_to_json(spider_p2.composite, labeling, spider_p2.edge_roles, report.sums)
    text = aio.canonical_dumps(obj)
    back = aio.labeling_from_json(json.loads(text), spider_p2.composite)
    assert back == labeling
    again = aio.labeling_to_json(spider_p2.composite, back, spider_p2.edge_roles, report.sums)
    assert aio.canonical_dumps(again) == text


def test_labeling_csv_round_trip(spider_p2):
    labeling = run_type2(spider_p2).labeling
    text = "".join(aio.labeling_chunks("csv", spider_p2.composite, labeling))
    assert text.splitlines()[0] == "edge_u,edge_v,label"
    back = aio.labeling_from_csv(text, spider_p2.composite)
    assert back == labeling


@pytest.mark.parametrize("kind, params", [("path", [1]), ("path", [2]), ("complete", [40])])
def test_labeling_csv_is_what_csv_writer_writes(kind, params):
    # complete(40) has 780 edges, more than one chunk of rows.
    g = preset_graph(kind, params)
    labeling = Labeling(tuple(range(g.edge_count, 0, -1)), g.edge_count)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["edge_u", "edge_v", "label"])
    writer.writerows([u, v, label] for (u, v), label in zip(g.edges, labeling.labels))
    assert "".join(aio.labeling_chunks("csv", g, labeling)) == buf.getvalue()


def test_report_with_duplicates_writes_groups_as_lists():
    p4 = preset_graph("path", [4])
    report = vertex_sums(p4, Labeling((2, 1, 3), 3))
    doc = aio.sum_report_to_json(p4, report)
    assert aio.canonical_dumps(doc) == reference_dumps({**doc, "duplicate_groups": [[1, 3]]})


def test_labeling_from_json_detects_mismatch():
    g = preset_graph("cycle", [3])
    with pytest.raises(aio.SpecError):
        aio.labeling_from_json({"edges": [{"u": 0, "v": 1, "label": 1}]}, g)


def test_role_strings(pan_r5, spider_p2):
    # Expected roles from the composite's edges alone: an edge inside a
    # block's vertex range is internal, one with a base endpoint is a cross
    # edge to the j-th block vertex, and an edge between base vertices is
    # the base edge with the same id.
    for inst in (pan_r5, spider_p2):
        base_vertices = inst.base_graph.vertex_count
        owner = {v: blk for blk in inst.blocks for v in blk.vertex_ids}
        expected = []
        for e, (u, v) in enumerate(inst.composite.edges):
            if v < base_vertices:
                expected.append(f"base:{e}")
            elif u >= base_vertices:
                expected.append(f"internal:{owner[v].index}")
            else:
                blk = owner[v]
                expected.append(f"cross:{blk.index}:{u}:{v - blk.vertex_start + 1}")
        assert inst.edge_roles == expected
    assert spider_p2.edge_roles[0] == "base:0"


def test_dot_output(spider_p2):
    labeling = run_type2(spider_p2).labeling
    report = vertex_sums(spider_p2.composite, labeling)
    dot = aio.to_dot(spider_p2.composite, labeling, report.sums)
    assert dot.startswith("graph antimagic {")
    assert 'label="v0\\nw=960"' in dot
    assert '[label="71"]' in dot


def test_sum_report_json_names(spider_p2):
    labeling = run_type2(spider_p2).labeling
    report = vertex_sums(spider_p2.composite, labeling)
    obj = aio.sum_report_to_json(spider_p2.composite, report)
    assert obj["vertex_sums"]["w(v0)"] == 960
    assert obj["is_antimagic"] is True


def reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


TEXT = st.text() | st.sampled_from(["%", "%s", "%%d", '"', 'a"%b', "\\", "\n", "\u00e9\u2603", "\ud800"])
INTS = st.integers() | st.integers(-(2**300), 2**300)
SCALARS = st.none() | st.booleans() | INTS | st.floats() | TEXT
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(TEXT, children, max_size=5)
    | st.dictionaries(TEXT, children, max_size=3).map(OrderedDict)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=30,
)
COLUMNS = st.sampled_from([INTS, TEXT, st.booleans()])


@st.composite
def flat_rows(draw):
    """Same-keyed flat dicts with one scalar type per column, or
    equal-length int rows; sometimes with one odd row."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
        columns = {k: draw(COLUMNS) for k in keys}
        rows = [{k: draw(col) for k, col in columns.items()} for _ in range(n)]
    else:
        width = draw(st.integers(1, 3))
        rows = [draw(st.lists(INTS, min_size=width, max_size=width)) for _ in range(n)]
    if draw(st.booleans()):
        odd = draw(JSON_VALUES)
        first = rows[0]
        if isinstance(first, dict):
            key = draw(st.sampled_from(sorted(first)))
            retyped = {**first, key: odd}
            renamed = {k + "'" if k == key else k: v for k, v in first.items()}
        else:
            retyped = first[:-1] + [odd]
            renamed = first + [0]
        rows.insert(draw(st.integers(0, n)), draw(st.sampled_from([odd, retyped, renamed])))
    return rows


def keyed_rows():
    """A dict whose values are flat rows: the rows of `flat_rows` under
    distinct keys."""
    return flat_rows().flatmap(
        lambda rows: st.lists(TEXT, min_size=len(rows), max_size=len(rows), unique=True).map(
            lambda keys: dict(zip(keys, rows))
        )
    )


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_canonical_dumps_matches_json_on_any_value(obj):
    assert aio.canonical_dumps(obj) == reference_dumps(obj)


@settings(max_examples=200, deadline=None)
@example([[1, 2], [3, 4, 5]])
@example([[], []])
@example([{"a": 1}, {"b": 2}])
@example([{"%s": True, "b": "%d"}, {"%s": False, "b": "%"}])
@example([{"u": 1, "v": 2}, {"u": 3, "v": 4.0}])
@example({"a": [1, 2], "%s": [3, 4]})
@example({"b": {"u": 1}, "a": {"u": True}})
@given(
    flat_rows()
    | keyed_rows()
    | st.dictionaries(TEXT, INTS)
    | st.lists(INTS)
    | st.lists(TEXT)
    | st.lists(st.booleans())
)
def test_canonical_dumps_matches_json_on_bulk_shapes(obj):
    nested = {"rows": obj, "deeper": [{"x": obj}]}
    assert aio.canonical_dumps(obj) == reference_dumps(obj)
    assert aio.canonical_dumps(nested) == reference_dumps(nested)


K = aio._CHUNK
WORDS = ["%", "%s", "%%d", "{}", "{0}", '"', 'a"%b', "\\", "\n", "\ud800", "\u00e9\u2603", "\u65e5\u672c"]


class Level(IntEnum):
    LOW = 1
    HIGH = 2


def _chunk_columns(count):
    """One column of each kind, `count` values long: ints up to +-2**300,
    bools, awkward strings and an IntEnum."""
    return {
        "%s": [(-1) ** i * 2 ** (i % 301) - (i % 2) for i in range(count)],
        "{}": [i % 3 == 0 for i in range(count)],
        "\u00e9%d": [WORDS[i % len(WORDS)] * (i % 3) for i in range(count)],
        '"enum"': [Level(1 + i % 2) for i in range(count)],
    }


@pytest.mark.parametrize("count", [0, 1, K - 1, K, K + 1, 2 * K + 3])
def test_canonical_dumps_matches_json_across_chunks(count):
    columns = _chunk_columns(count)
    ints, bools, strs, enums = columns.values()
    plain = dict(list(columns.items())[:3])  # every column renders in bulk
    docs = [
        ints, bools, strs, enums,
        [dict(zip(plain, row)) for row in zip(*plain.values())],
        [dict(zip(columns, row)) for row in zip(*columns.values())],
        [list(row) for row in zip(*plain.values())],
        [tuple(row) for row in zip(*columns.values())],
        [[i, b] for i, b in zip(ints, bools)],
        {str(i): v for i, v in enumerate(ints)},
        {f"%s{w}{i}": v for i, (w, v) in enumerate(zip(strs, bools))},
        {f"k{i}": v for i, v in enumerate(enums)},
    ]
    if count:
        at = count // 2
        docs.append(ints[:at] + [True] + ints[at + 1:])  # one bool among ints
        docs.append([[i, i if n != at else True] for n, i in enumerate(ints)])
        docs.append([{"a": i, "b": s} if n != at else {"a": i, "c": s} for n, (i, s) in enumerate(zip(ints, strs))])
    for doc in docs:
        assert aio.canonical_dumps(doc) == reference_dumps(doc)
        nested = {"rows": doc, "deeper": [{"x": doc}]}
        assert aio.canonical_dumps(nested) == reference_dumps(nested)


def test_canonical_dumps_matches_json_on_cli_documents():
    inst = build_type2(4, [preset_graph("complete", [2])] * 9 + [preset_graph("complete", [40])] * 3)
    run = run_type2(inst)
    report = vertex_sums(inst.composite, run.labeling, chain=[(c.name, c.left, c.right) for c in run.chain])
    assert report.chain
    for doc in (
        aio.labeling_to_json(inst.composite, run.labeling, inst.edge_roles, report.sums),
        aio.sum_report_to_json(inst.composite, report),
        graph_descriptor(inst.composite),
    ):
        assert aio.canonical_dumps(doc) == reference_dumps(doc)


ROLE_WORDS = WORDS + ["\x00", "\x1f", "\x7f", "\u2028"]


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("count", [0, 1, K - 1, K, K + 1, 2 * K + 1])
@settings(max_examples=12, deadline=None)
@example(roles_on=False, words=["a"], labels=[1], sums=None)
@example(roles_on=True, words=ROLE_WORDS, labels=[3, 2**70], sums=[])
@example(roles_on=True, words=['"%s\\'], labels=[-5], sums=[7, -2**300, 0])
@given(
    roles_on=st.booleans(),
    words=st.lists(st.sampled_from(ROLE_WORDS) | TEXT, min_size=1, max_size=6),
    labels=st.lists(INTS, min_size=1, max_size=5),
    sums=st.none() | st.just([]) | st.lists(INTS, min_size=1, max_size=20),
)
def test_labeling_chunks_match_the_whole_document(count, roles_on, words, labels, sums):
    """The chunks of a labeling document join to what `canonical_dumps` and
    `json.dumps` write for `labeling_to_json`, one chunk per `_CHUNK` rows,
    and the csv chunks are what `csv.writer` writes for the same rows."""
    g = preset_graph("path", [count + 1])
    labeling = Labeling(tuple(labels[i % len(labels)] for i in range(count)), count)
    roles = [words[i % len(words)] * (i % 3) for i in range(count)] if roles_on else None
    doc = aio.labeling_to_json(g, labeling, roles, sums)
    chunks = list(aio.labeling_chunks("json", g, labeling, roles, sums))
    assert "".join(chunks) == aio.canonical_dumps(doc) == reference_dumps(doc)
    assert max(chunk.count('"u": ') for chunk in chunks) == min(count, K)

    rows = [[u, v, label] for (u, v), label in zip(g.edges, labeling.labels)]
    expected = [_csv_text([["edge_u", "edge_v", "label"]])]
    expected += [_csv_text(rows[at : at + K]) for at in range(0, count, K)]
    assert list(aio.labeling_chunks("csv", g, labeling)) == expected


@pytest.mark.parametrize("labels, roles", [((1,), ["a", "b"]), ((1, 2, 3), None), ((1, 2), ["a"]), ((1, 2), "abc")])
def test_labeling_writers_reject_a_column_of_another_length(labels, roles):
    g = preset_graph("path", [3])
    labeling = Labeling(labels, g.edge_count)
    with pytest.raises(ValueError):
        aio.labeling_to_json(g, labeling, roles)
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError, match="one entry per edge, 2 in all"):
            next(aio.labeling_chunks(fmt, g, labeling, roles))


def test_canonical_dumps_reports_a_circular_reference_like_json():
    loop: list = []
    loop.append({"self": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        aio.canonical_dumps(loop)


@pytest.mark.parametrize("count", [0, 1, K - 1, K, K + 1, 2 * K + 3])
@pytest.mark.parametrize("named", [False, True])
def test_graph_chunks_match_the_whole_document(count, named):
    """The chunks of a graph descriptor join to what `json.dumps` writes for
    it, one chunk per `_CHUNK` edges."""
    words = [word for word in WORDS if word != "\ud800"]  # names are UTF-8 text
    names = [words[i % len(words)] + str(i) for i in range(count + 1)] if named else None
    g = make_graph(count + 1, [(i, i + 1) for i in range(count)], names)
    chunks = list(aio.graph_chunks(g))
    assert "".join(chunks) == reference_dumps(graph_descriptor(g))
    assert max(chunk.count("\n    ]") for chunk in chunks) == min(count, K)  # edge rows


FIXTURES = Path(__file__).parent / "fixtures"


def _written_documents(fixture):
    """The composite of a fixture and the documents the CLI writes for it:
    its graph descriptor, and its labeling with roles and sums (`label`)
    and with sums only (`export --labeling`)."""
    inst, _ = aio.instance_from_json(json.loads((FIXTURES / fixture).read_text(encoding="utf-8")))
    run = run_type1 if inst.kind == "pan" else run_type2
    labeling = run(inst, force=True).labeling
    g = inst.composite
    sums = vertex_sums(g, labeling).sums
    return g, labeling, {
        "graph": "".join(aio.graph_chunks(g)),
        "label": "".join(aio.labeling_chunks("json", g, labeling, inst.edge_roles, sums)),
        "export": "".join(aio.labeling_chunks("json", g, labeling, None, sums)),
    }


def _outcome(read):
    try:
        return read()
    except Exception as exc:  # the CLI reports the type and the message
        return type(exc), str(exc)


@pytest.mark.parametrize("piece", [1, 300, aio._PIECE], ids=["each-row", "few-rows", "default"])
@pytest.mark.parametrize("fixture", ["pan_r5.json", "spider_p2.json", "spider_p4.json", "violating.json"])
def test_piecewise_reads_match_whole_reads(fixture, piece, monkeypatch, tmp_path):
    """Read from an in-memory file, or from the file itself as the CLI
    reads it, a graph or labeling document gives what `json.loads` and the
    reader of the whole value give: an equal Graph or Labeling, or the same
    error. With a piece of 1 byte, every row boundary is a cut."""
    g, labeling, documents = _written_documents(fixture)
    monkeypatch.setattr(aio, "_PIECE", piece)
    assert aio._graph_from_pieces(io.BytesIO(documents["graph"].encode())) == g
    for name in ("label", "export"):
        assert aio._labeling_from_pieces(io.BytesIO(documents[name].encode()), g) == labeling
    path = tmp_path / "document.json"
    compared = 0
    for name, text in documents.items():
        for mutation, data in layout_mutations(text).items():
            path.write_bytes(data)
            if name == "graph":
                got = _outcome(lambda: aio.graph_from_json(io.BytesIO(data), path))
                read = _outcome(lambda: cli._read_graph(path))
                want = _outcome(lambda: aio.graph_from_json(aio.load_json(data, path)))
            else:
                got = _outcome(lambda: aio.labeling_from_json(io.BytesIO(data), g, path))
                read = _outcome(lambda: cli._load_labeling(path, g))
                want = _outcome(lambda: aio.labeling_from_json(aio.load_json(data, path), g))
            assert got == read == want, (name, mutation)
            compared += 1
    assert compared > 100


def test_a_fault_in_the_last_piece_rewinds_to_the_whole_read(monkeypatch, tmp_path):
    """When the rows read cleanly piece by piece up to a fault at the end,
    the file is read again whole from its start: the error is the whole
    read's, not the piecewise one's."""
    g, _, documents = _written_documents("spider_p4.json")
    monkeypatch.setattr(aio, "_PIECE", 300)
    rows = layout_mutations(documents["label"])
    last = max(int(name.split()[1]) for name in rows if name.startswith("row "))
    data = rows[f"row {last} dropped"]
    parsed = list(aio._pieces(io.BytesIO(data), aio._LABELING_ROW, {}))  # only the count of rows is off
    assert len(parsed) > 3 and sum(map(len, parsed)) == g.edge_count - 1
    path = tmp_path / "l.json"
    path.write_bytes(data)
    with pytest.raises(aio.SpecError, match=r"^labeling is missing edge \(\d+, \d+\)$"):
        cli._load_labeling(path, g)


@pytest.mark.parametrize("piece", [1, 300, aio._PIECE], ids=["each-row", "few-rows", "default"])
def test_rows_after_the_edges_list_are_not_read_as_edges(piece, monkeypatch):
    """A list of rows under a key after "edges" repeats the row separator
    past the end of the edges; the pieces stop at that end and read as the
    whole read does."""
    g, labeling, documents = _written_documents("spider_p4.json")
    monkeypatch.setattr(aio, "_PIECE", piece)
    rows = {name: layout_mutations(text)["rows after the edges"] for name, text in documents.items()}
    for name, data in rows.items():
        sep = b",\n    [" if name == "graph" else b",\n    {"
        assert sep in data[data.index(b"\n  ]") :]
    assert aio._graph_from_pieces(io.BytesIO(rows["graph"])) == g
    for name in ("label", "export"):
        assert aio._labeling_from_pieces(io.BytesIO(rows[name]), g) == labeling


def test_pieces_are_cut_at_the_last_separator_read_so_far(monkeypatch):
    """After each read of `_PIECE` bytes, the rows read so far up to the
    last row separator in them make a piece; once the close of the rows is
    read, it ends the last piece."""
    _, _, documents = _written_documents("spider_p2.json")
    data, sep, close = documents["label"].encode(), b",\n    {", b"\n  ]"
    stop = data.index(close)
    for piece in range(1, 200):
        monkeypatch.setattr(aio, "_PIECE", piece)
        want, first = [], len('{\n  "edges": [\n    ')  # first: where the next piece starts
        end = first  # the bytes read so far
        while (end := end + piece) < stop + len(close):
            cut = data.rfind(sep, first, end)
            if cut >= 0:
                want.append(data.count(sep, first, cut) + 1)  # rows in the piece
                first = cut + 1
        want.append(data.count(sep, first, stop) + 1)
        assert list(map(len, aio._pieces(io.BytesIO(data), aio._LABELING_ROW, {}))) == want, piece


def test_a_file_cut_short_while_read_in_pieces_raises(tmp_path):
    """A file that ends inside the rows, here at the end of a row, raises
    SpecError from the piece reader rather than giving fewer rows; read
    through `graph_from_json`, it ends with the whole read's error."""
    _, _, documents = _written_documents("spider_p2.json")
    data = documents["graph"].encode()
    data = data[: data.rindex(b",\n    [", 0, data.index(b"\n  ]"))]
    with pytest.raises(aio.SpecError, match="^the file ends inside the rows$"):
        list(aio._pieces(io.BytesIO(data), aio._GRAPH_ROW, {}))
    path = tmp_path / "g.json"
    got = _outcome(lambda: aio.graph_from_json(io.BytesIO(data), path))
    assert got == _outcome(lambda: aio.graph_from_json(aio.load_json(data, path)))
    assert got[0] is json.JSONDecodeError


def test_an_edge_past_the_vertex_count_fails_as_the_whole_read(tmp_path):
    """The edge pairs are taken before "vertices" is read, so an edge whose
    upper end is not below the count given after the rows makes the piece
    read fail, and the whole read reports it."""
    data = "".join(aio.graph_chunks(preset_graph("path", [50]))).replace('"vertices": 50', '"vertices": 49').encode()
    with pytest.raises(aio.SpecError, match="an edge past the vertices"):
        aio._graph_from_pieces(io.BytesIO(data))
    path = tmp_path / "g.json"
    got = _outcome(lambda: aio.graph_from_json(io.BytesIO(data), path))
    assert got == _outcome(lambda: aio.graph_from_json(aio.load_json(data, path)))
    assert got[0] is IndexOutOfRange


@pytest.mark.parametrize("piece", [1, 2, 3, 4, 5, 6, 7, 64])
def test_piecewise_reads_in_blocks_of_any_size(piece, monkeypatch):
    """Reads of `_PIECE` bytes find the end of the rows and cut the pieces
    wherever the reads split a row, a row separator (6 bytes) or the close
    of the rows (4 bytes)."""
    g, labeling, documents = _written_documents("spider_p2.json")
    monkeypatch.setattr(aio, "_PIECE", piece)
    assert aio._graph_from_pieces(io.BytesIO(documents["graph"].encode())) == g
    for name in ("label", "export"):
        assert aio._labeling_from_pieces(io.BytesIO(documents[name].encode()), g) == labeling


class _CountingReader(io.BufferedReader):
    """A buffered file that counts the bytes its `read` calls return."""

    returned = 0

    def read(self, size=-1):
        data = super().read(size)
        self.returned += len(data)
        return data


@pytest.mark.parametrize("piece", [300, aio._PIECE], ids=["few-rows", "default"])
def test_the_piece_reader_reads_each_byte_once(piece, monkeypatch, tmp_path):
    """A graph or labeling file read in pieces is read front to back once:
    its reads return no more than its size and one `_PIECE`."""
    g, labeling, documents = _written_documents("spider_p4.json")
    monkeypatch.setattr(aio, "_PIECE", piece)
    for name, want in (("graph", g), ("label", labeling)):
        path = tmp_path / f"{name}.json"
        path.write_bytes(documents[name].encode())
        with _CountingReader(io.FileIO(path)) as file:
            got = aio.graph_from_json(file, path) if name == "graph" else aio.labeling_from_json(file, g, path)
            assert got == want
            assert file.returned <= path.stat().st_size + piece, name


def test_rows_on_one_line_are_read_in_linear_time(monkeypatch):
    """With no row separator to cut at, all rows make one piece, and each
    read is searched once: a graph document of about 3 MB with every row on
    one line, read 64 bytes at a time, reads as the whole read does in
    seconds, where searching the whole buffer again after each read takes
    minutes."""
    count = 220_000
    rows = ",".join(f"[{i},{i + 1}]" for i in range(count))
    data = ('{\n  "edges": [\n    ' + rows + '\n  ],\n  "vertices": %d\n}\n' % (count + 1)).encode()
    assert len(data) > 3_000_000
    monkeypatch.setattr(aio, "_PIECE", 64)
    start = time.perf_counter()
    got = aio._graph_from_pieces(io.BytesIO(data))
    assert time.perf_counter() - start < 10
    assert got == aio.graph_from_json(json.loads(data))


def test_a_file_that_cannot_seek_is_read_into_memory():
    """A pipe is read whole first, then in pieces or, when that fails, as
    the whole read from its start."""
    g, labeling, documents = _written_documents("spider_p2.json")
    data = documents["label"].encode()
    outcomes = []
    for document in (data, data[:-3]):
        read, write = os.pipe()
        with os.fdopen(read, "rb") as file:
            with os.fdopen(write, "wb") as out:
                out.write(document)  # within the pipe's buffer
            assert not file.seekable()
            outcomes.append(_outcome(lambda: aio.labeling_from_json(file, g, "pipe")))
        assert outcomes[-1] == _outcome(lambda: aio.labeling_from_json(aio.load_json(document, "pipe"), g))
    assert outcomes[0] == labeling and outcomes[1][0] is json.JSONDecodeError


def test_piecewise_read_of_a_document_with_no_edges():
    g = make_graph(3, [])
    text = "".join(aio.graph_chunks(g))
    assert aio.graph_from_json(io.BytesIO(text.encode())) == g
    labeling = Labeling((), 0)
    document = "".join(aio.labeling_chunks("json", g, labeling)).encode()
    assert aio.labeling_from_json(io.BytesIO(document), g) == labeling


def test_csv_errors_keep_their_precedence():
    """Rows are read one at a time, yet a csv.Error in any row comes first,
    then a wrong header, then the first row that is not three integers."""
    g = preset_graph("path", [3])
    late = "0,1," + "9" * (csv.field_size_limit() + 1) + "\n"  # a csv.Error in the last row
    cases = [
        ("edge_u,edge_v,label\n0,1,x\n" + late, aio.SpecError, "labeling is not readable CSV: field larger"),
        ("u,v,label\n0,1,1\n" + late, aio.SpecError, "labeling is not readable CSV: field larger"),
        ("\nedge_u,edge_v,label\n0,1,1\n1,2,2\n", aio.SpecError, "csv header must be"),
        ("u,v,label\n0,1,x\n", aio.SpecError, "csv header must be"),
        ("edge_u,edge_v,label\n0,1,x\n\n1,2\n", NotABijection, "csv row ['0', '1', 'x'] needs integer"),
        ("edge_u,edge_v,label\n0,1,1\n1,2\n0,1,x\n", NotABijection, "csv row ['1', '2'] needs integer"),
    ]
    for text, error, message in cases:
        with pytest.raises(error) as raised:
            aio.labeling_from_csv(text, g)
        assert str(raised.value).startswith(message), text[:40]


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 1], [1, 2, 2]],
        [[1, 2, 2], [1, 0, 1]],
        [[0, 2, 1], [1, 2, 2]],
        [[0, 1, 1], [1, 0, 2], [1, 2, 3]],
        [[0, 1, 1], [1, 2, 2], [2, 3, 3]],
        [[0, 1, 1]],
        [],
        [[1, 2, 2], [0, 1, 1]],
    ],
    ids=["in-order", "reordered", "missing", "twice", "extra", "short", "empty", "an edge in another's place"],
)
def test_csv_labelings_read_as_json_entries_do(rows):
    """A CSV labeling of integers reads as the JSON entries of its rows:
    the same Labeling, or the same error."""
    g = preset_graph("path", [3])
    text = _csv_text([["edge_u", "edge_v", "label"], *rows])
    entries = [{"u": u, "v": v, "label": label} for u, v, label in rows]
    assert _outcome(lambda: aio.labeling_from_csv(text, g)) == _outcome(
        lambda: aio.labeling_from_json({"edges": entries}, g)
    )
