"""Serialization round trips and descriptor parsing."""

from __future__ import annotations

import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antimagic import build_type1, build_type2, io as aio
from antimagic import preset_graph, run_type2, vertex_sums
from antimagic.corona import AttachmentTooSmall, DisconnectedAttachment
from antimagic.graphs import BadParams


def test_graph_json_round_trip_is_byte_identical():
    g = preset_graph("pan", [5])
    text = aio.canonical_dumps(aio.graph_to_json(g))
    back = aio.graph_from_json(json.loads(text))
    assert back == g
    assert aio.canonical_dumps(aio.graph_to_json(back)) == text


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
    text = aio.labeling_to_csv(spider_p2.composite, labeling)
    assert text.splitlines()[0] == "edge_u,edge_v,label"
    back = aio.labeling_from_csv(text, spider_p2.composite)
    assert back == labeling


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
@given(flat_rows() | st.dictionaries(TEXT, INTS) | st.lists(INTS) | st.lists(TEXT) | st.lists(st.booleans()))
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
        aio.graph_to_json(inst.composite),
    ):
        assert aio.canonical_dumps(doc) == reference_dumps(doc)


def test_canonical_dumps_reports_a_circular_reference_like_json():
    loop: list = []
    loop.append({"self": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        aio.canonical_dumps(loop)
