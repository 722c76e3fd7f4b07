"""Corona construction: sizes, roles, attachment maps, and degrees."""

from __future__ import annotations

from collections import Counter
from itertools import chain

import pytest

from antimagic import (
    build_type1,
    build_type2,
    degree_profile,
    normalize_attachments,
)
from antimagic.corona import (
    AttachmentTooSmall,
    BadBaseParam,
    DisconnectedAttachment,
    WrongAttachmentCount,
)
from antimagic.graphs import make_graph

from .conftest import C, K, P, diamond


def test_type1_small_sizes():
    inst = build_type1(3, [K(2)] * 4)
    assert inst.composite.vertex_count == 12
    assert inst.composite.edge_count == 24


def test_type1_pan_r5_sizes(pan_r5):
    assert pan_r5.composite.vertex_count == 26
    assert pan_r5.composite.edge_count == 68


def test_type1_wrong_attachment_count():
    with pytest.raises(WrongAttachmentCount):
        build_type1(3, [K(2)] * 3)


def test_type2_sizes(spider_p2, spider_p4):
    assert spider_p2.composite.vertex_count == 27
    assert spider_p2.composite.edge_count == 71
    assert spider_p4.composite.vertex_count == 46
    assert spider_p4.composite.edge_count == 117
    p1 = build_type2(1, [K(2)] * 3)
    assert p1.composite.vertex_count == 10
    assert p1.composite.edge_count == 18


def test_attachment_validation():
    with pytest.raises(AttachmentTooSmall):
        build_type1(3, [K(1), K(2), K(2), K(2)])
    disconnected = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedAttachment):
        build_type1(3, [K(2), disconnected, K(2), K(2)])
    with pytest.raises(BadBaseParam, match=r"^pan base needs r >= 3, got 2$"):
        build_type1(2, [K(2)] * 3)
    with pytest.raises(BadBaseParam, match=r"^spider base needs p >= 1, got 0$"):
        build_type2(0, [])


def test_normalize_attachments_sorts_by_size():
    k4, k2, c3 = K(4), K(2), C(3)
    assert normalize_attachments([k4, k2, c3]) == (k2, c3, k4)
    assert normalize_attachments([k2, c3, c3]) == (k2, c3, c3)
    c3b = C(3)
    k3 = K(3)
    assert normalize_attachments([c3b, k3]) == (c3b, k3)


def test_type1_attachment_map(pan_r5):
    r = 5
    expected = {0: (0, r), 1: (1, 2), 2: (1, 3), 3: (2, 4), 4: (3, 5), 5: (4, 5)}
    for blk in pan_r5.blocks:
        assert blk.endpoints == expected[blk.index]


def test_type2_attachment_map(spider_p4):
    p = 4

    def leg(base, k):
        return 0 if k == 0 else base * p + k

    expected = {}
    for t in range(1, 3 * p + 1):
        s, depth = (t - 1) % 3, (t - 1) // 3
        a, b = leg(s, p - depth), leg(s, p - depth - 1)
        expected[t] = (min(a, b), max(a, b))
    for blk in spider_p4.blocks:
        assert blk.endpoints == expected[blk.index]


def test_role_partition(pan_r5, spider_p4):
    for inst in (pan_r5, spider_p4):
        roles = inst.edge_roles
        assert len(roles) == inst.composite.edge_count
        assert Counter(role.split(":")[0] for role in roles) == {
            "base": inst.base_graph.edge_count,
            "internal": sum(inst.attachment_edge_counts),
            "cross": 2 * sum(inst.attachment_orders),
        }


def test_every_attachment_vertex_has_two_cross_edges(pan_r5, spider_p2):
    for inst in (pan_r5, spider_p2):
        comp_deg = degree_profile(inst.composite).degrees
        for blk in inst.blocks:
            own = degree_profile(blk.graph).degrees
            for local, v in enumerate(blk.vertex_ids):
                assert comp_deg[v] == own[local] + 2


def test_base_vertex_composite_degrees(pan_r5, spider_p4):
    deg5 = degree_profile(pan_r5.composite).degrees
    n = pan_r5.attachment_orders
    r = 5
    assert deg5[0] == n[0] + 1
    assert deg5[1] == 2 + n[1] + n[2] == 8
    assert deg5[r] == 3 + n[0] + n[r - 1] + n[r]
    deg8 = degree_profile(spider_p4.composite).degrees
    m = {b.index: b.graph.vertex_count for b in spider_p4.blocks}
    assert deg8[0] == 3 + m[10] + m[11] + m[12]


def test_composite_names(pan_r5, spider_p2):
    assert pan_r5.composite.name_of(0) == "u0"
    assert pan_r5.composite.name_of(5) == "u5"
    assert pan_r5.composite.name_of(6) == "v0_1"
    assert spider_p2.composite.name_of(0) == "v0"
    assert spider_p2.composite.name_of(2) == "x2"


def test_mixed_attachment_shapes_size_identity():
    attachments = [K(2), C(3), P(4), diamond()]
    inst = build_type1(3, attachments)
    n = sum(g.vertex_count for g in attachments)
    q = sum(g.edge_count for g in attachments)
    assert inst.composite.vertex_count == 4 + n
    assert inst.composite.edge_count == 4 + q + 2 * n


def test_cross_fans_follow_block_layout(pan_r5, spider_p2):
    for inst in (pan_r5, spider_p2):
        edges = inst.composite.edges
        base_ids = range(inst.base_graph.edge_count)
        assert [edges[e] for e in base_ids] == list(inst.base_graph.edges)
        for blk in inst.blocks:
            start = blk.vertex_start
            internal = [edges[e] for e in blk.edge_ids]
            assert internal == [(start + a, start + b) for a, b in blk.graph.edges]
            for side, endpoint in enumerate(blk.endpoints):
                fan = [edges[e] for e in blk.cross_fan(side)]
                assert fan == [(endpoint, w) for w in blk.vertex_ids]
        ranges = [base_ids] + [
            r for blk in inst.blocks for r in (blk.edge_ids, blk.cross_fan(0), blk.cross_fan(1))
        ]
        assert sorted(chain.from_iterable(ranges)) == list(range(inst.composite.edge_count))


def test_block_public_surface(pan_r5, spider_p4):
    """Block is a tuple; its `index` field shadows `tuple.index`, and its
    names and methods read as before."""
    for inst, first in ((pan_r5, 0), (spider_p4, 1)):
        start = inst.base_graph.vertex_count
        edge = inst.base_graph.edge_count
        for k, blk in enumerate(inst.blocks):
            h = inst.attachments[k]
            assert isinstance(blk, tuple)
            assert blk.index == first + k and type(blk.index) is int
            assert inst.block(blk.index) is blk
            assert blk.graph is h
            assert blk.vertex_start == start
            assert blk.vertex_ids == range(start, start + h.vertex_count)
            assert blk.edge_ids == range(edge, edge + h.edge_count)
            assert blk.endpoints == inst.base_graph.edges[k]
            for side in (0, 1):
                fan_start = edge + h.edge_count + side * h.vertex_count
                assert blk.cross_fan(side) == range(fan_start, fan_start + h.vertex_count)
            assert blk == (blk.index, h, start, blk.edge_ids, blk.endpoints)
            with pytest.raises(AttributeError):
                blk.index = 0
            start += h.vertex_count
            edge += h.edge_count + 2 * h.vertex_count
