"""Spider-base constructions: exact fixture sums, hub labeling, offsets."""

from __future__ import annotations

import pytest

from antimagic import (
    build_type2,
    preset_graph,
    run_type2,
    universal_vertex_labeling,
    vertex_sums,
)
from antimagic.labeling import (
    ConditionsNotMet,
    ConstructionFailed,
    NotUniversal,
    WrongBaseType,
)

from .conftest import C, K, P, named_sums, peak_bytes, ranked


def test_spider_p2_exact_sums(spider_p2):
    run = run_type2(spider_p2)
    report = vertex_sums(spider_p2.composite, run.labeling)
    assert report.is_antimagic
    assert report.sums[0] == 960
    a1 = ranked(run, 1)
    assert [report.sums[v] for v in a1.vertices] == [7, 9, 11]
    a2 = ranked(run, 2)
    assert [report.sums[v] for v in a2.vertices] == [38, 41, 44, 49]
    a3 = ranked(run, 3)
    assert sum(report.sums[v] for v in a3.vertices) == 332


def test_spider_p2_step1_partial_sums(spider_p2):
    run = run_type2(spider_p2)
    a1 = ranked(run, 1)
    assert a1.partial_sums == (3, 4, 5)


def test_spider_p2_offsets_closed_forms(spider_p2):
    run = run_type2(spider_p2)
    m = {b.index: b.graph.vertex_count for b in spider_p2.blocks}
    h = {b.index: b.graph.edge_count for b in spider_p2.blocks}
    a = h[1] + 2 * m[1] + 1
    b = a + h[2] + 2 * m[2] + 1
    z = b + h[3] + 2 * m[3] + 1
    assert run.offset("A") == a == 6
    assert run.offset("B") == b == 16
    assert run.offset("z") == z == 26
    # No interior blocks when p=2, so L, N, S collapse onto z.
    assert run.offset("L") == run.offset("N") == run.offset("S") == z
    assert run.offset("X") == z + h[4] + h[5] + h[6] == 44
    assert run.offset("M") == m[4] + m[5] + m[6] + 3 == 15


def test_spider_p2_invariant_center_candidates(spider_p2):
    run = run_type2(spider_p2)
    report = vertex_sums(spider_p2.composite, run.labeling)
    sums = named_sums(spider_p2, report)
    assert (sums["x1"], sums["y1"], sums["z1"]) == (270, 330, 387)


def test_center_sum_is_the_top_label_run(spider_p2, spider_p4):
    # The center's sum is exactly the sum of the top M labels.
    for inst in (spider_p2, spider_p4):
        run = run_type2(inst)
        report = vertex_sums(inst.composite, run.labeling)
        m_edges = inst.composite.edge_count
        top = run.offset("M")
        assert report.sums[0] == sum(range(m_edges - top + 1, m_edges + 1))
    p1 = build_type2(1, [K(2)] * 3)
    report = vertex_sums(p1.composite, run_type2(p1).labeling)
    hub_degree = 9  # 3 leg edges + 6 cross edges
    m_edges = p1.composite.edge_count
    assert report.sums[0] == sum(range(m_edges - hub_degree + 1, m_edges + 1))


def test_spider_p4_exact_sums(spider_p4):
    run = run_type2(spider_p4)
    report = vertex_sums(spider_p4.composite, run.labeling)
    assert report.is_antimagic
    expected_tips = {1: [7, 9, 11], 2: [25, 27, 29], 3: [43, 45, 47]}
    for block, values in expected_tips.items():
        rk = ranked(run, block)
        assert [report.sums[v] for v in rk.vertices] == values
    expected_mids = {4: [81, 83], 5: [86, 88], 6: [91, 93], 7: [96, 98], 8: [101, 103], 9: [106, 108]}
    for block, values in expected_mids.items():
        rk = ranked(run, block)
        assert [report.sums[v] for v in rk.vertices] == values
    sums = named_sums(spider_p4, report)
    legs = sorted(sums[k] for k in ("x2", "x3", "y2", "y3", "z2", "z3"))
    assert legs == [139, 162, 185, 239, 249, 259]
    c_rank = run.ranked_blocks[-1]
    c_sums = [report.sums[v] for v in c_rank.vertices]
    assert c_sums[15:18] == [665, 696, 727]
    assert sums["v0"] == 1953


def test_spider_p4_offsets_closed_forms(spider_p4):
    run = run_type2(spider_p4)
    m = {b.index: b.graph.vertex_count for b in spider_p4.blocks}
    h = {b.index: b.graph.edge_count for b in spider_p4.blocks}
    z = h[1] + 2 * m[1] + 2 + h[2] + 2 * m[2] + h[3] + 2 * m[3] + 1
    mids = range(4, 10)
    l_off = z + sum(h[t] for t in mids)
    n_off = l_off + sum(m[t] for t in mids)
    s_off = n_off + sum(m[t] for t in mids)
    x_off = s_off + 6 + h[10] + h[11] + h[12]
    assert run.offset("z") == z == 18
    assert run.offset("L") == l_off == 24
    assert run.offset("N") == n_off == 36
    assert run.offset("S") == s_off == 48
    assert run.offset("X") == x_off == 84
    assert run.offset("M") == m[10] + m[11] + m[12] + 3 == 18


def test_spider_p4_chain_order(spider_p4):
    run = run_type2(spider_p4)
    assert run.chain_holds
    names = [c.name for c in run.chain]
    assert "w(x3)<w(y3)" in names
    assert "w(z3)<w(x2)" in names
    assert "w(z2)<w(c1)" in names
    assert names[-1] == "w(c18)<w(v0)"


def test_p1_uses_hub_construction():
    inst = build_type2(1, [K(2)] * 3)
    labeling = run_type2(inst).labeling
    report = vertex_sums(inst.composite, labeling)
    assert sorted(labeling.labels) == list(range(1, 19))
    assert report.is_antimagic
    assert report.sums[0] == max(report.sums)


def test_p1_mixed_attachments():
    inst = build_type2(1, [K(2), C(3), K(4)])
    report = vertex_sums(inst.composite, run_type2(inst).labeling)
    assert report.is_antimagic
    assert report.sums[0] == max(report.sums)


def test_p3_chain_includes_single_leg_layer():
    inst = build_type2(3, [K(2)] * 3 + [C(3)] * 3 + [K(7)] * 3)
    run = run_type2(inst)
    assert run.chain_holds
    names = [c.name for c in run.chain]
    assert "w(x2)<w(y2)" in names
    assert "w(y2)<w(z2)" in names
    assert not any("x3" in n for n in names)  # p-1 = 2 is the only leg layer
    assert vertex_sums(inst.composite, run.labeling).is_antimagic


def test_universal_star():
    star = preset_graph("star", [4])
    labeling = universal_vertex_labeling(star, 0)
    report = vertex_sums(star, labeling)
    assert sorted(report.sums[1:]) == [1, 2, 3]
    assert report.sums[0] == 6


def test_universal_triangle():
    k3 = preset_graph("complete", [3])
    for hub in range(3):
        report = vertex_sums(k3, universal_vertex_labeling(k3, hub))
        assert report.is_antimagic


def test_universal_rejects_non_hub():
    p4 = preset_graph("path", [4])
    with pytest.raises(NotUniversal):
        universal_vertex_labeling(p4, 0)


def test_universal_post_check_rejects_k2():
    k2 = preset_graph("complete", [2])
    with pytest.raises(ConstructionFailed):
        universal_vertex_labeling(k2, 0)


def test_conditions_gate_and_force_spider():
    inst = build_type2(2, [C(3), K(2), K(2), K(2), K(2), K(2)])
    with pytest.raises(ConditionsNotMet):
        run_type2(inst)
    labeling = run_type2(inst, force=True).labeling
    assert sorted(labeling.labels) == list(range(1, inst.composite.edge_count + 1))


def test_forced_run_keeps_ranked_blocks_collision_free():
    # Within one ranked block the appended labels strictly increase, so the
    # final sums stay distinct even when the instance violates the gate.
    inst = build_type2(2, [P(5), P(5), P(5), P(5), P(5), P(5)])
    run = run_type2(inst, force=True)
    report = vertex_sums(inst.composite, run.labeling)
    for rk in run.ranked_blocks:
        block_sums = [report.sums[v] for v in rk.vertices]
        assert len(set(block_sums)) == len(block_sums)


def test_wrong_base_type_spider(pan_r5):
    with pytest.raises(WrongBaseType):
        run_type2(pan_r5)


def test_the_schedule_holds_no_list_of_edge_ids():
    """A forced run on a spider p=4 with K120 centers (22,197 edges) peaks
    below 64 traced bytes an edge above its start: room for the labels, the
    sums and the run it returns, but not for one more list with an entry
    per edge."""
    inst = build_type2(4, [K(2)] * 9 + [K(120)] * 3)
    g = inst.composite
    assert g.edge_count == 22_197
    first = run_type2(inst, force=True)  # imports and first calls happen here
    run, peak = peak_bytes(lambda: run_type2(inst, force=True))
    assert run == first
    assert peak < 64 * g.edge_count, (peak, g.edge_count)


def test_building_the_instance_holds_one_list_of_edges():
    """Building the same spider p=4 peaks below 80 traced bytes an edge:
    room for the edge tuples (56 bytes each), the list they are gathered in
    and the tuple the composite keeps (8 bytes each), and the names, but not
    for one more list with an entry per edge. It measured 74.8."""
    attachments = [K(2)] * 9 + [K(120)] * 3
    first = build_type2(4, attachments)  # imports and first calls happen here
    inst, peak = peak_bytes(lambda: build_type2(4, attachments))
    assert inst == first
    assert inst.composite.edge_count == 22_197
    assert peak < 80 * inst.composite.edge_count, (peak, inst.composite.edge_count)
