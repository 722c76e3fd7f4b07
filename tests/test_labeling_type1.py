"""Pan-base construction: exact fixture sums, offsets, and plumbing ops."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from antimagic import (
    build_type1,
    build_type2,
    rank_by_partial_sums,
    run_type1,
    vertex_sums,
)
from antimagic import io as aio
from antimagic.labeling import ConditionsNotMet, LabelingError, WrongBaseType, _execute

from .conftest import C, K, named_sums


def _k2_pan():
    # Pan r=3 with K2 on every edge: 4 base, 4 internal and 16 cross edges.
    return build_type1(3, [K(2)] * 4).composite


def test_label_block_consecutive():
    # A run step hands the next consecutive labels to its edges, in order.
    g = _k2_pan()
    steps = [("run", range(3, 10)), ("run", [2, 0, 1]), ("mark", "x"), ("run", range(10, 24))]
    run, sums = _execute(g, steps)
    labels = run.labeling.labels
    assert [labels[i] for i in (2, 0, 1)] == [8, 9, 10]
    assert [labels[i] for i in range(3, 10)] == list(range(1, 8))
    assert run.offsets == (("x", 10),)
    assert sorted(labels) == list(range(1, 25))
    assert sums == list(vertex_sums(g, run.labeling).sums)


def test_label_block_empty():
    # An empty run step hands out no label.
    g = _k2_pan()
    steps = [("run", range(5)), ("mark", "a"), ("run", []), ("mark", "b"), ("run", range(5, 24))]
    run, _ = _execute(g, steps)
    assert run.offsets == (("a", 5), ("b", 5))
    assert run.labeling.labels == tuple(range(1, 25))


def test_label_block_relabel_rejected():
    # The label order must hold every edge exactly once.
    g = _k2_pan()
    bad_orders = [
        [("run", [0]), ("run", [0]), ("run", range(2, 24))],  # repeat and omission
        [("run", [0]), ("run", range(24))],  # repeat, one edge too many
        [("run", range(1, 24))],  # omission, one edge too few
        [("run", range(12)), ("ranked", 0, "a", {4: (12,), 5: (12,)}), ("run", range(14, 24))],
    ]
    for steps in bad_orders:
        with pytest.raises(LabelingError):
            _execute(g, steps)


def test_label_order_checked_under_optimize():
    # python -O strips assert statements; the end check must not be one.
    code = (
        "from antimagic import build_type1, preset_graph\n"
        "from antimagic.labeling import LabelingError, _execute\n"
        "g = build_type1(3, [preset_graph('complete', [2])] * 4).composite\n"
        "for steps in ([('run', [0, 0, *range(2, 24)])], [('run', range(23))]):\n"
        "    try:\n"
        "        _execute(g, steps)\n"
        "    except LabelingError:\n"
        "        continue\n"
        "    raise SystemExit('accepted a bad label order')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_rank_by_partial_sums_sorts():
    rk = rank_by_partial_sums([7, 8, 9], {7: 5, 8: 3, 9: 4})
    assert rk.vertices == (8, 9, 7)
    assert rk.partial_sums == (3, 4, 5)


def test_rank_ties_break_by_id():
    rk = rank_by_partial_sums([2, 1], {1: 4, 2: 4})
    assert rk.vertices == (1, 2)


def test_rank_idempotent_on_sorted():
    sums = {3: 1, 5: 2, 9: 2}
    rk = rank_by_partial_sums([3, 5, 9], sums)
    again = rank_by_partial_sums(rk.vertices, sums)
    assert again.vertices == rk.vertices


def test_pan_r5_exact_base_sums(pan_r5):
    run = run_type1(pan_r5)
    report = vertex_sums(pan_r5.composite, run.labeling)
    sums = named_sums(pan_r5, report)
    assert [sums[f"u{i}"] for i in range(6)] == [6, 321, 392, 444, 546, 649]
    assert report.is_antimagic
    assert max(report.sums) == 649


def test_pan_r5_pendant_block_sums(pan_r5):
    run = run_type1(pan_r5)
    report = vertex_sums(pan_r5.composite, run.labeling)
    a0 = run.ranked_blocks[0]
    assert [report.sums[v] for v in a0.vertices] == [32, 34]


def test_pan_r5_pendant_star_assignment(pan_r5):
    # The pendant's base edge carries 1 and its cross edges 2..n0+1.
    run = run_type1(pan_r5)
    labels = dict(zip(pan_r5.composite.edges, run.labeling.labels))
    assert labels[(0, 5)] == 1
    first_block = pan_r5.blocks[0]
    for j, v in enumerate(first_block.vertex_ids, start=1):
        assert labels[(0, v)] == 1 + j


def test_pan_r5_offsets_closed_forms(pan_r5):
    run = run_type1(pan_r5)
    n = pan_r5.attachment_orders
    q = pan_r5.attachment_edge_counts
    assert run.offset("c") == n[0] + 1 + sum(q) == 25
    assert run.offset("b") == run.offset("c") + n[0] + 2 * sum(n[1:]) == 63


def test_pan_r5_chain_holds(pan_r5):
    run = run_type1(pan_r5)
    assert run.chain_holds
    names = [c.name for c in run.chain]
    assert names[0] == "w(u0)<w(a0_1)"
    assert names[-1] == "w(u4)<w(u5)"


def test_violating_forced_run_breaks_one_tied_link():
    # violating.json fails T41; forced, its chain breaks at one link whose
    # two sums are equal, which only a strict inequality rejects.
    spec = json.loads((Path(__file__).parent / "fixtures" / "violating.json").read_text())
    inst, _ = aio.instance_from_json(spec)
    run = run_type1(inst, force=True)
    assert not run.chain_holds
    broken = [link for link in run.chain if not link.holds]
    assert [link.name for link in broken] == ["w(u1)<w(u2)"]
    assert broken[0].left_sum == broken[0].right_sum


def test_block_label_ranges_are_contiguous(pan_r5):
    run = run_type1(pan_r5)
    for blk in pan_r5.blocks:
        labels = sorted(run.labeling.labels[e] for e in blk.edge_ids)
        assert labels == list(range(labels[0], labels[0] + len(labels)))


def test_pendant_sum_closed_form():
    for attachments in ([K(2), C(3), C(3), C(3)], [K(3), K(4), K(4), K(4), K(4)]):
        r = len(attachments) - 1
        inst = build_type1(r, attachments)
        run = run_type1(inst)
        report = vertex_sums(inst.composite, run.labeling)
        n0 = attachments[0].vertex_count
        assert report.sums[0] == n0 * (n0 + 1) // 2 + (n0 + 1)


def test_conditions_gate_and_force():
    inst = build_type1(3, [K(2)] * 4)
    with pytest.raises(ConditionsNotMet) as exc_info:
        run_type1(inst)
    assert "T41-h0h1" in exc_info.value.failed_ids
    labeling = run_type1(inst, force=True).labeling
    report = vertex_sums(inst.composite, labeling)
    assert sorted(labeling.labels) == list(range(1, 25))
    assert report.is_antimagic  # all sums distinct even though the gate failed


def test_condition_satisfying_small_instance():
    inst = build_type1(3, [K(2), C(3), C(3), C(3)])
    labeling = run_type1(inst).labeling
    assert sorted(labeling.labels) == list(range(1, 37))
    assert vertex_sums(inst.composite, labeling).is_antimagic


def test_wrong_base_type():
    inst = build_type2(1, [K(2)] * 3)
    with pytest.raises(WrongBaseType):
        run_type1(inst)


@pytest.mark.parametrize("force, calls", [(True, 0), (False, 1)])
def test_condition_check_runs_only_when_not_forced(monkeypatch, pan_r5, force, calls):
    import antimagic.labeling as labeling_module

    seen = []
    real = labeling_module.check_conditions
    monkeypatch.setattr(
        labeling_module, "check_conditions", lambda inst: seen.append(inst) or real(inst)
    )
    run_type1(pan_r5, force=force)
    assert len(seen) == calls
