"""Verifier: exact sums and duplicate groups."""

from __future__ import annotations

import pytest

from antimagic import (
    Labeling,
    make_graph,
    run_type2,
    vertex_sums,
)
from antimagic.verify import NotABijection

from .conftest import recomputed_sums


def test_triangle_sums():
    c3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    report = vertex_sums(c3, Labeling((1, 2, 3), 3))
    assert report.sums == (3, 4, 5)
    assert report.is_antimagic
    assert report.duplicate_groups == ()


def test_k2_never_antimagic():
    k2 = make_graph(2, [(0, 1)])
    report = vertex_sums(k2, Labeling((1,), 1))
    assert report.sums == (1, 1)
    assert not report.is_antimagic
    assert report.duplicate_groups == ((0, 1),)


def test_rejects_non_bijection():
    c3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(NotABijection):
        vertex_sums(c3, Labeling((1, 1, 2), 3))
    with pytest.raises(NotABijection):
        vertex_sums(c3, Labeling((1, 2), 2))
    with pytest.raises(NotABijection):
        vertex_sums(c3, Labeling((0, 1, 2), 3))


@pytest.mark.parametrize("at", [0, 4095, 4096, 8191, 9998, 9999])
def test_rejects_a_non_bijection_in_any_run_of_labels(at):
    """The sorted labels are compared with 1..|E| in runs of 4,096: a label
    out of place in any run, the last one partial, is found."""
    path = make_graph(10_001, [(i, i + 1) for i in range(10_000)])
    labels = list(range(1, 10_001))
    assert vertex_sums(path, Labeling(tuple(labels), 10_000)).is_antimagic
    for wrong in (10_001, 0, labels[at - 1] if at else 2):  # past |E|, zero, a repeat
        changed = labels[:at] + [wrong] + labels[at + 1 :]
        with pytest.raises(NotABijection, match="not a permutation"):
            vertex_sums(path, Labeling(tuple(changed), 10_000))


def test_handshake_identity(pan_r5, spider_p2):
    from antimagic import run_type1

    for inst, runner in ((pan_r5, run_type1), (spider_p2, run_type2)):
        report = vertex_sums(inst.composite, runner(inst).labeling)
        m = inst.composite.edge_count
        assert sum(report.sums) == m * (m + 1)


def test_duplicate_groups_list_all_collisions():
    # A path with labels chosen to collide twice over.
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    report = vertex_sums(p4, Labeling((2, 1, 3), 3))
    # sums: 2, 3, 4, 3
    assert report.sums == (2, 3, 4, 3)
    assert report.duplicate_groups == ((1, 3),)


def test_chain_verdicts_are_reported():
    c3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    report = vertex_sums(
        c3,
        Labeling((1, 2, 3), 3),
        chain=[("w(a)<w(b)", 0, 1), ("w(b)<w(a)", 1, 0)],
    )
    assert report.chain == (("w(a)<w(b)", True), ("w(b)<w(a)", False))


def test_full_partial_equals_vertex_sums(spider_p2):
    labeling = run_type2(spider_p2).labeling
    comp = spider_p2.composite
    expected = recomputed_sums(comp, labeling.labels)
    report = vertex_sums(comp, labeling)
    assert report.sums == tuple(expected)
    assert report.is_antimagic == (len(set(expected)) == len(expected))
