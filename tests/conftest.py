"""Shared builders for the worked fixtures used across the suite."""

from __future__ import annotations

import itertools

import pytest

from antimagic import build_type1, build_type2, preset_graph


def K(n):
    return preset_graph("complete", [n])


def C(n):
    return preset_graph("cycle", [n])


def P(n):
    return preset_graph("path", [n])


def S(n):
    return preset_graph("star", [n])


def diamond():
    return preset_graph("diamond")


# The attachment catalog of the small-instance sweep, in non-decreasing
# vertex count; instances list entries in non-decreasing catalog order.
CATALOG = (
    ("complete", (2,)),
    ("path", (3,)),
    ("complete", (3,)),
    ("path", (4,)),
    ("star", (4,)),
    ("cycle", (4,)),
    ("diamond", ()),
    ("complete", (4,)),
    ("star", (5,)),
    ("cycle", (5,)),
    ("complete", (5,)),
)
CATALOG_GRAPHS = tuple(preset_graph(kind, params) for kind, params in CATALOG)


def catalog_combos(blocks):
    """Every multiset of `blocks` catalog graphs, each listed in catalog order."""
    for combo in itertools.combinations_with_replacement(CATALOG_GRAPHS, blocks):
        yield list(combo)


@pytest.fixture
def pan_r5():
    """Pan base r=5 with (K2, C3, C3, C4, diamond, K4)."""
    return build_type1(5, [K(2), C(3), C(3), C(4), diamond(), K(4)])


@pytest.fixture
def spider_p2():
    """Spider base p=2 with (K2, C3, C3, K4, K4, K4)."""
    return build_type2(2, [K(2), C(3), C(3), K(4), K(4), K(4)])


@pytest.fixture
def spider_p4():
    """Spider base p=4 with (K2 x9, K5 x3)."""
    return build_type2(4, [K(2)] * 9 + [K(5)] * 3)


def named_sums(inst, report):
    return {inst.composite.names[v]: s for v, s in enumerate(report.sums)}


def ranked(run, block):
    """The ranked block of a labeling run whose block id is `block`."""
    for rk in run.ranked_blocks:
        if rk.block == block:
            return rk
    raise AssertionError(f"no ranked block {block}")


def recomputed_sums(g, labels):
    """The vertex sums of g under labels (one per edge, in edge order),
    recomputed here rather than taken from the verifier."""
    sums = [0] * g.vertex_count
    for (u, v), label in zip(g.edges, labels, strict=True):
        sums[u] += label
        sums[v] += label
    return sums


def plain_enumeration(g):
    """Independent search oracle: the first permutation of 1..|E|, in
    lexicographic order, whose vertex sums are distinct, or None."""
    for perm in itertools.permutations(range(1, g.edge_count + 1)):
        if len(set(recomputed_sums(g, perm))) == g.vertex_count:
            return perm
    return None
