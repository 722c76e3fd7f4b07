"""Search oracles: exhaustive backtracking and seeded random climbing."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    Labeling,
    SearchOutcome,
    Status,
    brute_force_search,
    make_graph,
    preset_graph,
    random_search,
    vertex_sums,
)
from antimagic.verify import TooLarge


@st.composite
def small_graphs(draw):
    """Arbitrary simple graphs (connected or not) with at most 6 edges."""
    n = draw(st.integers(2, 5))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=6))
    return make_graph(n, edges)


def plain_enumeration(g):
    """Independent oracle: try every permutation in lexicographic order."""
    m = g.edge_count
    for perm in itertools.permutations(range(1, m + 1)):
        sums = [0] * g.vertex_count
        for edge_id, (u, v) in enumerate(g.edges):
            sums[u] += perm[edge_id]
            sums[v] += perm[edge_id]
        if len(set(sums)) == g.vertex_count:
            return perm
    return None


def test_k2_exhausted():
    outcome = brute_force_search(preset_graph("complete", [2]))
    assert outcome.status is Status.EXHAUSTED_NONE
    assert outcome.labeling is None


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_edgeless_graphs(n):
    """No edge, so no label: at most one vertex is antimagic with the empty
    labeling, and two isolated vertices both have the sum 0."""
    outcome = brute_force_search(make_graph(n, []))
    if n <= 1:
        assert outcome == SearchOutcome(Status.FOUND, Labeling((), 0), 0)
    else:
        assert outcome == SearchOutcome(Status.EXHAUSTED_NONE, None, 0)


def test_p3_found():
    outcome = brute_force_search(preset_graph("path", [3]))
    assert outcome.status is Status.FOUND
    report = vertex_sums(preset_graph("path", [3]), outcome.labeling)
    assert report.is_antimagic


def test_p4_found_matches_plain_enumeration():
    p4 = preset_graph("path", [4])
    outcome = brute_force_search(p4)
    assert outcome.status is Status.FOUND
    assert outcome.labeling.labels == plain_enumeration(p4)


def test_found_is_lexicographically_least():
    for g in (
        preset_graph("cycle", [4]),
        preset_graph("star", [4]),
        preset_graph("complete", [4]),
        make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    ):
        outcome = brute_force_search(g)
        expected = plain_enumeration(g)
        assert outcome.status is Status.FOUND
        assert outcome.labeling.labels == expected


def test_pruning_agrees_with_plain_enumeration_on_negatives():
    # Two K2 components: every labeling collides inside one of them.
    g = make_graph(4, [(0, 1), (2, 3)])
    assert plain_enumeration(g) is None
    assert brute_force_search(g).status is Status.EXHAUSTED_NONE


def test_too_large_without_override():
    g = preset_graph("complete", [6])  # 15 edges
    with pytest.raises(TooLarge):
        brute_force_search(g)
    # Raising the cap overrides the guard (kept tiny here for speed).
    small = preset_graph("cycle", [5])
    assert brute_force_search(small, limit=5).status is Status.FOUND


def test_random_search_finds_cycle():
    c5 = preset_graph("cycle", [5])
    outcome = random_search(c5, budget=5000, seed=1)
    assert outcome.status is Status.FOUND
    assert vertex_sums(c5, outcome.labeling).is_antimagic


def test_random_search_budget_exceeded_on_k2():
    outcome = random_search(preset_graph("complete", [2]), budget=1000, seed=3)
    assert outcome.status is Status.BUDGET_EXCEEDED
    assert outcome.examined == 1000


def test_random_search_deterministic():
    g = preset_graph("cycle", [6])
    first = random_search(g, budget=2000, seed=42)
    second = random_search(g, budget=2000, seed=42)
    assert first.status == second.status
    assert first.examined == second.examined
    assert (first.labeling and first.labeling.labels) == (
        second.labeling and second.labeling.labels
    )


def test_random_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        random_search(preset_graph("cycle", [3]), budget=0, seed=1)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_pruned_search_equals_plain_enumeration(g):
    outcome = brute_force_search(g, limit=6)
    expected = plain_enumeration(g)
    if expected is None:
        assert outcome.status is Status.EXHAUSTED_NONE
    else:
        assert outcome.status is Status.FOUND
        assert outcome.labeling.labels == expected
