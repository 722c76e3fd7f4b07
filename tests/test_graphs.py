"""Graph model and preset families."""

from __future__ import annotations

import hashlib

import pytest

from antimagic import degree_profile, is_connected, make_graph, preset_graph
from antimagic.graphs import BadParams, DuplicateEdge, IndexOutOfRange, LoopEdge


def test_make_graph_smallest():
    g = make_graph(2, [(0, 1)])
    assert g.vertex_count == 2
    assert g.edges == ((0, 1),)


def test_make_graph_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3


def test_make_graph_canonicalizes_pairs_preserving_order():
    g = make_graph(4, [(3, 1), (2, 0)])
    assert g.edges == ((1, 3), (0, 2))


def test_make_graph_rejects_loop():
    with pytest.raises(LoopEdge):
        make_graph(4, [(0, 0)])


def test_make_graph_rejects_duplicate_even_reversed():
    with pytest.raises(DuplicateEdge):
        make_graph(3, [(0, 1), (1, 0)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        make_graph(3, [(0, 3)])


def test_pan_preset_matches_zigzag_layout():
    g = preset_graph("pan", [5])
    assert g.vertex_count == 6
    assert set(g.edges) == {(0, 5), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5)}
    assert g.edges[0] == (0, 5)


def test_pan_degree_structure():
    for r in (3, 4, 7, 10):
        profile = degree_profile(preset_graph("pan", [r]))
        assert profile.degrees[0] == 1
        assert profile.degrees[r] == 3
        assert all(d == 2 for d in profile.degrees[1:r])


def test_spider_counts_and_degrees():
    g = preset_graph("spider", [2])
    assert g.vertex_count == 7
    assert g.edge_count == 6
    for p in (1, 2, 3, 5):
        g = preset_graph("spider", [p])
        profile = degree_profile(g)
        assert g.vertex_count == 3 * p + 1
        assert g.edge_count == 3 * p
        assert profile.degrees[0] == 3
        assert sum(1 for d in profile.degrees if d == 1) == 3


def test_spider_edge_order_walks_legs_tip_to_center():
    g = preset_graph("spider", [2])
    assert g.edges == ((1, 2), (3, 4), (5, 6), (0, 1), (0, 3), (0, 5))


def test_diamond():
    g = preset_graph("diamond")
    assert g.vertex_count == 4
    assert g.edge_count == 5
    assert sorted(degree_profile(g).degrees) == [2, 2, 3, 3]


def test_complete_profile():
    profile = degree_profile(preset_graph("complete", [4]))
    assert profile.max_degree == profile.min_degree == 3


def test_cycle_is_lexicographic():
    g = preset_graph("cycle", [5])
    assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert all(d == 2 for d in degree_profile(g).degrees)


def test_star_and_bipartite():
    star = preset_graph("star", [4])
    assert star.edges == ((0, 1), (0, 2), (0, 3))
    kab = preset_graph("complete_bipartite", [2, 3])
    assert kab.vertex_count == 5
    assert kab.edge_count == 6


@pytest.mark.parametrize(
    "kind,params",
    [
        ("path", [0]),
        ("cycle", [2]),
        ("complete", [0]),
        ("star", [1]),
        ("complete_bipartite", [0, 2]),
        ("pan", [2]),
        ("spider", [0]),
        ("nosuch", [1]),
        ("diamond", [4]),
    ],
)
def test_bad_preset_params(kind, params):
    with pytest.raises(BadParams):
        preset_graph(kind, params)


def test_preset_determinism():
    for kind, params in [("pan", [6]), ("spider", [3]), ("cycle", [7]), ("complete", [5])]:
        assert preset_graph(kind, params) == preset_graph(kind, params)


def test_is_connected():
    assert is_connected(make_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(make_graph(1, []))


PRESET_DIGEST_KINDS = (
    "path",
    "cycle",
    "complete",
    "star",
    "complete_bipartite",
    "diamond",
    "pan",
    "spider",
    "hexagon",
    ["K"],
    3,
    None,
    {"a": 1},
)


def preset_cases():
    """Every kind above with no parameter, with each of 0..12, and with each
    pair of them."""
    singles = [[n] for n in range(13)]
    pairs = [[a, b] for a in range(13) for b in range(13)]
    for kind in PRESET_DIGEST_KINDS:
        for params in [[], *singles, *pairs]:
            yield kind, params


def preset_outcome(kind, params):
    try:
        g = preset_graph(kind, params)
    except BadParams as exc:
        return ("BadParams", str(exc))
    return (g.vertex_count, g.edges, g.names)


# Made from the hand-written preset families before they became one table.
PRESET_DIGEST = "949dc4a5ce08afa3ae1ddab43ace40871e8c08280566e3900d9cb7eab7537b8b"


def test_preset_digest():
    h = hashlib.sha256()
    for kind, params in preset_cases():
        h.update(repr((kind, params, preset_outcome(kind, params))).encode())
    assert h.hexdigest() == PRESET_DIGEST


def test_preset_messages():
    assert preset_outcome("complete_bipartite", [0, 3]) == (
        "BadParams",
        "complete_bipartite needs a, b >= 1",
    )
    assert preset_outcome("diamond", [1]) == ("BadParams", "diamond expects 0 parameter(s), got 1")
    assert preset_outcome("spider", []) == ("BadParams", "spider expects 1 parameter(s), got 0")
    assert preset_outcome("pan", [2]) == ("BadParams", "pan needs r >= 3")
    assert preset_outcome(["K"], [3]) == ("BadParams", "unknown preset kind ['K']")
    assert preset_outcome({"a": 1}, []) == ("BadParams", "unknown preset kind {'a': 1}")
    assert preset_outcome("path", ["3"]) == ("BadParams", "path needs integer n")
    assert preset_outcome("path", [2.5]) == ("BadParams", "path needs integer n")
    assert preset_outcome("complete", [True]) == ("BadParams", "complete needs integer n")


def test_complete_bipartite_edges():
    assert preset_graph("complete_bipartite", [2, 3]).edges == (
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 2),
        (1, 3),
        (1, 4),
    )
