"""Property-based checks over random graphs and instances."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import (
    build_type1,
    build_type2,
    check_conditions,
    degree_profile,
    is_connected,
    make_graph,
    normalize_attachments,
    preset_graph,
    rank_by_partial_sums,
    run_type1,
    run_type2,
    vertex_sums,
)

PRESET_CASES = st.sampled_from(
    [
        ("path", (5,)),
        ("path", (1,)),
        ("cycle", (3,)),
        ("cycle", (8,)),
        ("complete", (5,)),
        ("star", (6,)),
        ("complete_bipartite", (2, 4)),
        ("diamond", ()),
        ("pan", (3,)),
        ("pan", (9,)),
        ("spider", (1,)),
        ("spider", (4,)),
    ]
)


@given(PRESET_CASES)
def test_handshake_on_presets(case):
    kind, params = case
    g = preset_graph(kind, list(params))
    assert sum(degree_profile(g).degrees) == 2 * g.edge_count


@given(PRESET_CASES)
def test_preset_edges_are_canonical_pairs(case):
    kind, params = case
    g = preset_graph(kind, list(params))
    assert all(u < v for u, v in g.edges)
    assert len(set(g.edges)) == g.edge_count
    # Presets are built without make_graph; each must be what make_graph
    # would have built from its own parts.
    assert make_graph(g.vertex_count, g.edges, g.names) == g


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=7):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(0, v - 1)), v))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(edges)]
    extras = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return make_graph(n, edges + extras)


@given(connected_graphs())
def test_random_graph_handshake(g):
    assert sum(degree_profile(g).degrees) == 2 * g.edge_count


@given(st.lists(connected_graphs(), min_size=1, max_size=8))
def test_normalize_is_a_stable_size_sort(graphs):
    out = normalize_attachments(graphs)
    sizes = [g.vertex_count for g in out]
    assert sizes == sorted(sizes)
    for size in set(sizes):
        same_in = [g for g in graphs if g.vertex_count == size]
        same_out = [g for g in out if g.vertex_count == size]
        assert same_in == same_out


@given(st.integers(3, 9), st.data())
def test_type1_size_identities(r, data):
    attachments = [data.draw(connected_graphs()) for _ in range(r + 1)]
    inst = build_type1(r, attachments)
    n = sum(g.vertex_count for g in attachments)
    q = sum(g.edge_count for g in attachments)
    assert inst.composite.vertex_count == (r + 1) + n
    assert inst.composite.edge_count == (r + 1) + q + 2 * n


@given(st.integers(1, 4), st.data())
def test_type2_size_identities(p, data):
    attachments = [data.draw(connected_graphs(max_vertices=5)) for _ in range(3 * p)]
    inst = build_type2(p, attachments)
    m = sum(g.vertex_count for g in attachments)
    h = sum(g.edge_count for g in attachments)
    assert inst.composite.vertex_count == m + 3 * p + 1
    assert inst.composite.edge_count == h + 2 * m + 3 * p


@given(st.integers(1, 4), st.data())
def test_attachment_vertices_gain_exactly_two_cross_edges(p, data):
    attachments = [data.draw(connected_graphs(max_vertices=4)) for _ in range(3 * p)]
    inst = build_type2(p, attachments)
    comp_deg = degree_profile(inst.composite).degrees
    for blk in inst.blocks:
        own = degree_profile(blk.graph).degrees
        for local, v in enumerate(blk.vertex_ids):
            assert comp_deg[v] == own[local] + 2


@given(
    st.dictionaries(st.integers(0, 30), st.integers(0, 100), min_size=1, max_size=12)
)
def test_rank_is_monotone_and_stable(sums):
    rk = rank_by_partial_sums(list(sums), sums)
    assert list(rk.partial_sums) == sorted(rk.partial_sums)
    for (u, su), (v, sv) in zip(
        zip(rk.vertices, rk.partial_sums), zip(rk.vertices[1:], rk.partial_sums[1:])
    ):
        if su == sv:
            assert u < v
    again = rank_by_partial_sums(rk.vertices, sums)
    assert again.vertices == rk.vertices


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.data())
def test_forced_type1_runs_are_always_bijections(r, data):
    attachments = [data.draw(connected_graphs(max_vertices=5)) for _ in range(r + 1)]
    inst = build_type1(r, attachments)
    run = run_type1(inst, force=True)
    m = inst.composite.edge_count
    assert sorted(run.labeling.labels) == list(range(1, m + 1))
    report = vertex_sums(inst.composite, run.labeling)
    # Ranked blocks never collide internally, conditions or not.
    for rk in run.ranked_blocks:
        block_sums = [report.sums[v] for v in rk.vertices]
        assert len(set(block_sums)) == len(block_sums)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_forced_type2_runs_are_always_bijections(p, data):
    attachments = [data.draw(connected_graphs(max_vertices=4)) for _ in range(3 * p)]
    inst = build_type2(p, attachments)
    run = run_type2(inst, force=True)
    m = inst.composite.edge_count
    assert sorted(run.labeling.labels) == list(range(1, m + 1))
    report = vertex_sums(inst.composite, run.labeling)
    for rk in run.ranked_blocks:
        block_sums = [report.sums[v] for v in rk.vertices]
        assert len(set(block_sums)) == len(block_sums)


def test_equal_attachments_force_partial_sum_ties_without_collisions():
    # Identical blocks produce tied partial sums inside every ranked block;
    # the strictly increasing appended labels must still separate the sums.
    inst = build_type1(4, [preset_graph("complete", [2]) for _ in range(5)])
    run = run_type1(inst, force=True)
    report = vertex_sums(inst.composite, run.labeling)
    saw_tie = False
    for rk in run.ranked_blocks:
        if len(set(rk.partial_sums)) < len(rk.partial_sums):
            saw_tie = True
        block_sums = [report.sums[v] for v in rk.vertices]
        assert len(set(block_sums)) == len(block_sums)
    assert saw_tie


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["pan", "spider"]), st.data())
def test_composite_passes_make_graph_unchanged(kind, data):
    # The composite is built without make_graph; it must be what make_graph
    # would have built from its own parts.
    if kind == "pan":
        r = data.draw(st.integers(3, 6))
        c = build_type1(r, [data.draw(connected_graphs(max_vertices=5)) for _ in range(r + 1)]).composite
    else:
        p = data.draw(st.integers(1, 3))
        c = build_type2(p, [data.draw(connected_graphs(max_vertices=4)) for _ in range(3 * p)]).composite
    assert make_graph(c.vertex_count, c.edges, c.names) == c


@st.composite
def any_graphs(draw, max_vertices=7):
    """Random simple graph, connected or not."""
    n = draw(st.integers(0, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_graph(n, draw(st.permutations(edges)))


def _recount(g):
    """Degrees and connectivity, recounted by union-find."""
    degrees = [0] * g.vertex_count
    root = list(range(g.vertex_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
        root[find(u)] = find(v)
    return degrees, len({find(v) for v in range(g.vertex_count)}) <= 1


@given(any_graphs())
def test_memoized_facts_match_a_fresh_recount(g):
    twin = make_graph(g.vertex_count, g.edges, g.names)
    profile, connected = degree_profile(g), is_connected(g)
    assert twin == g and hash(twin) == hash(g)
    degrees, fresh_connected = _recount(g)
    assert profile.degrees == tuple(degrees)
    assert profile.max_degree == max(degrees, default=0)
    assert profile.min_degree == min(degrees, default=0)
    assert connected == fresh_connected
    # Repeated calls return the kept values.
    assert degree_profile(g) is profile and is_connected(g) is connected
    assert degree_profile(twin) == profile and is_connected(twin) == connected


def _conditions_from_composite(inst):
    """Every condition's (lhs, rhs), recomputed from the composite's degrees
    and each block's vertex range."""
    deg = degree_profile(inst.composite).degrees
    at = {name: deg[v] for v, name in enumerate(inst.composite.names)}

    def over(i):
        return [deg[v] for v in inst.block(i).vertex_ids]

    def size(i):
        return len(inst.block(i).vertex_ids)

    def att_chain(i):  # a block vertex has two cross edges
        return max(over(i)) - 2, min(over(i + 1)) - 2

    out = {}
    if inst.kind == "pan":
        r = inst.param
        out.update({f"T41-size-{i}": (size(i), size(i + 1)) for i in range(r)})
        out["T41-h0h1"] = att_chain(0)
        out.update({f"T41-chain-{i}": att_chain(i) for i in range(1, r)})
        out.update({f"T41-star-{i}": (at["u0"], min(over(i))) for i in range(r + 1)})
        out["T41-cap"] = (max(over(r)), at["u1"])
        return out
    p = inst.param
    if p == 1:
        return out
    t, chain = ("T43", "T43-i-{}") if p > 2 else ("T42", "T42-chain-{}")
    out.update({f"{t}-size-{i}": (size(i), size(i + 1)) for i in range(1, 3 * p)})
    out.update({chain.format(i): att_chain(i) for i in range(1, 3 * p)})
    for k, leg in enumerate("xyz", start=1):  # the tip of a leg against block k + 1
        tip_id = f"T43-ii-{leg}" if p > 2 else f"T42-deg-{leg}2"
        out[tip_id] = (at[f"{leg}{p}"], min(over(k + 1)))
    if p > 2:
        out["T43-iii"] = (max(over(3 * p - 3)), size(4) + 1)
        out["T43-iv"] = (at["z2"], min(over(3 * p - 2)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pan", "spider"]), st.data())
def test_condition_witnesses_match_composite_degrees(kind, data):
    if kind == "pan":
        r = data.draw(st.integers(3, 6))
        inst = build_type1(r, [data.draw(connected_graphs(max_vertices=5)) for _ in range(r + 1)])
    else:
        p = data.draw(st.integers(1, 4))
        inst = build_type2(p, [data.draw(connected_graphs(max_vertices=4)) for _ in range(3 * p)])
    report = check_conditions(inst)
    assert {c.id: (c.lhs, c.rhs) for c in report.conditions} == _conditions_from_composite(inst)
    for c in report.conditions:
        assert c.holds == (c.lhs < c.rhs if c.id == "T41-h0h1" else c.lhs <= c.rhs)
