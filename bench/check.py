"""Output checker that trusts nothing in the program.

Everything here is recomputed from the spec parameters and the files the
CLI writes. The composite is rebuilt from the corona definition: a copy of
the base graph G and of each attachment H_i, with both ends of base edge i
joined to every vertex of H_i. Vertex numbering follows the documented file
layout: base vertices first (pan u0..ur as 0..r; spider center 0 and leg
vertex at depth d on leg l as l*p + d), then each block's vertices in block
order. Only the attachment kinds the benchmark writes (K_n, C_n) are known.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence


class CheckFailed(AssertionError):
    """An output disagrees with the independent recomputation."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def base_edges(kind: str, param: int) -> list[tuple[int, int]]:
    """Base edges in block order: edge i carries attachment H_i."""
    if kind == "pan":
        r = param
        # Block 0 on the pendant edge u0-ur, block 1 on u1-u2, block j on
        # u(j-1)-u(j+1), block r on u(r-1)-ur: the rim is a cycle on u1..ur.
        return [(0, r), (1, 2)] + [(j - 1, j + 1) for j in range(2, r)] + [(r - 1, r)]
    if kind == "spider":
        p = param

        def leg(l: int, depth: int) -> int:
            return 0 if depth == 0 else l * p + depth

        # Blocks walk each leg from the tip inward, the legs interleaved.
        return [
            (leg((t - 1) % 3, p - (t - 1) // 3), leg((t - 1) % 3, p - (t - 1) // 3 - 1))
            for t in range(1, 3 * p + 1)
        ]
    raise ValueError(f"unknown base {kind!r}")


def base_size(kind: str, param: int) -> tuple[int, int]:
    """|V(G)| and |E(G)| in closed form."""
    if kind == "pan":
        return param + 1, param + 1
    if kind == "spider":
        return 3 * param + 1, 3 * param
    raise ValueError(f"unknown base {kind!r}")


def attachment_edges(desc: Mapping[str, Any]) -> tuple[int, list[tuple[int, int]]]:
    kind, params = desc["kind"], desc["params"]
    (n,) = params
    if kind == "K":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "C":
        return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    raise ValueError(f"unknown attachment kind {kind!r}")


def attachment_size(desc: Mapping[str, Any]) -> tuple[int, int]:
    """|V(H)| and |E(H)| in closed form."""
    kind, (n,) = desc["kind"], desc["params"]
    if kind == "K":
        return n, n * (n - 1) // 2
    if kind == "C":
        return n, n
    raise ValueError(f"unknown attachment kind {kind!r}")


def closed_form_size(spec: Mapping[str, Any]) -> tuple[int, int]:
    """|V| = |V(G)| + sum |V(H_i)|, |E| = |E(G)| + sum |E(H_i)| + 2 sum |V(H_i)|."""
    vg, eg = base_size(spec["base"]["type"], spec["base"]["param"])
    sizes = [attachment_size(a) for a in spec["attachments"]]
    total_v = sum(v for v, _ in sizes)
    total_e = sum(e for _, e in sizes)
    return vg + total_v, eg + total_e + 2 * total_v


def composite(spec: Mapping[str, Any]) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of G ◇ (H_1..H_m), rebuilt from the definition."""
    kind, param = spec["base"]["type"], spec["base"]["param"]
    base = base_edges(kind, param)
    if len(base) != len(spec["attachments"]):
        _fail(f"{len(spec['attachments'])} attachments for {len(base)} base edges")
    edges = set(base)
    next_vertex = base_size(kind, param)[0]
    for (a, b), desc in zip(base, spec["attachments"]):
        n, internal = attachment_edges(desc)
        block = range(next_vertex, next_vertex + n)
        edges.update((next_vertex + u, next_vertex + v) for u, v in internal)
        for end in (a, b):
            edges.update((min(end, w), max(end, w)) for w in block)
        next_vertex += n
    return next_vertex, {(min(u, v), max(u, v)) for u, v in edges}


def _edge_set(pairs: Iterable[Sequence[int]], what: str) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    count = 0
    for u, v in pairs:
        out.add((min(u, v), max(u, v)))
        count += 1
    if len(out) != count:
        _fail(f"{what} lists an edge twice")
    return out


def check_graph(spec: Mapping[str, Any], graph: Mapping[str, Any]) -> set[tuple[int, int]]:
    """Check a `build --graph-out` file against the spec; return its edge set."""
    want_v, want_e = closed_form_size(spec)
    if graph["vertices"] != want_v:
        _fail(f"graph has {graph['vertices']} vertices, closed form gives {want_v}")
    if len(graph["edges"]) != want_e:
        _fail(f"graph has {len(graph['edges'])} edges, closed form gives {want_e}")
    rebuilt_v, rebuilt = composite(spec)
    if (rebuilt_v, len(rebuilt)) != (want_v, want_e):
        _fail("the rebuilt composite disagrees with the closed form")
    edges = _edge_set(graph["edges"], "graph")
    if edges != rebuilt:
        missing = sorted(rebuilt - edges)[:3]
        extra = sorted(edges - rebuilt)[:3]
        _fail(f"graph edge set differs from the corona: missing {missing}, extra {extra}")
    return edges


def vertex_sums(
    vertex_count: int, edges: Iterable[Sequence[int]], labels: Iterable[int]
) -> list[int]:
    sums = [0] * vertex_count
    for (u, v), label in zip(edges, labels):
        sums[u] += label
        sums[v] += label
    return sums


def check_permutation(labels: Sequence[int]) -> None:
    if sorted(labels) != list(range(1, len(labels) + 1)):
        _fail("labels are not a permutation of 1..|E|")


def check_distinct(sums: Sequence[int]) -> None:
    if len(set(sums)) != len(sums):
        _fail("two vertices have the same sum")


def check_labeling(
    vertex_count: int, edges: set[tuple[int, int]], labeling: Mapping[str, Any]
) -> list[int]:
    """Check a labeling file against the composite's edge set; return the sums."""
    entries = labeling["edges"]
    pairs = [(e["u"], e["v"]) for e in entries]
    if _edge_set(pairs, "labeling") != edges:
        _fail("labeling edge set differs from the composite")
    labels = [e["label"] for e in entries]
    check_permutation(labels)
    sums = vertex_sums(vertex_count, pairs, labels)
    check_distinct(sums)
    if "sums" in labeling and list(labeling["sums"]) != sums:
        _fail("labeling file sums disagree with the recomputed sums")
    return sums


def check_report(report: Mapping[str, Any], sums: Sequence[int]) -> int:
    """Check a sum report (label or verify output); return its chain length."""
    if report["is_antimagic"] is not True or report["duplicate_groups"]:
        _fail("report does not certify the labeling as antimagic")
    if sorted(report["vertex_sums"].values()) != sorted(sums):
        _fail("report sums disagree with the recomputed sums")
    chain = report.get("chain", [])
    broken = [link["name"] for link in chain if link["holds"] is not True]
    if broken:
        _fail(f"chain links do not hold: {broken[:3]}")
    return len(chain)
