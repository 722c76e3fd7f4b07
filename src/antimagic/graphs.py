"""Immutable simple graphs, labelings, canonical preset families, and
degree computations.

Edge sequences are ordered: the labeling constructions hand out consecutive
labels along a graph's edge order, so the order is part of each preset's
contract, not an implementation detail.

`make_graph` is the validating constructor, for edges that come from
outside the program. The preset families are one table, `_PRESETS`, that
maps each kind to its parameter names, the least value every parameter may
take, and a builder that constructs the `Graph` directly: its edges are
canonical, distinct and in range by construction, so they need no second
check. `preset_graph` looks the kind up, checks the parameter count, type
and least value, and calls the builder; every `BadParams` message is made
from the table entry. The `pan` and `spider` rows also give corona.py the
name and least value of a base parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, pairwise, product
from typing import Callable, Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction."""


class LoopEdge(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphError):
    """The same unordered vertex pair appears more than once."""


class IndexOutOfRange(GraphError):
    """An edge endpoint is not a valid vertex index."""


class BadParams(GraphError):
    """Preset parameters are out of range for the requested family."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with a fixed edge order.

    Edges are stored canonically as (u, v) with u < v. ``names`` is an
    optional per-vertex display name used in reports. degree_profile and
    is_connected compute their result once per graph and keep it in a
    private slot, which takes no part in equality, hashing or repr.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    names: tuple[str, ...] | None = None
    _degree_profile: DegreeProfile | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _connected: bool | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Labeling:
    """Edge labels by edge id. Constructions always emit a bijection onto
    {1..total_edges}; the verifier re-checks rather than trusting this.
    """

    labels: tuple[int, ...]
    total_edges: int


@dataclass(frozen=True, slots=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int


def make_graph(
    vertex_count: int,
    edges: Iterable[Sequence[int]],
    names: Sequence[str] | None = None,
) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Each pair is stored as (min, max); the sequence order is the input order.
    Equal endpoints are stored as one int object, shared through a dict of
    the ids seen so far, which holds at most two entries per edge.
    Names, when given, are distinct strings, one per vertex.
    """
    if vertex_count < 0:
        raise BadParams(f"vertex_count must be non-negative, got {vertex_count}")
    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    ids: dict[int, int] = {}
    for pair in edges:
        u, v = pair
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
        u, v = ids.setdefault(u, u), ids.setdefault(v, v)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} repeated")
        seen.add(e)
        canonical.append(e)
    name_tuple: tuple[str, ...] | None = None
    if names is not None:
        name_tuple = tuple(names)
        if len(name_tuple) != vertex_count:
            raise BadParams("names length must equal vertex_count")
        if not set(map(type, name_tuple)) <= {str}:
            raise BadParams("names must be strings")
        try:
            "".join(name_tuple).encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, such as JSON's "\ud800"
            raise BadParams(f"names must be Unicode text: {exc.reason}") from None
        if len(set(name_tuple)) != vertex_count:
            raise BadParams("names must be distinct")
    return Graph(vertex_count, tuple(canonical), name_tuple)


def degree_profile(g: Graph) -> DegreeProfile:
    """Degrees of g, computed on the first call and kept on g."""
    if g._degree_profile is None:
        degrees = [0] * g.vertex_count
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        profile = DegreeProfile(
            degrees=tuple(degrees),
            max_degree=max(degrees, default=0),
            min_degree=min(degrees, default=0),
        )
        object.__setattr__(g, "_degree_profile", profile)
    return g._degree_profile


def is_connected(g: Graph) -> bool:
    """Whether g is connected, computed on the first call and kept on g."""
    if g._connected is None:
        adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for u, v in g.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = set(range(min(g.vertex_count, 1)))  # search from vertex 0, if any
        stack = list(seen)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        object.__setattr__(g, "_connected", len(seen) == g.vertex_count)
    return g._connected


def preset_graph(kind: str, params: Sequence[int] = ()) -> Graph:
    """Build a named preset with its canonical edge order.

    Orders: paths in traversal order; cycles, complete and complete
    bipartite graphs in lexicographic pair order; stars hub-to-leaf; the
    diamond lists its two degree-3 vertices first. pan(r) and spider(p)
    order edges so that edge i is the attachment site of block i in the
    corona constructions.
    """
    preset = _PRESETS.get(kind) if isinstance(kind, str) else None
    if preset is None:
        raise BadParams(f"unknown preset kind {kind!r}")
    names, minimum, build = preset
    params = tuple(params)
    if len(params) != len(names):
        raise BadParams(f"{kind} expects {len(names)} parameter(s), got {len(params)}")
    if not set(map(type, params)) <= {int}:
        raise BadParams(f"{kind} needs integer {', '.join(names)}")
    if min(params, default=minimum) < minimum:
        raise BadParams(f"{kind} needs {', '.join(names)} >= {minimum}")
    return build(*params)


def _pan(r: int) -> Graph:
    edges = [(0, r), (1, 2)]
    edges += [(i, i + 2) for i in range(1, r - 1)]
    edges += [(r - 1, r)]
    return Graph(r + 1, tuple(edges), tuple(f"u{i}" for i in range(r + 1)))


def _spider(p: int) -> Graph:
    edges = tuple(
        (spider_leg_vertex(p, leg, depth - 1), spider_leg_vertex(p, leg, depth))
        for depth in range(p, 0, -1)
        for leg in range(3)
    )
    names = ["v0"]
    for prefix in ("x", "y", "z"):
        names += [f"{prefix}{k}" for k in range(1, p + 1)]
    return Graph(3 * p + 1, edges, tuple(names))


# kind -> (parameter names, least value of every parameter, builder)
_PRESETS: dict[str, tuple[tuple[str, ...], int, Callable[..., Graph]]] = {
    "path": (("n",), 1, lambda n: Graph(n, tuple(pairwise(range(n))))),
    "cycle": (("n",), 3, lambda n: Graph(n, tuple(sorted([*pairwise(range(n)), (0, n - 1)])))),
    "complete": (("n",), 1, lambda n: Graph(n, tuple(combinations(range(n), 2)))),
    "star": (("n",), 2, lambda n: Graph(n, tuple((0, i) for i in range(1, n)))),
    "complete_bipartite": (
        ("a", "b"), 1, lambda a, b: Graph(a + b, tuple(product(range(a), range(a, a + b))))
    ),
    "diamond": ((), 0, lambda: Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))),
    "pan": (("r",), 3, _pan),
    "spider": (("p",), 1, _spider),
}


def spider_leg_vertex(p: int, leg: int, depth: int) -> int:
    """Vertex id of the depth-th vertex on a leg (depth 0 is the center)."""
    if depth == 0:
        return 0
    return leg * p + depth
