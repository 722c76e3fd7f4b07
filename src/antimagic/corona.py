"""Generalized edge corona construction over pan and spider bases.

An instance names its base by `kind` ("pan" or "spider") and `param` (r for
the pan on u0..ur, p for the spider with legs of p vertices). The kind's row
of the preset table in graphs.py gives the parameter's name and least value;
`_KINDS` adds two columns: the first block id (0 for pan, 1 for spider) and
the base's edge count in closed form (r + 1 for pan, 3p for spider), which
the attachment count is checked against before the base is built.

The composite joins both endpoints of base edge i to every vertex of the
attachment placed on that edge. Its edges are laid out in contiguous id
ranges: the base edges first, then per block its internal edges and the
cross fans from its lower and its upper base endpoint. This layout is the
only record of an edge's role (base, internal to a block, or cross edge);
`CoronaInstance.edge_roles` spells it out as strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import NamedTuple, Sequence

# make_graph is not called here; bench/run.py traces it as corona.make_graph.
from .graphs import _PRESETS, Graph, is_connected, make_graph, preset_graph  # noqa: F401


class CoronaError(ValueError):
    """Invalid corona instance construction."""


class WrongAttachmentCount(CoronaError):
    """Attachment count does not match the base edge count."""


class DisconnectedAttachment(CoronaError):
    """An attachment graph is not connected."""


class AttachmentTooSmall(CoronaError):
    """An attachment graph has fewer than two vertices."""


class BadBaseParam(CoronaError):
    """Base parameter outside the supported range."""


# kind -> (first block id, base edge count as a function of param)
_KINDS = {"pan": (0, lambda r: r + 1), "spider": (1, lambda p: 3 * p)}


class Block(NamedTuple):
    """One attachment embedded in the composite. The field `index` shadows
    `tuple.index`."""

    index: int  # block id: 0..r for pan bases, 1..3p for spider bases
    graph: Graph
    vertex_start: int  # composite id of the block's first vertex
    edge_ids: range  # composite ids of the block's internal edges
    endpoints: tuple[int, int]  # composite ids of its base edge, (min, max)

    @property
    def vertex_ids(self) -> range:
        return range(self.vertex_start, self.vertex_start + self.graph.vertex_count)

    def cross_fan(self, side: int) -> range:
        """Composite ids of the cross edges from endpoints[side] (0 lower,
        1 upper) to the block's vertices, in attachment order."""
        start = self.edge_ids.stop + side * self.graph.vertex_count
        return range(start, start + self.graph.vertex_count)


@dataclass(frozen=True)
class CoronaInstance:
    """A built corona. `kind` is the base kind, a key of `_KINDS`, and
    `param` its parameter: r for a pan base, p for a spider base."""

    kind: str
    param: int
    base_graph: Graph
    attachments: tuple[Graph, ...]
    composite: Graph
    blocks: tuple[Block, ...]

    def block(self, index: int) -> Block:
        return self.blocks[index - self.blocks[0].index]

    @property
    def attachment_orders(self) -> tuple[int, ...]:
        """|V(H_i)| per block, in block order (n_i / m_i)."""
        return tuple(g.vertex_count for g in self.attachments)

    @property
    def attachment_edge_counts(self) -> tuple[int, ...]:
        """|E(H_i)| per block, in block order (q_i / h_i)."""
        return tuple(g.edge_count for g in self.attachments)

    @property
    def edge_roles(self) -> list[str]:
        """The role of each composite edge, in edge order: "base:k" for base
        edge k, "internal:b" for an edge inside block b, and "cross:b:x:j"
        for the edge from base vertex x to the j-th (1-based) vertex of
        block b."""
        base_edges = self.base_graph.edge_count
        ordinals = list(map(str, range(max(base_edges, *self.attachment_orders) + 1)))
        roles = list(map("base:".__add__, ordinals[:base_edges]))
        for index, h, _, edge_ids, endpoints in self.blocks:
            roles += repeat(f"internal:{index}", len(edge_ids))
            fan = ordinals[1 : h.vertex_count + 1]
            for endpoint in endpoints:
                roles += map(f"cross:{index}:{endpoint}:".__add__, fan)
        return roles


def normalize_attachments(attachments: Sequence[Graph]) -> tuple[Graph, ...]:
    """Stable sort by vertex count, non-decreasing.

    Never applied implicitly by the builders: the size ordering is a stated
    hypothesis of the labelings, and silent reordering would mask violations.
    """
    return tuple(sorted(attachments, key=lambda g: g.vertex_count))


def build_type1(r: int, attachments: Sequence[Graph]) -> CoronaInstance:
    """Corona over the pan base: block 0 sits on the pendant edge u0-ur,
    block 1 on u1-u2, block j on u(j-1)-u(j+1), block r on u(r-1)-ur.
    """
    return _build("pan", r, attachments)


def build_type2(p: int, attachments: Sequence[Graph]) -> CoronaInstance:
    """Corona over the spider base: blocks walk each leg from the tip toward
    the center (x, y, z interleaved), and blocks 3p-2..3p sit on the three
    center edges.
    """
    return _build("spider", p, attachments)


def _check_attachments(attachments: Sequence[Graph], expected: int) -> None:
    if len(attachments) != expected:
        raise WrongAttachmentCount(
            f"expected {expected} attachments, got {len(attachments)}"
        )
    for pos, g in enumerate(attachments):
        if g.vertex_count < 2:
            raise AttachmentTooSmall(f"attachment at position {pos} has < 2 vertices")
        if not is_connected(g):
            raise DisconnectedAttachment(f"attachment at position {pos} is disconnected")


def _build(kind: str, param: int, attachments: Sequence[Graph]) -> CoronaInstance:
    (param_name,), least, _ = _PRESETS[kind]
    if param < least:
        raise BadBaseParam(f"{kind} base needs {param_name} >= {least}, got {param}")
    first_block, base_edge_count = _KINDS[kind]
    # Checked before the base is built, whose size grows with param.
    _check_attachments(attachments, base_edge_count(param))
    base = preset_graph(kind, [param])
    attachments = tuple(attachments)
    names = list(base.names)
    edges = list(base.edges)

    # "0", "1", ...: the suffixes of the block vertex names.
    ordinals = list(map(str, range(max(g.vertex_count for g in attachments) + 1)))
    blocks: list[Block] = []
    next_vertex = base.vertex_count
    for k, h in enumerate(attachments):
        block_id = first_block + k
        start = next_vertex
        names += map(f"v{block_id}_".__add__, ordinals[1 : h.vertex_count + 1])
        # Internal edges, then the cross fans from the lower and the upper
        # base endpoint, each contiguous; Block.cross_fan and
        # CoronaInstance.edge_roles rely on this.
        first_internal = len(edges)
        edges += [(start + a, start + b) for a, b in h.edges]
        lo, hi = base.edges[k]  # base vertices precede block vertices
        edges += product((lo, hi), range(start, start + h.vertex_count))
        internal = range(first_internal, first_internal + h.edge_count)
        blocks.append(Block(block_id, h, start, internal, (lo, hi)))
        next_vertex += h.vertex_count

    # The parts are validated graphs and every edge above is (min, max), so
    # the composite needs no second pass through make_graph.
    total_orders = sum(g.vertex_count for g in attachments)
    total_internal = sum(g.edge_count for g in attachments)
    if len(names) != next_vertex or next_vertex != base.vertex_count + total_orders:
        raise CoronaError(f"composite has {next_vertex} vertices, expected |V(G)| + sum |V(H_i)|")
    if len(edges) != base.edge_count + total_internal + 2 * total_orders:
        raise CoronaError(f"composite has {len(edges)} edges, expected |E(G)| + sum (|E(H_i)| + 2|V(H_i)|)")
    composite = Graph(next_vertex, tuple(edges), tuple(names))
    return CoronaInstance(
        kind=kind,
        param=param,
        base_graph=base,
        attachments=attachments,
        composite=composite,
        blocks=tuple(blocks),
    )
