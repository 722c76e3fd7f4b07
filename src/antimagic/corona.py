"""Generalized edge corona construction over pan and spider bases.

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
from .graphs import Graph, is_connected, make_graph, preset_graph  # noqa: F401


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


@dataclass(frozen=True)
class PanType1:
    """Pan base on vertices u0..ur with the pendant u0, r >= 3."""

    r: int


@dataclass(frozen=True)
class SpiderType2:
    """Spider base with center v0 and three legs of p vertices each."""

    p: int


BaseSpec = PanType1 | SpiderType2


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
    base: BaseSpec
    base_graph: Graph
    attachments: tuple[Graph, ...]
    composite: Graph
    blocks: tuple[Block, ...]

    @property
    def kind(self) -> str:
        return "pan" if isinstance(self.base, PanType1) else "spider"

    def block(self, index: int) -> Block:
        offset = 0 if isinstance(self.base, PanType1) else 1
        return self.blocks[index - offset]

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
    if r < 3:
        raise BadBaseParam(f"pan base needs r >= 3, got {r}")
    base = preset_graph("pan", [r])
    _check_attachments(attachments, base.edge_count)
    return _assemble(PanType1(r), base, tuple(attachments), first_block=0)


def build_type2(p: int, attachments: Sequence[Graph]) -> CoronaInstance:
    """Corona over the spider base: blocks walk each leg from the tip toward
    the center (x, y, z interleaved), and blocks 3p-2..3p sit on the three
    center edges.
    """
    if p < 1:
        raise BadBaseParam(f"spider base needs p >= 1, got {p}")
    base = preset_graph("spider", [p])
    _check_attachments(attachments, base.edge_count)
    return _assemble(SpiderType2(p), base, tuple(attachments), first_block=1)


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


def _assemble(
    spec: BaseSpec,
    base: Graph,
    attachments: tuple[Graph, ...],
    first_block: int,
) -> CoronaInstance:
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
        base=spec,
        base_graph=base,
        attachments=attachments,
        composite=composite,
        blocks=tuple(blocks),
    )
