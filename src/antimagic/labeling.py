"""Constructive antimagic labelings for pan-base and spider-base coronas.

Each construction is a schedule, a list of steps that hand out the labels
1..|E| in turn. A step gives the next labels either to edges in layout order
or to the edges joining a fan centre to vertices ranked on their partial
sums, the sums of the labels handed out so far. Each label is added to both
endpoint sums as it is handed out. Under the checked hypotheses every vertex
sum lands in a strictly increasing chain, which is what makes the result
antimagic.

Pan base (run_type1): the pendant star and every block's internal edges,
to checkpoint c; the ranked cross fans, to b; the rim edges.

Spider base (run_type2), p >= 2: the three tip blocks, to checkpoints A, B
and z; the internal edges of the middle blocks, to L; their inner fans, to
N; their ranked outer fans, to S; the round-robin leg edges and the center
blocks' internal edges, to X; the center fans, then the ranked star of v0
over its M neighbors. For p = 1 the center is universal and the hub
construction of universal_vertex_labeling applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .conditions import check_conditions
from .corona import Block, CoronaInstance
from .graphs import Graph, Labeling, spider_leg_vertex


class LabelingError(ValueError):
    """Invalid labeling operation."""


class ConditionsNotMet(LabelingError):
    """Instance fails the construction's hypotheses and force was not set."""

    def __init__(self, failed_ids: Sequence[str]):
        super().__init__(f"conditions not met: {', '.join(failed_ids)}")
        self.failed_ids = tuple(failed_ids)


class WrongBaseType(LabelingError):
    """Instance base does not match the requested construction."""


class NotUniversal(LabelingError):
    """The designated hub is not adjacent to every other vertex."""


class ConstructionFailed(LabelingError):
    """A post-verified construction produced duplicate sums."""


class RankedBlock(NamedTuple):
    """A block's vertices ordered by partial sum at ranking time, ties by id."""

    block: int
    vertices: tuple[int, ...]
    partial_sums: tuple[int, ...]


class ChainCheck(NamedTuple):
    """One named inequality of a construction's sum chain."""

    name: str
    left: int
    right: int
    left_sum: int
    right_sum: int

    @property
    def holds(self) -> bool:
        return self.left_sum < self.right_sum


@dataclass(frozen=True)
class LabelingRun:
    """A labeling together with the ranking and chain evidence of its run."""

    labeling: Labeling
    ranked_blocks: tuple[RankedBlock, ...]
    chain: tuple[ChainCheck, ...]
    offsets: tuple[tuple[str, int], ...]

    @property
    def chain_holds(self) -> bool:
        return all(c.holds for c in self.chain)

    def offset(self, name: str) -> int:
        return dict(self.offsets)[name]


def rank_by_partial_sums(
    vertices: Iterable[int],
    partial_sums: Mapping[int, int] | Sequence[int],
    block: int = -1,
) -> RankedBlock:
    """Order vertices by partial sum, non-decreasing; ties by ascending id."""
    # Sorting by id first leaves ties in id order, since sorts are stable.
    ordered = sorted(sorted(vertices), key=partial_sums.__getitem__)
    return RankedBlock(block, tuple(ordered), tuple(map(partial_sums.__getitem__, ordered)))


def run_type1(inst: CoronaInstance, *, force: bool = False) -> LabelingRun:
    """Label a pan-base corona.

    Stage 1 gives the pendant star 1..n0+1 (base edge u0-ur gets 1, the
    cross edges 2..n0+1 in attachment order) and every internal block a
    consecutive run, ending at checkpoint c. Stage 2 labels the fan ur -> H0
    and then, block by block, the fans from each Hj's lower and upper base
    endpoints, all in ranked order, ending at checkpoint b. Stage 3 labels
    the rim edges. The chain runs u0, the ranked vertices of H0..Hr, then
    u1..ur.
    """
    _require_conditions(inst, "pan", "run_type1", force)
    r = inst.param
    h0 = inst.blocks[0]
    steps: list[tuple] = [("link", "u0", 0), ("run", (0, *h0.cross_fan(0)))]
    steps += [("run", blk.edge_ids) for blk in inst.blocks]
    steps += [("mark", "c"), _ranked(h0, h0.cross_fan(1))]
    steps += [_ranked(blk, blk.cross_fan(0), blk.cross_fan(1)) for blk in inst.blocks[1:]]
    steps += [("mark", "b"), ("run", range(1, r + 1))]
    steps += [("link", f"u{j}", j) for j in range(1, r + 1)]
    return _execute(inst.composite, steps)[0]


def run_type2(inst: CoronaInstance, *, force: bool = False) -> LabelingRun:
    """Label a spider-base corona.

    For p = 1 the center is universal and the hub construction applies. For
    p >= 2 the legs are consumed from the tips inward: each tip block gets
    its internal run, the tip cross fan in attachment order, then the next
    leg vertex's whole star in ranked order (which labels the outermost leg
    edge on the way); checkpoints A, B and z follow the three tip blocks.
    Interior blocks get internal runs (to L), inner cross fans in attachment
    order (to N), outer cross fans in ranked order (to S), then the remaining
    leg edges are labeled round-robin across the legs. The three center
    blocks (internal runs to X, then the fans from x1, y1, z1) and the center
    star over its M neighbors close out the range, again in ranked order.
    The chain runs through the ranked tip and interior blocks, the leg
    vertices x(p-1), y(p-1), z(p-1), ..., x2, y2, z2, the ranked center star
    c1..cM, then v0.
    """
    _require_conditions(inst, "spider", "run_type2", force)
    p = inst.param
    if p == 1:
        return _universal_run(inst.composite, hub=0)

    # Block t sits on base edge t - 1, whose upper endpoint lies farther
    # from the center.
    tips = [inst.block(t) for t in (1, 2, 3)]
    mids = [inst.block(t) for t in range(4, 3 * p - 2)]
    centers = [inst.block(t) for t in range(3 * p - 2, 3 * p + 1)]
    steps: list[tuple] = []
    for blk, checkpoint in zip(tips, ("A", "B", "z")):
        tip = {blk.endpoints[1]: (blk.index - 1,)}
        steps += [("run", blk.edge_ids), ("run", blk.cross_fan(1))]
        steps += [_ranked(blk, blk.cross_fan(0), extra=tip), ("mark", checkpoint)]
    steps += [("run", blk.edge_ids) for blk in mids]
    steps += [("mark", "L")] + [("run", blk.cross_fan(0)) for blk in mids]
    steps += [("mark", "N")] + [_ranked(blk, blk.cross_fan(1)) for blk in mids]
    steps += [("mark", "S"), ("run", range(3, 3 * p - 3))]
    steps += [
        ("link", f"{name}{depth}", spider_leg_vertex(p, leg, depth))
        for depth in range(p - 1, 1, -1)
        for leg, name in enumerate("xyz")
    ]
    steps += [("run", blk.edge_ids) for blk in centers]
    steps += [("mark", "X")] + [("run", blk.cross_fan(1)) for blk in centers]
    star = {blk.endpoints[1]: (blk.index - 1,) for blk in centers}
    for blk in centers:
        star.update(zip(blk.vertex_ids, zip(blk.cross_fan(0))))
    steps += [("mark", "M", len(star)), ("ranked", -1, "c", star), ("link", "v0", 0)]
    return _execute(inst.composite, steps)[0]


def _ranked(
    blk: Block,
    *fans: Sequence[int],
    extra: Mapping[int, tuple[int, ...]] | None = None,
) -> tuple:
    """A ranked step over blk's vertices (and extra ones): each fan's edges,
    one per vertex in attachment order, run in rank order."""
    star = dict(extra or {})
    star.update(zip(blk.vertex_ids, zip(*fans)))
    return ("ranked", blk.index, f"a{blk.index}_", star)


def _execute(g: Graph, steps: Iterable[tuple]) -> tuple[LabelingRun, list[int]]:
    """Run a schedule on g; return the run and the vertex sums.

    The steps hand out the labels 1, 2, ..., |E| in turn. An edge's label is
    added to both endpoint sums as it is handed out, so every sum is current
    at each step:

    - ("run", edge_ids): the edges get the next labels, as given.
    - ("ranked", block, prefix, star): star maps each vertex to its edges,
      one per fan. The vertices are ranked on their sums so far, each fan's
      edges get the next labels in rank order, and the ranked vertices join
      the chain as prefix1, prefix2, ... (not at all if prefix is None).
    - ("mark", name[, value]): checkpoint name is the last label handed out
      so far, or value.
    - ("link", name, vertex): vertex joins the chain.

    The steps must hand out a label to every edge exactly once.
    """
    edges = g.edges
    labels = [0] * g.edge_count
    sums = [0] * g.vertex_count
    handed = 0

    def hand_out(edge_ids: Sequence[int]) -> None:
        nonlocal handed
        for label, edge_id in enumerate(edge_ids, start=handed + 1):
            labels[edge_id] = label
            u, v = edges[edge_id]
            sums[u] += label
            sums[v] += label
        handed += len(edge_ids)

    ranked: list[RankedBlock] = []
    offsets: list[tuple[str, int]] = []
    entries: list[tuple[str, int]] = []
    for step in steps:
        match step:
            case ("run", edge_ids):
                hand_out(edge_ids)
            case ("ranked", block, prefix, star):
                rk = rank_by_partial_sums(star, sums, block=block)
                for fan in zip(*map(star.__getitem__, rk.vertices)):
                    hand_out(fan)
                ranked.append(rk)
                if prefix is not None:
                    entries += [(f"{prefix}{k}", v) for k, v in enumerate(rk.vertices, start=1)]
            case ("mark", name):
                offsets.append((name, handed))
            case ("mark", name, value):
                offsets.append((name, value))
            case ("link", name, vertex):
                entries.append((name, vertex))
    if handed != g.edge_count:
        raise LabelingError(f"label order has {handed} edges, expected {g.edge_count}")
    if 0 in labels:
        missing = [i for i, label in enumerate(labels) if label == 0]
        raise LabelingError(f"label order repeats edges and leaves out {missing[:5]}")
    chain = tuple(
        ChainCheck(f"w({left_name})<w({right_name})", left, right, sums[left], sums[right])
        for (left_name, left), (right_name, right) in zip(entries, entries[1:])
    )
    run = LabelingRun(
        labeling=Labeling(tuple(labels), g.edge_count),
        ranked_blocks=tuple(ranked),
        chain=chain,
        offsets=tuple(offsets),
    )
    return run, sums


def universal_vertex_labeling(g: Graph, hub: int) -> Labeling:
    """Label a graph whose hub is adjacent to every other vertex.

    Non-hub edges take 1..k in edge order; the hub star takes the remaining
    labels along the ranked partial sums of its neighbors. The result is
    post-verified and rejected if any two sums collide.
    """
    return _universal_run(g, hub).labeling


def _universal_run(g: Graph, hub: int) -> LabelingRun:
    star = {u + v - hub: (i,) for i, (u, v) in enumerate(g.edges) if hub in (u, v)}
    if star.keys() != set(range(g.vertex_count)) - {hub}:
        raise NotUniversal(f"vertex {hub} is not adjacent to every other vertex")
    non_hub_edges = [i for i, (u, v) in enumerate(g.edges) if hub not in (u, v)]
    run, sums = _execute(g, [("run", non_hub_edges), ("ranked", -1, None, star)])
    if len(set(sums)) != g.vertex_count:
        raise ConstructionFailed("hub construction produced duplicate sums")
    return run


def _require_conditions(inst: CoronaInstance, kind: str, runner: str, force: bool) -> None:
    """Raise WrongBaseType unless inst has a `kind` base, which `runner`
    labels, and ConditionsNotMet if its hypotheses fail and force is not set."""
    if inst.kind != kind:
        raise WrongBaseType(f"{runner} needs a {kind}-base instance")
    if force:
        return
    report = check_conditions(inst)
    if not report.overall:
        raise ConditionsNotMet(report.failed_ids)
