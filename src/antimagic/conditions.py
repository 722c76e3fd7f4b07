"""Hypothesis checks for the constructive labelings.

Each check compares concrete degree or size quantities of a built instance
and reports a named verdict with its numeric witnesses. Condition ids follow
the stable T41/T42/T43 naming used by the JSON reports.

Composite degrees are read off the block layout, never by walking the
composite: a base vertex has its base degree plus the order of each block on
an incident base edge, and a block vertex has its attachment degree plus 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corona import CoronaInstance, PanType1
from .graphs import degree_profile, spider_leg_vertex


class Condition(NamedTuple):
    id: str
    description: str
    lhs: int
    rhs: int
    holds: bool


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple[Condition, ...]

    @property
    def overall(self) -> bool:
        return all(c.holds for c in self.conditions)

    @property
    def failed_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.conditions if not c.holds)

    def __getitem__(self, condition_id: str) -> Condition:
        for c in self.conditions:
            if c.id == condition_id:
                return c
        raise KeyError(condition_id)


def check_conditions(inst: CoronaInstance) -> ConditionReport:
    if isinstance(inst.base, PanType1):
        return ConditionReport(tuple(_pan_conditions(inst, inst.base.r)))
    if inst.base.p == 1:
        # The single-leg spider composite has a universal center; the
        # labeling needs no hypotheses.
        return ConditionReport(conditions=())
    return ConditionReport(tuple(_spider_conditions(inst, inst.base.p)))


def _base_degrees(inst: CoronaInstance) -> list[int]:
    """Composite degree of every base vertex: each incident base edge adds
    its other endpoint and the vertices of the block on it."""
    degrees = [0] * inst.base_graph.vertex_count
    for blk in inst.blocks:
        lo, hi = blk.endpoints
        degrees[lo] += blk.graph.vertex_count + 1
        degrees[hi] += blk.graph.vertex_count + 1
    return degrees


def _pan_conditions(inst: CoronaInstance, r: int) -> list[Condition]:
    comp_deg = _base_degrees(inst)
    h0, h1 = (degree_profile(inst.block(i).graph) for i in (0, 1))
    return [
        *_size_chain(inst, "T41-size-{}", range(r)),
        Condition(
            "T41-h0h1",
            "max deg H0 < min deg H1",
            h0.max_degree,
            h1.min_degree,
            h0.max_degree < h1.min_degree,
        ),
        *_degree_chain(inst, "T41-chain-{}", range(1, r)),
        *(_tip_link(inst, comp_deg, f"T41-star-{i}", "u0", 0, i) for i in range(r + 1)),
        _cond(
            "T41-cap",
            f"max composite deg over H{r} <= composite deg u1",
            degree_profile(inst.block(r).graph).max_degree + 2,
            comp_deg[1],
        ),
    ]


def _spider_conditions(inst: CoronaInstance, p: int) -> list[Condition]:
    """T42 for p = 2, T43 for p >= 3."""
    comp_deg = _base_degrees(inst)
    general = p > 2
    tip_id = "T43-ii-{}" if general else "T42-deg-{}2"
    out = [
        *_size_chain(inst, "T43-size-{}" if general else "T42-size-{}", range(1, 3 * p)),
        *_degree_chain(inst, "T43-i-{}" if general else "T42-chain-{}", range(1, 3 * p)),
        *(
            _tip_link(inst, comp_deg, tip_id.format(name), "of leg tip",
                      spider_leg_vertex(p, leg, p), leg + 2)
            for leg, name in enumerate("xyz")
        ),
    ]
    if general:
        # The block adjacent to z1 and z2 is H(3p-3); the block adjacent to
        # x1 and v0 is H(3p-2).
        out += [
            _cond(
                "T43-iii",
                f"max composite deg over H{3 * p - 3} <= |V(H4)| + 1",
                degree_profile(inst.block(3 * p - 3).graph).max_degree + 2,
                inst.block(4).graph.vertex_count + 1,
            ),
            _tip_link(inst, comp_deg, "T43-iv", "z2", spider_leg_vertex(p, 2, 2), 3 * p - 2),
        ]
    return out


def _size_chain(inst: CoronaInstance, id_format: str, blocks: range) -> list[Condition]:
    """|V(Hi)| <= |V(H(i+1))| for each i in blocks."""
    sizes = {b.index: b.graph.vertex_count for b in inst.blocks}
    return [
        _cond(id_format.format(i), f"|V(H{i})| <= |V(H{i + 1})|", sizes[i], sizes[i + 1])
        for i in blocks
    ]


def _degree_chain(inst: CoronaInstance, id_format: str, blocks: range) -> list[Condition]:
    """max deg Hi <= min deg H(i+1) for each i in blocks."""
    att = {b.index: degree_profile(b.graph) for b in inst.blocks}
    return [
        _cond(
            id_format.format(i),
            f"max deg H{i} <= min deg H{i + 1}",
            att[i].max_degree,
            att[i + 1].min_degree,
        )
        for i in blocks
    ]


def _tip_link(
    inst: CoronaInstance,
    comp_deg: list[int],
    cond_id: str,
    vertex_name: str,
    vertex: int,
    block: int,
) -> Condition:
    """The composite degree of one base vertex is at most that of every
    vertex of block."""
    return _cond(
        cond_id,
        f"composite deg {vertex_name} <= min composite deg over H{block}",
        comp_deg[vertex],
        degree_profile(inst.block(block).graph).min_degree + 2,
    )


def _cond(cond_id: str, description: str, lhs: int, rhs: int) -> Condition:
    return Condition(cond_id, description, lhs, rhs, lhs <= rhs)
