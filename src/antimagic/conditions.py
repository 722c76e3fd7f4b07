"""Hypothesis checks for the constructive labelings.

Each check compares concrete degree or size quantities of a built instance
and reports a named verdict with its numeric witnesses. Condition ids follow
the stable T41/T42/T43 naming used by the JSON reports.

`check_conditions` gathers every number the rows compare in one pass over the
blocks: per block id its order |V(Hi)| and its least and greatest attachment
degree, and per base vertex its composite degree, which is its base degree
plus the order of each block on an incident base edge. The rows then compare
only those numbers; the composite degree of a block vertex is its attachment
degree plus 2. Nothing walks the composite.

Three kinds of row make every table: `_chain` for the size chains
|V(Hi)| <= |V(H(i+1))| and the degree chains max deg Hi <= min deg H(i+1),
`_tip_link` for a base vertex against a block, and `_cond` for the rest
(`Condition` itself for the one strict row, T41-h0h1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corona import CoronaInstance
from .graphs import degree_profile, spider_leg_vertex

_Ints = dict[int, int]  # a number per block id


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
    n, lo, hi = {}, {}, {}  # per block id: |V(Hi)|, min deg Hi, max deg Hi
    deg = [0] * inst.base_graph.vertex_count  # composite degree per base vertex
    for blk in inst.blocks:
        profile = degree_profile(blk.graph)
        n[blk.index] = order = blk.graph.vertex_count
        lo[blk.index], hi[blk.index] = profile.min_degree, profile.max_degree
        for end in blk.endpoints:
            deg[end] += order + 1  # the other endpoint and the block's vertices
    rows = _pan_conditions if inst.kind == "pan" else _spider_conditions
    return ConditionReport(tuple(rows(inst.param, n, lo, hi, deg)))


def _pan_conditions(r: int, n: _Ints, lo: _Ints, hi: _Ints, deg: list[int]) -> list[Condition]:
    return [
        *_chain("T41-size-{}", _SIZE, n, n, range(r)),
        Condition("T41-h0h1", "max deg H0 < min deg H1", hi[0], lo[1], hi[0] < lo[1]),
        *_chain("T41-chain-{}", _DEGREE, hi, lo, range(1, r)),
        *(_tip_link(f"T41-star-{i}", "u0", deg[0], lo, i) for i in range(r + 1)),
        _cond("T41-cap", f"max composite deg over H{r} <= composite deg u1", hi[r] + 2, deg[1]),
    ]


def _spider_conditions(p: int, n: _Ints, lo: _Ints, hi: _Ints, deg: list[int]) -> list[Condition]:
    """T42 for p = 2, T43 for p >= 3. None for p = 1: the single-leg
    spider composite has a universal center, and its labeling needs no
    hypotheses."""
    if p == 1:
        return []
    general = p > 2
    tip_id = "T43-ii-{}" if general else "T42-deg-{}2"
    out = [
        *_chain("T43-size-{}" if general else "T42-size-{}", _SIZE, n, n, range(1, 3 * p)),
        *_chain("T43-i-{}" if general else "T42-chain-{}", _DEGREE, hi, lo, range(1, 3 * p)),
        *(
            _tip_link(tip_id.format(x), "of leg tip", deg[spider_leg_vertex(p, leg, p)],
                      lo, leg + 2)
            for leg, x in enumerate("xyz")
        ),
    ]
    if general:
        # The block adjacent to z1 and z2 is H(3p-3); the block adjacent to
        # x1 and v0 is H(3p-2).
        b = 3 * p - 3
        out += [
            _cond("T43-iii", f"max composite deg over H{b} <= |V(H4)| + 1", hi[b] + 2, n[4] + 1),
            _tip_link("T43-iv", "z2", deg[spider_leg_vertex(p, 2, 2)], lo, b + 1),
        ]
    return out


_SIZE = "|V(H{})| <= |V(H{})|"
_DEGREE = "max deg H{} <= min deg H{}"


def _chain(id_fmt: str, desc_fmt: str, lhs: _Ints, rhs: _Ints, blocks: range) -> list[Condition]:
    """The row id_fmt.format(i), lhs[i] <= rhs[i + 1], for each i in blocks:
    |V(Hi)| <= |V(H(i+1))| with `_SIZE`, n and n, or max deg Hi <= min deg
    H(i+1) with `_DEGREE`, hi and lo."""
    return [
        _cond(id_fmt.format(i), desc_fmt.format(i, i + 1), lhs[i], rhs[i + 1])
        for i in blocks
    ]


def _tip_link(cond_id: str, vertex_name: str, vertex_deg: int, lo: _Ints, block: int) -> Condition:
    """A base vertex of composite degree vertex_deg has degree at most that
    of every vertex of block."""
    return _cond(
        cond_id,
        f"composite deg {vertex_name} <= min composite deg over H{block}",
        vertex_deg,
        lo[block] + 2,
    )


def _cond(cond_id: str, description: str, lhs: int, rhs: int) -> Condition:
    return Condition(cond_id, description, lhs, rhs, lhs <= rhs)
