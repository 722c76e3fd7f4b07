"""Independent certification: vertex sums, duplicate detection, and
ground-truth label search on small graphs.

Everything here recomputes from the raw graph and labels; nothing trusts the
constructions in labeling.py, and graphs.py is the only module of the
package imported here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, Labeling, degree_profile


_RUN = 4096  # sorted labels compared with 1..|E| at once


class NotABijection(ValueError):
    """Labels are not a permutation of 1..|E|."""


class TooLarge(ValueError):
    """Graph exceeds the exhaustive search cap."""


@dataclass(frozen=True)
class SumReport:
    sums: tuple[int, ...]
    duplicate_groups: tuple[tuple[int, ...], ...]
    is_antimagic: bool
    chain: tuple[tuple[str, bool], ...] = ()


class Status(Enum):
    FOUND = "Found"
    EXHAUSTED_NONE = "ExhaustedNone"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    labeling: Labeling | None
    examined: int


def vertex_sums(
    g: Graph,
    labeling: Labeling,
    chain: Iterable[tuple[str, int, int]] = (),
) -> SumReport:
    """Exact per-vertex sums with all duplicate groups.

    ``chain`` is an optional list of (name, left vertex, right vertex)
    inequalities to report verdicts for (strict less-than on the sums).
    """
    labels = labeling.labels
    if len(labels) != g.edge_count or labeling.total_edges != g.edge_count:
        raise NotABijection(
            f"expected {g.edge_count} labels, got {len(labels)}"
        )
    ordered = sorted(labels)
    # Compared with 1..|E| in runs, so that no list of |E| new ints is made.
    for start in range(0, g.edge_count, _RUN):
        if ordered[start : start + _RUN] != list(range(start + 1, min(start + _RUN, g.edge_count) + 1)):
            raise NotABijection("labels are not a permutation of 1..|E|")
    sums = _sums(g, labels)
    groups: tuple[tuple[int, ...], ...] = ()
    if len(set(sums)) != len(sums):
        by_sum: dict[int, list[int]] = {}
        for v, s in enumerate(sums):
            by_sum.setdefault(s, []).append(v)
        groups = tuple(tuple(vs) for s, vs in sorted(by_sum.items()) if len(vs) > 1)
    verdicts = tuple(
        (name, sums[left] < sums[right]) for name, left, right in chain
    )
    return SumReport(
        sums=tuple(sums),
        duplicate_groups=groups,
        is_antimagic=not groups,
        chain=verdicts,
    )


def _sums(g: Graph, labels: Sequence[int]) -> list[int]:
    """The sum of the labels on the edges at each vertex of g."""
    sums = [0] * g.vertex_count
    for (u, v), label in zip(g.edges, labels):
        sums[u] += label
        sums[v] += label
    return sums


def brute_force_search(g: Graph, limit: int = 10) -> SearchOutcome:
    """Exhaustive backtracking over label permutations.

    Labels are tried in ascending order edge by edge, so a Found outcome
    carries the lexicographically least antimagic assignment. A branch is
    pruned as soon as two fully labeled vertices collide, which never skips
    a solution because completing more edges cannot change a final sum.
    ``examined`` counts label placements.
    """
    m = g.edge_count
    if m > limit:
        raise TooLarge(f"|E| = {m} exceeds the exhaustive cap {limit}")
    remaining = list(degree_profile(g).degrees)
    sums = [0] * g.vertex_count
    # Isolated vertices are final immediately; two of them share the sum 0
    # under every permutation, so the whole space is refuted at the root.
    isolated = remaining.count(0)
    if isolated > 1:
        return SearchOutcome(Status.EXHAUSTED_NONE, None, 0)
    finished = {0} if isolated else set()
    assignment: list[int] = [0] * m
    used = [False] * (m + 1)
    examined = 0

    def place(edge_id: int) -> Labeling | None:
        nonlocal examined
        if edge_id == m:
            return Labeling(tuple(assignment), m)
        u, v = g.edges[edge_id]
        for label in range(1, m + 1):
            if used[label]:
                continue
            examined += 1
            used[label] = True
            assignment[edge_id] = label
            sums[u] += label
            sums[v] += label
            remaining[u] -= 1
            remaining[v] -= 1
            closed = []
            ok = True
            for w in (u, v):
                if remaining[w] == 0:
                    if sums[w] in finished:
                        ok = False
                        break
                    finished.add(sums[w])
                    closed.append(w)
            if ok:
                found = place(edge_id + 1)
                if found is not None:
                    return found
            for w in closed:
                finished.discard(sums[w])
            remaining[u] += 1
            remaining[v] += 1
            sums[u] -= label
            sums[v] -= label
            used[label] = False
        return None

    found = place(0)
    del place  # it calls itself through its closure; drop that cycle
    if found is not None:
        return SearchOutcome(Status.FOUND, found, examined)
    return SearchOutcome(Status.EXHAUSTED_NONE, None, examined)


def random_search(g: Graph, budget: int, seed: int) -> SearchOutcome:
    """Seeded random restarts with greedy pairwise-swap hill climbing on the
    number of colliding vertices. Deterministic for a given seed; reports
    BudgetExceeded instead of exhausting the space.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    m = g.edge_count
    rng = random.Random(seed)
    examined = 0

    def collisions(labels: Sequence[int]) -> int:
        sums = _sums(g, labels)
        return len(sums) - len(set(sums))

    while examined < budget:
        labels = list(range(1, m + 1))
        rng.shuffle(labels)
        examined += 1
        score = collisions(labels)
        improved = True
        while score > 0 and improved and examined < budget:
            improved = False
            for i, j in combinations(range(m), 2):
                labels[i], labels[j] = labels[j], labels[i]
                examined += 1
                trial = collisions(labels)
                if trial < score:
                    score = trial
                    improved = True
                else:
                    labels[i], labels[j] = labels[j], labels[i]
                if score == 0 or examined >= budget:
                    break
        if score == 0:
            return SearchOutcome(Status.FOUND, Labeling(tuple(labels), m), examined)
    return SearchOutcome(Status.BUDGET_EXCEEDED, None, examined)
