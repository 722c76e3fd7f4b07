"""Acceptance suite: one test per criterion, exact integer tolerances.

Each test prints a single PASS/FAIL line. Frozen expected values come from
the worked fixtures and from block-range arithmetic computed independently
of the construction code (see the per-criterion comments).
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from antimagic import (
    Status,
    build_type1,
    build_type2,
    check_conditions,
    make_graph,
    preset_graph,
    run_type1,
    run_type2,
    universal_vertex_labeling,
    vertex_sums,
)

from .conftest import C, K, P, diamond, named_sums, plain_enumeration, ranked


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def _block_totals(inst, sums):
    return {blk.index: sum(sums[v] for v in blk.vertex_ids) for blk in inst.blocks}


def test_criterion_1_pan_fixture():
    with criterion(1, "pan fixture r=5 exact sums, block totals, chain"):
        inst = build_type1(5, [K(2), C(3), C(3), C(4), diamond(), K(4)])
        run = run_type1(inst)
        assert sorted(run.labeling.labels) == list(range(1, 69))
        report = vertex_sums(inst.composite, run.labeling)
        assert len(set(report.sums)) == 26
        sums = named_sums(inst, report)
        assert [sums[f"u{i}"] for i in range(6)] == [6, 321, 392, 444, 546, 649]
        a0 = ranked(run, 0)
        assert [report.sums[v] for v in a0.vertices] == [32, 34]
        # Block totals from the fixture's published per-vertex sums:
        # 32+34, 70+73+76, 88+91+94, 107+111+113+117, 131+137+155+159,
        # 181+185+189+191. The H5 total also equals the block-range
        # arithmetic 2*sum(20..25) + sum(56..63) = 270 + 476 = 746.
        expected_totals = {0: 66, 1: 219, 2: 273, 3: 448, 4: 582, 5: 746}
        assert _block_totals(inst, report.sums) == expected_totals
        assert 2 * sum(range(20, 26)) + sum(range(56, 64)) == 746
        assert run.chain_holds
        # The chain covers every vertex exactly once: u0, the ranked
        # blocks, then u1..u5.
        covered = {run.chain[0].left} | {c.right for c in run.chain}
        assert covered == set(range(26))


def test_criterion_2_spider_p2_fixture():
    with criterion(2, "spider fixture p=2 exact sums, a3 total, chain"):
        inst = build_type2(2, [K(2), C(3), C(3), K(4), K(4), K(4)])
        run = run_type2(inst)
        assert sorted(run.labeling.labels) == list(range(1, 72))
        report = vertex_sums(inst.composite, run.labeling)
        assert len(set(report.sums)) == 27
        assert [report.sums[v] for v in ranked(run, 1).vertices] == [7, 9, 11]
        assert [report.sums[v] for v in ranked(run, 2).vertices] == [38, 41, 44, 49]
        a3 = ranked(run, 3)
        assert sum(report.sums[v] for v in a3.vertices) == 332
        assert report.sums[0] == 960
        assert run.chain_holds


def test_criterion_3_spider_p4_fixture():
    with criterion(3, "spider fixture p=4 exact sums, leg set, K5 totals"):
        inst = build_type2(4, [K(2)] * 9 + [K(5)] * 3)
        run = run_type2(inst)
        assert sorted(run.labeling.labels) == list(range(1, 118))
        report = vertex_sums(inst.composite, run.labeling)
        assert len(set(report.sums)) == 46
        expected_blocks = {
            1: [7, 9, 11],
            2: [25, 27, 29],
            3: [43, 45, 47],
            4: [81, 83],
            5: [86, 88],
            6: [91, 93],
            7: [96, 98],
            8: [101, 103],
            9: [106, 108],
        }
        for block, values in expected_blocks.items():
            assert [report.sums[v] for v in ranked(run, block).vertices] == values
        sums = named_sums(inst, report)
        legs = sorted(sums[k] for k in ("x2", "x3", "y2", "y3", "z2", "z3"))
        assert legs == [139, 162, 185, 239, 249, 259]
        c_rank = run.ranked_blocks[-1]
        c_sums = [report.sums[v] for v in c_rank.vertices]
        assert c_sums[15:18] == [665, 696, 727]
        assert sums["v0"] == 1953
        # K5 block totals by block-range arithmetic: partial-sum total of a
        # center block is 2*sum(internal run) + sum(anchor fan), and the
        # blocks occupy consecutive ranked slots in the center star.
        h10 = 2 * sum(range(55, 65)) + sum(range(85, 90)) + sum(range(100, 105))
        h11 = 2 * sum(range(65, 75)) + sum(range(90, 95)) + sum(range(105, 110))
        h12 = 2 * sum(range(75, 85)) + sum(range(95, 100)) + sum(range(110, 115))
        assert (h10, h11, h12) == (2135, 2385, 2635)
        totals = _block_totals(inst, report.sums)
        assert (totals[10], totals[11], totals[12]) == (2135, 2385, 2635)
        assert run.chain_holds


def test_criterion_4_block_total_substitution():
    with criterion(4, "K4/K5 blocks checked via totals, distinctness, chain"):
        # Per-vertex sums inside the dense blocks depend on which internal
        # edge carries which consecutive label, which the fixtures do not
        # pin down, so the contract is: totals match the block-range
        # arithmetic, all sums distinct, chain intact.
        inst7 = build_type2(2, [K(2), C(3), C(3), K(4), K(4), K(4)])
        run7 = run_type2(inst7)
        report7 = vertex_sums(inst7.composite, run7.labeling)
        totals7 = _block_totals(inst7, report7.sums)
        # K4 blocks sit in ranked center slots 1-4, 5-8, 9-12; their star
        # labels are 57..60, 61..64, 65..68.
        h4 = 2 * sum(range(27, 33)) + sum(range(45, 49)) + sum(range(57, 61))
        h5 = 2 * sum(range(33, 39)) + sum(range(49, 53)) + sum(range(61, 65))
        h6 = 2 * sum(range(39, 45)) + sum(range(53, 57)) + sum(range(65, 69))
        assert (h4, h5, h6) == (774, 878, 982)
        assert (totals7[4], totals7[5], totals7[6]) == (774, 878, 982)
        assert report7.is_antimagic
        assert run7.chain_holds

        inst8 = build_type2(4, [K(2)] * 9 + [K(5)] * 3)
        run8 = run_type2(inst8)
        report8 = vertex_sums(inst8.composite, run8.labeling)
        totals8 = _block_totals(inst8, report8.sums)
        assert (totals8[10], totals8[11], totals8[12]) == (2135, 2385, 2635)
        assert report8.is_antimagic
        assert run8.chain_holds


def _type1_condition_satisfying(rng):
    r = rng.randint(3, 12)
    n0 = rng.randint(2, 6)
    sizes = [n0]
    cur = rng.randint(n0 + 1, 7)
    for _ in range(r):
        cur = rng.randint(cur, 7)
        sizes.append(cur)
    assert sizes[r] <= sizes[1] + sizes[2] + 1
    return build_type1(r, [K(n) for n in sizes])


def _type2_condition_satisfying(rng):
    p = rng.randint(1, 6)
    if p == 1:
        sizes = sorted(rng.randint(2, 7) for _ in range(3))
    elif p == 2:
        sizes = sorted(rng.randint(2, 7) for _ in range(6))
    else:
        t = rng.choice([2, 3])
        tips = sorted(rng.randint(2, t) for _ in range(3))
        mids = [t] * (3 * p - 6)
        lo = t + (t if p > 3 else tips[2]) + 1
        centers = sorted(rng.randint(lo, 7) for _ in range(3))
        sizes = tips + mids + centers
    return build_type2(p, [K(n) for n in sizes])


def test_criterion_5_property_suite():
    with criterion(5, "200 random condition-satisfying instances per family"):
        rng = random.Random(0xC0F0)
        for _ in range(200):
            inst = _type1_condition_satisfying(rng)
            assert check_conditions(inst).overall
            run = run_type1(inst)
            m = inst.composite.edge_count
            assert sorted(run.labeling.labels) == list(range(1, m + 1))
            report = vertex_sums(inst.composite, run.labeling)
            assert report.is_antimagic
            assert run.chain_holds
        for _ in range(200):
            inst = _type2_condition_satisfying(rng)
            assert check_conditions(inst).overall
            run = run_type2(inst)
            m = inst.composite.edge_count
            assert sorted(run.labeling.labels) == list(range(1, m + 1))
            report = vertex_sums(inst.composite, run.labeling)
            assert report.is_antimagic
            if inst.param == 1:
                assert report.sums[0] == max(report.sums)
            else:
                assert run.chain_holds


def _random_small_graph(rng, max_edges):
    while True:
        n = rng.randint(2, 5)
        edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
        pool = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in {(min(a, b), max(a, b)) for a, b in edges}
        ]
        rng.shuffle(pool)
        edges += pool[: rng.randint(0, len(pool))]
        if len(edges) <= max_edges:
            return make_graph(n, edges)


def test_criterion_6_oracle_agreement():
    with criterion(6, "search oracle agreement on small graphs"):
        from antimagic import brute_force_search

        # Every corona instance has |E| >= 18 (p=1 with three K2 blocks),
        # so the corona side of the agreement is vacuous; re-verify the
        # constructions through the verifier instead.
        smallest = build_type2(1, [K(2)] * 3)
        assert smallest.composite.edge_count == 18 > 10
        for inst, runner in (
            (smallest, run_type2),
            (build_type1(3, [K(2), C(3), C(3), C(3)]), run_type1),
        ):
            report = vertex_sums(inst.composite, runner(inst).labeling)
            assert report.is_antimagic

        # Hub-construction outputs on graphs small enough to brute force.
        wheel4 = make_graph(
            5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]
        )
        for g, hub in (
            (preset_graph("star", [4]), 0),
            (preset_graph("star", [6]), 0),
            (preset_graph("complete", [3]), 0),
            (preset_graph("complete", [4]), 2),
            (wheel4, 0),
        ):
            assert g.edge_count <= 10
            emitted = universal_vertex_labeling(g, hub)
            assert vertex_sums(g, emitted).is_antimagic
            outcome = brute_force_search(g)
            assert outcome.status is Status.FOUND
            assert vertex_sums(g, outcome.labeling).is_antimagic

        rng = random.Random(0xBEEF)
        for _ in range(50):
            g = _random_small_graph(rng, max_edges=9)
            outcome = brute_force_search(g)
            if outcome.status is Status.FOUND:
                assert vertex_sums(g, outcome.labeling).is_antimagic
            else:
                assert outcome.status is Status.EXHAUSTED_NONE
                if g.edge_count <= 7:
                    assert plain_enumeration(g) is None

        k2 = preset_graph("complete", [2])
        assert brute_force_search(k2).status is Status.EXHAUSTED_NONE


def _random_connected(rng):
    n = rng.randint(2, 6)
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    seen = {(min(a, b), max(a, b)) for a, b in edges}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in seen]
    rng.shuffle(pool)
    edges += pool[: rng.randint(0, len(pool))]
    return make_graph(n, edges)


def test_criterion_7_size_identities():
    with criterion(7, "500 random instances satisfy the size identities"):
        rng = random.Random(0x512E)
        for trial in range(500):
            if trial % 2 == 0:
                r = rng.randint(3, 10)
                attachments = [_random_connected(rng) for _ in range(r + 1)]
                inst = build_type1(r, attachments)
                n = sum(g.vertex_count for g in attachments)
                q = sum(g.edge_count for g in attachments)
                assert inst.composite.vertex_count == (r + 1) + n
                assert inst.composite.edge_count == (r + 1) + q + 2 * n
            else:
                p = rng.randint(1, 5)
                attachments = [_random_connected(rng) for _ in range(3 * p)]
                inst = build_type2(p, attachments)
                m = sum(g.vertex_count for g in attachments)
                h = sum(g.edge_count for g in attachments)
                assert inst.composite.vertex_count == m + 3 * p + 1
                assert inst.composite.edge_count == h + 2 * m + 3 * p


# Each entry violates exactly one named condition; every other hypothesis
# of its family holds (verified by the exact failed_ids match below).
VIOLATION_CATALOG = [
    (("pan", 3, lambda: [K(2), K(2), K(2), K(2)]), "T41-h0h1"),
    (("pan", 3, lambda: [K(2), diamond(), C(4), C(4)]), "T41-chain-1"),
    (("pan", 3, lambda: [K(2), C(3), diamond(), C(4)]), "T41-chain-2"),
    (("pan", 3, lambda: [P(4), K(4), K(4), K(4)]), "T41-star-0"),
    (("pan", 3, lambda: [K(2), C(3), C(3), K(8)]), "T41-cap"),
    (("pan", 3, lambda: [K(2), C(6), K(4), K(4)]), "T41-size-1"),
    (("pan", 3, lambda: [K(2), C(3), C(6), K(4)]), "T41-size-2"),
    (("spider", 2, lambda: [P(5), C(5), K(5), K(5), K(5), K(5)]), "T42-deg-x2"),
    (("spider", 2, lambda: [K(2), P(5), C(5), K(5), K(5), K(5)]), "T42-deg-y2"),
    (("spider", 2, lambda: [K(2), K(2), P(5), C(5), C(5), C(5)]), "T42-deg-z2"),
    (("spider", 2, lambda: [K(2), K(2), C(3), diamond(), C(4), C(4)]), "T42-chain-4"),
    (("spider", 2, lambda: [K(2), K(2), C(3), C(4), diamond(), C(4)]), "T42-chain-5"),
    (("spider", 2, lambda: [K(2), K(2), C(3), C(6), K(4), K(4)]), "T42-size-4"),
    (("spider", 3, lambda: [K(2), K(2), K(2), C(3), C(3), K(4), K(7), K(7), K(7)]), "T43-iii"),
    (("spider", 3, lambda: [K(2), K(2), K(2), C(4), C(4), C(4), K(6), K(6), K(6)]), "T43-iv"),
    (("spider", 3, lambda: [P(4), C(4), K(4), K(4), K(4), K(4), K(9), K(9), K(9)]), "T43-ii-x"),
    (("spider", 3, lambda: [K(2), P(4), C(4), K(4), K(4), K(4), K(9), K(9), K(9)]), "T43-ii-y"),
    (("spider", 3, lambda: [K(2), K(2), P(4), C(4), C(4), C(4), K(9), K(9), K(9)]), "T43-ii-z"),
    (("spider", 3, lambda: [K(2), K(2), K(2), C(4), C(4), C(4), K(7), C(7), C(7)]), "T43-i-7"),
    (
        ("spider", 4, lambda: [K(2), K(2), K(2), C(4), C(4), C(4), C(6), C(4), C(4), K(9), K(9), K(9)]),
        "T43-size-7",
    ),
]


def test_criterion_8_condition_checker():
    with criterion(8, "fixtures pass, 20 violations each hit their condition"):
        fixtures = (
            build_type1(5, [K(2), C(3), C(3), C(4), diamond(), K(4)]),
            build_type2(2, [K(2), C(3), C(3), K(4), K(4), K(4)]),
            build_type2(4, [K(2)] * 9 + [K(5)] * 3),
        )
        for inst in fixtures:
            report = check_conditions(inst)
            assert report.overall, report.failed_ids
        assert len(VIOLATION_CATALOG) == 20
        for (kind, param, make_attachments), target in VIOLATION_CATALOG:
            attachments = make_attachments()
            inst = (
                build_type1(param, attachments)
                if kind == "pan"
                else build_type2(param, attachments)
            )
            report = check_conditions(inst)
            assert report.failed_ids == (target,), (
                kind,
                param,
                target,
                report.failed_ids,
            )
