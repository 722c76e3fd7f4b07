"""Golden outputs: byte-exact CLI stdout on the fixtures, and one digest of
the full labeling evidence over a fixed instance list.

The golden files under tests/golden/ and DIGEST were produced by the code
before the labeling schedules were rewritten; any change to a label, a
ranking, a chain link, an offset or a condition shows up here. The csv and
dot label goldens were produced by the code before `label` and `export`
shared one renderer.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from antimagic import build_type1, build_type2, check_conditions, run_type1, run_type2
from antimagic.cli import main

from .conftest import CATALOG_GRAPHS, catalog_combos

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = [
    (["build", "pan_r5.json"], "build_pan_r5", 0),
    (["build", "spider_p2.json"], "build_spider_p2", 0),
    (["build", "spider_p4.json"], "build_spider_p4", 0),
    (["conditions", "pan_r5.json"], "conditions_pan_r5", 0),
    (["conditions", "spider_p2.json"], "conditions_spider_p2", 0),
    (["conditions", "spider_p4.json"], "conditions_spider_p4", 0),
    (["label", "pan_r5.json"], "label_pan_r5", 0),
    (["label", "spider_p2.json"], "label_spider_p2", 0),
    (["label", "spider_p4.json"], "label_spider_p4", 0),
    (["label", "spider_p4.json", "--format", "csv"], "label_csv_spider_p4", 0),
    (["label", "spider_p4.json", "--format", "dot"], "label_dot_spider_p4", 0),
    (["label", "violating.json", "--force"], "label_force_violating", 2),
]

DIGEST = "15e06d7ef182d0b30914fbe95a9bb0943d8f2db6f8b20d853c2acb6cc4134e24"
# SHA-256 of the composite vertex names and the edge roles of every golden
# instance, produced by the code that built them from precomputed tables of
# number strings.
NAMES_AND_ROLES_DIGEST = "f7611498a8d70c722127f3861980a08c5156221d9a6ce63f5350afe2ee1848ae"


@pytest.mark.parametrize("argv, name, code", CLI_CASES, ids=[c[1] for c in CLI_CASES])
def test_cli_stdout_matches_golden(capsys, argv, name, code):
    command, fixture, *rest = argv
    assert main([command, str(FIXTURES / fixture), *rest]) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


LABEL_CASES = [case for case in CLI_CASES if case[0][0] == "label"]


@pytest.mark.parametrize("argv, name, code", LABEL_CASES, ids=[c[1] for c in LABEL_CASES])
def test_label_out_files_match_golden(capsys, tmp_path, argv, name, code):
    """With --out, the labeling file holds the bytes that stdout shows first
    without it, and the report file holds what stdout still shows."""
    command, fixture, *rest = argv
    prefix = tmp_path / "run"
    assert main([command, str(FIXTURES / fixture), *rest, "--out", str(prefix)]) == code
    out = capsys.readouterr().out.encode()
    fmt = rest[rest.index("--format") + 1] if "--format" in rest else "json"
    assert Path(f"{prefix}.labeling.{fmt}").read_bytes() + out == (GOLDEN / f"{name}.out").read_bytes()
    assert Path(f"{prefix}.report.json").read_bytes() == out


def test_cli_under_optimize_flag_matches_golden():
    # python -O strips assert statements; the output must not depend on them.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "antimagic.cli", "label", str(FIXTURES / "spider_p4.json")],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "label_spider_p4.out").read_bytes()


def golden_instances():
    """All pan r=3 catalog instances, every 37th spider p=2 and every 997th
    spider p=3 instance, spider p=1 with each catalog graph on all three
    legs, and spider p=7, whose middle leg edges are labeled round-robin."""
    graphs = CATALOG_GRAPHS
    for atts in catalog_combos(4):
        yield build_type1(3, atts)
    for atts in itertools.islice(catalog_combos(6), 0, None, 37):
        yield build_type2(2, atts)
    for atts in itertools.islice(catalog_combos(9), 0, None, 997):
        yield build_type2(3, atts)
    for g in graphs:
        yield build_type2(1, [g] * 3)
    for center in range(len(graphs)):
        for leg in range(center + 1):
            yield build_type2(7, [graphs[leg]] * 18 + [graphs[center]] * 3)


def evidence_digest():
    h = hashlib.sha256()
    for inst in golden_instances():
        run = (run_type1 if inst.kind == "pan" else run_type2)(inst, force=True)
        evidence = (run.labeling, run.ranked_blocks, run.chain, run.offsets, check_conditions(inst))
        h.update(repr(evidence).encode())
    return h.hexdigest()


def test_labeling_evidence_digest():
    assert evidence_digest() == DIGEST


def test_names_and_roles_digest():
    h = hashlib.sha256()
    for inst in golden_instances():
        for strings in (inst.composite.names, inst.edge_roles):
            h.update("\n".join(strings).encode() + b"\n\n")
    assert h.hexdigest() == NAMES_AND_ROLES_DIGEST
