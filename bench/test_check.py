"""Tests of the benchmark's independent output checker.

Each test starts from files the CLI writes for a small spider instance,
shows that the checker accepts them, then corrupts one thing.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from antimagic.cli import main  # noqa: E402

SPEC = {
    "base": {"type": "spider", "param": 2},
    "attachments": [{"kind": "K", "params": [2]}, {"kind": "C", "params": [3]},
                    {"kind": "C", "params": [3]}] + [{"kind": "K", "params": [4]}] * 3,
}


@pytest.fixture
def outputs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    graph_path = tmp_path / "graph.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", str(spec), "--graph-out", str(graph_path)]) == 0
        assert main(["label", str(spec), "--out", str(tmp_path / "run")]) == 0
    graph = json.loads(graph_path.read_text())
    labeling = json.loads((tmp_path / "run.labeling.json").read_text())
    report = json.loads((tmp_path / "run.report.json").read_text())
    edges = check.check_graph(SPEC, graph)
    sums = check.check_labeling(graph["vertices"], edges, labeling)
    assert check.check_report(report, sums) > 0
    return graph, edges, labeling


def test_rejects_repeated_label(outputs):
    graph, edges, labeling = outputs
    entries = labeling["edges"]
    entries[1]["label"] = entries[0]["label"]
    with pytest.raises(check.CheckFailed, match="permutation"):
        check.check_labeling(graph["vertices"], edges, labeling)


def test_rejects_equal_vertex_sums(outputs):
    graph, edges, labeling = outputs
    entries = labeling["edges"]
    pairs = [(e["u"], e["v"]) for e in entries]
    for i, j in itertools.combinations(range(len(entries)), 2):
        labels = [e["label"] for e in entries]
        labels[i], labels[j] = labels[j], labels[i]
        sums = check.vertex_sums(graph["vertices"], pairs, labels)
        if len(set(sums)) < len(sums):
            break
    else:
        pytest.fail("no label swap makes two sums equal")
    entries[i]["label"], entries[j]["label"] = labels[i], labels[j]
    with pytest.raises(check.CheckFailed, match="same sum"):
        check.check_labeling(graph["vertices"], edges, labeling)


@pytest.mark.parametrize("replace", [False, True], ids=["dropped", "replaced"])
def test_rejects_missing_cross_edge(outputs, replace):
    graph, _, _ = outputs
    base_vertices = check.base_size("spider", 2)[0]
    broken = copy.deepcopy(graph)
    cross = next(k for k, (u, v) in enumerate(broken["edges"])
                 if min(u, v) < base_vertices <= max(u, v))
    u, v = broken["edges"].pop(cross)
    if replace:
        # Keep |E| right with an edge between two base vertices that the
        # spider lacks, so only the edge-set comparison can catch it.
        present = {(min(a, b), max(a, b)) for a, b in broken["edges"]}
        bogus = next(p for p in itertools.combinations(range(base_vertices), 2)
                     if p not in present)
        broken["edges"].append(list(bogus))
    with pytest.raises(check.CheckFailed, match="edges|edge set"):
        check.check_graph(SPEC, broken)
