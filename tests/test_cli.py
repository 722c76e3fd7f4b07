"""CLI subcommands and their exit-code contract."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from antimagic import cli, run_type2, vertex_sums
from antimagic import io as aio
from antimagic.cli import main

from .conftest import layout_mutations, peak_bytes, read_whole

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_pan_r5_summary(capsys):
    code, out, _ = run_cli(capsys, "build", str(FIXTURES / "pan_r5.json"))
    assert code == 0
    assert "26 vertices, 68 edges" in out


def test_build_spider_p4_summary(capsys):
    code, out, _ = run_cli(capsys, "build", str(FIXTURES / "spider_p4.json"))
    assert code == 0
    assert "46 vertices, 117 edges" in out


def test_build_missing_attachment_fails(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(
        json.dumps(
            {
                "base": {"type": "pan", "param": 3},
                "attachments": [{"kind": "K", "params": [2]}] * 3,
            }
        )
    )
    code, _, err = run_cli(capsys, "build", str(spec))
    assert code != 0
    assert "attachments" in err


def test_build_writes_summary_and_graph(capsys, tmp_path):
    summary = tmp_path / "summary.json"
    graph = tmp_path / "graph.json"
    code, _, _ = run_cli(
        capsys,
        "build",
        str(FIXTURES / "spider_p2.json"),
        "--out",
        str(summary),
        "--graph-out",
        str(graph),
    )
    assert code == 0
    data = json.loads(summary.read_text())
    assert data["vertices"] == 27
    assert data["edges"] == 71
    assert data["roles"] == {"base": 6, "internal": 25, "cross": 40}
    g = json.loads(graph.read_text())
    assert g["vertices"] == 27


def test_conditions_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "conditions", str(FIXTURES / "pan_r5.json"))
    assert code == 0
    assert json.loads(out)["overall"] is True
    code, out, _ = run_cli(capsys, "conditions", str(FIXTURES / "violating.json"))
    assert code == 3
    assert json.loads(out)["overall"] is False


def test_label_spider_p2_reports_center_sum(capsys):
    code, out, _ = run_cli(capsys, "label", str(FIXTURES / "spider_p2.json"))
    assert code == 0
    assert '"w(v0)": 960' in out


def test_label_pan_r5_reports_pendant_sum(capsys):
    code, out, _ = run_cli(capsys, "label", str(FIXTURES / "pan_r5.json"))
    assert code == 0
    assert '"w(u0)": 6' in out


def test_label_conditions_unmet_without_force(capsys):
    code, _, err = run_cli(capsys, "label", str(FIXTURES / "violating.json"))
    assert code == 3
    assert "conditions not met" in err


def test_label_forced_duplicates_exit_two(capsys):
    # This violating instance genuinely collides under the construction.
    code, out, _ = run_cli(capsys, "label", str(FIXTURES / "violating.json"), "--force")
    assert code == 2
    assert '"is_antimagic": false' in out


def test_label_writes_files(capsys, tmp_path):
    prefix = tmp_path / "spider_p2"
    code, out, _ = run_cli(
        capsys, "label", str(FIXTURES / "spider_p2.json"), "--out", str(prefix)
    )
    assert code == 0
    labeling = json.loads(Path(f"{prefix}.labeling.json").read_text())
    assert len(labeling["edges"]) == 71
    report = json.loads(Path(f"{prefix}.report.json").read_text())
    assert report["vertex_sums"]["w(v0)"] == 960
    assert report["is_antimagic"] is True


def test_label_csv_and_dot_formats(capsys, tmp_path):
    for fmt, ext, needle in (("csv", "csv", "edge_u,edge_v,label"), ("dot", "dot", "graph antimagic")):
        prefix = tmp_path / f"out_{fmt}"
        code, _, _ = run_cli(
            capsys,
            "label",
            str(FIXTURES / "spider_p2.json"),
            "--out",
            str(prefix),
            "--format",
            fmt,
        )
        assert code == 0
        assert needle in Path(f"{prefix}.labeling.{ext}").read_text()


def test_verify_antimagic_and_not(capsys, tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"kind": "C", "params": [3]}))
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {"edges": [{"u": 0, "v": 1, "label": 1}, {"u": 0, "v": 2, "label": 2}, {"u": 1, "v": 2, "label": 3}]}
        )
    )
    code, out, _ = run_cli(capsys, "verify", str(c3), str(good))
    assert code == 0
    assert json.loads(out)["is_antimagic"] is True

    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps({"kind": "K", "params": [2]}))
    lab = tmp_path / "k2lab.json"
    lab.write_text(json.dumps({"edges": [{"u": 0, "v": 1, "label": 1}]}))
    code, out, _ = run_cli(capsys, "verify", str(k2), str(lab))
    assert code == 1
    assert json.loads(out)["is_antimagic"] is False


def test_verify_malformed_labeling_exit_four(capsys, tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"kind": "C", "params": [3]}))
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"edges": [{"u": 0, "v": 1, "label": 1}, {"u": 0, "v": 2, "label": 1}, {"u": 1, "v": 2, "label": 2}]}
        )
    )
    code, _, err = run_cli(capsys, "verify", str(c3), str(bad))
    assert code == 4
    assert "permutation" in err


def test_verify_accepts_csv(capsys, tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"kind": "C", "params": [3]}))
    lab = tmp_path / "lab.csv"
    lab.write_text("edge_u,edge_v,label\n0,1,1\n0,2,2\n1,2,3\n")
    code, _, _ = run_cli(capsys, "verify", str(c3), str(lab))
    assert code == 0


@pytest.mark.parametrize("suffix", [".csv", ".CSV", ".Csv"])
def test_csv_labelings_are_known_by_their_suffix_in_any_case(capsys, tmp_path, suffix):
    graph, stem = tmp_path / "g.json", tmp_path / "r"
    assert run_cli(capsys, "build", str(FIXTURES / "pan_r5.json"), "--graph-out", str(graph))[0] == 0
    assert run_cli(capsys, "label", str(FIXTURES / "pan_r5.json"), "--format", "csv", "--out", str(stem))[0] == 0
    lab = Path(f"{stem}.labeling.csv").rename(tmp_path / f"r.labeling{suffix}")
    code, out, err = run_cli(capsys, "verify", str(graph), str(lab))
    assert (code, err) == (0, "")
    assert json.loads(out)["is_antimagic"] is True


@pytest.mark.parametrize(
    "argv",
    [["label", "spec.json", "--frce"], ["label"], ["search", "g.json", "--random", "--seed", "x"]],
    ids=["unknown-option", "missing-spec", "bad-int"],
)
def test_usage_errors_exit_65_not_the_forced_duplicates_code(capsys, argv):
    """argparse's usage and error lines are kept; the exit code is 65, as
    for any malformed input, since 2 means a forced run with duplicate
    sums."""
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 65
    err = capsys.readouterr().err
    assert err.startswith("usage: antimagic ") and "\nantimagic" in err and ": error: " in err
    with pytest.raises(SystemExit) as raised:
        main(["--help"])
    assert raised.value.code == 0


def test_search_exhaustive(capsys, tmp_path):
    p4 = tmp_path / "p4.json"
    p4.write_text(json.dumps({"kind": "P", "params": [4]}))
    code, out, _ = run_cli(capsys, "search", str(p4), "--exhaustive")
    assert code == 0
    assert json.loads(out)["status"] == "Found"

    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps({"kind": "K", "params": [2]}))
    code, out, _ = run_cli(capsys, "search", str(k2), "--exhaustive")
    assert code == 1
    assert json.loads(out)["status"] == "ExhaustedNone"


def test_search_random(capsys, tmp_path):
    c5 = tmp_path / "c5.json"
    c5.write_text(json.dumps({"kind": "C", "params": [5]}))
    code, out, _ = run_cli(capsys, "search", str(c5), "--random", "--seed", "1")
    assert code == 0
    assert json.loads(out)["status"] == "Found"


def test_search_too_large_is_input_error(capsys, tmp_path):
    k6 = tmp_path / "k6.json"
    k6.write_text(json.dumps({"kind": "K", "params": [6]}))
    code, _, err = run_cli(capsys, "search", str(k6), "--exhaustive")
    assert code == 65
    assert "cap" in err


def test_export_graph_round_trip(capsys, tmp_path):
    src = tmp_path / "pan.json"
    src.write_text(json.dumps({"kind": "pan", "params": [4]}))
    first = tmp_path / "first.json"
    code, _, _ = run_cli(capsys, "export", str(src), "--out", str(first))
    assert code == 0
    second = tmp_path / "second.json"
    code, _, _ = run_cli(capsys, "export", str(first), "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_export_dot_with_labeling(capsys, tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"kind": "C", "params": [3]}))
    lab = tmp_path / "lab.csv"
    lab.write_text("edge_u,edge_v,label\n0,1,1\n0,2,2\n1,2,3\n")
    code, out, _ = run_cli(
        capsys, "export", str(c3), "--format", "dot", "--labeling", str(lab)
    )
    assert code == 0
    assert "w=3" in out


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_export_matches_label_output(capsys, tmp_path, fmt):
    """export of a built composite with the JSON labeling label wrote gives
    the bytes label writes in that format, less the edge roles."""
    spec = str(FIXTURES / "spider_p4.json")
    graph = tmp_path / "graph.json"
    assert run_cli(capsys, "build", spec, "--graph-out", str(graph))[0] == 0
    assert run_cli(capsys, "label", spec, "--out", str(tmp_path / "j"))[0] == 0
    assert run_cli(capsys, "label", spec, "--out", str(tmp_path / "f"), "--format", fmt)[0] == 0
    code, out, _ = run_cli(
        capsys, "export", str(graph), "--format", fmt, "--labeling", str(tmp_path / "j.labeling.json")
    )
    assert code == 0
    expected = (tmp_path / f"f.labeling.{fmt}").read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(expected)
        for edge in doc["edges"]:
            del edge["role"]
        expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert out == expected


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_export_out_file_matches_stdout(capsys, tmp_path, fmt):
    spec = str(FIXTURES / "spider_p4.json")
    graph = tmp_path / "graph.json"
    assert run_cli(capsys, "build", spec, "--graph-out", str(graph))[0] == 0
    assert run_cli(capsys, "label", spec, "--out", str(tmp_path / "j"))[0] == 0
    argv = ["export", str(graph), "--format", fmt, "--labeling", str(tmp_path / "j.labeling.json")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--out", str(tmp_path / f"out.{fmt}")) == (0, "", "")
    assert (tmp_path / f"out.{fmt}").read_bytes() == out.encode()


def test_export_csv_without_labeling_is_input_error(capsys, tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"kind": "C", "params": [3]}))
    code, out, err = run_cli(capsys, "export", str(c3), "--format", "csv")
    assert code == 65
    assert out == ""
    assert err == "error: csv export needs --labeling\n"


def test_export_dot_escapes_names(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "names": ['a"b', "c\\"]}))
    lab = tmp_path / "lab.csv"
    lab.write_text("edge_u,edge_v,label\n0,1,1\n")
    code, out, _ = run_cli(capsys, "export", str(graph), "--format", "dot")
    assert code == 0
    assert '  0 [label="a\\"b"];\n  1 [label="c\\\\"];\n' in out
    code, out, _ = run_cli(
        capsys, "export", str(graph), "--format", "dot", "--labeling", str(lab)
    )
    assert code == 0
    assert '  0 [label="a\\"b\\nw=1"];\n  1 [label="c\\\\\\nw=1"];\n' in out


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "build", str(tmp_path / "nope.json"))
    assert code == 65
    assert err


def _spider_p2_spec(tmp_path, **changes):
    spec = json.loads((FIXTURES / "spider_p2.json").read_text())
    spec.update(changes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_options_not_an_object_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "label", str(_spider_p2_spec(tmp_path, options=[])))
    assert code == 65
    assert err.count("\n") == 1 and "options" in err


def test_non_integer_param_is_input_error(capsys, tmp_path):
    spec = _spider_p2_spec(tmp_path, base={"type": "spider", "param": "x"})
    code, _, err = run_cli(capsys, "label", str(spec))
    assert code == 65
    assert err.count("\n") == 1 and "param" in err


def test_pan_param_below_least_is_input_error(capsys, tmp_path):
    spec = _spider_p2_spec(tmp_path, base={"type": "pan", "param": 2})
    code, _, err = run_cli(capsys, "label", str(spec))
    assert code == 65
    assert err == "error: pan base needs r >= 3, got 2\n"


def test_verify_edge_listed_twice_exit_four(capsys, tmp_path):
    p4 = tmp_path / "p4.json"
    p4.write_text(json.dumps({"kind": "P", "params": [4]}))
    lab = tmp_path / "lab.json"
    entries = [(0, 1, 99), (0, 1, 1), (1, 2, 3), (2, 3, 2)]
    lab.write_text(json.dumps({"edges": [{"u": u, "v": v, "label": x} for u, v, x in entries]}))
    code, out, err = run_cli(capsys, "verify", str(p4), str(lab))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "twice" in err


def test_verify_non_integer_label_exit_four(capsys, tmp_path):
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"kind": "P", "params": [3]}))
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"edges": [{"u": 0, "v": 1, "label": "x"}, {"u": 1, "v": 2, "label": 1}]}))
    code, out, err = run_cli(capsys, "verify", str(p3), str(lab))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "integer" in err


def test_verify_non_integer_csv_label_exit_four(capsys, tmp_path):
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"kind": "P", "params": [3]}))
    lab = tmp_path / "lab.csv"
    lab.write_text("edge_u,edge_v,label\n0,1,x\n1,2,1\n")
    code, out, err = run_cli(capsys, "verify", str(p3), str(lab))
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "integer" in err


def test_graph_edge_triple_is_input_error(capsys, tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": 3, "edges": [[0, 1, 2]]}))
    code, _, err = run_cli(capsys, "export", str(g))
    assert code == 65
    assert err.count("\n") == 1 and "edges" in err


def test_graph_non_integer_vertices_is_input_error(capsys, tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": "abc", "edges": [[0, 1]]}))
    code, _, err = run_cli(capsys, "verify", str(g), str(tmp_path / "unread.json"))
    assert code == 65
    assert err.count("\n") == 1 and "vertices" in err


def test_search_negative_budget_is_input_error(capsys, tmp_path):
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"kind": "P", "params": [3]}))
    code, out, err = run_cli(capsys, "search", str(p3), "--random", "--budget", "-1")
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "budget" in err


def _verify_p3(capsys, tmp_path, labeling, suffix=".json"):
    """Run `verify` on P3 with a labeling file: the given text, or JSON
    entries from a list of (u, v, label) triples."""
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"kind": "P", "params": [3]}))
    if isinstance(labeling, list):
        labeling = json.dumps({"edges": [{"u": u, "v": v, "label": x} for u, v, x in labeling]})
    lab = tmp_path / f"lab{suffix}"
    lab.write_text(labeling)
    return run_cli(capsys, "verify", str(p3), str(lab))


def test_verify_non_integer_fields_exit_four(capsys, tmp_path):
    for labeling, suffix in (
        ([(0, 1, 1.2), (1, 2, 2.9)], ".json"),
        ([(0, 1, True), (1, 2, 2)], ".json"),
        ([(0, 1, "1"), (1, 2, 2)], ".json"),
        ([(0, True, 1), (1, 2, 2)], ".json"),
        ([("0", 1, 1), (1, 2, 2)], ".json"),
        ([(0.0, 1, 1), (1, 2, 2)], ".json"),
        ("edge_u,edge_v,label\n0,1\n1,2,2\n", ".csv"),
    ):
        code, out, err = _verify_p3(capsys, tmp_path, labeling, suffix)
        assert code == 4, labeling
        assert out == ""
        assert err.count("\n") == 1 and "integer" in err


def test_verify_entry_without_v_exit_four(capsys, tmp_path):
    lab = json.dumps({"edges": [{"u": 0, "label": 1}, {"u": 1, "v": 2, "label": 2}]})
    code, out, err = _verify_p3(capsys, tmp_path, lab)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "'v'" in err


def test_verify_csv_labels_still_parse(capsys, tmp_path):
    code, out, _ = _verify_p3(capsys, tmp_path, "edge_u,edge_v,label\n0,1,1\n2,1,2\n", ".csv")
    assert code == 0
    assert json.loads(out)["is_antimagic"] is True


def test_string_force_option_is_input_error(capsys, tmp_path):
    spec = json.loads((FIXTURES / "violating.json").read_text())
    for options in ({"force": "false"}, {"force": 0}, {"normalize": "true"}, {"normalize": None}):
        spec["options"] = options
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "label", str(path))
        assert code == 65, options
        assert out == ""
        assert err.count("\n") == 1 and "option" in err


def test_boolean_force_option_still_forces(capsys, tmp_path):
    spec = json.loads((FIXTURES / "violating.json").read_text())
    for force, expected in ((False, 3), (True, 2)):
        spec["options"] = {"force": force}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, _ = run_cli(capsys, "label", str(path))
        assert code == expected, force


def test_verify_repeated_vertex_names_is_input_error(capsys, tmp_path):
    for names in (["a", "a", "b"], ["a", 1, "b"], "abc", ["a", "\ud800", "b"]):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]], "names": names}))
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"edges": [{"u": 0, "v": 1, "label": 1}, {"u": 1, "v": 2, "label": 2}]}))
        code, out, err = run_cli(capsys, "verify", str(g), str(lab))
        assert code == 65, names
        assert out == ""
        assert err.count("\n") == 1 and "names" in err


def _p3_graph(tmp_path):
    p3 = tmp_path / "p3.json"
    p3.write_text(json.dumps({"kind": "P", "params": [3]}))
    return p3


def _unreadable_files(tmp_path):
    """A file that is not UTF-8, JSON nested 100,000 deep, and JSON holding
    an integer of 4,301 digits, one past the limit on converting between
    int and str (`sys.get_int_max_str_digits()`, 4,300 by default)."""
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"vertices": %s, "edges": []}' % ("9" * 4301))
    return not_utf8, deep, long_int


def test_unreadable_spec_is_input_error(capsys, tmp_path):
    for spec in _unreadable_files(tmp_path):
        for command in ("label", "build", "conditions"):
            code, out, err = run_cli(capsys, command, str(spec))
            assert code == 65, (command, spec.name)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_graph_or_labeling_is_input_error(capsys, tmp_path):
    p3 = _p3_graph(tmp_path)
    not_utf8, deep, long_int = _unreadable_files(tmp_path)
    not_utf8_csv = tmp_path / "lab.csv"
    not_utf8_csv.write_bytes(b"edge_u,edge_v,label\n0,1,\xff\n")
    huge_field_csv = tmp_path / "huge.csv"  # over csv.field_size_limit()
    huge_field_csv.write_text("edge_u,edge_v,label\n" + "1" * 200_000 + ",0,1\n")
    labelings = (not_utf8, deep, long_int, not_utf8_csv, huge_field_csv)
    runs = [("verify", p3, lab) for lab in labelings]
    for g in (not_utf8, deep, long_int):
        runs += [("verify", g, p3), ("search", g, "--random"), ("export", g)]
    runs += [("export", p3, "--labeling", lab) for lab in labelings]
    for argv in runs:
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 65, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_a_json_syntax_error_names_its_file(capsys, tmp_path):
    """Malformed JSON in a spec, a graph or a labeling ends with exit 65 and
    one error line that names the file it is in."""
    p3 = _p3_graph(tmp_path)
    spec, graph, labeling = (tmp_path / f"bad_{name}.json" for name in ("spec", "graph", "labeling"))
    spec.write_text('{"base": ')
    graph.write_text("")
    labeling.write_text('{"edges": [{"u": 0, "v": 1, "label": 1},]}')
    for argv, bad in ((("label", spec), spec), (("verify", graph, p3), graph), (("verify", p3, labeling), labeling)):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 65, argv
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_export_of_a_lone_surrogate_name_writes_nothing(capsys, tmp_path, fmt):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "names": ["\ud800", "b"]}))
    out_file = tmp_path / f"out.{fmt}"
    code, out, err = run_cli(capsys, "export", str(graph), "--format", fmt, "--out", str(out_file))
    assert code == 65
    assert out == ""
    assert err.startswith("error: names") and err.count("\n") == 1
    assert not out_file.exists()


def test_boolean_params_is_input_error(capsys, tmp_path):
    spec = json.loads((FIXTURES / "spider_p2.json").read_text())
    spec["attachments"][0] = {"kind": "K", "params": [True]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "label", str(path))
    assert code == 65
    assert err == "error: params must be a list of integers\n"


@pytest.mark.parametrize("kind", [["K"], {"a": 1}, 3, None], ids=["list", "dict", "int", "null"])
def test_non_string_kind_is_input_error(capsys, tmp_path, kind):
    spec = json.loads((FIXTURES / "spider_p2.json").read_text())
    spec["attachments"][0] = {"kind": kind, "params": [2]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "build", str(path))
    assert code == 65
    assert out == ""
    assert err == f"error: kind must be a string, got {kind!r}\n"


def test_search_help_documents_exhaustive_growth(capsys):
    try:
        main(["search", "--help"])
    except SystemExit as exc:
        assert exc.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "factorially" in out and "--limit" in out


def _huge_graph_files(tmp_path, vertices):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": vertices, "edges": []}))
    labeling = tmp_path / "labeling.json"
    labeling.write_text(json.dumps({"edges": []}))
    return graph, labeling


def test_vertex_count_past_index_range_is_input_error(capsys, tmp_path):
    # 10**20 does not fit a list length, so this fails before allocating.
    graph, labeling = _huge_graph_files(tmp_path, 10**20)
    for argv in (("verify", graph, labeling), ("search", graph, "--random")):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 65, argv
        assert out == ""
        assert err.startswith("error: input too large") and err.count("\n") == 1


def test_vertex_count_past_memory_is_input_error(tmp_path):
    # Run only under a 1 GiB address-space limit, so the 80 GB list of sums
    # fails at once instead of taking the machine's memory.
    resource = pytest.importorskip("resource")
    graph, labeling = _huge_graph_files(tmp_path, 10**10)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "antimagic.cli", "verify", str(graph), str(labeling)],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit_memory,
    )
    assert done.returncode == 65
    assert done.stdout == ""
    assert done.stderr == "error: input too large: out of memory\n"


@pytest.mark.parametrize("kind, base_edges", [("pan", 10**12 + 1), ("spider", 3 * 10**12)])
def test_attachment_count_checked_before_base_is_built(tmp_path, kind, base_edges):
    # Run only under a 256 MiB address-space limit: building a base with
    # param 10**12 before counting the attachments would take all memory.
    resource = pytest.importorskip("resource")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": {"type": kind, "param": 10**12}, "attachments": []}))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for command in ("build", "conditions", "label"):
        done = subprocess.run(
            [sys.executable, "-m", "antimagic.cli", command, str(spec)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit_memory,
        )
        assert done.returncode == 65, command
        assert done.stdout == ""
        assert done.stderr == f"error: expected {base_edges} attachments, got 0\n"


@pytest.fixture
def restore_collector():
    """Put the cyclic collector back as it was after a test that switches it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _exit_cases(tmp_path):
    """One command for each exit code: 0, 1, 2, 3, 4 and 65."""
    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps({"kind": "K", "params": [2]}))
    valid, repeated = tmp_path / "valid.json", tmp_path / "repeated.json"
    for path, label in ((valid, 1), (repeated, 2)):
        path.write_text(json.dumps({"edges": [{"u": 0, "v": 1, "label": label}]}))
    return [
        (("label", FIXTURES / "pan_r5.json"), 0),
        (("verify", k2, valid), 1),
        (("label", FIXTURES / "violating.json", "--force"), 2),
        (("label", FIXTURES / "violating.json"), 3),
        (("verify", k2, repeated), 4),
        (("build", tmp_path / "missing.json"), 65),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_keeps_collector_state(capsys, tmp_path, monkeypatch, restore_collector, enabled):
    """`main` pauses the cyclic collector while a command runs and leaves it
    as it found it: after every exit code, after a handler's exception and
    after argparse rejects the command line."""
    (gc.enable if enabled else gc.disable)()
    for argv, code in _exit_cases(tmp_path):
        assert run_cli(capsys, *map(str, argv))[0] == code
        assert gc.isenabled() is enabled, argv

    with pytest.raises(SystemExit):
        main(["no-such-command"])
    assert gc.isenabled() is enabled

    seen = []

    def broken_handler(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "_cmd_verify", broken_handler)
    with pytest.raises(RuntimeError):
        main(["verify", "graph.json", "labeling.json"])
    assert seen == [False]
    assert gc.isenabled() is enabled


HARD_GRAPHS = {
    "small": {"vertices": 2, "edges": [[0, 1]]},
    "large": {"vertices": 8, "edges": [[0, 1], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [2, 7]]},
}


def _command_inputs(capsys, tmp_path, size):
    """Files for every command at two sizes: a pan r=5 or r=400 spec with its
    graph and labeling, and for `search --exhaustive` K2 (one permutation) or
    K2 beside C6 (never antimagic, so all 7! orders are tried)."""
    r = {"small": 5, "large": 400}[size]
    out = tmp_path / size
    out.mkdir()
    spec = out / "spec.json"
    spec.write_text(json.dumps({
        "base": {"type": "pan", "param": r},
        "attachments": [{"kind": "K", "params": [2]}] + [{"kind": "C", "params": [3]}] * r,
    }))
    graph = out / "graph.json"
    assert run_cli(capsys, "build", str(spec), "--graph-out", str(graph))[0] == 0
    assert run_cli(capsys, "label", str(spec), "--out", str(out / "pan"))[0] == 0
    hard = out / "hard.json"
    hard.write_text(json.dumps(HARD_GRAPHS[size]))
    return {"dir": out, "spec": spec, "graph": graph, "labeling": out / "pan.labeling.json", "hard": hard}


COMMANDS = {
    "build": lambda f: (
        "build", f["spec"], "--out", f["dir"] / "summary.json", "--graph-out", f["dir"] / "again.json"
    ),
    "conditions": lambda f: ("conditions", f["spec"]),
    "label": lambda f: ("label", f["spec"], "--out", f["dir"] / "again"),
    "verify": lambda f: ("verify", f["graph"], f["labeling"]),
    "export": lambda f: (
        "export", f["graph"], "--format", "dot", "--labeling", f["labeling"], "--out", f["dir"] / "out.dot"
    ),
    "label-csv": lambda f: ("label", f["spec"], "--format", "csv", "--out", f["dir"] / "again"),
    "export-json": lambda f: (
        "export", f["graph"], "--format", "json", "--labeling", f["labeling"], "--out", f["dir"] / "out.json"
    ),
    "export-csv": lambda f: (
        "export", f["graph"], "--format", "csv", "--labeling", f["labeling"], "--out", f["dir"] / "out.csv"
    ),
    "search-random": lambda f: ("search", f["graph"], "--random", "--budget", "40"),
    "search-exhaustive": lambda f: ("search", f["hard"], "--exhaustive"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_data_is_acyclic(capsys, tmp_path, restore_collector, command):
    """The pause is safe because nothing a command builds in bulk is cyclic:
    the garbage the collector finds after each command is the same for a
    small and a large input, so it does not grow with the input. Automatic
    collection is off here, so that only the counted collections run."""
    gc.disable()
    found = {}
    for size in ("small", "large"):
        argv = COMMANDS[command](_command_inputs(capsys, tmp_path, size))
        gc.collect()
        assert run_cli(capsys, *map(str, argv))[0] in (cli.EXIT_OK, cli.EXIT_NOT_ANTIMAGIC)
        found[size] = gc.collect()
    assert found["small"] == found["large"], found


def test_emit_gets_chunks_not_a_bare_str(capsys, tmp_path, monkeypatch):
    """`writelines` writes a bare str one character at a time, so every
    writer hands `_emit` an iterable of chunks."""
    emit, seen = cli._emit, []

    def recorded(chunks, out):
        seen.append(type(chunks))
        emit(chunks, out)

    monkeypatch.setattr(cli, "_emit", recorded)
    files = _command_inputs(capsys, tmp_path, "small")
    for argv in [make(files) for make in COMMANDS.values()] + [
        ("label", files["spec"], "--format", fmt) for fmt in ("json", "csv", "dot")
    ] + [("export", files["graph"], "--format", fmt, "--labeling", files["labeling"]) for fmt in ("json", "csv")]:
        assert run_cli(capsys, *map(str, argv))[0] in (cli.EXIT_OK, cli.EXIT_NOT_ANTIMAGIC)
    assert len(seen) > len(COMMANDS) and str not in seen


def test_label_out_holds_no_copy_of_the_document(capsys, tmp_path):
    """`label --out` writes the labeling as it renders it: the traced peak of
    the whole command stays below what the instance, the run, the roles and
    the sums hold before the write, plus the size of the document. Writing
    the document whole, from one dict per edge, peaks at more than twice
    that bound."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "base": {"type": "spider", "param": 4},
        "attachments": [{"kind": "K", "params": [2]}] * 9 + [{"kind": "K", "params": [120]}] * 3,
    }))
    argv = ["label", str(spec), "--out", str(tmp_path / "run")]
    assert run_cli(capsys, *argv)[0] == 0  # imports and first calls happen here
    document = (tmp_path / "run.labeling.json").stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        inst, _ = aio.instance_from_json(json.loads(spec.read_text(encoding="utf-8")))
        run = run_type2(inst)
        kept = (inst, run, inst.edge_roles, vertex_sums(inst.composite, run.labeling).sums)
        edges = inst.composite.edge_count
        live = tracemalloc.get_traced_memory()[0] - start
        del inst, run, kept
        gc.collect()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert run_cli(capsys, *argv)[0] == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert edges == 22_197
    assert peak < live + document, (peak, live, document)


def test_export_of_a_huge_vertex_count_allocates_nothing_by_it(tmp_path):
    # Run only under a 256 MiB address-space limit: a graph read that
    # allocated by the vertex count would take all memory.
    resource = pytest.importorskip("resource")
    descriptor = {"vertices": 10**20, "edges": [[0, 1]]}
    graph = tmp_path / "graph.json"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for text in (json.dumps(descriptor), aio.canonical_dumps(descriptor)):  # read whole, then in pieces
        graph.write_text(text, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "antimagic.cli", "export", str(graph), "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit_memory,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, aio.canonical_dumps(descriptor), "")


def _wide_files(tmp_path):
    """A spider p=4 composite of 22,197 edges with K120 centers, and the
    paths of its graph descriptor and of its json and csv labelings, as the
    CLI writes them."""
    spec = {"base": {"type": "spider", "param": 4},
            "attachments": [{"kind": "K", "params": [2]}] * 9 + [{"kind": "K", "params": [120]}] * 3}
    inst, _ = aio.instance_from_json(spec)
    labeling = run_type2(inst).labeling
    g = inst.composite
    paths = {name: tmp_path / name for name in ("graph.json", "labeling.json", "labeling.csv")}
    cli._emit(aio.graph_chunks(g), paths["graph.json"])
    sums = vertex_sums(g, labeling).sums
    cli._emit(aio.labeling_chunks("json", g, labeling, inst.edge_roles, sums), paths["labeling.json"])
    cli._emit(aio.labeling_chunks("csv", g, labeling), paths["labeling.csv"])
    return g, labeling, paths


@pytest.mark.parametrize("name, bound", [("labeling.json", 1), ("labeling.csv", 5)])
def test_reading_a_labeling_file_holds_no_copy_of_it(tmp_path, name, bound):
    """A labeling in this program's layout is read in pieces from the file,
    so the read peaks below the file's size; a CSV labeling, read row by
    row, below 5 times its size. Both hold the labels they return, 36 bytes
    an edge."""
    g, labeling, paths = _wide_files(tmp_path)
    assert g.edge_count == 22_197
    cli._load_labeling(paths[name], g)  # imports and first calls happen here
    got, peak = peak_bytes(lambda: cli._load_labeling(paths[name], g))
    assert got == labeling
    size = paths[name].stat().st_size
    assert peak < bound * size, (peak, size)


@pytest.mark.parametrize("layout", ["as written", "minified"])
def test_graph_read_from_a_file_shares_its_vertex_ids(tmp_path, layout):
    """Endpoints that name the same vertex are the same int object, whether
    the file is read in pieces or whole."""
    g, _, paths = _wide_files(tmp_path)
    path = paths["graph.json"]
    if layout == "minified":
        path.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8"))), encoding="utf-8")
    read = cli._read_graph(path)
    assert read == g and g.vertex_count > 300
    ends = [end for edge in read.edges for end in edge]
    assert len(set(map(id, ends))) == len(set(ends)) == g.vertex_count


@pytest.mark.parametrize("fixture", ["pan_r5.json", "spider_p2.json", "spider_p4.json", "violating.json"])
def test_piecewise_reads_keep_every_exit_and_error(capsys, tmp_path, monkeypatch, fixture):
    """`verify` and `export` on the files `build`, `label` and `export`
    write, and on mutations of them, end as they do when every document is
    read whole: the same exit code, output and one-line error. Pieces are
    1 byte, so every row boundary is a cut."""
    spec, stem = FIXTURES / fixture, tmp_path / "run"
    graph, labeled = tmp_path / "graph.json", tmp_path / "labeled.json"
    assert run_cli(capsys, "build", str(spec), "--graph-out", str(graph))[0] == 0
    assert run_cli(capsys, "label", str(spec), "--force", "--out", str(stem))[0] in (0, 2)
    labeling = Path(f"{stem}.labeling.json")
    code, exported, _ = run_cli(capsys, "export", str(graph), "--format", "json", "--labeling", str(labeling))
    assert code == 0
    labeled.write_text(exported, encoding="utf-8")
    code, exported, _ = run_cli(capsys, "export", str(graph), "--format", "json")
    assert (code, exported) == (0, graph.read_text(encoding="utf-8"))

    monkeypatch.setattr(aio, "_PIECE", 1)
    originals = {path: path.read_bytes() for path in (graph, labeling, labeled)}
    runs = 0
    for path, original in originals.items():
        for mutation, data in layout_mutations(original.decode()).items():
            path.write_bytes(data)
            if path == graph:
                commands = [("verify", graph, labeling), ("export", graph, "--format", "json")]
            else:
                commands = [("verify", graph, path), ("export", graph, "--format", "dot", "--labeling", path)]
            for argv in commands:
                piecewise = run_cli(capsys, *map(str, argv))
                with monkeypatch.context() as whole:
                    whole.setattr(aio, "_pieces", read_whole)
                    assert run_cli(capsys, *map(str, argv)) == piecewise, (path.name, mutation, argv)
                assert piecewise[2].count("\n") <= 1
                runs += 1
        path.write_bytes(original)
    assert runs > 300
