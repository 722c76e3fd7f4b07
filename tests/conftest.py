"""Shared builders for the worked fixtures used across the suite."""

from __future__ import annotations

import gc
import itertools
import json
import re
import tracemalloc

import pytest

from antimagic import build_type1, build_type2, preset_graph
from antimagic import io as aio


def K(n):
    return preset_graph("complete", [n])


def C(n):
    return preset_graph("cycle", [n])


def P(n):
    return preset_graph("path", [n])


def S(n):
    return preset_graph("star", [n])


def diamond():
    return preset_graph("diamond")


# The attachment catalog of the small-instance sweep, in non-decreasing
# vertex count; instances list entries in non-decreasing catalog order.
CATALOG = (
    ("complete", (2,)),
    ("path", (3,)),
    ("complete", (3,)),
    ("path", (4,)),
    ("star", (4,)),
    ("cycle", (4,)),
    ("diamond", ()),
    ("complete", (4,)),
    ("star", (5,)),
    ("cycle", (5,)),
    ("complete", (5,)),
)
CATALOG_GRAPHS = tuple(preset_graph(kind, params) for kind, params in CATALOG)


def catalog_combos(blocks):
    """Every multiset of `blocks` catalog graphs, each listed in catalog order."""
    for combo in itertools.combinations_with_replacement(CATALOG_GRAPHS, blocks):
        yield list(combo)


@pytest.fixture
def pan_r5():
    """Pan base r=5 with (K2, C3, C3, C4, diamond, K4)."""
    return build_type1(5, [K(2), C(3), C(3), C(4), diamond(), K(4)])


@pytest.fixture
def spider_p2():
    """Spider base p=2 with (K2, C3, C3, K4, K4, K4)."""
    return build_type2(2, [K(2), C(3), C(3), K(4), K(4), K(4)])


@pytest.fixture
def spider_p4():
    """Spider base p=4 with (K2 x9, K5 x3)."""
    return build_type2(4, [K(2)] * 9 + [K(5)] * 3)


def graph_descriptor(g):
    """The graph descriptor of g as a value, edges and names as g's own
    tuples: the document the CLI writes for g is `json.dumps` of it,
    with sorted keys and an indent of 2."""
    names = {} if g.names is None else {"names": g.names}
    return {"vertices": g.vertex_count, "edges": g.edges, **names}


def named_sums(inst, report):
    return {inst.composite.names[v]: s for v, s in enumerate(report.sums)}


def ranked(run, block):
    """The ranked block of a labeling run whose block id is `block`."""
    for rk in run.ranked_blocks:
        if rk.block == block:
            return rk
    raise AssertionError(f"no ranked block {block}")


def recomputed_sums(g, labels):
    """The vertex sums of g under labels (one per edge, in edge order),
    recomputed here rather than taken from the verifier."""
    sums = [0] * g.vertex_count
    for (u, v), label in zip(g.edges, labels, strict=True):
        sums[u] += label
        sums[v] += label
    return sums


def plain_enumeration(g):
    """Independent search oracle: the first permutation of 1..|E|, in
    lexicographic order, whose vertex sums are distinct, or None."""
    for perm in itertools.permutations(range(1, g.edge_count + 1)):
        if len(set(recomputed_sums(g, perm))) == g.vertex_count:
            return perm
    return None


def peak_bytes(read):
    """What read() returns, and the peak of traced memory above the start
    while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = read()
        return got, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def read_whole(data, *args):
    """A stand-in for `io._pieces` that sends every document to the whole
    read."""
    raise aio.SpecError("read whole")


# Values put in place of an integer: not an int, or one of 4,301 digits.
JUNK_VALUES = ["true", "1.0", "9" * 4301, "[[{}]]", '"1"', "null"]


def layout_mutations(text):
    """{name: bytes}: a document the CLI writes, whose first key is a
    non-empty "edges" list, as written and under mutations of its rows,
    its other keys, its whitespace and its bytes."""
    opening, closing = '{\n  "edges": [\n    ', "\n  ]"
    if not text.startswith(opening):
        raise ValueError("not a document with an edge list first")
    start, stop = len(opening), text.index(closing)
    head, tail = text[:start], text[stop:]
    rows = re.split(r",\n    (?=[\[{])", text[start:stop])

    def doc(new_rows):
        return head + ",\n    ".join(new_rows) + tail

    out = {"as written": text}
    for i in sorted({0, len(rows) // 2, len(rows) - 1}):
        row = rows[i]
        lines = row.split("\n")  # opening bracket, one line per value, closing bracket
        ints = list(re.finditer(r"(?<= )-?\d+(?=,?$)", row, re.M))  # the integer values

        def at(*new, i=i):
            return doc(rows[:i] + list(new) + rows[i + 1 :])

        def fields(new_lines):
            return "\n".join([lines[0], *[line + "," for line in new_lines[:-1]], new_lines[-1], lines[-1]])

        values = [line.rstrip(",") for line in lines[1:-1]]
        extra = '      "x": 1' if row.startswith("{") else "      7"
        out[f"row {i} dropped"] = at()
        out[f"row {i} twice"] = at(row, row)
        out[f"an empty row before row {i}"] = at(" ", row)
        if i + 1 < len(rows):
            out[f"rows {i} and {i + 1} swapped"] = doc(rows[:i] + [rows[i + 1], row] + rows[i + 2 :])
        first, last = ints[-2], ints[-1]
        out[f"row {i} reversed"] = at(
            row[: first.start()] + last.group() + row[first.end() : last.start()] + first.group() + row[last.end() :]
        )
        out[f"row {i} without its last value"] = at(fields(values[:-1]))
        out[f"row {i} with its first key again"] = at(fields([*values, re.sub(r"-?\d+$", "5", values[0])]))
        out[f"row {i} with an extra value"] = at(fields([*values, extra]))
        out[f"row {i} on one line"] = at(row.replace("\n      ", " "))
        for junk in JUNK_VALUES:
            for m in (ints[0], last):
                out[f"row {i} with {junk[:8]} at {m.start()}"] = at(row[: m.start()] + junk + row[m.end() :])
    end = text.rindex("\n}")
    out['"edges" again'] = text[:end] + ',\n  "edges": []' + text[end:]
    out["an extra key"] = text[:end] + ',\n  "zz": {"edges": [1]}' + text[end:]
    # Objects and lists indented as rows are: both row separators recur past the edges.
    more = json.dumps([{"label": 1, "u": 0, "v": 1}, {"label": 2, "u": 1, "v": 2}, [0, 1], [1, 2]], indent=2)
    out["rows after the edges"] = text[:end] + ',\n  "zz": ' + more.replace("\n", "\n  ") + text[end:]
    out["a preset's keys"] = text[:end] + ',\n  "kind": "K",\n  "params": [100]' + text[end:]
    out["the last key dropped"] = text[: text.rindex(',\n  "')] + text[end:]
    out["minified"] = json.dumps(json.loads(text), sort_keys=True)
    out["crlf"] = text.replace("\n", "\r\n")
    out["bom"] = "\ufeff" + text
    out["cut after the rows"] = text[:stop]
    out["cut in half"] = text[: len(text) // 2]
    out["cut at the end"] = text[:-3]
    mutations = {name: mutated.encode("utf-8") for name, mutated in out.items()}
    data = mutations["as written"]
    for name, pos in (("in a row", data.index(b"\n", start + 1)), ("in the tail", data.rindex(b"\n", 0, len(data) - 1))):
        mutations[f"not UTF-8 {name}"] = data[:pos] + b"\xff" + data[pos:]
        mutations[f"a surrogate {name}"] = data[:pos] + b"\xed\xa0\x80" + data[pos:]
    return mutations
