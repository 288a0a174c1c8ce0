"""Correctness checks for CLI outputs, written against the README contract.

None of this calls the library: the tree JSON is checked against the
generated TES matrix with an ancestor closure of its own, and the SVG and DOT
files are checked against that JSON. Each check returns a list of problems;
an empty list means the output is correct. ``tree_json`` builds the tree
document independently, as input for the render workloads.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

from gen import Instance

# CLI defaults: --min-tes 0.2 --min-reborn 2 --min-dead 1 --threshold-mode inclusive
DEFAULT_PARAMS = {"min_tes": 0.2, "min_reborn": 2, "min_dead": 1, "threshold_mode": "inclusive"}

_DOT_NODE = re.compile(r'  "([^"]+)" \[label="[^"]*", year="\d+", weight="[^"]+", emerging="(\w+)", evolving="(\w+)"\];')
_DOT_EDGE = re.compile(r'  "([^"]+)" -> "([^"]+)" \[tes="([^"]+)"\];')


def _candidate_keys(inst: Instance, j: int) -> dict[int, tuple[float, int, int]]:
    """Admissible parents of the topic at position `j`, each with its (tes, year, -index) key."""
    v = inst.order[j]
    keys = {}
    for i in range(j):
        u, tes = inst.order[i], inst.tes[i][j]
        if inst.years[u] < inst.years[v] and tes >= DEFAULT_PARAMS["min_tes"]:
            keys[u] = (tes, inst.years[u], -u)
    return keys


def _related(anc: dict[int, int], a: int, b: int) -> bool:
    return bool((anc[a] >> b) & 1 or (anc[b] >> a) & 1)


def _states(inst: Instance, parents: dict[int, list[int]]) -> dict[int, tuple[str, str]]:
    """Both evolution states per topic, first match as the README defines them."""
    year, latest = inst.years, max(inst.years)
    children = dict.fromkeys(inst.order, 0)
    for ps in parents.values():
        for p in ps:
            children[p] += 1
    out = {}
    for v, kept in parents.items():
        if not kept:
            emerging = "born"
        elif len(kept) >= 2:
            emerging = "fused"
        elif year[v] - max(year[p] for p in kept) > DEFAULT_PARAMS["min_reborn"]:
            emerging = "reborn"
        else:
            emerging = "flourishing"
        if children[v] >= 2:
            evolving = "split"
        elif children[v] == 0 and latest - year[v] > DEFAULT_PARAMS["min_dead"]:
            evolving = "dead"
        else:
            evolving = "flourishing"
        out[v] = (emerging, evolving)
    return out


def tree_json(inst: Instance) -> str:
    """The document `topictree build` writes for `inst` under the CLI defaults, built here.

    Greedy scan by descending candidate key, keeping a candidate unless it is
    related to one already kept; ancestor sets are bitmasks.
    """
    anc: dict[int, int] = {}
    parents: dict[int, list[int]] = {}
    edges = []
    for j, v in enumerate(inst.order):
        keys = _candidate_keys(inst, j)
        kept: list[int] = []
        for u in sorted(keys, key=keys.get, reverse=True):
            if not any(_related(anc, u, p) for p in kept):
                kept.append(u)
        parents[v] = kept
        anc[v] = 0
        for p in kept:
            anc[v] |= anc[p] | (1 << p)
            edges.append({"from_index": p, "to_index": v, "tes": keys[p][0]})
        if not kept:
            edges.append({"from_index": -1, "to_index": v, "tes": 1.0})
    states = _states(inst, parents)
    nodes = [
        {"id": f"t{v}", "index": v, "label": f"topic-{v}", "year": inst.years[v], "weight": float(inst.weights[v]),
         "words": [f"w{v}", f"k{v % 7}"], "emerging_state": states[v][0], "evolving_state": states[v][1]}
        for v in inst.order
    ]  # fmt: skip
    doc = {"params": DEFAULT_PARAMS, "latest_year": max(inst.years), "nodes": nodes, "edges": edges}
    return json.dumps(doc, indent=2) + "\n"


def check_tree(text: str, inst: Instance) -> list[str]:
    """The tree JSON is the greedy antichain genealogy of `inst` with correct states."""
    doc = json.loads(text)
    if doc["params"] != DEFAULT_PARAMS:
        return [f"params {doc['params']} are not the CLI defaults"]
    year, order = inst.years, inst.order
    pos = {v: i for i, v in enumerate(order)}
    if [node["index"] for node in doc["nodes"]] != list(order):
        return ["nodes are not the generated topics in (year, index) order"]
    problems = []
    if doc["latest_year"] != max(year):
        problems.append(f"latest_year {doc['latest_year']} != {max(year)}")

    parents: dict[int, list[int]] = {v: [] for v in order}
    rooted: set[int] = set()
    for e in doc["edges"]:
        u, v, tes = e["from_index"], e["to_index"], e["tes"]
        if u == -1:
            if tes != 1.0 or v in rooted:
                problems.append(f"bad root edge to {v}")
            rooted.add(v)
            continue
        if year[u] >= year[v]:
            problems.append(f"edge {u}->{v} does not advance in time")
        elif tes != inst.tes[pos[u]][pos[v]] or tes < DEFAULT_PARAMS["min_tes"]:
            problems.append(f"edge {u}->{v} carries tes {tes}, matrix has {inst.tes[pos[u]][pos[v]]}")
        parents[v].append(u)
    if problems:
        return problems

    anc: dict[int, int] = {}  # ancestor bitmask per topic; parents are older, so already filled
    for v in order:
        anc[v] = 0
        for p in parents[v]:
            anc[v] |= anc[p] | (1 << p)
    states = _states(inst, parents)
    for j, v in enumerate(order):
        kept = parents[v]
        if (v in rooted) == bool(kept):
            problems.append(f"topic {v} must have either parents or a root edge")
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if _related(anc, a, b):
                    problems.append(f"parents {a} and {b} of {v} are related")
        keys = _candidate_keys(inst, j)
        for u in keys.keys() - set(kept):
            if not any(_related(anc, u, p) and keys[p] > keys[u] for p in kept):
                problems.append(f"candidate {u} of {v} was dropped without a stronger related parent")
        node = doc["nodes"][j]
        if (node["emerging_state"], node["evolving_state"]) != states[v]:
            problems.append(f"topic {v} has states {node['emerging_state']}/{node['evolving_state']}, expected {states[v]}")
    return problems[:20]


def check_svg(text: str, tree: dict) -> list[str]:
    """Well-formed SVG with one glyph and one label per topic and one path per edge."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed: {exc}"]
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    want_nodes = {f"node-{node['index']}" for node in tree["nodes"]}
    want_edges = {f"edge-{e['from_index']}-{e['to_index']}" for e in tree["edges"] if e["from_index"] != -1}
    got_nodes = {i for i in ids if re.fullmatch(r"node-\d+", i)}
    got_edges = {i for i in ids if re.fullmatch(r"edge-\d+-\d+", i)}
    labels = sum(1 for el in root.iter() if el.get("class") == "node-label")
    problems = []
    if got_nodes != want_nodes:
        problems.append(f"SVG has {len(got_nodes)} node glyphs, tree has {len(want_nodes)} topics")
    if got_edges != want_edges:
        problems.append(f"SVG has {len(got_edges)} edge paths, tree has {len(want_edges)} edges")
    if labels != len(want_nodes):
        problems.append(f"SVG has {labels} labels for {len(want_nodes)} topics")
    return problems


def check_dot(text: str, tree: dict) -> list[str]:
    """DOT digraph whose nodes carry the tree's states and whose edges carry its TES."""
    lines = text.splitlines()
    if lines[:2] != ["digraph tet {", "  rankdir=LR;"] or lines[-1] != "}":
        return ["DOT output is not a tet digraph"]
    ids = {node["id"]: node["index"] for node in tree["nodes"]}
    want_nodes = {node["id"]: (node["emerging_state"], node["evolving_state"]) for node in tree["nodes"]}
    want_edges = {(e["from_index"], e["to_index"]): e["tes"] for e in tree["edges"] if e["from_index"] != -1}
    got_nodes, got_edges = {}, {}
    for line in lines[2:-1]:
        if m := _DOT_NODE.fullmatch(line):
            got_nodes[m[1]] = (m[2], m[3])
        elif m := _DOT_EDGE.fullmatch(line):
            got_edges[(ids.get(m[1]), ids.get(m[2]))] = float(m[3])
        else:
            return [f"unexpected DOT line {line!r}"]
    problems = []
    if got_nodes != want_nodes:
        problems.append("DOT node states differ from the tree")
    if got_edges != want_edges:
        problems.append("DOT edges differ from the tree")
    return problems
