"""Shared test utilities: random instances and independent re-implementations.

The re-implementations here (candidate scan over dense columns, ancestor
closure, brute-force antichain oracle) deliberately avoid the library's code
paths so they can serve as oracles for it. The TES parser oracle checks cell
by cell and reads the CSV with its own whole-text reader
(`read_rows_whole_text`), so it shares only number parsing with
`parse_tes`. The tree JSON oracle (`to_json_reference`) builds the
document as dicts and hands it to `json.dumps`; the tree JSON reader oracle
(`tet_from_json_whole`) decodes the whole document with `json.loads` first,
and shares only the member and record steps and the record conversions
with `tet_from_json`. The all-pairs label placement shares the library's
offset geometry (`_label_box` and `_OFFSETS`) and tie-breaks; it scores
`(x0, y0, x1, y1)` boxes with its own `intersection_area`, and leaves out
the library's grid and interval test.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys

from topictree import ingest
from topictree.ingest import CsvValidationError, ValidationReport
from topictree.layout import (
    _CHAR_WIDTH,
    _LINE_HEIGHT,
    _OFFSETS,
    COMPASS,
    CanvasSpec,
    _label_box,
)
from topictree.model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    require_int,
)
from topictree.render import _edge, _member, _params, _read, _topic

_MIN_TES_CHOICES = (0.2, 0.3, 0.4, 0.5, 0.6)


def random_instance(
    rng: random.Random, max_n: int = 12
) -> tuple[TemporalTopicProfile, TesMatrix, EvolutionParams]:
    """Random profile + matrix + params honoring all model invariants.

    TES values are quantized to tenths so threshold ties and equal-TES
    candidates occur often.
    """
    n = rng.randint(1, max_n)
    span = rng.randint(0, 4)
    records = [
        TopicRecord(
            id=f"t{i}",
            index=i,
            weight=rng.randint(0, 100) / 100,
            year=2000 + rng.randint(0, span),
            words=(f"w{i}",),
            label=chr(65 + i % 26) if rng.random() < 0.5 else None,
        )
        for i in range(n)
    ]
    records.sort(key=lambda t: (t.year, t.index))
    profile = TemporalTopicProfile(topics=tuple(records))

    columns: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if records[i].year != records[j].year and (tes := rng.randint(0, 10) / 10):
                columns[j].append((i, tes))
    matrix = TesMatrix(columns=tuple(tuple(column) for column in columns))

    params = EvolutionParams(
        min_tes=rng.choice(_MIN_TES_CHOICES),
        min_reborn=rng.randint(0, 3),
        min_dead=rng.randint(0, 3),
        threshold_mode=rng.choice(list(ThresholdMode)),
    )
    return profile, matrix, params


def crowded_instance(
    rng: random.Random,
) -> tuple[TemporalTopicProfile, TesMatrix, EvolutionParams]:
    """A profile that crowds the default canvas: 150-250 topics on at most 4
    years and at most 21 weight levels, labelled with mixed lengths (none, so
    the id is drawn; empty; short; long), with about 5% of the TES cells
    towards older years nonzero."""
    n = rng.randint(150, 250)
    years = rng.randint(1, 4)
    levels = rng.randint(2, 21)
    labels = (None, "", "x", "topic", "a longer topic label", "w" * 60)
    records = [
        TopicRecord(
            id=f"t{i}",
            index=i,
            weight=rng.randrange(levels) / (levels - 1),
            year=2000 + rng.randrange(years),
            words=(f"w{i}",),
            label=rng.choice(labels),
        )
        for i in range(n)
    ]
    records.sort(key=lambda t: (t.year, t.index))
    profile = TemporalTopicProfile(topics=tuple(records))
    columns = tuple(
        tuple(
            (i, rng.randint(1, 10) / 10)
            for i in range(j)
            if records[i].year < records[j].year and rng.random() < 0.05
        )
        for j in range(n)
    )
    return profile, TesMatrix(columns=columns), EvolutionParams()


class _Loud(int):
    """An integer that prints as a word: JSON must still write its digits."""

    def __format__(self, spec=""):
        return "loud"

    __repr__ = __str__ = __format__


def odd_tets() -> list[Tet]:
    """Trees whose JSON meets what the random trees never do: a None label,
    non-ASCII and astral text, quote, backslash, tab and ``</``, tiny and
    inexact weights, negative, 30-digit and subclassed integer years,
    exclusive mode, and a lone root-only topic."""
    topics = (
        TopicRecord(id="é", index=0, weight=1e-07, year=-5, words=("日本", "😀")),
        TopicRecord(id='say "hi"', index=1, weight=0.1, year=10**29, words=("back\\slash", "tab\there"), label="</svg>"),
        TopicRecord(id="t2", index=2, weight=1.0, year=_Loud(10**29 + 1), words=("w",), label="café 日本 😀"),
    )
    edges = (
        TetEdge(from_index=ROOT_INDEX, to_index=0, tes=1.0),
        TetEdge(from_index=0, to_index=1, tes=1e-07),
        TetEdge(from_index=1, to_index=2, tes=0.1),
    )
    params = EvolutionParams(min_tes=0.0, min_reborn=_Loud(3), threshold_mode=ThresholdMode.EXCLUSIVE)
    lone = TopicRecord(id="only", index=0, weight=0.5, year=2001, words=("w",))
    return [
        Tet(profile=TemporalTopicProfile(topics=topics), edges=edges, params=params),
        Tet(
            profile=TemporalTopicProfile(topics=(lone,)),
            edges=(TetEdge(from_index=ROOT_INDEX, to_index=0, tes=1.0),),
            params=EvolutionParams(),
        ),
    ]


def tes_matrix(columns) -> TesMatrix:
    """The matrix of dense columns: column j holds the TES of positions 0..j-1, zeros included."""
    for j, column in enumerate(columns):
        assert len(column) == j, f"column {j} must hold {j} values, got {len(column)}"
    return TesMatrix(columns=tuple(tuple((i, tes) for i, tes in enumerate(column) if tes) for column in columns))


def dense(matrix: TesMatrix) -> list[list[float]]:
    """The dense columns of a matrix: every cell that is not listed holds 0.0."""
    columns = [[0.0] * j for j in range(matrix.n)]
    for j, column in enumerate(matrix.columns):
        for i, tes in column:
            columns[j][i] = tes
    return columns


def independent_candidates(
    profile: TemporalTopicProfile, columns: list[list[float]], params: EvolutionParams, v: int
) -> list[tuple[int, float]]:
    """Threshold scan over every older cell of the dense `columns` (see :func:`dense`),
    re-implemented from the contract and sorted by the candidate key."""
    v_pos = profile.position_of(v)
    v_year = profile.year_of(v)
    found = []
    for pos, topic in enumerate(profile.topics):
        if topic.year < v_year:
            tes = columns[v_pos][pos]
            if params.threshold_mode is ThresholdMode.INCLUSIVE:
                passes = tes >= params.min_tes
            else:
                passes = tes > params.min_tes
            if passes:
                found.append((topic.index, tes))
    found.sort(key=lambda item: (item[1], profile.year_of(item[0]), -item[0]), reverse=True)
    return found


def read_rows_whole_text(data: bytes) -> list[list[str]]:
    """CSV reader oracle: decode all of `data`, read every row of the text,
    then drop the trailing empty rows. Raises `CsvValidationError` with one
    issue: `BadEncoding` where the decoding fails, else `BadCsv` at the
    first unreadable row."""
    report = ValidationReport()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1  # the bytes after a BOM, as exc.start counts
        report.error(line, None, ingest.BAD_ENCODING, f"input is not valid UTF-8 at byte {exc.start}")
        raise CsvValidationError(report) from None
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        report.error(reader.line_num, None, ingest.BAD_CSV, f"unreadable CSV: {exc}")
        raise CsvValidationError(report) from None
    while rows and rows[-1] == []:
        rows.pop()
    return rows


def rows_or_issues(read, data) -> list:
    """The rows `read` gives for `data` (bytes or a binary file), or the errors of the `CsvValidationError` it raises."""
    try:
        return list(read(data))
    except CsvValidationError as exc:
        return exc.report.errors


def parse_tes_dense(
    data: bytes, profile: TemporalTopicProfile, lenient: bool = False
) -> tuple[tuple[tuple[float, ...], ...], ValidationReport]:
    """Cell-by-cell TES parser oracle: the same checks and issues as `parse_tes`,
    in the same order, returning dense columns (zeros included) instead of a matrix."""
    rows = read_rows_whole_text(data)
    report = ValidationReport()
    n = len(profile)
    if len(rows) != n:
        report.error(
            min(len(rows), n) + 1, None, ingest.DIMENSION_MISMATCH, f"expected {n} rows, found {len(rows)}"
        )
        raise CsvValidationError(report)
    for i, row in enumerate(rows):
        if len(row) != n:
            report.error(i + 1, None, ingest.DIMENSION_MISMATCH, f"expected {n} columns, found {len(row)}")
    if not report.ok:
        raise CsvValidationError(report)

    years = [topic.year for topic in profile.topics]
    columns: list[list[float]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        rownum = i + 1
        for j in range(i):
            if row[j].strip():
                report.warning(rownum, j + 1, ingest.BELOW_DIAGONAL_IGNORED, "value below the diagonal is ignored")
        cell = row[i].strip()
        value = ingest._parse_decimal(cell) if cell else 1.0
        if value is None:
            report.error(rownum, rownum, ingest.BAD_NUMBER, f"not a plain decimal: {cell!r}")
        elif abs(value - 1.0) > ingest.DIAGONAL_TOLERANCE:
            if lenient:
                report.warning(rownum, rownum, ingest.DIAGONAL_NOT_ONE, f"diagonal entry {value} coerced to 1")
            else:
                report.error(rownum, rownum, ingest.DIAGONAL_NOT_ONE, f"diagonal entry must be 1, got {value}")
        for j in range(i + 1, n):
            cell = row[j].strip()
            colnum = j + 1
            if not cell:
                report.error(rownum, colnum, ingest.BLANK_ABOVE_DIAGONAL, "blank cell above the diagonal")
                continue
            value = ingest._parse_decimal(cell)
            if value is None:
                report.error(rownum, colnum, ingest.BAD_NUMBER, f"not a plain decimal: {cell!r}")
                continue
            if not 0.0 <= value <= 1.0:
                report.error(rownum, colnum, ingest.VALUE_OUT_OF_RANGE, f"TES must be in [0, 1], got {value}")
                continue
            if years[i] == years[j] and value != 0.0:
                if not lenient:
                    report.error(
                        rownum,
                        colnum,
                        ingest.CONTEMPORARY_NONZERO,
                        f"TES between contemporary topics (year {years[i]}) must be 0, got {value}",
                    )
                    continue
                report.warning(
                    rownum, colnum, ingest.CONTEMPORARY_NONZERO, f"contemporary TES {value} coerced to 0"
                )
                value = 0.0
            columns[j].append(value)

    if not report.ok:
        raise CsvValidationError(report)
    return tuple(tuple(column) for column in columns), report


def to_json_reference(tet: Tet) -> str:
    """Tree JSON oracle: the document as dicts in the fixed key order, written by
    `json.dumps(doc, indent=2)` plus a final newline."""
    doc = {
        "params": {
            "min_tes": tet.params.min_tes,
            "min_reborn": tet.params.min_reborn,
            "min_dead": tet.params.min_dead,
            "threshold_mode": tet.params.threshold_mode.value,
        },
        "latest_year": tet.profile.latest_year,
        "nodes": [
            {
                "id": topic.id,
                "index": topic.index,
                "label": topic.label,
                "year": topic.year,
                "weight": topic.weight,
                "words": list(topic.words),
                "emerging_state": tet.states[topic.index][0].value,
                "evolving_state": tet.states[topic.index][1].value,
            }
            for topic in tet.profile.topics
        ],
        "edges": [
            {"from_index": e.from_index, "to_index": e.to_index, "tes": e.tes} for e in tet.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def tet_from_json_whole(text: str) -> Tet:
    """Tree JSON reader oracle: `json.loads` on the whole text, then params,
    nodes, edges, `latest_year`, the tree and the stored states, checked in
    that order, as `tet_from_json` checks them in any member order. Members
    are read through the library's member step `_member`, and records and
    params become values through its record step `_read`, with `_topic`,
    `_edge` and `_params`."""
    doc = json.loads(text)
    params = _read(_params, _member(doc, "params"), "params")
    topics = [_read(_topic, node, "nodes", i)[0] for i, node in enumerate(_member(doc, "nodes", array=True))]
    edges = [_read(_edge, e, "edges", k) for k, e in enumerate(_member(doc, "edges", array=True))]
    latest_year = require_int(_member(doc, "latest_year"), "latest_year")
    tet = Tet(profile=TemporalTopicProfile(topics=tuple(topics)), edges=tuple(edges), params=params)
    if latest_year != tet.profile.latest_year:
        raise ValueError(f"latest_year {latest_year} does not match profile ({tet.profile.latest_year})")
    for i, (node, topic) in enumerate(zip(doc["nodes"], topics)):
        missing = [key for key in ("emerging_state", "evolving_state") if key not in node]
        if missing:
            raise ValueError(f"malformed TET JSON: nodes[{i}] has no key {missing[0]!r}")
        stored = (node["emerging_state"], node["evolving_state"])
        derived = tuple(state.value for state in tet.states[topic.index])
        if stored != derived:
            raise ValueError(f"topic {topic.index} is stored as {stored} but the tree makes it {derived}")
    return tet


def independent_ancestors(edge_pairs: set[tuple[int, int]], u: int) -> set[int]:
    """Ancestor closure by fixpoint iteration over (from, to) pairs; root excluded."""
    anc: set[int] = set()
    changed = True
    while changed:
        changed = False
        for a, b in edge_pairs:
            if a < 0:
                continue
            if (b == u or b in anc) and a not in anc:
                anc.add(a)
                changed = True
    return anc


def ancestor_masks(ancestor_sets: dict[int, set[int]]) -> dict[int, int]:
    """The same ancestor sets as bitmasks over topic indices, as `prune_candidates` takes them."""
    return {u: sum(1 << a for a in anc) for u, anc in ancestor_sets.items()}


def oracle_retained(
    candidates: list[tuple[int, float]],
    ancestor_sets: dict[int, set[int]],
    keys: dict[int, tuple],
) -> list[int]:
    """Brute-force pruning oracle: enumerate every subset of the candidates,
    keep the antichains in which every excluded candidate is related to an
    included one of strictly greater key, and return the subset whose
    descending key sequence is lexicographically maximum.

    ``candidates`` must be sorted descending by key; ``keys[u]`` is the full
    ordering key of candidate ``u``.
    """
    k = len(candidates)
    related = [[False] * k for _ in range(k)]
    for i, (u, _) in enumerate(candidates):
        for j, (w, _) in enumerate(candidates):
            if i != j and (w in ancestor_sets[u] or u in ancestor_sets[w]):
                related[i][j] = True

    best_keys: tuple | None = None
    best_members: list[int] = []
    for mask in range(1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if any(
            related[members[a]][members[b]]
            for a in range(len(members))
            for b in range(a + 1, len(members))
        ):
            continue
        justified = True
        for c in range(k):
            if mask >> c & 1:
                continue
            if not any((mask >> a & 1) and related[a][c] for a in range(c)):
                justified = False
                break
        if not justified:
            continue
        key_seq = tuple(keys[candidates[i][0]] for i in members)
        if best_keys is None or key_seq > best_keys:
            best_keys = key_seq
            best_members = members
    if best_keys is None:
        raise AssertionError("no justified antichain found (empty set should qualify when k == 0)")
    return [candidates[i][0] for i in best_members]


def candidate_sort_key(profile: TemporalTopicProfile, u: int, tes: float) -> tuple:
    return (tes, profile.year_of(u), -u)


def structural_violations(tet, matrix: TesMatrix, params: EvolutionParams) -> list[str]:
    """Independent audit of a built tree: year ordering, rootedness, antichain
    parents, justified pruning and TES/matrix agreement. Empty list = clean."""
    profile = tet.profile
    columns = dense(matrix)
    problems: list[str] = []
    pairs = {(e.from_index, e.to_index) for e in tet.edges}
    parents: dict[int, list[int]] = {t.index: [] for t in profile.topics}
    for e in tet.edges:
        if e.from_index >= 0:
            parents[e.to_index].append(e.from_index)
            if profile.year_of(e.from_index) >= profile.year_of(e.to_index):
                problems.append(f"edge {e.from_index}->{e.to_index} does not advance in time")
            expected = columns[profile.position_of(e.to_index)][profile.position_of(e.from_index)]
            if e.tes != expected:
                problems.append(f"edge {e.from_index}->{e.to_index} carries tes {e.tes} != matrix {expected}")

    for t in profile.topics:
        has_root = (-1, t.index) in pairs
        if has_root == bool(parents[t.index]):
            problems.append(f"topic {t.index}: root edge present={has_root} with {len(parents[t.index])} parents")

    for t in profile.topics:
        v = t.index
        anc = {u: independent_ancestors(pairs, u) for u in parents[v]}
        for i, a in enumerate(parents[v]):
            for b in parents[v][i + 1 :]:
                if a in anc[b] or b in anc[a]:
                    problems.append(f"topic {v}: parents {a} and {b} are ancestor-related")

        candidates = independent_candidates(profile, columns, params, v)
        retained = set(parents[v])
        if not retained.issubset({u for u, _ in candidates}):
            problems.append(f"topic {v}: parent outside the candidate set")
        cand_anc = {u: independent_ancestors(pairs, u) for u, _ in candidates}
        for u, tes in candidates:
            if u in retained:
                continue
            key_u = candidate_sort_key(profile, u, tes)
            justified = any(
                candidate_sort_key(profile, r, r_tes) > key_u
                and (r in cand_anc[u] or u in cand_anc[r])
                for r, r_tes in candidates
                if r in retained
            )
            if not justified:
                problems.append(f"topic {v}: candidate {u} was dropped without justification")
    return problems


#: A box as ``(x0, y0, x1, y1)``, as `place_labels` returns it.
Box = tuple[float, float, float, float]


def intersection_area(a: Box, b: Box) -> float:
    dx = min(a[2], b[2]) - max(a[0], b[0])
    dy = min(a[3], b[3]) - max(a[1], b[1])
    if dx <= 0 or dy <= 0:
        return 0.0
    return dx * dy


def centered(cx: float, cy: float, w: float, h: float) -> Box:
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def intersects(a: Box, b: Box) -> bool:
    """Whether two boxes overlap with positive area."""
    return intersection_area(a, b) > 0.0


def label_direction(node: tuple[float, float], box: Box) -> str:
    """The compass direction of a label box from its node: the signs of the
    box centre minus the node, looked up in `_OFFSETS`.

    Along a stepped axis the centre lies more than the label gap from the
    node; along the other it is the node's coordinate up to rounding.
    """
    dx = (box[0] + box[2]) / 2 - node[0]
    dy = (box[1] + box[3]) / 2 - node[1]
    signs = ((dx > 1) - (dx < -1), (dy > 1) - (dy < -1))
    return next(name for name, (sx, sy, _) in _OFFSETS.items() if (sx, sy) == signs)


def place_labels_bruteforce(
    positions: dict[int, tuple[float, float]], labels: dict[int, str]
) -> dict[int, Box]:
    """Label placement oracle: scores every compass offset against every glyph
    and every placed label, with the library's box geometry and tie-breaks."""
    glyph_radius = CanvasSpec.glyph_radius
    glyph_boxes = [
        centered(x, y, 2 * glyph_radius, 2 * glyph_radius) for x, y in positions.values()
    ]
    placed: dict[int, Box] = {}
    for v in sorted(labels):
        x, y = positions[v]
        w, h = max(1, len(labels[v])) * _CHAR_WIDTH, _LINE_HEIGHT
        best: tuple[float, Box] | None = None
        for direction in COMPASS:
            sx, sy, share = _OFFSETS[direction]
            box = _label_box(x, y, w, h, sx, sy, glyph_radius * share)
            overlap = sum(intersection_area(box, g) for g in glyph_boxes)
            overlap += sum(intersection_area(box, a) for a in placed.values())
            if best is None or overlap < best[0]:
                best = (overlap, box)
            if overlap == 0.0:
                break
        assert best is not None
        placed[v] = best[1]
    return placed


def fresh_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports
    topictree from wherever this process does. -S keeps site's .pth hooks
    from preloading third-party modules."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_modules(code: str) -> set[str]:
    """The modules loaded once `code` has run in a fresh interpreter (see `fresh_python`)."""
    return set(fresh_python(f"{code}\nimport sys; print(*sys.modules)").split())
