"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here: edge/state checks are exact set
equality, randomized properties demand zero violations over their full
sample counts, and the fuzz run requires zero crashes.
"""

import json
import math
import random
import string
import xml.etree.ElementTree as ET

import pytest

from dot_checker import check_dot
from helpers import (
    ancestor_masks,
    dense,
    independent_ancestors,
    independent_candidates,
    intersects,
    oracle_retained,
    parse_tes_dense,
    random_instance,
    read_rows_whole_text,
    rows_or_issues,
    structural_violations,
    tes_matrix,
)
from topictree import ingest
from topictree.builder import build_tet, candidate_parents, prune_candidates
from topictree.cli import main
from topictree.ingest import CsvValidationError, parse_profile, parse_tes, tes_to_csv
from topictree.layout import CanvasSpec, compute_positions, place_labels
from topictree.model import (
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    TetEdge,
    TopicRecord,
)
from topictree.render import tet_from_json, to_dot, to_json, to_svg

A, B, C, D, E, F, G, H, I, J, K = range(11)

EXPECTED_EXCLUSIVE_EDGES = {
    (A, F, 0.9),
    (A, H, 0.7),
    (B, C, 0.3),
    (B, D, 0.5),
    (D, F, 0.9),
    (E, G, 0.3),
    (G, I, 0.75),
    (H, J, 0.9),
    (H, K, 0.9),
}

EXPECTED_STATES = {
    A: (EmergingState.BORN, EvolvingState.SPLIT),
    B: (EmergingState.BORN, EvolvingState.SPLIT),
    C: (EmergingState.FLOURISHING, EvolvingState.DEAD),
    D: (EmergingState.FLOURISHING, EvolvingState.FLOURISHING),
    E: (EmergingState.BORN, EvolvingState.FLOURISHING),
    F: (EmergingState.FUSED, EvolvingState.DEAD),
    G: (EmergingState.FLOURISHING, EvolvingState.FLOURISHING),
    H: (EmergingState.REBORN, EvolvingState.SPLIT),
    I: (EmergingState.FLOURISHING, EvolvingState.FLOURISHING),
    J: (EmergingState.FLOURISHING, EvolvingState.FLOURISHING),
    K: (EmergingState.FLOURISHING, EvolvingState.FLOURISHING),
}

SVG_NS = "{http://www.w3.org/2000/svg}"


def non_root_edges(tet):
    return {(e.from_index, e.to_index, e.tes) for e in tet.edges if not e.is_root_edge}


def test_criterion_1_fixture_edges(tet_exclusive, tet_inclusive):
    assert non_root_edges(tet_exclusive) == EXPECTED_EXCLUSIVE_EDGES
    assert non_root_edges(tet_inclusive) == EXPECTED_EXCLUSIVE_EDGES | {(E, F, 0.2)}
    print("ACCEPTANCE 1: PASS - fixture edge sets exact in both threshold modes")


def test_criterion_2_fixture_states(tet_exclusive):
    assert tet_exclusive.states == EXPECTED_STATES
    print("ACCEPTANCE 2: PASS - fixture state assignments exact")


def test_criterion_3_pruning_oracle():
    rng = random.Random(20260809)
    instances = 1000
    for _ in range(instances):
        profile, matrix, params = random_instance(rng, max_n=12)
        edges = []
        for topic in profile.topics:
            cands = independent_candidates(profile, dense(matrix), params, topic.index)
            assert cands == candidate_parents(topic.index, matrix, profile, params)
            pairs = {(e.from_index, e.to_index) for e in edges}
            anc = {u: independent_ancestors(pairs, u) for u, _ in cands}
            keys = {u: (tes, profile.year_of(u), -u) for u, tes in cands}
            expected = oracle_retained(cands, anc, keys)
            greedy = [u for u, _ in prune_candidates(cands, ancestor_masks(anc))]
            assert greedy == expected, (
                f"greedy {greedy} != oracle {expected} for topic {topic.index}"
            )
            if expected:
                chosen = set(expected)
                edges.extend(TetEdge(u, topic.index, tes) for u, tes in cands if u in chosen)
            else:
                edges.append(TetEdge(-1, topic.index, 1.0))
    print(f"ACCEPTANCE 3: PASS - greedy pruning equals brute-force oracle on {instances} instances")


def test_criterion_4_structural_properties():
    rng = random.Random(424242)
    instances = 1000
    for _ in range(instances):
        profile, matrix, params = random_instance(rng, max_n=12)
        tet = build_tet(profile, matrix, params)
        problems = structural_violations(tet, matrix, params)
        assert problems == [], problems
        # independent acyclicity check: peel nodes with no remaining parents
        remaining = {(e.from_index, e.to_index) for e in tet.edges if not e.is_root_edge}
        nodes = {t.index for t in profile.topics}
        while nodes:
            free = {v for v in nodes if not any(b == v for _, b in remaining)}
            assert free, "cycle detected"
            nodes -= free
            remaining = {(a, b) for a, b in remaining if a not in free}
    print(f"ACCEPTANCE 4: PASS - structural invariants hold on {instances} instances")


def test_criterion_5_classification_properties():
    rng = random.Random(5150)
    instances = 1000
    for _ in range(instances):
        profile, matrix, params = random_instance(rng, max_n=12)
        tet = build_tet(profile, matrix, params)
        assert set(tet.states) == {t.index for t in profile.topics}
        for v, (emerging, evolving) in tet.states.items():
            assert isinstance(emerging, EmergingState) and isinstance(evolving, EvolvingState)
            if tet.profile.year_of(v) == tet.profile.latest_year:
                assert evolving is not EvolvingState.DEAD

    # strict-inequality gates, reconstructed parametrically
    def pair_tet(gap, min_reborn, min_dead):
        topics = (
            TopicRecord(id="old", index=0, weight=0.5, year=2000, words=("w",)),
            TopicRecord(id="new", index=1, weight=0.5, year=2000 + gap, words=("w",)),
        )
        profile = TemporalTopicProfile(topics=topics)
        matrix = tes_matrix(((), (0.9,)))
        params = EvolutionParams(min_reborn=min_reborn, min_dead=min_dead)
        return build_tet(profile, matrix, params)

    # gap 3 > min_reborn 2: reborn
    assert pair_tet(3, 2, 1).states[1][0] is EmergingState.REBORN
    # gap 2 == min_reborn 2: not reborn
    assert pair_tet(2, 2, 1).states[1][0] is EmergingState.FLOURISHING

    def lone_gap_tet(gap, min_dead):
        topics = (
            TopicRecord(id="old", index=0, weight=0.5, year=2000, words=("w",)),
            TopicRecord(id="new", index=1, weight=0.5, year=2000 + gap, words=("w",)),
        )
        profile = TemporalTopicProfile(topics=topics)
        matrix = tes_matrix(((), (0.0,)))  # no edge: both childless
        params = EvolutionParams(min_dead=min_dead)
        return build_tet(profile, matrix, params)

    # childless with trailing gap 2 > min_dead 1: dead
    assert lone_gap_tet(2, 1).states[0][1] is EvolvingState.DEAD
    # trailing gap 1, min_dead 1: 1 > 1 is false, flourishing
    assert lone_gap_tet(1, 1).states[0][1] is EvolvingState.FLOURISHING

    print(f"ACCEPTANCE 5: PASS - classification properties on {instances} instances + strict gates")


PROFILE_CORRUPTIONS = [
    (ingest.MISSING_HEADER, lambda text: text.replace("id,index,label,weight,year,words", "id,index,label,weight,year")),
    (ingest.DUPLICATE_INDEX, lambda text: text.replace("t2,1,", "t2,0,")),
    (ingest.NON_CONTIGUOUS_INDEX, lambda text: text.replace("t11,10,", "t11,12,")),
    (ingest.WEIGHT_OUT_OF_RANGE, lambda text: text.replace("0.75", "1.75")),
    (ingest.BAD_YEAR, lambda text: text.replace("t1,0,A,0.75,2001", "t1,0,A,0.75,20x1")),
    (ingest.EMPTY_WORDS, lambda text: text.replace("\"['opinion', 'computer', 'lab', 'user', 'human']\"", "[]")),
    (ingest.DUPLICATE_ID, lambda text: text.replace("t2,1,", "t1,1,")),
    (ingest.BAD_CHARACTER, lambda text: text.replace("t1,0,A,", "t1,0,A\x01,")),
    (ingest.EMPTY_ID, lambda text: text.replace("t1,0,A,", ",0,A,")),
    (ingest.DUPLICATE_HEADER, lambda text: text.replace("year,words", "year,words,year", 1)),
    # Integers longer than int() accepts from a string (4300 digits by default).
    (ingest.BAD_INDEX, lambda text: text.replace("t1,0,A,", "t1," + "1" * 5000 + ",A,")),
    (ingest.BAD_YEAR, lambda text: text.replace("t1,0,A,0.75,2001", "t1,0,A,0.75," + "2" * 5000)),
]

MATRIX_CORRUPTIONS = [
    (ingest.DIMENSION_MISMATCH, lambda text: "\n".join(text.splitlines()[:-1]) + "\n"),
    (ingest.VALUE_OUT_OF_RANGE, lambda text: text.replace("0.75", "1.75")),
    (ingest.CONTEMPORARY_NONZERO, lambda text: text.replace("1,0,", "1,0.3,", 1)),
    (ingest.DIAGONAL_NOT_ONE, lambda text: text.replace(",,1,0,0,", ",,0.9,0,0,", 1)),
    (ingest.BLANK_ABOVE_DIAGONAL, lambda text: text.replace("1,0,0.1,", "1,,0.1,", 1)),
]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        if not out:
            break
        pos = rng.randrange(len(out))
        if op == 0:
            out[pos] = rng.randrange(256)
        elif op == 1:
            out.insert(pos, rng.randrange(256))
        else:
            del out[pos]
    return bytes(out)


def _fuzz_input(rng: random.Random, profile_csv: bytes, tes_csv: bytes) -> bytes:
    kind = rng.randrange(5)
    if kind == 0:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
    if kind == 1:
        alphabet = string.printable
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 300))).encode()
    if kind == 2:
        rows = rng.randrange(0, 8)
        cols = rng.randrange(0, 8)
        cells = [",".join(rng.choice(["", "0.5", "1", "x", "-3", "0.9999"]) for _ in range(cols)) for _ in range(rows)]
        return "\n".join(cells).encode()
    if kind == 3:
        return _mutate(rng, profile_csv)
    return _mutate(rng, tes_csv)


def test_criterion_6_ingestion(profile_csv, tes_csv, fixture_profile):
    profile, profile_report = parse_profile(profile_csv)
    matrix, matrix_report = parse_tes(tes_csv, profile)
    assert not profile_report.errors and not profile_report.warnings
    assert not matrix_report.errors and not matrix_report.warnings

    profile_text = profile_csv.decode()
    for code, corrupt in PROFILE_CORRUPTIONS:
        mutated = corrupt(profile_text)
        assert mutated != profile_text, f"corruption for {code} did not apply"
        with pytest.raises(CsvValidationError) as exc:
            parse_profile(mutated.encode())
        assert {i.code for i in exc.value.report.errors} == {code}

    tes_text = tes_csv.decode()
    for code, corrupt in MATRIX_CORRUPTIONS:
        mutated = corrupt(tes_text)
        assert mutated != tes_text, f"corruption for {code} did not apply"
        with pytest.raises(CsvValidationError) as exc:
            parse_tes(mutated.encode(), profile)
        assert {i.code for i in exc.value.report.errors} == {code}

    rng = random.Random(660066)
    runs = 10_000
    for _ in range(runs):
        data = _fuzz_input(rng, profile_csv, tes_csv)
        for attempt in ("profile", "tes"):
            try:
                if attempt == "profile":
                    parse_profile(data)
                else:
                    parse_tes(data, fixture_profile, lenient=rng.random() < 0.5)
            except CsvValidationError as exc:
                assert exc.report.errors
                for issue in exc.report.errors:
                    assert issue.code and issue.message
                    assert issue.row is not None or issue.column is not None
    print(f"ACCEPTANCE 6: PASS - fixtures parse, 13 error codes triggered, {runs}-input fuzz clean")


def test_csv_rows_match_whole_text_reader(profile_csv, tes_csv):
    rng = random.Random(660066)  # the inputs test_criterion_6_ingestion feeds to both parsers
    runs = 10_000
    for _ in range(runs):
        data = _fuzz_input(rng, profile_csv, tes_csv)
        rng.random()
        assert rows_or_issues(ingest._csv_rows, data) == rows_or_issues(read_rows_whole_text, data)
    print(f"ACCEPTANCE 6: PASS - the streamed row reader equals the whole-text reader on {runs} inputs")


def _parse_outcome(parse, data: bytes, profile, lenient: bool):
    """(matrix or None, errors, warnings) of one parse; `parse_tes_dense`'s columns become a matrix."""
    try:
        matrix, report = parse(data, profile, lenient=lenient)
    except CsvValidationError as exc:
        return None, exc.report.errors, exc.report.warnings
    if parse is parse_tes_dense:
        matrix = tes_matrix(matrix)
    return matrix, report.errors, report.warnings


#: Cell texts a mutation writes: zero spellings, padded and bad numbers, blanks.
CELL_TEXTS = ("0", "0.0", " 0 ", "-0", "0.", "\t0.5", "0.3 ", "1", " 1.0", "x", "1.5", "", "  ", "1e-1")


def _mutate_cells(rng: random.Random, profile, matrix) -> bytes:
    """The CSV of `matrix` with one to four cells rewritten: padded with
    whitespace, spelled differently, made non-blank below the diagonal,
    nonzero between contemporaries or blank above the diagonal."""
    rows = [line.split(",") for line in tes_to_csv(matrix).decode().splitlines()]
    n = len(rows)
    years = [t.year for t in profile.topics]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(4)
        if kind == 0:
            rows[i][j] = " " * rng.randint(0, 2) + rows[i][j] + "\t" * rng.randint(0, 1)
        elif kind == 1 and j > i and years[i] == years[j]:
            rows[i][j] = rng.choice(("0.3", "1", " 0.0 ", "-0"))
        else:
            rows[i][j] = rng.choice(CELL_TEXTS)
    return "".join(",".join(row) + "\n" for row in rows).encode()


def test_parse_tes_matches_cell_by_cell_oracle(profile_csv, tes_csv, fixture_profile):
    rng = random.Random(660066)  # the same input stream as test_criterion_6_ingestion
    runs = 10_000
    for _ in range(runs):
        data = _fuzz_input(rng, profile_csv, tes_csv)
        rng.random()
        for lenient in (False, True):
            expected = _parse_outcome(parse_tes_dense, data, fixture_profile, lenient)
            assert _parse_outcome(parse_tes, data, fixture_profile, lenient) == expected

    rng = random.Random(7007)
    instances = 2000
    for _ in range(instances):
        profile, matrix, _ = random_instance(rng, max_n=16)
        data = _mutate_cells(rng, profile, matrix)
        for lenient in (False, True):
            expected = _parse_outcome(parse_tes_dense, data, profile, lenient)
            assert _parse_outcome(parse_tes, data, profile, lenient) == expected
    print(f"ACCEPTANCE 6: PASS - parse_tes equals the cell-by-cell oracle on {runs} + {instances} inputs")


#: Values a tree-document mutation puts in place of a leaf or subtree.
JSON_POISON = (None, True, False, 2**70, -(2**70), math.nan, math.inf, -math.inf, "", "0.5", "7", "\x01", [], {})


def _json_slots(node, out: list) -> list:
    """Every (container, key) pair of a JSON document, parents before children."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _json_slots(child, out)
    return out


def _mutate_tree(rng: random.Random, doc: dict) -> dict:
    """Replace or drop one to three leaves or subtrees of `doc`, in place."""
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(_json_slots(doc, []))
        if rng.random() < 0.25:
            del container[key]
        else:
            poison = rng.choice(JSON_POISON)
            container[key] = type(poison)() if isinstance(poison, (list, dict)) else poison
    return doc


def test_criterion_6_tree_json_fuzz(tet_exclusive, tmp_path, capsys):
    base = to_json(tet_exclusive)
    path = tmp_path / "tet.json"
    rng = random.Random(770077)
    runs = 600
    rendered = 0
    for _ in range(runs):
        path.write_text(json.dumps(_mutate_tree(rng, json.loads(base))))
        for fmt in ("svg", "dot"):
            code = main(["render", "--tet", str(path), "--format", fmt])
            out = capsys.readouterr().out
            assert code in (0, 1)
            if code == 0:
                rendered += 1
                if fmt == "svg":
                    ET.fromstring(out)
                else:
                    check_dot(out)
    assert rendered
    print(f"ACCEPTANCE 6: PASS - {runs}-document tree JSON fuzz clean, {rendered} renders well-formed")


def test_criterion_7_output_contracts(tet_exclusive, tet_inclusive):
    svg = to_svg(tet_exclusive)
    root = ET.fromstring(svg)  # well-formedness
    nodes = [g for g in root.iter(f"{SVG_NS}g") if g.get("class") == "node"]
    edges = [p for p in root.iter(f"{SVG_NS}path") if p.get("class") == "edge"]
    assert len(nodes) == 11 and len(edges) == 9
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert all(str(year) in texts for year in range(2001, 2006))
    assert "Evolution states" in texts and "Evolutionary strength" in texts

    inclusive_root = ET.fromstring(to_svg(tet_inclusive))
    assert len([p for p in inclusive_root.iter(f"{SVG_NS}path") if p.get("class") == "edge"]) == 10

    check_dot(to_dot(tet_exclusive))

    for tet in (tet_exclusive, tet_inclusive):
        assert tet_from_json(to_json(tet)) == tet

    assert to_svg(tet_exclusive) == svg
    assert to_dot(tet_exclusive) == to_dot(tet_exclusive)
    assert to_json(tet_exclusive) == to_json(tet_exclusive)
    print("ACCEPTANCE 7: PASS - SVG/DOT/JSON contracts and byte determinism")


def test_criterion_8_label_placement(tet_exclusive):
    positions = compute_positions(tet_exclusive, CanvasSpec())
    labels = {t.index: t.display_label for t in tet_exclusive.profile.topics}
    boxes = list(place_labels(positions, labels).values())
    overlaps = [
        (a, b)
        for i, a in enumerate(boxes)
        for b in boxes[i + 1 :]
        if intersects(a, b)
    ]
    assert overlaps == []
    print("ACCEPTANCE 8: PASS - zero overlapping label boxes on the fixture")
