"""Shared test utilities: random instances and independent re-implementations.

The re-implementations here (candidate scan, ancestor closure, brute-force
antichain oracle) deliberately avoid the library's code paths so they can
serve as oracles for it. The all-pairs label placement shares the library's
box geometry and tie-breaks and leaves out only its spatial grid.
"""

from __future__ import annotations

import random

from topictree.layout import (
    _CHAR_WIDTH,
    _LINE_HEIGHT,
    COMPASS,
    CanvasSpec,
    LabelAnchor,
    Rect,
    _direction_box,
)
from topictree.model import (
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    ThresholdMode,
    TopicRecord,
)

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

    columns: list[list[float]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            contemporary = records[i].year == records[j].year
            columns[j].append(0.0 if contemporary else rng.randint(0, 10) / 10)
    matrix = TesMatrix(columns=tuple(tuple(column) for column in columns))

    params = EvolutionParams(
        min_tes=rng.choice(_MIN_TES_CHOICES),
        min_reborn=rng.randint(0, 3),
        min_dead=rng.randint(0, 3),
        threshold_mode=rng.choice(list(ThresholdMode)),
    )
    return profile, matrix, params


def independent_candidates(
    profile: TemporalTopicProfile, matrix: TesMatrix, params: EvolutionParams, v: int
) -> list[tuple[int, float]]:
    """Threshold scan re-implemented from the contract, sorted by the candidate key."""
    v_pos = profile.position_of(v)
    v_year = profile.year_of(v)
    found = []
    for pos, topic in enumerate(profile.topics):
        if topic.year < v_year:
            tes = matrix.columns[v_pos][pos]
            if params.threshold_mode is ThresholdMode.INCLUSIVE:
                passes = tes >= params.min_tes
            else:
                passes = tes > params.min_tes
            if passes:
                found.append((topic.index, tes))
    found.sort(key=lambda item: (item[1], profile.year_of(item[0]), -item[0]), reverse=True)
    return found


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
    problems: list[str] = []
    pairs = {(e.from_index, e.to_index) for e in tet.edges}
    parents: dict[int, list[int]] = {t.index: [] for t in profile.topics}
    for e in tet.edges:
        if e.from_index >= 0:
            parents[e.to_index].append(e.from_index)
            if profile.year_of(e.from_index) >= profile.year_of(e.to_index):
                problems.append(f"edge {e.from_index}->{e.to_index} does not advance in time")
            expected = matrix.columns[profile.position_of(e.to_index)][profile.position_of(e.from_index)]
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

        candidates = independent_candidates(profile, matrix, params, v)
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


def intersects(a: Rect, b: Rect) -> bool:
    """Whether two boxes overlap with positive area."""
    return a.intersection_area(b) > 0.0


def place_labels_bruteforce(
    positions: dict[int, tuple[float, float]], labels: dict[int, str]
) -> dict[int, LabelAnchor]:
    """Label placement oracle: scores every compass offset against every glyph
    and every placed label, with the library's box geometry and tie-breaks."""
    glyph_radius = CanvasSpec.glyph_radius
    glyph_boxes = [
        Rect.centered(x, y, 2 * glyph_radius, 2 * glyph_radius) for x, y in positions.values()
    ]
    placed: dict[int, LabelAnchor] = {}
    for v in sorted(labels):
        x, y = positions[v]
        w, h = max(1, len(labels[v])) * _CHAR_WIDTH, _LINE_HEIGHT
        best: tuple[float, str, Rect] | None = None
        for direction in COMPASS:
            box = _direction_box(direction, x, y, w, h, glyph_radius)
            overlap = sum(box.intersection_area(g) for g in glyph_boxes)
            overlap += sum(box.intersection_area(a.box) for a in placed.values())
            if best is None or overlap < best[0]:
                best = (overlap, direction, box)
            if overlap == 0.0:
                break
        assert best is not None
        placed[v] = LabelAnchor(direction=best[1], box=best[2])
    return placed
