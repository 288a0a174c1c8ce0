"""Topic evolution tree construction.

Topics are processed in ascending (year, index) order. For each topic the
candidate parents are the strictly older topics whose TES passes the
``min_tes`` gate; candidates are then pruned so that no two retained parents
lie on the same evolutionary pathway, keeping for each pathway the candidate
with the strongest claim. Parentless topics attach to the implicit root.

The retained set is the greedy maximum-key antichain: scanning candidates by
descending (tes, year, -index), a candidate survives unless it is an ancestor
or descendant of one already accepted. Pairwise elimination alone is not
confluent in ancestor chains, so this canonical order defines the result.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from operator import attrgetter, itemgetter

from .model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ancestor_mask,
    require_type,
)


def candidate_parents(
    v: int,
    matrix: TesMatrix,
    profile: TemporalTopicProfile,
    params: EvolutionParams,
) -> list[tuple[int, float]]:
    """All admissible parents of topic `v`, strongest first.

    A topic `u` is admissible when it is strictly older than `v` and its TES
    towards `v` passes the ``min_tes`` gate (inclusive or exclusive per
    ``params.threshold_mode``). Ties in TES are broken by later year, then by
    lower index, giving a deterministic total order.

    Topics are sorted by (year, index), so the strictly older ones are a
    prefix of the profile: only the listed cells of `v`'s column in that
    prefix are scanned. The unlisted ones hold TES 0 and are added only
    when the gate admits 0.
    """
    topics = profile.topics
    v_pos = profile.position_of(v)
    older = bisect_left(topics, topics[v_pos].year, key=attrgetter("year"))
    column = matrix.columns[v_pos]
    listed = column[: bisect_left(column, older, key=itemgetter(0))]
    ranked = [(tes, topics[i].year, -topics[i].index) for i, tes in listed if params.admits(tes)]
    if params.admits(0.0):
        nonzero = {i for i, _ in listed}
        ranked.extend((0.0, u.year, -u.index) for i, u in enumerate(topics[:older]) if i not in nonzero)
    ranked.sort(reverse=True)
    return [(-neg_index, tes) for tes, _, neg_index in ranked]


def prune_candidates(
    candidates: Sequence[tuple[int, float]],
    anc: Mapping[int, int],
) -> list[tuple[int, float]]:
    """Greedy scan keeping, per evolutionary pathway, the strongest candidate.

    ``candidates`` must already be ordered by the `candidate_parents` key and
    ``anc`` must hold each candidate's ancestor mask (see
    :func:`~topictree.model.ancestor_mask`). A candidate is accepted iff it is
    neither an ancestor nor a descendant of any already-accepted candidate;
    candidates on unrelated pathways all survive, which is what makes fused
    topics possible.
    """
    accepted: list[tuple[int, float]] = []
    kept = kept_ancestors = 0
    for u, tes in candidates:
        if not (anc[u] & kept or kept_ancestors >> u & 1):
            accepted.append((u, tes))
            kept |= 1 << u
            kept_ancestors |= anc[u]
    return accepted


def build_tet(
    profile: TemporalTopicProfile,
    matrix: TesMatrix,
    params: EvolutionParams,
) -> Tet:
    """Construct the evolution tree for `profile` under `params`.

    The output is fully deterministic for fixed inputs. Raises
    ``ValueError`` when the matrix does not match the profile size.
    """
    require_type(profile, TemporalTopicProfile, "profile")
    require_type(matrix, TesMatrix, "matrix")
    require_type(params, EvolutionParams, "params")
    if matrix.n != len(profile):
        raise ValueError(
            f"matrix is {matrix.n}x{matrix.n} but the profile has {len(profile)} topics"
        )
    edges: list[TetEdge] = []
    anc: dict[int, int] = {}
    for topic in profile.topics:
        candidates = candidate_parents(topic.index, matrix, profile, params)
        retained = prune_candidates(candidates, anc)
        anc[topic.index] = ancestor_mask(anc, (u for u, _ in retained))
        for u, tes in retained or [(ROOT_INDEX, 1.0)]:
            edges.append(TetEdge(from_index=u, to_index=topic.index, tes=tes))
    return Tet(profile=profile, edges=tuple(edges), params=params)
