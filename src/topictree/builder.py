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

from collections.abc import Mapping, Sequence

from .model import (
    ROOT_INDEX,
    EvolutionParams,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ancestor_mask,
)


class DimensionMismatchError(ValueError):
    """Matrix dimension does not match the profile size."""


def candidate_key(profile: TemporalTopicProfile, u: int, tes: float) -> tuple[float, int, int]:
    """Total order on candidates: stronger TES, then later year, then lower index.

    Returned tuples compare ascending; sort with ``reverse=True`` (the index
    component is negated so that lower indices rank higher).
    """
    return (tes, profile.year_of(u), -u)


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
    """
    v_pos = profile.position_of(v)
    v_year = profile.year_of(v)
    out = []
    for u_pos, tes in enumerate(matrix.columns[v_pos]):
        u_topic = profile.topics[u_pos]
        if u_topic.year < v_year and params.admits(tes):
            out.append((u_topic.index, tes))
    out.sort(key=lambda item: candidate_key(profile, item[0], item[1]), reverse=True)
    return out


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
    :class:`DimensionMismatchError` when the matrix does not match the
    profile size.
    """
    if matrix.n != len(profile):
        raise DimensionMismatchError(
            f"matrix is {matrix.n}x{matrix.n} but the profile has {len(profile)} topics"
        )
    edges: list[TetEdge] = []
    anc: dict[int, int] = {}
    for topic in profile.topics:
        candidates = candidate_parents(topic.index, matrix, profile, params)
        retained = prune_candidates(candidates, anc)
        anc[topic.index] = ancestor_mask(anc, (u for u, _ in retained))
        if retained:
            edges.extend(TetEdge(from_index=u, to_index=topic.index, tes=tes) for u, tes in retained)
        else:
            edges.append(TetEdge(from_index=ROOT_INDEX, to_index=topic.index, tes=1.0))
    return Tet(
        profile=profile,
        edges=tuple(edges),
        params=params,
        latest_year=profile.latest_year,
    )
