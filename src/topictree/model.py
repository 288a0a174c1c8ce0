"""Core domain types shared by ingestion, construction, classification and rendering.

All values are immutable after construction; every constructor validates its
own invariants and raises ``ValueError`` on violation.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

#: Index of the artificial root node. The root carries no year, weight or
#: states; it exists only so that parentless topics have somewhere to attach.
ROOT_INDEX = -1

# Characters XML 1.0 cannot carry, even escaped; ids and labels end up in SVG.
_NON_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def non_xml_char(text: str) -> str | None:
    """The first character of `text` that XML 1.0 cannot carry, or None."""
    match = _NON_XML_CHAR.search(text)
    return match.group() if match else None


class ThresholdMode(enum.Enum):
    """How a candidate's TES is compared against ``min_tes``."""

    INCLUSIVE = "inclusive"  # keep candidates with tes >= min_tes
    EXCLUSIVE = "exclusive"  # keep candidates with tes >  min_tes


class EmergingState(enum.Enum):
    """How a topic came to exist."""

    BORN = "born"
    FUSED = "fused"
    REBORN = "reborn"
    FLOURISHING = "flourishing"


class EvolvingState(enum.Enum):
    """How a topic influences later generations."""

    SPLIT = "split"
    DEAD = "dead"
    FLOURISHING = "flourishing"


@dataclass(frozen=True)
class TopicRecord:
    """One time-stamped topic: identity, importance weight and top terms."""

    id: str
    index: int
    weight: float
    year: int
    words: tuple[str, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("topic id must be non-empty")
        for name, text in (("id", self.id), ("label", self.label or "")):
            if (char := non_xml_char(text)) is not None:
                raise ValueError(f"topic {self.id!r}: {name} holds U+{ord(char):04X}, which XML cannot carry")
        if self.index < 0:
            raise ValueError(f"topic {self.id!r}: index must be >= 0, got {self.index}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"topic {self.id!r}: weight must be in [0, 1], got {self.weight}")
        # A float, and 0.0 for -0.0, so equal weights write the same JSON.
        object.__setattr__(self, "weight", self.weight + 0.0)
        if not self.words:
            raise ValueError(f"topic {self.id!r}: words must be non-empty")

    @property
    def display_label(self) -> str:
        """Label for rendering; falls back to the id when no label is set."""
        return self.label if self.label is not None else self.id


@dataclass(frozen=True)
class TemporalTopicProfile:
    """Ordered collection of time-stamped topics.

    Topics are kept sorted ascending by (year, index); this order is also the
    row/column order of the associated :class:`TesMatrix`. Indices are the
    topics' identity (exactly 0..N-1) and need not coincide with positions.
    """

    topics: tuple[TopicRecord, ...]

    def __post_init__(self) -> None:
        if not self.topics:
            raise ValueError("profile must contain at least one topic")
        n = len(self.topics)
        indices = [t.index for t in self.topics]
        if len(set(indices)) != n:
            raise ValueError("topic indices must be unique")
        if set(indices) != set(range(n)):
            raise ValueError(f"topic indices must be exactly 0..{n - 1}")
        ids = [t.id for t in self.topics]
        if len(set(ids)) != n:
            raise ValueError("topic ids must be unique")
        keys = [(t.year, t.index) for t in self.topics]
        if keys != sorted(keys):
            raise ValueError("topics must be sorted ascending by (year, index)")

    def __len__(self) -> int:
        return len(self.topics)

    @cached_property
    def distinct_years(self) -> tuple[int, ...]:
        """Sorted deduplicated topic years; its length is the number of time slots."""
        return tuple(sorted({t.year for t in self.topics}))

    @cached_property
    def latest_year(self) -> int:
        return self.distinct_years[-1]

    @cached_property
    def _by_index(self) -> dict[int, TopicRecord]:
        return {t.index: t for t in self.topics}

    @cached_property
    def _position_by_index(self) -> dict[int, int]:
        return {t.index: pos for pos, t in enumerate(self.topics)}

    def topic(self, index: int) -> TopicRecord:
        """The topic with identity `index` (not profile position)."""
        return self._by_index[index]

    def position_of(self, index: int) -> int:
        """Profile position of the topic with identity `index`; this is its matrix row/column."""
        return self._position_by_index[index]

    def year_of(self, index: int) -> int:
        return self._by_index[index].year


@dataclass(frozen=True)
class TesMatrix:
    """Evolution strengths of older topics towards newer ones, nonzero cells only.

    ``columns[j]`` lists the ``(i, tes)`` pairs of column `j`: the TES of the
    position-`i` topic towards the position-`j` topic, for each ``i < j``
    whose TES is not 0, with `i` strictly increasing. Every cell that is not
    listed is 0, so the matrix costs memory in proportion to its nonzero
    cells. Positions follow the profile's (year, index) order.
    """

    columns: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("matrix must hold at least one topic")
        for j, column in enumerate(self.columns):
            previous = -1
            for i, tes in column:
                if not (isinstance(i, int) and previous < i < j):
                    raise ValueError(
                        f"column {j}: position {i!r} must be an integer above {previous} and below {j}"
                    )
                if not 0.0 < tes <= 1.0:
                    raise ValueError(f"matrix entry ({i}, {j}) must be in (0, 1], got {tes}")
                previous = i

    @property
    def n(self) -> int:
        """Number of topics: the matrix is n x n."""
        return len(self.columns)


@dataclass(frozen=True)
class EvolutionParams:
    """Thresholds controlling tree construction and state classification.

    Defaults reproduce the reference example without tuning.
    """

    min_tes: float = 0.2
    min_reborn: int = 2
    min_dead: int = 1
    threshold_mode: ThresholdMode = ThresholdMode.INCLUSIVE

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_tes <= 1.0:
            raise ValueError(f"min_tes must be in [0, 1], got {self.min_tes}")
        # A float, and 0.0 for -0.0, so equal gates write the same JSON.
        object.__setattr__(self, "min_tes", self.min_tes + 0.0)
        if self.min_reborn < 0:
            raise ValueError(f"min_reborn must be >= 0, got {self.min_reborn}")
        if self.min_dead < 0:
            raise ValueError(f"min_dead must be >= 0, got {self.min_dead}")
        if not isinstance(self.threshold_mode, ThresholdMode):
            raise ValueError(f"threshold_mode must be a ThresholdMode, got {self.threshold_mode!r}")

    def admits(self, tes: float) -> bool:
        """Whether a TES value passes the min_tes gate under the configured mode."""
        if self.threshold_mode is ThresholdMode.INCLUSIVE:
            return tes >= self.min_tes
        return tes > self.min_tes


@dataclass(frozen=True)
class TetEdge:
    """Directed ancestry edge; ``from_index`` is ROOT_INDEX for root edges."""

    from_index: int
    to_index: int
    tes: float

    def __post_init__(self) -> None:
        if self.from_index < ROOT_INDEX:
            raise ValueError(f"from_index must be >= {ROOT_INDEX}, got {self.from_index}")
        if self.to_index < 0:
            raise ValueError(f"to_index must be >= 0, got {self.to_index}")
        if not 0.0 <= self.tes <= 1.0:
            raise ValueError(f"edge tes must be in [0, 1], got {self.tes}")
        if self.is_root_edge and self.tes != 1.0:
            raise ValueError("root edges carry tes 1")

    @property
    def is_root_edge(self) -> bool:
        return self.from_index == ROOT_INDEX


def ancestor_mask(anc: Mapping[int, int], parents: Iterable[int]) -> int:
    """Ancestor set of a topic with non-root `parents`, as a bitmask over topic indices.

    ``anc`` must hold the mask of every parent; the result is the OR of
    ``anc[p] | 1 << p`` over them. The root is never a member, so two
    parentless topics are never related through it, and a topic is not its
    own ancestor.
    """
    mask = 0
    for p in parents:
        mask |= anc[p] | 1 << p
    return mask


@dataclass(frozen=True)
class Tet:
    """Topic evolution tree: a rooted genealogy of topics.

    Despite the name this is a rooted DAG, not a strict tree: a fused topic
    has several parents. Every node is reachable from the implicit root,
    either through a root edge (parentless topics) or through its parents.
    Both evolution states of every topic are derived from the edges, the
    years and the params; see :attr:`states`.
    """

    profile: TemporalTopicProfile
    edges: tuple[TetEdge, ...]
    params: EvolutionParams

    def __post_init__(self) -> None:
        valid = {t.index for t in self.profile.topics}
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.to_index not in valid:
                raise ValueError(f"edge targets unknown topic index {e.to_index}")
            if not e.is_root_edge:
                if e.from_index not in valid:
                    raise ValueError(f"edge leaves unknown topic index {e.from_index}")
                if self.profile.year_of(e.from_index) >= self.profile.year_of(e.to_index):
                    raise ValueError(
                        f"edge {e.from_index}->{e.to_index} does not advance in time"
                    )
                if not self.params.admits(e.tes):
                    raise ValueError(
                        f"edge {e.from_index}->{e.to_index} carries tes {e.tes}, "
                        f"which fails the min_tes gate"
                    )
            if (e.from_index, e.to_index) in seen:
                raise ValueError(f"duplicate edge {e.from_index}->{e.to_index}")
            seen.add((e.from_index, e.to_index))
        for v in valid:
            has_root = (ROOT_INDEX, v) in seen
            parent_count = len(self.parents_of(v))
            if has_root and parent_count:
                raise ValueError(f"topic {v} has both a root edge and parents")
            if not has_root and not parent_count:
                raise ValueError(f"topic {v} is unreachable from the root")
        anc = self._ancestor_masks
        for v in valid:
            parents = self.parents_of(v)
            parent_bits = sum(1 << p for p in parents)
            for b in parents:
                if shared := anc[b] & parent_bits:
                    raise ValueError(
                        f"parents {shared.bit_length() - 1} and {b} of topic {v} "
                        f"lie on the same pathway"
                    )

    @property
    def latest_year(self) -> int:
        """The profile's latest year; the dead gate counts trailing years up to it."""
        return self.profile.latest_year

    @cached_property
    def _parent_map(self) -> dict[int, tuple[int, ...]]:
        parents: dict[int, list[int]] = {t.index: [] for t in self.profile.topics}
        for e in self.edges:
            if not e.is_root_edge:
                parents[e.to_index].append(e.from_index)
        return {v: tuple(ps) for v, ps in parents.items()}

    @cached_property
    def _child_map(self) -> dict[int, tuple[int, ...]]:
        children: dict[int, list[int]] = {t.index: [] for t in self.profile.topics}
        for e in self.edges:
            if not e.is_root_edge:
                children[e.from_index].append(e.to_index)
        return {v: tuple(cs) for v, cs in children.items()}

    @cached_property
    def _ancestor_masks(self) -> dict[int, int]:
        # Profile order visits every parent before its children.
        anc: dict[int, int] = {}
        for t in self.profile.topics:
            anc[t.index] = ancestor_mask(anc, self._parent_map[t.index])
        return anc

    @cached_property
    def states(self) -> dict[int, tuple[EmergingState, EvolvingState]]:
        """(emerging, evolving) state of every topic, in profile order.

        Derived by :func:`classify_emerging` and :func:`classify_evolving`
        from the edges, the years and the params.
        """
        return {
            t.index: (classify_emerging(self, t.index), classify_evolving(self, t.index))
            for t in self.profile.topics
        }

    def parents_of(self, v: int) -> tuple[int, ...]:
        """Non-root parents of topic `v`, in edge order."""
        return self._parent_map[v]

    def children_of(self, v: int) -> tuple[int, ...]:
        return self._child_map[v]

    def ancestors_of(self, v: int) -> set[int]:
        """All topics reachable from `v` by walking edges backwards; excludes the root and `v`."""
        mask = self._ancestor_masks[v]
        return {u for u in self._parent_map if mask >> u & 1}


# Evolution states. Each topic carries two: the emerging-state says how it
# came to exist (born / fused / reborn / flourishing), the evolving-state how
# it acts on later generations (split / dead / flourishing). Classification is
# a first match in a fixed order, so the assignment is exhaustive and
# exclusive.


def classify_emerging(tet: Tet, v: int) -> EmergingState:
    """born -> fused -> reborn -> flourishing, first match wins.

    Fused (two or more parents) takes priority over reborn: multiple
    ancestry is the structurally stronger claim, whatever the gaps. The time
    gate is strict: a single-parent topic is reborn only when its silence
    exceeds ``min_reborn`` years.
    """
    parents = tet.parents_of(v)
    if not parents:
        return EmergingState.BORN
    if len(parents) >= 2:
        return EmergingState.FUSED
    gap = tet.profile.year_of(v) - max(tet.profile.year_of(p) for p in parents)
    if gap > tet.params.min_reborn:
        return EmergingState.REBORN
    return EmergingState.FLOURISHING


def classify_evolving(tet: Tet, v: int) -> EvolvingState:
    """split -> dead -> flourishing, first match wins.

    The time gate is strict: a childless topic is dead only when the latest
    profile year lies more than ``min_dead`` years after it, so topics in the
    latest year are never dead.
    """
    children = tet.children_of(v)
    if len(children) >= 2:
        return EvolvingState.SPLIT
    if not children and tet.latest_year - tet.profile.year_of(v) > tet.params.min_dead:
        return EvolvingState.DEAD
    return EvolvingState.FLOURISHING
