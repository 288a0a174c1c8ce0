"""Core domain types shared by ingestion, construction, classification and rendering.

All values are immutable after construction and compare, hash and print by their
fields; every constructor validates its own invariants and raises ``ValueError`` on violation.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from collections.abc import Iterable, Mapping
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


def require_int(value: object, where: str) -> int:
    """`value` if it is an integer; booleans, floats and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def require_number(value: object, where: str) -> float:
    """`value` as a float if it is a number; booleans and strings are rejected, not coerced.

    -0.0 comes back as 0.0, so equal numbers write the same JSON. An exact
    nonzero float comes back as the same object, not a copy.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        return float(value) or 0.0
    except OverflowError:
        raise ValueError(f"{where} is too large, got {value!r}") from None


def require_str(value: object, where: str) -> str:
    """`value` if it is a string; numbers and other types are rejected, not coerced."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


def require_type(value: object, cls: type | tuple[type, ...], where: str) -> None:
    """Reject `value` unless it is an instance of `cls`, a class or a tuple of them; nothing is coerced."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ValueError(f"{where} must be a {names}, got {type(value).__name__}")


def require_words(value: object, where: str) -> tuple[str, ...]:
    """`value` as a tuple if it is a list or tuple of strings; a bare string is rejected."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(word, str) for word in value):
        raise ValueError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


def format_number(value: float) -> str:
    """Shortest exact decimal form; integral floats drop the trailing ``.0``."""
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Value:
    """An immutable value whose fields are its ``__init__`` parameters, in order; it is
    compared, hashed and shown as ``Name(field=value, ...)`` by them alone.

    A subclass that declares ``__slots__`` must list exactly its fields, in
    order; one without keeps a ``__dict__`` for cached properties. Copies and
    pickles are rebuilt through the constructor, so they are checked again.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        if cls.__dict__.get("__slots__", cls._fields) != cls._fields:
            raise TypeError(f"{cls.__name__}.__slots__ must be its fields {cls._fields}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def _store(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


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


class TopicRecord(_Value):
    """One time-stamped topic: identity, importance weight and top terms."""

    __slots__ = ("id", "index", "weight", "year", "words", "label")

    def __init__(
        self, id: str, index: int, weight: float, year: int, words: tuple[str, ...], label: str | None = None
    ) -> None:
        if not require_str(id, "topic id"):
            raise ValueError("topic id must be non-empty")
        if label is not None:
            require_str(label, f"topic {id!r}: label")
        for name, text in (("id", id), ("label", label or "")):
            if (char := non_xml_char(text)) is not None:
                raise ValueError(f"topic {id!r}: {name} holds U+{ord(char):04X}, which XML cannot carry")
        if require_int(index, f"topic {id!r}: index") < 0:
            raise ValueError(f"topic {id!r}: index must be >= 0, got {index}")
        require_int(year, f"topic {id!r}: year")
        weight = require_number(weight, f"topic {id!r}: weight")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"topic {id!r}: weight must be in [0, 1], got {weight}")
        words = require_words(words, f"topic {id!r}: words")
        if not words:
            raise ValueError(f"topic {id!r}: words must be non-empty")
        self._store(id, index, weight, year, words, label)

    @property
    def display_label(self) -> str:
        """Label for rendering; falls back to the id when no label is set."""
        return self.label if self.label is not None else self.id


class TemporalTopicProfile(_Value):
    """Ordered collection of time-stamped topics.

    Topics are kept sorted ascending by (year, index); this order is also the
    row/column order of the associated :class:`TesMatrix`. Indices are the
    topics' identity (exactly 0..N-1) and need not coincide with positions.
    """

    def __init__(self, topics: tuple[TopicRecord, ...]) -> None:
        require_type(topics, tuple, "topics")
        if not topics:
            raise ValueError("profile must contain at least one topic")
        n = len(topics)
        position: dict[int, int] = {}
        for pos, t in enumerate(topics):
            require_type(t, TopicRecord, "topic")
            position[t.index] = pos
        if len(position) != n:
            raise ValueError("topic indices must be unique")
        if position.keys() != set(range(n)):
            raise ValueError(f"topic indices must be exactly 0..{n - 1}")
        ids = [t.id for t in topics]
        if len(set(ids)) != n:
            raise ValueError("topic ids must be unique")
        keys = [(t.year, t.index) for t in topics]
        if keys != sorted(keys):
            raise ValueError("topics must be sorted ascending by (year, index)")
        self._store(topics)
        object.__setattr__(self, "_position_by_index", position)

    def __len__(self) -> int:
        return len(self.topics)

    @cached_property
    def distinct_years(self) -> tuple[int, ...]:
        """Sorted deduplicated topic years; its length is the number of time slots."""
        return tuple(sorted({t.year for t in self.topics}))

    @cached_property
    def latest_year(self) -> int:
        return self.distinct_years[-1]

    def topic(self, index: int) -> TopicRecord:
        """The topic with identity `index` (not profile position)."""
        return self.topics[self._position_by_index[index]]

    def position_of(self, index: int) -> int:
        """Profile position of the topic with identity `index`; this is its matrix row/column."""
        return self._position_by_index[index]

    def year_of(self, index: int) -> int:
        return self.topics[self._position_by_index[index]].year


class TesMatrix(_Value):
    """Evolution strengths of older topics towards newer ones, nonzero cells only.

    ``columns[j]`` lists the ``(i, tes)`` pairs of column `j`: the TES of the
    position-`i` topic towards the position-`j` topic, for each ``i < j``
    whose TES is not 0, with `i` strictly increasing. Every cell that is not
    listed is 0, so the matrix costs memory in proportion to its nonzero
    cells. Positions follow the profile's (year, index) order.
    """

    def __init__(self, columns: tuple[tuple[tuple[int, float], ...], ...]) -> None:
        require_type(columns, tuple, "columns")
        if not columns:
            raise ValueError("matrix must hold at least one topic")
        for j, column in enumerate(columns):
            require_type(column, tuple, "column")
            previous = -1
            for pair in column:
                try:
                    i, tes = pair
                except (TypeError, ValueError):
                    raise ValueError(f"column {j}: entry {pair!r} must be a (position, tes) pair") from None
                if not (type(i) is int and previous < i < j):
                    raise ValueError(
                        f"column {j}: position {i!r} must be an integer above {previous} and below {j}"
                    )
                if type(tes) is not float:
                    require_number(tes, f"matrix entry ({i}, {j})")
                if not 0.0 < tes <= 1.0:
                    raise ValueError(f"matrix entry ({i}, {j}) must be in (0, 1], got {tes}")
                previous = i
        self._store(columns)

    @property
    def n(self) -> int:
        """Number of topics: the matrix is n x n."""
        return len(self.columns)


class EvolutionParams(_Value):
    """Thresholds controlling tree construction and state classification.

    Defaults reproduce the reference example without tuning.
    """

    def __init__(
        self, min_tes: float = 0.2, min_reborn: int = 2, min_dead: int = 1, threshold_mode: ThresholdMode = ThresholdMode.INCLUSIVE
    ) -> None:
        min_tes = require_number(min_tes, "min_tes")
        if not 0.0 <= min_tes <= 1.0:
            raise ValueError(f"min_tes must be in [0, 1], got {min_tes}")
        if require_int(min_reborn, "min_reborn") < 0:
            raise ValueError(f"min_reborn must be >= 0, got {min_reborn}")
        if require_int(min_dead, "min_dead") < 0:
            raise ValueError(f"min_dead must be >= 0, got {min_dead}")
        require_type(threshold_mode, ThresholdMode, "threshold_mode")
        self._store(min_tes, min_reborn, min_dead, threshold_mode)

    def admits(self, tes: float) -> bool:
        """Whether a TES value passes the min_tes gate under the configured mode."""
        if self.threshold_mode is ThresholdMode.INCLUSIVE:
            return tes >= self.min_tes
        return tes > self.min_tes


class TetEdge(_Value):
    """Directed ancestry edge; ``from_index`` is ROOT_INDEX for root edges."""

    __slots__ = ("from_index", "to_index", "tes")

    def __init__(self, from_index: int, to_index: int, tes: float) -> None:
        if require_int(from_index, "from_index") < ROOT_INDEX:
            raise ValueError(f"from_index must be >= {ROOT_INDEX}, got {from_index}")
        if require_int(to_index, "to_index") < 0:
            raise ValueError(f"to_index must be >= 0, got {to_index}")
        tes = require_number(tes, "edge tes")
        if not 0.0 <= tes <= 1.0:
            raise ValueError(f"edge tes must be in [0, 1], got {tes}")
        if from_index == ROOT_INDEX and tes != 1.0:
            raise ValueError("root edges carry tes 1")
        self._store(from_index, to_index, tes)

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


class Tet(_Value):
    """Topic evolution tree: a rooted genealogy of topics.

    Despite the name this is a rooted DAG, not a strict tree: a fused topic
    has several parents. Every node is reachable from the implicit root,
    either through a root edge (parentless topics) or through its parents.
    Both evolution states of every topic are derived from the edges, the
    years and the params; see :attr:`states`.
    """

    def __init__(self, profile: TemporalTopicProfile, edges: tuple[TetEdge, ...], params: EvolutionParams) -> None:
        require_type(profile, TemporalTopicProfile, "profile")
        require_type(edges, tuple, "edges")
        require_type(params, EvolutionParams, "params")
        self._store(profile, edges, params)
        # Each topic's parents, the root among them, as an insertion-ordered
        # set: a duplicate edge is found in O(1) and the parents stay in edge order.
        parents: dict[int, dict[int, None] | tuple[int, ...]] = {t.index: {} for t in profile.topics}
        for e in edges:
            require_type(e, TetEdge, "edge")
            if e.to_index not in parents:
                raise ValueError(f"edge targets unknown topic index {e.to_index}")
            if not e.is_root_edge:
                if e.from_index not in parents:
                    raise ValueError(f"edge leaves unknown topic index {e.from_index}")
                if profile.year_of(e.from_index) >= profile.year_of(e.to_index):
                    raise ValueError(f"edge {e.from_index}->{e.to_index} does not advance in time")
                if not params.admits(e.tes):
                    raise ValueError(
                        f"edge {e.from_index}->{e.to_index} carries tes {e.tes}, "
                        f"which fails the min_tes gate"
                    )
            ps = parents[e.to_index]
            if e.from_index in ps:
                raise ValueError(f"duplicate edge {e.from_index}->{e.to_index}")
            ps[e.from_index] = None
        # Indices are exactly 0..N-1, so both checks run in ascending index.
        # Each set becomes the stored tuple of non-root parents.
        for v in range(len(parents)):
            ps = parents[v]
            if not ps:
                raise ValueError(f"topic {v} is unreachable from the root")
            if ROOT_INDEX in ps and len(ps) > 1:
                raise ValueError(f"topic {v} has both a root edge and parents")
            parents[v] = () if ROOT_INDEX in ps else tuple(ps)
        # Profile order visits every parent before its children.
        anc: dict[int, int] = {}
        for t in profile.topics:
            anc[t.index] = ancestor_mask(anc, parents[t.index])
        for v in range(len(parents)):
            parent_bits = sum(1 << p for p in parents[v])
            for b in parents[v]:
                if shared := anc[b] & parent_bits:
                    raise ValueError(
                        f"parents {shared.bit_length() - 1} and {b} of topic {v} "
                        f"lie on the same pathway"
                    )
        object.__setattr__(self, "_parents", parents)

    @cached_property
    def states(self) -> dict[int, tuple[EmergingState, EvolvingState]]:
        """(emerging, evolving) state of every topic, in profile order.

        Each is the first match of its rules, so the assignment is exhaustive
        and exclusive. Emerging, how the topic came to exist: born (no
        parents), fused (two or more), reborn (its sole parent more than
        ``min_reborn`` years back), else flourishing; fused beats reborn
        whatever the gaps, since several ancestors are the stronger claim.
        Evolving, how it acts on later generations: split (two or more
        children), dead (childless, more than ``min_dead`` years before the
        profile's latest year), else flourishing. Both time gates are strict,
        so a topic in the latest year is never dead.
        """
        profile, parents, params = self.profile, self._parents, self.params
        children = Counter(p for ps in parents.values() for p in ps)
        states = {}
        for t in profile.topics:
            ps = parents[t.index]
            if not ps:
                emerging = EmergingState.BORN
            elif len(ps) >= 2:
                emerging = EmergingState.FUSED
            elif t.year - profile.year_of(ps[0]) > params.min_reborn:
                emerging = EmergingState.REBORN
            else:
                emerging = EmergingState.FLOURISHING
            if children[t.index] >= 2:
                evolving = EvolvingState.SPLIT
            elif not children[t.index] and profile.latest_year - t.year > params.min_dead:
                evolving = EvolvingState.DEAD
            else:
                evolving = EvolvingState.FLOURISHING
            states[t.index] = (emerging, evolving)
        return states

    def parents_of(self, v: int) -> tuple[int, ...]:
        """Non-root parents of topic `v`, in edge order."""
        return self._parents[v]
