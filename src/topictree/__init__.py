"""Topic evolution trees: build a genealogy of time-stamped topics from an
evolution-strength matrix, derive each topic's evolution states from it, and
render the result as SVG, DOT or JSON.

Typical use::

    from topictree import EvolutionParams, build_tet, parse_profile, parse_tes

    profile, _ = parse_profile(profile_csv_bytes)
    matrix, _ = parse_tes(tes_csv_bytes, profile)
    tet = build_tet(profile, matrix, EvolutionParams())
    tet.states  # {index: (EmergingState, EvolvingState)}
"""

from .builder import DimensionMismatchError, build_tet, candidate_parents, prune_candidates
from .ingest import (
    CsvValidationError,
    ValidationIssue,
    ValidationReport,
    parse_profile,
    parse_tes,
    profile_to_csv,
    tes_to_csv,
)
from .layout import CanvasSpec, FontMetrics, TetLayout, compute_layout, state_colors, tes_color
from .model import (
    ROOT_INDEX,
    EmergingState,
    EvolutionParams,
    EvolvingState,
    TemporalTopicProfile,
    TesMatrix,
    Tet,
    TetEdge,
    ThresholdMode,
    TopicRecord,
    classify_emerging,
    classify_evolving,
)
from .render import tet_from_json, to_dot, to_json, to_svg

__version__ = "0.1.0"

__all__ = [
    "ROOT_INDEX",
    "CanvasSpec",
    "CsvValidationError",
    "DimensionMismatchError",
    "EmergingState",
    "EvolutionParams",
    "EvolvingState",
    "FontMetrics",
    "TemporalTopicProfile",
    "TesMatrix",
    "Tet",
    "TetEdge",
    "TetLayout",
    "ThresholdMode",
    "TopicRecord",
    "ValidationIssue",
    "ValidationReport",
    "build_tet",
    "candidate_parents",
    "classify_emerging",
    "classify_evolving",
    "compute_layout",
    "parse_profile",
    "parse_tes",
    "profile_to_csv",
    "prune_candidates",
    "state_colors",
    "tes_color",
    "tes_to_csv",
    "tet_from_json",
    "to_dot",
    "to_json",
    "to_svg",
]
