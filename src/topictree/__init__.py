"""Topic evolution trees: build a genealogy of time-stamped topics from an
evolution-strength matrix, derive each topic's evolution states from it, and
render the result as SVG, DOT or JSON.

Typical use::

    from topictree import EvolutionParams, build_tet, parse_profile, parse_tes

    with open("profile.csv", "rb") as handle:  # or the CSV's bytes
        profile, _ = parse_profile(handle)
    with open("tes.csv", "rb") as handle:
        matrix, _ = parse_tes(handle, profile)
    tet = build_tet(profile, matrix, EvolutionParams())
    tet.states  # {index: (EmergingState, EvolvingState)}
"""

from .builder import build_tet
from .ingest import (
    CsvValidationError,
    ValidationIssue,
    ValidationReport,
    parse_profile,
    parse_tes,
    profile_to_csv,
    tes_to_csv,
)
from .layout import CanvasSpec
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
)
from .render import tet_from_json, to_dot, to_json, to_svg

__version__ = "0.1.0"

__all__ = [
    "ROOT_INDEX",
    "CanvasSpec",
    "CsvValidationError",
    "EmergingState",
    "EvolutionParams",
    "EvolvingState",
    "TemporalTopicProfile",
    "TesMatrix",
    "Tet",
    "TetEdge",
    "ThresholdMode",
    "TopicRecord",
    "ValidationIssue",
    "ValidationReport",
    "build_tet",
    "parse_profile",
    "parse_tes",
    "profile_to_csv",
    "tes_to_csv",
    "tet_from_json",
    "to_dot",
    "to_json",
    "to_svg",
]
