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

#: The submodule that defines each exported name. A name's module is imported
#: on its first use, so a program loads only the modules it uses: rendering a
#: stored tree loads neither the CSV parsers nor the builder.
_HOMES = {
    name: module
    for module, names in {
        "builder": "build_tet",
        "ingest": "CsvValidationError ValidationIssue ValidationReport parse_profile parse_tes profile_to_csv tes_to_csv",
        "layout": "CanvasSpec",
        "model": "ROOT_INDEX EmergingState EvolutionParams EvolvingState TemporalTopicProfile TesMatrix Tet TetEdge ThresholdMode TopicRecord",
        "render": "tet_from_json to_dot to_json to_svg",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = list(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, since importlib is a module that nothing here would load otherwise
    value = getattr(__import__(f"{__name__}.{_HOMES[name]}", fromlist=[name]), name)
    globals()[name] = value  # so later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
