"""`topictree` exports each `__all__` name from the submodule that defines it,
loading that submodule on the name's first use."""

import importlib
import json

import pytest

import topictree
from helpers import fresh_python

#: Each submodule and the names `topictree` exports from it.
EXPORTS = {
    "builder": ["build_tet"],
    "ingest": [
        "CsvValidationError", "ValidationIssue", "ValidationReport",
        "parse_profile", "parse_tes", "profile_to_csv", "tes_to_csv",
    ],
    "layout": ["CanvasSpec"],
    "model": [
        "ROOT_INDEX", "EmergingState", "EvolutionParams", "EvolvingState", "TemporalTopicProfile",
        "TesMatrix", "Tet", "TetEdge", "ThresholdMode", "TopicRecord",
    ],
    "render": ["tet_from_json", "to_dot", "to_json", "to_svg"],
}  # fmt: skip


def test_all_lists_the_exports():
    exported = [name for names in EXPORTS.values() for name in names]
    assert len(topictree.__all__) == len(exported) == 23
    assert sorted(topictree.__all__) == sorted(exported)


@pytest.mark.parametrize("module,name", [(module, name) for module, names in EXPORTS.items() for name in names])
def test_each_name_is_its_home_modules(module, name):
    assert getattr(topictree, name) is getattr(importlib.import_module(f"topictree.{module}"), name)


def test_dir_and_star_import_before_any_name_is_used():
    code = (
        "import json, topictree\n"
        "listed = dir(topictree)\n"
        "star = {}\n"
        "exec('from topictree import *', star)\n"
        "print(json.dumps([listed, sorted(set(star) - {'__builtins__'})]))"
    )
    listed, star = json.loads(fresh_python(code))
    assert set(topictree.__all__) <= set(listed)
    assert star == sorted(topictree.__all__)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match=r"^module 'topictree' has no attribute 'parse_json'$"):
        topictree.parse_json  # noqa: B018 - the lookup is the test
