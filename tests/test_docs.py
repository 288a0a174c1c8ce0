"""The README's export paragraph lists exactly `topictree.__all__`, and every
name it says stays importable from a module is there."""

import importlib
import re
from pathlib import Path

import topictree

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_the_exported_names():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"`topictree` exports (\d+) names:(.*?)\n\n", text, re.DOTALL)
    assert paragraph is not None, "README has no '`topictree` exports N names:' paragraph"
    assert int(paragraph.group(1)) == len(topictree.__all__)
    assert sorted(re.findall(r"`([^`]+)`", paragraph.group(2))) == sorted(topictree.__all__)


def test_readme_importable_names_exist():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"[^:]* stay importable from .*?\.(?= |$)", text)
    assert sentence is not None, "README has no '... stay importable from `topictree.<module>`' sentence"
    # "`a` and `b` stay importable from `topictree.x`, `c` from `topictree.y`, ...":
    # each backquoted name belongs to the module named after it.
    parts = re.split(r"from `(topictree\.\w+)`", sentence.group())
    pairs = list(zip(parts[0::2], parts[1::2]))
    assert len(pairs) == 2
    for names, module in pairs:
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
