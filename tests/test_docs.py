"""The README's export paragraph lists exactly `topictree.__all__`."""

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
