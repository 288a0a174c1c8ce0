"""tools/stage_rss.py runs a command in a child and reports memory once per stage call."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

pytestmark = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")


#: One report line: the stage, then VmRSS and VmHWM before and after, in kB.
LINE = re.compile(r"(\S+(?: \d+)?) +VmRSS +(\d+) -> +(\d+) kB  VmHWM +(\d+) -> +(\d+) kB")


def stage_rss(*args):
    """The exit code, the stage of each report line, and the other lines of standard error."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_rss.py"), *args], capture_output=True, text=True
    )
    names, other, peak = [], [], 0
    for line in proc.stderr.splitlines():
        if match := LINE.fullmatch(line):
            rss_before, rss_after, hwm_before, hwm_after = map(int, match.groups()[1:])
            assert 0 < rss_before <= hwm_before <= hwm_after and 0 < rss_after <= hwm_after
            assert hwm_after >= peak, "the peak column fell from one line to the next"
            peak = hwm_after
            names.append(match.group(1))
        else:
            other.append(line)
    return proc.returncode, names, other


def test_one_line_per_stage_call(tmp_path):
    inputs = ["--profile", str(DATA / "example_topic_profile.csv"), "--tes", str(DATA / "example_tes_matrix.csv")]
    code, names, other = stage_rss("run", *inputs, "--out-dir", str(tmp_path))
    assert (code, other) == (0, [])
    assert names == [
        "import", "parse_profile", "parse_tes", "build_tet", "_write_text", "_write_text", "_write_text", "exit 0",
    ]
    code, names, other = stage_rss("render", "--tet", str(tmp_path / "tet.json"), "--format", "dot", "--out", str(tmp_path / "x.dot"))
    assert (code, other) == (0, [])
    assert names == ["import", "tet_from_json", "_write_text", "exit 0"]
    assert (tmp_path / "x.dot").read_text().startswith("digraph")
    code, names, other = stage_rss("build", *inputs, "--out", str(tmp_path / "x.json"))
    assert (code, other) == (0, [])
    assert names == ["import", "parse_profile", "parse_tes", "build_tet", "_write_text", "exit 0"]
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "tet.json").read_bytes()


def test_exit_code_is_the_commands():
    code, names, other = stage_rss("render", "--tet", str(DATA / "missing.json"))
    assert code == 2 and len(other) == 1 and other[0].startswith("topictree: i/o error:")
    assert names == ["import", "exit 2"]
