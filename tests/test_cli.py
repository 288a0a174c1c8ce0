import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from dot_checker import check_dot
from topictree.cli import main


@pytest.fixture
def fixture_paths(tmp_path, profile_csv, tes_csv):
    profile = tmp_path / "profile.csv"
    tes = tmp_path / "tes.csv"
    profile.write_bytes(profile_csv)
    tes.write_bytes(tes_csv)
    return profile, tes


def build_args(profile, tes, *extra):
    return ["build", "--profile", str(profile), "--tes", str(tes), *extra]


class TestBuild:
    def test_fixture_to_file(self, fixture_paths, tmp_path):
        profile, tes = fixture_paths
        out = tmp_path / "tet.json"
        assert main(build_args(profile, tes, "--out", str(out))) == 0
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 11
        assert doc["params"]["threshold_mode"] == "inclusive"

    def test_fixture_to_stdout(self, fixture_paths, capsys):
        profile, tes = fixture_paths
        assert main(build_args(profile, tes)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["edges"]) >= 11

    def test_threshold_mode_flag(self, fixture_paths, capsys):
        profile, tes = fixture_paths
        assert main(build_args(profile, tes, "--threshold-mode", "exclusive")) == 0
        doc = json.loads(capsys.readouterr().out)
        non_root = [e for e in doc["edges"] if e["from_index"] >= 0]
        assert len(non_root) == 9

    def test_missing_tes_flag_is_usage_error(self, fixture_paths, capsys):
        profile, _ = fixture_paths
        assert main(["build", "--profile", str(profile)]) == 3
        assert "usage" in capsys.readouterr().err

    def test_validation_error_cites_location(self, fixture_paths, tmp_path, capsys):
        profile, tes = fixture_paths
        corrupt = tmp_path / "bad_tes.csv"
        corrupt.write_bytes(tes.read_bytes().replace(b"1,0,", b"1,0.3,", 1))
        assert main(build_args(profile, corrupt)) == 1
        err = capsys.readouterr().err
        assert "ContemporaryNonzero" in err
        assert "row 1" in err and "column 2" in err

    def test_lenient_coerces_to_warning(self, fixture_paths, tmp_path, capsys):
        profile, tes = fixture_paths
        corrupt = tmp_path / "bad_tes.csv"
        corrupt.write_bytes(tes.read_bytes().replace(b"1,0,", b"1,0.3,", 1))
        assert main(build_args(profile, corrupt, "--lenient", "--out", str(tmp_path / "t.json"))) == 0
        assert "warning" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        assert main(build_args(tmp_path / "nope.csv", tmp_path / "nope2.csv")) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_bad_parameter_value_is_usage_error(self, fixture_paths, capsys):
        profile, tes = fixture_paths
        assert main(build_args(profile, tes, "--min-tes", "1.5")) == 3
        assert "min_tes" in capsys.readouterr().err

    def test_no_partial_output_on_failure(self, fixture_paths, tmp_path):
        profile, tes = fixture_paths
        corrupt = tmp_path / "bad_tes.csv"
        corrupt.write_bytes(tes.read_bytes().replace(b"1,0,", b"1,0.3,", 1))
        out = tmp_path / "never.json"
        assert main(build_args(profile, corrupt, "--out", str(out))) == 1
        assert not out.exists()

    def test_negative_zero_min_tes_writes_zero(self, fixture_paths, tmp_path):
        profile, tes = fixture_paths
        negative, positive = tmp_path / "negative.json", tmp_path / "positive.json"
        assert main(build_args(profile, tes, "--min-tes=-0", "--out", str(negative))) == 0
        assert main(build_args(profile, tes, "--min-tes", "0", "--out", str(positive))) == 0
        assert negative.read_bytes() == positive.read_bytes()

    def test_negative_zero_weight_writes_zero(self, tmp_path):
        tes = tmp_path / "tes.csv"
        tes.write_bytes(b"1\n")
        written = []
        for weight in ("-0", "-0.0", "0"):
            profile = tmp_path / f"profile{weight}.csv"
            profile.write_text(f"id,index,label,weight,year,words\nx,0,X,{weight},2001,\"['a']\"\n")
            out = tmp_path / f"tet{weight}.json"
            assert main(build_args(profile, tes, "--out", str(out))) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        assert b'"weight": 0.0,' in written[0]

    def test_failed_rename_leaves_no_files(self, fixture_paths, tmp_path, monkeypatch):
        profile, tes = fixture_paths
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(build_args(profile, tes, "--out", str(out_dir / "tet.json"))) == 2
        assert list(out_dir.iterdir()) == []

    def test_fifo_target_is_written_not_replaced(self, fixture_paths, tmp_path):
        profile, tes = fixture_paths
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # a reader must exist before the CLI opens the FIFO for writing; the
        # document fits in the pipe buffer, so the write does not block
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(build_args(profile, tes, "--out", str(fifo))) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert len(json.loads(data)["nodes"]) == 11


#: Tree documents that must be rejected: mutation of the fixture document (or
#: replacement text) and a fragment the error message must contain.
MALFORMED_TREES = {
    "deep-nesting": (
        lambda doc: "[" * 100_000 + "]" * 100_000,
        "nested too deeply to parse at line 1, column 100000",
    ),
    "words-string": (lambda doc: doc["nodes"][0].update(words="abc"), "nodes[0].words"),
    "words-non-string": (lambda doc: doc["nodes"][0].update(words=["a", 3]), "nodes[0].words"),
    "index-bool": (lambda doc: doc["nodes"][1].update(index=True), "nodes[1].index"),
    "year-float": (lambda doc: doc["nodes"][0].update(year=2001.9), "nodes[0].year"),
    "latest-year-float": (lambda doc: doc.update(latest_year=2005.5), "latest_year"),
    "min-reborn-bool": (lambda doc: doc["params"].update(min_reborn=True), "params.min_reborn"),
    "min-dead-float": (lambda doc: doc["params"].update(min_dead=1.5), "params.min_dead"),
    "parentless-stored-fused": (lambda doc: doc["nodes"][0].update(emerging_state="fused"), "topic 0"),
    "weight-bool": (lambda doc: doc["nodes"][0].update(weight=True), "nodes[0].weight"),
    "weight-string": (lambda doc: doc["nodes"][0].update(weight="0.5"), "nodes[0].weight"),
    "weight-huge-int": (lambda doc: doc["nodes"][0].update(weight=10**400), "nodes[0].weight"),
    "id-int": (lambda doc: doc["nodes"][0].update(id=7), "nodes[0].id"),
    "tes-string": (lambda doc: doc["edges"][2].update(tes="0.9"), "edges[2].tes"),
    "root-tes-bool": (lambda doc: doc["edges"][0].update(tes=True), "edges[0].tes"),
    "min-tes-string": (lambda doc: doc["params"].update(min_tes="0.2"), "params.min_tes"),
    "label-control-char": (lambda doc: doc["nodes"][0].update(label="A\x01"), "U+0001"),
    "id-lone-surrogate": (lambda doc: doc["nodes"][0].update(id="t\ud800"), "U+D800"),
    "edge-unknown-target": (lambda doc: doc["edges"][2].update(to_index=99), "unknown topic index 99"),
}


@pytest.fixture
def tet_json_path(fixture_paths, tmp_path):
    profile, tes = fixture_paths
    out = tmp_path / "tet.json"
    assert main(build_args(profile, tes, "--threshold-mode", "exclusive", "--out", str(out))) == 0
    return out


class TestRender:
    def test_svg(self, tet_json_path, tmp_path):
        out = tmp_path / "tet.svg"
        assert main(["render", "--tet", str(tet_json_path), "--format", "svg", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_dot(self, tet_json_path, tmp_path):
        out = tmp_path / "tet.dot"
        assert main(["render", "--tet", str(tet_json_path), "--format", "dot", "--out", str(out)]) == 0
        check_dot(out.read_text())

    def test_unknown_format_is_usage_error(self, tet_json_path, capsys):
        assert main(["render", "--tet", str(tet_json_path), "--format", "png"]) == 3
        assert "invalid choice" in capsys.readouterr().err

    def test_show_root_adds_elements(self, tet_json_path, capsys):
        assert main(["render", "--tet", str(tet_json_path)]) == 0
        plain = capsys.readouterr().out
        assert main(["render", "--tet", str(tet_json_path), "--show-root"]) == 0
        shown = capsys.readouterr().out
        assert plain.count('class="edge"') == 9
        assert shown.count('class="edge"') == 12
        assert 'id="node-root"' in shown and 'id="node-root"' not in plain

    def test_malformed_tet_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": {}}')
        assert main(["render", "--tet", str(bad)]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_missing_tet_file_is_io_error(self, tmp_path):
        assert main(["render", "--tet", str(tmp_path / "gone.json")]) == 2

    def test_custom_canvas_size(self, tet_json_path, capsys):
        assert main(["render", "--tet", str(tet_json_path), "--width", "1400", "--height", "900"]) == 0
        svg = capsys.readouterr().out
        assert 'width="1400"' in svg and 'height="900"' in svg

    def test_too_small_canvas_is_usage_error(self, tet_json_path, capsys):
        for width in ("100", "nan", "inf"):
            assert main(["render", "--tet", str(tet_json_path), "--width", width]) == 3
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_oversized_canvas_is_usage_error(self, tet_json_path, tmp_path, capsys, flag):
        # 1e308 overflowed a label's centre to inf; the ceiling is 1e6 canvas units
        for size in ("1e308", repr(math.nextafter(1e6, math.inf))):
            out = tmp_path / "tet.svg"
            assert main(["render", "--tet", str(tet_json_path), flag, size, "--out", str(out)]) == 3
            assert "at most 1e+06" in capsys.readouterr().err
            assert not out.exists()
        assert main(["render", "--tet", str(tet_json_path), flag, "1e6", "--out", str(out)]) == 0

    @pytest.mark.parametrize("mutate,fragment", MALFORMED_TREES.values(), ids=MALFORMED_TREES)
    def test_malformed_tree_is_validation_error(self, tet_json_path, tmp_path, capsys, mutate, fragment):
        doc = json.loads(tet_json_path.read_text())
        replacement = mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc) if replacement is None else replacement)
        assert main(["render", "--tet", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and fragment in err


class TestRun:
    def test_writes_three_artifacts(self, fixture_paths, tmp_path):
        profile, tes = fixture_paths
        out_dir = tmp_path / "out"
        args = [
            "run", "--profile", str(profile), "--tes", str(tes),
            "--threshold-mode", "exclusive", "--out-dir", str(out_dir),
        ]
        assert main(args) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["tet.dot", "tet.json", "tet.svg"]
        doc = json.loads((out_dir / "tet.json").read_text())
        by_index = {node["index"]: node for node in doc["nodes"]}
        assert by_index[7]["emerging_state"] == "reborn"
        ET.fromstring((out_dir / "tet.svg").read_text())
        check_dot((out_dir / "tet.dot").read_text())

    def test_reruns_are_byte_identical(self, fixture_paths, tmp_path):
        profile, tes = fixture_paths
        first, second = tmp_path / "a", tmp_path / "b"
        base = ["run", "--profile", str(profile), "--tes", str(tes)]
        assert main(base + ["--out-dir", str(first)]) == 0
        assert main(base + ["--out-dir", str(second)]) == 0
        for name in ("tet.json", "tet.svg", "tet.dot"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_out_dir_collides_with_file(self, fixture_paths, tmp_path, capsys):
        profile, tes = fixture_paths
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        args = ["run", "--profile", str(profile), "--tes", str(tes), "--out-dir", str(blocker)]
        assert main(args) == 2
        assert "i/o error" in capsys.readouterr().err


#: Values the flag fuzz substitutes: non-finite, signed zero, extreme and
#: subnormal floats, huge integers, empty and non-ASCII text (some of which
#: Python reads as digits), and values that are valid.
FUZZ_VALUES = (
    "nan", "-nan", "inf", "-inf", "-0", "0", "1e308", "-1e308", "1e-320", "1e6", "1000000.0000000001",
    "9" * 30, "-" + "9" * 31, "1" + "0" * 40, "", " ", "0x10", "1_000", "٣", "１２００", "é", "日本語",
    "0.2", "0.5", "1", "2", "900", "1400", "inclusive", "exclusive", "svg", "dot", "png",
)

#: The flags each command takes from the fuzzed set.
FUZZ_FLAGS = {
    "build": ("--min-tes", "--min-reborn", "--min-dead", "--threshold-mode"),
    "render": ("--width", "--height", "--format"),
    "run": ("--min-tes", "--min-reborn", "--min-dead", "--threshold-mode", "--width", "--height"),
}

_NON_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)


def _no_nonfinite_json(constant):
    raise AssertionError(f"non-finite number {constant} in JSON output")


def _fuzz_cases(rng):
    """(command, flag arguments): every value once in every flag, then random
    combinations of one to three flags, some given twice (the last value wins)."""
    for command, flags in FUZZ_FLAGS.items():
        for flag in flags:
            for value in FUZZ_VALUES:
                yield command, [flag, value]
    for _ in range(150):
        command = rng.choice(sorted(FUZZ_FLAGS))
        extra = []
        for flag in rng.sample(FUZZ_FLAGS[command], rng.randint(1, 3)):
            for _ in range(rng.choice((1, 1, 2))):
                value = rng.choice(FUZZ_VALUES)
                extra += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
        yield command, extra


class TestFlagFuzz:
    def test_mutated_flags_exit_cleanly(self, fixture_paths, tet_json_path, tmp_path, capsys):
        profile, tes = fixture_paths
        exits = set()
        for case, (command, extra) in enumerate(_fuzz_cases(random.Random(17))):
            out = tmp_path / f"case{case}"
            if command == "build":
                argv = build_args(profile, tes, "--out", str(out / "tet.json"))
            elif command == "render":
                argv = ["render", "--tet", str(tet_json_path), "--out", str(out / "tet.out")]
            else:
                argv = ["run", "--profile", str(profile), "--tes", str(tes), "--out-dir", str(out)]
            if command != "run":
                out.mkdir()
            argv += extra

            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2, 3), argv
            exits.add(code)
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
            if code != 0:
                assert written == [], argv
                continue
            for name in written:
                text = (out / name).read_text(encoding="utf-8")
                if name == "tet.json":
                    json.loads(text, parse_constant=_no_nonfinite_json)
                elif name == "tet.dot" or text.startswith("digraph"):
                    check_dot(text)
                else:
                    for element in ET.fromstring(text).iter():
                        bad = [v for v in element.attrib.values() if _NON_FINITE.search(v)]
                        assert bad == [], (argv, element.tag, bad)
        assert exits == {0, 3}


class TestHelp:
    @pytest.mark.parametrize("args", [["--help"], ["build", "--help"], ["render", "--help"], ["run", "--help"]])
    def test_help_exits_zero(self, args, capsys):
        assert main(args) == 0
        assert "usage" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 3

    def test_console_script_installed(self):
        # the child imports topictree from wherever this process does, installed or not
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "topictree.cli", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout

    def test_imports_only_the_standard_library(self):
        # -S keeps site's .pth hooks from preloading third-party modules
        code = "import sys, topictree.cli; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "topictree" in loaded
        assert loaded - set(sys.stdlib_module_names) - {"__main__", "topictree"} == set()
        # xml.sax.saxutils alone would pull in urllib.request, http, email and ssl
        assert loaded & {"xml", "http", "email", "ssl", "socket"} == set()
