import json
import os
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


#: Tree documents that must be rejected: mutation of the fixture document (or
#: replacement text) and a fragment the error message must contain.
MALFORMED_TREES = {
    "deep-nesting": (lambda doc: "[" * 100_000 + "]" * 100_000, "nested too deeply"),
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
