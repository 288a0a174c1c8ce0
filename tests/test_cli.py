import io
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from dot_checker import check_dot
from helpers import loaded_modules, odd_tets, random_instance
from topictree import cli, ingest
from topictree.builder import build_tet
from topictree.cli import _BATCH, _canvas_from_args, _params_from_args, _render_text, _write_text, main, make_parser
from topictree.layout import CanvasSpec
from topictree.model import EvolutionParams
from topictree.render import _svg_lines, tet_from_json, to_dot, to_json, to_svg


@pytest.fixture
def fixture_paths(tmp_path, profile_csv, tes_csv):
    profile = tmp_path / "profile.csv"
    tes = tmp_path / "tes.csv"
    profile.write_bytes(profile_csv)
    tes.write_bytes(tes_csv)
    return profile, tes


def build_args(profile, tes, *extra):
    return ["build", "--profile", str(profile), "--tes", str(tes), *extra]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def mode_of(path):
    return stat.S_IMODE(path.stat().st_mode)


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

    @pytest.mark.parametrize("name", ["a" * 250, "é" * 127 + "a"], ids=["250-bytes", "255-bytes-multibyte"])
    def test_longest_names_are_written(self, name, fixture_paths, tmp_path):
        # the temp file beside the target has a short name of its own, so a
        # target name up to the file system's 255-byte limit works
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / name
        assert main(build_args(*fixture_paths, "--out", str(out))) == 0
        assert list(out_dir.iterdir()) == [out]
        assert json.loads(out.read_text(encoding="utf-8"))["nodes"]

    def test_new_file_gets_the_umask_mode(self, fixture_paths, tmp_path, umask_022):
        out = tmp_path / "tet.json"
        assert main(build_args(*fixture_paths, "--out", str(out))) == 0
        assert mode_of(out) == 0o644

    def test_replaced_file_keeps_its_mode(self, fixture_paths, tmp_path, umask_022):
        out = tmp_path / "tet.json"
        out.write_text("old")
        out.chmod(0o640)
        assert main(build_args(*fixture_paths, "--out", str(out))) == 0
        assert mode_of(out) == 0o640
        assert json.loads(out.read_text())["nodes"]

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


def _feed(fifo, data: bytes) -> threading.Thread:
    """Start a thread that writes `data` into `fifo` once a reader opens it."""

    def write():
        try:
            with open(fifo, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    thread = threading.Thread(target=write)
    thread.start()
    return thread


class TestInputs:
    def _build_from_fifos(self, tmp_path, profile_data: bytes, tes_data: bytes, out) -> int:
        fifos = [tmp_path / "profile.fifo", tmp_path / "tes.fifo"]
        threads = []
        for fifo, data in zip(fifos, (profile_data, tes_data)):
            os.mkfifo(fifo)
            threads.append(_feed(fifo, data))
        try:
            return main(build_args(*fifos, "--out", str(out)))
        finally:
            for fifo, thread in zip(fifos, threads):
                while thread.is_alive():  # a FIFO the CLI never opened lets its writer go
                    os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                    thread.join(0.01)

    def test_fifo_inputs_give_the_file_output(self, fixture_paths, profile_csv, tes_csv, tmp_path):
        # A FIFO cannot seek: the inputs must be read front to back, once.
        from_files, from_fifos = tmp_path / "files.json", tmp_path / "fifos.json"
        assert main(build_args(*fixture_paths, "--out", str(from_files))) == 0
        assert self._build_from_fifos(tmp_path, profile_csv, tes_csv, from_fifos) == 0
        assert from_fifos.read_bytes() == from_files.read_bytes()

    @pytest.mark.parametrize("bad", ["profile", "tes"])
    def test_bad_byte_in_a_fifo_is_reported_as_from_a_file(self, bad, profile_csv, tes_csv, tmp_path, capsys):
        inputs = {"profile": profile_csv, "tes": tes_csv}
        middle = len(inputs[bad]) // 2
        inputs[bad] = inputs[bad][:middle] + b"\xff" + inputs[bad][middle:]
        paths = []
        for name, data in inputs.items():
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_bytes(data)
        out = tmp_path / "tet.json"
        assert main(build_args(*paths, "--out", str(out))) == 1
        from_file = capsys.readouterr().err
        assert re.fullmatch(r"error: row \d+: BadEncoding: input is not valid UTF-8 at byte \d+\n", from_file)
        assert self._build_from_fifos(tmp_path, inputs["profile"], inputs["tes"], out) == 1
        assert capsys.readouterr().err == from_file
        assert not out.exists()

    def test_inputs_reach_the_parsers_as_open_files(self, fixture_paths, monkeypatch, tmp_path):
        # Each input reaches its parser as an open binary file, closed afterwards.
        seen = []

        def spy(parse):
            def call(data, *args, **kwargs):
                seen.append(data)
                return parse(data, *args, **kwargs)

            return call

        monkeypatch.setattr(ingest, "parse_profile", spy(ingest.parse_profile))
        monkeypatch.setattr(ingest, "parse_tes", spy(ingest.parse_tes))
        assert main(build_args(*fixture_paths, "--out", str(tmp_path / "tet.json"))) == 0
        assert [handle.name for handle in seen] == [str(path) for path in fixture_paths]
        assert all(isinstance(handle, io.BufferedReader) and handle.closed for handle in seen)

    @pytest.mark.parametrize("command", ["build", "render"])
    def test_out_into_missing_directory_names_the_path(self, command, fixture_paths, tet_json_path, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.out"
        if command == "build":
            args = build_args(*fixture_paths, "--out", str(out))
        else:
            args = ["render", "--tet", str(tet_json_path), "--out", str(out)]
        before = sorted(tmp_path.rglob("*"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"topictree: i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert ".tmp" not in err
        assert sorted(tmp_path.rglob("*")) == before


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
    "edges-string": (lambda doc: doc.update(edges="abc"), "malformed TET JSON"),
    "edges-object": (lambda doc: doc.update(edges={"a": 1}), "malformed TET JSON"),
    "edges-number": (lambda doc: doc.update(edges=5), "malformed TET JSON"),
    "edges-null": (lambda doc: doc.update(edges=None), "malformed TET JSON"),
    "edges-null-record": (lambda doc: doc.update(edges=[None]), "malformed TET JSON"),
    "edges-list-record": (lambda doc: doc.update(edges=[[1, 2]]), "malformed TET JSON"),
}


class TestStdout:
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path):
        # a latin-1 stdout can carry "café" only in the wrong bytes, and "日本" not at all
        profile, tes, tree = tmp_path / "profile.csv", tmp_path / "tes.csv", tmp_path / "tet.json"
        profile.write_text(
            "id,index,label,weight,year,words\n"
            "x,0,café,0.5,2001,\"['thé']\"\n"
            "y,1,日本,0.25,2002,\"['語']\"\n",
            encoding="utf-8",
        )
        tes.write_bytes(b"1,0.5\n,1\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONIOENCODING": "latin-1"}

        def cli(*args):
            return subprocess.run([sys.executable, "-m", "topictree.cli", *args], capture_output=True, env=env)

        assert cli(*build_args(profile, tes, "--out", str(tree))).returncode == 0
        render = ["render", "--tet", str(tree), "--format"]
        for k, args in enumerate([build_args(profile, tes), [*render, "svg"], [*render, "dot"]]):
            out = tmp_path / f"out{k}"
            assert cli(*args, "--out", str(out)).returncode == 0
            piped = cli(*args, "--out", "-")
            assert piped.returncode == 0, piped.stderr
            assert piped.stdout == out.read_bytes()

    def test_closed_stdout_is_an_io_error(self, fixture_paths, tet_json_path):
        # the child closes its file descriptor 1, then runs the CLI in its place
        exec_cli = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, '-m', 'topictree.cli', *sys.argv[1:]])"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for args in (build_args(*fixture_paths), ["render", "--tet", str(tet_json_path)]):
            proc = subprocess.run([sys.executable, "-c", exec_cli, *args, "--out", "-"], capture_output=True, text=True, env=env)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == "topictree: i/o error: standard output is closed\n"

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_pipe_is_an_io_error(self, tmp_path, tet_json_path, unbuffered):
        # An unbuffered stdout takes part of a write into a pipe whose reader has
        # gone and raises nothing; a buffered one fails again when it is flushed at exit.
        big = tmp_path / "big.json"
        big.write_text(to_json(build_tet(*random_instance(random.Random(12), max_n=200))), encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for tree, fmt, keep in ((big, "svg", 20), (big, "dot", 20), (tet_json_path, "dot", 0)):
            # the big documents outgrow a 64 KiB pipe; the small one meets a reader already gone
            cmd = [sys.executable, "-m", "topictree.cli", "render", "--tet", str(tree), "--format", fmt, "--out", "-"]
            read_end, write_end = os.pipe()
            if not keep:
                os.close(read_end)
            proc = subprocess.Popen(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env)
            os.close(write_end)
            if keep:
                with open(read_end, "rb") as reader:
                    assert len(reader.read(keep)) == keep
            err = proc.communicate(timeout=60)[1].decode()
            assert proc.returncode == 2, err
            assert re.fullmatch(r"topictree: i/o error: [^\n]+\n", err), err


def streamed(tet, fmt, show_root):
    """The pieces the CLI writes for ``tet`` in ``fmt``."""
    return _render_text(tet, fmt, CanvasSpec(), show_root)


def whole(tet, fmt, show_root):
    """The library's document for ``tet`` in ``fmt``, as UTF-8."""
    if fmt == "json":
        return to_json(tet).encode("utf-8")
    return (to_svg if fmt == "svg" else to_dot)(tet, show_root=show_root).encode("utf-8")


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["json", "svg", "dot"])
    @pytest.mark.parametrize("show_root", [False, True], ids=["no-root", "root"])
    def test_written_bytes_are_the_library_documents(self, fmt, show_root, tmp_path, capsysbinary, monkeypatch):
        out = tmp_path / "out"
        for tet in (*odd_tets(), build_tet(*random_instance(random.Random(12), max_n=200))):
            expected = whole(tet, fmt, show_root)
            count = sum(1 for _ in streamed(tet, fmt, show_root))
            # one piece per write, the real batch, and batches that leave the
            # piece count one below, at and one above a multiple of their size
            for batch in sorted({1, _BATCH, count - 1, count, count + 1}):
                monkeypatch.setattr("topictree.cli._BATCH", batch)
                _write_text(str(out), streamed(tet, fmt, show_root))
                _write_text("-", streamed(tet, fmt, show_root))
                assert out.read_bytes() == expected, batch
                assert capsysbinary.readouterr().out == expected, batch

    def test_commands_write_the_library_documents(self, fixture_paths, tmp_path, capsysbinary):
        profile, tes = fixture_paths
        out_dir = tmp_path / "run"
        assert main(["run", "--profile", str(profile), "--tes", str(tes), "--out-dir", str(out_dir)]) == 0
        tet = tet_from_json((out_dir / "tet.json").read_text(encoding="utf-8"))
        assert (out_dir / "tet.json").read_bytes() == whole(tet, "json", False)
        assert main(build_args(profile, tes)) == 0
        assert capsysbinary.readouterr().out == whole(tet, "json", False)
        for fmt in ("svg", "dot"):
            assert (out_dir / f"tet.{fmt}").read_bytes() == whole(tet, fmt, False)
            for show_root in (False, True):
                render = ["render", "--tet", str(out_dir / "tet.json"), "--format", fmt, *["--show-root"] * show_root]
                assert main([*render, "--out", str(tmp_path / "out")]) == 0
                assert main([*render, "--out", "-"]) == 0
                assert (tmp_path / "out").read_bytes() == whole(tet, fmt, show_root)
                assert capsysbinary.readouterr().out == whole(tet, fmt, show_root)

    def test_bad_argument_fails_before_anything_is_opened(self, tmp_path, capsysbinary):
        for path in (str(tmp_path / "out.svg"), "-"):
            with pytest.raises(ValueError, match="tet must be a Tet"):
                _write_text(path, _svg_lines("not a tree", None, False))
        assert list(tmp_path.iterdir()) == []
        assert capsysbinary.readouterr().out == b""

    @pytest.mark.parametrize("fmt,bound", [("svg", 100_000), ("dot", 64_000)])
    def test_write_memory_is_bounded(self, fmt, bound, tmp_path):
        # 122 topics and 2167 edges, a 373 kB SVG and a 74 kB DOT: writing in
        # batches of 64 lines peaks at about 82 kB and 53 kB on CPython 3.11,
        # and the bound leaves 20 % headroom. Batches of 512 lines peak at
        # about 237 kB and 97 kB, and joining the whole document before
        # writing it at about 1.31 MB and 359 kB.
        tet = build_tet(*random_instance(random.Random(12), max_n=200))
        assert tet.states  # derived on first use; every command derives them before it writes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _write_text(str(tmp_path / f"tet.{fmt}"), _render_text(tet, fmt, CanvasSpec(), False))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound


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

    def test_outputs_get_the_umask_mode(self, fixture_paths, tmp_path, umask_022):
        profile, tes = fixture_paths
        out_dir = tmp_path / "out"
        assert main(["run", "--profile", str(profile), "--tes", str(tes), "--out-dir", str(out_dir)]) == 0
        assert {p.name: mode_of(p) for p in out_dir.iterdir()} == dict.fromkeys(["tet.json", "tet.svg", "tet.dot"], 0o644)

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


class TestDefaults:
    def test_flag_defaults_are_the_model_defaults(self):
        args = make_parser().parse_args(["run", "--profile", "p.csv", "--tes", "t.csv", "--out-dir", "out"])
        assert _params_from_args(args) == EvolutionParams()
        assert _canvas_from_args(args) == CanvasSpec()


#: What a render never runs: the CSV parsers and the builder.
NOT_RENDERING = {"csv", "topictree.ingest", "topictree.builder"}


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
        modules = loaded_modules("import topictree.cli\nfrom topictree import *")
        assert {"topictree.builder", "topictree.ingest", "topictree.render"} <= modules
        loaded = {m.partition(".")[0] for m in modules}
        assert loaded - set(sys.stdlib_module_names) - {"__main__", "topictree"} == set()
        # xml.sax.saxutils alone would pull in urllib.request, http, email and ssl
        assert loaded & {"xml", "http", "email", "ssl", "socket"} == set()
        # dataclasses alone would pull in inspect, ast, dis and tokenize: about 10 ms of start-up
        assert modules & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()

    @pytest.mark.parametrize("code", ["import topictree", "import topictree.cli"])
    def test_import_loads_no_csv_code(self, code):
        assert loaded_modules(code) & NOT_RENDERING == set()

    @pytest.mark.parametrize("fmt", ["svg", "dot"])
    def test_render_loads_no_csv_code(self, fmt, tet_json_path, tmp_path):
        out = tmp_path / f"tet.{fmt}"
        argv = ["render", "--tet", str(tet_json_path), "--format", fmt, "--out", str(out)]
        modules = loaded_modules(f"import topictree.cli\nassert topictree.cli.main({argv!r}) == 0")
        assert out.read_bytes() and "topictree.render" in modules
        assert modules & NOT_RENDERING == set()
