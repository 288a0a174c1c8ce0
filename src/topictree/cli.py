"""Command-line entry point: ingest -> build -> layout -> render.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 bad arguments.
Configuration is flags-only; no environment variables are consulted. Output
documents are written as they are generated, after every check and the
layout. Files are written via temp-then-rename, with the mode a plain write
would give, so failures never leave partial files; an existing device or FIFO
is written directly.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

# The parser defaults need these two; each command imports the rest of what it runs.
from .layout import CanvasSpec
from .model import EvolutionParams, Tet, ThresholdMode

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 3


class _BadArguments(Exception):
    pass


class _Reported(Exception):
    """A CSV validation failure whose report is already printed."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 3."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    defaults = EvolutionParams()
    parser.add_argument("--profile", required=True, help="temporal topic profile CSV")
    parser.add_argument("--tes", required=True, help="TES matrix CSV (N x N, no header)")
    parser.add_argument("--min-tes", type=float, default=defaults.min_tes, help="minimum TES for an ancestry edge (default %(default)s)")
    parser.add_argument("--min-reborn", type=int, default=defaults.min_reborn, help="years of silence before a topic counts as reborn (default %(default)s)")
    parser.add_argument("--min-dead", type=int, default=defaults.min_dead, help="trailing years without influence before a topic counts as dead (default %(default)s)")
    parser.add_argument(
        "--threshold-mode",
        choices=[mode.value for mode in ThresholdMode],
        default=defaults.threshold_mode.value,
        help="compare TES against min-tes inclusively or exclusively (default %(default)s)",
    )
    parser.add_argument("--lenient", action="store_true", help="coerce fixable matrix violations to warnings")


def _add_render_flags(parser: argparse.ArgumentParser) -> None:
    defaults = CanvasSpec()
    parser.add_argument("--show-root", action="store_true", help="draw the dummy root and its edges")
    parser.add_argument("--width", type=float, default=defaults.width, help="canvas width (default %(default)g)")
    parser.add_argument("--height", type=float, default=defaults.height, help="canvas height (default %(default)g)")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topictree", description="Build and render topic evolution trees.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="parse the CSV inputs and write the tree as JSON")
    _add_build_flags(p_build)
    p_build.add_argument("--out", default="-", help="output path, or - for stdout (default)")
    p_build.set_defaults(func=cmd_build)

    p_render = sub.add_parser("render", help="render a tree JSON document as SVG or DOT")
    p_render.add_argument("--tet", required=True, help="tree JSON document produced by build")
    p_render.add_argument("--format", choices=["svg", "dot"], default="svg", help="output format (default svg)")
    p_render.add_argument("--out", default="-", help="output path, or - for stdout (default)")
    _add_render_flags(p_render)
    p_render.set_defaults(func=cmd_render)

    p_run = sub.add_parser("run", help="one-shot pipeline: write tet.json, tet.svg and tet.dot")
    _add_build_flags(p_run)
    _add_render_flags(p_run)
    p_run.add_argument("--out-dir", required=True, help="directory for the three output files")
    p_run.set_defaults(func=cmd_run)
    return parser


def _params_from_args(args: argparse.Namespace) -> EvolutionParams:
    try:
        return EvolutionParams(
            min_tes=args.min_tes,
            min_reborn=args.min_reborn,
            min_dead=args.min_dead,
            threshold_mode=ThresholdMode(args.threshold_mode),
        )
    except ValueError as exc:
        raise _BadArguments(str(exc)) from exc


def _canvas_from_args(args: argparse.Namespace) -> CanvasSpec:
    try:
        return CanvasSpec(width=args.width, height=args.height)
    except ValueError as exc:
        raise _BadArguments(str(exc)) from exc


def _print_lines(lines: Iterable[str]) -> None:
    for line in lines:
        print(line, file=sys.stderr)


#: Pieces joined into one write: a write per piece costs more than the join,
#: and a small batch keeps its pieces, text and bytes small while it is written.
_BATCH = 64


def _next_batch(pieces: Iterator[str]) -> bytes:
    """The next ``_BATCH`` pieces as UTF-8, each ended by a newline; empty at the end."""
    batch = list(islice(pieces, _BATCH))
    if batch:
        batch.append("")  # so the join ends the last piece too
    text = "\n".join(batch)
    del batch  # the pieces go before the text is encoded
    return text.encode("utf-8")


def _write_batches(handle: io.RawIOBase | io.BufferedIOBase, pieces: Iterator[str]) -> None:
    """Write ``pieces`` to ``handle``, one batch alive at a time."""
    while data := _next_batch(pieces):
        written = handle.write(data)
        if written != len(data):  # a pipe whose reader has gone can take part of a write and raise nothing
            raise OSError(f"write cut short: {written} of {len(data)} bytes written")
        del data  # so the next batch is made without this one


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the document whose lines, without newlines, are ``pieces``,
    a batch of lines at a time.

    The first piece is made before anything is opened, so every check and
    the layout finish before a byte is written. A regular file is written
    atomically: temp file in the target directory, then rename. The temp
    file has a short name of its own, so every target name the file system
    takes works. An existing target that is not a regular file (a device, a
    FIFO) is written directly, since renaming over it would replace it.
    Standard output gets UTF-8, as a file does, whatever the locale's
    encoding. A write that fails part way is an ``OSError``; on standard
    output or a device it can leave partial output.
    """
    pieces = iter(pieces)
    pieces = chain((next(pieces),), pieces)
    if path == "-":
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError("standard output is closed")
        sys.stdout.flush()
        try:
            _write_batches(sys.stdout.buffer, pieces)
            sys.stdout.buffer.flush()
        except OSError:
            # bytes left in the buffer would fail again at exit, with a second message
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    target = Path(path)
    if target.exists() and not target.is_file():
        with open(target, "wb") as handle:
            _write_batches(handle, pieces)
        return
    umask = os.umask(0o077)  # reading the umask means setting it
    os.umask(umask)
    mode = target.stat().st_mode & 0o7777 if target.exists() else 0o666 & ~umask
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=".topictree-", suffix=".tmp")
    except OSError as exc:  # it names the temp file, which the user never gave
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        os.chmod(tmp_name, mode)
        with os.fdopen(fd, "wb") as handle:
            _write_batches(handle, pieces)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _build_from_args(args: argparse.Namespace) -> Tet:
    from .builder import build_tet
    from .ingest import CsvValidationError, parse_profile, parse_tes

    params = _params_from_args(args)
    try:
        with open(args.profile, "rb") as handle:
            profile, profile_report = parse_profile(handle)
        _print_lines(profile_report.format_lines())
        with open(args.tes, "rb") as handle:
            matrix, matrix_report = parse_tes(handle, profile, lenient=args.lenient)
    except CsvValidationError as exc:
        _print_lines(exc.report.format_lines())
        raise _Reported from exc
    _print_lines(matrix_report.format_lines())
    return build_tet(profile, matrix, params)


def _render_text(tet: Tet, fmt: str, canvas: CanvasSpec, show_root: bool) -> Iterator[str]:
    from .render import _dot_lines, _svg_lines

    if fmt == "dot":
        return _dot_lines(tet, show_root)
    return _svg_lines(tet, canvas, show_root)


def cmd_build(args: argparse.Namespace) -> int:
    from .render import _json_lines

    _write_text(args.out, _json_lines(_build_from_args(args)))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    from .render import tet_from_json

    canvas = _canvas_from_args(args)
    tet = tet_from_json(Path(args.tet).read_text(encoding="utf-8"))
    _write_text(args.out, _render_text(tet, args.format, canvas, args.show_root))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    from .render import _json_lines

    # a bad canvas must fail before tet.json is written
    canvas = _canvas_from_args(args)
    tet = _build_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(str(out_dir / "tet.json"), _json_lines(tet))
    for fmt in ("svg", "dot"):
        _write_text(str(out_dir / f"tet.{fmt}"), _render_text(tet, fmt, canvas, args.show_root))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _BadArguments as exc:
        print(f"topictree: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Reported:
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"topictree: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"topictree: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
