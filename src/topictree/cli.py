"""Command-line entry point: ingest -> build -> layout -> render.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 bad arguments.
Configuration is flags-only; no environment variables are consulted. Output
files are written via temp-then-rename so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .builder import build_tet
from .ingest import CsvValidationError, ValidationReport, parse_profile, parse_tes
from .layout import CanvasSpec, compute_layout
from .model import EvolutionParams, Tet, ThresholdMode
from .render import tet_from_json, to_dot, to_json, to_svg

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 3


class _BadArguments(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 3."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", required=True, help="temporal topic profile CSV")
    parser.add_argument("--tes", required=True, help="TES matrix CSV (N x N, no header)")
    parser.add_argument("--min-tes", type=float, default=0.2, help="minimum TES for an ancestry edge (default 0.2)")
    parser.add_argument("--min-reborn", type=int, default=2, help="years of silence before a topic counts as reborn (default 2)")
    parser.add_argument("--min-dead", type=int, default=1, help="trailing years without influence before a topic counts as dead (default 1)")
    parser.add_argument(
        "--threshold-mode",
        choices=[mode.value for mode in ThresholdMode],
        default=ThresholdMode.INCLUSIVE.value,
        help="compare TES against min-tes inclusively or exclusively (default inclusive)",
    )
    parser.add_argument("--lenient", action="store_true", help="coerce fixable matrix violations to warnings")


def _add_render_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--show-root", action="store_true", help="draw the dummy root and its edges")
    parser.add_argument("--width", type=float, default=1000.0, help="canvas width (default 1000)")
    parser.add_argument("--height", type=float, default=600.0, help="canvas height (default 600)")


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


def _print_report(report: ValidationReport) -> None:
    for line in report.format_lines():
        print(line, file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    if path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _build_from_args(args: argparse.Namespace) -> Tet:
    params = _params_from_args(args)
    profile, profile_report = parse_profile(Path(args.profile).read_bytes())
    _print_report(profile_report)
    matrix, matrix_report = parse_tes(Path(args.tes).read_bytes(), profile, lenient=args.lenient)
    _print_report(matrix_report)
    return build_tet(profile, matrix, params)


def _render_text(tet: Tet, fmt: str, args: argparse.Namespace) -> str:
    if fmt == "dot":
        return to_dot(tet, show_root=args.show_root)
    layout = compute_layout(tet, _canvas_from_args(args))
    return to_svg(tet, layout, show_root=args.show_root)


def cmd_build(args: argparse.Namespace) -> int:
    _write_text(args.out, to_json(_build_from_args(args)))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    tet = tet_from_json(Path(args.tet).read_text(encoding="utf-8"))
    _write_text(args.out, _render_text(tet, args.format, args))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    tet = _build_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(str(out_dir / "tet.json"), to_json(tet))
    for fmt in ("svg", "dot"):
        _write_text(str(out_dir / f"tet.{fmt}"), _render_text(tet, fmt, args))
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
    except CsvValidationError as exc:
        _print_report(exc.report)
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
