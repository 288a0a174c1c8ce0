"""Resident memory of one `topictree` command, stage by stage.

Run from anywhere; the arguments are those of the `topictree` command:

    python3 tools/stage_rss.py render --tet tet.json --format dot --out /dev/null

The command runs in a fresh child process with `PYTHONPATH` set to the
repository's `src` and bytecode caching on (`PYTHONDONTWRITEBYTECODE` removed),
as perfbench runs it: compiling every import afresh reads about 1 MB higher,
so the first run after a source change reads high. The child wraps the stage
functions the command calls (STAGES), each in the module that defines it, and
writes one line per call to standard error: `VmRSS` from `/proc/self/status`,
in kB, before and after the call, and beside it the highest `VmHWM` read there
so far. The kernel can show a `VmHWM` lower than an earlier reading, so the raw
figure could fall from one line to the next; the highest one never does. The
first line covers importing `topictree.cli` and the modules that define the
command's stages, and no others: `render` loads no CSV code. The last line
covers the whole command with its exit code, which is also this script's exit
code.
Standard output is the command's own. Linux only.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Each command's stage functions, as `module.function` under `topictree`.
#: The CLI hands each input to its parser as the open file, so the
#: `parse_profile` and `parse_tes` lines cover reading that file too. The
#: emitters are generators that `_write_text` drives, so its line for an
#: output covers generating that document (and, for SVG, its layout) too.
_BUILD = ("ingest.parse_profile", "ingest.parse_tes", "builder.build_tet", "cli._write_text")
STAGES = {"build": _BUILD, "run": _BUILD, "render": ("render.tet_from_json", "cli._write_text")}


#: The highest VmHWM that `status` has read, in kB. Module state suffices:
#: the child that reports runs one command and exits.
_highest_hwm = 0


def status() -> tuple[int, int]:
    """VmRSS of this process and the highest VmHWM read so far, in kB."""
    global _highest_hwm
    values = {}
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(value.split()[0])
    _highest_hwm = max(_highest_hwm, values["VmHWM"])
    return values["VmRSS"], _highest_hwm


def report(name: str, before: tuple[int, int], after: tuple[int, int]) -> None:
    print(
        f"{name:<14} VmRSS {before[0]:>7} -> {after[0]:>7} kB  VmHWM {before[1]:>7} -> {after[1]:>7} kB",
        file=sys.stderr,
        flush=True,
    )


def traced(name: str, function):
    def call(*args, **kwargs):
        before = status()
        try:
            return function(*args, **kwargs)
        finally:
            report(name, before, status())

    return call


def child(argv: list[str]) -> int:
    """Run `topictree argv` in this process with every stage wrapped."""
    start = status()
    from topictree import cli

    stages = [stage.split(".") for stage in STAGES.get(argv[0] if argv else "", ())]
    modules = [importlib.import_module(f"topictree.{module}") for module, _ in stages]
    report("import", start, status())
    for module, (_, name) in zip(modules, stages):
        setattr(module, name, traced(name, getattr(module, name)))
    code = cli.main(argv)
    report(f"exit {code}", start, status())
    return code


def main(argv: list[str]) -> int:
    import subprocess  # here, not at the top: the child imports this module and measures itself

    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(REPO / "src")
    code = (
        f"import sys; sys.path.insert(0, {str(REPO / 'tools')!r}); "
        "import stage_rss; raise SystemExit(stage_rss.child(sys.argv[1:]))"
    )
    return subprocess.run([sys.executable, "-c", code, *argv], env=env).returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
