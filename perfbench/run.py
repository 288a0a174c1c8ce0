"""topictree CLI benchmark: closed loop, one client, one fresh process per invocation.

Run from the repository root:

    python3 perfbench/run.py                                  # all workloads, table
    python3 perfbench/run.py --workload run-dense --seed 3 --seconds 25 --trace 0

Each run generates its inputs from ``--seed`` (see gen.py), checks the
outputs (see check.py) and, with ``--workload``, prints one JSON line last:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_dot, check_svg, check_tree, tree_json
from gen import generate

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
# Inputs per run, invoked in turn. The cost of one input varies by about 13 %
# with its seed; a run that mixes eight spreads about a third as much.
INSTANCES = 8

# Printed, but left out of the JSON line: across runs p75 spreads more than the
# median when the host's speed drifts, and failed_frac, 0 on a correct
# program, is in the JSON as failed / attempted.
PRINTED_ONLY = ("wall_p75_s", "failed_frac")

# The installed `topictree` console script runs exactly this.
CLI = ["-c", "from topictree.cli import entrypoint; entrypoint()"]
SETUP_PROBE = [
    "-c",
    "import time; t = time.perf_counter(); import topictree.cli as m; "
    "print(time.perf_counter() - t, m.__file__)",
]


@dataclass(frozen=True)
class Workload:
    command: str  # run, build or render
    shape: tuple[int, int, float, int]  # generator (n, years, density, weight_levels)
    fmt: str = ""  # render format

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.command == "run":
            return ("tet.json", "tet.svg", "tet.dot")
        return ("tet.json",) if self.command == "build" else (f"tet.{self.fmt}",)


WORKLOADS = {
    "run-dense": Workload("run", (160, 16, 0.30, 101)),
    "render-crowded": Workload("render", (220, 4, 0.01, 21), "svg"),
    "build-wide": Workload("build", (700, 70, 0.002, 101)),
    "render-deep": Workload("render", (300, 30, 0.30, 101), "dot"),
}

TIME_LAYERS = (
    "ingest.parse_profile", "ingest.parse_tes",
    "builder.build_tet", "builder.candidate_parents", "builder.prune_candidates",
    "model.tet_init", "states.classify_all",
    "layout.compute_layout", "layout.compute_positions", "layout.place_labels",
    "render.to_json", "render.to_svg", "render.to_dot", "render.tet_from_json",
)  # fmt: skip
COUNTS = (
    "ingest.tes_cells",
    "builder.candidates", "builder.retained_edges", "builder.root_edges", "builder.retained_ratio",
    "states.born", "states.fused", "states.reborn", "states.emerging_flourishing",
    "states.split", "states.dead", "states.evolving_flourishing",
    "layout.labels_overlapping", "render.json_bytes", "render.svg_bytes", "render.dot_bytes",
)  # fmt: skip


def count_unit(key: str) -> str:
    return "B" if key.endswith("_bytes") else "ratio" if key.endswith("_ratio") else "count"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


class Run:
    """One workload run: its inputs on disk, the child environment and the output checks."""

    def __init__(self, name: str, seed: int) -> None:
        self.wl = WORKLOADS[name]
        self.work = OUT / f"work-{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # Bytecode caching on, as in an installed package; the untimed first call fills it.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py"), str(self.work / "stderr.log")],
            env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.instances = [generate(*self.wl.shape, seed * INSTANCES + k) for k in range(INSTANCES)]
        for k, inst in enumerate(self.instances):
            d = self.work / str(k)
            d.mkdir()
            if self.wl.command == "render":  # the tree JSON `topictree build` would write
                (d / "tree.json").write_text(tree_json(inst), encoding="utf-8")
            else:
                (d / "profile.csv").write_bytes(inst.profile_csv)
                (d / "tes.csv").write_bytes(inst.tes_csv)
        self.pinned = json.loads((HERE / "digests.json").read_text())[name] if seed == DEFAULT_SEED else None
        self.reference: list[dict[str, str] | None] = [None] * INSTANCES
        self.problems: list[str] = []

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, args: list[str], capture: bool = False) -> tuple[float, int, int, str]:
        """Run one child python to completion: (wall s, peak RSS KiB, exit code, stdout)."""
        stdout_path = self.work / "stdout.txt" if capture else None
        request = [stdout_path and str(stdout_path), sys.executable, *args]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the spawner process died")
        wall, rss, code = json.loads(reply)
        return wall, rss, code, stdout_path.read_text() if capture else ""

    def cli_args(self, d: Path) -> list[str]:
        if self.wl.command == "render":
            return ["render", "--tet", str(d / "tree.json"), "--format", self.wl.fmt, "--out", str(d / self.wl.outputs[0])]
        inputs = ["--profile", str(d / "profile.csv"), "--tes", str(d / "tes.csv")]
        if self.wl.command == "run":
            return ["run", *inputs, "--out-dir", str(d)]
        return ["build", *inputs, "--out", str(d / "tet.json")]

    def invoke(self, prefix: list[str], k: int) -> tuple[float, int, bool]:
        """One CLI invocation on input `k`: (wall s, peak RSS KiB, output correct)."""
        d = self.work / str(k)
        for name in self.wl.outputs:
            (d / name).unlink(missing_ok=True)
        wall, rss, code, _ = self.spawn(prefix + self.cli_args(d))
        if code != 0:
            return wall, rss, False
        digests = {name: _sha256(d / name) for name in self.wl.outputs}
        if self.reference[k] is None:
            self.reference[k] = digests
            self.problems += self._check(k, digests)
        return wall, rss, digests == self.reference[k] and not self.problems

    def _check(self, k: int, digests: dict[str, str]) -> list[str]:
        """The first output for input `k` is checked against the contract; later ones must match it."""
        d = self.work / str(k)
        tree_path = d / ("tree.json" if self.wl.command == "render" else "tet.json")
        tree_text = tree_path.read_text(encoding="utf-8")
        tree = json.loads(tree_text)
        problems = []
        if self.wl.command != "render":
            problems += check_tree(tree_text, self.instances[k])
        if "tet.svg" in digests:
            problems += check_svg((d / "tet.svg").read_text(encoding="utf-8"), tree)
        if "tet.dot" in digests:
            problems += check_dot((d / "tet.dot").read_text(encoding="utf-8"), tree)
        if self.pinned is not None:
            problems += [f"{name} differs from the recorded digest"
                         for name, digest in self.pinned[k].items() if digests[name] != digest]
        return [f"input {k}: {p}" for p in problems]


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, total duration minus the time covered by direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for span, covered in zip(spans, child):
        out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"] - covered
    return out


def _layer_metrics(layer_runs: list[dict[str, float]], counts: list[dict], overhead: float) -> dict:
    """Median self time per layer over traced invocations; counts summed over the run's inputs."""
    metrics = {}
    for layer in (*TIME_LAYERS, "cli.main"):
        name = "cli.other_s" if layer == "cli.main" else f"{layer}_s"
        metrics[name] = (statistics.median(r.get(layer, 0.0) for r in layer_runs), "s")
    total = {key: sum(c.get(key, 0) for c in counts) for key in COUNTS}
    if total["builder.candidates"]:
        total["builder.retained_ratio"] = total["builder.retained_edges"] / total["builder.candidates"]
    metrics.update((key, (value, count_unit(key))) for key, value in total.items())
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "topictree" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no topictree sources under {SRC}; run from the repository root")
    run = Run(name, seed)
    try:
        _, _, code, probe = run.spawn(SETUP_PROBE, capture=True)
        if code != 0 or not Path(probe.split(maxsplit=1)[1].strip()).is_relative_to(SRC):
            raise SystemExit(f"perfbench: topictree.cli does not import from {SRC}")
        run.invoke(CLI, 0)  # untimed: fills bytecode and page caches

        walls, rss, setups, traced_walls = [], [], [], []
        layer_runs: list[dict[str, float]] = []
        all_spans: list[dict] = []
        counts: list[dict | None] = [None] * INSTANCES
        absent: set[str] = set()
        attempted = failed = 0
        spans_path = run.work / "spans.json"
        traced_cli = [str(HERE / "trace_child.py"), str(spans_path), "--"]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(walls) < INSTANCES:
            k = len(walls) % INSTANCES
            wall, peak, ok = run.invoke(CLI, k)
            attempted += 1
            failed += not ok
            walls.append(wall)
            rss.append(peak)
            if not trace:
                setups.append(float(run.spawn(SETUP_PROBE, capture=True)[3].split()[0]))
                continue
            spans_path.unlink(missing_ok=True)
            wall, _, ok = run.invoke(traced_cli, k)
            attempted += 1
            failed += not ok
            traced_walls.append(wall)
            if not spans_path.exists():  # the traced child failed before writing its spans
                continue
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            for span in doc["spans"]:
                span["run"] = len(layer_runs)
            all_spans += doc["spans"]
            layer_runs.append(_self_times(doc["spans"]))
            absent.update(doc["absent"])
            if counts[k] is None:
                counts[k] = doc["counts"]
            elif doc["counts"] != counts[k]:
                failed += 1
                run.problems.append(f"input {k}: layer counts differ between traced runs")
    finally:
        run.close()

    result = {"name": name, "seed": seed, "attempted": attempted, "failed": failed, "problems": run.problems}
    if trace:
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(all_spans), encoding="utf-8")
        if None in counts:
            raise SystemExit(f"perfbench: {name}: traced runs failed on some inputs")
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        result["metrics"] = _layer_metrics(layer_runs, counts, overhead)
        result["absent"] = sorted(absent)
    else:
        result["metrics"] = {
            "wall_s": (statistics.median(walls), "s"),
            "wall_p75_s": (statistics.quantiles(walls, n=4)[2], "s"),
            "peak_rss_mb": (statistics.median(rss) / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    result["metrics"]["failed_frac"] = (failed / attempted, "fraction")
    return result


def _report(result: dict) -> None:
    print(f"{result['name']} (seed {result['seed']}): {result['attempted']} invocations, {result['failed']} failed")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<32} {value:.6g} {unit}")
    if result.get("absent"):
        print(f"  absent spans: {', '.join(result['absent'])}")
    for problem in result["problems"]:
        print(f"  FAIL: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        _report(result)
    correct = all(r["failed"] == 0 and not r["problems"] for r in results)
    if args.workload:
        result = results[0]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items() if k not in PRINTED_ONLY}
        print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
