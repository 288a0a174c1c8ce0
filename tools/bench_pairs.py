"""Paired benchmark runs of two revisions, each from a freshly extracted copy.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --workload build-wide --seed 0 --pairs 10

`--workload` may be given more than once; without it, every workload named in
BENCHMARK.json runs. Each revision is extracted with `git archive` into its
own new temporary directory (same-length paths, nothing left over from
earlier builds, tests or runs). Pair k runs, for each workload W in turn,
`python3 perfbench/run.py --workload W --seed S` once in each copy, the
parent first on even k and the change first on odd k, and reads the JSON line
that run.py prints last. Every run uses run.py's own default length. For each
workload and every metric it prints each pair, each side's median and
quartiles, and in how many pairs the change was better (lower, except for
the metrics in HIGHER_IS_BETTER). For each end-to-end metric it also prints
a verdict against the metric's bound in BENCHMARK.json (see `verdict`).
Nothing under perfbench/ is written except what run.py writes in the copies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HIGHER_IS_BETTER = {"builder.retained_ratio"}


def extract(rev: str, dest: Path) -> str:
    """Write the files of `rev` into the new directory `dest`; return the full commit id."""
    git = ["git", "-C", str(REPO)]
    resolved = subprocess.run([*git, "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True, capture_output=True, text=True)
    commit = resolved.stdout.strip()
    archive = subprocess.run([*git, "archive", commit], check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def benchmark_workloads() -> list[str]:
    """The workload names BENCHMARK.json declares, in its order."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in declared["workloads"]]


def end_to_end_bounds() -> dict[str, float]:
    """Each end-to-end metric BENCHMARK.json declares, with its bound."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}


def run_once(copy: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py --workload` run in `copy`: its JSON line, plus its exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: run.py in {copy} printed no result:\n{proc.stdout}{proc.stderr}") from None
    result["exit"] = proc.returncode
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); with one value, that value three times."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: list[float], new: list[float], bound: float, lower: bool) -> str:
    """"over bound" when the change's median is worse than the parent's by more than `bound`;
    "unresolved" when, short of that, the parent's quartile spread is wider than `bound` and
    not every change run reads better than every parent run; else "within bound"."""
    (o1, om, o3), (_, nm, _) = summary(old), summary(new)
    if (nm - om if lower else om - nm) > bound:
        return "over bound"
    if o3 - o1 > bound and not (max(new) < min(old) if lower else min(new) > max(old)):
        return "unresolved"
    return "within bound"


def collect(old: Path, new: Path, workloads: list[str], seed: int, count: int, run) -> dict[str, list[tuple[dict, dict]]]:
    """`count` pairs of (parent, change) results per workload from `run(copy, workload, seed)`;
    pair k runs every workload, each in both copies."""
    pairs: dict[str, list[tuple[dict, dict]]] = {workload: [] for workload in workloads}
    for k in range(count):
        order = (old, new) if k % 2 == 0 else (new, old)
        for workload in workloads:
            results = {copy: run(copy, workload, seed) for copy in order}
            pairs[workload].append((results[old], results[new]))
        print(f"pair {k} done", file=sys.stderr, flush=True)
    return pairs


def report(pairs: list[tuple[dict, dict]], bounds: dict[str, float]) -> None:
    """Print the run counts, then each metric's pairs and summary; `bounds` maps each end-to-end metric to its bound."""
    for side, k in (("parent", 0), ("change", 1)):
        attempted = sum(p[k]["attempted"] for p in pairs)
        failed = sum(p[k]["failed"] for p in pairs)
        bad_runs = sum(p[k]["exit"] != 0 or not p[k]["correct"] for p in pairs)
        print(f"{side}: {failed} of {attempted} invocations failed; {bad_runs} of {len(pairs)} runs not correct")
    for name in pairs[0][0]["metrics"]:
        unit = pairs[0][0]["metrics"][name]["unit"]
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        lower = name not in HIGHER_IS_BETTER
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = summary(old), summary(new)
        print(f"\n{name} ({unit}, {'lower' if lower else 'higher'} is better)")
        for k, (a, b) in enumerate(zip(old, new)):
            first = "parent" if k % 2 == 0 else "change"
            print(f"  pair {k:2d} ({first} first): parent {a:.6g}  change {b:.6g}")
        print(f"  parent median {om:.6g} (quartiles {o1:.6g}-{o3:.6g})")
        print(f"  change median {nm:.6g} (quartiles {n1:.6g}-{n3:.6g})")
        print(f"  change better in {wins} of {len(pairs)} pairs")
        if name in bounds:
            print(f"  end-to-end bound {bounds[name]:g}: {verdict(old, new, bounds[name], lower)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="parent revision (any git revision name)")
    parser.add_argument("change", help="changed revision")
    parser.add_argument(
        "--workload", action="append", help="perfbench workload name; repeat for more (default: every one in BENCHMARK.json)"
    )
    parser.add_argument("--seed", type=int, default=0, help="perfbench input seed (default 0)")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = list(dict.fromkeys(args.workload or benchmark_workloads()))

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        old, new = Path(tmp) / "old", Path(tmp) / "new"
        print(f"parent {extract(args.parent, old)}\nchange {extract(args.change, new)}")
        print(f"workloads {', '.join(workloads)}, seed {args.seed}, {args.pairs} pairs", flush=True)
        pairs = collect(old, new, workloads, args.seed, args.pairs, run_once)
    bounds = end_to_end_bounds()
    for workload, results in pairs.items():
        print(f"\n=== workload {workload} ===")
        report(results, bounds)
    runs = [p[k] for results in pairs.values() for p in results for k in (0, 1)]
    return 0 if all(run["exit"] == 0 and run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
