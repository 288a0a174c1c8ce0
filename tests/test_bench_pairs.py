"""The pure parts of tools/bench_pairs.py: quartiles, win counts, failure counts, bound verdicts and the run order.

No git command and no perfbench run happens here.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(wall, ratio, attempted=10, failed=0, exit=0, correct=True):
    """One run.py result line as `run_once` returns it."""
    return {
        "attempted": attempted,
        "failed": failed,
        "exit": exit,
        "correct": correct,
        "metrics": {
            "wall_s": {"unit": "s", "value": wall},
            "builder.retained_ratio": {"unit": "ratio", "value": ratio},
        },
    }


def section(out, name):
    """The lines `report` prints for metric `name`."""
    return out.split(f"\n{name} (", 1)[1].split("\n\n", 1)[0]


class TestSummary:
    def test_one_value(self):
        assert bench_pairs.summary([0.5]) == (0.5, 0.5, 0.5)

    def test_ten_values(self):
        # statistics.quantiles' default "exclusive" method on 1..10
        assert bench_pairs.summary([float(v) for v in (7, 2, 9, 1, 10, 4, 3, 8, 6, 5)]) == (2.75, 5.5, 8.25)


class TestVerdict:
    def test_median_worse_by_more_than_the_bound_is_over_bound(self):
        assert bench_pairs.verdict([1.0] * 4, [1.5] * 4, 0.25, True) == "over bound"
        assert bench_pairs.verdict([1.0] * 4, [0.5] * 4, 0.25, False) == "over bound"

    def test_median_worse_by_at_most_the_bound_is_within_bound(self):
        assert bench_pairs.verdict([1.0] * 4, [1.25] * 4, 0.25, True) == "within bound"
        assert bench_pairs.verdict([1.0] * 4, [1.5] * 4, 0.25, False) == "within bound"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        # parent quartiles 0.5625 and 1.4375 by the exclusive method: a spread of 0.875
        parent = [0.5, 0.75, 1.25, 1.5]
        assert bench_pairs.verdict(parent, [1.0] * 4, 0.75, True) == "unresolved"
        assert bench_pairs.verdict(parent, [1.0] * 4, 0.875, True) == "within bound"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        parent = [0.5, 0.75, 1.25, 1.5]
        assert bench_pairs.verdict(parent, [0.25, 0.375, 0.4375, 0.375], 0.75, True) == "within bound"
        assert bench_pairs.verdict(parent, [0.25, 0.375, 0.5, 0.375], 0.75, True) == "unresolved"  # a tie is not better
        assert bench_pairs.verdict(parent, [1.75, 2.0, 1.625, 2.0], 0.75, False) == "within bound"

    def test_bounds_are_the_end_to_end_metrics_of_the_benchmark(self):
        assert bench_pairs.end_to_end_bounds() == {"wall_s": 0.25, "peak_rss_mb": 0.1, "setup_s": 0.25}

    def test_report_prints_a_verdict_for_bounded_metrics_only(self, capsys):
        pairs = [(result(0.20, 0.5), result(0.21, 0.5)), (result(0.20, 0.5), result(0.22, 0.5))]
        bench_pairs.report(pairs, {"wall_s": 0.05})
        out = capsys.readouterr().out
        assert section(out, "wall_s").endswith("\n  end-to-end bound 0.05: within bound")
        assert "bound" not in section(out, "builder.retained_ratio")
        bench_pairs.report(pairs, {"wall_s": 0.01})
        assert section(capsys.readouterr().out, "wall_s").endswith("\n  end-to-end bound 0.01: over bound")


class TestReport:
    def test_wins_count_each_metric_in_its_direction(self, capsys):
        pairs = [
            (result(0.20, 0.5), result(0.10, 0.6)),  # change lower wall, higher ratio: wins both
            (result(0.20, 0.5), result(0.30, 0.4)),  # change loses both
            (result(0.20, 0.5), result(0.20, 0.5)),  # ties count for neither
            (result(0.20, 0.5), result(0.19, 0.4)),  # wins wall, loses ratio
        ]
        bench_pairs.report(pairs, {})
        out = capsys.readouterr().out
        wall, ratio = section(out, "wall_s"), section(out, "builder.retained_ratio")
        assert wall.startswith("s, lower is better)")
        assert "change better in 2 of 4 pairs" in wall
        assert ratio.startswith("ratio, higher is better)")
        assert "change better in 1 of 4 pairs" in ratio
        assert "pair  1 (change first): parent 0.2  change 0.3" in wall

    def test_failed_and_incorrect_runs_counted_per_side(self, capsys):
        pairs = [
            (result(0.2, 0.5, failed=2), result(0.2, 0.5, exit=1)),
            (result(0.2, 0.5, failed=1, correct=False), result(0.2, 0.5, attempted=12)),
            (result(0.2, 0.5), result(0.2, 0.5, exit=1, correct=False)),
        ]
        bench_pairs.report(pairs, {})
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "parent: 3 of 30 invocations failed; 1 of 3 runs not correct"
        assert out[1] == "change: 0 of 32 invocations failed; 2 of 3 runs not correct"



class TestWorkloads:
    def test_default_is_every_benchmark_workload(self):
        assert bench_pairs.benchmark_workloads() == ["run-dense", "render-crowded", "build-wide", "render-deep"]

    def test_each_pair_runs_every_workload_in_both_copies_in_alternating_order(self):
        calls = []

        def run(copy, workload, seed):
            calls.append((copy, workload, seed))
            return result(len(calls), 0.5)

        pairs = bench_pairs.collect("old", "new", ["a", "b"], 3, 3, run)
        assert [(copy, workload) for copy, workload, _ in calls] == [
            ("old", "a"), ("new", "a"), ("old", "b"), ("new", "b"),
            ("new", "a"), ("old", "a"), ("new", "b"), ("old", "b"),
            ("old", "a"), ("new", "a"), ("old", "b"), ("new", "b"),
        ]
        assert {seed for _, _, seed in calls} == {3}
        # each pair keeps the parent's result first, whichever copy ran first
        walls = {w: [(p["metrics"]["wall_s"]["value"], c["metrics"]["wall_s"]["value"]) for p, c in v] for w, v in pairs.items()}
        assert walls == {"a": [(1, 2), (6, 5), (9, 10)], "b": [(3, 4), (8, 7), (11, 12)]}

    def test_report_has_one_block_per_workload(self, monkeypatch, capsys, tmp_path):
        seen = []
        monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: rev)
        monkeypatch.setattr(bench_pairs, "benchmark_workloads", lambda: ["x", "y", "z"])

        def run_once(copy, workload, seed):
            seen.append(workload)
            return result(0.2, 0.5, exit=int(workload == "y" and copy.name == "new"))

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        assert bench_pairs.main(["p", "c", "--workload", "y", "--workload", "x", "--pairs", "2"]) == 1
        out = capsys.readouterr().out
        assert set(seen) == {"x", "y"}
        assert out.count("\n=== workload ") == 2 and out.index("=== workload y") < out.index("=== workload x")
        assert "change: 0 of 20 invocations failed; 2 of 2 runs not correct" in out.split("=== workload y")[1]
        assert bench_pairs.main(["p", "c", "--pairs", "1"]) == 1  # y still fails
        assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("===")] == [
            "=== workload x ===", "=== workload y ===", "=== workload z ===",
        ]
