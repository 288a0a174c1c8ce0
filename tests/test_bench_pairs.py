"""The pure parts of tools/bench_pairs.py: quartiles, win counts and failure counts.

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


class TestReport:
    def test_wins_count_each_metric_in_its_direction(self, capsys):
        pairs = [
            (result(0.20, 0.5), result(0.10, 0.6)),  # change lower wall, higher ratio: wins both
            (result(0.20, 0.5), result(0.30, 0.4)),  # change loses both
            (result(0.20, 0.5), result(0.20, 0.5)),  # ties count for neither
            (result(0.20, 0.5), result(0.19, 0.4)),  # wins wall, loses ratio
        ]
        bench_pairs.report(pairs)
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
        bench_pairs.report(pairs)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "parent: 3 of 30 invocations failed; 1 of 3 runs not correct"
        assert out[1] == "change: 0 of 32 invocations failed; 2 of 3 runs not correct"

