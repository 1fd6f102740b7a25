"""The benchmark pair runner's summary: spreads, pairs lower, the ratio
of the medians, and the Markdown table (no benchmark is run)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(values, failed=0):
    return [{"metrics": {"wall_s": v}, "attempted": 10, "failed": failed} for v in values]


def test_summary_counts_pairs_lower_and_ratio_of_medians():
    runs = {"parent": _runs([1.0, 2.0, 3.0, 4.0, 5.0]), "change": _runs([0.9, 2.1, 2.7, 3.6, 4.5], failed=1)}
    summary = bench_pairs.summarize(runs, [{"name": "wall_s", "unit": "s", "better": "lower"}])["wall_s"]
    assert summary["pairs_lower"] == 4
    assert summary["parent"] == {"values": [1.0, 2.0, 3.0, 4.0, 5.0], "median": 3.0, "q1": 1.5, "q3": 4.5}
    assert summary["change"]["median"] == 2.7
    assert summary["ratio"] == 2.7 / 3.0

    table = bench_pairs.markdown_table({"workloads": {"w": {"sides": runs, "metrics": {"wall_s": summary}}}})
    assert "| w | `wall_s` (s) | 3 (1.5–4.5) | 2.7 (1.5–4.05) | −10.0% | 4/5 |" in table.splitlines()
    assert table.endswith("Failed operations, parent / change: w 0 of 50 / 5 of 50.")


def test_one_pair_has_its_value_as_quartiles():
    spread = bench_pairs.spread([0.25])
    assert spread == {"values": [0.25], "median": 0.25, "q1": 0.25, "q3": 0.25}
