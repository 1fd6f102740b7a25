"""The benchmark pair runner's summary: spreads, pairs lower, the ratio
of the medians, the Markdown table, the counts read from pytest's
summary line, and the trace-1 table (no benchmark or test suite is run)."""

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


def test_pytest_counts_read_the_closing_summary_line():
    counts = bench_pairs.pytest_counts
    assert counts("....\n437 passed in 50.12s\n") == {"passed": 437, "failed": 0}
    assert counts("F.\nFAILED tests/test_x.py::test_y - 3 passed\n"
                  "2 failed, 435 passed, 1 warning in 51.00s (0:00:51)\n\n") == {"passed": 435, "failed": 2}
    assert counts("1 failed, 10 passed, 2 errors in 3.10s") == {"passed": 10, "failed": 3}
    assert counts("no tests ran in 0.01s") == {"passed": 0, "failed": 0}
    assert counts("") == {"passed": 0, "failed": 0}


def test_tier1_line_names_both_sides():
    tier1 = {"parent": {"wall_s": 50.04, "exit": 0, "passed": 437, "failed": 0},
             "change": {"wall_s": 49.5, "exit": 1, "passed": 440, "failed": 1}}
    assert bench_pairs.tier1_line(tier1) == (
        "Tier-1, parent / change: 437 passed, 0 failed in 50.0 s / 440 passed, 1 failed in 49.5 s.")


PER_LAYER = [{"name": "optics.branch_count.link", "unit": "count", "better": "lower"},
             {"name": "optics.branch_count.swap", "unit": "count", "better": "lower"},
             {"name": "sim.mc_oracle_z.n1", "unit": "z", "better": "lower"},
             {"name": "optics.link_pipeline_ms", "unit": "ms", "better": "lower"},
             {"name": "rates.t_total_us", "unit": "us", "better": "lower"}]


def test_trace1_table_lists_only_metrics_that_differ():
    # Only differing counts and z-scores are listed; a differing timing
    # and metrics that BENCHMARK.json does not declare are counted.
    def run(metrics, failed=0):
        return {"metrics": metrics, "attempted": 12, "failed": failed}

    trace1 = {"w": {"parent": run({"optics.branch_count.link": 11.0, "optics.link_pipeline_ms": 2.0,
                                   "rates.t_total_us": 3.5, "sim.mc_oracle_z.n1": -0.5, "old.metric": 1.0}),
                    "change": run({"optics.branch_count.link": 1.0, "optics.link_pipeline_ms": 0.5,
                                   "rates.t_total_us": 3.5, "sim.mc_oracle_z.n1": 0.25, "new.metric": 0.0},
                                  failed=2)}}
    lines = bench_pairs.trace1_table(trace1, PER_LAYER).splitlines()
    assert lines[:2] == ["| workload | metric | parent | change | change / parent |", "|---|---|---|---|---|"]
    assert lines[2:4] == [
        "| w | `optics.branch_count.link` | 11 | 1 | −90.9% |",
        "| w | `sim.mc_oracle_z.n1` | -0.5 | 0.25 | −150.0% |",
    ]
    assert lines[4:] == ["", "Trace-1 failed operations, parent / change: w 0 of 12 / 2 of 12.",
                         "3 other trace-1 metrics differ; one run a side cannot resolve them."]


def test_trace1_table_of_equal_runs_has_no_rows():
    same = {"metrics": {"optics.branch_count.swap": 9.0}, "attempted": 3, "failed": 0}
    table = bench_pairs.trace1_table({"w": {"parent": same, "change": same}}, PER_LAYER)
    assert table.splitlines()[2:] == ["", "Trace-1 failed operations, parent / change: w 0 of 3 / 0 of 3.",
                                      "0 other trace-1 metrics differ; one run a side cannot resolve them."]
