"""Self-test of the benchmark: a tiny-size smoke run plus two output checks.

Run from the repository root:

    python3 bench/selftest.py

It checks that

* every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json declares, each with its declared unit and a finite value,
  and that its operations pass (the ``--n 0`` probe excepted);
* a deliberately wrong reference value is counted as a failed operation;
* two ``simulate`` runs with the same seed print byte-identical stdout
  (the determinism contract in the README), and another seed does not.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run
from workloads import CliOp, Sizes, Tally, check_rates, judge_process

TINY = Sizes(
    setup_imports=1, min_passes=1,
    n4_cli_trials=5, n4_cli_runs=1, n4_lib_units=2, n4_unit_trials=5,
    n0_cli_trials=200, n1_cli_trials=200, n01_lib_units=1, n0_unit_trials=200, n1_unit_trials=200,
    analytic_lib_repeats=1, layer_imports=1, layer_repeats=1, layer_micro_calls=10,
    layer_n4_trials=5, layer_n0_trials=200, layer_n1_trials=200, min_overhead_pairs=1,
)
SEED = 3


def smoke(declared: dict) -> list[str]:
    problems = []
    for name in run.build_workloads(TINY):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_benchmark(name, SEED, 0.1, trace, TINY)
            line = json.loads(run.summary_line(result))
            where = f"{name} trace={trace}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            bad = [k for k, v in line["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{where}: non-finite values for {bad}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                failing = {k: v["reasons"] for k, v in result["operations"].items() if v["failed"] and not v["probe"]}
                problems.append(f"{where}: failed operations {failing}")
            probes = [k for k, v in result["operations"].items() if v["probe"]]
            if name == "cli-analytic" and trace == 0 and not probes:
                problems.append(f"{where}: the --n 0 probe did not run")
            print(f"smoke {where}: {len(line['metrics'])} metrics, {line['attempted']} operations checked")
    return problems


def wrong_reference(runner: run.Runner) -> list[str]:
    op = CliOp("rates-wrong-reference", ("rates",), check_rates(reference=4.38))
    tally = Tally()
    tally.add(op.name, judge_process(op, runner.cli(op.command(0))))
    attempted, failed = tally.counts([op.name])
    print(f"wrong reference: {failed}/{attempted} failed")
    return [] if (attempted, failed) == (1, 1) else ["a wrong rates reference was not counted as a failure"]


def determinism(runner: run.Runner) -> list[str]:
    argv = ["simulate", "--n", "1", "--l-km", "160", "--trials", "300"]
    first, second, other = (runner.cli(argv + ["--seed", seed]) for seed in ("7", "7", "8"))
    same = first.returncode == second.returncode == 0 and first.stdout.encode() == second.stdout.encode()
    print(f"determinism: same seed identical={same}, other seed differs={other.stdout != first.stdout}")
    problems = [] if same else ["two simulate runs with the same seed printed different stdout"]
    if other.stdout == first.stdout:
        problems.append("simulate ignored --seed")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    runner = run.Runner()
    problems = wrong_reference(runner) + determinism(runner) + smoke(declared)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
