"""repeaterlab benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload mc-n4-1280km --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload end to end with tracing off and prints
the end-to-end metrics; ``--trace 1`` runs the traced layer suite and a
traced pass of the workload and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the run
manifest, every metric with its sample count and the per-operation
outcomes is written to ``bench/out/``, next to the spans of a traced run.

The package is run from the checkout's ``src/`` directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import yardstick  # noqa: E402  (BENCH_DIR is sys.path[0])
from tracing import Tracer  # noqa: E402
from workloads import FULL, Sizes, Tally, Workload, build_workloads, judge_process, run_process  # noqa: E402

# name -> unit; BENCHMARK.json declares the same names and units.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "library_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Fresh-process execution against the checkout's ``src/``."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env.pop("REPEATERLAB_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        OUT_DIR.mkdir(exist_ok=True)

    def process(self, args: list[str]):
        return run_process([sys.executable, *args], self.env, ROOT, OUT_DIR)

    def import_time(self, module: str) -> float:
        res = self.process(["-c", f"import {module}"])
        if res.returncode != 0:
            raise RuntimeError(f"importing {module} failed: {res.stderr.strip()[-300:]}")
        return res.wall_s

    def cli(self, argv: list[str]):
        return self.process(["-m", "repeaterlab.cli", *argv])


def op_seed(seed: int, pass_index: int, op_index: int) -> int:
    """Simulation seed of one operation in one pass of a run."""
    return seed * 1_000_000 + pass_index * 10_000 + op_index * 100


class Samples:
    """Per operation and pass: seconds, and for in-process units also
    reference-speed seconds (see ``yardstick.py``)."""

    def __init__(self) -> None:
        self.scaled: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.yards: list[float] = []

    def add(self, name: str, pass_index: int, seconds: float, yard: float | None = None) -> None:
        """Add one timed unit; ``yard`` is the mean of the yardsticks around it."""
        scaled = seconds
        if yard is not None:
            self.yards.append(yard)
            scaled = seconds * yardstick.CPU_REFERENCE_S / yard
        for table, value in ((self.scaled, scaled), (self.raw, seconds)):
            row = table.setdefault(name, [])
            row.extend([0.0] * (pass_index + 1 - len(row)))
            row[pass_index] += value

    def per_pass(self, names, repeats: int = 1, factor: float = 1.0) -> dict:
        """Mean over passes of the named operations' seconds in one pass,
        times ``factor``."""
        names = list(names)
        scaled = [sum(v) / repeats * factor for v in zip(*(self.scaled[n] for n in names))]
        raw = [sum(v) / repeats for v in zip(*(self.raw[n] for n in names))]
        return {"value": statistics.mean(scaled), "raw_s": statistics.mean(raw), **_stats(scaled)}


def run_pass(workload: Workload, runner: Runner, seed: int, index: int, tally: Tally,
             samples: Samples | None = None, tracer: Tracer | None = None) -> float:
    """One pass over the workload's operations; returns the peak RSS of its CLI runs.

    With ``samples``, every timed unit is added, and yardsticks bracket the
    in-process ones.
    """
    from library import run_lib_op

    rss = 0.0
    for i, op in enumerate(workload.cli_ops):
        span = tracer.begin(f"op.{op.name}", new_operation=True) if tracer else None
        t0 = clock()
        res = runner.cli(op.command(op_seed(seed, index, i)))
        if tracer:
            tracer.record(f"cli.process.{op.argv[0]}", t0, clock())
            tracer.end(span)
        tally.add(op.name, judge_process(op, res))
        rss = max(rss, res.maxrss_mb)
        if samples is not None:
            samples.add(op.name, index, res.wall_s)
    for _ in range(workload.lib_repeats):
        for i, op in enumerate(workload.lib_ops, start=len(workload.cli_ops)):
            times, reason = run_lib_op(op, op_seed(seed, index, i), tracer,
                                       yardstick.cpu_seconds if samples is not None else None)
            tally.add(op.name, reason)
            for elapsed, unit_yard in times if samples is not None else ():
                samples.add(op.name, index, elapsed, unit_yard)
    return rss


def _stats(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2], "samples": len(values)}


def measure_end_to_end(workload: Workload, runner: Runner, seed: int, seconds: float,
                       sizes: Sizes, tally: Tally) -> tuple[dict, dict]:
    setup = [runner.import_time("repeaterlab.cli") for _ in range(sizes.setup_imports)]
    samples = Samples()

    durations, rss = [], []
    start = clock()
    while len(durations) < sizes.min_passes or clock() - start + statistics.median(durations) <= seconds:
        t0 = clock()
        rss.append(run_pass(workload, runner, seed, len(durations), tally, samples))
        durations.append(clock() - t0)

    repeats = workload.lib_repeats
    scale = yardstick.process_scale(statistics.median(samples.yards))
    metrics = {
        "setup_s": {"value": statistics.median(setup) * scale, "raw_s": statistics.median(setup),
                    **_stats([s * scale for s in setup])},
        "wall_s": samples.per_pass((op.name for op in workload.cli_ops), factor=scale),
        "library_s": samples.per_pass((op.name for op in workload.lib_ops), repeats),
        "peak_rss_mb": {"value": max(rss), "samples": len(rss)},
    }
    extra = {
        "passes": {"value": len(durations), "unit": "count", "samples": 1},
        "cpu_yardstick_s": {"value": statistics.median(samples.yards), "unit": "s", "samples": len(samples.yards)},
    }
    compare = [op for op in workload.lib_ops if op.kind == "compare"]
    if compare:
        part = samples.per_pass((op.name for op in compare), repeats)
        extra["trials_per_s"] = {"value": sum(op.trials * op.units for op in compare) / part["value"],
                                 "unit": "1/s", "samples": part["samples"]}
    oracle = [op.name for op in workload.lib_ops if op.kind == "oracle"]
    if oracle:
        extra["oracle_s"] = samples.per_pass(oracle, repeats) | {"unit": "s"}
    return metrics, extra


def measure_layers(workload: Workload, runner: Runner, seed: int, seconds: float,
                   sizes: Sizes, tally: Tally, tracer: Tracer) -> tuple[dict, dict]:
    import layers
    from library import run_unit

    start = clock()
    values = layers.measure_layers(tracer, sizes, seed, tally, runner.import_time)
    run_pass(workload, runner, seed, 0, tally, tracer=tracer)

    # Tracing overhead: each library call untraced and traced, in adjacent
    # pairs of alternating order; the median ratio.
    units = [(op, op_seed(seed, 0, i) + unit) for i, op in enumerate(workload.lib_ops, start=len(workload.cli_ops))
             for unit in range(op.units)]
    ratios = []
    scratch = Tracer()
    while len(ratios) < sizes.min_overhead_pairs or clock() - start < seconds:
        op, unit_seed = units[len(ratios) % len(units)]
        elapsed, records = {}, {}
        for sink in (None, scratch) if len(ratios) % 2 else (scratch, None):
            t0 = clock()
            records[sink is not None] = run_unit(op, unit_seed, sink)
            elapsed[sink is not None] = clock() - t0
        ratios.append(elapsed[True] / elapsed[False])
        if op.kind == "compare":
            same = records[True]["mean"] == records[False]["mean"]
            tally.add("traced-replay-matches", None if same else f"{op.name}: traced mean differs")
    values["trace.overhead_share"] = (statistics.median(ratios) - 1.0, len(ratios))
    metrics = {name: {"value": value, "samples": samples} for name, (value, samples) in values.items()}
    return metrics, {}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def manifest(workload: Workload, seed: int, seconds: float, trace: int, sizes: Sizes) -> dict:
    import numpy
    import scipy

    import repeaterlab

    trials = {op.name: op.trials * getattr(op, "units", 1) for op in (*workload.cli_ops, *workload.lib_ops) if op.trials}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repeaterlab": repeaterlab.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "trials_per_operation": trials,
        "sizes": dataclasses.asdict(sizes),
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: int, sizes: Sizes = FULL) -> dict:
    """Run one workload; returns the full result (the printed line is a subset)."""
    workload = build_workloads(sizes)[name]
    runner = Runner()
    tally = Tally()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tracer = Tracer()
    if trace:
        import layers
        units = layers.UNITS
        metrics, extra = measure_layers(workload, runner, seed, seconds, sizes, tally, tracer)
    else:
        units = END_TO_END_UNITS
        metrics, extra = measure_end_to_end(workload, runner, seed, seconds, sizes, tally)
    for key, stats in metrics.items():
        stats["unit"] = units[key]

    probes = {op.name for op in workload.cli_ops if op.probe}
    checked = [k for k in tally.attempts if k not in probes]
    attempted, failed = tally.counts(checked)
    all_attempted, all_failed = tally.counts(tally.attempts)
    return {
        "manifest": manifest(workload, seed, seconds, trace, sizes),
        "metrics": metrics,
        "extra": extra,
        "operations": {
            k: {"attempted": tally.attempts[k], "failed": len(tally.failures.get(k, [])),
                "probe": k in probes, "reasons": sorted(set(tally.failures.get(k, [])))[:5]}
            for k in tally.attempts
        },
        "failed_share": all_failed / all_attempted,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
    }


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()},
    })


def main(argv=None) -> int:
    workloads = build_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repeaterlab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a repeaterlab checkout", file=sys.stderr)
        return 2

    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
        result["span_summary"] = tracer.summary()
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for name, stats in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:34s} {stats['value']:.6g} {stats['unit']} (n={stats['samples']})")
    print(f"{'failed_share':34s} {result['failed_share']:.6g} (probes included)")
    for name, op in result["operations"].items():
        if op["failed"]:
            print(f"FAILED {name}: {op['failed']}/{op['attempted']} {'(probe) ' if op['probe'] else ''}{op['reasons'][:1]}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
