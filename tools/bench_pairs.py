"""Alternating parent/change pairs of the benchmark, summarized.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 25 --out BENCH_<n>.json

For every workload that ``BENCHMARK.json`` declares, pair i runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once on each
side, at the seed ``--first-seed + 100 k + i`` for the k-th workload.
The side that runs first alternates from pair to pair, so slow drift of
the machine's speed hits both sides alike.  ``--parent`` and ``--change``
name git revisions, each exported with ``git archive`` into a temporary
directory; without ``--change`` the change is this checkout's working
tree.  Each side's benchmark runs against its own ``src/`` and writes
its own ``bench/out/``.  An A/A control passes the same revision as
both sides.  After the pairs, each side makes one ``--trace 1`` run per
workload at the first pair's seed, which measures the per-layer
metrics, and then runs the Tier-1 tests once, ``python -m pytest -q -p
no:cacheprovider`` with ``PYTHONPATH=src`` in its own directory.

The output file holds, per workload and side, the run manifests, the
per-pair metric values with their median and quartiles, and the
attempted and failed operations of every run; per metric, the number of
pairs in which the change is lower and the change/parent ratio of the
medians; under ``trace1``, per workload and side, the trace-1 run's
per-layer metrics and failed operations; per side, the Tier-1 wall
seconds and passed and failed counts.  Printed to stdout: the Markdown
table of the end-to-end numbers, a second table of the per-layer
metrics whose values differ between the sides, listing only counts and
z-scores (which one run reproduces) and counting the rest, and a line
with the Tier-1 runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def checkout(spec: str | None, scratch: Path, name: str) -> tuple[Path, dict]:
    """The directory that runs revision ``spec`` (None: the working tree), and what it is."""
    if spec is None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        return ROOT, {"spec": "working tree", "commit": git("rev-parse", "HEAD"), "dirty": dirty}
    commit = git("rev-parse", "--verify", spec + "^{commit}")
    target = scratch / name
    target.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, {"spec": spec, "commit": commit, "dirty": False}


def run_once(side: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run; the parts of its results file that pairs compare."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    res = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {side} exited {res.returncode}: {res.stderr.strip()[-500:]}")
    with open(side / "bench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        result = json.load(fh)
    return {
        "seed": seed,
        "manifest": result["manifest"],
        "metrics": {name: stats["value"] for name, stats in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_share": result["failed_share"],
        "failed_operations": {name: op for name, op in result["operations"].items() if op["failed"]},
    }


def pytest_counts(output: str) -> dict:
    """The passed and failed tests that pytest's closing summary line,
    the last non-blank line of ``output``, reports; errors count as failed."""
    lines = [line for line in output.splitlines() if line.strip()]
    counts = {word: int(number) for number, word in re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)}


def run_tier1(side: Path) -> dict:
    """One Tier-1 run in ``side``: its wall seconds, exit code and counts."""
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"], cwd=side,
                         env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, "exit": res.returncode, **pytest_counts(res.stdout)}


def tier1_line(tier1: dict) -> str:
    return "Tier-1, parent / change: " + " / ".join(
        f"{t['passed']} passed, {t['failed']} failed in {t['wall_s']:.1f} s" for t in tier1.values()) + "."


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric, each side's spread, the pairs in which the change is
    lower, and the change/parent ratio of the medians."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: spread([run["metrics"][name] for run in runs[side]]) for side in ("parent", "change")}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "pairs_lower": sum(c < p for p, c in zip(sides["parent"]["values"], sides["change"]["values"])),
            "ratio": sides["change"]["median"] / sides["parent"]["median"],
        }
    return out


def markdown_table(report: dict) -> str:
    def cell(stats: dict) -> str:
        return f"{stats['median']:.4g} ({stats['q1']:.4g}–{stats['q3']:.4g})"

    lines = ["| workload | metric | parent | change | change / parent | change lower |", "|---|---|---|---|---|---|"]
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            change = f"{(m['ratio'] - 1) * 100:+.1f}%".replace("-", "−")
            lines.append(f"| {workload} | `{name}` ({m['unit']}) | {cell(m['parent'])} | {cell(m['change'])} | "
                         f"{change} | {m['pairs_lower']}/{len(m['parent']['values'])} |")
    failed = "; ".join(
        f"{workload} " + " / ".join(f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}"
                                    for runs in entry["sides"].values())
        for workload, entry in report["workloads"].items())
    return "\n".join(lines) + f"\n\nFailed operations, parent / change: {failed}."


def trace1_table(trace1: dict, per_layer: list[dict]) -> str:
    """Markdown table of the trace-1 per-layer metrics whose values differ
    between the sides and whose ``per_layer`` unit is ``count`` or ``z``,
    a line with the runs' failed operations, and a closing line with how
    many other metrics differ."""
    def cell(value) -> str:
        return "—" if value is None else f"{value:.4g}"

    # One run reproduces a count or a z-score exactly; a timing, rate or
    # share from one run a side is noise until pairs give it a spread.
    exact = {m["name"] for m in per_layer if m["unit"] in ("count", "z")}
    lines = ["| workload | metric | parent | change | change / parent |", "|---|---|---|---|---|"]
    others = 0
    for workload, sides in trace1.items():
        parent, change = sides["parent"]["metrics"], sides["change"]["metrics"]
        for name in sorted(parent.keys() | change.keys()):
            p, c = parent.get(name), change.get(name)
            if p == c:
                continue
            if name not in exact:
                others += 1
                continue
            ratio = f"{(c / p - 1) * 100:+.1f}%".replace("-", "−") if p and c is not None else "—"
            lines.append(f"| {workload} | `{name}` | {cell(p)} | {cell(c)} | {ratio} |")
    failed = "; ".join(
        f"{workload} " + " / ".join(f"{run['failed']} of {run['attempted']}" for run in sides.values())
        for workload, sides in trace1.items())
    return "\n".join(lines + ["", f"Trace-1 failed operations, parent / change: {failed}.",
                              f"{others} other trace-1 metrics differ; one run a side cannot resolve them."])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", default=None, help="git revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=9100)
    parser.add_argument("--out", type=Path, required=True, help="JSON report")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.first_seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --first-seed >= 0")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        dirs, report = {}, {"pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
        for side, spec in (("parent", args.parent), ("change", args.change)):
            dirs[side], report[side] = checkout(spec, Path(scratch), side)
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i in range(args.pairs):
            for k, workload in enumerate(workloads):
                seed = args.first_seed + 100 * k + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[workload][side].append(run_once(dirs[side], workload, seed, args.seconds))
                    print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                          f"wall_s {runs[workload][side][-1]['metrics']['wall_s']:.4f}", file=sys.stderr)
        report["trace1"] = {
            workload: {side: run_once(dirs[side], workload, args.first_seed + 100 * k, args.seconds, trace=1)
                       for side in ("parent", "change")}
            for k, workload in enumerate(workloads)}
        report["tier1"] = {side: run_tier1(dirs[side]) for side in ("parent", "change")}
    for workload in workloads:
        report["workloads"][workload] = {"sides": runs[workload],
                                         "metrics": summarize(runs[workload], declared["end_to_end"])}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(markdown_table(report))
    print()
    print(trace1_table(report["trace1"], declared["per_layer"]))
    print(tier1_line(report["tier1"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
