"""In-process library operations, untraced and traced.

Importing this module imports ``repeaterlab``; ``run.py`` does so only
after it has timed the fresh-process imports.  The traced form of
``sim.compare_analytic`` is a replay of the same trials through
``sim.derive_trial_seed`` and ``sim.simulate_trial`` (the public
functions it is built from), with one span per call, so its mean is
bit-identical to the untraced call's.
"""

from __future__ import annotations

import math
from time import perf_counter as clock
from typing import Callable

import numpy as np

from repeaterlab import cli, rates, sim
from repeaterlab.core import paper_defaults
from tracing import Tracer
from workloads import LibOp, capture_main, judge_output

POLICY = sim.SimPolicy(swap_comm_time=False)


def params_for(n: int, l_km: float):
    return paper_defaults().with_overrides(n=n, L=l_km)


def replay(params, trials: int, seed: int, tracer: Tracer) -> dict:
    """``sim.compare_analytic`` rebuilt from its public parts, one span per call.

    Also sums the per-trial ``StageCounts``.
    """
    totals = np.empty(trials)
    prep = link = 0
    swaps = [0] * params.n
    for i in range(trials):
        t0 = clock()
        trial_seed = sim.derive_trial_seed(seed, i)
        t1 = clock()
        res = sim.simulate_trial(params, POLICY, trial_seed)
        t2 = clock()
        tracer.record("sim.derive_trial_seed", t0, t1)
        tracer.record("sim.simulate_trial", t1, t2)
        totals[i] = res.total_time
        prep += res.counts.prep_attempts
        link += res.counts.link_attempts
        for lvl, count in enumerate(res.counts.swap_attempts):
            swaps[lvl] += count
    t0 = clock()
    analytic = rates.t_total(params).t_total
    tracer.record("rates.t_total", t0, clock())
    mean = float(np.mean(totals))
    std_error = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return {
        "trials": trials, "mean": mean, "std_error": std_error, "analytic": analytic,
        "ratio": mean / analytic, "prep_attempts": prep, "link_attempts": link, "swap_attempts": swaps,
    }


def run_unit(op: LibOp, seed: int, tracer: Tracer | None = None) -> dict:
    """One call of ``op``; with a tracer, the traced form of the call."""
    params = params_for(op.n, op.l_km)
    if op.kind == "compare":
        if tracer is None:
            return sim.compare_analytic(params, POLICY, op.trials, seed).to_record()
        return replay(params, op.trials, seed, tracer)
    t0 = clock()
    if op.kind == "oracle":
        record = {"expected_time": sim.exact_expected_time_small(params, POLICY)}
        name = "sim.exact_expected_time_small"
    elif op.kind == "main":
        code, stdout = capture_main(cli.main, list(op.argv) + ["--format", "jsonl"])
        record = {"exit_code": code, "stdout": stdout}
        name = f"cli.main.{op.argv[0]}"
    else:
        raise ValueError(f"unknown library operation kind {op.kind!r}")
    if tracer:
        tracer.record(name, t0, clock())
    return record


def pooled(records: list[dict]) -> dict:
    """Mean and standard error over equal-sized independent estimates."""
    if len(records) == 1:
        return records[0]
    count = len(records)
    mean = sum(r["mean"] for r in records) / count
    std_error = math.sqrt(sum(r["std_error"] ** 2 for r in records)) / count
    analytic = records[0]["analytic"]
    trials = sum(r["trials"] for r in records)
    return {"trials": trials, "mean": mean, "std_error": std_error, "analytic": analytic, "ratio": mean / analytic}


def run_lib_op(op: LibOp, seed: int, tracer: Tracer | None = None,
               yardstick: Callable[[], float] | None = None) -> tuple[list[tuple[float, float]], str | None]:
    """Every unit of ``op`` (unit u uses seed ``seed + u``).

    With a ``yardstick``, one is measured before each unit and after the
    last.  Returns (seconds, mean of the yardsticks on either side) per
    unit, and the failure reason or None.
    """
    span = tracer.begin(f"op.{op.name}", new_operation=True) if tracer else None
    times, records = [], []
    try:
        yard = yardstick() if yardstick else 0.0
        for unit in range(op.units):
            start = clock()
            records.append(run_unit(op, seed + unit, tracer))
            elapsed = clock() - start
            after = yardstick() if yardstick else 0.0
            times.append((elapsed, (yard + after) / 2))
            yard = after
    except Exception as exc:  # a crash of the package is a failed operation
        return times, f"raised {exc!r}"
    finally:
        if tracer:
            tracer.end(span)
    if op.kind == "main":
        code = records[0]["exit_code"]
        return times, f"exit code {code}" if code else judge_output(op.check, records[0]["stdout"])
    return times, op.check([pooled(records)])
