"""The benchmark's workloads: operations, their inputs and output checks.

A workload is a list of CLI operations, each run as a fresh
``python -m repeaterlab.cli`` process the way a researcher runs the
tool, plus a list of library operations run in the benchmark's own
process with the import already paid.  Every operation's output is
checked; an operation fails when it exits with an unexpected code,
prints a traceback or its output misses the reference.

The ``--n 0`` probe in ``cli-analytic`` is a known defect at the time
the benchmark was defined (an uncaught ``ValueError`` at 1280 km).  It
is run and counted separately, so that the defect shows in
``failed_share`` while the workload's checked operations still all pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter as clock
from typing import Callable

# Reference values at the paper defaults (see README.md in this directory).
T_TOTAL_N4 = 4.37950010936605        # rates.t_total at n = 4, L = 1280 km
ORACLE_N0_L80 = 0.052941324296026444  # exact E[T], n = 0, L = 80 km
ORACLE_N1_L160 = 0.24172615879469816  # exact E[T], n = 1, L = 160 km
RATIO_N4 = 4.82                       # MC / analytic at n = 4, from 1e4 trials
N4_TRIAL_CV = 0.95                    # std / mean of one n = 4 trial's total time
ORACLE_REL_TOL = 1e-6
MC_Z_LIMIT = 4.0

TRACEBACK = "Traceback (most recent call last)"
PROCESS_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Sizes:
    """Trial counts and repeat counts of one benchmark run."""

    setup_imports: int = 3
    min_passes: int = 2
    n4_cli_trials: int = 20
    n4_cli_runs: int = 2
    n4_lib_units: int = 6
    n4_unit_trials: int = 50
    n0_cli_trials: int = 4000
    n1_cli_trials: int = 2000
    n01_lib_units: int = 4
    n0_unit_trials: int = 2000
    n1_unit_trials: int = 2000
    analytic_lib_repeats: int = 10
    layer_imports: int = 3
    layer_repeats: int = 5
    layer_micro_calls: int = 1000
    layer_n4_trials: int = 200
    layer_n0_trials: int = 4000
    layer_n1_trials: int = 2000
    min_overhead_pairs: int = 3


FULL = Sizes()


# ---------------------------------------------------------------------------
# Output checks: each takes the parsed JSONL records, returns a failure
# reason or None.
# ---------------------------------------------------------------------------

def check_rates(reference: float = T_TOTAL_N4) -> Callable[[list[dict]], str | None]:
    def check(records):
        value = records[0]["t_total"]
        if abs(value - reference) > 1e-12 * abs(reference):
            return f"t_total {value!r} differs from {reference!r}"
        return None
    return check


def check_optimal(key: str, count: int, optimum: float) -> Callable[[list[dict]], str | None]:
    def check(records):
        marked = [rec[key] for rec in records if rec["optimal"]]
        if len(records) != count or marked != [optimum]:
            return f"{len(records)} rows with optimum {marked}, expected {count} rows with optimum [{optimum}]"
        return None
    return check


def check_all_pass(records):
    failing = [rec.get("check", rec.get("quantity")) for rec in records if not rec["pass"]]
    if not records or failing:
        return f"rows not passing: {failing or 'no rows'}"
    return None


def check_mc_mean(reference: float) -> Callable[[list[dict]], str | None]:
    """The MC mean lies within MC_Z_LIMIT standard errors of ``reference``."""
    def check(records):
        rec = records[0]
        z = (rec["mean"] - reference) / rec["std_error"]
        if not abs(z) <= MC_Z_LIMIT:
            return f"mean {rec['mean']!r} is {z:.2f} SE from {reference!r}"
        return None
    return check


def check_mc_ratio(reference: float = RATIO_N4) -> Callable[[list[dict]], str | None]:
    """The MC / analytic ratio lies within MC_Z_LIMIT SE of ``reference``.

    The SE is the larger of the reported one and the one the reference
    distribution gives (per-trial coefficient of variation N4_TRIAL_CV):
    the sample SE of a few dozen right-skewed trial times is too small
    whenever no long trial was drawn.
    """
    def check(records):
        rec = records[0]
        floor = N4_TRIAL_CV * reference / rec["trials"] ** 0.5 if "trials" in rec else 0.0
        z = (rec["ratio"] - reference) / max(rec["std_error"] / rec["analytic"], floor)
        if not abs(z) <= MC_Z_LIMIT:
            return f"ratio {rec['ratio']!r} is {z:.2f} SE from {reference!r}"
        return None
    return check


def check_oracle(reference: float) -> Callable[[list[dict]], str | None]:
    def check(records):
        value = records[0]["expected_time"]
        if abs(value - reference) > ORACLE_REL_TOL * reference:
            return f"oracle {value!r} differs from {reference!r}"
        return None
    return check


def check_no_crash(records):
    return None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    """One ``repeaterlab`` invocation in a fresh process.

    ``trials`` > 0 appends ``--trials`` and the operation's ``--seed``.  A
    ``probe`` accepts the documented exit codes 0, 2 and 3 and is counted
    apart from the checked operations.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[list[dict]], str | None]
    trials: int = 0
    probe: bool = False

    def command(self, seed: int) -> list[str]:
        argv = list(self.argv) + ["--format", "jsonl"]
        if self.trials:
            argv += ["--trials", str(self.trials), "--seed", str(seed)]
        return argv


@dataclass(frozen=True)
class LibOp:
    """In-process library calls; ``kind`` selects the call in ``library.py``.

    A ``compare`` operation makes ``units`` calls of ``trials`` trials
    each, on consecutive seeds, and is checked on their pooled estimate.
    """

    name: str
    kind: str
    check: Callable[[list[dict]], str | None]
    n: int = 4
    l_km: float = 1280.0
    trials: int = 0
    units: int = 1
    argv: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """CLI and library operations; a pass runs every library op ``lib_repeats`` times."""

    name: str
    cli_ops: tuple[CliOp, ...]
    lib_ops: tuple[LibOp, ...]
    lib_repeats: int = 1


ANALYTIC_ARGV = {
    "rates": (("rates",), check_rates()),
    "sweep-n": (("sweep", "--param", "n", "--from", "1", "--to", "10"), check_optimal("n", 10, 6)),
    "sweep-eta_d": (("sweep", "--param", "eta_d", "--from", "0.5", "--to", "0.9", "--steps", "5"),
                    check_optimal("eta_d", 5, 0.9)),
    "reproduce-paper": (("reproduce-paper",), check_all_pass),
    "bsm-verify": (("bsm-verify", "--phases", "8"), check_all_pass),
}


def build_workloads(sizes: Sizes = FULL) -> dict[str, Workload]:
    n4 = ("simulate", "--n", "4", "--l-km", "1280", "--swap-comm", "off")
    n0 = ("simulate", "--n", "0", "--l-km", "80")
    n1 = ("simulate", "--n", "1", "--l-km", "160")
    workloads = (
        Workload(
            "mc-n4-1280km",
            tuple(CliOp(f"simulate-n4-{k}", n4, check_mc_ratio(), sizes.n4_cli_trials)
                  for k in range(1, sizes.n4_cli_runs + 1)),
            (LibOp("compare-n4", "compare", check_mc_ratio(), 4, 1280.0, sizes.n4_unit_trials, sizes.n4_lib_units),),
        ),
        Workload(
            "mc-n01-oracle",
            (
                CliOp("simulate-n0", n0, check_mc_mean(ORACLE_N0_L80), sizes.n0_cli_trials),
                CliOp("simulate-n1", n1, check_mc_mean(ORACLE_N1_L160), sizes.n1_cli_trials),
            ),
            (
                LibOp("compare-n0", "compare", check_mc_mean(ORACLE_N0_L80), 0, 80.0,
                      sizes.n0_unit_trials, sizes.n01_lib_units),
                LibOp("compare-n1", "compare", check_mc_mean(ORACLE_N1_L160), 1, 160.0,
                      sizes.n1_unit_trials, sizes.n01_lib_units),
                LibOp("oracle-n1", "oracle", check_oracle(ORACLE_N1_L160), 1, 160.0),
            ),
        ),
        Workload(
            "cli-analytic",
            tuple(CliOp(name, argv, check) for name, (argv, check) in ANALYTIC_ARGV.items())
            + (CliOp("probe-simulate-n0-1280km", ("simulate", "--n", "0"), check_no_crash, probe=True),),
            tuple(LibOp(f"main-{name}", "main", check, argv=argv) for name, (argv, check) in ANALYTIC_ARGV.items()),
            sizes.analytic_lib_repeats,
        ),
    )
    return {w.name: w for w in workloads}


# ---------------------------------------------------------------------------
# Outcomes and the process runner
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Attempts and failures per operation name."""

    attempts: dict[str, int] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)

    def add(self, name: str, reason: str | None) -> None:
        self.attempts[name] = self.attempts.get(name, 0) + 1
        if reason is not None:
            self.failures.setdefault(name, []).append(reason)

    def counts(self, names) -> tuple[int, int]:
        names = set(names)
        attempted = sum(v for k, v in self.attempts.items() if k in names)
        failed = sum(len(v) for k, v in self.failures.items() if k in names)
        return attempted, failed


@dataclass(frozen=True)
class ProcessResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def run_process(argv: list[str], env: dict, cwd, scratch_dir, timeout: float = PROCESS_TIMEOUT_S) -> ProcessResult:
    """Run ``argv`` to completion; wall time from spawn to reap, and the
    child's own max RSS from ``wait4``."""
    with tempfile.TemporaryFile(dir=scratch_dir) as out, tempfile.TemporaryFile(dir=scratch_dir) as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ProcessResult(
            returncode=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall_s=wall,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            timed_out=wall >= timeout,
        )


def judge_process(op: CliOp, res: ProcessResult) -> str | None:
    """Failure reason of one CLI run, or None."""
    allowed = (0, 2, 3) if op.probe else (0,)
    if res.timed_out:
        return f"timed out after {res.wall_s:.0f} s"
    if TRACEBACK in res.stderr or TRACEBACK in res.stdout:
        last = res.stderr.strip().splitlines()[-1:] or ["?"]
        return f"traceback: {last[0][:160]}"
    if res.returncode not in allowed:
        return f"exit code {res.returncode}"
    if res.returncode != 0:
        return None
    return judge_output(op.check, res.stdout)


def judge_output(check, stdout: str) -> str | None:
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        if not records:
            return "no output records"
        return check(records)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"


def capture_main(main, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()
