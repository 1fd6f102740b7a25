"""Command line front end: ``repeaterlab <subcommand>``.

Subcommands: ``rates``, ``simulate``, ``sweep``, ``bsm-verify``,
``reproduce-paper``.  Every subcommand honors ``--format
{table,csv,jsonl}``; CSV uses '.' decimals and 17 significant digits so
values round-trip, JSONL emits one record per line.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3
guard (a zero-probability stage or local rate r p_l, a time, rate or
bound that is not a finite float, a link success probability too
small to sample, a --trials count, --steps count or integer sweep
grid whose array cannot be allocated, or a bsm-verify --phases above
MAX_PHASES).  Flag overrides take precedence
over the config file, which takes precedence over the paper defaults.
REPEATERLAB_SEED provides the default seed (the --seed flag wins); a
negative seed is a config error.

Each subcommand imports the layer it runs inside its own function, so
``rates``, ``sweep`` and ``reproduce-paper`` load no numpy,
``simulate`` no ``optics``/``fock`` and ``bsm-verify`` no ``sim``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

from . import __version__, rates
from .core import _CONFIG_KEYS, ConfigError, ProtocolParams, load_config, paper_defaults, validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _load_params(args) -> ProtocolParams:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                document = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not UTF-8 text: {exc}") from exc
        params = load_config(document)
    else:
        params = paper_defaults()

    overrides = {}
    for key, field in _CONFIG_KEYS.items():
        value = getattr(args, key)
        if value is not None:
            overrides[field] = value
    params = params.with_overrides(**overrides)
    result = validate(params)
    if not result.ok:
        raise ConfigError("invalid parameter values for: " + ", ".join(result.violations))
    if args.verbose:
        print(f"parameters: {params}", file=sys.stderr)
    return params


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(records: list[dict], fmt: str, stream) -> None:
    if not records:
        return
    if fmt == "jsonl":
        for rec in records:
            stream.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        keys = list(records[0].keys())
        out = csv.writer(stream, lineterminator="\n")
        out.writerow(keys)
        for rec in records:
            out.writerow([_format_cell(rec[k]) for k in keys])
    else:
        keys = list(records[0].keys())
        rows = [[_table_cell(rec[k]) for k in keys] for rec in records]
        widths = [max(len(k), *(len(r[i]) for r in rows)) for i, k in enumerate(keys)]
        stream.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for row in rows:
            stream.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _table_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _default_seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("REPEATERLAB_SEED", "0")
        try:
            seed, source = int(env), "REPEATERLAB_SEED"
        except ValueError as exc:
            raise ConfigError(f"REPEATERLAB_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rates(args, params: ProtocolParams) -> int:
    report = rates.t_total(params)
    _emit([report.to_record()], args.format, sys.stdout)
    return EXIT_OK


def cmd_simulate(args, params: ProtocolParams) -> int:
    from . import sim

    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    policy = sim.SimPolicy(swap_comm_time=(args.swap_comm == "on"))
    seed = _default_seed(args)
    start = time.perf_counter()
    comparison = sim.compare_analytic(params, policy, args.trials, seed)
    est, elapsed = comparison.estimate, time.perf_counter() - start
    args.manifest = (f", {est.trials} trials, {elapsed / est.trials * 1e6:.1f} us per trial, "
                     f"{est.link_attempts / est.trials:.1f} link attempts and "
                     f"{est.prep_attempts / est.trials:.1f} preparation draws per trial")
    _emit([{"seed": seed, **comparison.to_record()}], args.format, sys.stdout)
    return EXIT_OK


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """The ``steps`` points of ``numpy.linspace(start, stop, steps)``,
    computed in the same order (its branch for a step that underflows to
    zero included), so they agree bit for bit."""
    try:
        values = [start] * steps
    except (MemoryError, OverflowError) as exc:
        raise rates.GuardError(f"--steps {steps} asks for {steps} grid points, more than can be allocated") from exc
    if steps > 1:
        span, div = stop - start, steps - 1
        step = span / div
        for i in range(1, div):
            values[i] = start + (i * step if step else i / div * span)
        values[-1] = stop
    return values


def cmd_sweep(args, params: ProtocolParams) -> int:
    key = args.param
    if key not in _CONFIG_KEYS.values():
        raise ConfigError(f"unknown sweep parameter {key!r}; one of {', '.join(_CONFIG_KEYS.values())}")
    for flag, bound in (("--from", args.start), ("--to", args.stop), ("--to minus --from", args.stop - args.start)):
        if not math.isfinite(bound):
            raise ConfigError(f"{flag} must be a finite number, got {bound}")

    def sweep_point(value):
        if key == "n":
            if float(value) != int(value):
                raise ConfigError(f"sweep over n needs integer values, got {value}")
            value = int(value)
        point = params.with_overrides(**{key: value})
        check = validate(point)
        if not check.ok:
            raise ConfigError(f"sweep value {value} invalid for: " + ", ".join(check.violations))
        return value, point

    # Each parameter's valid values form an interval, so checking the
    # grid's ends refuses an invalid grid before it is built.
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
        for value in (args.start, args.stop)[:args.steps]:
            sweep_point(value)
        values = _linspace(args.start, args.stop, args.steps)
    else:
        lo, hi = math.ceil(args.start), math.floor(args.stop)
        for value in (lo, hi)[:max(0, hi - lo + 1)]:
            sweep_point(value)
        try:
            values = list(range(lo, hi + 1))
        except (MemoryError, OverflowError) as exc:
            raise rates.GuardError(f"--from {args.start} --to {args.stop} asks for {hi - lo + 1} integer grid points, "
                                   "more than can be allocated") from exc
    if not values:
        raise ConfigError(f"empty sweep grid [{args.start}, {args.stop}]")

    records = []
    for value in values:
        value, point = sweep_point(value)
        records.append({key: value, **rates.t_total(point).to_record()})
    best = min(range(len(records)), key=lambda i: records[i]["t_total"])
    for i, rec in enumerate(records):
        rec["optimal"] = i == best
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


# Upper bound on --phases: the phase grid runs phases^2 local pipelines.
MAX_PHASES = 64


def _bsm_checks(phases: int, tolerance: float | None, params: ProtocolParams) -> list[dict]:
    """Run the optics invariant suite; one record per check."""
    import numpy as np

    from . import optics
    from .fock import dark_state_residual

    def tol(default: float) -> float:
        return default if tolerance is None else tolerance

    checks = []

    unit = optics.BSM_UNITARY
    value = float(np.max(np.abs(unit.conj().T @ unit - np.eye(4))))
    checks.append(("bsm_unitarity", value, tol(1e-10)))

    ideal = params.with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0)
    grid = [2.0 * math.pi * i / phases for i in range(phases)]
    probs = []
    min_fid = 1.0
    for phi_l in grid:
        for phi_r in grid:
            report = optics.local_entanglement_pipeline(ideal, phi_l, phi_r)
            probs.append(report.accept_prob)
            min_fid = min(min_fid, report.fidelity)
    checks.append(("phase_independence_spread", max(probs) - min(probs), tol(1e-10)))
    checks.append(("corrected_fidelity_shortfall", 1.0 - min_fid, tol(1e-9)))

    # L = 0 makes the fiber transmission exactly 1.0 at any L_att.
    for name, pipeline in (
        ("ideal_local_accept_minus_half", optics.local_entanglement_pipeline),
        ("ideal_link_accept_minus_half", lambda p: optics.link_pipeline(p.with_overrides(L=0.0))),
        ("ideal_swap_accept_minus_half", optics.swap_pipeline),
    ):
        checks.append((name, abs(pipeline(ideal).accept_prob - 0.5), tol(1e-10)))

    filtering = optics.filtering_accept_probabilities(params)
    checks.append(("filtering_max_accept", max(filtering.values()), tol(1e-12)))

    rng = np.random.default_rng(819230475)
    worst = 0.0
    for _ in range(5):
        point = params.with_overrides(
            eta_p=rng.uniform(0.3, 1.0),
            eta_s=rng.uniform(0.3, 1.0),
            eta_e1=rng.uniform(0.3, 1.0),
            eta_e2=rng.uniform(0.3, 1.0),
            eta_d=rng.uniform(0.3, 1.0),
        )
        trio = (
            (optics.local_entanglement_pipeline(point).accept_prob, rates.p_local(point)),
            (optics.link_pipeline(point).accept_prob, rates.p_link(point)),
            (optics.swap_pipeline(point).accept_prob, rates.p_swap(point)),
        )
        # Where the formula is exactly 0 (fiber transmission underflows), compare absolutely.
        worst = max(worst, *(abs(a - b) / b if b else abs(a - b) for a, b in trio))
    checks.append(("engine_vs_formula_rel", worst, tol(1e-9)))

    residual = 0.0
    for _ in range(20):
        g = rng.uniform(0.1, 5.0)
        omega = rng.uniform(0.1, 5.0)
        n_atoms = int(rng.integers(1, 4))
        residual = max(residual, dark_state_residual(g, omega, n_atoms))
    checks.append(("dark_state_residual", residual, tol(1e-12)))

    return [
        {"check": name, "value": value, "tolerance": limit, "pass": value <= limit}
        for name, value, limit in checks
    ]


def cmd_bsm_verify(args, params: ProtocolParams) -> int:
    if args.phases < 1:
        raise ConfigError(f"--phases must be >= 1, got {args.phases}")
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    if args.phases > MAX_PHASES:
        raise rates.GuardError(f"--phases {args.phases} asks for {args.phases}^2 = {args.phases ** 2} local pipelines, "
                               f"more than the {MAX_PHASES}^2 = {MAX_PHASES ** 2} allowed")
    records = _bsm_checks(args.phases, args.tolerance, params)
    _emit(records, args.format, sys.stdout)
    return EXIT_OK if all(rec["pass"] for rec in records) else EXIT_CHECK_FAILED


_PAPER_ROWS = (
    # (quantity, paper value, computation)
    ("t_total_n4_s", 4.4, lambda p: rates.t_total(p.with_overrides(n=4)).t_total),
    ("t_total_n6_s", 0.84, lambda p: rates.t_total(p.with_overrides(n=6)).t_total),
    ("balance_rate_hz", 3.76e6, lambda p: rates.balance_rate(p.with_overrides(n=4))),
    ("delta_f_n4", 1.6e-4, lambda p: rates.delta_f(4, 5e-6)),
    ("optimal_n", 6.0, lambda p: float(rates.optimal_n(p, 1, 10)[0])),
)

_REPRODUCE_TOLERANCE = 0.02


def cmd_reproduce_paper(args, params: ProtocolParams) -> int:
    records = []
    for name, paper_value, compute in _PAPER_ROWS:
        value = compute(params)
        deviation = abs(value - paper_value) / abs(paper_value)
        records.append({
            "quantity": name,
            "computed": value,
            "paper": paper_value,
            "rel_deviation": deviation,
            "pass": deviation <= _REPRODUCE_TOLERANCE,
            "not_computed": False,
            "note": "",
        })
    records.append({
        "quantity": "pr_protocol_t_total_s",
        "computed": None,
        "paper": 107.6,
        "rel_deviation": None,
        "pass": True,
        "not_computed": True,
        "note": "reference value, not computed",
    })
    _emit(records, args.format, sys.stdout)
    return EXIT_OK if all(rec["pass"] for rec in records) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeaterlab",
        description="Quantum-repeater protocol laboratory: analytic rates, "
                    "state-level verification and Monte Carlo chain simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="JSON config file (missing keys take paper defaults)")
    group = shared.add_argument_group("parameter overrides (take precedence over --config)")
    for key in _CONFIG_KEYS:
        group.add_argument("--" + key.replace("_", "-"), dest=key, type=int if key == "n" else float)
    shared.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")
    shared.add_argument("--verbose", action="store_true", help="diagnostics on stderr")

    p_rates = sub.add_parser("rates", parents=[shared], help="analytic rate report for one parameter set")
    p_rates.set_defaults(func=cmd_rates)

    p_sim = sub.add_parser("simulate", parents=[shared], help="Monte Carlo chain simulation vs the analytic total time")
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="root seed (default: REPEATERLAB_SEED or 0)")
    p_sim.add_argument("--swap-comm", choices=("on", "off"), default="off",
                       help="add the classical confirmation delay per swap attempt")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="rate report over a parameter grid")
    p_sweep.add_argument("--param", required=True, help="ProtocolParams field to sweep")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=None,
                         help="number of grid points (omitted: integer sweep)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("bsm-verify", parents=[shared], help="state-level invariant suite of the Bell analyzer")
    p_verify.add_argument("--phases", type=int, default=4,
                          help=f"phase-grid resolution per axis, at most {MAX_PHASES}")
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="override every check tolerance (default: per-check)")
    p_verify.set_defaults(func=cmd_bsm_verify)

    p_paper = sub.add_parser("reproduce-paper", parents=[shared], help="reproduce the headline numbers")
    p_paper.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        return args.func(args, _load_params(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except rates.GuardError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_GUARD
    finally:
        if args.verbose:
            loaded = sorted(m for m in sys.modules if m.startswith("repeaterlab."))
            print(f"repeaterlab {__version__} {args.command}: {time.perf_counter() - start:.6f} s"
                  f"{getattr(args, 'manifest', '')}, modules {' '.join(loaded)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
