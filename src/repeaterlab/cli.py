"""Command line front end: ``repeaterlab <subcommand>``.

Subcommands: ``rates``, ``simulate``, ``sweep``, ``bsm-verify``,
``reproduce-paper``.  Every subcommand honors ``--format
{table,csv,jsonl}``; CSV uses '.' decimals and 17 significant digits so
values round-trip, JSONL emits one record per line.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3
guard (a zero-probability stage or local rate r p_l, a time, rate or
bound that is not a finite float, a run that ``rates.sampling_plan``
refuses to sample (too many expected preparation draws per link or
elementary links per trial), a --trials count whose array cannot be
allocated, a sweep grid, by --steps or integer, of more than
MAX_SWEEP_POINTS points, or a bsm-verify --phases above MAX_PHASES).
Flag overrides take precedence over the config file, which takes
precedence over the paper defaults.
REPEATERLAB_SEED provides the default seed (the --seed flag wins); a
negative seed is a config error.

Each subcommand imports the layer it runs inside its own function, so
only ``simulate`` loads numpy: ``rates``, ``sweep`` and
``reproduce-paper`` need ``rates`` alone, ``bsm-verify`` the plain-Python
``fock``/``optics`` and no ``sim``, and ``simulate`` no
``optics``/``fock``.  ``simulate`` checks --trials, the seed and the
sampling guards (``rates.sampling_plan``, their one owner) before it
imports numpy and ``sim``, and a ``simulate`` run that loads numpy sets
OPENBLAS_NUM_THREADS to 1 unless it is set; no output depends on it.

``main`` builds its parser once per process (``build_parser`` is
cached), so repeated in-process calls, as from tests or a notebook, pay
for the five subparsers once; a fresh process builds it once either way.
A ``repeaterlab`` process enters through ``run``, which turns the cyclic
garbage collector off around its one ``main`` call; ``main`` itself
leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import math
import os
import sys
import time

from . import __version__, rates
from .core import (_CONFIG_KEYS, _PROBABILITY_FIELDS, ConfigError, ProtocolParams, paper_defaults, parse_config,
                   require_valid, validate)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _load_params(args) -> ProtocolParams:
    """Config file (or paper defaults), then flag overrides, validated once."""
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                document = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not UTF-8 text: {exc}") from exc
        params = parse_config(document)
    else:
        params = paper_defaults()

    overrides = {}
    for key, field in _CONFIG_KEYS.items():
        value = getattr(args, key)
        if value is not None:
            overrides[field] = value
    params = require_valid(params.with_overrides(**overrides))
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
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = _default_seed(args)
    # The sampler makes the same plan; here its checks refuse a run before numpy loads.
    rates.sampling_plan(params)
    if "numpy" not in sys.modules:
        # simulate makes no BLAS call, so an OpenBLAS worker thread would
        # only slow numpy's import; a value the user exported wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    start = time.perf_counter()
    import numpy

    from . import sim

    loaded = time.perf_counter()
    policy = sim.SimPolicy(swap_comm_time=(args.swap_comm == "on"))
    comparison = sim.compare_analytic(params, policy, args.trials, seed)
    est, elapsed = comparison.estimate, time.perf_counter() - loaded
    args.manifest = (f", seed {seed}, {est.trials} trials, {loaded - start:.6f} s loading numpy and sim, "
                     f"{elapsed:.6f} s sampling, {elapsed / est.trials * 1e6:.1f} us per trial, "
                     f"{est.link_attempts / est.trials:.1f} link attempts and "
                     f"{est.prep_attempts / est.trials:.1f} preparation draws per trial, "
                     f"numpy {numpy.__version__}")
    _emit([{"seed": seed, **comparison.to_record()}], args.format, sys.stdout)
    return EXIT_OK


# Upper bound on a sweep's grid points: each point keeps a record of
# about 570 bytes until the grid is printed.
MAX_SWEEP_POINTS = 100_000


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """The ``steps`` points of ``numpy.linspace(start, stop, steps)``,
    computed in the same order (its branch for a step that underflows to
    zero included), so they agree bit for bit."""
    values = [start] * steps
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
    # grid's ends refuses an invalid grid before it is built; then the
    # point count is capped.
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
        count, request, ends = args.steps, f"--steps {args.steps}", (args.start, args.stop)
    else:
        lo, hi = math.ceil(args.start), math.floor(args.stop)
        count, request, ends = max(0, hi - lo + 1), f"--from {args.start} --to {args.stop}", (lo, hi)
    for value in ends[:count]:
        sweep_point(value)
    if not count:
        raise ConfigError(f"empty sweep grid [{args.start}, {args.stop}]")
    if count > MAX_SWEEP_POINTS:
        raise rates.GuardError(f"{request} asks for {count} grid points, more than the {MAX_SWEEP_POINTS} allowed")

    records = []
    for value in _linspace(args.start, args.stop, count) if args.steps is not None else range(lo, hi + 1):
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
    from . import optics
    from .fock import dark_state_residual, unitarity_defect

    def tol(default: float) -> float:
        return default if tolerance is None else tolerance

    checks = []

    checks.append(("bsm_unitarity", unitarity_defect(optics.BSM_UNITARY), tol(1e-10)))

    ideal = params.with_overrides(**dict.fromkeys(_PROBABILITY_FIELDS, 1.0))
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

    worst = 0.0
    for values in optics.FORMULA_CHECK_POINTS:
        point = params.with_overrides(**dict(zip(_PROBABILITY_FIELDS, values)))
        trio = (
            (optics.local_entanglement_pipeline(point).accept_prob, rates.p_local(point)),
            (optics.link_pipeline(point).accept_prob, rates.p_link(point)),
            (optics.swap_pipeline(point).accept_prob, rates.p_swap(point)),
        )
        # Where the formula is exactly 0 (fiber transmission underflows), compare absolutely.
        worst = max(worst, *(abs(a - b) / b if b else abs(a - b) for a, b in trio))
    checks.append(("engine_vs_formula_rel", worst, tol(1e-9)))

    residual = max(dark_state_residual(*point) for point in optics.DARK_STATE_CHECK_POINTS)
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing leaves it unchanged, and each ``parse_args`` call returns
    a fresh namespace."""
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


def run() -> None:
    """Entry point of a ``repeaterlab`` process: ``main`` with the cyclic
    garbage collector off, then every object frozen, so that neither
    numpy's import nor the collection at interpreter exit walks the heap.
    A warm ``main`` call leaves no cyclic garbage, and a process makes one
    call, so no memory is held back.  Exits with ``main``'s code."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
