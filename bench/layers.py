"""Per-layer metrics, measured by a traced layer suite.

Every traced run executes the same suite, at fixed parameters and with
inputs from the run's seed, so a per-layer metric means the same thing on
every workload.  Each measurement is a span around a call from this file
into a public function of ``cli``, ``core``, ``rates``, ``fock``/``optics``
or ``sim``; the metrics are read back from the spans.
"""

from __future__ import annotations

import statistics
from time import perf_counter as clock

from repeaterlab import cli, core, fock, optics, rates, sim
from library import POLICY, params_for, replay
from tracing import Tracer
from workloads import ANALYTIC_ARGV, ORACLE_N1_L160, ORACLE_REL_TOL, Sizes, Tally, capture_main, judge_output

# name -> unit; BENCHMARK.json declares the same names and units.
UNITS = {
    "cli.import_s": "s",
    "cli.import_sim_s": "s",
    "cli.import_optics_s": "s",
    "cli.import_rates_s": "s",
    **{f"cli.main_ms.{name}": "ms" for name in ANALYTIC_ARGV},
    "cli.probe_n0_failed": "count",
    "core.validate_us": "us",
    "rates.t_total_us": "us",
    "rates.optimal_n_us": "us",
    "optics.local_pipeline_ms": "ms",
    "optics.link_pipeline_ms": "ms",
    "optics.swap_pipeline_ms": "ms",
    "optics.filtering_ms": "ms",
    "fock.dark_state_residual_us": "us",
    "optics.branch_count.local": "count",
    "optics.branch_count.link": "count",
    "optics.branch_count.swap": "count",
    "sim.estimate_s": "s",
    "sim.trial_ms.p50": "ms",
    "sim.trial_ms.p99": "ms",
    "sim.trial_ms.samples": "count",
    "sim.derive_seed_us": "us",
    "sim.link_builds_per_s": "1/s",
    "sim.oracle_s": "s",
    "sim.link_builds_per_trial": "count",
    "sim.link_attempts_per_build": "count",
    **{f"sim.swap_attempts_per_trial.l{lvl}": "count" for lvl in range(1, 5)},
    **{f"sim.swap_success_ratio.l{lvl}": "ratio" for lvl in range(1, 5)},
    "sim.mc_oracle_z.n0": "z",
    "sim.mc_oracle_z.n1": "z",
    "sim.mc_analytic_ratio.n4": "ratio",
    "trace.overhead_share": "ratio",
}

IMPORTS = {
    "cli.import_s": "repeaterlab.cli",
    "cli.import_sim_s": "repeaterlab.sim",
    "cli.import_optics_s": "repeaterlab.optics",
    "cli.import_rates_s": "repeaterlab.rates",
}
PROBE_ARGV = ["simulate", "--n", "0", "--format", "jsonl"]


def _median_of(tracer: Tracer, name: str, scale: float) -> tuple[float, int]:
    values = tracer.durations(name)
    return statistics.median(values) * scale, len(values)


def _batch(tracer: Tracer, name: str, fn, calls: int, repeats: int) -> None:
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            fn()
        tracer.record(name, t0, clock(), calls)


def _import_metrics(tracer: Tracer, sizes: Sizes, import_time) -> dict:
    out = {}
    for metric, module in IMPORTS.items():
        span = tracer.begin(f"layer.{metric}", new_operation=True)
        for _ in range(sizes.layer_imports):
            t0 = clock()
            import_time(module)
            tracer.record(f"cli.import.{module}", t0, clock())
        tracer.end(span)
        out[metric] = _median_of(tracer, f"cli.import.{module}", 1.0)
    return out


def _cli_metrics(tracer: Tracer, sizes: Sizes, tally: Tally) -> dict:
    out = {}
    span = tracer.begin("layer.cli", new_operation=True)
    for name, (argv, check) in ANALYTIC_ARGV.items():
        for _ in range(sizes.layer_repeats):
            t0 = clock()
            code, stdout = capture_main(cli.main, list(argv) + ["--format", "jsonl"])
            tracer.record(f"cli.main.{name}", t0, clock())
            tally.add(f"layer-main-{name}", f"exit code {code}" if code else judge_output(check, stdout))
        out[f"cli.main_ms.{name}"] = _median_of(tracer, f"cli.main.{name}", 1e3)
    # ROADMAP item 4: at 1280 km, n = 0 overflows the attempt count.
    t0 = clock()
    try:
        code, _ = capture_main(cli.main, PROBE_ARGV)
        failed = code not in (0, 2, 3)
    except Exception:  # the defect under probe is an uncaught exception
        failed = True
    tracer.record("cli.main.simulate-probe", t0, clock())
    out["cli.probe_n0_failed"] = (float(failed), 1)
    tracer.end(span)
    return out


def _closed_form_metrics(tracer: Tracer, sizes: Sizes) -> dict:
    params = core.paper_defaults()
    span = tracer.begin("layer.rates", new_operation=True)
    _batch(tracer, "core.validate", lambda: core.validate(params), sizes.layer_micro_calls, sizes.layer_repeats)
    _batch(tracer, "rates.t_total", lambda: rates.t_total(params), sizes.layer_micro_calls, sizes.layer_repeats)
    _batch(tracer, "rates.optimal_n", lambda: rates.optimal_n(params, 1, 10),
           max(1, sizes.layer_micro_calls // 10), sizes.layer_repeats)
    tracer.end(span)
    return {
        "core.validate_us": _median_of(tracer, "core.validate", 1e6),
        "rates.t_total_us": _median_of(tracer, "rates.t_total", 1e6),
        "rates.optimal_n_us": _median_of(tracer, "rates.optimal_n", 1e6),
    }


def _optics_metrics(tracer: Tracer, sizes: Sizes) -> dict:
    params = core.paper_defaults()
    pipelines = {
        "local": optics.local_entanglement_pipeline,
        "link": optics.link_pipeline,
        "swap": optics.swap_pipeline,
    }
    out = {}
    span = tracer.begin("layer.optics", new_operation=True)
    for name, pipeline in pipelines.items():
        for _ in range(sizes.layer_repeats):
            t0 = clock()
            report = pipeline(params)
            tracer.record(f"optics.{name}_pipeline", t0, clock())
        out[f"optics.{name}_pipeline_ms"] = _median_of(tracer, f"optics.{name}_pipeline", 1e3)
        out[f"optics.branch_count.{name}"] = (float(report.branch_count), 1)
    for _ in range(sizes.layer_repeats):
        t0 = clock()
        optics.filtering_accept_probabilities(params)
        tracer.record("optics.filtering_accept_probabilities", t0, clock())
    _batch(tracer, "fock.dark_state_residual", lambda: fock.dark_state_residual(1.3, 2.1, 2),
           max(1, sizes.layer_micro_calls // 100), sizes.layer_repeats)
    tracer.end(span)
    out["optics.filtering_ms"] = _median_of(tracer, "optics.filtering_accept_probabilities", 1e3)
    out["fock.dark_state_residual_us"] = _median_of(tracer, "fock.dark_state_residual", 1e6)
    return out


def _sim_metrics(tracer: Tracer, sizes: Sizes, seed: int, tally: Tally) -> dict:
    out = {}
    n4 = params_for(4, 1280.0)

    span = tracer.begin("layer.sim.n4", new_operation=True)
    t0 = clock()
    est = sim.estimate(n4, POLICY, sizes.layer_n4_trials, seed)
    tracer.record("sim.estimate", t0, clock())
    rec = replay(n4, sizes.layer_n4_trials, seed, tracer)
    tracer.end(span)
    tally.add("layer-replay-matches-estimate",
              None if rec["mean"] == est.mean and rec["link_attempts"] == est.link_attempts
              else f"replay mean {rec['mean']!r} != estimate mean {est.mean!r}")

    trial_ms = [d * 1e3 for d in tracer.durations("sim.simulate_trial")[-sizes.layer_n4_trials:]]
    trials = len(trial_ms)
    percentiles = statistics.quantiles(trial_ms, n=100, method="inclusive")
    swaps = rec["swap_attempts"]
    builds = 2 * swaps[0]
    out["sim.estimate_s"] = _median_of(tracer, "sim.estimate", 1.0)
    out["sim.trial_ms.p50"] = (percentiles[49], trials)
    out["sim.trial_ms.p99"] = (percentiles[98], trials)
    out["sim.trial_ms.samples"] = (float(trials), trials)
    out["sim.derive_seed_us"] = _median_of(tracer, "sim.derive_trial_seed", 1e6)
    out["sim.link_builds_per_s"] = (builds / (sum(trial_ms) / 1e3), trials)
    out["sim.link_builds_per_trial"] = (builds / trials, trials)
    out["sim.link_attempts_per_build"] = (rec["link_attempts"] / builds, trials)
    # Every level-l attempt consumes two level-(l-1) links, each made by one
    # successful level-(l-1) swap; the top level succeeds once per trial.
    successes = [2 * count for count in swaps[1:]] + [trials]
    for lvl, (attempts, won) in enumerate(zip(swaps, successes), start=1):
        out[f"sim.swap_attempts_per_trial.l{lvl}"] = (attempts / trials, trials)
        out[f"sim.swap_success_ratio.l{lvl}"] = (won / attempts, trials)
    out["sim.mc_analytic_ratio.n4"] = (rec["ratio"], trials)

    span = tracer.begin("layer.sim.oracle", new_operation=True)
    for n, l_km, count in ((0, 80.0, sizes.layer_n0_trials), (1, 160.0, sizes.layer_n1_trials)):
        params = params_for(n, l_km)
        t0 = clock()
        exact = sim.exact_expected_time_small(params, POLICY)
        tracer.record(f"sim.exact_expected_time_small.n{n}", t0, clock())
        t0 = clock()
        mc = sim.estimate(params, POLICY, count, seed)
        tracer.record(f"sim.estimate.n{n}", t0, clock())
        out[f"sim.mc_oracle_z.n{n}"] = ((mc.mean - exact) / mc.std_error, count)
    tracer.end(span)
    tally.add("layer-oracle-n1",
              None if abs(exact - ORACLE_N1_L160) <= ORACLE_REL_TOL * ORACLE_N1_L160
              else f"oracle {exact!r} differs from {ORACLE_N1_L160!r}")
    out["sim.oracle_s"] = _median_of(tracer, "sim.exact_expected_time_small.n1", 1.0)
    return out


def measure_layers(tracer: Tracer, sizes: Sizes, seed: int, tally: Tally, import_time) -> dict:
    """Per-layer metric name -> (value, sample count), all but the trace overhead.

    ``import_time(module)`` times a fresh-process import of ``module``.
    """
    out = {}
    out.update(_import_metrics(tracer, sizes, import_time))
    out.update(_cli_metrics(tracer, sizes, tally))
    out.update(_closed_form_metrics(tracer, sizes))
    out.update(_optics_metrics(tracer, sizes))
    out.update(_sim_metrics(tracer, sizes, seed, tally))
    return out
