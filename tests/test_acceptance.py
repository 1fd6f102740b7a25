"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Monte Carlo criteria use the paper's hardware parameters at elementary-
link scale (L chosen so L_0 = 80 km): the full 1280 km distance on a
single link would give p_0 ~ 1e-14 and no finite test could sample it.
"""

import json
import math
import time

import numpy as np

from repeaterlab import optics, rates, sim
from repeaterlab.core import paper_defaults
from repeaterlab.fock import dark_state_residual
from repeaterlab.optics import BsmOutcome

IDEAL = paper_defaults().with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0)
OFF = sim.SimPolicy()


def _report(number: int, description: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s){suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_paper_numbers():
    start = time.monotonic()
    p = paper_defaults()
    t4 = rates.t_total(p.with_overrides(n=4)).t_total
    t6 = rates.t_total(p.with_overrides(n=6)).t_total
    balance = rates.balance_rate(p.with_overrides(n=4))
    df = rates.delta_f(4, 5e-6)
    n_star, _ = rates.optimal_n(p, 1, 10)
    elapsed = time.monotonic() - start
    ok = (
        4.31 <= t4 <= 4.49
        and 0.823 <= t6 <= 0.857
        and 3.72e6 <= balance <= 3.80e6
        and df == 1.6e-4
        and n_star == 6
        and elapsed < 1.0
    )
    _report(1, "paper-number reproduction", ok, elapsed,
            f"t4={t4:.4g} t6={t6:.4g} r*={balance:.4g} dF={df:.3g} n*={n_star}")


def test_criterion_2_engine_formula_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20_240_817)
    param_sets = [paper_defaults()]
    for _ in range(20):
        param_sets.append(paper_defaults().with_overrides(
            eta_p=rng.uniform(0.3, 1.0),
            eta_s=rng.uniform(0.3, 1.0),
            eta_e1=rng.uniform(0.3, 1.0),
            eta_e2=rng.uniform(0.3, 1.0),
            eta_d=rng.uniform(0.3, 1.0),
            L=float(rng.uniform(16, 1600)),
            L_att=float(rng.uniform(10, 50)),
        ))
    worst = 0.0
    for params in param_sets:
        pairs = (
            (optics.local_entanglement_pipeline(params).accept_prob, rates.p_local(params)),
            (optics.link_pipeline(params).accept_prob, rates.p_link(params)),
            (optics.swap_pipeline(params).accept_prob, rates.p_swap(params)),
        )
        worst = max(worst, *(abs(a - b) / b for a, b in pairs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, "engine-formula equivalence (defaults + 20 random sets)", ok, elapsed,
            f"worst rel dev {worst:.2e}")


def test_criterion_3_bsm_correctness():
    start = time.monotonic()
    grid = [2.0 * math.pi * i / 4 for i in range(4)]
    probs = []
    min_fid = 1.0
    for phi_l in grid:
        for phi_r in grid:
            report = optics.local_entanglement_pipeline(paper_defaults(), phi_l, phi_r)
            probs.append(report.accept_prob)
            for pat in report.patterns:
                if pat.outcome is not BsmOutcome.REJECT:
                    min_fid = min(min_fid, pat.fidelity)
    phase_spread = max(probs) - min(probs)

    psi_accept = 0.0
    for sign in (1.0, -1.0):
        reg = optics.ModeRegistry((
            optics.ModeId.photon("a", "H"), optics.ModeId.photon("a", "V"),
            optics.ModeId.photon("b", "H"), optics.ModeId.photon("b", "V"),
        ))
        state = optics.WeightedEnsemble.pure(reg, {
            (1, 0, 0, 1): 1 / math.sqrt(2), (0, 1, 1, 0): sign / math.sqrt(2),
        })
        results = optics.apply_bsm(state, 1.0)
        psi_accept += sum(
            r.probability for r in results if optics.classify(r.outcome) is not BsmOutcome.REJECT
        )

    ideal_dev = max(
        abs(optics.local_entanglement_pipeline(IDEAL).accept_prob - 0.5),
        abs(optics.link_pipeline(IDEAL.with_overrides(L=1e-15)).accept_prob - 0.5),
        abs(optics.swap_pipeline(IDEAL).accept_prob - 0.5),
    )
    elapsed = time.monotonic() - start
    ok = (
        min_fid >= 1.0 - 1e-9
        and phase_spread <= 1e-10
        and psi_accept == 0.0
        and ideal_dev <= 1e-10
        and elapsed < 30.0
    )
    _report(3, "BSM correctness (fidelity, phase independence, Bell classes)", ok, elapsed,
            f"min_fid={min_fid:.12f} spread={phase_spread:.2e} psi_accept={psi_accept:.2e}")


def test_criterion_4_filtering_property():
    start = time.monotonic()
    probs = optics.filtering_accept_probabilities(paper_defaults())
    worst = max(probs.values())
    elapsed = time.monotonic() - start
    _report(4, "spurious components filtered (vacuum, singles, doubles)", worst <= 1e-12,
            elapsed, f"max accept {worst:.2e}")


def test_criterion_5_dark_state():
    start = time.monotonic()
    rng = np.random.default_rng(48_151_623)
    worst = 0.0
    for _ in range(100):
        g = rng.uniform(0.05, 10.0)
        omega = rng.uniform(0.05, 10.0)
        n_atoms = int(rng.integers(1, 4))
        worst = max(worst, dark_state_residual(g, omega, n_atoms))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 5.0
    _report(5, "dark-state residual over 100 random couplings", ok, elapsed,
            f"max residual {worst:.2e}")


def test_criterion_6_monte_carlo_vs_oracle():
    start = time.monotonic()
    trials = 100_000
    details = []
    ok = True
    for n, length in ((0, 80.0), (1, 160.0)):
        params = paper_defaults().with_overrides(L=length, n=n)
        res = sim.estimate(params, OFF, trials, 2024)
        oracle = sim.exact_expected_time_small(params, OFF)
        z = (res.mean - oracle) / res.std_error
        details.append(f"n={n}: z={z:+.2f}")
        ok = ok and abs(res.mean - oracle) <= 3.0 * res.std_error

    repeat_a = json.dumps(sim.estimate(
        paper_defaults().with_overrides(L=160.0, n=1), OFF, 500, 77).to_record())
    repeat_b = json.dumps(sim.estimate(
        paper_defaults().with_overrides(L=160.0, n=1), OFF, 500, 77).to_record())
    ok = ok and repeat_a == repeat_b

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(6, "Monte Carlo vs exact oracle at 1e5 trials + determinism", ok, elapsed,
            "; ".join(details) + f"; byte-identical={repeat_a == repeat_b}")


def test_criterion_7_total_time_formula_audit():
    start = time.monotonic()
    trials = 10_000
    cmp = sim.compare_analytic(paper_defaults(), OFF, trials, 4242)
    sigma_rel = cmp.estimate.std_error / cmp.analytic
    elapsed = time.monotonic() - start
    ok = (1.0 - 3.0 * sigma_rel) <= cmp.ratio <= 8.0 and elapsed < 300.0
    # The analytic product formula is an approximation; the measured gap
    # is the recorded finding, not a reproduction target.
    _report(7, "analytic total-time approximation audit (n=4, 1e4 trials)", ok, elapsed,
            f"mc={cmp.estimate.mean:.3f}s analytic={cmp.analytic:.3f}s ratio={cmp.ratio:.3f}"
            f"+-{3 * sigma_rel:.3f}")


def test_criterion_8_pr_protocol_not_reproduced(capsys):
    from repeaterlab.cli import main

    start = time.monotonic()
    code = main(["reproduce-paper", "--format", "jsonl"])
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    reference = [rec for rec in records if rec["quantity"] == "pr_protocol_t_total_s"]
    ok = (
        code == 0
        and len(reference) == 1
        and reference[0]["not_computed"] is True
        and reference[0]["computed"] is None
        and reference[0]["paper"] == 107.6
        and reference[0]["note"] == "reference value, not computed"
    )
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(8, "PR-protocol figure carried as reference only", ok, elapsed)
