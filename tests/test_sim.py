import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from repeaterlab import rates
from repeaterlab.core import paper_defaults
from repeaterlab.sim import (
    SimPolicy,
    SimulationGuardError,
    _first_order,
    _level0_pulses,
    _pcg64_states,
    _SEED_CHUNK,
    _SLICE_DRAWS,
    _trial_seeds,
    compare_analytic,
    derive_trial_seed,
    estimate,
    exact_expected_time_small,
    expected_pulses_both_ready,
    simulate_trial,
)

OFF = SimPolicy()
ON = SimPolicy(swap_comm_time=True)

# Paper hardware parameters at elementary-link scale: L chosen so that
# L_0 stays 80 km (the full 1280 km link would have p_0 ~ 1e-14).
N0 = paper_defaults().with_overrides(L=80.0, n=0)
N1 = paper_defaults().with_overrides(L=160.0, n=1)


# ---------------------------------------------------------------------------
# determinism and event accounting
# ---------------------------------------------------------------------------

def test_trial_determinism():
    a = simulate_trial(N1, OFF, 987654321)
    b = simulate_trial(N1, OFF, 987654321)
    assert a == b


def test_trials_differ_across_seeds():
    a = simulate_trial(N0, OFF, 1)
    b = simulate_trial(N0, OFF, 2)
    assert a.total_time != b.total_time


def test_estimate_determinism():
    a = estimate(N1, OFF, 300, 7)
    b = estimate(N1, OFF, 300, 7)
    assert a == b


def test_derive_trial_seed_is_stable_and_distinct():
    seeds = [derive_trial_seed(42, i) for i in range(100)]
    assert seeds == [derive_trial_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100


def test_unit_probabilities_single_link():
    # One prep pulse, one flight: exactly 1/r + L_0/c.
    res = simulate_trial(N0, OFF, 5, stage_probs=(1.0, 1.0, 1.0))
    assert res.total_time == 1.0 / N0.r + N0.l0 / N0.c
    assert res.counts.prep_attempts == 2
    assert res.counts.link_attempts == 1


def test_unit_probabilities_chain_runs_fully_parallel():
    # All links complete simultaneously and swaps are free, so the chain
    # takes exactly one link-build time.
    params = paper_defaults().with_overrides(L=320.0, n=2)
    res = simulate_trial(params, OFF, 11, stage_probs=(1.0, 1.0, 1.0))
    assert res.total_time == pytest.approx(1.0 / params.r + params.l0 / params.c, rel=1e-12)
    assert res.counts.link_attempts == 4
    assert res.counts.swap_attempts == (2, 1)


def test_total_time_lower_bound():
    for seed in range(20):
        res = simulate_trial(N1, OFF, seed)
        assert res.total_time >= 1.0 / N1.r + N1.l0 / N1.c
        assert res.counts.prep_attempts >= 1
        assert res.counts.link_attempts >= 1
        assert all(c >= 1 for c in res.counts.swap_attempts)


def test_zero_probability_guard():
    with pytest.raises(SimulationGuardError):
        simulate_trial(N0.with_overrides(eta_d=0.0), OFF, 3)
    with pytest.raises(SimulationGuardError):
        estimate(N1.with_overrides(eta_e2=0.0), OFF, 10, 3)
    # Stage probabilities given directly must lie in (0, 1].
    with pytest.raises(ValueError, match="p_0"):
        simulate_trial(N0, OFF, 3, stage_probs=(0.5, 1.5, 1.0))
    with pytest.raises(ValueError, match="p_l"):
        simulate_trial(N0, OFF, 3, stage_probs=(0.0, 0.5, 1.0))


def test_single_link_draws_are_sliced():
    # 2/p_0 = 4e6 expected preparation draws on one elementary link (32 MB
    # as int64 if held at once) are drawn as the link's compound sums.
    tracemalloc.start()
    try:
        res = simulate_trial(N0, OFF, 17, stage_probs=(0.5, 5e-7, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.counts.link_attempts > 2**15  # the sliced path ran
    assert peak < 4 * 2**20


def _moments(x):
    """(mean, SE) and (variance, SE) of a sample."""
    x = np.asarray(x, dtype=float)
    mean, var = x.mean(), x.var(ddof=1)
    m4 = np.mean((x - mean) ** 4)
    return (mean, math.sqrt(var / len(x))), (var, math.sqrt((m4 - var * var) / len(x)))


def _assert_agree(direct, compound, links=1):
    """Per-link mean and variance agree within 4 SE; each ``compound``
    value sums ``links`` iid links."""
    for (vd, sd), (vc, sc) in zip(_moments(direct), _moments(compound)):
        assert abs(vd - vc / links) <= 4.0 * math.hypot(sd, sc / links)


@pytest.mark.parametrize("p_l", [0.3, 0.99])
def test_level0_paths_agree_in_distribution(p_l):
    # The same launch counts through both level-0 paths: one link per call
    # is drawn pulse by pulse, 600 links per call from compound sums.  At
    # p_l = 0.99 most links have no untied launch (B = 0).
    k, links = 64, 600
    launches = np.full(links, k)
    assert 2 * k <= _SLICE_DRAWS < 2 * k * links
    rng = np.random.default_rng(8128)
    direct = [_level0_pulses(rng, p_l, launches[:1]) for _ in range(20_000)]
    compound = [_level0_pulses(rng, p_l, launches) for _ in range(1500)]
    _assert_agree([pulses[0] for pulses, _ in direct], np.concatenate([pulses for pulses, _ in compound]))
    # Only a request's total prep attempts are returned.
    _assert_agree([prep for _, prep in direct], [prep for _, prep in compound], links)


def test_compound_single_link_matches_closed_form():
    # About 1e6 launches per link: nearly every trial draws its link from
    # compound sums, and the mean total time is (E[max of two prep waits]
    # slot + flight) / p_0.
    p_l, p_0 = 0.3, 1e-6
    trials = [simulate_trial(N0, OFF, derive_trial_seed(31, i), stage_probs=(p_l, p_0, 1.0))
              for i in range(2000)]
    assert sum(2 * t.counts.link_attempts > _SLICE_DRAWS for t in trials) > 0.9 * len(trials)
    times = np.array([t.total_time for t in trials])
    closed = (expected_pulses_both_ready(p_l) / N0.r + N0.l0 / N0.c) / p_0
    assert abs(times.mean() - closed) <= 4.0 * times.std(ddof=1) / math.sqrt(len(times))


def test_compound_unit_prep_probability():
    # p_l = 1: every launch takes one pulse and two preparation draws, so
    # no launch is untied (B = 0) and both negative binomials are 0.
    res = simulate_trial(N0, OFF, 41, stage_probs=(1.0, 1e-6, 1.0))
    k = res.counts.link_attempts
    assert 2 * k > _SLICE_DRAWS
    assert res.counts.prep_attempts == 2 * k
    assert res.total_time == k * (1.0 / N0.r) + k * (N0.l0 / N0.c)


def test_swap_comm_time_adds_delay():
    # Same seed, same draws: the on-policy total exceeds the off-policy
    # total by at least one child-length delay per swap attempt.
    off = simulate_trial(N1, OFF, 77)
    on = simulate_trial(N1, ON, 77)
    assert on.counts == off.counts
    min_extra = sum(on.counts.swap_attempts) * N1.l0 / N1.c
    assert on.total_time == pytest.approx(off.total_time + min_extra, rel=1e-9)


# ---------------------------------------------------------------------------
# estimate aggregation
# ---------------------------------------------------------------------------

def test_single_trial_estimate():
    res = estimate(N0, OFF, 1, 123)
    trial = simulate_trial(N0, OFF, derive_trial_seed(123, 0))
    assert res.mean == trial.total_time
    assert res.std_error == 0.0
    assert res.p50 == trial.total_time


@pytest.mark.parametrize("params, policy", [
    (N0, OFF),
    (N1, OFF),
    (paper_defaults().with_overrides(L=1280.0, n=4), ON),
], ids=["n0", "n1", "n4-swap-comm"])
def test_estimate_replays_per_trial_seeds(params, policy):
    # estimate derives its generator states in bulk; a replay of its
    # trials through derive_trial_seed and simulate_trial, over more
    # than one chunk of states, reproduces every output exactly.
    trials = _SEED_CHUNK + 7
    res = estimate(params, policy, trials, 123)
    replay = [simulate_trial(params, policy, derive_trial_seed(123, i)) for i in range(trials)]
    times = np.array([t.total_time for t in replay])
    assert res.mean == float(np.mean(times))
    assert res.std_error == float(np.std(times, ddof=1) / math.sqrt(trials))
    assert (res.p50, res.p90, res.p99) == tuple(float(p) for p in np.percentile(times, [50.0, 90.0, 99.0]))
    assert res.prep_attempts == sum(t.counts.prep_attempts for t in replay)
    assert res.link_attempts == sum(t.counts.link_attempts for t in replay)
    assert res.swap_attempts == tuple(sum(c) for c in zip(*(t.counts.swap_attempts for t in replay)))


@pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**200 + 7])
def test_bulk_seeding_matches_numpy(root):
    # Indices 0, either side of the first chunk boundary, and either side
    # of 2^32, where a spawn key takes a second word.
    for start, stop in ((0, 3), (_SEED_CHUNK - 2, _SEED_CHUNK + 2), (2**32 - 2, 2**32), (2**32, 2**32 + 2)):
        seeds = _trial_seeds(root, start, stop)
        expected = [int(np.random.SeedSequence(root, spawn_key=(i,)).generate_state(1, np.uint64)[0])
                    for i in range(start, stop)]
        assert seeds.tolist() == expected
        assert expected == [derive_trial_seed(root, i) for i in range(start, stop)]
        states = _pcg64_states(seeds)
        for seed, (state, inc) in zip(expected, states):
            assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}


def _draws(rng):
    return (rng.integers(0, 2**16, size=3, dtype=np.uint32).tolist(), rng.geometric(0.2, size=5).tolist(),
            rng.binomial(1000, 0.3, size=3).tolist(), rng.standard_gamma(2.5, size=3).tolist(),
            rng.poisson(40.0, size=3).tolist())


def test_reseeded_generator_draws_like_a_fresh_one():
    # One Generator re-seeded through its state dict draws what a fresh
    # Generator(PCG64(s)) draws, even after it buffered a 32-bit half word
    # and cached binomial set-up under the previous state.
    seeds = _trial_seeds(7, 0, 4)
    rng = np.random.Generator(np.random.PCG64(0))
    for seed, (state, inc) in zip(seeds.tolist(), _pcg64_states(seeds)):
        rng.integers(0, 2**16, dtype=np.uint32)
        rng.binomial(1000, 0.3)
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        assert _draws(rng) == _draws(np.random.Generator(np.random.PCG64(seed)))


def test_bulk_seeding_rejects_negative_root():
    with pytest.raises(ValueError):
        estimate(N0, OFF, 3, -1)


@pytest.mark.parametrize("params, seed, mean, prep, link, swaps", [
    (N0, 5, 0.04987217540816326, 164497609, 54480, ()),
    (N1, 6, 0.24431987867346938, 1074331642, 357112, (1517,)),
])
def test_estimate_direct_draws_pinned(params, seed, mean, prep, link, swaps):
    # Every level-0 request of these trials is small enough to be drawn
    # pulse by pulse, so their values are fixed by the stream contract.
    res = estimate(params, OFF, 500, seed)
    assert res.mean == mean
    assert res.prep_attempts == prep
    assert res.link_attempts == link
    assert res.swap_attempts == swaps


def test_estimate_percentiles_ordered():
    res = estimate(N0, OFF, 2000, 5)
    assert res.p50 <= res.p90 <= res.p99
    assert res.std_error > 0.0


def test_std_error_shrinks_with_sqrt_trials():
    ratios = []
    for seed in range(6):
        small = estimate(N0, OFF, 1500, seed)
        large = estimate(N0, OFF, 3000, seed)
        ratios.append(large.std_error / small.std_error)
    assert 0.55 <= float(np.mean(ratios)) <= 0.9  # ~1/sqrt(2)


def test_estimate_record_keys():
    rec = estimate(N1, OFF, 50, 3).to_record()
    for key in ("trials", "mean", "std_error", "p50", "p90", "p99",
                "prep_attempts", "link_attempts", "swap_attempts",
                "swap_attempts_l1", "swap_comm_time"):
        assert key in rec


def test_estimate_rejects_no_trials():
    with pytest.raises(ValueError):
        estimate(N0, OFF, 0, 1)


def test_link_attempts_match_inverse_probability():
    trials = 30_000
    res = estimate(N0, OFF, trials, 17)
    expected = 1.0 / rates.p_link(N0)
    observed = res.link_attempts / trials
    assert observed == pytest.approx(expected, rel=0.05)


def test_monotone_degradation_paired_seeds():
    base = estimate(N0, OFF, 20_000, 29)
    worse = estimate(N0.with_overrides(eta_d=0.8), OFF, 20_000, 29)
    assert worse.mean > base.mean


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 0.9, 0.5, 0.1, 0.0123, 1e-6, 1e-9])
def test_expected_pulses_markov_solve_matches_closed_form(p):
    # E[max of two iid geometrics] = 2/p - 1/(p(2-p))
    closed = 2.0 / p - 1.0 / (p * (2.0 - p))
    assert expected_pulses_both_ready(p) == pytest.approx(closed, rel=1e-12)


@settings(deadline=None)
@given(
    a=st.floats(0.25, 1.0 - 1e-6),
    n=st.integers(1, 20_000),
    state=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_order_recursion_matches_lfilter(a, n, state, seed):
    x = np.random.default_rng(seed).random(n)
    expected, _ = lfilter([1.0], [1.0, -a], x, zi=[a * state])
    np.testing.assert_allclose(_first_order(a, x, state), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("params, value", [
    (N1, 0.24172615879469816),
    (paper_defaults().with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0,
                                     n=1, L=2.0, c=1.0, r=4.0, L_att=0.25), 545.1959813276652),
])
def test_oracle_n1_pinned_values(params, value):
    # Values of the 0.2.0 oracle (scipy lfilter recursions, 1e-10 cutoff).
    assert exact_expected_time_small(params, OFF) == pytest.approx(value, rel=1e-12, abs=0.0)


def test_oracle_n0_closed_form_structure():
    # (1/(r p_l)) * (prep-pair expectation * p_l) + flight, over p_0
    p = N0
    pl, p0 = rates.p_local(p), rates.p_link(p)
    closed = (expected_pulses_both_ready(pl) / p.r + p.l0 / p.c) / p0
    assert exact_expected_time_small(p, OFF) == pytest.approx(closed, rel=1e-12)


def test_oracle_rejects_unsupported_configs():
    with pytest.raises(ValueError):
        exact_expected_time_small(paper_defaults().with_overrides(n=2), OFF)
    with pytest.raises(ValueError):
        exact_expected_time_small(N1, ON)
    # flight not aligned to the pulse grid
    with pytest.raises(ValueError):
        exact_expected_time_small(N1.with_overrides(r=39.2e6 * 1.0000001), OFF)


def test_oracle_n0_agrees_with_simulation():
    trials = 30_000
    res = estimate(N0, OFF, trials, 101)
    oracle = exact_expected_time_small(N0, OFF)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error


def test_oracle_n1_agrees_with_simulation():
    trials = 30_000
    res = estimate(N1, OFF, trials, 103)
    oracle = exact_expected_time_small(N1, OFF)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error


def test_oracle_n1_small_scale_against_heavy_simulation():
    # Small synthetic scale: ideal efficiencies give p_l = 0.5 and the
    # weak fiber gives a moderate p_0; flight = 4 pulse slots.
    params = paper_defaults().with_overrides(
        eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0,
        n=1, L=2.0, c=1.0, r=4.0, L_att=0.25,
    )
    oracle = exact_expected_time_small(params, OFF)
    res = estimate(params, OFF, 200_000, 211)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error


def test_oracle_n1_exceeds_n_times_single_link():
    # Waiting for the slower of two links plus swap retries must cost
    # more than the analytic product formula claims.
    oracle = exact_expected_time_small(N1, OFF)
    analytic = rates.t_total(N1).t_total
    assert oracle > analytic


# ---------------------------------------------------------------------------
# analytic comparison
# ---------------------------------------------------------------------------

def test_compare_analytic_ratio_n0():
    cmp = compare_analytic(N0, OFF, 20_000, 301)
    assert cmp.analytic == rates.t_total(N0).t_total
    assert cmp.ratio == cmp.mc_mean / cmp.analytic
    assert cmp.ratio >= 0.99


def test_compare_analytic_ratio_n1():
    cmp = compare_analytic(N1, OFF, 20_000, 303)
    assert cmp.ratio >= 0.99
    # n = 1 already shows the wait-for-both penalty
    assert cmp.ratio > 1.1


def test_compare_analytic_record():
    rec = compare_analytic(N0, OFF, 100, 5).to_record()
    assert "analytic" in rec and "ratio" in rec and "mean" in rec
