import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repeaterlab import rates, sim
from repeaterlab.core import paper_defaults, validate
from repeaterlab.sim import (
    SimPolicy,
    SimulationGuardError,
    _expected_max_slots,
    _level0_pulses,
    _SEED_CHUNK,
    _SLICE_DRAWS,
    _trial_states,
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
N4 = paper_defaults().with_overrides(L=1280.0, n=4)
# The paper's preparation probability, about 6.64e-4.
P_L = rates.stage_probabilities(paper_defaults())[0]


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


@pytest.mark.parametrize("p_l, k", [
    pytest.param(0.3, 64, id="0.3"),
    pytest.param(0.99, 64, id="0.99"),
    pytest.param(P_L, 116, id="paper"),
])
def test_level0_paths_agree_in_distribution(p_l, k):
    # The same launch counts through both level-0 paths: one link per call
    # is drawn pulse by pulse, 600 links per call from compound sums.  At
    # p_l = 0.99 most links have no untied launch (B = 0); at the paper's
    # p_l and about 1/p_0 = 116 launches, as at n = 4, most have no tie.
    links = 600
    launches = np.full(links, k)
    assert 2 * k <= _SLICE_DRAWS < 2 * k * links
    rng = np.random.default_rng(8128)
    direct = [_level0_pulses(rng, p_l, launches[:1], k) for _ in range(20_000)]
    compound = [_level0_pulses(rng, p_l, launches, k * links) for _ in range(1500)]
    _assert_agree([pulses[0] for pulses, _ in direct], np.concatenate([pulses for pulses, _ in compound]))
    # Only a request's total prep attempts are returned.
    _assert_agree([prep for _, prep in direct], [prep for _, prep in compound], links)


class _NoMixing:
    """A Generator whose gamma variates are all 0, so both negative
    binomials of the compound level-0 path are 0 and a link's pulses are
    its launches plus its untied launches."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_gamma(self, shape):
        return np.zeros(np.shape(shape))

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _untied_counts(p_l, k, links, calls, seed):
    """Untied launches of ``links * calls`` compound links of k launches."""
    assert 2 * k * links > _SLICE_DRAWS
    rng, launches = _NoMixing(seed), np.full(links, k)
    return np.concatenate([_level0_pulses(rng, p_l, launches, k * links)[0] - k for _ in range(calls)])


def test_compound_untied_count_is_binomial():
    # A launch is untied with probability 1 - s, s = p_l/(2 - p_l), so a
    # link of K launches has Binomial(K, 1 - s) untied ones.
    from scipy.stats import binom, chisquare

    k, p_l = 6, 0.4
    untied = _untied_counts(p_l, k, 20_000, 10, 61)
    expected = untied.size * binom.pmf(np.arange(k + 1), k, 1.0 - p_l / (2.0 - p_l))
    assert chisquare(np.bincount(untied, minlength=k + 1), expected).pvalue > 1e-3
    # The paper's p_l at K = 116: no tie with probability (1 - s)^K = 0.96.
    k, s = 116, P_L / (2.0 - P_L)
    untied = _untied_counts(P_L, k, 2000, 50, 62)
    no_tie = (1.0 - s) ** k
    assert abs(np.mean(untied == k) - no_tie) <= 4.0 * math.sqrt(no_tie * (1.0 - no_tie) / untied.size)
    assert abs(untied.mean() - k * (1.0 - s)) <= 4.0 * math.sqrt(k * s * (1.0 - s) / untied.size)
    # p_l = 1: every launch is tied.
    assert not _untied_counts(1.0, k, 2000, 1, 63).any()


def test_n4_requests_draw_compound_sums(monkeypatch):
    # At the paper defaults, n = 4 over 1280 km, nearly every level-0
    # request needs more than _SLICE_DRAWS preparation draws and so is
    # drawn from compound sums, not pulse by pulse.
    draws = []

    def spy(rng, p_l, launches, total, starts):
        draws.append(2 * int(launches.sum()))
        return _level0_pulses(rng, p_l, launches, total, starts)

    monkeypatch.setattr(sim, "_level0_pulses", spy)
    estimate(paper_defaults(), OFF, 300, 606)
    assert len(draws) >= 300
    assert np.mean(np.array(draws) <= _SLICE_DRAWS) < 0.02


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
        seeds = [derive_trial_seed(root, i) for i in range(start, stop)]
        assert seeds == [int(np.random.SeedSequence(root, spawn_key=(i,)).generate_state(1, np.uint64)[0])
                         for i in range(start, stop)]
        assert list(_trial_states(root, start, stop)) == [np.random.PCG64(seed).state for seed in seeds]


def _draws(rng):
    return (rng.integers(0, 2**16, size=3, dtype=np.uint32).tolist(), rng.geometric(0.2, size=5).tolist(),
            rng.binomial(1000, 0.3, size=3).tolist(), rng.standard_gamma(2.5, size=3).tolist(),
            rng.poisson(40.0, size=3).tolist())


def test_reseeded_generator_draws_like_a_fresh_one():
    # One Generator re-seeded through its state dict draws what a fresh
    # Generator(PCG64(s)) draws, even after it buffered a 32-bit half word
    # and cached binomial set-up under the previous state.
    rng = np.random.Generator(np.random.PCG64(0))
    for i, state in enumerate(_trial_states(7, 0, 4)):
        rng.integers(0, 2**16, dtype=np.uint32)
        rng.binomial(1000, 0.3)
        rng.bit_generator.state = state
        assert _draws(rng) == _draws(np.random.Generator(np.random.PCG64(derive_trial_seed(7, i))))


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


@pytest.mark.parametrize("policy, mean", [
    (OFF, 22.90780391352041),
    (ON, 23.093457177551016),
], ids=["off", "swap-comm"])
def test_estimate_compound_draws_pinned(policy, mean):
    # Nearly every level-0 request at n = 4 over 1280 km is drawn from
    # compound sums; the policy adds delays but draws nothing.
    res = estimate(N4, policy, 200, 7)
    assert res.mean == mean
    assert res.prep_attempts == 102595743947
    assert res.link_attempts == 34074466
    assert res.swap_attempts == (147026, 24042, 3929, 630)


@pytest.mark.parametrize("seed, stage_probs, total_time, prep, link", [
    (1, None, 0.0566133418367347, 372148, 124),
    (31, (0.3, 1e-6, 1.0), 546.5732866071429, 9110879, 1366023),
], ids=["direct", "compound"])
def test_single_link_trial_pinned(seed, stage_probs, total_time, prep, link):
    # An n = 0 trial is one single-link request, drawn pulse by pulse at
    # the paper's probabilities and from compound sums at about 1e6
    # launches; its total time is pinned to the last bit.
    res = simulate_trial(N0, OFF, seed, stage_probs=stage_probs)
    assert res.total_time == total_time
    assert res.counts.prep_attempts == prep
    assert res.counts.link_attempts == link


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
def test_expected_pulses_both_ready_closed_form(p):
    # E[max of two iid geometrics] = 2/p - 1/(p(2-p))
    closed = 2.0 / p - 1.0 / (p * (2.0 - p))
    assert expected_pulses_both_ready(p) == pytest.approx(closed, rel=1e-12)


def _pmf_expected_max(p_l, p_0, flight):
    """E[max(T_1, T_2)] in slots and the pmf mass left off the lattice,
    from T's pmf built slot by slot by the renewal equation f_T = p_0 f_Y
    + (1 - p_0) f_Y * f_T, Y = M + flight the length of one launch."""
    q = 1.0 - p_l
    m = np.arange(1, int(40.0 / p_l) + 2)
    f_y = np.concatenate((np.zeros(flight + 1), 2 * p_l * q ** (m - 1) - (1 - q * q) * q ** (2 * m - 2)))
    size = int(60.0 * (flight + expected_pulses_both_ready(p_l)) / p_0)
    f_t = np.zeros(size)
    f_t[:f_y.size] = p_0 * f_y[:size]
    for t in range(flight + 1, size):
        k = min(t, f_y.size - 1)
        f_t[t] += (1.0 - p_0) * np.dot(f_y[1:k + 1], f_t[t - 1::-1][:k])
    cdf = np.cumsum(f_t)
    return float(np.sum((1.0 - cdf) * (1.0 + cdf))), 1.0 - cdf[-1]


@settings(deadline=None, max_examples=30)
@given(p_l=st.floats(0.05, 1.0), p_0=st.floats(0.05, 0.5), flight=st.integers(1, 16))
def test_expected_max_matches_pmf_convolution(p_l, p_0, flight):
    expected, tail = _pmf_expected_max(p_l, p_0, flight)
    assume(tail < 1e-14)
    assert _expected_max_slots(p_l, p_0, flight) == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("params, value", [
    (N1, 0.24172615879635473),
    (paper_defaults().with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0,
                                     n=1, L=2.0, c=1.0, r=4.0, L_att=0.25), 545.1959813276652),
])
def test_oracle_n1_pinned_values(params, value):
    # N1: the survival recursion of the 0.4.4 oracle re-run in
    # np.longdouble, equal at the cut-offs S < 1e-7 and S < 1e-9; its
    # float64 run gave 0.24172615879469816, 6.8e-12 off by round-off.
    # The small case: the 0.2.0 oracle (scipy lfilter recursions).
    assert exact_expected_time_small(params, OFF) == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("l_km", [320.0, 1280.0])
def test_oracle_n1_long_links_fast_and_small(l_km):
    # p_0 is 2.3e-4 at 320 km and 7.6e-14 at 1280 km; the cost does not
    # follow 1/p_0.
    params = paper_defaults().with_overrides(L=l_km, n=1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = exact_expected_time_small(params, OFF)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 4 * 2**20
    assert math.isfinite(value) and value > rates.t_total(params).t_total


def test_oracle_n1_320km_matches_survival_recursion():
    # The 0.4.4 survival recursion (66 s) gave 17.218003017434235.
    params = paper_defaults().with_overrides(L=320.0, n=1)
    assert exact_expected_time_small(params, OFF) == pytest.approx(17.218003017434235, rel=1e-9, abs=0.0)


@settings(deadline=None, max_examples=40)
@given(
    etas=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    n=st.integers(0, 1),
    length=st.floats(1e-3, 1e5),
    l_att=st.floats(1e-2, 1e6),
    r=st.floats(1e-2, 1e12),
    flight=st.integers(1, 2**24),
)
def test_oracle_finite_or_refused(etas, n, length, l_att, r, flight):
    # Any accepted n <= 1 parameter set with an on-lattice flight gives a
    # finite time above one link's mean, or a GuardError, and soon.
    params = paper_defaults().with_overrides(**dict(zip(("eta_p", "eta_s", "eta_e1", "eta_e2", "eta_d"), etas)),
                                             n=n, L=length, L_att=l_att, r=r)
    params = params.with_overrides(c=params.l0 * r / flight)
    assume(validate(params).ok)
    start = time.perf_counter()
    try:
        value = exact_expected_time_small(params, OFF)
    except SimulationGuardError:
        value = None
    assert time.perf_counter() - start < 3.0
    if value is not None:
        p_l, p_0, _ = rates.stage_probabilities(params)
        single = (expected_pulses_both_ready(p_l) / params.r + params.l0 / params.c) / p_0
        assert math.isfinite(value)
        assert value > single if n else value == pytest.approx(single, rel=1e-12)


def test_oracle_n0_closed_form_structure():
    # (1/(r p_l)) * (prep-pair expectation * p_l) + flight, over p_0
    p = N0
    pl, p0 = rates.p_local(p), rates.p_link(p)
    closed = (expected_pulses_both_ready(pl) / p.r + p.l0 / p.c) / p0
    assert exact_expected_time_small(p, OFF) == pytest.approx(closed, rel=1e-12)


def test_oracle_rejects_unsupported_configs():
    with pytest.raises(ValueError):
        exact_expected_time_small(paper_defaults().with_overrides(n=2), OFF)
    # swap_comm_time adds L_0/c per swap attempt; at n = 0 there is none.
    p_sw = rates.stage_probabilities(N1)[2]
    assert exact_expected_time_small(N1, ON) == pytest.approx(
        exact_expected_time_small(N1, OFF) + N1.l0 / N1.c / p_sw, rel=1e-12)
    assert exact_expected_time_small(N0, ON) == exact_expected_time_small(N0, OFF)
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


def test_oracle_n1_swap_comm_agrees_with_simulation():
    res = estimate(N1, ON, 20_000, 107)
    oracle = exact_expected_time_small(N1, ON)
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
