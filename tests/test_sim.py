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
    _compound_pulses,
    _expected_max_slots,
    _percentiles,
    _SEED_CHUNK,
    _trial_words,
    _TrialSampler,
    _Words,
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
# p_0 = 2.28e-4: a block holds one trial, drawn from compound sums.
N0_160KM = paper_defaults().with_overrides(L=160.0, n=0)
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


@pytest.mark.parametrize("params, stage_probs, error", [
    pytest.param(N0.with_overrides(eta_d=0.0), None, SimulationGuardError, id="zero-stage"),
    pytest.param(paper_defaults().with_overrides(n=0), None, SimulationGuardError, id="p0-too-small"),
    pytest.param(N4.with_overrides(n=40, L=80000.0), None, SimulationGuardError, id="too-many-links"),
    pytest.param(N4.with_overrides(n=5000), None, SimulationGuardError, id="links-table-would-overflow"),
    pytest.param(N0, (0.5, 1.5, 1.0), ValueError, id="stage-probs-outside"),
])
def test_sampling_guards_have_one_owner(params, stage_probs, error):
    # The sampler refuses exactly what rates.sampling_plan refuses, with
    # its type and message: the checks are not copied.  At n = 5000 the
    # plan's links table, (2/p_swap)^5000, would overflow a float, so the
    # guards must run before it is built.
    with pytest.raises(error) as owner:
        rates.sampling_plan(params, stage_probs)
    with pytest.raises(error) as sampler:
        _TrialSampler(params, OFF, stage_probs)
    assert type(sampler.value) is type(owner.value)
    assert str(sampler.value) == str(owner.value)


@pytest.mark.parametrize("params, block", [
    (N0, 141),
    (paper_defaults().with_overrides(L=150.0, n=0), 5),
    (N1, 23),
    (N1.with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0), 53),
    (N4, 1),
    (N4.with_overrides(n=6), 1),
], ids=["n0", "n0-150km", "n1", "n1-ideal", "n4", "n6"])
def test_block_sizes_match_the_readme(params, block):
    # Trials per block at the values the README documents: with d = 2
    # links[n] / p_0 expected preparation draws a trial, 1 if d > 2^13,
    # else floor(2^15 / d).
    assert _TrialSampler(params, OFF).block == block


def _split_cases():
    """(params, stage_probs) runs on both sides of the level-0 split."""
    for n, lo, hi in ((0, 100.0, 200.0), (1, 200.0, 280.0), (2, 280.0, 350.0)):
        for l_km in np.arange(lo, hi + 0.25, 0.5):
            yield paper_defaults().with_overrides(L=float(l_km), n=n), None
    # p_0 within a few ulps of d = 2^13, at n = 0 and at n = 1 with
    # p_swap = 1/2 and 0.3.
    for n, p_sw in ((0, 1.0), (1, 0.5), (1, 0.3)):
        edge = 2.0 * (2.0 / p_sw) ** n / 2**13
        for ulps in range(-3, 4):
            p_0 = edge
            for _ in range(abs(ulps)):
                p_0 = math.nextafter(p_0, math.copysign(math.inf, ulps))
            yield N0.with_overrides(n=n), (P_L, p_0, p_sw)


def test_level0_sampler_split_is_unchanged():
    # A run draws compound sums in one-trial blocks exactly when a trial
    # expects more than 2^13 preparation draws, d = 2 links[n] / p_0, as
    # when blocks held floor(2^14 / d) trials; a run drawn one by one has
    # blocks of floor(2^15 / d) >= 4 trials.  Moving the split would
    # change the random stream of the runs it passes over.
    sides = set()
    for params, stage_probs in _split_cases():
        plan = rates.sampling_plan(params, stage_probs)
        d = 2.0 * plan.links[params.n] / plan.p_0
        block = _TrialSampler(params, OFF, stage_probs).block
        sides.add((params.n, stage_probs and stage_probs[2], d > 2**13))
        if d > 2**13:
            assert block == 1, (params.n, params.L, stage_probs, d)
        else:
            assert block == int(2**15 / d) >= 4, (params.n, params.L, stage_probs, d)
    assert len(sides) == 12  # every family meets both sides


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


@pytest.mark.parametrize("l_km", [150.0, 158.0])
def test_direct_draws_stay_small(l_km):
    # Of the runs drawn one by one, those nearest the split have the most
    # preparation draws a trial: 2/p_0 = 5,574 at n = 0 over 150 km
    # (blocks of 5) and 8,019 over 158 km (blocks of 4, the smallest).
    # Their heavy-tailed requests hold every wait as a float.
    params = paper_defaults().with_overrides(L=l_km, n=0)
    assert _TrialSampler(params, OFF).block == {150.0: 5, 158.0: 4}[l_km]
    tracemalloc.start()
    try:
        estimate(params, OFF, 400, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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
    # The same launch counts through both level-0 samplers: one link per
    # request is drawn pulse by pulse in a run of blocks (p_0 = 1/2), 600
    # links per request from compound sums in a run of one-trial blocks
    # (p_0 = 1e-6).  At p_l = 0.99 most links have no untied launch
    # (B = 0); at the paper's p_l and about 1/p_0 = 116 launches, as at
    # n = 4, most have no tie.  p_l = 0.3 and the paper's p_l draw pulse
    # waits by inverting exponentials, p_l = 0.99 with Generator.geometric.
    links = 600
    launches = np.full(links, k)
    rng = np.random.default_rng(8128)
    direct_sampler = _TrialSampler(N0, OFF, stage_probs=(p_l, 0.5, 1.0))
    compound_sampler = _TrialSampler(N0, OFF, stage_probs=(p_l, 1e-6, 1.0))
    assert direct_sampler.block > 1
    assert compound_sampler.block == 1

    def request(sampler, launches):
        """A request's link pulses and its preparation draws."""
        before = sampler.prep_attempts
        pulses = sampler._pulses([rng], launches, [int(launches.sum())])
        return pulses, sampler.prep_attempts - before

    direct = [request(direct_sampler, launches[:1]) for _ in range(20_000)]
    compound = [request(compound_sampler, launches) for _ in range(1500)]
    _assert_agree([pulses[0] for pulses, _ in direct], np.concatenate([pulses for pulses, _ in compound]))
    # Only a request's total prep attempts are returned.
    _assert_agree([prep for _, prep in direct], [prep for _, prep in compound], links)


class _Recording:
    """A Generator that records the names of the methods called on it.
    Only the per-link tie step draws binomials."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.called = set()

    def __getattr__(self, name):
        self.called.add(name)
        return getattr(self.rng, name)


class _NoMixing(_Recording):
    """A Generator whose gamma variates are all 0, so both negative
    binomials of the compound level-0 path are 0 and a link's pulses are
    its launches plus its untied launches."""

    def standard_gamma(self, shape):
        return np.zeros(np.shape(shape))


def _untied_counts(p_l, k, links, calls, seed, path):
    """Untied launches of ``links * calls`` compound links of k launches,
    whose ties are drawn on ``path``, "gaps" or "per-link"."""
    rng, launches = _NoMixing(seed), np.full(links, k)
    untied = np.concatenate([_compound_pulses(rng, p_l, launches)[0] - k for _ in range(calls)])
    assert ("binomial" in rng.called) == (path == "per-link")
    return untied


def test_compound_untied_count_is_binomial():
    # A launch is untied with probability 1 - s, s = p_l/(2 - p_l), so a
    # link of K launches has Binomial(K, 1 - s) untied ones.  A request
    # expecting K s <= 1 ties a link draws them as gaps, else per link.
    from scipy.stats import binom, chisquare

    for k, p_l, path, seed in [(6, 0.4, "per-link", 61), (6, 0.2, "gaps", 64)]:
        # K s = 1.5 and 0.67 ties a link, on either side of the switch.
        untied = _untied_counts(p_l, k, 20_000, 10, seed, path)
        expected = untied.size * binom.pmf(np.arange(k + 1), k, 1.0 - p_l / (2.0 - p_l))
        assert chisquare(np.bincount(untied, minlength=k + 1), expected).pvalue > 1e-3
    # The paper's p_l at K = 116: no tie with probability (1 - s)^K = 0.96.
    k, s = 116, P_L / (2.0 - P_L)
    untied = _untied_counts(P_L, k, 2000, 50, 62, "gaps")
    no_tie = (1.0 - s) ** k
    assert abs(np.mean(untied == k) - no_tie) <= 4.0 * math.sqrt(no_tie * (1.0 - no_tie) / untied.size)
    assert abs(untied.mean() - k * (1.0 - s)) <= 4.0 * math.sqrt(k * s * (1.0 - s) / untied.size)
    # p_l = 1: every launch is tied.
    assert not _untied_counts(1.0, k, 2000, 1, 63, "per-link").any()


def test_compound_request_ties_are_one_bernoulli_process():
    # The gap path ties each launch of a request independently with
    # probability s: link i has K_i s ties on average, and a request's
    # total ties vary as Binomial(sum K, s), sum K s (1 - s).
    p_l = 0.2
    s = p_l / (2.0 - p_l)
    launches = np.array([1, 4, 2, 7, 3, 9, 5, 1])
    rng = _NoMixing(71)
    # A link's pulses are 2 K - ties.
    ties = np.array([2 * launches - _compound_pulses(rng, p_l, launches)[0] for _ in range(20_000)])
    assert "binomial" not in rng.called
    se = np.sqrt(launches * s * (1.0 - s) / len(ties))
    assert np.all(np.abs(ties.mean(axis=0) - launches * s) <= 4.0 * se)
    (mean, mean_se), (var, var_se) = _moments(ties.sum(axis=1))
    k = int(launches.sum())
    assert abs(mean - k * s) <= 4.0 * mean_se
    assert abs(var - k * s * (1.0 - s)) <= 4.0 * var_se


class _EveryLaunchTies(_NoMixing):
    """A Generator whose Geom variates are all 1."""

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)


def test_compound_gaps_of_one_tie_every_launch():
    # Gaps of 1 place a tie at every launch, up to the request's last,
    # however few ties the request expects: its links have no untied
    # launch, so their pulses are their launches.
    launches = np.array([3, 1, 5, 2, 1])
    pulses, _ = _compound_pulses(_EveryLaunchTies(73), P_L, launches)
    assert pulses.tolist() == launches.tolist()


def test_compound_gap_draws_stay_small():
    # 2^14 links of 128 launches at just under one expected tie a link,
    # the most the gap path draws: its numbers are a few per link, where
    # one per launch would take 16 MB.
    s = 0.99 / 128
    rng = _Recording(79)
    tracemalloc.start()
    try:
        _compound_pulses(rng, 2.0 * s / (1.0 + s), np.full(2**14, 128))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "binomial" not in rng.called
    assert peak < 4 * 2**20


def test_n4_requests_draw_compound_sums(monkeypatch):
    # At the paper defaults, n = 4 over 1280 km, a block holds one trial,
    # so every level-0 request is drawn from compound sums, not pulse by
    # pulse.
    requests, compound = [], []
    pulses, compound_pulses = _TrialSampler._pulses, sim._compound_pulses

    def spy(self, rngs, launches, totals):
        requests.extend(totals)
        return pulses(self, rngs, launches, totals)

    def compound_spy(rng, p_l, launches):
        compound.append(int(launches.sum()))
        return compound_pulses(rng, p_l, launches)

    monkeypatch.setattr(_TrialSampler, "_pulses", spy)
    monkeypatch.setattr(sim, "_compound_pulses", compound_spy)
    estimate(paper_defaults(), OFF, 300, 606)
    assert len(requests) >= 300
    assert compound == requests


def test_compound_single_link_matches_closed_form():
    # About 1e6 launches per link: a block holds one trial, which draws its
    # link from compound sums, and the mean total time is (E[max of two
    # prep waits] slot + flight) / p_0.
    p_l, p_0 = 0.3, 1e-6
    assert _TrialSampler(N0, OFF, stage_probs=(p_l, p_0, 1.0)).block == 1
    trials = [simulate_trial(N0, OFF, derive_trial_seed(31, i), stage_probs=(p_l, p_0, 1.0))
              for i in range(2000)]
    times = np.array([t.total_time for t in trials])
    closed = (expected_pulses_both_ready(p_l) / N0.r + N0.l0 / N0.c) / p_0
    assert abs(times.mean() - closed) <= 4.0 * times.std(ddof=1) / math.sqrt(len(times))


def test_compound_unit_prep_probability():
    # p_l = 1: every launch takes one pulse and two preparation draws, so
    # no launch is untied (B = 0) and both negative binomials are 0.
    assert _TrialSampler(N0, OFF, stage_probs=(1.0, 1e-6, 1.0)).block == 1
    res = simulate_trial(N0, OFF, 41, stage_probs=(1.0, 1e-6, 1.0))
    k = res.counts.link_attempts
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


@pytest.mark.parametrize("params, policy, trials, slice_links, seed", [
    (N0, OFF, _SEED_CHUNK + 7, None, 123),
    (N1, OFF, _SEED_CHUNK + 7, None, 123),
    (paper_defaults().with_overrides(L=1280.0, n=4), ON, _SEED_CHUNK + 7, None, 123),
    (paper_defaults().with_overrides(L=150.0, n=0), OFF, _SEED_CHUNK + 7, None, 123),
    (N0_160KM, OFF, _SEED_CHUNK + 7, None, 123),
    (N1.with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0), ON, _SEED_CHUNK + 7, None, 123),
    (N1, OFF, 300, 8, 123),
    (paper_defaults().with_overrides(L=1280.0, n=6), OFF, 4, None, 123),
    (paper_defaults().with_overrides(L=160.0, n=3), ON, _SEED_CHUNK + 7, None, 123),
    (paper_defaults().with_overrides(L=2.0, n=0, eta_p=2e-5), OFF, 3000, None, 5),
], ids=["n0", "n1", "n4-swap-comm", "n0-150km-pairs", "n0-160km-compound", "ideal-geometric", "n1-halved",
        "n6-split", "n3-160km-blocks", "n0-2km-int64-resum"])
def test_estimate_replays_per_trial_seeds(monkeypatch, params, policy, trials, slice_links, seed):
    # estimate derives its generator states in bulk and samples its trials
    # in blocks; a replay of its trials one by one through
    # derive_trial_seed and simulate_trial reproduces every output
    # exactly.  The cases cover more than one chunk of states; blocks of
    # 5 at n = 0 over 150 km, whose heavy-tailed requests are all drawn
    # one by one; single-trial compound blocks at n = 0 over 160 km;
    # p_l = p_swap = 1/2, drawn by Generator.geometric; lists halved by
    # trials and then by links (2^3 links a request); n = 6 over 1280 km,
    # whose 50,000-link requests are halved; blocks of 9 at n = 3 over
    # 160 km, whose swap rounds pair a block's children at three levels;
    # and blocks of 4,907 trials at n = 0 over 2 km with eta_p = 2e-5
    # (p_l = 3.3e-13), whose waits total about 2^56.5 a block, past where
    # a float64 sum is exact: a float64 total there reads 1 draw short.
    if slice_links is not None:
        monkeypatch.setattr(sim, "_SLICE_LINKS", slice_links)
    res = estimate(params, policy, trials, seed)
    replay = [simulate_trial(params, policy, derive_trial_seed(seed, i)) for i in range(trials)]
    times = np.array([t.total_time for t in replay])
    assert res.mean == float(np.mean(times))
    assert res.std_error == float(np.std(times, ddof=1) / math.sqrt(trials))
    assert (res.p50, res.p90, res.p99) == tuple(float(p) for p in np.percentile(times, [50.0, 90.0, 99.0]))
    assert res.prep_attempts == sum(t.counts.prep_attempts for t in replay)
    assert res.link_attempts == sum(t.counts.link_attempts for t in replay)
    assert res.swap_attempts == tuple(sum(c) for c in zip(*(t.counts.swap_attempts for t in replay)))


@pytest.mark.parametrize("policy", [OFF, ON], ids=["off", "swap-comm"])
def test_swap_rounds_pair_adjacent_children(policy):
    # Round g of a level-1 entry pairs its children 2g and 2g + 1, in a
    # block of three trials as in each trial alone.  Level 0 is stubbed
    # with distinct integer durations drawn from each trial's Generator,
    # and every trial has at least two rounds, so any other pairing
    # changes a sum.
    def run(seeds):
        sampler = _TrialSampler(N1, policy, stage_probs=(P_L, 0.5, 0.2))
        level1 = sampler.durations
        children = []

        def durations(rngs, level, ms):
            if level:
                return level1(rngs, level, ms)
            drawn = [rng.permutation(m).astype(float) for rng, m in zip(rngs, ms)]
            children.extend(drawn)
            return np.concatenate(drawn)

        sampler.durations = durations
        times = sampler([np.random.default_rng(seed) for seed in seeds])
        delay = sampler.flight if policy.swap_comm_time else 0.0
        assert min(len(c) for c in children) >= 4
        assert times == pytest.approx([sum(max(c[2 * g], c[2 * g + 1]) + delay for g in range(len(c) // 2))
                                       for c in children], rel=1e-12)
        return times

    seeds = [0, 1, 4]
    block = run(seeds)
    assert [run([seed])[0] for seed in seeds] == block.tolist()


@pytest.mark.parametrize("p", [1e-13, P_L, rates.stage_probabilities(N1)[1], rates.stage_probabilities(N1)[2], 0.3333])
def test_geometric_is_an_inverted_exponential(p):
    # Below 1/3 numpy's Generator.geometric(p) is ceil(E / -log1p(-p)) for
    # a standard exponential E, bit for bit, which lets the sampler draw a
    # block's direct preparation waits as exponentials.
    rows = np.empty((2, 50_000))
    rng = np.random.default_rng(97)
    rng.standard_exponential(out=rows[0])
    rng.standard_exponential(out=rows[1])
    waits = np.ceil(rows / -math.log1p(-p)).astype(np.int64)
    assert np.array_equal(waits, np.random.default_rng(97).geometric(p, size=(2, 50_000)))


@pytest.mark.parametrize("p_l", [1e-13, P_L, 0.3333, 1.0 / 3.0, 0.5, 1.0])
def test_direct_waits_match_generator_geometric(p_l):
    # A direct request's pulses are the per-link sums of the longer of the
    # two Geom(p_l) waits in each row of a (K, 2) array, as
    # Generator.geometric draws them: launch k's waits are the request's
    # draws 2k and 2k + 1.  From p_l = 1/3 up, where numpy stops
    # inverting, the sampler calls it.
    launches = np.array([3, 1, 4, 1, 5])
    sampler = _TrialSampler(N0, OFF, stage_probs=(p_l, 0.5, 1.0))
    assert (sampler.scale == 0.0) == (p_l >= 1.0 / 3.0)
    pulses = sampler._pulses([np.random.default_rng(5)], launches, [int(launches.sum())])
    waits = np.random.default_rng(5).geometric(p_l, size=(launches.sum(), 2))
    assert np.array_equal(pulses, np.add.reduceat(np.maximum(waits[:, 0], waits[:, 1]), launches.cumsum() - launches))
    assert sampler.prep_attempts == waits.sum()


@pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**200 + 7])
def test_bulk_seeding_matches_numpy(root):
    # Indices 0, either side of the first chunk boundary, and either side
    # of 2^32, where a spawn key takes a second word.
    for start, stop in ((0, 3), (_SEED_CHUNK - 2, _SEED_CHUNK + 2), (2**32 - 2, 2**32), (2**32, 2**32 + 2)):
        seeds = [derive_trial_seed(root, i) for i in range(start, stop)]
        assert seeds == [int(np.random.SeedSequence(root, spawn_key=(i,)).generate_state(1, np.uint64)[0])
                         for i in range(start, stop)]
        words = _trial_words(root, start, stop)
        assert words.shape == (stop - start, 4)
        assert [np.random.PCG64(_Words(w)).state for w in words] == [np.random.PCG64(seed).state for seed in seeds]


def _draws(rng):
    return (rng.integers(0, 2**16, size=3, dtype=np.uint32).tolist(), rng.geometric(0.2, size=5).tolist(),
            rng.binomial(1000, 0.3, size=3).tolist(), rng.standard_gamma(2.5, size=3).tolist(),
            rng.poisson(40.0, size=3).tolist())


def test_generator_from_bulk_words_draws_like_a_fresh_one():
    # A Generator built from a trial's bulk seed words draws what a fresh
    # Generator(PCG64(s)) draws.  Each trial gets a new Generator, so no
    # buffered 32-bit half word or cached binomial set-up can carry over
    # from another trial's stream.
    for i, words in enumerate(_trial_words(7, 0, 4)):
        rng = np.random.Generator(np.random.PCG64(_Words(words)))
        assert _draws(rng) == _draws(np.random.Generator(np.random.PCG64(derive_trial_seed(7, i))))


@pytest.mark.parametrize("params, trials", [(N0, 300), (N1, 100), (N4, 5)], ids=["n0", "n1", "n4"])
def test_seed_chunk_never_changes_an_output(monkeypatch, params, trials):
    # Blocks of 141 (n = 0), 23 (n = 1) and 1 (n = 4) trials take their seed
    # words from chunks of 1, 7 and 1,024 trials, so blocks straddle chunks.
    results = []
    for chunk in (1, 7, 1024):
        monkeypatch.setattr(sim, "_SEED_CHUNK", chunk)
        results.append(estimate(params, OFF, trials, 11))
    assert results[0] == results[1] == results[2]


def test_bulk_seeding_rejects_negative_root():
    with pytest.raises(ValueError):
        estimate(N0, OFF, 3, -1)


@pytest.mark.parametrize("params, seed, mean, prep, link, swaps", [
    (N0, 5, 0.049870608979591835, 164497609, 54480, ()),
    (N1, 6, 0.24597804897959186, 1074331642, 357112, (1517,)),
], ids=["n0", "n1"])
def test_estimate_direct_draws_pinned(params, seed, mean, prep, link, swaps):
    # Every level-0 request of these trials is small enough to be drawn
    # pulse by pulse, so their values are fixed by the stream contract.
    res = estimate(params, OFF, 500, seed)
    assert res.mean == mean
    assert res.prep_attempts == prep
    assert res.link_attempts == link
    assert res.swap_attempts == swaps


@pytest.mark.parametrize("policy, mean", [
    (OFF, 22.960911030357142),
    (ON, 23.14738774298469),
], ids=["off", "swap-comm"])
def test_estimate_compound_draws_pinned(policy, mean):
    # Every level-0 request at n = 4 over 1280 km is drawn from compound
    # sums; the policy adds delays but draws nothing.
    res = estimate(N4, policy, 200, 7)
    assert res.mean == mean
    assert res.prep_attempts == 102597009667
    assert res.link_attempts == 34074466
    assert res.swap_attempts == (147026, 24042, 3929, 630)


@pytest.mark.parametrize("seed, stage_probs, total_time, prep, link", [
    (1, None, 0.056957984693877556, 372148, 124),
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


def test_percentiles_match_numpy_bit_for_bit():
    # numpy's linear method in numpy's arithmetic: sizes 1 and 2 (the
    # last-index case), tied values, the t >= 0.5 branch and values
    # whose differences overflow.
    rng = np.random.default_rng(8128)
    arrays = [np.array(x) for x in ([2.5], [3.0, 1.0], [4.0, 4.0], [0.0, np.inf], [-1.5e308, 1.5e308],
                                    [7.0, 7.0, 7.0, 1.0])]
    for size in rng.integers(1, 3001, size=400):
        arrays += [rng.exponential(size=size), rng.integers(0, 4, size=size).astype(float),
                   rng.normal(size=size) * 1e300]
    with np.errstate(over="ignore", invalid="ignore"):
        for values in arrays:
            expected = [float(p).hex() for p in np.percentile(values, [50.0, 90.0, 99.0])]
            assert [p.hex() for p in _percentiles(values)] == expected


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


def test_estimate_non_finite_aggregate_guard():
    # At r = 1e-300 Hz each trial takes about 1e305 s: 1000 of them
    # overflow the sum, 3 of them only the sum of squares; at 1e-306 Hz
    # the n = 1 trial times themselves overflow.  No numpy warning
    # escapes (the suite turns warnings into errors).
    slow = N0.with_overrides(r=1e-300)
    with pytest.raises(SimulationGuardError, match="the mean of 1000 trial times is inf"):
        estimate(slow, OFF, 1000, 0)
    with pytest.raises(SimulationGuardError, match="the standard error of 3 trial times is inf"):
        estimate(slow, OFF, 3, 0)
    with pytest.raises(SimulationGuardError, match="the mean of 20 trial times is inf"):
        estimate(N1.with_overrides(r=1e-306), OFF, 20, 0)


def test_simulate_trial_non_finite_time_guard():
    # At r = 1e-306 Hz the n = 1 trial time overflows inside the sampler;
    # the trial is refused without a numpy warning.
    with pytest.raises(SimulationGuardError, match="the trial time is inf, not a finite float"):
        simulate_trial(N1.with_overrides(L=80.0, r=1e-306), OFF, 3)


def test_link_attempts_match_inverse_probability():
    trials = 30_000
    res = estimate(N0, OFF, trials, 17)
    expected = 1.0 / rates.p_link(N0)
    observed = res.link_attempts / trials
    assert observed == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("n, seed", [(2, 2102), (3, 2103), (4, 2104), (5, 2105)])
def test_attempt_counts_match_exact_means(n, seed):
    # A level-L link takes Geom(p_swap) swap attempts, each on two fresh
    # level-(L-1) links, so a trial expects (2/p_swap)^(n-L) level-L links
    # and (2/p_swap)^(n-L)/p_swap level-L swap attempts; each of its
    # (2/p_swap)^n elementary links takes Geom(p_0) launches, and each
    # launch two Geom(p_l) preparations.  One seed per n, since a root
    # seed's top-level draw is shared across n.
    params = paper_defaults().with_overrides(L=1280.0, n=n)
    p_l, p_0, p_sw = rates.stage_probabilities(params)
    assert rates.sampling_plan(params).links == tuple((2.0 / p_sw) ** L for L in range(n + 1))
    counts = [simulate_trial(params, OFF, derive_trial_seed(seed, i)).counts for i in range(400)]
    links = (2.0 / p_sw) ** n
    cases = [("prep", [c.prep_attempts for c in counts], links / p_0 * 2.0 / p_l),
             ("link", [c.link_attempts for c in counts], links / p_0)]
    cases += [(f"swap_l{lvl}", [c.swap_attempts[lvl - 1] for c in counts], (2.0 / p_sw) ** (n - lvl) / p_sw)
              for lvl in range(1, n + 1)]
    for name, values, exact in cases:
        values = np.array(values, dtype=float)
        z = (values.mean() - exact) / (values.std(ddof=1) / math.sqrt(values.size))
        assert abs(z) <= 4.0, (name, z)


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
    pytest.param(N1, 0.24172615879635473, id="n1-160km"),
    pytest.param(paper_defaults().with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0,
                                                 n=1, L=2.0, c=1.0, r=4.0, L_att=0.25), 545.1959813276652,
                 id="small-scale"),
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
    _assert_prep_draws_per_launch(res, N0)


def test_oracle_n1_agrees_with_simulation():
    trials = 30_000
    res = estimate(N1, OFF, trials, 103)
    oracle = exact_expected_time_small(N1, OFF)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error
    _assert_prep_draws_per_launch(res, N1)


def _assert_prep_draws_per_launch(res, params):
    """Each launch takes two iid Geom(p_l) preparations: 2/p_l draws with
    variance 2(1 - p_l)/p_l^2, whatever the launch counts.  The heralding
    flights and the launch counts dominate the trial times, so this sees a
    level-0 sampler's bias that the mean cannot."""
    p_l = rates.stage_probabilities(params)[0]
    per_launch = res.prep_attempts / res.link_attempts
    assert abs(per_launch - 2.0 / p_l) <= 3.0 * math.sqrt(2.0 * (1.0 - p_l) / res.link_attempts) / p_l


def test_oracle_n0_compound_blocks_agree_with_simulation():
    # p_0 = 2.28e-4 at 160 km: blocks of one trial, drawn from compound
    # sums, against the closed form.
    assert _TrialSampler(N0_160KM, OFF).block == 1
    res = estimate(N0_160KM, OFF, 20_000, 113)
    oracle = exact_expected_time_small(N0_160KM, OFF)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error
    _assert_prep_draws_per_launch(res, N0_160KM)


def test_oracle_n1_compound_blocks_agree_with_simulation():
    # n = 1 over 240 km: a 23,520-slot flight, blocks of one trial, drawn
    # from compound sums, against the characteristic-function oracle.
    params = paper_defaults().with_overrides(L=240.0, n=1)
    assert _TrialSampler(params, OFF).block == 1
    res = estimate(params, OFF, 10_000, 127)
    oracle = exact_expected_time_small(params, OFF)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error
    _assert_prep_draws_per_launch(res, params)


def test_oracle_n1_swap_comm_agrees_with_simulation():
    res = estimate(N1, ON, 20_000, 107)
    oracle = exact_expected_time_small(N1, ON)
    assert abs(res.mean - oracle) <= 3.0 * res.std_error
    _assert_prep_draws_per_launch(res, N1)


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
    assert cmp.ratio == cmp.estimate.mean / cmp.analytic
    assert cmp.ratio >= 0.99


def test_compare_analytic_ratio_n1():
    cmp = compare_analytic(N1, OFF, 20_000, 303)
    assert cmp.ratio >= 0.99
    # n = 1 already shows the wait-for-both penalty
    assert cmp.ratio > 1.1


def test_compare_analytic_record():
    rec = compare_analytic(N0, OFF, 100, 5).to_record()
    assert "analytic" in rec and "ratio" in rec and "mean" in rec
