"""Monte Carlo simulation of the repeater chain.

Event semantics of one trial:

* every elementary link has a local-preparation process at each of its
  two end nodes; attempts are spaced 1/r and succeed with probability
  p_l (geometric), the two ends run concurrently and hold once ready;
* a link attempt launches when both ends are ready, costs L_0/c for the
  photons plus heralding signal, and succeeds with probability p_0; on
  failure both local pairs are consumed and re-prepared;
* a level-i swap fires eagerly as soon as its two child links exist and
  succeeds with probability p_swap; on failure both children are
  destroyed and both subtrees regenerate from scratch, in parallel;
* with ``swap_comm_time`` on, each swap attempt additionally costs the
  classical confirmation delay L_{i-1}/c (the analytic total-time
  formula charges nothing here, so the default is off).

Randomness contract: one root 64-bit seed; trial i uses the independent
substream hash of (seed, i) via ``numpy.random.SeedSequence(seed,
spawn_key=(i,))``, so results are independent of execution order and a
rerun is bit-for-bit identical.  ``simulate_trial`` seeds a fresh
``PCG64`` from ``derive_trial_seed``; ``_trial_states`` yields the same
states from numpy's seeding arithmetic over arrays of trials, and
``estimate`` loads each into one reused Generator, with one
``_TrialSampler`` keeping the run's attempt totals.  Within a trial the
stream runs top-down: one Geom(p_swap) attempt count per requested link
at each level; then, per level-0 request, the K ~ Geom(p_0) launch counts.
A request needing at most ``_SLICE_DRAWS`` preparation draws (2*sum(K))
draws them pulse by pulse; a larger one draws each link's exact compound
sums: gamma and Poisson variates for the launches' minima, the first
tie's position, a binomial count of later ties if that comes by launch
K, and gamma and Poisson variates for the untied launches' excess.
Requests expecting more than ``_SLICE_LINKS`` elementary links are
sampled in halves.  The two constants fix the stream: n = 0 over 80 km
and n = 1 over 160 km draw one by one, n = 4 over 1280 km 99.5% compound.
A single-link request, the top of every trial, draws the same variates
but keeps its launch total and, at level 0, its duration as Python
numbers, with the same IEEE operations: at n <= 1 much of a trial's
cost is numpy's fixed cost per call.

A trial is refused (SimulationGuardError) when one elementary link
expects more than ``_MAX_LINK_DRAWS`` preparation draws, 2/(p_l p_0), or
the chain more than ``_MAX_TRIAL_LINKS`` elementary links, (2/p_swap)^n;
``_TrialSampler`` runs these checks once per run.  ``estimate`` also
refuses a trial count whose total-time array cannot be allocated.

``exact_expected_time_small`` is the exact n <= 1 reference, under
either policy: a closed form at n = 0, a characteristic-function
quadrature at n = 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import rates
from .core import ProtocolParams


# A stage probability is zero or too small for the chain to be sampled;
# the closed forms raise the same type.
SimulationGuardError = rates.GuardError


@dataclass(frozen=True)
class SimPolicy:
    """Timing policy: ``swap_comm_time`` adds the per-attempt classical
    confirmation delay L_{i-1}/c at swap level i."""

    swap_comm_time: bool = False


@dataclass(frozen=True)
class StageCounts:
    """Attempt totals on the success path of a trial (or of a batch)."""

    prep_attempts: int
    link_attempts: int
    swap_attempts: tuple[int, ...]  # per level 1..n


@dataclass(frozen=True)
class TrialResult:
    """One end-to-end entanglement distribution."""

    total_time: float
    counts: StageCounts


def derive_trial_seed(root_seed: int, index: int) -> int:
    """Deterministic 64-bit substream seed for trial ``index``."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash constants (pool size 4, 32-bit words) and the
# PCG64 128-bit LCG multiplier; ``estimate`` repeats their arithmetic over
# arrays of trials, and the tests hold it equal to numpy's.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD = 0xFFFFFFFF
# Trials whose generator states ``estimate`` derives at once.
_SEED_CHUNK = 1024


def _seed_sequence_state(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` for
    many sequences at once: ``entropy`` holds the 32-bit entropy words,
    least significant first, each a uint32 array with one element per
    sequence; the result holds the output words likewise."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _WORD
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _WORD
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _trial_states(root_seed: int, start: int, stop: int) -> Iterator[dict]:
    """Yield ``PCG64(derive_trial_seed(root_seed, i)).state`` for i in
    [start, stop).

    The root's words are zero-padded to the pool size, as numpy pads
    them when a spawn key follows; an index of 2^32 or more is two
    words, so a range may not straddle 2^32.  The trial seed's two
    words, least significant first, are the entropy of PCG64's
    ``SeedSequence(seed)``: numpy reads a seed below 2^32 as one word,
    which mixes like the two words (seed, 0) since missing pool words
    hash as zeros.  PCG64 takes four 64-bit words from it, the initial
    state (high, low) and the stream (high, low), then runs its two-step
    ``srandom``: inc = 2 stream + 1, state = (inc + initial) * mult +
    inc, modulo 2^128.
    """
    if root_seed < 0:
        raise ValueError(f"root seed must be a non-negative integer, got {root_seed}")
    index = np.arange(start, stop, dtype=np.uint64)
    words = []
    while True:
        words.append(np.full(len(index), root_seed & _WORD, dtype=np.uint32))
        root_seed >>= 32
        if not root_seed:
            break
    words += [np.zeros(len(index), dtype=np.uint32)] * (4 - len(words))
    words.append((index & np.uint64(_WORD)).astype(np.uint32))
    if start >= 2**32:
        words.append((index >> np.uint64(32)).astype(np.uint32))
    state_words = _seed_sequence_state(_seed_sequence_state(words, 2), 8)
    wide = [low.astype(np.uint64) | high.astype(np.uint64) << np.uint64(32)
            for low, high in zip(state_words[0::2], state_words[1::2])]
    mask = (1 << 128) - 1
    for init_high, init_low, stream_high, stream_low in zip(*(w.tolist() for w in wide)):
        inc = ((stream_high << 64 | stream_low) << 1 | 1) & mask
        state = ((init_high << 64 | init_low) + inc) * _PCG64_MULT + inc & mask
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


# Requests expecting more elementary links than this are sampled in
# halves, so a level-0 request holds at most this many links.
_SLICE_LINKS = 2**16
# A level-0 request needing more preparation draws than this draws its
# links' compound sums: about 65 us for five numpy calls with array
# parameters at 11-15 us each, plus 0.3 us a link, against 25 ns a draw.
# 2^14 keeps n = 0 over 80 km and n = 1 over 160 km one by one, and n = 4
# over 1280 km compound.
_SLICE_DRAWS = 2**14
# Expected preparation draws 2/(p_l p_0) of one elementary link above
# which a trial is refused.  Below it a link's expected draws, and so its
# Poisson means (launches/p_l, expected 1/(p_l p_0) at most), stay below
# 2^46, and the int64 sums over a level-0 request of at most
# _SLICE_LINKS links stay below 2^16 * 2^46 = 2^62 in expectation.
_MAX_LINK_DRAWS = 2**46
# Expected elementary links (2/p_swap)^n of one trial above which it is
# refused: about 5 s at about 0.3 us per link.
_MAX_TRIAL_LINKS = 2**24


# The segment start of a single-link request.
_FIRST = np.zeros(1, dtype=np.intp)


def _level0_pulses(rng: np.random.Generator, p_l: float, launches: np.ndarray,
                   total: int, starts: np.ndarray = _FIRST) -> tuple[np.ndarray, int]:
    """Pulse slots of links with ``launches`` launches each, and the
    total preparation draws; ``total`` is ``launches.sum()`` and
    ``starts`` each link's first launch in launch order.

    Each launch waits max(G1, G2) slots for iid Geom(p_l) preparations at
    the two ends and counts G1 + G2 draws.  Up to ``_SLICE_DRAWS`` draws
    are made one by one; above that a link's K launches sum min ~ Geom(1 -
    q^2) and, unless tied (P = s = p_l/(2 - p_l)), excess ~ Geom(p_l), as
    gamma-Poisson negative binomials, which allow a count or odds of 0;
    max = min + excess and G1 + G2 = max + min.  A link's first tie, at
    launch Geom(s), brings 1 + Bin(K - first, s) ties if it comes by K.
    """
    if 2 * total <= _SLICE_DRAWS:
        draws = rng.geometric(p_l, size=(2, total))
        return np.add.reduceat(np.maximum(draws[0], draws[1]), starts), int(np.add.reduce(draws, None))
    q, tie = 1.0 - p_l, p_l / (2.0 - p_l)
    mins = launches + rng.poisson(rng.standard_gamma(launches) * (q * q / (p_l * (2.0 - p_l))))
    first = rng.geometric(tie, size=launches.size)
    tied = first <= launches
    untied = launches - tied
    untied[tied] -= rng.binomial(launches[tied] - first[tied], tie)
    pulses = mins + untied + rng.poisson(rng.standard_gamma(untied) * (q / p_l))
    return pulses, int(np.add.reduce(pulses)) + int(np.add.reduce(mins))


class _TrialSampler:
    """Trials of one (params, policy, stage_probs) run, each on a given
    Generator, and the run's attempt totals (Python ints, so exact); the
    stage probabilities are validated and both guards run once, when the
    sampler is built."""

    def __init__(self, params: ProtocolParams, policy: SimPolicy,
                 stage_probs: tuple[float, float, float] | None = None):
        if stage_probs is None:
            p_l, p_0, p_sw = rates.stage_probabilities(params)
        else:
            for name, p in zip(("p_l", "p_0", "p_swap"), stage_probs):
                if not 0.0 < p <= 1.0:
                    raise ValueError(f"stage_probs: {name} = {p!r} lies outside (0, 1]")
            p_l, p_0, p_sw = stage_probs
        link_draws = 2.0 / p_l / p_0
        if link_draws > _MAX_LINK_DRAWS:
            raise SimulationGuardError(f"p_l = {p_l:.3g} and p_0 = {p_0:.3g} mean 2/(p_l p_0) = {link_draws:.3g} "
                                       f"expected preparation draws per link, above the sampling limit {_MAX_LINK_DRAWS:.3g}")
        log2_links = params.n * math.log2(2.0 / p_sw) if params.n else 0.0
        if log2_links > math.log2(_MAX_TRIAL_LINKS):
            raise SimulationGuardError(f"n = {params.n} levels at p_swap = {p_sw:.3g} mean (2/p_swap)^n = "
                                       f"2^{log2_links:.4g} expected elementary links per trial, "
                                       f"above the sampling limit {_MAX_TRIAL_LINKS:.3g}")
        self.n = params.n
        self.swap_comm_time = policy.swap_comm_time
        self.p_l, self.p_0, self.p_sw = p_l, p_0, p_sw
        self.slot = 1.0 / params.r
        self.flight = params.l0 / params.c
        self.prep_attempts = 0
        self.link_attempts = 0
        self.swap_attempts = [0] * params.n

    def __call__(self, rng: np.random.Generator) -> float:
        """Total time of one trial drawn from ``rng``."""
        return float(self.durations(rng, self.n, 1)[0])

    def durations(self, rng: np.random.Generator, level: int, m: int) -> np.ndarray:
        """Durations of ``m`` independent level-``level`` links; one
        level-0 link, a whole n = 0 trial, comes as a 1-tuple of a float.

        Failed subtrees restart from scratch, so a link lasts the sum, over
        its attempts, of the longer of two fresh links one level down.
        """
        # A link at this level expects (2/p_swap)^level elementary links.
        if m > 1 and m * (2.0 / self.p_sw) ** level > _SLICE_LINKS:
            half = m // 2
            return np.concatenate((self.durations(rng, level, half), self.durations(rng, level, m - half)))
        attempts = rng.geometric(self.p_0 if level == 0 else self.p_sw, size=m)
        if m == 1:
            total, starts = int(attempts[0]), _FIRST
        else:
            starts = attempts.cumsum()
            total = int(starts[-1])
            starts -= attempts
        if level == 0:
            self.link_attempts += total
            pulses, draws = _level0_pulses(rng, self.p_l, attempts, total, starts)
            self.prep_attempts += draws
            if m == 1:  # the same IEEE operations as the array expression
                return (float(pulses[0]) * self.slot + total * self.flight,)
            return pulses * self.slot + attempts * self.flight
        self.swap_attempts[level - 1] += total
        left, right = self.durations(rng, level - 1, 2 * total).reshape(2, total)
        rounds = np.maximum(left, right)
        if self.swap_comm_time:
            rounds += 2 ** (level - 1) * self.flight
        return np.add.reduceat(rounds, starts)


def simulate_trial(
    params: ProtocolParams,
    policy: SimPolicy,
    seed: int,
    stage_probs: tuple[float, float, float] | None = None,
) -> TrialResult:
    """Run one trial; deterministic given (params, policy, seed).

    ``stage_probs`` replaces the derived (p_l, p_0, p_swap), which pins
    down the event accounting in tests: physical efficiencies cap each
    probability at 1/2, so e.g. the all-probabilities-1 case (one prep
    pulse, one flight per link, free swaps) is reachable only this way.
    Raises SimulationGuardError if a stage probability is zero, one
    elementary link expects more than ``_MAX_LINK_DRAWS`` preparation
    draws or a trial more than ``_MAX_TRIAL_LINKS`` elementary links.
    """
    sampler = _TrialSampler(params, policy, stage_probs)
    total_time = sampler(np.random.Generator(np.random.PCG64(seed)))
    counts = StageCounts(sampler.prep_attempts, sampler.link_attempts, tuple(sampler.swap_attempts))
    return TrialResult(total_time=total_time, counts=counts)


@dataclass(frozen=True)
class EstimateResult:
    """Aggregate over independent trials.

    The mean uses numpy's pairwise summation on the trial-indexed array,
    so the value does not depend on execution order; ``std_error`` is 0
    for a single trial (undefined, reported as the zero flag).
    """

    trials: int
    mean: float
    std_error: float
    p50: float
    p90: float
    p99: float
    prep_attempts: int
    link_attempts: int
    swap_attempts: tuple[int, ...]
    swap_comm_time: bool

    def to_record(self) -> dict:
        rec = {
            "trials": self.trials,
            "mean": self.mean,
            "std_error": self.std_error,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "prep_attempts": self.prep_attempts,
            "link_attempts": self.link_attempts,
            "swap_attempts": sum(self.swap_attempts),
        }
        for lvl, count in enumerate(self.swap_attempts, start=1):
            rec[f"swap_attempts_l{lvl}"] = count
        rec["swap_comm_time"] = self.swap_comm_time
        return rec


def estimate(params: ProtocolParams, policy: SimPolicy, trials: int, seed: int) -> EstimateResult:
    """Aggregate ``trials`` independent trials with substream seeding.

    Trial i runs exactly as ``simulate_trial(params, policy,
    derive_trial_seed(seed, i))``: ``_trial_states`` yields the generator
    states ``_SEED_CHUNK`` trials at a time, each is loaded into one
    reused Generator, and the sampler keeps the run's attempt totals.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sample = _TrialSampler(params, policy)
    try:
        totals = np.empty(trials)
    except MemoryError as exc:
        raise SimulationGuardError(f"{trials} trials need {8.0 * trials:.3g} bytes for their total times, "
                                   "more than can be allocated") from exc
    # The state is replaced before every trial.
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, trials, _SEED_CHUNK):
        for i, state in enumerate(_trial_states(seed, start, min(start + _SEED_CHUNK, trials)), start):
            rng.bit_generator.state = state
            totals[i] = sample(rng)
    p50, p90, p99 = np.percentile(totals, [50.0, 90.0, 99.0])
    std_error = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EstimateResult(
        trials=trials,
        mean=float(np.mean(totals)),
        std_error=std_error,
        p50=float(p50),
        p90=float(p90),
        p99=float(p99),
        prep_attempts=sample.prep_attempts,
        link_attempts=sample.link_attempts,
        swap_attempts=tuple(sample.swap_attempts),
        swap_comm_time=policy.swap_comm_time,
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Monte Carlo mean against the analytic total time."""

    mc_mean: float
    std_error: float
    analytic: float
    ratio: float
    estimate: EstimateResult

    def to_record(self) -> dict:
        rec = self.estimate.to_record()
        rec.update(analytic=self.analytic, ratio=self.ratio)
        return rec


def compare_analytic(params: ProtocolParams, policy: SimPolicy, trials: int, seed: int) -> ComparisonResult:
    est = estimate(params, policy, trials, seed)
    analytic = rates.t_total(params).t_total
    return ComparisonResult(
        mc_mean=est.mean,
        std_error=est.std_error,
        analytic=analytic,
        ratio=est.mean / analytic,
        estimate=est,
    )


# ---------------------------------------------------------------------------
# Exact expectation oracle for n <= 1
# ---------------------------------------------------------------------------

def expected_pulses_both_ready(p_l: float) -> float:
    """Expected pulse slots until both ends of a link are prepared.

    E[max(G_a, G_b)] for iid Geom(p): the shorter wait, 1/(p(2-p)), plus
    the excess 1/p unless the two tie (probability p/(2-p)), the
    decomposition ``_level0_pulses`` samples: (3 - 2p)/(p(2-p)).
    """
    if not 0.0 < p_l <= 1.0:
        raise ValueError(f"p_l must be in (0, 1], got {p_l}")
    return (3.0 - 2.0 * p_l) / (p_l * (2.0 - p_l))


# n = 1 oracle: 16-node Gauss-Legendre panels, kept once the 8-node rule
# agrees to _PANEL_RTOL, are evaluated _PANEL_CHUNK at a time (under 1 MB);
# past _MAX_PANELS evaluations, or a link mean above _MAX_MEAN_SLOTS (the
# integrand peaks near 2 E[T]^2 over a width of 1/E[T]), it refuses.
_PANEL_RTOL = 1e-10
_PANEL_CHUNK = 256
_MAX_PANELS = 2**17
_MAX_MEAN_SLOTS = 2.0**128


def _expected_max_slots(p_l: float, p_0: float, flight: int) -> float:
    """E[max(T_1, T_2)] in pulse slots for two independent single links.

    T sums M + flight over K ~ Geom(p_0) launches, M the longer of two
    iid Geom(p_l) waits: phi_T = p_0 D/(1 - (1 - p_0) D), D = z^flight
    G_M(z), z = e^{iw}, G_M = p_l^2 z (1 + qz)/((1 - qz)(1 - q^2 z)), and
    E[max] = E[T] + (1/2 pi) int_0^pi (1 - |phi_T|^2)/(1 - cos w) dw.
    With e = 1 - D = (1 - z^flight) + z^flight (1 - z)(2/(1 - qz) - 1/(1
    - q^2 z)) the integrand is (2 p_0 Re e + (1 - 2 p_0)|e|^2)/(|p_0 + (1
    - p_0) e|^2 (1 - cos w)), non-negative terms with no cancellation at
    w = 0.  Panels one resonance period, 2 pi/(flight + E[M]), wide and
    bisected until converged cover [0, w_c].  |G_M| falls with w: above
    w_c, 1/(1 - cos w) adds cot(w_c/2) and the rest, below |phi_T(w_c)|^2
    cot(w_c/2), is dropped; w_c = 40 p_l doubles until that is negligible.
    """
    q, period = 1.0 - p_l, flight + expected_pulses_both_ready(p_l)
    mean = period / p_0
    if not mean <= _MAX_MEAN_SLOTS:
        raise SimulationGuardError(f"p_l = {p_l:.3g}, p_0 = {p_0:.3g} and a {flight}-slot flight mean {mean:.3g} "
                                   f"pulse slots per link, above the n = 1 oracle's limit {_MAX_MEAN_SLOTS:.3g}")

    def one_minus_exp(x):  # 1 - e^{ix}, without the cancellation near x = 0
        s = np.sin(0.5 * x)
        return 2.0 * s * (s - 1j * np.cos(0.5 * x))

    def one_minus_d(w):  # e = 1 - D, and 1 - z
        one_minus_z, one_minus_zf = one_minus_exp(w), one_minus_exp(flight * w)
        return one_minus_zf + (1.0 - one_minus_zf) * one_minus_z * (
            2.0 / (p_l + q * one_minus_z) - 1.0 / (p_l * (2.0 - p_l) + q * q * one_minus_z)), one_minus_z

    cut = min(math.pi, 40.0 * p_l)
    while cut < math.pi:
        g = abs(1.0 - one_minus_d(cut)[0])  # |D(w_c)| = |G_M(w_c)|
        phi = p_0 * g / (1.0 - (1.0 - p_0) * g)
        if phi * phi / math.tan(0.5 * cut) <= 2e-15 * math.pi * mean:  # below 1e-15 E[T] in E[max]
            break
        cut = min(math.pi, 2.0 * cut)

    rules = [np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))  # 16- and 8-node Gauss-Legendre, Golub-Welsch
             for off in (np.arange(1.0, n) / np.sqrt(4.0 * np.arange(1.0, n) ** 2 - 1.0) for n in (16, 8))]
    nodes = np.concatenate([x for x, _ in rules])
    w16, w8 = (2.0 * vectors[0] ** 2 for _, vectors in rules)
    panels = evaluated = math.ceil(cut * period / (2.0 * math.pi))
    total = 0.0
    for first in range(0, panels, _PANEL_CHUNK):
        j = np.arange(first, min(first + _PANEL_CHUNK, panels))
        lo, hi = cut * j / panels, cut * (j + 1) / panels
        # Depth first: the newest, narrowest panels go next.
        while lo.size:
            if evaluated > _MAX_PANELS:
                raise SimulationGuardError(f"the n = 1 oracle needs more than {_MAX_PANELS} quadrature panels "
                                           f"(p_l = {p_l:.3g}, p_0 = {p_0:.3g}, a {flight}-slot flight)")
            a, b, lo, hi = lo[-_PANEL_CHUNK:], hi[-_PANEL_CHUNK:], lo[:-_PANEL_CHUNK], hi[:-_PANEL_CHUNK]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            e, one_minus_z = one_minus_d(mid[:, None] + half[:, None] * nodes)
            d = p_0 + (1.0 - p_0) * e
            f = ((2.0 * p_0 * e.real + (1.0 - 2.0 * p_0) * (e.real ** 2 + e.imag ** 2))
                 / ((d.real ** 2 + d.imag ** 2) * one_minus_z.real))
            fine, coarse = half * (f[:, :16] @ w16), half * (f[:, 16:] @ w8)
            done = np.abs(fine - coarse) <= _PANEL_RTOL * fine
            total += float(fine[done].sum())
            a, b, mid = a[~done], b[~done], mid[~done]
            evaluated += 2 * a.size
            lo, hi = np.concatenate((lo, a, mid)), np.concatenate((hi, mid, b))
    return mean + (total + 1.0 / math.tan(0.5 * cut)) / (2.0 * math.pi)


def exact_expected_time_small(params: ProtocolParams, policy: SimPolicy) -> float:
    """Exact expected total time for n <= 1 chains.

    n = 0: (E[pulses until both ends ready]/r + L_0/c) / p_0 with the
    closed-form pulse expectation of ``expected_pulses_both_ready``; there
    is no swap, so ``swap_comm_time`` changes nothing.

    n = 1: the two links run independently on the common pulse lattice
    (the heralding flight L_0/c must be an integer number of slots), so
    the total is E[max(T_1, T_2)]/p_swap, with E[max] from the links'
    characteristic function by adaptive quadrature (``_expected_max_slots``),
    exact to about 1e-14 relative, in a few ms and under 1 MB at 160 to 1280 km.
    With ``swap_comm_time`` every swap attempt adds L_0/c:
    (E[max(T_1, T_2)]/r + L_0/c)/p_swap.

    Raises SimulationGuardError if a stage probability is zero, the
    result is not a finite float or the quadrature passes its limits.
    """
    if params.n > 1:
        raise ValueError("exact_expected_time_small supports n <= 1 only")
    p_l, p_0, p_sw = rates.stage_probabilities(params)

    slot = 1.0 / params.r
    flight = params.l0 / params.c
    if params.n == 0:
        expected = (expected_pulses_both_ready(p_l) * slot + flight) / p_0
    else:
        flight_slots_real = flight / slot
        flight_slots = round(flight_slots_real) if math.isfinite(flight_slots_real) else 0
        if flight_slots < 1 or abs(flight_slots_real - flight_slots) > 1e-6:
            raise ValueError("n=1 oracle requires the heralding flight to be an integer number "
                             f"of pulse slots (L_0 r / c = {flight_slots_real!r})")
        comm = flight if policy.swap_comm_time else 0.0
        expected = (_expected_max_slots(p_l, p_0, flight_slots) * slot + comm) / p_sw
    if not math.isfinite(expected):
        raise SimulationGuardError(f"the expected total time {expected} is not a finite float")
    return expected
