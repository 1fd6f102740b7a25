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
``PCG64`` from ``derive_trial_seed``; ``estimate`` repeats numpy's
seeding arithmetic over arrays of trials and loads each resulting PCG64
state into one reused Generator, bit-identical to the per-trial path
and without its per-trial SeedSequence objects.  Within a trial the stream runs
top-down: one Geom(p_swap) attempt count per requested link at each
level; then, per level-0 request, the K ~ Geom(p_0) launch counts.  A
request needing at most ``_SLICE_DRAWS`` preparation draws (2*sum(K))
then draws them pulse by pulse; a larger one draws each link's sums
from exact compound distributions: a gamma and a Poisson variate per
link for the launches' minima, a binomial count of untied launches, and
a gamma and a Poisson variate for their excess.  Requests expecting more
than ``_SLICE_LINKS`` elementary links are sampled in halves.  The two
constants fix the stream: n = 0 over 80 km and n = 1 over 160 km draw
one by one, while n = 4 over 1280 km uses compound sums.

A trial is refused (SimulationGuardError) when one elementary link
expects more than ``_MAX_LINK_DRAWS`` preparation draws, 2/(p_l p_0), or
the chain more than ``_MAX_TRIAL_LINKS`` elementary links, (2/p_swap)^n;
``_TrialSampler`` runs these checks once per run.  ``estimate`` also
refuses a trial count whose total-time array cannot be allocated.
"""

from __future__ import annotations

import functools
import math
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


def _trial_seeds(root_seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_trial_seed(root_seed, i)`` for i in [start, stop), as uint64.

    The root's words are zero-padded to the pool size, as numpy pads
    them when a spawn key follows; an index of 2^32 or more is two
    words, so a range may not straddle 2^32.
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
    low, high = _seed_sequence_state(words, 2)
    return low.astype(np.uint64) | high.astype(np.uint64) << np.uint64(32)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``PCG64(s).state["state"]`` as (state, inc) for each uint64 seed s.

    PCG64 takes four 64-bit words from ``SeedSequence(s)``, the initial
    state (high, low) and the stream (high, low), then runs its two-step
    ``srandom``: inc = 2 stream + 1, state = (inc + initial) * mult + inc,
    modulo 2^128.  numpy reads a seed below 2^32 as one entropy word,
    which mixes like the two words (s, 0) since missing pool words hash
    as zeros.
    """
    words = _seed_sequence_state([(seeds & np.uint64(_WORD)).astype(np.uint32),
                                  (seeds >> np.uint64(32)).astype(np.uint32)], 8)
    wide = [low.astype(np.uint64) | high.astype(np.uint64) << np.uint64(32)
            for low, high in zip(words[0::2], words[1::2])]
    mask = (1 << 128) - 1
    states = []
    for init_high, init_low, stream_high, stream_low in zip(*(w.tolist() for w in wide)):
        inc = ((stream_high << 64 | stream_low) << 1 | 1) & mask
        states.append((((init_high << 64 | init_low) + inc) * _PCG64_MULT + inc & mask, inc))
    return states


# Requests expecting more elementary links than this are sampled in
# halves, so a level-0 request holds at most this many links.
_SLICE_LINKS = 2**16
# A level-0 request needing more preparation draws than this draws each
# link's sums from compound distributions instead of pulse by pulse.
_SLICE_DRAWS = 2**16
# Expected preparation draws 2/(p_l p_0) of one elementary link above
# which a trial is refused.  Below it a link's expected draws, and so its
# Poisson means (launches/p_l, expected 1/(p_l p_0) at most), stay below
# 2^46, and the int64 sums over a level-0 request of at most
# _SLICE_LINKS links stay below 2^16 * 2^46 = 2^62 in expectation.
_MAX_LINK_DRAWS = 2**46
# Expected elementary links (2/p_swap)^n of one trial above which it is
# refused: about 5 s at about 0.3 us per link.
_MAX_TRIAL_LINKS = 2**24


def _negative_binomial(rng: np.random.Generator, k: np.ndarray, odds: float) -> np.ndarray:
    """Failures before the k-th success, success probability p and
    ``odds`` = (1-p)/p, as a gamma-Poisson mixture: 0 where k = 0 or
    odds = 0, which ``Generator.negative_binomial`` rejects."""
    return rng.poisson(rng.standard_gamma(k) * odds)


def _level0_pulses(rng: np.random.Generator, p_l: float, launches: np.ndarray) -> tuple[np.ndarray, int]:
    """Pulse slots of links with ``launches`` launches each, and the
    total preparation draws.

    Each launch waits max(G1, G2) slots for iid Geom(p_l) preparations at
    the two ends and counts G1 + G2 draws.  Up to ``_SLICE_DRAWS`` draws
    are made one by one.  Above that each link's sums come from max =
    min + [no tie] excess and G1 + G2 = 2 min + [no tie] excess, with
    min ~ Geom(1 - q^2), P(no tie) = 2q/(2 - p_l), excess ~ Geom(p_l).
    """
    total = int(launches.sum())
    if 2 * total <= _SLICE_DRAWS:
        draws = rng.geometric(p_l, size=(2, total))
        starts = np.cumsum(launches) - launches
        return np.add.reduceat(np.maximum(draws[0], draws[1]), starts), int(draws.sum())
    q = 1.0 - p_l
    mins = launches + _negative_binomial(rng, launches, q * q / (p_l * (2.0 - p_l)))
    untied = rng.binomial(launches, 2.0 * q / (2.0 - p_l))
    excess = untied + _negative_binomial(rng, untied, q / p_l)
    return mins + excess, 2 * int(mins.sum()) + int(excess.sum())


class _TrialSampler:
    """Trials of one (params, policy, stage_probs) run, each on a given
    Generator; the stage probabilities are validated and both guards run
    once, when the sampler is built."""

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

    def __call__(self, rng: np.random.Generator) -> TrialResult:
        """One trial drawn from ``rng``."""
        p_l, p_0, p_sw = self.p_l, self.p_0, self.p_sw
        slot, flight = self.slot, self.flight
        prep_attempts = 0
        link_attempts = 0
        swap_attempts = [0] * self.n

        def durations(level: int, m: int) -> np.ndarray:
            """Durations of ``m`` independent level-``level`` links.

            Failed subtrees restart from scratch, so a link lasts the sum, over
            its attempts, of the longer of two fresh links one level down.
            """
            nonlocal prep_attempts, link_attempts
            # A link at this level expects (2/p_swap)^level elementary links.
            if m > 1 and m * (2.0 / p_sw) ** level > _SLICE_LINKS:
                half = m // 2
                return np.concatenate((durations(level, half), durations(level, m - half)))
            attempts = rng.geometric(p_0 if level == 0 else p_sw, size=m)
            total = int(attempts.sum())
            if level == 0:
                link_attempts += total
                pulses, draws = _level0_pulses(rng, p_l, attempts)
                prep_attempts += draws
                return pulses * slot + attempts * flight
            swap_attempts[level - 1] += total
            left, right = durations(level - 1, 2 * total).reshape(2, total)
            rounds = np.maximum(left, right)
            if self.swap_comm_time:
                rounds += 2 ** (level - 1) * flight
            return np.add.reduceat(rounds, np.cumsum(attempts) - attempts)

        total_time = float(durations(self.n, 1)[0])
        return TrialResult(
            total_time=total_time,
            counts=StageCounts(prep_attempts, link_attempts, tuple(swap_attempts)),
        )


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
    return sampler(np.random.Generator(np.random.PCG64(seed)))


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
    derive_trial_seed(seed, i))``; the generator states are derived
    ``_SEED_CHUNK`` trials at a time and loaded into one Generator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sample = _TrialSampler(params, policy)
    try:
        totals = np.empty(trials)
    except MemoryError as exc:
        raise SimulationGuardError(f"{trials} trials need {8.0 * trials:.3g} bytes for their total times, "
                                   "more than can be allocated") from exc
    prep = 0
    link = 0
    swaps = [0] * params.n
    # The state is replaced before every trial.
    rng = np.random.Generator(np.random.PCG64(0))
    pcg_state = {"state": 0, "inc": 0}
    bit_state = {"bit_generator": "PCG64", "state": pcg_state, "has_uint32": 0, "uinteger": 0}
    for start in range(0, trials, _SEED_CHUNK):
        stop = min(start + _SEED_CHUNK, trials)
        for i, (state, inc) in enumerate(_pcg64_states(_trial_seeds(seed, start, stop)), start):
            pcg_state["state"], pcg_state["inc"] = state, inc
            rng.bit_generator.state = bit_state
            res = sample(rng)
            totals[i] = res.total_time
            prep += res.counts.prep_attempts
            link += res.counts.link_attempts
            for lvl in range(params.n):
                swaps[lvl] += res.counts.swap_attempts[lvl]
    p50, p90, p99 = np.percentile(totals, [50.0, 90.0, 99.0])
    std_error = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EstimateResult(
        trials=trials,
        mean=float(np.mean(totals)),
        std_error=std_error,
        p50=float(p50),
        p90=float(p90),
        p99=float(p99),
        prep_attempts=prep,
        link_attempts=link,
        swap_attempts=tuple(swaps),
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


# Recursion pieces are cut where a^-j would pass 2^500.
_PIECE_LOG = 500.0 * math.log(2.0)


@functools.lru_cache(maxsize=4)
def _powers(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^j, a^-j) for j = 0 .. n-1."""
    j = np.arange(n)
    return a ** j, a ** -j


def _first_order(a: float, x: np.ndarray, state: float) -> np.ndarray:
    """y[j] = a y[j-1] + x[j] with y[-1] = ``state``, for 0 < a < 1.

    Each piece computes y = a^j (a state + cumsum(x a^-j)), a sum of
    positive terms for positive input; pieces are short enough that
    a^-j stays finite.
    """
    piece = min(len(x), max(1, int(_PIECE_LOG / -math.log(a))))
    decay, growth = _powers(a, piece)
    y = np.empty_like(x)
    for start in range(0, len(x), piece):
        end = min(start + piece, len(x))
        y[start:end] = decay[:end - start] * (a * state + np.cumsum(x[start:end] * growth[:end - start]))
        state = y[end - 1]
    return y


def _single_link_survival_sq_sum(p_l: float, p_0: float, flight_slots: int) -> float:
    """sum_u S_u^2 for the single-link completion time in pulse slots,
    S_u = P(T > u), u = 0, 1, 2, ...

    The per-slot preparation chain is a linear recursion driven by the
    failure mass re-injected ``flight_slots + 1`` slots after each
    launch; survival is evolved block by block (block = one flight) and
    truncated once S < 1e-5, i.e. S^2 < 1e-10, with a geometric tail
    estimate added; total truncation below ~1e-9 relative.
    """
    q = 1.0 - p_l
    # Preparation-chain states per slot: m00 (neither end ready, update
    # m00' = q^2 m00 + inject) and m1 (one end ready, m1' = 2 p q m00 +
    # q m1); the launch mass per slot is p^2 m00 + p m1.  Running the two
    # first-order recursions directly keeps every term positive; the
    # equivalent second-order transfer function has near-cancelling
    # poles at z -> 1 for small p and leaks ~1e-9 of probability mass.
    block = flight_slots
    inject = np.zeros(block)
    inject[0] = 1.0  # the process starts: first pulse in slot 1
    m00_state = m1_state = prev_tail = 0.0
    survival = 1.0
    sum_s2 = 1.0 + block  # S_0 .. S_block = 1: no link completes before its flight lands

    max_blocks = 10_000_000
    for _ in range(max_blocks):
        m00 = _first_order(q * q, inject, m00_state)
        m1 = _first_order(q, 2.0 * p_l * q * np.concatenate(([m00_state], m00[:-1])), m1_state)
        m00_state, m1_state = m00[-1], m1[-1]
        launches = p_l * p_l * m00 + p_l * m1

        # Each launch completes one flight later, with probability p_0.
        s_vals = survival - p_0 * np.cumsum(launches)
        sum_s2 += float(np.square(s_vals).sum())
        survival = float(s_vals[-1])
        if survival < 1e-5:
            break
        inject = (1.0 - p_0) * np.concatenate(([prev_tail], launches[:-1]))
        prev_tail = launches[-1]
    else:
        raise RuntimeError("survival computation did not converge")

    # Geometric tail beyond the truncation point (one link attempt per
    # period of E[M] + flight slots, failure ratio 1 - p_0).
    period = expected_pulses_both_ready(p_l) + flight_slots
    return sum_s2 + survival * survival * period * (1.0 - p_0) / (1.0 - (1.0 - p_0) ** 2)


def exact_expected_time_small(params: ProtocolParams, policy: SimPolicy) -> float:
    """Exact expected total time for n <= 1 chains, swap_comm_time off.

    n = 0: (E[pulses until both ends ready]/r + L_0/c) / p_0 with the
    closed-form pulse expectation of ``expected_pulses_both_ready``.

    n = 1: the two links evolve independently on the common pulse
    lattice, so the expected swap-round duration is E[max(T_1, T_2)] =
    2 E[T] - sum_u S_u^2 (in slots) and the total is that over p_swap.
    This requires the heralding flight L_0/c to be an integer number of
    pulse slots; the result is exact up to the < 1e-9 relative
    truncation of the survival series, which stops at S_u < 1e-5
    (S_u^2 < 1e-10) and adds a geometric tail.  The cost grows like
    1/p_0.
    """
    if params.n > 1:
        raise ValueError("exact_expected_time_small supports n <= 1 only")
    if policy.swap_comm_time:
        raise ValueError("exact_expected_time_small requires swap_comm_time off")
    p_l, p_0, p_sw = rates.stage_probabilities(params)

    slot = 1.0 / params.r
    flight = params.l0 / params.c
    prep_slots = expected_pulses_both_ready(p_l)
    e_link = (prep_slots * slot + flight) / p_0
    if params.n == 0:
        return e_link

    flight_slots_real = flight / slot
    flight_slots = round(flight_slots_real)
    if flight_slots < 1 or abs(flight_slots_real - flight_slots) > 1e-6:
        raise ValueError(
            "n=1 oracle requires the heralding flight to be an integer number "
            f"of pulse slots (L_0 r / c = {flight_slots_real!r})"
        )
    e_link_slots = (prep_slots + flight_slots) / p_0
    sum_s2 = _single_link_survival_sq_sum(p_l, p_0, flight_slots)
    e_max_slots = 2.0 * e_link_slots - sum_s2
    return e_max_slots * slot / p_sw
