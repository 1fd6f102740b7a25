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
``PCG64`` from ``derive_trial_seed``; ``_trial_words`` derives the
same PCG64 seed words from numpy's hash over arrays of trials.
``estimate`` runs its trials in blocks.  A trial expects d = 2 links[n]
/ p_0 preparation draws: a run with d > ``_SLICE_DRAWS`` / 2 has blocks
of one trial, any other blocks of floor(2 ``_SLICE_DRAWS`` / d) >= 4
trials, which expect at most 2 ``_SLICE_DRAWS`` draws.  Each trial of a
block draws on its own Generator, seeded from its words, exactly the
variates it draws alone, in the same order; the block does the
arithmetic on them once, over joined arrays, so the block size never
changes an output, and ``simulate_trial`` draws a trial as ``estimate``
does.  Within a trial the stream runs
top-down: one Geom(p_swap) attempt count per requested link at each
level; then, per level-0 request, the K ~ Geom(p_0) launch counts.  The
top level's one count a trial is drawn as a scalar, the variate that
``size=1`` draws.  The block size chooses the run's level-0 sampler once.
A run of blocks of several trials draws every request's preparations
one by one, in one call a request, as K pairs of waits: launch k's two
ends take the request's draws 2k and 2k + 1, as
``Generator.geometric(p_l, size=(K, 2))`` lays them out.  Below p_l =
1/3 they are standard exponentials E, each wait ceil(E / -log1p(-p_l)),
which is how ``Generator.geometric`` draws there (bit for bit, checked
on numpy 2.4.6); from 1/3 up ``Generator.geometric`` draws them.  A
run of one-trial blocks draws each link's exact compound sums: gamma and
Poisson variates for the launches' minima, the tied launches, and gamma
and Poisson variates for the untied launches' excess.  A request expecting at most one tie a link
draws its ties as the Geom(s) gaps of one Bernoulli(s) process over all
its launches; one expecting more draws each link's first tie and a
binomial count of later ones, so neither holds more than O(links)
numbers.  Requests expecting more than ``_SLICE_LINKS``
elementary links (links[L] per level-L link) are sampled in halves: a
list of several trials' requests by trials, one trial's request by
links, so a trial is split as it would be alone.  The two constants fix
the stream: n = 0 over 80 km and n = 1 over 160 km draw one by one, n = 0
over 160 km and n = 4 over 1280 km compound.

``rates.sampling_plan``, which ``_TrialSampler`` calls once per run, is
the numpy-free owner of the sampling guards and of links[L] = (2/p_swap)^L,
the expected elementary links of a level-L link.  ``estimate`` also
refuses a trial count whose total-time array cannot be allocated.

``exact_expected_time_small`` is the exact n <= 1 reference, under
either policy: a closed form at n = 0, a characteristic-function
quadrature at n = 1.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import rates
from .core import ProtocolParams


# A stage probability is zero or too small for the chain to be sampled;
# the closed forms raise the same type.
SimulationGuardError = rates.GuardError


class SimPolicy(NamedTuple):
    """Timing policy: ``swap_comm_time`` adds the per-attempt classical
    confirmation delay L_{i-1}/c at swap level i."""

    swap_comm_time: bool = False


class StageCounts(NamedTuple):
    """Attempt totals on the success path of a trial (or of a batch)."""

    prep_attempts: int
    link_attempts: int
    swap_attempts: tuple[int, ...]  # per level 1..n


class TrialResult(NamedTuple):
    """One end-to-end entanglement distribution."""

    total_time: float
    counts: StageCounts


def derive_trial_seed(root_seed: int, index: int) -> int:
    """Deterministic 64-bit substream seed for trial ``index``."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash constants (pool size 4, 32-bit words);
# ``estimate`` repeats their arithmetic over arrays of trials, and the
# tests hold it equal to numpy's.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
# Trials whose seed words ``estimate`` derives at once.
_SEED_CHUNK = 1024


class _Words(np.random.bit_generator.ISeedSequence):
    """Hands ``PCG64`` one trial's four seed words from ``_trial_words``,
    which its constructor would otherwise draw from ``SeedSequence``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


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


def _trial_words(root_seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 seed words of ``derive_trial_seed(root_seed, i)`` for i in
    [start, stop), one uint64 row of four per trial.

    The root's words are zero-padded to the pool size, as numpy pads
    them when a spawn key follows; an index of 2^32 or more is two
    words, so a range may not straddle 2^32.  The trial seed's two
    words, least significant first, are the entropy of PCG64's
    ``SeedSequence(seed)``: numpy reads a seed below 2^32 as one word,
    which mixes like the two words (seed, 0) since missing pool words
    hash as zeros.  A row holds the four 64-bit words PCG64 takes from
    it, ``generate_state(4, np.uint64)``: the initial state (high, low)
    and the stream (high, low).
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
    return np.stack([low.astype(np.uint64) | high.astype(np.uint64) << np.uint64(32)
                     for low, high in zip(state_words[0::2], state_words[1::2])], axis=1)


# Requests expecting more elementary links than this are sampled in
# halves, so a level-0 request holds at most this many links.
_SLICE_LINKS = 2**16
# A run whose trials expect more than half this many preparation draws
# holds one trial a block and draws its links' compound sums: 40-65 us
# for four numpy calls with array parameters at 11-15 us each (five if
# its ties are drawn per link), plus 0.1-0.3 us a link, against 11-16 ns
# a draw one by one.  Any other run draws one by one, in blocks that
# expect at most twice this many draws, so a block's fixed numpy calls
# are spread over more trials; blocks of 2^16 draws were 2-27% slower at
# n = 0 over 80 km.  2^14 keeps n = 0 over 80 km and n = 1 over 160 km
# one by one, and n = 4 over 1280 km compound.
_SLICE_DRAWS = 2**14


def _compound_pulses(rng: np.random.Generator, p_l: float, launches: np.ndarray) -> tuple[np.ndarray, int]:
    """Pulse slots of links with ``launches`` launches each, and their
    total preparation draws, from exact compound sums.

    Each launch waits max(G1, G2) slots for iid Geom(p_l) preparations at
    the two ends and counts G1 + G2 draws.  A link's K launches sum min ~
    Geom(1 - q^2) and, unless tied (P = s = p_l/(2 - p_l)), excess ~
    Geom(p_l), as gamma-Poisson negative binomials, which allow a count or
    odds of 0; max = min + excess and G1 + G2 = max + min.  The ties are a
    Bernoulli(s) process over the request's launches, link after link.  A
    request expecting at most one tie a link draws it as Geom(s) gaps
    until they pass its launches, each tie counted at the link its
    position falls in.  One expecting more draws each link's first tie at
    launch Geom(s), which brings 1 + Bin(K - first, s) ties if it comes
    by K, so it holds one number a link however many ties it draws.
    """
    q, tie = 1.0 - p_l, p_l / (2.0 - p_l)
    mins = launches + rng.poisson(rng.standard_gamma(launches) * (q * q / (p_l * (2.0 - p_l))))
    ends = launches.cumsum()
    total = int(ends[-1])
    expected = total * tie
    if expected > launches.size:
        first = rng.geometric(tie, size=launches.size)
        tied = first <= launches
        untied = launches - tied
        untied[tied] -= rng.binomial(launches[tied] - first[tied], tie)
    else:
        # Enough gaps that fewer than 1 request in 3,000 draws again,
        # whatever its expected ties (a Poisson tail bounds theirs).
        size = int(expected + 4.0 * math.sqrt(expected + 1.0)) + 1
        positions = rng.geometric(tie, size=size).cumsum()
        while positions[-1] <= total:
            positions = np.concatenate((positions, positions[-1] + rng.geometric(tie, size=size).cumsum()))
        untied = launches - np.bincount(np.searchsorted(ends, positions[positions <= total]),
                                        minlength=launches.size)
    pulses = mins + untied + rng.poisson(rng.standard_gamma(untied) * (q / p_l))
    return pulses, int(np.add.reduce(pulses)) + int(np.add.reduce(mins))


class _TrialSampler:
    """Blocks of trials of one (params, policy, stage_probs) run, each
    trial on its own Generator, and the run's attempt totals (Python
    ints, so exact); its ``rates.sampling_plan`` is made once."""

    def __init__(self, params: ProtocolParams, policy: SimPolicy,
                 stage_probs: tuple[float, float, float] | None = None):
        self.p_l, self.p_0, self.p_sw, self.links = rates.sampling_plan(params, stage_probs)
        self.n = params.n
        self.swap_comm_time = policy.swap_comm_time
        # Trials per block: a trial expects 2 links[n] / p_0 preparation draws.
        draws = 2.0 * self.links[self.n] / self.p_0
        self.block = 1 if draws > _SLICE_DRAWS / 2 else int(2 * _SLICE_DRAWS / draws)
        # Below 1/3 numpy draws Geom(p) as ceil(E / -log1p(-p)), E a
        # standard exponential; from 1/3 up it searches (scale 0).
        self.scale = -math.log1p(-self.p_l) if self.p_l < 1.0 / 3.0 else 0.0
        self.slot = 1.0 / params.r
        self.flight = params.l0 / params.c
        self.prep_attempts = 0
        self.link_attempts = 0
        self.swap_attempts = [0] * params.n

    def __call__(self, rngs: list[np.random.Generator]) -> np.ndarray:
        """Total times of ``len(rngs)`` trials, trial j drawn from ``rngs[j]``."""
        return self.durations(rngs, self.n, [1] * len(rngs))

    def durations(self, rngs: list[np.random.Generator], level: int, ms: list[int]) -> np.ndarray:
        """Durations of ``ms[j]`` independent level-``level`` links drawn
        from ``rngs[j]``, for each j in turn.  At the top level each entry
        is one link, whose attempt count is drawn as a scalar (the variate
        ``size=1`` draws); that list serves as the level's totals.

        Failed subtrees restart from scratch, so a link lasts the sum, over
        its attempts, of the longer of two fresh links one level down.  An
        entry's 2t children are contiguous, and its round g pairs children
        2g and 2g + 1, for one trial and for a block alike.
        """
        # A link at this level expects links[level] elementary links; a
        # list is halved by entries, then a single entry by links.
        if sum(ms) * self.links[level] > _SLICE_LINKS and (len(ms) > 1 or ms[0] > 1):
            if len(ms) > 1:
                half = len(ms) // 2
                parts = (rngs[:half], ms[:half]), (rngs[half:], ms[half:])
            else:
                half = ms[0] // 2
                parts = (rngs, [half]), (rngs, [ms[0] - half])
            return np.concatenate([self.durations(r, level, m) for r, m in parts])
        p = self.p_0 if level == 0 else self.p_sw
        if level == self.n:
            totals = [rng.geometric(p) for rng in rngs]
            joined = np.array(totals)
        elif len(ms) == 1:  # its total comes below, from a sum or the running sum
            joined, totals = rngs[0].geometric(p, size=ms[0]), None
        else:
            joined = np.concatenate([rng.geometric(p, size=m) for rng, m in zip(rngs, ms)])
            totals = np.add.reduceat(joined, np.cumsum([0] + ms[:-1])).tolist()
        if level == 0:
            totals = totals or [int(np.add.reduce(joined))]
            self.link_attempts += sum(totals)
            return self._pulses(rngs, joined, totals) * self.slot + joined * self.flight
        starts = joined.cumsum()
        totals = totals or [int(starts[-1])]
        starts -= joined
        self.swap_attempts[level - 1] += sum(totals)
        children = self.durations(rngs, level - 1, [2 * t for t in totals])
        rounds = np.maximum(children[0::2], children[1::2])
        if self.swap_comm_time:
            rounds += 2 ** (level - 1) * self.flight
        return np.add.reduceat(rounds, starts)

    def _pulses(self, rngs: list[np.random.Generator], launches: np.ndarray, totals: list[int]) -> np.ndarray:
        """Pulse slots of the links with ``launches`` launches each, trial
        j's ``totals[j]`` launches drawn from ``rngs[j]``, in turn.

        The run's block size chooses the sampler: a block of one trial
        draws its links' compound sums (``_compound_pulses``); a larger
        block fills a request's rows of a (sum(totals), 2) array in one
        call, a row per launch and a column per end, turned into Geom(p_l)
        waits, maxima, link sums and a draw total once for the block.
        """
        if self.block == 1:
            pulses, draws = _compound_pulses(rngs[0], self.p_l, launches)
            self.prep_attempts += draws
            return pulses
        waits = np.empty((sum(totals), 2))
        offset = 0
        for rng, t in zip(rngs, totals):
            if self.scale:
                rng.standard_exponential(out=waits[offset:offset + t])
            else:
                waits[offset:offset + t] = rng.geometric(self.p_l, size=(t, 2))
            offset += t
        if self.scale:
            waits /= self.scale
            np.ceil(waits, out=waits)
        waits = waits.astype(np.int64)
        self.prep_attempts += int(np.add.reduce(waits, None))
        return np.add.reduceat(np.maximum(waits[:, 0], waits[:, 1]), launches.cumsum() - launches)


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
    Raises what ``rates.sampling_plan`` raises, and
    SimulationGuardError if the trial time is not a finite float.
    """
    sampler = _TrialSampler(params, policy, stage_probs)
    # As in ``estimate``: an overflowing trial time is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        total_time = float(sampler([np.random.Generator(np.random.PCG64(seed))])[0])
    if not math.isfinite(total_time):
        raise SimulationGuardError(f"the trial time is {total_time}, not a finite float")
    counts = StageCounts(sampler.prep_attempts, sampler.link_attempts, tuple(sampler.swap_attempts))
    return TrialResult(total_time=total_time, counts=counts)


class EstimateResult(NamedTuple):
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


def _percentiles(values: np.ndarray) -> list[float]:
    """The 50th, 90th and 99th percentiles of ``values`` as
    ``numpy.percentile`` gives them by its default linear method, in the
    same arithmetic (its last-index case and its ``t >= 0.5`` branch of
    the interpolation included), so the two agree bit for bit; the first
    ``numpy.percentile`` call in a process imports ``numpy.ma``."""
    ordered = np.sort(values)
    last = len(ordered) - 1
    out = []
    for q in (0.5, 0.9, 0.99):
        virtual = last * q
        below = -1 if virtual >= last else math.floor(virtual)
        above = -1 if virtual >= last else below + 1
        a, b, t = float(ordered[below]), float(ordered[above]), virtual - below
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def estimate(params: ProtocolParams, policy: SimPolicy, trials: int, seed: int) -> EstimateResult:
    """Aggregate ``trials`` independent trials with substream seeding.

    Trial i runs exactly as ``simulate_trial(params, policy,
    derive_trial_seed(seed, i))``: ``_trial_words`` derives the seed
    words ``_SEED_CHUNK`` trials at a time, numpy's ``PCG64`` constructor
    seeds each trial's Generator from its words, and the sampler keeps the
    run's attempt totals.
    Raises SimulationGuardError if the mean or the standard error of the
    trial times is not a finite float.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sample = _TrialSampler(params, policy)
    try:
        totals = np.empty(trials)
    except MemoryError as exc:
        raise SimulationGuardError(f"{trials} trials need {8.0 * trials:.3g} bytes for their total times, "
                                   "more than can be allocated") from exc
    # Trial i's seed words, which seed its Generator when its block runs.
    words = (row for start in range(0, trials, _SEED_CHUNK)
             for row in _trial_words(seed, start, min(start + _SEED_CHUNK, trials)))
    # Trial times near the float range overflow in the sampler, their sum
    # or their sum of squares; the check below refuses such a run.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, trials, sample.block):
            rngs = [np.random.Generator(np.random.PCG64(_Words(row))) for row in islice(words, sample.block)]
            totals[start:start + len(rngs)] = sample(rngs)
        p50, p90, p99 = _percentiles(totals)
        mean = float(np.mean(totals))
        std_error = float(np.std(totals, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    for name, value in (("mean", mean), ("standard error", std_error)):
        if not math.isfinite(value):
            raise SimulationGuardError(f"the {name} of {trials} trial times is {value}, not a finite float")
    return EstimateResult(
        trials=trials,
        mean=mean,
        std_error=std_error,
        p50=p50,
        p90=p90,
        p99=p99,
        prep_attempts=sample.prep_attempts,
        link_attempts=sample.link_attempts,
        swap_attempts=tuple(sample.swap_attempts),
        swap_comm_time=policy.swap_comm_time,
    )


class ComparisonResult(NamedTuple):
    """Monte Carlo mean against the analytic total time."""

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
    decomposition ``_compound_pulses`` samples: (3 - 2p)/(p(2-p)).
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
