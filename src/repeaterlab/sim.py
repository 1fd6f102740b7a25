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
rerun is bit-for-bit identical.  Within a trial the stream runs
top-down: one Geom(p_swap) attempt count per requested link at each
level; then, per level-0 slice, the K ~ Geom(p_0) launch counts followed
by the 2*sum(K) preparation draws, drawn in (2, _SLICE_DRAWS/2) pieces
when a single link needs more than ``_SLICE_DRAWS``.  ``_SLICE_DRAWS``
fixes the slicing.
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


# Requests expecting more preparation draws than this are sampled in
# halves, and one elementary link that needs more draws them in pieces
# of this size: a few MB at a time.
_SLICE_DRAWS = 2**16
# Expected preparation draws of one elementary link above which a trial
# cannot be sampled (2**26 draws take several seconds per link).
_MAX_LINK_DRAWS = 2**26


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
    Raises SimulationGuardError if a stage probability is zero or one
    link needs more than ``_MAX_LINK_DRAWS`` expected preparation draws.
    """
    if stage_probs is None:
        p_l, p_0, p_sw = rates.stage_probabilities(params)
    else:
        for name, p in zip(("p_l", "p_0", "p_swap"), stage_probs):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"stage_probs: {name} = {p!r} lies outside (0, 1]")
        p_l, p_0, p_sw = stage_probs
    if 2.0 / p_0 > _MAX_LINK_DRAWS:
        raise SimulationGuardError(f"link success probability p_0 = {p_0:.3g} means 1/p_0 = {1.0 / p_0:.3g} "
                                   f"expected launches per link, above the sampling limit {_MAX_LINK_DRAWS // 2}")
    rng = np.random.Generator(np.random.PCG64(seed))
    slot = 1.0 / params.r
    flight = params.l0 / params.c

    # Expected preparation draws of one link at each level.
    link_draws = [2.0 / p_0]
    for _ in range(params.n):
        link_draws.append(link_draws[-1] * 2.0 / p_sw)
    prep_attempts = 0
    link_attempts = 0
    swap_attempts = [0] * params.n

    def durations(level: int, m: int) -> np.ndarray:
        """Durations of ``m`` independent level-``level`` links.

        Failed subtrees restart from scratch, so a link lasts the sum, over
        its attempts, of the longer of two fresh links one level down.
        """
        nonlocal prep_attempts, link_attempts
        if m > 1 and m * link_draws[level] > _SLICE_DRAWS:
            half = m // 2
            return np.concatenate((durations(level, half), durations(level, m - half)))
        attempts = rng.geometric(p_0 if level == 0 else p_sw, size=m)
        total = int(attempts.sum())
        starts = np.cumsum(attempts) - attempts
        if level == 0:
            link_attempts += total
            # A single link is reduced one slice of draws at a time.
            width = total if m > 1 else min(total, _SLICE_DRAWS // 2)
            pulses = 0
            for start in range(0, total, width):
                draws = rng.geometric(p_l, size=(2, min(width, total - start)))
                prep_attempts += int(draws.sum())
                pulses = pulses + np.add.reduceat(np.maximum(draws[0], draws[1]), starts)
            return pulses * slot + attempts * flight
        swap_attempts[level - 1] += total
        left, right = durations(level - 1, 2 * total).reshape(2, total)
        rounds = np.maximum(left, right)
        if policy.swap_comm_time:
            rounds += 2 ** (level - 1) * flight
        return np.add.reduceat(rounds, starts)

    total_time = float(durations(params.n, 1)[0])
    return TrialResult(
        total_time=total_time,
        counts=StageCounts(prep_attempts, link_attempts, tuple(swap_attempts)),
    )


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
    """Aggregate ``trials`` independent trials with substream seeding."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    totals = np.empty(trials)
    prep = 0
    link = 0
    swaps = [0] * params.n
    for i in range(trials):
        res = simulate_trial(params, policy, derive_trial_seed(seed, i))
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

    Absorbing-Markov-chain solve on the readiness states {00, 01, 10}
    (11 absorbing), each step one source pulse at both unready ends.
    Equals E[max(G_a, G_b)] = 2/p - 1/(p(2-p)) for iid geometrics.
    """
    if not 0.0 < p_l <= 1.0:
        raise ValueError(f"p_l must be in (0, 1], got {p_l}")
    if p_l == 1.0:
        return 1.0
    q = 1.0 - p_l
    # Transient transition matrix over (00, 01, 10).
    transient = np.array([
        [q * q, p_l * q, p_l * q],
        [0.0, q, 0.0],
        [0.0, 0.0, q],
    ])
    steps = np.linalg.solve(np.eye(3) - transient, np.ones(3))
    return float(steps[0])


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
    pulse expectation from the absorbing-chain solve.

    n = 1: the two links evolve independently on the common pulse
    lattice, so the expected swap-round duration is E[max(T_1, T_2)] =
    2 E[T] - sum_u S_u^2 (in slots) and the total is that over p_swap.
    This requires the heralding flight L_0/c to be an integer number of
    pulse slots; the result is exact up to the < 1e-9 relative
    truncation of the survival series, which stops at S_u < 1e-5
    (S_u^2 < 1e-10) and adds a geometric tail.  It agrees with the
    0.2.0 oracle (scipy recursions, cutoff S_u < 1e-10) to about 1e-14
    relative at n = 1 over 160 km.  The cost grows like 1/p_0 (n = 1
    takes about 0.6 s over 160 km and 57 s over 320 km).
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
