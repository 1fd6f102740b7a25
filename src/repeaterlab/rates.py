"""Closed-form success probabilities, waiting times and fidelity bound.

Every quantity is an exact formula evaluation; the optics module checks
the probabilities against the state-level pipelines and the sim module
quantifies how well the total-time product formula approximates the true
expected time.  ``sampling_plan`` is the one owner of a Monte Carlo run's
sampling guards and of its expected elementary links per swap level,
which the sim module's sampler reads for its block size and split points.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import ProtocolParams, RateReport


class GuardError(ValueError):
    """The chain cannot be evaluated or sampled: a stage probability is
    zero or too small to sample, or a time, rate or bound is not a finite
    float."""


def fiber_transmission(l0: float, l_att: float) -> float:
    """Single-photon fiber transmission exp(-l0 / (2 l_att)) to the
    midpoint of a length-l0 link."""
    if l_att <= 0.0:
        raise ValueError(f"attenuation length must be positive, got {l_att}")
    if l0 < 0.0:
        raise ValueError(f"link length must be nonnegative, got {l0}")
    return math.exp(-l0 / (2.0 * l_att))


def p_local(params: ProtocolParams) -> float:
    """Success probability of one local-entanglement heralding attempt."""
    return (params.eta_p * params.eta_s * params.eta_e1 * params.eta_d) ** 2 / 2.0


def t_local(params: ProtocolParams) -> float:
    """Mean waiting time 1 / (r p_l) for a local entangled pair; raises
    GuardError if r p_l is zero (p_l = 0, or the product underflows)."""
    pl = p_local(params)
    if params.r * pl == 0.0:
        raise GuardError(f"the local success rate r p_l = {params.r} * {pl} is zero; "
                         "the local waiting time diverges")
    return 1.0 / (params.r * pl)


def p_link(params: ProtocolParams) -> float:
    """Success probability of one elementary-link heralding attempt."""
    eta_t = fiber_transmission(params.l0, params.L_att)
    return (params.eta_e2 * params.eta_d * eta_t) ** 2 / 2.0


def p_swap(params: ProtocolParams) -> float:
    """Success probability of one entanglement swap, identical at every level."""
    return (params.eta_e2 * params.eta_d) ** 2 / 2.0


def delta_f(n: int, p_d: float) -> float:
    """Dark-count infidelity bound 2**(n+1) p_d on the distributed pair."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p_d < 1.0:
        raise ValueError(f"p_d must be in [0, 1), got {p_d}")
    try:
        return math.ldexp(p_d, n + 1)
    except OverflowError:
        raise GuardError(f"the dark-count bound 2^{n + 1} p_d overflows a float") from None


def stage_probabilities(params: ProtocolParams) -> tuple[float, float, float]:
    """(p_l, p_0, p_swap); raises GuardError if a stage the chain uses
    never succeeds."""
    pl, p0, psw = p_local(params), p_link(params), p_swap(params)
    if pl == 0.0 or p0 == 0.0 or (params.n > 0 and psw == 0.0):
        raise GuardError(f"a stage probability is zero (p_l = {pl}, p_0 = {p0}, p_swap = {psw}); "
                         "the total time diverges")
    return pl, p0, psw


# Expected preparation draws 2/(p_l p_0) of one elementary link above
# which a Monte Carlo run is refused.  Below it a link's expected draws,
# and so its Poisson means (launches/p_l, expected 1/(p_l p_0) at most),
# stay below 2^46, and the int64 sums over a level-0 request of at most
# ``sim._SLICE_LINKS`` = 2^16 links stay below 2^62 in expectation.  A
# block drawn one by one expects at most 2 ``sim._SLICE_DRAWS`` = 2^15
# waits, each of mean 1/p_l <= 2^45 p_0, so its int64 sum stays at or
# below 2^60 in expectation.
_MAX_LINK_DRAWS = 2**46
# Expected elementary links (2/p_swap)^n of one trial above which a run
# is refused: about 5 s at about 0.3 us per link.
_MAX_TRIAL_LINKS = 2**24


class SamplingPlan(NamedTuple):
    """The stage probabilities of a Monte Carlo run and its expected work:
    ``links[L]`` = (2/p_swap)^L elementary links make one level-L link,
    for L = 0..n, since a swap level takes 1/p_swap attempts on two links."""

    p_l: float
    p_0: float
    p_swap: float
    links: tuple[float, ...]


def sampling_plan(params: ProtocolParams) -> SamplingPlan:
    """The plan of a Monte Carlo run, the one owner of its guards and its
    expected links per level, at ``stage_probabilities(params)``.
    GuardError if a link expects more than ``_MAX_LINK_DRAWS``
    preparation draws, 2/(p_l p_0), or a trial more than
    ``_MAX_TRIAL_LINKS`` elementary links, (2/p_swap)^n; the ``links``
    table is built only once both checks pass."""
    p_l, p_0, p_sw = stage_probabilities(params)
    link_draws = 2.0 / p_l / p_0
    if link_draws > _MAX_LINK_DRAWS:
        raise GuardError(f"p_l = {p_l:.3g} and p_0 = {p_0:.3g} mean 2/(p_l p_0) = {link_draws:.3g} "
                         f"expected preparation draws per link, above the sampling limit {_MAX_LINK_DRAWS:.3g}")
    log2_links = params.n * math.log2(2.0 / p_sw) if params.n else 0.0
    if log2_links > math.log2(_MAX_TRIAL_LINKS):
        raise GuardError(f"n = {params.n} levels at p_swap = {p_sw:.3g} mean (2/p_swap)^n = "
                         f"2^{log2_links:.4g} expected elementary links per trial, "
                         f"above the sampling limit {_MAX_TRIAL_LINKS:.3g}")
    return SamplingPlan(p_l, p_0, p_sw, tuple((2.0 / p_sw) ** level for level in range(params.n + 1)))


def t_total(params: ProtocolParams) -> RateReport:
    """Full analytic report; total time is (L_0/c + T_l) / (p_0 p_swap**n).

    Raises GuardError if a stage probability is zero or the total time is
    not a finite float.
    """
    eta_t = fiber_transmission(params.l0, params.L_att)
    pl, p0, psw = stage_probabilities(params)
    tl = t_local(params)
    t0 = params.l0 / params.c + tl
    denominator = p0 * psw ** params.n
    total = t0 / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(total):
        raise GuardError(f"the total time t_0 / (p_0 p_swap^n) at n = {params.n} is not a finite float")
    return RateReport(
        eta_t=eta_t,
        p_l=pl,
        p_0=p0,
        p_swap=psw,
        t_l=tl,
        t_0=t0,
        t_total=total,
        delta_f=delta_f(params.n, params.p_d),
    )


def balance_rate(params: ProtocolParams) -> float:
    """Repetition rate at which local preparation time equals the fiber
    communication time: t_local(r*) == L_0 / c."""
    pl = p_local(params)
    denominator = params.l0 * pl
    rate = params.c / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(rate):
        raise GuardError(f"the balance rate c / (L_0 p_l) at L_0 = {params.l0} km, p_l = {pl} "
                         "is not a finite float")
    return rate


def optimal_n(params: ProtocolParams, n_min: int, n_max: int) -> tuple[int, RateReport]:
    """Integer argmin of the total time over n in [n_min, n_max], ties
    broken toward smaller n."""
    if n_min > n_max:
        raise ValueError(f"empty range [{n_min}, {n_max}]")
    best_n, best = None, None
    for n in range(n_min, n_max + 1):
        report = t_total(params.with_overrides(n=n))
        if best is None or report.t_total < best.t_total:
            best_n, best = n, report
    return best_n, best
