"""Closed-form success probabilities, waiting times and fidelity bound.

Every quantity is an exact formula evaluation; the optics module checks
the probabilities against the state-level pipelines and the sim module
quantifies how well the total-time product formula approximates the true
expected time.
"""

from __future__ import annotations

import math

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
    """Mean waiting time 1 / (r p_l) for a local entangled pair."""
    pl = p_local(params)
    if pl == 0.0:
        raise ValueError("local success probability is zero; waiting time diverges")
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


def t_total(params: ProtocolParams) -> RateReport:
    """Full analytic report; total time is (L_0/c + T_l) / (p_0 p_swap**n).

    Raises GuardError if a stage probability is zero or the total time is
    not a finite float.
    """
    eta_t = fiber_transmission(params.l0, params.L_att)
    pl, p0, psw = stage_probabilities(params)
    tl = 1.0 / (params.r * pl)
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
