"""Protocol states, Bell-state analyzer, and the heralded pipelines.

The Bell analyzer is a central polarizing beam splitter (transmits H,
reflects V) feeding two diagonal-basis analyzers (transmit |+>, reflect
|->) with four number-resolved detectors D1..D4.  A stage is accepted
only on the paired two-detector coincidences D1&D3 / D2&D4 (same class)
or D1&D4 / D2&D3 (cross class); the cross class needs a phase flip on
one memory qubit's d arm, which is computed here from the engine rather
than assumed.  The analyzer's input modes are the H/V polarizations of
paths a and b (``BSM_INPUT_MODES``), and ``BSM_UNITARY`` is its composed
mode map onto the detectors D1..D4, checked once, at import, into a
``fock.Unitary``.  ``apply_bsm`` is that map followed by one
measurement of the four detector modes, at the efficiency set out
below; a detection pattern is its tuple of counts at D1..D4.  Dark
counts are not modelled here: the rates layer charges them in closed
form (``rates.delta_f``).

The three pipelines (local entanglement, elementary link, swap) build
their states as ensembles -- the stored split photon from its phase, an
ideal pair from its amplitude map (``pme_state``) -- convert memory
excitations to photons, run the analyzer, and report accept probability
plus the corrected fidelity of the post-selected memory state to the
maximally entangled state on that memory's registry.

Every photon loss is charged at the analyzer's detectors.  This holds
under one condition, which every pipeline (and
``filtering_accept_probabilities``) keeps: each photon reaching the
analyzer has passed the same losses whichever of the four
``BSM_INPUT_MODES`` it is on -- retrieval (eta_e1 or eta_e2) and, in the
link, the fiber (eta_t).  Loss that is equal on every input mode
commutes with the passive analyzer map, and a loss eta in front of a
detector of efficiency eta_d is a detector of efficiency eta * eta_d.  So
each pipeline calls ``apply_bsm`` once, at the product of its
efficiencies, and the engine has no loss channel.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .core import ProtocolParams
from .fock import (
    FockError,
    MeasurementOutcome,
    ModeId,
    ModeRegistry,
    WeightedEnsemble,
    checked_unitary,
)
from .rates import fiber_transmission

SQRT_HALF = 1.0 / math.sqrt(2.0)

DETECTORS = ("D1", "D2", "D3", "D4")


class OpticsError(FockError):
    """Raised when a pipeline input does not match its contract."""


class BsmOutcome(Enum):
    """Heralding classification of a detection pattern."""

    ACCEPT_SAME = "accept_same"    # D1&D3 or D2&D4
    ACCEPT_CROSS = "accept_cross"  # D1&D4 or D2&D3
    REJECT = "reject"


_SAME_PAIRS = (frozenset({"D1", "D3"}), frozenset({"D2", "D4"}))
_CROSS_PAIRS = (frozenset({"D1", "D4"}), frozenset({"D2", "D3"}))


def classify(counts: tuple[int, ...]) -> BsmOutcome:
    """Exactly one click at each of two paired detectors accepts;
    everything else (wrong total, double clicks, unpaired detectors)
    rejects."""
    if sum(counts) != 2:
        return BsmOutcome.REJECT
    clicked = frozenset(d for d, c in zip(DETECTORS, counts) if c > 0)
    if len(clicked) != 2:
        return BsmOutcome.REJECT
    if clicked in _SAME_PAIRS:
        return BsmOutcome.ACCEPT_SAME
    if clicked in _CROSS_PAIRS:
        return BsmOutcome.ACCEPT_CROSS
    return BsmOutcome.REJECT


# Input modes of the four-detector Bell analyzer.  After the composed
# PBS + diagonal-analyzer map they carry the detector modes (D1, D2, D3,
# D4) = (c+, c-, d+, d-), where arm c collects transmitted-H /
# reflected-V light and arm d the complement.
BSM_INPUT_MODES = (
    ModeId.photon("a", "H"),
    ModeId.photon("a", "V"),
    ModeId.photon("b", "H"),
    ModeId.photon("b", "V"),
)
# Columns: input modes (aH, aV, bH, bV); rows: detectors D1..D4.
#   aH -> cH -> (D1 + D2)/sqrt2        aV -> dV -> (D3 - D4)/sqrt2
#   bH -> dH -> (D3 + D4)/sqrt2        bV -> cV -> (D1 - D2)/sqrt2
# Checked here, once, as a ``fock.Unitary``, the type ``apply_linear_map`` takes.
BSM_UNITARY = checked_unitary(tuple(tuple(SQRT_HALF * x for x in row) for row in (
    (1.0, 0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, -1.0),
    (0.0, 1.0, 1.0, 0.0),
    (0.0, -1.0, 1.0, 0.0),
)), len(BSM_INPUT_MODES))


def apply_bsm(photons: WeightedEnsemble, eta: float) -> list[MeasurementOutcome]:
    """Run the Bell analyzer: the mode map, then one number-resolved
    measurement of the four detectors at efficiency ``eta`` (eta_d times
    the losses the photons passed on the way).

    Each outcome's counts are the clicks at D1..D4 and its state the
    conditional memory (photonic modes measured out); the outcome
    probabilities sum to 1.
    """
    return photons.apply_linear_map(BSM_INPUT_MODES, BSM_UNITARY).measure(BSM_INPUT_MODES, eta)


# The check points of ``bsm-verify``, in the order
# numpy.random.default_rng(819230475) drew them: five parameter points
# (eta_p, eta_s, eta_e1, eta_e2, eta_d), each entry uniform(0.3, 1.0),
# for the engine-vs-formula check; then twenty dark-state points (g,
# Omega, n_atoms) as uniform(0.1, 5.0), uniform(0.1, 5.0), integers(1, 4).
FORMULA_CHECK_POINTS = (
    (0.5174398826378106, 0.9941315348110484, 0.36703857358642494, 0.5730002283313121, 0.3598229420469087),
    (0.5140825803651127, 0.4510683835172944, 0.3822075850108379, 0.723626674943184, 0.6841545941459778),
    (0.4272044092333366, 0.9236375318929178, 0.7952474741515085, 0.36742010962913346, 0.8094717327062906),
    (0.8289986332868975, 0.8847950490902408, 0.35464204950895906, 0.3614158610762058, 0.32432982850959396),
    (0.6804942523449024, 0.41929217782235745, 0.5496490646477802, 0.9009223316521486, 0.9715063010669744),
)
DARK_STATE_CHECK_POINTS = (
    (0.21263385455729372, 3.7177532621060214, 1),
    (2.8141585767659296, 1.9579980219941846, 1),
    (2.3666567888449075, 0.5682706498656632, 1),
    (1.529748976117522, 2.0590691135658172, 1),
    (3.4824410501419774, 0.7707866928455046, 2),
    (4.89226772498385, 0.6264065316632986, 1),
    (2.477079335682072, 2.9522563587754362, 3),
    (2.5803528064707155, 0.4191747620842943, 2),
    (2.9121289807435913, 2.991020625092839, 1),
    (2.0867957584896217, 0.7735153625164666, 2),
    (3.7551137078296546, 1.7648521320248243, 3),
    (0.1609844135251643, 0.7390074810815798, 2),
    (0.42079442395537003, 4.262196097073977, 3),
    (0.43126939255460117, 0.517069272138166, 1),
    (1.4303802834570292, 1.0881812806255586, 1),
    (3.292170031619702, 1.7959761855449417, 2),
    (0.7676261615666573, 0.5578119007829401, 2),
    (1.805211976256646, 0.17700074757346868, 2),
    (1.096467884396038, 1.9759996238116293, 3),
    (3.223200895692334, 1.3315328516005975, 1),
)


# ---------------------------------------------------------------------------
# Protocol state constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def memory_registry(site: str, species: str = "T") -> ModeRegistry:
    """The u and d ensemble modes of ``site``; one shared registry per
    (site, species), as a registry is never changed after it is built."""
    return ModeRegistry(ModeId.ensemble(site, arm, species) for arm in ("u", "d"))


def store_to_memory(phi: float, eta_p: float, eta_s: float, site: str = "L") -> WeightedEnsemble:
    """Coherent absorption of the split photon (|0>_u|1>_d + e^{i phi}
    |1>_u|0>_d)/sqrt2 into the two ensembles of ``site``.

    The one-photon component maps onto (T_u^dag + e^{i phi} T_d^dag)/sqrt2
    (the d-path amplitude feeds the u ensemble term and vice versa, which
    keeps the unknown channel phase on the d arm); imperfect emission and
    storage leave a vacuum branch of weight 1 - eta_p eta_s.
    """
    # The split photon's path amplitudes over their norm, which rounds off 1.
    amp_u, amp_d = SQRT_HALF * cmath.exp(1j * phi), complex(SQRT_HALF)
    nrm = math.hypot(abs(amp_u), abs(amp_d))
    stored = {(1, 0): amp_d / nrm, (0, 1): amp_u / nrm}
    weight = eta_p * eta_s
    return WeightedEnsemble(memory_registry(site, "T"), [(1.0 - weight, {(0, 0): 1.0 + 0.0j}), (weight, stored)])


def _convert(memory: WeightedEnsemble, site_paths: dict[str, str], species: str) -> WeightedEnsemble:
    """Emit one photon per ``species`` excitation of the named sites.

    For every site in ``site_paths``, the u ensemble emits an H photon and
    the d ensemble a V photon on the site's path, losslessly (the
    retrieval efficiency is charged at the detectors).  A converted T mode
    becomes the S mode of the same arm; a converted S mode leaves the
    registry.
    """
    converted = {}  # registry index -> emitted photon mode
    for site, path in site_paths.items():
        for arm, pol in (("u", "H"), ("d", "V")):
            mode = ModeId.ensemble(site, arm, species)
            if mode not in memory.registry:
                raise OpticsError(f"memory has no {species} mode for site {site!r} arm {arm!r}")
            converted[memory.registry.index(mode)] = ModeId.photon(path, pol)
    kept = [
        (i, ModeId.ensemble(*m.tags[:2], "S") if i in converted else m)
        for i, m in enumerate(memory.registry)
        if species == "T" or i not in converted
    ]
    keep_idx = [i for i, _ in kept]
    new_registry = ModeRegistry(tuple(m for _, m in kept) + tuple(converted.values()))

    branches = []
    for w, amps in memory.branches:
        out = {}
        for occ, amp in amps.items():
            emitted = tuple(occ[i] for i in converted)
            if any(o > 1 for o in emitted):
                raise OpticsError(f"conversion supports at most one excitation per {species} mode")
            out[tuple(occ[i] for i in keep_idx) + emitted] = amp
        branches.append((w, out))
    return WeightedEnsemble(new_registry, branches)


def retrieve_t_to_s(memory: WeightedEnsemble, site_paths: dict[str, str]) -> WeightedEnsemble:
    """T -> S conversion with anti-Stokes emission: T(u) -> S(u) plus an
    H photon, T(d) -> S(d) plus a V photon."""
    return _convert(memory, site_paths, "T")


def retrieve_s_to_photon(memory: WeightedEnsemble, site_paths: dict[str, str]) -> WeightedEnsemble:
    """S -> photon retrieval (H from the u ensemble, V from the d
    ensemble); the S modes leave the registry."""
    return _convert(memory, site_paths, "S")


def pme_state(registry: ModeRegistry, site_a: str, site_b: str) -> dict[tuple, complex]:
    """Amplitude map of the polarization maximally entangled state
    (S_au^dag S_bu^dag + S_ad^dag S_bd^dag)|vac>/sqrt2 on the registry."""
    n = len(registry)
    occ_u, occ_d = [0] * n, [0] * n
    for occ, arm in ((occ_u, "u"), (occ_d, "d")):
        occ[registry.index(ModeId.ensemble(site_a, arm, "S"))] = 1
        occ[registry.index(ModeId.ensemble(site_b, arm, "S"))] = 1
    return dict.fromkeys((tuple(occ_u), tuple(occ_d)), complex(SQRT_HALF))


# ---------------------------------------------------------------------------
# Outcome-conditioned correction and fidelity
# ---------------------------------------------------------------------------

def _classify_phase(alpha: float) -> str:
    """Label of the correction phase ``alpha`` on one qubit's d arm:
    "identity" or "z_flip" when it is 0 or pi, else "phase(x.xxxxxx)"."""
    rot = cmath.exp(1j * alpha)
    if abs(rot - 1.0) < 1e-6:
        return "identity"
    if abs(rot + 1.0) < 1e-6:
        return "z_flip"
    return f"phase({alpha % (2.0 * math.pi):.6f})"


def corrected_fidelity(memory: WeightedEnsemble, site_a: str, site_b: str) -> tuple[float, str]:
    """Fidelity to the maximally entangled state of ``site_a`` and
    ``site_b`` (``pme_state`` on the memory's registry) maximized over a
    free phase on ``site_a``'s d arm (which subsumes the discrete
    identity / Z-flip correction set), and the label of the maximizing
    phase (``_classify_phase``).

    For a phase alpha there, F(alpha) = sum_b w_b |c0_b +
    e^{i alpha} c1_b|^2 with c_n the target overlap restricted to d-arm
    occupation n; the maximum and its maximizer are closed-form.
    """
    target = pme_state(memory.registry, site_a, site_b)
    d_idx = memory.registry.index(ModeId.ensemble(site_a, "d", "S"))

    base = 0.0
    z = 0.0 + 0.0j
    for w, amps in memory.branches:
        c0 = 0.0 + 0.0j
        c1 = 0.0 + 0.0j
        for occ, t_amp in target.items():
            m_amp = amps.get(occ)
            if m_amp is None:
                continue
            if occ[d_idx] == 0:
                c0 += t_amp.conjugate() * m_amp
            else:
                c1 += t_amp.conjugate() * m_amp
        base += w * (abs(c0) ** 2 + abs(c1) ** 2)
        z += w * c1 * c0.conjugate()

    if abs(z) < 1e-300:
        return base, "identity"
    alpha = -cmath.phase(z)
    return base + 2.0 * abs(z), _classify_phase(alpha)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

class PatternReport(NamedTuple):
    """Per-pattern record inside a pipeline report."""

    counts: tuple[int, ...]
    probability: float
    outcome: BsmOutcome
    fidelity: float | None
    correction: str | None


class PipelineReport(NamedTuple):
    """Aggregate of one heralded stage.

    ``fidelity`` is the minimum corrected fidelity over accepting
    patterns, ``branch_count`` the branch count of the photonic ensemble
    entering the detectors.
    """

    accept_prob: float
    fidelity: float
    branch_count: int
    patterns: tuple[PatternReport, ...]


def _heralded_report(photons: WeightedEnsemble, eta: float, site_a: str, site_b: str) -> PipelineReport:
    """Bell analyzer at efficiency ``eta`` on ``photons`` (no dark counts:
    they are handled analytically in the rates layer), each accepting
    pattern's memory scored against the maximally entangled state of
    ``site_a`` and ``site_b``."""
    results = apply_bsm(photons, eta)
    accept_prob = 0.0
    fidelities = []
    reports = []
    for res in results:
        outcome = classify(res.outcome)
        if outcome is BsmOutcome.REJECT:
            reports.append(PatternReport(res.outcome, res.probability, outcome, None, None))
            continue
        fid, corr = corrected_fidelity(res.state, site_a, site_b)
        accept_prob += res.probability
        fidelities.append(fid)
        reports.append(PatternReport(res.outcome, res.probability, outcome, fid, corr))
    return PipelineReport(
        accept_prob=accept_prob,
        fidelity=min(fidelities) if fidelities else 0.0,
        branch_count=photons.branch_count,
        patterns=tuple(reports),
    )


def _inner_qubits_to_light(pair_a: tuple[str, str], pair_b: tuple[str, str]) -> WeightedEnsemble:
    """Two ideal pairs (outer, inner) and (inner, outer) with the inner
    qubits retrieved to light on paths a and b."""
    pairs = []
    for x, y in (pair_a, pair_b):
        registry = ModeRegistry(memory_registry(x, "S").modes + memory_registry(y, "S").modes)
        pairs.append(WeightedEnsemble.pure(registry, pme_state(registry, x, y)))
    ens_a, ens_b = pairs
    return retrieve_s_to_photon(ens_a.tensor(ens_b), {pair_a[1]: "a", pair_b[0]: "b"})


def local_entanglement_pipeline(
    params: ProtocolParams,
    phi_l: float = 0.0,
    phi_r: float = 0.0,
) -> PipelineReport:
    """Local entanglement between the two memory qubits of one node.

    Split-photon storage at sites L and R, T -> S conversion with
    anti-Stokes emission, and the Bell analyzer on the two photons.  The
    conditional memory is compared against the four-S-mode target state.
    """
    mem_l = store_to_memory(phi_l, params.eta_p, params.eta_s, "L")
    mem_r = store_to_memory(phi_r, params.eta_p, params.eta_s, "R")
    ens = retrieve_t_to_s(mem_l.tensor(mem_r), {"L": "a", "R": "b"})
    return _heralded_report(ens, params.eta_e1 * params.eta_d, "L", "R")


def link_pipeline(params: ProtocolParams) -> PipelineReport:
    """Elementary-link generation between nodes A and B.

    Both nodes hold ideal local target states; the inner qubits A_R and
    B_L are retrieved to light, each photon crosses half the link
    (transmission exp(-L_0 / (2 L_att))), and the analyzer heralds the
    outer-qubit pair A_L--B_R.
    """
    ens = _inner_qubits_to_light(("A_L", "A_R"), ("B_L", "B_R"))
    eta_t = fiber_transmission(params.l0, params.L_att)
    return _heralded_report(ens, params.eta_e2 * eta_t * params.eta_d, "A_L", "B_R")


def filtering_accept_probabilities(params: ProtocolParams) -> dict[str, float]:
    """Accept probability contributed by each spurious memory component.

    The vacuum, the single-excitation components, and the two-excitation
    components with both photons on the same polarization class produce
    no paired two-detector coincidence, so each probability is zero (no
    dark counts here); the returned map makes that checkable per
    component.
    """
    registry = ModeRegistry(memory_registry("L", "T").modes + memory_registry("R", "T").modes)
    components = {
        "vacuum": (0, 0, 0, 0),
        "single_L_u": (1, 0, 0, 0),
        "single_R_d": (0, 0, 0, 1),
        "double_Lu_Rd": (1, 0, 0, 1),
        "double_Ld_Ru": (0, 1, 1, 0),
    }
    out = {}
    for name, occupation in components.items():
        ens = WeightedEnsemble.pure(registry, {occupation: 1.0})
        ens = retrieve_t_to_s(ens, {"L": "a", "R": "b"})
        results = apply_bsm(ens, params.eta_e1 * params.eta_d)
        out[name] = sum(
            res.probability for res in results if classify(res.outcome) is not BsmOutcome.REJECT
        )
    return out


def swap_pipeline(params: ProtocolParams) -> PipelineReport:
    """Entanglement swap at middle node B, connecting A--B and B--C pairs
    into an A--C pair over doubled distance (no fiber loss: the photons
    are detected locally at B)."""
    ens = _inner_qubits_to_light(("A", "B_L"), ("B_R", "C"))
    return _heralded_report(ens, params.eta_e2 * params.eta_d, "A", "C")
