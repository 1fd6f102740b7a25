"""Protocol states, Bell-state analyzer, and the heralded pipelines.

The Bell analyzer is a central polarizing beam splitter (transmits H,
reflects V) feeding two diagonal-basis analyzers (transmit |+>, reflect
|->) with four number-resolved detectors D1..D4.  A stage is accepted
only on the paired two-detector coincidences D1&D3 / D2&D4 (same class)
or D1&D4 / D2&D3 (cross class); the cross class needs a phase flip on
one memory qubit's d arm, which is computed here from the engine rather
than assumed.  The analyzer's input modes are the H/V polarizations of
paths a and b (``BSM_INPUT_MODES``), and ``BSM_UNITARY`` is its composed
mode map onto the detectors D1..D4.

The three pipelines (local entanglement, elementary link, swap) compose
the state constructors with loss channels and the analyzer, and report
accept probability plus the corrected fidelity of the post-selected
memory state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ProtocolParams
from .fock import (
    FockError,
    ModeId,
    ModeRegistry,
    PureState,
    WeightedEnsemble,
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


@dataclass(frozen=True)
class DetectionPattern:
    """Number-resolved click counts at the four detectors."""

    counts: tuple[int, int, int, int]

    @property
    def clicks(self) -> dict[str, int]:
        return dict(zip(DETECTORS, self.counts))

    def total(self) -> int:
        return sum(self.counts)

    def name(self) -> str:
        clicked = [f"{d}x{c}" if c > 1 else d for d, c in zip(DETECTORS, self.counts) if c > 0]
        return "&".join(clicked) if clicked else "none"


def classify(pattern: DetectionPattern) -> BsmOutcome:
    """Exactly one click at each of two paired detectors accepts;
    everything else (wrong total, double clicks, unpaired detectors)
    rejects."""
    if pattern.total() != 2:
        return BsmOutcome.REJECT
    clicked = frozenset(d for d, c in zip(DETECTORS, pattern.counts) if c > 0)
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
BSM_UNITARY = SQRT_HALF * np.array([
    [1.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, -1.0],
    [0.0, 1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0, 0.0],
], dtype=complex)
BSM_UNITARY.flags.writeable = False


@dataclass(frozen=True)
class BsmResult:
    """One recorded detection pattern with its probability and the
    conditional memory state (photonic modes already measured out)."""

    pattern: DetectionPattern
    probability: float
    memory: WeightedEnsemble


def apply_bsm(photons: WeightedEnsemble, eta_d: float, p_d: float = 0.0) -> list[BsmResult]:
    """Run the Bell analyzer: mode map, detector loss, number-resolved
    measurement of all four detectors, then optional dark counts.

    With probability ``p_d`` each detector independently adds one phantom
    click to its recorded count; the conditional memory of a recorded
    pattern is then the probability-weighted mixture over the compatible
    real patterns.  Pattern probabilities sum to 1.
    """
    ens = WeightedEnsemble(
        [(w, s.apply_linear_map(BSM_INPUT_MODES, BSM_UNITARY)) for w, s in photons.branches]
    )
    for mode in BSM_INPUT_MODES:
        ens = ens.apply_loss(mode, eta_d)

    partial: list[tuple[tuple[int, ...], float, WeightedEnsemble]] = [((), 1.0, ens)]
    for mode in BSM_INPUT_MODES:
        grown = []
        for counts, prob, state in partial:
            for mo in state.measure_number(mode):
                grown.append((counts + (mo.outcome,), prob * mo.probability, mo.state))
        partial = grown

    if p_d == 0.0:
        return [
            BsmResult(DetectionPattern(counts), prob, memory)
            for counts, prob, memory in sorted(partial, key=lambda t: t[0])
        ]

    # Convolve with independent phantom clicks.
    recorded: dict[tuple[int, ...], list] = {}
    totals: dict[tuple[int, ...], float] = {}
    for counts, prob, memory in partial:
        for phantom in np.ndindex(2, 2, 2, 2):
            weight = prob * math.prod(p_d if f else (1.0 - p_d) for f in phantom)
            if weight <= 0.0:
                continue
            rec = tuple(c + f for c, f in zip(counts, phantom))
            totals[rec] = totals.get(rec, 0.0) + weight
            recorded.setdefault(rec, []).extend((weight * w, s) for w, s in memory.branches)
    return [
        BsmResult(DetectionPattern(rec), totals[rec], WeightedEnsemble(recorded[rec]))
        for rec in sorted(recorded)
    ]


# ---------------------------------------------------------------------------
# Protocol state constructors
# ---------------------------------------------------------------------------

def input_photon_state(phi: float, site: str = "L") -> PureState:
    """Split-photon input state (|0>_u|1>_d + e^{i phi} |1>_u|0>_d)/sqrt2
    over the two path modes feeding one node's ensembles."""
    registry = ModeRegistry((ModeId.photon(f"{site}.u_in"), ModeId.photon(f"{site}.d_in")))
    return PureState(registry, {
        (0, 1): SQRT_HALF,
        (1, 0): SQRT_HALF * cmath.exp(1j * phi),
    })


def memory_registry(site: str, species: str = "T") -> ModeRegistry:
    return ModeRegistry((
        ModeId.ensemble(site, "u", species),
        ModeId.ensemble(site, "d", species),
    ))


def store_to_memory(photon: PureState, eta_p: float, eta_s: float, site: str = "L") -> WeightedEnsemble:
    """Coherent absorption of the split photon into the two ensembles.

    The one-photon component maps onto (T_u^dag + e^{i phi} T_d^dag)/sqrt2
    (the d-path amplitude feeds the u ensemble term and vice versa, which
    keeps the unknown channel phase on the d arm); imperfect emission and
    storage leave a vacuum branch of weight 1 - eta_p eta_s.
    """
    if len(photon.registry) != 2:
        raise OpticsError("input photon state must live on exactly two path modes")
    amp_u = photon.amplitude((1, 0))
    amp_d = photon.amplitude((0, 1))
    residual = sum(abs(a) for occ, a in photon.amps.items() if occ not in ((1, 0), (0, 1)))
    if residual > 1e-12:
        raise OpticsError("input must be a one-photon two-path state")
    nrm = math.hypot(abs(amp_u), abs(amp_d))
    if abs(nrm - 1.0) > 1e-8:
        raise OpticsError("input photon state must be normalized")

    registry = memory_registry(site, "T")
    stored = PureState(registry, {(1, 0): amp_d / nrm, (0, 1): amp_u / nrm})
    weight = eta_p * eta_s
    branches = [(1.0 - weight, PureState.vacuum(registry)), (weight, stored)]
    return WeightedEnsemble(branches)


def _convert(memory: WeightedEnsemble, eta: float, site_paths: dict[str, str], species: str) -> WeightedEnsemble:
    """Emit one photon per ``species`` excitation of the named sites.

    For every site in ``site_paths``, the u ensemble emits an H photon and
    the d ensemble a V photon on the site's path; each new photon then
    passes a transmissivity-``eta`` loss channel.  A converted T mode
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
    for w, state in memory.branches:
        amps = {}
        for occ, amp in state.amps.items():
            emitted = tuple(occ[i] for i in converted)
            if any(o > 1 for o in emitted):
                raise OpticsError(f"conversion supports at most one excitation per {species} mode")
            amps[tuple(occ[i] for i in keep_idx) + emitted] = amp
        branches.append((w, PureState(new_registry, amps)))
    ens = WeightedEnsemble(branches)
    for mode in converted.values():
        ens = ens.apply_loss(mode, eta)
    return ens


def retrieve_t_to_s(memory: WeightedEnsemble, eta_e1: float, site_paths: dict[str, str]) -> WeightedEnsemble:
    """T -> S conversion with anti-Stokes emission at efficiency ``eta_e1``:
    T(u) -> S(u) plus an H photon, T(d) -> S(d) plus a V photon."""
    return _convert(memory, eta_e1, site_paths, "T")


def retrieve_s_to_photon(memory: WeightedEnsemble, eta_e2: float, site_paths: dict[str, str]) -> WeightedEnsemble:
    """S -> photon retrieval at efficiency ``eta_e2`` (H from the u
    ensemble, V from the d ensemble); the S modes leave the registry."""
    return _convert(memory, eta_e2, site_paths, "S")


def pme_state(registry: ModeRegistry, site_a: str, site_b: str) -> PureState:
    """Polarization maximally entangled target
    (S_au^dag S_bu^dag + S_ad^dag S_bd^dag)|vac>/sqrt2 on the registry."""
    n = len(registry)
    occ_u, occ_d = [0] * n, [0] * n
    for occ, arm in ((occ_u, "u"), (occ_d, "d")):
        occ[registry.index(ModeId.ensemble(site_a, arm, "S"))] = 1
        occ[registry.index(ModeId.ensemble(site_b, arm, "S"))] = 1
    return PureState(registry, {tuple(occ_u): SQRT_HALF, tuple(occ_d): SQRT_HALF})


# ---------------------------------------------------------------------------
# Outcome-conditioned correction and fidelity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Correction:
    """Local correction that maximized the fidelity: a phase on one
    qubit's d arm, classified as identity / z_flip when it is 0 / pi."""

    kind: str
    phase: float

    def describe(self) -> str:
        if self.kind == "phase":
            return f"phase({self.phase:.6f})"
        return self.kind


def _classify_phase(alpha: float) -> Correction:
    rot = cmath.exp(1j * alpha)
    if abs(rot - 1.0) < 1e-6:
        return Correction("identity", 0.0)
    if abs(rot + 1.0) < 1e-6:
        return Correction("z_flip", math.pi)
    return Correction("phase", alpha % (2.0 * math.pi))


def corrected_fidelity(
    memory: WeightedEnsemble,
    outcome: BsmOutcome,
    target: PureState,
) -> tuple[float, Correction]:
    """Fidelity to ``target`` maximized over a free phase on one qubit's
    d arm (which subsumes the discrete identity / Z-flip correction set).

    The phase acts on the registry's first d-arm ensemble mode.  For a
    phase alpha there, F(alpha) = sum_b w_b |c0_b +
    e^{i alpha} c1_b|^2 with c_n the target overlap restricted to d-arm
    occupation n; the maximum and its maximizer are closed-form.
    """
    if outcome is BsmOutcome.REJECT:
        raise OpticsError("corrected_fidelity is undefined for rejected patterns")
    if target.registry != memory.registry:
        raise OpticsError("target registry differs from memory registry")
    candidates = [m for m in memory.registry if m.kind == "ensemble" and m.tags[1] == "d"]
    if not candidates:
        raise OpticsError("memory registry has no d-arm ensemble mode")
    d_idx = memory.registry.index(candidates[0])

    base = 0.0
    z = 0.0 + 0.0j
    for w, state in memory.branches:
        c0 = 0.0 + 0.0j
        c1 = 0.0 + 0.0j
        for occ, t_amp in target.amps.items():
            m_amp = state.amps.get(occ)
            if m_amp is None:
                continue
            if occ[d_idx] == 0:
                c0 += t_amp.conjugate() * m_amp
            elif occ[d_idx] == 1:
                c1 += t_amp.conjugate() * m_amp
            else:
                raise OpticsError("free-phase correction expects d-arm occupation <= 1 in the target")
        base += w * (abs(c0) ** 2 + abs(c1) ** 2)
        z += w * c1 * c0.conjugate()

    if abs(z) < 1e-300:
        return base, Correction("identity", 0.0)
    alpha = -cmath.phase(z)
    return base + 2.0 * abs(z), _classify_phase(alpha)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternReport:
    """Per-pattern record inside a pipeline report."""

    pattern: DetectionPattern
    probability: float
    outcome: BsmOutcome
    fidelity: float | None
    correction: Correction | None


@dataclass(frozen=True)
class PipelineReport:
    """Aggregate of one heralded stage.

    ``fidelity`` is the minimum corrected fidelity over accepting
    patterns, ``correction`` a compact summary of the per-pattern
    corrections, ``branch_count`` the branch count of the photonic
    ensemble entering the detectors.
    """

    accept_prob: float
    fidelity: float
    correction: str
    branch_count: int
    patterns: tuple[PatternReport, ...]

    def to_record(self) -> dict:
        return {
            "accept_prob": self.accept_prob,
            "fidelity": self.fidelity,
            "correction": self.correction,
            "branch_count": self.branch_count,
        }


def _heralded_report(photons: WeightedEnsemble, eta_d: float, site_a: str, site_b: str) -> PipelineReport:
    """Bell analyzer on ``photons`` (no dark counts: they are handled
    analytically in the rates layer), each accepting pattern's memory
    scored against the maximally entangled state of ``site_a`` and
    ``site_b``."""
    results = apply_bsm(photons, eta_d)
    target = pme_state(results[0].memory.registry, site_a, site_b)
    accept_prob = 0.0
    fidelities = []
    corrections = []
    reports = []
    for res in results:
        outcome = classify(res.pattern)
        if outcome is BsmOutcome.REJECT:
            reports.append(PatternReport(res.pattern, res.probability, outcome, None, None))
            continue
        fid, corr = corrected_fidelity(res.memory, outcome, target)
        accept_prob += res.probability
        fidelities.append(fid)
        corrections.append(f"{res.pattern.name()}:{corr.describe()}")
        reports.append(PatternReport(res.pattern, res.probability, outcome, fid, corr))
    return PipelineReport(
        accept_prob=accept_prob,
        fidelity=min(fidelities) if fidelities else 0.0,
        correction="; ".join(corrections) if corrections else "none",
        branch_count=photons.branch_count,
        patterns=tuple(reports),
    )


def _inner_qubits_to_light(eta_e2: float, pair_a: tuple[str, str], pair_b: tuple[str, str]) -> WeightedEnsemble:
    """Two ideal pairs (outer, inner) and (inner, outer) with the inner
    qubits retrieved to light on paths a and b."""
    ens_a, ens_b = (
        WeightedEnsemble.from_pure(
            pme_state(ModeRegistry(memory_registry(x, "S").modes + memory_registry(y, "S").modes), x, y)
        )
        for x, y in (pair_a, pair_b)
    )
    return retrieve_s_to_photon(ens_a.tensor(ens_b), eta_e2, {pair_a[1]: "a", pair_b[0]: "b"})


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
    mem_l = store_to_memory(input_photon_state(phi_l, "L"), params.eta_p, params.eta_s, "L")
    mem_r = store_to_memory(input_photon_state(phi_r, "R"), params.eta_p, params.eta_s, "R")
    ens = retrieve_t_to_s(mem_l.tensor(mem_r), params.eta_e1, {"L": "a", "R": "b"})
    return _heralded_report(ens, params.eta_d, "L", "R")


def link_pipeline(params: ProtocolParams) -> PipelineReport:
    """Elementary-link generation between nodes A and B.

    Both nodes hold ideal local target states; the inner qubits A_R and
    B_L are retrieved to light, each photon crosses half the link
    (transmission exp(-L_0 / (2 L_att))), and the analyzer heralds the
    outer-qubit pair A_L--B_R.
    """
    ens = _inner_qubits_to_light(params.eta_e2, ("A_L", "A_R"), ("B_L", "B_R"))
    eta_t = fiber_transmission(params.l0, params.L_att)
    for mode in BSM_INPUT_MODES:
        ens = ens.apply_loss(mode, eta_t)
    return _heralded_report(ens, params.eta_d, "A_L", "B_R")


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
        ens = WeightedEnsemble.from_pure(PureState(registry, {occupation: 1.0}))
        ens = retrieve_t_to_s(ens, params.eta_e1, {"L": "a", "R": "b"})
        results = apply_bsm(ens, params.eta_d)
        out[name] = sum(
            res.probability for res in results if classify(res.pattern) is not BsmOutcome.REJECT
        )
    return out


def swap_pipeline(params: ProtocolParams) -> PipelineReport:
    """Entanglement swap at middle node B, connecting A--B and B--C pairs
    into an A--C pair over doubled distance (no fiber loss: the photons
    are detected locally at B)."""
    ens = _inner_qubits_to_light(params.eta_e2, ("A", "B_L"), ("B_R", "C"))
    return _heralded_report(ens, params.eta_d, "A", "C")
