import cmath
import math

import numpy as np
import pytest

from repeaterlab import rates
from repeaterlab.core import paper_defaults
from repeaterlab.fock import ModeId, ModeRegistry, PureState, WeightedEnsemble
from repeaterlab.optics import (
    BSM_UNITARY,
    BsmOutcome,
    DetectionPattern,
    OpticsError,
    apply_bsm,
    classify,
    corrected_fidelity,
    filtering_accept_probabilities,
    input_photon_state,
    link_pipeline,
    local_entanglement_pipeline,
    memory_registry,
    pme_state,
    retrieve_s_to_photon,
    retrieve_t_to_s,
    store_to_memory,
    swap_pipeline,
)

SQ2 = math.sqrt(2.0)

IDEAL = paper_defaults().with_overrides(eta_p=1.0, eta_s=1.0, eta_e1=1.0, eta_e2=1.0, eta_d=1.0)


def photon_registry():
    return ModeRegistry((
        ModeId.photon("a", "H"),
        ModeId.photon("a", "V"),
        ModeId.photon("b", "H"),
        ModeId.photon("b", "V"),
    ))


def bell_photons(kind):
    reg = photon_registry()
    states = {
        "phi+": {(1, 0, 1, 0): 1 / SQ2, (0, 1, 0, 1): 1 / SQ2},
        "phi-": {(1, 0, 1, 0): 1 / SQ2, (0, 1, 0, 1): -1 / SQ2},
        "psi+": {(1, 0, 0, 1): 1 / SQ2, (0, 1, 1, 0): 1 / SQ2},
        "psi-": {(1, 0, 0, 1): 1 / SQ2, (0, 1, 1, 0): -1 / SQ2},
    }
    return WeightedEnsemble.from_pure(PureState(reg, states[kind]))


def pattern_probs(results):
    return {res.pattern.counts: res.probability for res in results}


def accept_probability(results):
    return sum(r.probability for r in results if classify(r.pattern) is not BsmOutcome.REJECT)


# ---------------------------------------------------------------------------
# input state and storage
# ---------------------------------------------------------------------------

def test_input_state_symmetric():
    state = input_photon_state(0.0)
    assert state.amplitude((0, 1)) == pytest.approx(1 / SQ2)
    assert state.amplitude((1, 0)) == pytest.approx(1 / SQ2)


def test_input_state_pi_phase():
    state = input_photon_state(math.pi)
    assert state.amplitude((0, 1)) == pytest.approx(1 / SQ2)
    assert state.amplitude((1, 0)).real == pytest.approx(-1 / SQ2)
    assert abs(state.amplitude((1, 0)).imag) < 1e-12


@pytest.mark.parametrize("phi", [0.3, 1.9, 4.4, 6.0])
def test_input_state_normalized(phi):
    assert input_photon_state(phi).norm() == pytest.approx(1.0, abs=1e-12)


def test_store_perfect_gives_pure_mapped_state():
    phi = 0.77
    ens = store_to_memory(input_photon_state(phi), 1.0, 1.0, "L")
    assert ens.branch_count == 1
    w, state = ens.branches[0]
    assert w == pytest.approx(1.0)
    assert state.amplitude((1, 0)) == pytest.approx(1 / SQ2)
    assert state.amplitude((0, 1)) == pytest.approx(cmath.exp(1j * phi) / SQ2)


def test_store_vacuum_weight():
    # 1 - 0.9 * 0.9 = 0.19 by hand
    ens = store_to_memory(input_photon_state(0.0), 0.9, 0.9, "L")
    vac = [w for w, s in ens.branches if s.amplitude((0, 0)) != 0]
    assert vac[0] == pytest.approx(0.19, abs=1e-12)


def test_store_dead_source_gives_vacuum():
    ens = store_to_memory(input_photon_state(0.0), 0.0, 0.9, "L")
    assert ens.branch_count == 1
    assert ens.branches[0][1].amplitude((0, 0)) == pytest.approx(1.0)


def test_store_rejects_malformed_input():
    reg = ModeRegistry((ModeId.photon("u"), ModeId.photon("d")))
    two_photon = PureState(reg, {(1, 1): 1.0})
    with pytest.raises(OpticsError):
        store_to_memory(two_photon, 1.0, 1.0, "L")


# ---------------------------------------------------------------------------
# retrieval stages
# ---------------------------------------------------------------------------

def test_retrieve_t_to_s_perfect_mode_map():
    phi = 1.23
    ens = store_to_memory(input_photon_state(phi), 1.0, 1.0, "L")
    out = retrieve_t_to_s(ens, 1.0, {"L": "a"})
    assert out.branch_count == 1
    state = out.branches[0][1]
    # (S_u a_H + e^{i phi} S_d a_V)/sqrt2 over (S_u, S_d, aH, aV)
    assert state.amplitude((1, 0, 1, 0)) == pytest.approx(1 / SQ2)
    assert state.amplitude((0, 1, 0, 1)) == pytest.approx(cmath.exp(1j * phi) / SQ2)


def test_retrieve_t_to_s_full_loss_keeps_memory():
    ens = store_to_memory(input_photon_state(0.0), 1.0, 1.0, "L")
    out = retrieve_t_to_s(ens, 0.0, {"L": "a"})
    # photons all lost; each branch keeps its S excitation content
    for mode in (ModeId.photon("a", "H"), ModeId.photon("a", "V")):
        dist = {mo.outcome: mo.probability for mo in out.measure_number(mode)}
        assert dist == {0: pytest.approx(1.0, abs=1e-12)}
    mean_s_excitation = sum(
        w * sum((occ[0] + occ[1]) * abs(a) ** 2 for occ, a in s.amps.items())
        for w, s in out.branches
    )
    assert mean_s_excitation == pytest.approx(1.0, abs=1e-10)


def test_retrieve_acceptance_scales_as_eta_e1_squared():
    base = paper_defaults().with_overrides(eta_e1=1.0)
    half = paper_defaults().with_overrides(eta_e1=0.5)
    p_full = local_entanglement_pipeline(base).accept_prob
    p_half = local_entanglement_pipeline(half).accept_prob
    assert p_half / p_full == pytest.approx(0.25, rel=1e-9)


def test_retrieve_s_to_photon_pme_to_photons():
    reg = ModeRegistry(memory_registry("A", "S").modes + memory_registry("B", "S").modes)
    ens = WeightedEnsemble.from_pure(pme_state(reg, "A", "B"))
    out = retrieve_s_to_photon(ens, 1.0, {"A": "a", "B": "b"})
    assert out.branch_count == 1
    state = out.branches[0][1]
    assert len(state.registry) == 4  # S modes removed, photon modes only
    assert state.amplitude((1, 0, 1, 0)) == pytest.approx(1 / SQ2)
    assert state.amplitude((0, 1, 0, 1)) == pytest.approx(1 / SQ2)


def test_retrieve_s_to_photon_dead_gives_vacuum_photons():
    reg = ModeRegistry(memory_registry("A", "S").modes + memory_registry("B", "S").modes)
    ens = WeightedEnsemble.from_pure(pme_state(reg, "A", "B"))
    out = retrieve_s_to_photon(ens, 0.0, {"A": "a", "B": "b"})
    assert out.weight_sum() == pytest.approx(1.0, abs=1e-10)
    for w, s in out.branches:
        assert all(sum(occ) == 0 for occ in s.amps)



@pytest.mark.parametrize("retrieve, species, site, match", [
    (retrieve_t_to_s, "T", "L", "at most one excitation"),
    (retrieve_s_to_photon, "S", "L", "at most one excitation"),
    (retrieve_t_to_s, "T", "X", "'X'"),
    (retrieve_s_to_photon, "S", "X", "'X'"),
])
def test_retrieve_error_paths(retrieve, species, site, match):
    # Two excitations in the L u-arm mode, or a site the memory lacks.
    memory = WeightedEnsemble.from_pure(PureState(memory_registry("L", species), {(2, 0): 1.0}))
    with pytest.raises(OpticsError, match=match):
        retrieve(memory, 1.0, {site: "a"})

# ---------------------------------------------------------------------------
# Bell analyzer
# ---------------------------------------------------------------------------

def test_network_unitary():
    u = BSM_UNITARY
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_bsm_phi_plus_coincidences():
    # Hand expansion through PBS and diagonal analyzers: phi+ maps to
    # (D1 D3 + D2 D4)/sqrt2.
    probs = pattern_probs(apply_bsm(bell_photons("phi+"), 1.0))
    assert probs[(1, 0, 1, 0)] == pytest.approx(0.5, abs=1e-10)
    assert probs[(0, 1, 0, 1)] == pytest.approx(0.5, abs=1e-10)
    assert len(probs) == 2


def test_bsm_phi_minus_cross_coincidences():
    probs = pattern_probs(apply_bsm(bell_photons("phi-"), 1.0))
    assert probs[(1, 0, 0, 1)] == pytest.approx(0.5, abs=1e-10)
    assert probs[(0, 1, 1, 0)] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("kind", ["psi+", "psi-"])
def test_bsm_psi_class_bunches(kind):
    # Cross terms cancel: both photons land on one detector.
    results = apply_bsm(bell_photons(kind), 1.0)
    for res in results:
        assert res.pattern.total() == 2
        assert max(res.pattern.counts) == 2
        assert classify(res.pattern) is BsmOutcome.REJECT
    assert accept_probability(results) == 0.0


def test_bsm_vacuum_input():
    reg = photon_registry()
    ens = WeightedEnsemble.from_pure(PureState.vacuum(reg))
    results = apply_bsm(ens, 1.0)
    assert pattern_probs(results) == {(0, 0, 0, 0): pytest.approx(1.0, abs=1e-12)}


def test_bsm_probabilities_sum_to_one_with_loss():
    results = apply_bsm(bell_photons("phi+"), 0.55)
    assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-10)


def test_bsm_dark_counts_on_vacuum():
    reg = photon_registry()
    ens = WeightedEnsemble.from_pure(PureState.vacuum(reg))
    p_d = 0.01
    probs = pattern_probs(apply_bsm(ens, 1.0, p_d=p_d))
    assert probs[(0, 0, 0, 0)] == pytest.approx((1 - p_d) ** 4, abs=1e-12)
    assert probs[(1, 0, 0, 0)] == pytest.approx(p_d * (1 - p_d) ** 3, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_dark_counts_can_fake_acceptance():
    reg = photon_registry()
    ens = WeightedEnsemble.from_pure(PureState.vacuum(reg))
    results = apply_bsm(ens, 1.0, p_d=0.05)
    fake = accept_probability(results)
    # four accepting patterns, two phantom clicks each
    assert fake == pytest.approx(4 * 0.05**2 * 0.95**2, abs=1e-12)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("counts,expected", [
    ((1, 0, 1, 0), BsmOutcome.ACCEPT_SAME),   # D1 & D3
    ((0, 1, 0, 1), BsmOutcome.ACCEPT_SAME),   # D2 & D4
    ((1, 0, 0, 1), BsmOutcome.ACCEPT_CROSS),  # D1 & D4
    ((0, 1, 1, 0), BsmOutcome.ACCEPT_CROSS),  # D2 & D3
    ((0, 0, 2, 0), BsmOutcome.REJECT),        # double click
    ((0, 0, 0, 0), BsmOutcome.REJECT),        # no clicks
    ((1, 1, 0, 0), BsmOutcome.REJECT),        # unpaired combination
    ((1, 0, 0, 0), BsmOutcome.REJECT),        # single click
    ((1, 1, 1, 0), BsmOutcome.REJECT),        # three clicks
    ((2, 0, 1, 0), BsmOutcome.REJECT),        # total 3
])
def test_classify(counts, expected):
    assert classify(DetectionPattern(counts)) is expected


def test_pattern_clicks_mapping():
    pattern = DetectionPattern((1, 0, 0, 1))
    assert pattern.clicks == {"D1": 1, "D2": 0, "D3": 0, "D4": 1}
    assert pattern.name() == "D1&D4"


# ---------------------------------------------------------------------------
# corrected fidelity
# ---------------------------------------------------------------------------

def test_corrected_fidelity_rejects_reject():
    reg = memory_registry("L", "S")
    ens = WeightedEnsemble.from_pure(PureState.vacuum(reg))
    with pytest.raises(OpticsError):
        corrected_fidelity(ens, BsmOutcome.REJECT, PureState.vacuum(reg))


def test_corrected_fidelity_orthogonal_target():
    reg = ModeRegistry(memory_registry("L", "S").modes + memory_registry("R", "S").modes)
    memory = WeightedEnsemble.from_pure(PureState(reg, {(1, 0, 0, 1): 1.0}))
    target = pme_state(reg, "L", "R")
    fid, _ = corrected_fidelity(memory, BsmOutcome.ACCEPT_SAME, target)
    assert fid == pytest.approx(0.0, abs=1e-12)


def test_corrected_fidelity_phase_and_flip():
    reg = ModeRegistry(memory_registry("L", "S").modes + memory_registry("R", "S").modes)
    target = pme_state(reg, "L", "R")
    for sign, expected_kind in ((1.0, "identity"), (-1.0, "z_flip")):
        memory = WeightedEnsemble.from_pure(
            PureState(reg, {(1, 0, 1, 0): 1 / SQ2, (0, 1, 0, 1): sign / SQ2})
        )
        fid, corr = corrected_fidelity(memory, BsmOutcome.ACCEPT_SAME, target)
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert corr.kind == expected_kind


def test_corrected_fidelity_free_phase():
    reg = ModeRegistry(memory_registry("L", "S").modes + memory_registry("R", "S").modes)
    target = pme_state(reg, "L", "R")
    phase = cmath.exp(0.9j)
    memory = WeightedEnsemble.from_pure(
        PureState(reg, {(1, 0, 1, 0): 1 / SQ2, (0, 1, 0, 1): phase / SQ2})
    )
    fid, corr = corrected_fidelity(memory, BsmOutcome.ACCEPT_SAME, target)
    assert fid == pytest.approx(1.0, abs=1e-10)
    assert corr.kind == "phase"


# ---------------------------------------------------------------------------
# pipelines vs closed forms
# ---------------------------------------------------------------------------

def test_local_pipeline_ideal_half():
    report = local_entanglement_pipeline(IDEAL)
    assert report.accept_prob == pytest.approx(0.5, abs=1e-10)
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)


def test_local_pipeline_paper_defaults():
    # (0.9 * 0.9 * 0.05 * 0.9)^2 / 2 by hand
    report = local_entanglement_pipeline(paper_defaults())
    assert report.accept_prob == pytest.approx(6.6430125e-4, rel=1e-9)
    assert report.accept_prob == pytest.approx(rates.p_local(paper_defaults()), rel=1e-9)


def test_local_pipeline_phase_grid():
    base = None
    for phi_l in np.linspace(0.0, 2 * math.pi, 4, endpoint=False):
        for phi_r in np.linspace(0.0, 2 * math.pi, 4, endpoint=False):
            report = local_entanglement_pipeline(paper_defaults(), phi_l, phi_r)
            if base is None:
                base = report.accept_prob
            assert abs(report.accept_prob - base) < 1e-10
            assert report.fidelity == pytest.approx(1.0, abs=1e-9)
            for pat in report.patterns:
                if pat.outcome is not BsmOutcome.REJECT:
                    assert pat.fidelity == pytest.approx(1.0, abs=1e-9)


def test_link_pipeline_ideal_half():
    report = link_pipeline(IDEAL.with_overrides(L=1e-15))
    assert report.accept_prob == pytest.approx(0.5, abs=1e-10)


def test_link_pipeline_paper_defaults():
    # 0.81 * 0.81 * exp(-80/44)^2 / 2 by hand for L_0 = 80 km
    report = link_pipeline(paper_defaults())
    assert report.accept_prob == pytest.approx(8.6434551e-3, rel=1e-7)
    assert report.accept_prob == pytest.approx(rates.p_link(paper_defaults()), rel=1e-9)
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)


def test_swap_pipeline_ideal_half():
    report = swap_pipeline(IDEAL)
    assert report.accept_prob == pytest.approx(0.5, abs=1e-10)


def test_swap_pipeline_paper_defaults():
    # 0.81 * 0.81 / 2 by hand
    report = swap_pipeline(paper_defaults())
    assert report.accept_prob == pytest.approx(0.32805, rel=1e-9)
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)


PINNED_CORRECTION = "D2&D4:identity; D2&D3:z_flip; D1&D4:z_flip; D1&D3:identity"


@pytest.mark.parametrize("pipeline, accept_prob, branch_count", [
    (local_entanglement_pipeline, 0.0006643012499999996, 16),
    (link_pipeline, 0.008643455106179903, 11),
    (swap_pipeline, 0.32805, 9),
])
def test_pipeline_outputs_pinned(pipeline, accept_prob, branch_count):
    # Values of version 0.3.0 at the paper defaults.
    report = pipeline(paper_defaults())
    assert report.accept_prob == pytest.approx(accept_prob, rel=1e-14)
    assert report.fidelity == pytest.approx(1.0, rel=1e-14)
    assert report.branch_count == branch_count
    assert report.correction == PINNED_CORRECTION
    assert len(report.patterns) == 13


@pytest.mark.parametrize("seed", range(20))
def test_engine_matches_formulas_random_params(seed):
    rng = np.random.default_rng(1000 + seed)
    params = paper_defaults().with_overrides(
        eta_p=rng.uniform(0.3, 1.0),
        eta_s=rng.uniform(0.3, 1.0),
        eta_e1=rng.uniform(0.3, 1.0),
        eta_e2=rng.uniform(0.3, 1.0),
        eta_d=rng.uniform(0.3, 1.0),
        L=float(rng.uniform(16, 1600)),
        L_att=float(rng.uniform(10, 50)),
    )
    assert local_entanglement_pipeline(params).accept_prob == pytest.approx(
        rates.p_local(params), rel=1e-9)
    assert link_pipeline(params).accept_prob == pytest.approx(
        rates.p_link(params), rel=1e-9)
    assert swap_pipeline(params).accept_prob == pytest.approx(
        rates.p_swap(params), rel=1e-9)


def test_filtering_components_contribute_nothing():
    probs = filtering_accept_probabilities(paper_defaults())
    assert set(probs) == {"vacuum", "single_L_u", "single_R_d", "double_Lu_Rd", "double_Ld_Ru"}
    for name, p in probs.items():
        assert p <= 1e-12, name


def test_pipeline_report_record():
    rec = swap_pipeline(paper_defaults()).to_record()
    assert set(rec) == {"accept_prob", "fidelity", "correction", "branch_count"}
    assert rec["branch_count"] >= 1


def test_link_pipeline_conditional_state_is_outer_pme():
    report = link_pipeline(IDEAL.with_overrides(L=1e-15))
    for pat in report.patterns:
        if pat.outcome is not BsmOutcome.REJECT:
            assert pat.fidelity == pytest.approx(1.0, abs=1e-9)
