import cmath
import math

import numpy as np
import pytest

from repeaterlab import fock, rates
from repeaterlab.core import _PROBABILITY_FIELDS, paper_defaults
from repeaterlab.fock import FockError, ModeId, ModeRegistry, WeightedEnsemble
from repeaterlab.optics import (
    BSM_INPUT_MODES,
    BSM_UNITARY,
    DARK_STATE_CHECK_POINTS,
    FORMULA_CHECK_POINTS,
    BsmOutcome,
    OpticsError,
    apply_bsm,
    classify,
    corrected_fidelity,
    filtering_accept_probabilities,
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
    return WeightedEnsemble.pure(reg, states[kind])


def pattern_probs(results):
    return {res.outcome: res.probability for res in results}


def accept_probability(results):
    return sum(r.probability for r in results if classify(r.outcome) is not BsmOutcome.REJECT)


# ---------------------------------------------------------------------------
# input state and storage
# ---------------------------------------------------------------------------

def stored_photon(phi):
    """The split-photon input (|0>_u|1>_d + e^{i phi}|1>_u|0>_d)/sqrt2 as
    perfect storage maps it onto the (T_u, T_d) excitations: the d-path
    amplitude onto T_u, the u-path amplitude onto T_d."""
    ens = store_to_memory(phi, 1.0, 1.0, "L")
    assert ens.registry.modes == memory_registry("L", "T").modes
    ((w, state),) = ens.branches
    assert w == 1.0
    return state


def test_input_state_symmetric():
    state = stored_photon(0.0)
    assert state[(1, 0)] == pytest.approx(1 / SQ2)
    assert state[(0, 1)] == pytest.approx(1 / SQ2)


def test_input_state_pi_phase():
    state = stored_photon(math.pi)
    assert state[(1, 0)] == pytest.approx(1 / SQ2)
    assert state[(0, 1)].real == pytest.approx(-1 / SQ2)
    assert abs(state[(0, 1)].imag) < 1e-12


@pytest.mark.parametrize("phi", [0.3, 1.9, 4.4, 6.0])
def test_input_state_normalized(phi):
    state = stored_photon(phi)
    assert set(state) == {(1, 0), (0, 1)}
    assert math.sqrt(sum(abs(a) ** 2 for a in state.values())) == pytest.approx(1.0, abs=1e-12)


def test_store_perfect_gives_pure_mapped_state():
    phi = 0.77
    ens = store_to_memory(phi, 1.0, 1.0, "L")
    assert ens.branch_count == 1
    w, state = ens.branches[0]
    assert w == pytest.approx(1.0)
    assert state.get((1, 0), 0.0) == pytest.approx(1 / SQ2)
    assert state.get((0, 1), 0.0) == pytest.approx(cmath.exp(1j * phi) / SQ2)


def test_store_vacuum_weight():
    # 1 - 0.9 * 0.9 = 0.19 by hand
    ens = store_to_memory(0.0, 0.9, 0.9, "L")
    vac = [w for w, s in ens.branches if s.get((0, 0), 0.0) != 0]
    assert vac[0] == pytest.approx(0.19, abs=1e-12)


def test_store_dead_source_gives_vacuum():
    ens = store_to_memory(0.0, 0.0, 0.9, "L")
    assert ens.branch_count == 1
    assert ens.branches[0][1].get((0, 0), 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("params", [paper_defaults(), IDEAL], ids=["paper", "ideal"])
def test_store_and_retrieve_results_are_merged(params):
    # Rebuilding through the merging constructor merges nothing: the same
    # branch maps, bit for bit and in order, at the same weights.
    def assert_merged(ens):
        rebuilt = WeightedEnsemble(ens.registry, ens.branches)
        assert rebuilt.branch_count == ens.branch_count
        for (w1, amps1), (w2, amps2) in zip(ens.branches, rebuilt.branches):
            assert list(amps1.items()) == list(amps2.items())
            assert w2 == pytest.approx(w1, rel=1e-15, abs=0.0)

    mem_l = store_to_memory(0.4, params.eta_p, params.eta_s, "L")
    mem_r = store_to_memory(2.9, params.eta_p, params.eta_s, "R")
    assert mem_l.branch_count == (1 if params is IDEAL else 2)
    for ens in (mem_l, mem_r, retrieve_t_to_s(mem_l.tensor(mem_r), {"L": "a", "R": "b"})):
        assert_merged(ens)


# ---------------------------------------------------------------------------
# retrieval stages
# ---------------------------------------------------------------------------

def test_retrieve_t_to_s_perfect_mode_map():
    phi = 1.23
    ens = store_to_memory(phi, 1.0, 1.0, "L")
    out = retrieve_t_to_s(ens, {"L": "a"})
    assert out.branch_count == 1
    state = out.branches[0][1]
    # (S_u a_H + e^{i phi} S_d a_V)/sqrt2 over (S_u, S_d, aH, aV)
    assert state.get((1, 0, 1, 0), 0.0) == pytest.approx(1 / SQ2)
    assert state.get((0, 1, 0, 1), 0.0) == pytest.approx(cmath.exp(1j * phi) / SQ2)


def test_retrieve_t_to_s_full_loss_keeps_memory():
    # Retrieval loss is charged at the detectors: at efficiency 0 they
    # see no photon, and each site's memory keeps its S excitation.
    ens = store_to_memory(0.0, 1.0, 1.0, "L").tensor(store_to_memory(0.0, 1.0, 1.0, "R"))
    (res,) = apply_bsm(retrieve_t_to_s(ens, {"L": "a", "R": "b"}), 0.0)
    assert res.outcome == (0, 0, 0, 0)
    assert res.probability == pytest.approx(1.0, abs=1e-12)
    for site in ("L", "R"):
        idxs = [res.state.registry.index(ModeId.ensemble(site, arm, "S")) for arm in ("u", "d")]
        mean_s_excitation = sum(
            w * sum(sum(occ[i] for i in idxs) * abs(a) ** 2 for occ, a in s.items())
            for w, s in res.state.branches
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
    ens = WeightedEnsemble.pure(reg, pme_state(reg, "A", "B"))
    out = retrieve_s_to_photon(ens, {"A": "a", "B": "b"})
    assert out.branch_count == 1
    state = out.branches[0][1]
    assert len(out.registry) == 4  # S modes removed, photon modes only
    assert state.get((1, 0, 1, 0), 0.0) == pytest.approx(1 / SQ2)
    assert state.get((0, 1, 0, 1), 0.0) == pytest.approx(1 / SQ2)


def test_retrieve_s_to_photon_dead_gives_vacuum_photons():
    # A dead retrieval, charged at the detectors, leaves only the
    # all-zero pattern.
    reg = ModeRegistry(memory_registry("A", "S").modes + memory_registry("B", "S").modes)
    ens = WeightedEnsemble.pure(reg, pme_state(reg, "A", "B"))
    (res,) = apply_bsm(retrieve_s_to_photon(ens, {"A": "a", "B": "b"}), 0.0)
    assert res.outcome == (0, 0, 0, 0)
    assert res.probability == pytest.approx(1.0, abs=1e-12)



@pytest.mark.parametrize("retrieve, species, site, match", [
    (retrieve_t_to_s, "T", "L", "at most one excitation"),
    (retrieve_s_to_photon, "S", "L", "at most one excitation"),
    (retrieve_t_to_s, "T", "X", "'X'"),
    (retrieve_s_to_photon, "S", "X", "'X'"),
])
def test_retrieve_error_paths(retrieve, species, site, match):
    # Two excitations in the L u-arm mode, or a site the memory lacks.
    memory = WeightedEnsemble.pure(memory_registry("L", species), {(2, 0): 1.0})
    with pytest.raises(OpticsError, match=match):
        retrieve(memory, {site: "a"})

# ---------------------------------------------------------------------------
# Bell analyzer
# ---------------------------------------------------------------------------

def test_network_unitary():
    u = np.array(BSM_UNITARY)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_check_points_are_the_seeded_draws():
    # bsm-verify's check points are the draws of its former generator, in
    # its order: a uniform(0.3, 1.0) per probability field for each of
    # five points, then twenty (uniform(0.1, 5.0), uniform(0.1, 5.0),
    # integers(1, 4)) dark-state points.
    rng = np.random.default_rng(819230475)
    formula = tuple(tuple(rng.uniform(0.3, 1.0) for _ in _PROBABILITY_FIELDS) for _ in range(5))
    dark = tuple((rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0), int(rng.integers(1, 4))) for _ in range(20))
    assert FORMULA_CHECK_POINTS == formula
    assert DARK_STATE_CHECK_POINTS == dark


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
        assert sum(res.outcome) == 2
        assert max(res.outcome) == 2
        assert classify(res.outcome) is BsmOutcome.REJECT
    assert accept_probability(results) == 0.0


def test_bsm_vacuum_input():
    reg = photon_registry()
    ens = WeightedEnsemble.pure(reg, {(0, 0, 0, 0): 1.0})
    results = apply_bsm(ens, 1.0)
    assert pattern_probs(results) == {(0, 0, 0, 0): pytest.approx(1.0, abs=1e-12)}


def test_bsm_probabilities_sum_to_one_with_loss():
    results = apply_bsm(bell_photons("phi+"), 0.55)
    assert sum(r.probability for r in results) == pytest.approx(1.0, abs=1e-10)


def test_bsm_matrix_checked_once(monkeypatch):
    # BSM_UNITARY passed fock.checked_unitary when optics was imported and
    # is a fock.Unitary, so no map with it checks it again; a matrix that
    # did not pass checked_unitary is refused.
    def refuse(u, k):
        raise AssertionError("matrix checked on a call")

    monkeypatch.setattr(fock, "checked_unitary", refuse)
    photons = bell_photons("phi+")
    assert isinstance(BSM_UNITARY, fock.Unitary)
    assert sum(r.probability for r in apply_bsm(photons, 0.55)) == pytest.approx(1.0, abs=1e-10)
    assert photons.apply_linear_map(BSM_INPUT_MODES, BSM_UNITARY).branch_count == 1
    with pytest.raises(FockError, match="checked_unitary"):
        photons.apply_linear_map(BSM_INPUT_MODES, tuple(BSM_UNITARY))


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
    assert classify(counts) is expected


# ---------------------------------------------------------------------------
# corrected fidelity
# ---------------------------------------------------------------------------

def memory_pair_registry():
    return ModeRegistry(memory_registry("L", "S").modes + memory_registry("R", "S").modes)


def test_corrected_fidelity_orthogonal_target():
    memory = WeightedEnsemble.pure(memory_pair_registry(), {(1, 0, 0, 1): 1.0})
    fid, _ = corrected_fidelity(memory, "L", "R")
    assert fid == pytest.approx(0.0, abs=1e-12)


def test_corrected_fidelity_phase_and_flip():
    for sign, expected_kind in ((1.0, "identity"), (-1.0, "z_flip")):
        memory = WeightedEnsemble.pure(memory_pair_registry(), {(1, 0, 1, 0): 1 / SQ2, (0, 1, 0, 1): sign / SQ2})
        fid, corr = corrected_fidelity(memory, "L", "R")
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert corr == expected_kind


def test_corrected_fidelity_free_phase():
    phase = cmath.exp(0.9j)
    memory = WeightedEnsemble.pure(memory_pair_registry(), {(1, 0, 1, 0): 1 / SQ2, (0, 1, 0, 1): phase / SQ2})
    fid, corr = corrected_fidelity(memory, "L", "R")
    assert fid == pytest.approx(1.0, abs=1e-10)
    assert corr == f"phase({2 * math.pi - 0.9:.6f})"


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


# The 13 recorded patterns of every pipeline at the paper defaults, in
# report order: (counts, outcome, probability class, correction).
PINNED_ROWS = (
    ((0, 0, 0, 0), BsmOutcome.REJECT, "none", None),
    ((0, 0, 0, 1), BsmOutcome.REJECT, "single", None),
    ((0, 0, 0, 2), BsmOutcome.REJECT, "double", None),
    ((0, 0, 1, 0), BsmOutcome.REJECT, "single", None),
    ((0, 0, 2, 0), BsmOutcome.REJECT, "double", None),
    ((0, 1, 0, 0), BsmOutcome.REJECT, "single", None),
    ((0, 1, 0, 1), BsmOutcome.ACCEPT_SAME, "pair", "identity"),
    ((0, 1, 1, 0), BsmOutcome.ACCEPT_CROSS, "pair", "z_flip"),
    ((0, 2, 0, 0), BsmOutcome.REJECT, "double", None),
    ((1, 0, 0, 0), BsmOutcome.REJECT, "single", None),
    ((1, 0, 0, 1), BsmOutcome.ACCEPT_CROSS, "pair", "z_flip"),
    ((1, 0, 1, 0), BsmOutcome.ACCEPT_SAME, "pair", "identity"),
    ((2, 0, 0, 0), BsmOutcome.REJECT, "double", None),
)


# Probability of each class of row, per pipeline.
PINNED_ROW_PROBS = {
    "local_entanglement_pipeline": {"none": 0.9284286025000001, "single": 0.01756069875,
                                    "double": 0.00016607531250000004, "pair": 0.00016607531249999993},
    "link_pipeline": {"none": 0.7543275200977662, "single": 0.057096392422468584,
                      "double": 0.002160863776544976, "pair": 0.002160863776544975},
    "swap_pipeline": {"none": 0.0361, "single": 0.07694999999999996,
                      "double": 0.08201250000000002, "pair": 0.08201249999999996},
}


@pytest.mark.parametrize("pipeline, accept_prob, branch_count", [
    pytest.param(local_entanglement_pipeline, 0.0006643012499999996, 4, id="local"),
    pytest.param(link_pipeline, 0.008643455106179903, 1, id="link"),
    pytest.param(swap_pipeline, 0.32805, 1, id="swap"),
])
def test_pipeline_outputs_pinned(pipeline, accept_prob, branch_count):
    # Values of version 0.3.0 at the paper defaults; the per-pattern
    # probabilities are those of version 0.4.9, the branch counts those
    # of 0.4.21, which charges every loss at the detectors.
    report = pipeline(paper_defaults())
    assert report.accept_prob == pytest.approx(accept_prob, rel=1e-14)
    assert report.fidelity == pytest.approx(1.0, rel=1e-14)
    assert report.branch_count == branch_count
    assert len(report.patterns) == 13
    row_probs = PINNED_ROW_PROBS[pipeline.__name__]
    for pat, (counts, outcome, cls, correction) in zip(report.patterns, PINNED_ROWS):
        assert pat.counts == counts
        assert pat.outcome is outcome
        assert pat.correction == correction
        assert pat.probability == pytest.approx(row_probs[cls], rel=1e-14)


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


def test_link_pipeline_conditional_state_is_outer_pme():
    report = link_pipeline(IDEAL.with_overrides(L=1e-15))
    for pat in report.patterns:
        if pat.outcome is not BsmOutcome.REJECT:
            assert pat.fidelity == pytest.approx(1.0, abs=1e-9)
