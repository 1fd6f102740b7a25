import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from repeaterlab.fock import (
    D_MAX,
    CutoffExceededError,
    FockError,
    ModeId,
    ModeRegistry,
    PureState,
    RegistryMismatchError,
    WeightedEnsemble,
    dark_sector_hamiltonian,
    dark_state_residual,
)

SQ2 = math.sqrt(2.0)


def two_modes():
    return ModeRegistry((ModeId.photon("a"), ModeId.photon("b")))


def random_state(registry, rng):
    amps = {}
    for occ in np.ndindex(*(D_MAX + 1,) * len(registry)):
        amps[tuple(int(o) for o in occ)] = complex(rng.normal(), rng.normal())
    return PureState(registry, amps).normalized()


# ---------------------------------------------------------------------------
# vacuum / create
# ---------------------------------------------------------------------------

def test_vacuum_is_all_zeros():
    state = PureState.vacuum(two_modes())
    assert state.amps == {(0, 0): 1.0 + 0.0j}
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_vacuum_measures_zero_everywhere():
    reg = two_modes()
    ens = WeightedEnsemble.from_pure(PureState.vacuum(reg))
    for mode in reg:
        outcomes = ens.measure_number(mode)
        assert len(outcomes) == 1
        assert outcomes[0].outcome == 0
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_vacuum_needs_modes():
    with pytest.raises(FockError):
        PureState.vacuum(ModeRegistry(()))


def test_create_single_photon():
    reg = two_modes()
    state = PureState.vacuum(reg).create(reg.modes[0])
    assert state.amplitude((1, 0)) == pytest.approx(1.0)


def test_create_bosonic_factor():
    reg = two_modes()
    mode = reg.modes[0]
    once = PureState.vacuum(reg).create(mode)
    twice = once.create(mode)
    assert twice.amplitude((2, 0)) == pytest.approx(SQ2)
    assert twice.normalized().amplitude((2, 0)) == pytest.approx(1.0)


def test_create_respects_cutoff():
    reg = two_modes()
    mode = reg.modes[0]
    state = PureState.vacuum(reg).create(mode).create(mode)
    with pytest.raises(CutoffExceededError):
        state.create(mode)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

BS5050 = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2


def test_balanced_splitter_on_single_photon():
    reg = two_modes()
    state = PureState(reg, {(1, 0): 1.0})
    out = state.apply_linear_map(reg.modes, BS5050)
    assert out.amplitude((1, 0)) == pytest.approx(1 / SQ2)
    assert out.amplitude((0, 1)) == pytest.approx(1 / SQ2)


def test_hong_ou_mandel_cancellation():
    # Hand expansion: a1+ a2+ -> (b1+ + b2+)(b1+ - b2+)/2 = (b1+^2 - b2+^2)/2,
    # giving (|20> - |02>)/sqrt2 and zero coincidence amplitude.
    reg = two_modes()
    state = PureState(reg, {(1, 1): 1.0})
    out = state.apply_linear_map(reg.modes, BS5050)
    assert out.amplitude((2, 0)) == pytest.approx(1 / SQ2)
    assert out.amplitude((0, 2)) == pytest.approx(-1 / SQ2)
    assert abs(out.amplitude((1, 1))) < 1e-14
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_identity_map_is_identity():
    rng = np.random.default_rng(3)
    reg = two_modes()
    state = random_state(reg, rng)
    out = state.apply_linear_map(reg.modes, np.eye(2))
    assert out.amps == pytest.approx(state.amps)


def test_non_unitary_rejected():
    reg = two_modes()
    state = PureState.vacuum(reg)
    with pytest.raises(FockError, match="unitary"):
        state.apply_linear_map(reg.modes, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_ensemble_modes_not_mixable():
    reg = ModeRegistry((ModeId.ensemble("L", "u", "T"), ModeId.photon("a")))
    state = PureState.vacuum(reg)
    with pytest.raises(FockError, match="photonic"):
        state.apply_linear_map(reg.modes, np.eye(2))


@pytest.mark.parametrize("seed", range(5))
def test_linear_map_preserves_norm_and_photon_number(seed):
    rng = np.random.default_rng(seed)
    reg = ModeRegistry((ModeId.photon("a"), ModeId.photon("b"), ModeId.photon("c")))
    u = unitary_group.rvs(3, random_state=seed)
    # one- and two-photon states stay within the cutoff for any unitary
    amps = {}
    for occ in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        amps[occ] = complex(rng.normal(), rng.normal())
    state = PureState(reg, amps).normalized()
    out = state.apply_linear_map(reg.modes, u)
    assert out.norm() == pytest.approx(1.0, abs=1e-10)
    total_in = sum(sum(occ) * abs(a) ** 2 for occ, a in state.amps.items())
    total_out = sum(sum(occ) * abs(a) ** 2 for occ, a in out.amps.items())
    assert total_out == pytest.approx(total_in, abs=1e-10)


# ---------------------------------------------------------------------------
# loss channel
# ---------------------------------------------------------------------------

def test_loss_splits_single_photon():
    reg = two_modes()
    mode = reg.modes[0]
    ens = WeightedEnsemble.from_pure(PureState(reg, {(1, 0): 1.0}))
    lossy = ens.apply_loss(mode, 0.3)
    weights = sorted((w, s.amps) for w, s in lossy.branches)
    assert weights[0][0] == pytest.approx(0.3)
    assert (1, 0) in weights[0][1]
    assert weights[1][0] == pytest.approx(0.7)
    assert (0, 0) in weights[1][1]


def test_loss_eta_one_is_identity():
    rng = np.random.default_rng(5)
    reg = two_modes()
    ens = WeightedEnsemble.from_pure(random_state(reg, rng))
    out = ens.apply_loss(reg.modes[0], 1.0)
    assert out.branch_count == 1
    assert out.branches[0][1].amps == pytest.approx(ens.branches[0][1].amps)


def test_loss_eta_zero_empties_mode():
    reg = two_modes()
    ens = WeightedEnsemble.from_pure(PureState(reg, {(1, 0): 1.0}))
    out = ens.apply_loss(reg.modes[0], 0.0)
    assert out.branch_count == 1
    assert out.branches[0][1].amps == {(0, 0): pytest.approx(1.0)}


def _number_distribution(ens, mode):
    return {mo.outcome: mo.probability for mo in ens.measure_number(mode)}


@pytest.mark.parametrize("seed", range(6))
def test_loss_composition(seed):
    # apply_loss(e1) then apply_loss(e2) must equal apply_loss(e1 e2) in
    # all measurement statistics on one-photon states.
    rng = np.random.default_rng(100 + seed)
    reg = two_modes()
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    state = PureState(reg, {(1, 0): a / nrm, (0, 1): b / nrm})
    e1, e2 = rng.uniform(0.1, 1.0, size=2)
    ens = WeightedEnsemble.from_pure(state)
    seq = ens.apply_loss(reg.modes[0], e1).apply_loss(reg.modes[0], e2)
    combined = ens.apply_loss(reg.modes[0], e1 * e2)
    for mode in reg:
        da = _number_distribution(seq, mode)
        db = _number_distribution(combined, mode)
        assert set(da) == set(db)
        for k in da:
            assert da[k] == pytest.approx(db[k], abs=1e-10)


def test_loss_weight_sum_and_no_gain():
    rng = np.random.default_rng(42)
    reg = two_modes()
    ens = WeightedEnsemble.from_pure(random_state(reg, rng))
    out = ens.apply_loss(reg.modes[1], 0.37)
    assert out.weight_sum() == pytest.approx(1.0, abs=1e-10)
    max_in = max(sum(occ) for _, s in ens.branches for occ in s.amps)
    max_out = max(sum(occ) for _, s in out.branches for occ in s.amps)
    assert max_out <= max_in


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_superposition():
    reg = two_modes()
    state = PureState(reg, {(1, 0): 1 / SQ2, (0, 1): 1 / SQ2})
    outcomes = _number_distribution(WeightedEnsemble.from_pure(state), reg.modes[0])
    assert outcomes[1] == pytest.approx(0.5, abs=1e-12)
    assert outcomes[0] == pytest.approx(0.5, abs=1e-12)


def test_measure_two_photon():
    reg = two_modes()
    state = PureState(reg, {(2, 0): 1.0})
    outcomes = WeightedEnsemble.from_pure(state).measure_number(reg.modes[0])
    assert len(outcomes) == 1
    assert outcomes[0].outcome == 2
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
    # measured mode is removed
    assert len(outcomes[0].state.registry) == 1


@pytest.mark.parametrize("seed", range(5))
def test_measure_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(200 + seed)
    reg = two_modes()
    state = random_state(reg, rng)
    ens = WeightedEnsemble.from_pure(state)
    for mode in reg:
        dist = _number_distribution(ens, mode)
        # independent oracle: direct summation of |amplitude|^2 by occupation
        idx = reg.index(mode)
        expected = {}
        for occ, amp in state.amps.items():
            expected[occ[idx]] = expected.get(occ[idx], 0.0) + abs(amp) ** 2
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        for k, v in expected.items():
            if v > 1e-12:
                assert dist[k] == pytest.approx(v, abs=1e-10)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_with_itself():
    rng = np.random.default_rng(17)
    reg = two_modes()
    state = random_state(reg, rng)
    assert WeightedEnsemble.from_pure(state).fidelity(state) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal():
    reg = two_modes()
    a = PureState(reg, {(1, 0): 1.0})
    b = PureState(reg, {(0, 1): 1.0})
    assert WeightedEnsemble.from_pure(a).fidelity(b) == 0.0


def test_fidelity_of_mixture():
    reg = two_modes()
    psi = PureState(reg, {(1, 0): 1.0})
    psi_perp = PureState(reg, {(0, 1): 1.0})
    ens = WeightedEnsemble([(0.7, psi), (0.3, psi_perp)])
    assert ens.fidelity(psi) == pytest.approx(0.7, abs=1e-12)


def test_fidelity_registry_mismatch():
    reg = two_modes()
    other = ModeRegistry((ModeId.photon("x"), ModeId.photon("y")))
    ens = WeightedEnsemble.from_pure(PureState.vacuum(reg))
    with pytest.raises(RegistryMismatchError):
        ens.fidelity(PureState.vacuum(other))


# ---------------------------------------------------------------------------
# dark-state check
# ---------------------------------------------------------------------------

def test_dark_state_balanced_couplings():
    assert dark_state_residual(1.0, 1.0, 1) < 1e-12


def test_dark_state_explicit_oracle():
    # Independent oracle: the 3x3 single-excitation sector matrix applied
    # to (cos t, -sin t, 0) with tan t = g / omega must vanish.
    g, omega = 0.3, 1.7
    h = dark_sector_hamiltonian(g, omega)
    scale = math.hypot(g, omega)
    dark = np.array([omega / scale, -g / scale, 0.0])
    assert np.linalg.norm(h @ dark) / max(g, omega) < 1e-12
    assert dark_state_residual(g, omega, 3) < 1e-12


def test_dark_sector_spectrum_contains_zero():
    eigs = np.linalg.eigvalsh(dark_sector_hamiltonian(0.8, 2.1))
    assert min(abs(e) for e in eigs) < 1e-12


def test_dark_state_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(100):
        g = rng.uniform(0.05, 10.0)
        omega = rng.uniform(0.05, 10.0)
        n_atoms = int(rng.integers(1, 4))
        assert dark_state_residual(g, omega, n_atoms) < 1e-12


def test_dark_state_invalid_atom_count():
    with pytest.raises(ValueError):
        dark_state_residual(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        dark_state_residual(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        dark_state_residual(0.0, 0.0, 2)


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_dump_format():
    reg = two_modes()
    state = PureState(reg, {(0, 1): 1 / SQ2, (1, 0): -1j / SQ2})
    lines = state.dump().splitlines()
    assert lines[0].startswith("0,1\t")
    fields = lines[1].split("\t")
    assert fields[0] == "1,0"
    assert float(fields[1]) == pytest.approx(0.0)
    assert float(fields[2]) == pytest.approx(-1 / SQ2)


def test_duplicate_modes_rejected():
    with pytest.raises(RegistryMismatchError):
        ModeRegistry((ModeId.photon("a"), ModeId.photon("a")))


def test_tensor_product():
    ra = ModeRegistry((ModeId.photon("a"),))
    rb = ModeRegistry((ModeId.photon("b"),))
    ea = WeightedEnsemble.from_pure(PureState(ra, {(1,): 1.0}))
    eb = WeightedEnsemble.from_pure(PureState(rb, {(0,): 1.0}))
    out = ea.tensor(eb)
    assert out.branches[0][1].amps == {(1, 0): pytest.approx(1.0)}


def test_amplitude_pruning():
    reg = two_modes()
    state = PureState(reg, {(0, 0): 1.0, (1, 1): 1e-16})
    assert (1, 1) not in state.amps
