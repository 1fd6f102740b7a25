import math
from itertools import product

import numpy as np
import pytest
from scipy.stats import unitary_group

from repeaterlab import fock
from repeaterlab.fock import (
    D_MAX,
    CutoffExceededError,
    FockError,
    ModeId,
    ModeRegistry,
    WEIGHT_PRUNE,
    RegistryMismatchError,
    Unitary,
    WeightedEnsemble,
    checked_unitary,
    dark_state_residual,
    unitarity_defect,
)
from repeaterlab.optics import DARK_STATE_CHECK_POINTS

SQ2 = math.sqrt(2.0)


def two_modes():
    return ModeRegistry((ModeId.photon("a"), ModeId.photon("b")))


def random_state(registry, rng):
    amps = {}
    for occ in np.ndindex(*(D_MAX + 1,) * len(registry)):
        amps[tuple(int(o) for o in occ)] = complex(rng.normal(), rng.normal())
    return WeightedEnsemble.pure(registry, amps)


def amps_of(ens):
    """The amplitude map of a one-branch ensemble."""
    ((weight, amps),) = ens.branches
    assert weight == 1.0
    return amps


def norm(amps):
    return math.sqrt(sum(abs(a) ** 2 for a in amps.values()))


# ---------------------------------------------------------------------------
# vacuum / create
# ---------------------------------------------------------------------------

def test_vacuum_is_all_zeros():
    state = amps_of(WeightedEnsemble.pure(two_modes(), {(0, 0): 1}))
    assert state == {(0, 0): 1.0 + 0.0j}
    assert all(type(a) is complex for a in state.values())


def test_vacuum_measures_zero_everywhere():
    reg = two_modes()
    ens = WeightedEnsemble.pure(reg, {(0, 0): 1.0})
    for mode in reg:
        outcomes = ens.measure((mode,), 1.0)
        assert len(outcomes) == 1
        assert outcomes[0].outcome == (0,)
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ensemble constructor
# ---------------------------------------------------------------------------

ONE_A = {(1, 0): 1.0 + 0.0j}
ONE_B = {(0, 1): 1.0 + 0.0j}


def test_ensemble_merges_exactly_identical_branches():
    reg = two_modes()
    flipped = {(1, 0): -1.0 + 0.0j}
    ens = WeightedEnsemble(reg, [(0.2, ONE_A), (0.4, ONE_B), (0.1, flipped), (0.3, dict(ONE_A))])
    assert ens.registry is reg
    # Merged weights are summed; a branch differing by a sign is kept apart.
    assert [amps for _, amps in ens.branches] == [ONE_A, ONE_B, flipped]
    assert [w for w, _ in ens.branches] == pytest.approx([0.5, 0.4, 0.1], abs=1e-15)


def test_ensemble_renormalizes_weights():
    ens = WeightedEnsemble(two_modes(), [(2.0, ONE_A), (6.0, ONE_B)])
    assert [w for w, _ in ens.branches] == [0.25, 0.75]


def test_ensemble_drops_light_branches():
    ens = WeightedEnsemble(two_modes(), [(1.0, ONE_A), (WEIGHT_PRUNE, ONE_B), (0.0, {(1, 1): 1.0 + 0.0j})])
    assert ens.branches == ((1.0, ONE_A),)
    kept = WeightedEnsemble(two_modes(), [(1.0, ONE_A), (2 * WEIGHT_PRUNE, ONE_B)])
    assert kept.branch_count == 2


@pytest.mark.parametrize("branches", [[], [(WEIGHT_PRUNE, ONE_A), (0.0, ONE_B)]])
def test_ensemble_needs_a_heavy_branch(branches):
    with pytest.raises(FockError, match="at least one branch"):
        WeightedEnsemble(two_modes(), branches)


@pytest.mark.parametrize("amps", [{}, {(1, 0): 0.0}, {(1, 0): 1e-16}])
def test_pure_refuses_zero_state(amps):
    with pytest.raises(FockError, match="zero state"):
        WeightedEnsemble.pure(two_modes(), amps)


def test_pure_normalizes():
    state = amps_of(WeightedEnsemble.pure(two_modes(), {(1, 0): 3.0, (0, 1): 4j, (1, 1): 1e-15}))
    assert state == {(1, 0): 0.6 + 0.0j, (0, 1): 0.8j}


def test_one_branch_is_kept_as_given():
    # With one heavy branch there is nothing to merge: its map is kept as
    # the same object, at weight exactly 1.
    amps = {(1, 0): 0.6 + 0.0j, (0, 1): 0.8j}
    ens = WeightedEnsemble(two_modes(), [(0.3, amps), (WEIGHT_PRUNE, ONE_B)])
    assert ens.branches == ((1.0, amps),)
    assert ens.branches[0][1] is amps


def random_ensemble(registry, rng, branches):
    """An ensemble of ``branches`` distinct random branches, each over
    the occupation vectors with at most two photons in total."""
    occs = [occ for occ in product(range(D_MAX + 1), repeat=len(registry)) if sum(occ) <= 2]
    parts = []
    for _ in range(branches):
        amps = {occ: complex(rng.normal(), rng.normal()) for occ in occs}
        nrm = norm(amps)
        parts.append((rng.uniform(0.1, 1.0), {occ: a / nrm for occ, a in amps.items()}))
    ens = WeightedEnsemble(registry, parts)
    assert ens.branch_count == branches
    return ens


def assert_merged(ens):
    """Rebuilding ``ens`` through the merging constructor merges nothing:
    the same branch maps, bit for bit and in order, at the same weights
    (renormalized once more, so equal to rounding)."""
    rebuilt = WeightedEnsemble(ens.registry, ens.branches)
    assert rebuilt.branch_count == ens.branch_count
    for (w1, amps1), (w2, amps2) in zip(ens.branches, rebuilt.branches):
        assert list(amps1.items()) == list(amps2.items())
        assert w2 == pytest.approx(w1, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_linear_map_and_tensor_results_are_merged(seed):
    rng = np.random.default_rng(seed)
    reg = ModeRegistry((ModeId.photon("a"), ModeId.photon("b"), ModeId.photon("c")))
    ens = random_ensemble(reg, rng, 4)
    mapped = ens.apply_linear_map(reg.modes, checked_unitary(unitary_group.rvs(3, random_state=seed), 3))
    assert mapped.branch_count == 4
    assert_merged(mapped)
    other = random_ensemble(ModeRegistry((ModeId.photon("d"),)), rng, 3)
    for product_ in (ens.tensor(other), other.tensor(ens)):
        assert product_.branch_count == 12
        assert_merged(product_)


def test_rounding_can_make_mapped_or_product_branches_identical():
    # Two branches one ulp apart, as loss channels reached along different
    # paths leave them, become identical after a balanced splitter or a
    # product with an equal superposition, and are merged.
    reg = ModeRegistry((ModeId.photon("a"), ModeId.photon("b"), ModeId.photon("c")))
    amp = 0.7071067811865478
    ens = WeightedEnsemble(reg, [(0.5, {(1, 0, 0): complex(a), (0, 0, 1): complex(1 / SQ2)})
                                 for a in (amp, math.nextafter(amp, 0.0))])
    assert ens.branch_count == 2
    splitter = checked_unitary([[1 / SQ2, 1 / SQ2], [1 / SQ2, -1 / SQ2]], 2)
    assert ens.apply_linear_map(reg.modes[:2], splitter).branch_count == 1
    plus = WeightedEnsemble.pure(ModeRegistry((ModeId.photon("d"), ModeId.photon("e"))), {(1, 0): 1, (0, 1): 1})
    assert ens.tensor(plus).branch_count == plus.tensor(ens).branch_count == 1


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

BS5050 = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2


def map_pure(state, modes, u):
    """The amplitude map of the one-branch ensemble ``state`` mapped by
    the checked ``u``."""
    return amps_of(state.apply_linear_map(modes, checked_unitary(u, len(modes))))


def test_balanced_splitter_on_single_photon():
    reg = two_modes()
    out = map_pure(WeightedEnsemble.pure(reg, {(1, 0): 1.0}), reg.modes, BS5050)
    assert out[(1, 0)] == pytest.approx(1 / SQ2)
    assert out[(0, 1)] == pytest.approx(1 / SQ2)


def test_hong_ou_mandel_cancellation():
    # Hand expansion: a1+ a2+ -> (b1+ + b2+)(b1+ - b2+)/2 = (b1+^2 - b2+^2)/2,
    # giving (|20> - |02>)/sqrt2 and zero coincidence amplitude.
    reg = two_modes()
    out = map_pure(WeightedEnsemble.pure(reg, {(1, 1): 1.0}), reg.modes, BS5050)
    assert out[(2, 0)] == pytest.approx(1 / SQ2)
    assert out[(0, 2)] == pytest.approx(-1 / SQ2)
    assert abs(out.get((1, 1), 0.0)) < 1e-14
    assert norm(out) == pytest.approx(1.0, abs=1e-12)


def test_identity_map_is_identity():
    rng = np.random.default_rng(3)
    reg = two_modes()
    state = random_state(reg, rng)
    out = map_pure(state, reg.modes, np.eye(2))
    assert out == pytest.approx(amps_of(state))


def test_non_unitary_rejected():
    # A non-unitary matrix cannot become a Unitary, so it reaches no map.
    reg = two_modes()
    non_unitary = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(FockError, match="not unitary"):
        checked_unitary(non_unitary, 2)
    with pytest.raises(FockError, match="checked_unitary"):
        WeightedEnsemble.pure(reg, {(1, 0): 1.0}).apply_linear_map(reg.modes, non_unitary)


@pytest.mark.parametrize("matrix", [
    np.eye(2),
    [[1.0, 0.0], [0.0, 1.0]],
    ((1.0, 0.0), (0.0, 1.0)),
    checked_unitary(np.eye(3), 3),
])
def test_linear_map_takes_only_a_checked_matrix_of_its_size(matrix):
    # A matrix reaches a map only through checked_unitary, at the size of
    # the mapped modes.
    reg = two_modes()
    ens = WeightedEnsemble.pure(reg, {(1, 0): 1.0})
    with pytest.raises(FockError, match="checked_unitary"):
        ens.apply_linear_map(reg.modes, matrix)


@pytest.mark.parametrize("kind", ["list", "tuple", "numpy", "scipy"])
def test_checked_unitary_returns_complex_rows(kind):
    matrix = {
        "list": [[0.0, 1.0], [1.0, 0.0]],
        "tuple": ((SQ2 / 2, SQ2 / 2), (SQ2 / 2, -SQ2 / 2)),
        "numpy": BS5050,
        "scipy": unitary_group.rvs(2, random_state=4),
    }[kind]
    rows = checked_unitary(matrix, 2)
    assert isinstance(rows, Unitary) and all(isinstance(row, tuple) for row in rows)
    assert all(type(c) is complex for row in rows for c in row)
    assert np.array_equal(np.array(rows), np.asarray(matrix, dtype=complex))
    assert unitarity_defect(rows) == pytest.approx(
        np.max(np.abs(np.array(rows).conj().T @ np.array(rows) - np.eye(2))), abs=1e-15)


@pytest.mark.parametrize("matrix, match", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "2 x 2"),
    (np.eye(3), "2 x 2"),
    ([[1.0, 0.0], [0.0]], "2 x 2"),
    ([1.0, 0.0], "rows of numbers"),
    (np.array([1.0, 0.0]), "rows of numbers"),
    ([[1.0, 0.0], [1.0, 1.0]], "unitary"),
    ([[math.nan, 0.0], [0.0, 1.0]], "finite"),
    ([[1e200, 1e200], [1e200, -1e200]], "unitary"),
])
def test_checked_unitary_refuses(matrix, match):
    # Non-square, ragged, 1-D, non-unitary and non-finite input.
    with pytest.raises(FockError, match=match):
        checked_unitary(matrix, 2)


def test_ensemble_modes_not_mixable():
    reg = ModeRegistry((ModeId.ensemble("L", "u", "T"), ModeId.photon("a")))
    ens = WeightedEnsemble.pure(reg, {(0, 0): 1.0})
    with pytest.raises(FockError, match="photonic"):
        ens.apply_linear_map(reg.modes, checked_unitary(np.eye(2), 2))


def test_linear_map_acts_on_each_branch():
    rng = np.random.default_rng(11)
    reg = two_modes()
    # At most one photon per mode keeps every output within the cutoff.
    first, second = (
        amps_of(WeightedEnsemble.pure(reg, {occ: complex(rng.normal(), rng.normal()) for occ in ((1, 0), (0, 1), (1, 1))}))
        for _ in range(2)
    )
    mixed = WeightedEnsemble(reg, [(0.25, first), (0.75, second)])
    u = checked_unitary(unitary_group.rvs(2, random_state=11), 2)
    mapped = mixed.apply_linear_map(reg.modes, u)
    assert len(mapped.branches) == 2
    for (w_in, s_in), (w_out, s_out) in zip(mixed.branches, mapped.branches):
        ((w_alone, s_alone),) = WeightedEnsemble(reg, [(1.0, s_in)]).apply_linear_map(reg.modes, u).branches
        assert w_out == w_in and w_alone == 1.0
        assert s_out == s_alone
    with pytest.raises(FockError, match="checked_unitary"):
        mixed.apply_linear_map(reg.modes, np.array([[1.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("seed", range(5))
def test_linear_map_preserves_norm_and_photon_number(seed):
    rng = np.random.default_rng(seed)
    reg = ModeRegistry((ModeId.photon("a"), ModeId.photon("b"), ModeId.photon("c")))
    u = unitary_group.rvs(3, random_state=seed)
    # one- and two-photon states stay within the cutoff for any unitary
    amps = {}
    for occ in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        amps[occ] = complex(rng.normal(), rng.normal())
    state = WeightedEnsemble.pure(reg, amps)
    out = map_pure(state, reg.modes, u)
    assert norm(out) == pytest.approx(1.0, abs=1e-10)
    total_in = sum(sum(occ) * abs(a) ** 2 for occ, a in amps_of(state).items())
    total_out = sum(sum(occ) * abs(a) ** 2 for occ, a in out.items())
    assert total_out == pytest.approx(total_in, abs=1e-10)


# ---------------------------------------------------------------------------
# loss in front of the detectors
# ---------------------------------------------------------------------------

def reference_loss(ens, mode, eta):
    """Oracle: a binomial loss channel of transmissivity ``eta`` on
    ``mode``.  Each branch splits into orthogonal components labelled by
    the number k of photons lost, the component of n photons carrying
    sqrt(C(n, k) eta^(n-k) (1-eta)^k)."""
    i = ens.registry.index(mode)
    out = []
    for w, amps in ens.branches:
        lost = {}
        for occ, amp in amps.items():
            n = occ[i]
            for k in range(n + 1):
                coeff = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
                if coeff != 0.0:
                    lost.setdefault(k, {})[occ[:i] + (n - k,) + occ[i + 1:]] = amp * coeff
        for comp in lost.values():
            p = sum(abs(a) ** 2 for a in comp.values())
            out.append((w * p, {occ: a / math.sqrt(p) for occ, a in comp.items()}))
    return WeightedEnsemble(ens.registry, out)


def density_matrix(ens):
    """sum_b w_b a_b(x) a_b(y)* as a {(x, y): entry} map."""
    rho = {}
    for w, amps in ens.branches:
        for x, ax in amps.items():
            for y, ay in amps.items():
                rho[x, y] = rho.get((x, y), 0.0) + w * ax * ay.conjugate()
    return rho


@pytest.mark.parametrize("seed", range(6))
def test_loss_composition(seed):
    # A loss e1 on every measured mode, then detectors of efficiency e2,
    # equals detectors of efficiency e1 * e2: the same outcomes and
    # probabilities, and the same conditional density matrices.  Random
    # one- and two-photon states on two or three modes, some measured.
    rng = np.random.default_rng(300 + seed)
    for nmodes, measured in ((2, (0,)), (2, (0, 1)), (3, (0, 2)), (3, (1,))):
        reg = ModeRegistry(tuple(ModeId.photon(p) for p in "abc"[:nmodes]))
        amps = {occ: complex(rng.normal(), rng.normal())
                for occ in product(range(D_MAX + 1), repeat=nmodes) if 1 <= sum(occ) <= 2}
        ens = WeightedEnsemble.pure(reg, amps)
        modes = [reg.modes[i] for i in measured]
        for e1 in (0.0, 1.0, rng.uniform()):
            e2 = rng.uniform()
            lossy = ens
            for mode in modes:
                lossy = reference_loss(lossy, mode, e1)
            seq = lossy.measure(modes, e2)
            combined = ens.measure(modes, e1 * e2)
            assert [mo.outcome for mo in seq] == [mo.outcome for mo in combined]
            for a, b in zip(seq, combined):
                assert a.probability == pytest.approx(b.probability, abs=1e-12)
                rho_a, rho_b = density_matrix(a.state), density_matrix(b.state)
                for key in rho_a.keys() | rho_b.keys():
                    assert abs(rho_a.get(key, 0.0) - rho_b.get(key, 0.0)) <= 1e-12


def _number_distribution(ens, mode):
    return {mo.outcome[0]: mo.probability for mo in ens.measure((mode,), 1.0)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_superposition():
    reg = two_modes()
    state = WeightedEnsemble.pure(reg, {(1, 0): 1 / SQ2, (0, 1): 1 / SQ2})
    outcomes = _number_distribution(state, reg.modes[0])
    assert outcomes[1] == pytest.approx(0.5, abs=1e-12)
    assert outcomes[0] == pytest.approx(0.5, abs=1e-12)


def test_measure_two_photon():
    reg = two_modes()
    outcomes = WeightedEnsemble.pure(reg, {(2, 0): 1.0}).measure((reg.modes[0],), 1.0)
    assert len(outcomes) == 1
    assert outcomes[0].outcome == (2,)
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
    # measured mode is removed
    assert len(outcomes[0].state.registry) == 1


@pytest.mark.parametrize("seed", range(5))
def test_measure_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(200 + seed)
    reg = two_modes()
    ens = random_state(reg, rng)
    state = amps_of(ens)
    for mode in reg:
        dist = _number_distribution(ens, mode)
        # independent oracle: direct summation of |amplitude|^2 by occupation
        idx = reg.index(mode)
        expected = {}
        for occ, amp in state.items():
            expected[occ[idx]] = expected.get(occ[idx], 0.0) + abs(amp) ** 2
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        for k, v in expected.items():
            if v > 1e-12:
                assert dist[k] == pytest.approx(v, abs=1e-10)
    for eta in (1.0, 0.55, 0.0):
        joint = {mo.outcome: mo.probability for mo in ens.measure(reg.modes, eta)}
        # the same oracle, with each mode's binomial detection factor
        expected = {}
        for occ, amp in state.items():
            for ks in product(*(range(n + 1) for n in occ)):
                factor = math.prod(math.comb(n, k) * eta**k * (1 - eta) ** (n - k) for n, k in zip(occ, ks))
                expected[ks] = expected.get(ks, 0.0) + abs(amp) ** 2 * factor
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-10)
        for ks, v in expected.items():
            if v > 1e-12:
                assert joint[ks] == pytest.approx(v, abs=1e-10)


def test_measure_outcome_rarer_than_prune_threshold():
    # The |1,0> term carries joint weight 1e-7 * 1e-6, below WEIGHT_PRUNE:
    # it is dropped instead of leaving an outcome without a state.
    reg = two_modes()
    light = {(0, 1): math.sqrt(1 - 1e-6), (1, 0): 1e-3}
    ens = WeightedEnsemble(reg, [(1 - 1e-7, {(0, 0): 1.0}), (1e-7, light)])
    outcomes = ens.measure((reg.modes[0],), 1.0)
    assert [mo.outcome for mo in outcomes] == [(0,)]
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
    assert outcomes[0].state.branch_count == 2


# ---------------------------------------------------------------------------
# dark-state check
# ---------------------------------------------------------------------------

def test_dark_state_balanced_couplings():
    assert dark_state_residual(1.0, 1.0, 1) < 1e-12


def dark_sector_hamiltonian(g: float, omega: float) -> np.ndarray:
    """Single-excitation symmetric-sector block of the conversion
    Hamiltonian in the basis (S^dag|g>|1>, T^dag|g>|0>, E^dag|g>|0>)."""
    return np.array([
        [0.0, 0.0, g],
        [0.0, 0.0, omega],
        [g, omega, 0.0],
    ])


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


_ATOM_LEVELS = ("g", "s", "t", "e")


def dense_conversion_hamiltonian(g, omega, n_atoms):
    """Independent oracle: the full many-body matrix of the conversion
    Hamiltonian (hbar = 1), H = g a sum_i |e><s|_i + Omega sum_i
    |e><t|_i + h.c. over n_atoms four-level atoms and a radiation mode of
    cutoff 2, and the index of each basis state (config, photons)."""
    basis = [(cfg, ph) for cfg in product(_ATOM_LEVELS, repeat=n_atoms) for ph in range(3)]
    index = {b: i for i, b in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for cfg, ph in basis:
        for i, level in enumerate(cfg):
            def to(new_level, new_ph, val):
                h[index[(cfg[:i] + (new_level,) + cfg[i + 1:], new_ph)], index[(cfg, ph)]] += val
            if level == "s" and ph >= 1:
                to("e", ph - 1, g * math.sqrt(ph))      # absorb a photon
            if level == "e" and ph + 1 <= 2:
                to("s", ph + 1, g * math.sqrt(ph + 1))  # emit a photon
            if level == "t":
                to("e", ph, omega)                      # classical drive
            if level == "e":
                to("t", ph, omega)
    return h, index


def dense_dark_state_residual(g, omega, n_atoms):
    h, index = dense_conversion_hamiltonian(g, omega, n_atoms)
    scale = math.hypot(g, omega)
    vec = np.zeros(len(index))
    ground = ("g",) * n_atoms
    for i in range(n_atoms):
        vec[index[(ground[:i] + ("s",) + ground[i + 1:], 1)]] += omega / scale / math.sqrt(n_atoms)
        vec[index[(ground[:i] + ("t",) + ground[i + 1:], 0)]] += -g / scale / math.sqrt(n_atoms)
    return float(np.linalg.norm(h @ vec) / max(abs(g), abs(omega)))


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_sparse_hamiltonian_action_matches_dense_matrix(n_atoms):
    rng = np.random.default_rng(60 + n_atoms)
    for _ in range(3):
        g, omega = rng.uniform(0.1, 5.0, size=2)
        h, index = dense_conversion_hamiltonian(g, omega, n_atoms)
        vec = rng.normal(size=len(index))
        out = fock._conversion_hamiltonian_action(g, omega, {b: vec[i] for b, i in index.items()})
        sparse = np.zeros(len(index))
        for b, amp in out.items():
            sparse[index[b]] = amp
        np.testing.assert_allclose(sparse, h @ vec, rtol=0.0, atol=1e-12)


def test_dark_state_residual_matches_dense_at_check_points():
    # The twenty points bsm-verify checks; the dense norm goes through
    # BLAS, whose summation order may differ in the last bit.
    for g, omega, n_atoms in DARK_STATE_CHECK_POINTS:
        assert dark_state_residual(g, omega, n_atoms) == pytest.approx(
            dense_dark_state_residual(g, omega, n_atoms), rel=0.0, abs=1e-16)


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

def test_duplicate_modes_rejected():
    with pytest.raises(RegistryMismatchError):
        ModeRegistry((ModeId.photon("a"), ModeId.photon("a")))


def test_tensor_product():
    ra = ModeRegistry((ModeId.photon("a"),))
    rb = ModeRegistry((ModeId.photon("b"),))
    ea = WeightedEnsemble.pure(ra, {(1,): 1.0})
    eb = WeightedEnsemble.pure(rb, {(0,): 1.0})
    out = ea.tensor(eb)
    assert out.branches[0][1] == {(1, 0): pytest.approx(1.0)}


def test_constructor_rejects_bad_occupations():
    # WeightedEnsemble.pure is where occupation vectors are checked; the
    # engine's branches are plain maps that skip the check.
    reg = two_modes()
    with pytest.raises(FockError, match="registry size"):
        WeightedEnsemble.pure(reg, {(0, 0, 0): 1})
    for occ in ((3, 0), (0, -1)):
        with pytest.raises(CutoffExceededError):
            WeightedEnsemble.pure(reg, {occ: 1})


def test_amplitude_pruning():
    reg = two_modes()
    state = amps_of(WeightedEnsemble.pure(reg, {(0, 0): 1.0, (1, 1): 1e-16}))
    assert (1, 1) not in state
