"""Sparse Fock-space engine over registered bosonic/collective modes.

States are sparse maps from occupation vectors to complex amplitudes over
an ordered mode registry.  Mixed states are represented as weighted pure
branches (every mixing source in the protocol -- storage vacuum terms,
loss channels, dark counts -- is a probabilistic branch), which keeps the
algebra exact and inner products cheap.

A loss channel of transmissivity eta splits each branch in closed form:
the component that lost k of a mode's n photons carries the binomial
amplitude sqrt(C(n, k) eta^(n-k) (1-eta)^k), so no environment mode is
created and the registry never grows from losses.  Every mode's
occupation is capped at ``D_MAX`` = 2: the protocol post-selects at most
two photons per detection stage, and double clicks at one detector need
occupation 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

AMPLITUDE_PRUNE = 1e-14
WEIGHT_PRUNE = 1e-12
UNITARY_TOL = 1e-10

D_MAX = 2


class FockError(ValueError):
    """Base class for state-engine errors."""


class CutoffExceededError(FockError):
    """An operation tried to push a mode occupation past D_MAX."""


class RegistryMismatchError(FockError):
    """Operands live on different registries, or a mode is missing."""


@dataclass(frozen=True, order=True)
class ModeId:
    """Label of one bosonic or collective mode.

    Two families are used: collective ensemble modes (site, arm u/d,
    species T/S) and photonic modes (path, polarization H/V or None for a
    bare path mode).
    """

    kind: str
    tags: tuple

    @classmethod
    def ensemble(cls, site: str, arm: str, species: str) -> "ModeId":
        if arm not in ("u", "d"):
            raise FockError(f"ensemble arm must be 'u' or 'd', got {arm!r}")
        if species not in ("T", "S"):
            raise FockError(f"ensemble species must be 'T' or 'S', got {species!r}")
        return cls("ensemble", (site, arm, species))

    @classmethod
    def photon(cls, path: str, pol: str | None = None) -> "ModeId":
        if pol not in ("H", "V", None):
            raise FockError(f"polarization must be 'H', 'V' or None, got {pol!r}")
        return cls("photon", (path, pol))

    def __str__(self) -> str:
        if self.kind == "ensemble":
            site, arm, species = self.tags
            return f"{species}[{site}.{arm}]"
        path, pol = self.tags
        return f"ph[{path}.{pol}]" if pol else f"ph[{path}]"


class ModeRegistry:
    """Ordered, duplicate-free collection of modes; occupation vectors
    are indexed in registry order."""

    __slots__ = ("modes", "_index")

    def __init__(self, modes):
        self.modes: tuple[ModeId, ...] = tuple(modes)
        self._index = {m: i for i, m in enumerate(self.modes)}
        if len(self._index) != len(self.modes):
            raise RegistryMismatchError("duplicate mode labels in registry")

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __contains__(self, mode: ModeId) -> bool:
        return mode in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeRegistry) and self.modes == other.modes

    def __hash__(self):
        return hash(self.modes)

    def __repr__(self) -> str:
        return "ModeRegistry(" + ", ".join(str(m) for m in self.modes) + ")"

    def index(self, mode: ModeId) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise RegistryMismatchError(f"mode {mode} not in registry") from None

    def drop(self, mode: ModeId) -> "ModeRegistry":
        i = self.index(mode)
        return ModeRegistry(self.modes[:i] + self.modes[i + 1:])


class PureState:
    """Sparse pure state: {occupation vector: amplitude} over a registry.

    Amplitudes below ``AMPLITUDE_PRUNE`` are dropped on construction.
    States are immutable; operations return new states.  Construction
    does not normalize -- callers normalize where the contract needs it.
    """

    __slots__ = ("registry", "amps")

    def __init__(self, registry: ModeRegistry, amps: dict):
        self.registry = registry
        clean: dict[tuple, complex] = {}
        nmodes = len(registry)
        for occ, amp in amps.items():
            if len(occ) != nmodes:
                raise FockError(f"occupation vector {occ} does not match registry size {nmodes}")
            if any(o < 0 or o > D_MAX for o in occ):
                raise CutoffExceededError(f"occupation {occ} outside [0, {D_MAX}]")
            a = complex(amp)
            if abs(a) >= AMPLITUDE_PRUNE:
                clean[tuple(occ)] = a
        self.amps = clean

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "PureState":
        """All-modes-empty state |0...0>."""
        if len(registry) == 0:
            raise FockError("vacuum needs a nonempty registry")
        return cls(registry, {(0,) * len(registry): 1.0})

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))

    def normalized(self) -> "PureState":
        nrm = self.norm()
        if nrm == 0.0:
            raise FockError("cannot normalize the zero state")
        return PureState(self.registry, {o: a / nrm for o, a in self.amps.items()})

    def amplitude(self, occ) -> complex:
        return self.amps.get(tuple(occ), 0.0 + 0.0j)

    def create(self, mode: ModeId) -> "PureState":
        """Apply the bosonic creation operator a_mode^dagger (with its
        sqrt(n+1) factor); the result is not normalized."""
        i = self.registry.index(mode)
        out: dict[tuple, complex] = {}
        for occ, amp in self.amps.items():
            n = occ[i]
            if n + 1 > D_MAX:
                raise CutoffExceededError(f"create on {mode} exceeds D_MAX={D_MAX}")
            new = occ[:i] + (n + 1,) + occ[i + 1:]
            out[new] = out.get(new, 0.0) + amp * math.sqrt(n + 1)
        return PureState(self.registry, out)

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        if self.registry != other.registry:
            raise RegistryMismatchError("inner product across different registries")
        if len(other.amps) < len(self.amps):
            return other.inner(self).conjugate()
        total = 0.0 + 0.0j
        for occ, a in self.amps.items():
            b = other.amps.get(occ)
            if b is not None:
                total += a.conjugate() * b
        return total

    def apply_linear_map(self, modes, u) -> "PureState":
        """Substitute a_i^dagger -> sum_j U[j, i] a_j^dagger on the given modes.

        ``u`` must be unitary within ``UNITARY_TOL``; only photonic modes
        may be mixed.  Norm and total photon number in the mapped modes
        are preserved.
        """
        modes = list(modes)
        u = np.asarray(u, dtype=complex)
        k = len(modes)
        if u.shape != (k, k):
            raise FockError(f"matrix shape {u.shape} does not match {k} modes")
        if np.max(np.abs(u.conj().T @ u - np.eye(k))) > UNITARY_TOL:
            raise FockError("matrix is not unitary within tolerance")
        for m in modes:
            if m.kind == "ensemble":
                raise FockError("linear maps act on photonic modes only")
        idxs = [self.registry.index(m) for m in modes]
        if len(set(idxs)) != k:
            raise FockError("mapped modes must be distinct")

        out: dict[tuple, complex] = {}
        for occ, amp in self.amps.items():
            ns = [occ[i] for i in idxs]
            base = list(occ)
            for i in idxs:
                base[i] = 0
            seed = amp / math.sqrt(math.prod(math.factorial(n) for n in ns))
            terms: dict[tuple, complex] = {tuple(base): seed}
            for col, n_col in enumerate(ns):
                for _ in range(n_col):
                    nxt: dict[tuple, complex] = {}
                    for occ2, a2 in terms.items():
                        for row in range(k):
                            coeff = u[row, col]
                            if coeff == 0.0:
                                continue
                            j = idxs[row]
                            m_occ = occ2[j]
                            if m_occ + 1 > D_MAX:
                                raise CutoffExceededError("linear map pushed occupation past D_MAX")
                            new = occ2[:j] + (m_occ + 1,) + occ2[j + 1:]
                            nxt[new] = nxt.get(new, 0.0) + a2 * coeff * math.sqrt(m_occ + 1)
                    terms = nxt
            for occ3, a3 in terms.items():
                out[occ3] = out.get(occ3, 0.0) + a3
        return PureState(self.registry, out)

    def dump(self) -> str:
        """Debug listing: one line per term, "occupations TAB re TAB im"."""
        lines = []
        for occ in sorted(self.amps):
            a = self.amps[occ]
            lines.append(f"{','.join(str(o) for o in occ)}\t{a.real!r}\t{a.imag!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        terms = ", ".join(f"{occ}: {amp:.4g}" for occ, amp in sorted(self.amps.items()))
        return f"PureState({terms})"


@dataclass(frozen=True)
class MeasurementOutcome:
    """One number-resolved outcome: count, probability, conditional state."""

    outcome: int
    probability: float
    state: "WeightedEnsemble"


class WeightedEnsemble:
    """Mixed state as weighted pure branches sharing one registry.

    Weights are renormalized to sum 1 on construction; branches lighter
    than ``WEIGHT_PRUNE`` are dropped and exactly identical branches are
    merged.
    """

    __slots__ = ("registry", "branches")

    def __init__(self, branches):
        branches = [(float(w), s) for w, s in branches if w > WEIGHT_PRUNE]
        if not branches:
            raise FockError("ensemble needs at least one branch with positive weight")
        registry = branches[0][1].registry
        for _, state in branches:
            if state.registry != registry:
                raise RegistryMismatchError("all ensemble branches must share one registry")
        grouped: dict[tuple, list] = {}
        for w, s in branches:
            key = tuple(sorted(s.amps.items()))
            entry = grouped.get(key)
            if entry is None:
                grouped[key] = [w, s]
            else:
                entry[0] += w
        branches = [(w, s) for w, s in grouped.values()]
        total = sum(w for w, _ in branches)
        self.registry = registry
        self.branches = tuple((w / total, s) for w, s in branches)

    @classmethod
    def from_pure(cls, state: PureState) -> "WeightedEnsemble":
        return cls([(1.0, state.normalized())])

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def weight_sum(self) -> float:
        return sum(w for w, _ in self.branches)

    def tensor(self, other: "WeightedEnsemble") -> "WeightedEnsemble":
        """Tensor product over the concatenated registries."""
        registry = ModeRegistry(self.registry.modes + other.registry.modes)
        out = []
        for w1, s1 in self.branches:
            for w2, s2 in other.branches:
                amps = {}
                for o1, a1 in s1.amps.items():
                    for o2, a2 in s2.amps.items():
                        amps[o1 + o2] = a1 * a2
                out.append((w1 * w2, PureState(registry, amps)))
        return WeightedEnsemble(out)

    def apply_loss(self, mode: ModeId, eta: float) -> "WeightedEnsemble":
        """Photon loss of transmissivity eta on one mode.

        Each branch splits into orthogonal components labelled by the
        number k of photons lost, with binomial amplitudes (a beamsplitter
        into an environment mode that is traced out, in closed form).
        """
        if not 0.0 <= eta <= 1.0:
            raise FockError(f"transmissivity must be in [0, 1], got {eta}")
        i = self.registry.index(mode)
        out = []
        for w, state in self.branches:
            lost: dict[int, dict[tuple, complex]] = {}
            for occ, amp in state.amps.items():
                n = occ[i]
                for k in range(n + 1):
                    coeff = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
                    if coeff == 0.0:
                        continue
                    new = occ[:i] + (n - k,) + occ[i + 1:]
                    comp = lost.setdefault(k, {})
                    comp[new] = comp.get(new, 0.0) + amp * coeff
            for comp in lost.values():
                sub = PureState(self.registry, comp)
                p = sub.norm() ** 2
                if p > WEIGHT_PRUNE:
                    out.append((w * p, sub.normalized()))
        return WeightedEnsemble(out)

    def measure_number(self, mode: ModeId) -> list[MeasurementOutcome]:
        """Number-resolved measurement of one mode.

        Returns every outcome with positive probability; the measured
        mode is removed from the conditional states' registry.
        Probabilities sum to 1 for a normalized ensemble.
        """
        i = self.registry.index(mode)
        reduced = self.registry.drop(mode)
        per_outcome: dict[int, list] = {}
        probs: dict[int, float] = {}
        for w, state in self.branches:
            comps: dict[int, dict[tuple, complex]] = {}
            for occ, amp in state.amps.items():
                comp = comps.setdefault(occ[i], {})
                comp[occ[:i] + occ[i + 1:]] = amp
            for outcome, amps in comps.items():
                sub = PureState(reduced, amps)
                p = sub.norm() ** 2
                if p <= WEIGHT_PRUNE:
                    continue
                per_outcome.setdefault(outcome, []).append((w * p, sub.normalized()))
                probs[outcome] = probs.get(outcome, 0.0) + w * p
        results = []
        for outcome in sorted(per_outcome):
            results.append(MeasurementOutcome(
                outcome=outcome,
                probability=probs[outcome],
                state=WeightedEnsemble(per_outcome[outcome]),
            ))
        return results

    def fidelity(self, target: PureState) -> float:
        """sum_branches weight * |<target|branch>|^2."""
        if target.registry != self.registry:
            raise RegistryMismatchError("target registry differs from ensemble registry")
        return sum(w * abs(target.inner(state)) ** 2 for w, state in self.branches)

    def __repr__(self) -> str:
        return f"WeightedEnsemble({self.branch_count} branches over {len(self.registry)} modes)"


# ---------------------------------------------------------------------------
# Dark-state check for the T -> S conversion Hamiltonian
# ---------------------------------------------------------------------------

_ATOM_LEVELS = ("g", "s", "t", "e")
_PHOTON_CUTOFF = 2


def _conversion_hamiltonian(g: float, omega: float, n_atoms: int) -> tuple[np.ndarray, dict]:
    """Full many-body matrix of the conversion Hamiltonian (hbar = 1).

    H = g a sum_i |e><s|_i + Omega sum_i |e><t|_i + h.c. over n_atoms
    four-level atoms and a quantized radiation mode (cutoff 2).
    Returns the dense matrix and the index of each basis state
    (config, photons).
    """
    basis = [(cfg, ph) for cfg in product(_ATOM_LEVELS, repeat=n_atoms) for ph in range(_PHOTON_CUTOFF + 1)]
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    h = np.zeros((dim, dim), dtype=float)

    def add(dst, src, val):
        h[index[dst], index[src]] += val

    for cfg, ph in basis:
        for i, level in enumerate(cfg):
            if level == "s" and ph >= 1:
                # g a |e><s|: absorb a photon, s -> e
                new_cfg = cfg[:i] + ("e",) + cfg[i + 1:]
                add((new_cfg, ph - 1), (cfg, ph), g * math.sqrt(ph))
            if level == "e" and ph + 1 <= _PHOTON_CUTOFF:
                # h.c.: emit a photon, e -> s
                new_cfg = cfg[:i] + ("s",) + cfg[i + 1:]
                add((new_cfg, ph + 1), (cfg, ph), g * math.sqrt(ph + 1))
            if level == "t":
                # Omega |e><t|: classical drive, t -> e
                new_cfg = cfg[:i] + ("e",) + cfg[i + 1:]
                add((new_cfg, ph), (cfg, ph), omega)
            if level == "e":
                # h.c.: e -> t
                new_cfg = cfg[:i] + ("t",) + cfg[i + 1:]
                add((new_cfg, ph), (cfg, ph), omega)
    return h, index


def dark_state_residual(g: float, omega: float, n_atoms: int) -> float:
    """Norm of H|D> for the adiabatic-transfer dark state, in units of
    max(|g|, |Omega|).

    |D> = cos(theta) S^dag|g>|1> - sin(theta) T^dag|g>|0> with
    tan(theta) = g / Omega; the residual vanishes identically because
    |D> is the zero-eigenvalue dark state of the conversion Hamiltonian.
    """
    if not 1 <= n_atoms <= 4:
        raise ValueError(f"n_atoms must be in [1, 4], got {n_atoms}")
    if g == 0.0 and omega == 0.0:
        raise ValueError("(g, omega) must not both be zero")
    h, index = _conversion_hamiltonian(g, omega, n_atoms)

    scale = math.hypot(g, omega)
    cos_t = omega / scale
    sin_t = g / scale

    vec = np.zeros(len(index))
    ground = ("g",) * n_atoms
    for i in range(n_atoms):
        s_cfg = ground[:i] + ("s",) + ground[i + 1:]
        t_cfg = ground[:i] + ("t",) + ground[i + 1:]
        vec[index[(s_cfg, 1)]] += cos_t / math.sqrt(n_atoms)
        vec[index[(t_cfg, 0)]] += -sin_t / math.sqrt(n_atoms)

    residual = np.linalg.norm(h @ vec)
    return float(residual / max(abs(g), abs(omega)))


def dark_sector_hamiltonian(g: float, omega: float) -> np.ndarray:
    """Single-excitation symmetric-sector block of the conversion
    Hamiltonian in the basis (S^dag|g>|1>, T^dag|g>|0>, E^dag|g>|0>)."""
    return np.array([
        [0.0, 0.0, g],
        [0.0, 0.0, omega],
        [g, omega, 0.0],
    ])
