"""Sparse Fock-space engine over registered bosonic/collective modes.

States are sparse maps from occupation vectors to complex amplitudes over
an ordered mode registry.  Mixed states are represented as weighted pure
branches (every mixing source in the protocol -- storage vacuum terms,
detector misses -- is a probabilistic branch), which keeps the algebra
exact and overlaps cheap.

Photon loss lives only in the detectors.  Detection is one step,
``WeightedEnsemble.measure``: it counts several modes at once through
detectors of efficiency eta and removes the counted modes.  A mode
holding n photons records k of them with the binomial amplitude
sqrt(C(n, k) eta^k (1-eta)^(n-k)), and each number of missed photons
leaves an orthogonal branch, so no environment mode is created.  A loss
in front of the detectors is charged by lowering eta (``optics`` states
when that is exact).  Every mode's occupation is capped at ``D_MAX`` =
2: the protocol post-selects at most two photons per detection stage,
and double clicks at one detector need occupation 2.

An ensemble stores its one registry once and each branch as a weight
and a plain ``{occupation vector: amplitude}`` map; a pure state is a
one-branch ensemble.  A pure state enters the engine through
``WeightedEnsemble.pure``, which rejects an occupation vector of the
wrong length or with an occupation outside [0, D_MAX].  The ensemble
operations (``apply_linear_map``, ``tensor`` and ``measure``) build
their branches as plain maps without that check, since each either
checks the cutoff itself (``apply_linear_map``) or can only lower
counts or drop modes; they only prune small amplitudes.
An operation checks its arguments once per call, not once per branch.
A linear map's matrix is checked once, by ``checked_unitary``, which
returns it as a ``Unitary`` (immutable rows of Python complex numbers);
``apply_linear_map`` takes only that type, so no call checks a matrix
again.  The module needs only the standard library.

Every ensemble is built by the ``WeightedEnsemble`` constructor, which
merges exactly identical branches, so ``apply_linear_map``, ``tensor``
and ``measure`` all merge: a measurement can produce identical
components, and a unitary or a product can round two branches that
differ in their last bits into identical ones.  The merge is skipped
only when a single branch remains, where there is nothing to merge.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple

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


class ModeId(NamedTuple):
    """Label of one bosonic or collective mode.

    Two families are used: collective ensemble modes (site, arm u/d,
    species T/S) and photonic modes (path, polarization H/V or None for a
    bare path mode).
    """

    kind: str
    tags: tuple

    @classmethod
    @lru_cache(maxsize=128)
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

    def __repr__(self) -> str:
        return "ModeRegistry(" + ", ".join(str(m) for m in self.modes) + ")"

    def index(self, mode: ModeId) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise RegistryMismatchError(f"mode {mode} not in registry") from None


@lru_cache(maxsize=64)
def _binomial_factors(eta: float) -> tuple[tuple[tuple[int, float], ...], ...]:
    """For each photon number n <= D_MAX, the (k, sqrt(C(n, k) eta^k
    (1 - eta)^(n - k))) pairs with a nonzero factor, k ascending: the
    amplitude factor for an efficiency-eta detector recording k of n
    photons."""
    table = []
    for n in range(D_MAX + 1):
        pairs = ((k, math.sqrt(math.comb(n, k) * eta ** k * (1.0 - eta) ** (n - k))) for k in range(n + 1))
        table.append(tuple((k, f) for k, f in pairs if f != 0.0))
    return tuple(table)


def _picker(idxs: list[int]):
    """Function that returns an occupation vector's entries at ``idxs``
    as a tuple."""
    if len(idxs) == 1:
        return lambda occ, i=idxs[0]: (occ[i],)
    return itemgetter(*idxs) if idxs else lambda occ: ()


def _pruned(amps: dict) -> dict:
    """``amps`` without the amplitudes below ``AMPLITUDE_PRUNE``."""
    return {occ: a for occ, a in amps.items() if abs(a) >= AMPLITUDE_PRUNE}


def _split(w: float, comps: dict):
    """Yield each component of a weight-``w`` branch, given as ``{key:
    amps}``, as ``(key, (weight, normalized amps))``; components of
    weight ``w |amps|^2`` at most ``WEIGHT_PRUNE`` are dropped."""
    for key, amps in comps.items():
        amps = _pruned(amps)
        nrm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        if (p := w * nrm ** 2) > WEIGHT_PRUNE:
            yield key, (p, {occ: b for occ, a in amps.items() if abs(b := a / nrm) >= AMPLITUDE_PRUNE})


def unitarity_defect(u) -> float:
    """max |U^dagger U - I| over the entries, for a square matrix ``u``
    given as rows of complex numbers."""
    cols = tuple(zip(*u))
    return max(
        abs(sum(a.conjugate() * b for a, b in zip(ci, cj)) - (i == j))
        for i, ci in enumerate(cols)
        for j, cj in enumerate(cols)
    )


class Unitary(tuple):
    """Rows of Python complex numbers that ``checked_unitary`` passed;
    the only matrix type ``WeightedEnsemble.apply_linear_map`` takes."""

    __slots__ = ()


def checked_unitary(u, k: int) -> Unitary:
    """``u`` (rows of numbers: nested lists or tuples, or a 2-D array)
    as a ``Unitary``, refused unless it is k x k, finite and unitary
    within ``UNITARY_TOL``."""
    try:
        rows = tuple(tuple(complex(c) for c in row) for row in u)
    except (TypeError, ValueError) as exc:
        raise FockError(f"matrix must be rows of numbers: {exc}") from None
    if len(rows) != k or any(len(row) != k for row in rows):
        raise FockError(f"matrix is not {k} x {k}, the size for {k} modes")
    if not all(cmath.isfinite(c) for row in rows for c in row):
        raise FockError("matrix entries must be finite")
    if not unitarity_defect(rows) <= UNITARY_TOL:
        raise FockError("matrix is not unitary within tolerance")
    return Unitary(rows)


class MeasurementOutcome(NamedTuple):
    """One number-resolved outcome: the count at each measured mode, its
    probability and the conditional state."""

    outcome: tuple[int, ...]
    probability: float
    state: "WeightedEnsemble"


class WeightedEnsemble:
    """Mixed state as weighted pure branches over one registry.

    ``branches`` holds ``(weight, amps)`` pairs, each ``amps`` a map
    from occupation vector to amplitude over ``registry``.  Weights are
    renormalized to sum 1 on construction; branches of weight at most
    ``WEIGHT_PRUNE`` are dropped and exactly identical branches are
    merged (with one branch left, there is nothing to merge).
    """

    __slots__ = ("registry", "branches")

    def __init__(self, registry: ModeRegistry, branches):
        heavy = [(float(w), amps) for w, amps in branches if w > WEIGHT_PRUNE]
        if not heavy:
            raise FockError("ensemble needs at least one branch with positive weight")
        if len(heavy) > 1:
            grouped: dict[frozenset, list] = {}
            for w, amps in heavy:
                key = frozenset(amps.items())
                entry = grouped.get(key)
                if entry is None:
                    grouped[key] = [w, amps]
                else:
                    entry[0] += w
            heavy = grouped.values()
        total = sum(w for w, _ in heavy)
        self.registry = registry
        self.branches = tuple((w / total, amps) for w, amps in heavy)

    @classmethod
    def pure(cls, registry: ModeRegistry, amps: dict) -> "WeightedEnsemble":
        """One-branch ensemble holding ``amps`` normalized, amplitudes below
        ``AMPLITUDE_PRUNE`` dropped before and after; refuses an occupation
        vector of the wrong length or outside [0, D_MAX], and the zero state."""
        nmodes = len(registry)
        clean: dict[tuple, complex] = {}
        for occ, amp in amps.items():
            if len(occ) != nmodes:
                raise FockError(f"occupation vector {occ} does not match registry size {nmodes}")
            if any(o < 0 or o > D_MAX for o in occ):
                raise CutoffExceededError(f"occupation {occ} outside [0, {D_MAX}]")
            clean[tuple(occ)] = complex(amp)
        clean = _pruned(clean)
        nrm = math.sqrt(sum(abs(a) ** 2 for a in clean.values()))
        if nrm == 0.0:
            raise FockError("cannot normalize the zero state")
        return cls(registry, [(1.0, _pruned({occ: a / nrm for occ, a in clean.items()}))])

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def apply_linear_map(self, modes, u: Unitary) -> "WeightedEnsemble":
        """Substitute a_i^dagger -> sum_j U[j, i] a_j^dagger on the given
        modes of every branch.

        ``u`` must be a ``Unitary`` from ``checked_unitary`` with one row
        per mode; only photonic modes may be mixed.  Each branch keeps
        its weight, its norm and its total photon number in the mapped
        modes.
        """
        modes = tuple(modes)
        k = len(modes)
        if not isinstance(u, Unitary) or len(u) != k:
            raise FockError(f"a linear map on {k} modes needs a {k} x {k} matrix from checked_unitary")
        for m in modes:
            if m.kind == "ensemble":
                raise FockError("linear maps act on photonic modes only")
        idxs = [self.registry.index(m) for m in modes]
        if len(set(idxs)) != k:
            raise FockError("mapped modes must be distinct")
        # Per input mode (column of u): the (registry index, coefficient)
        # pairs of the output modes it feeds, as Python complex numbers.
        columns = [[(j, c) for j, c in zip(idxs, col) if c != 0.0] for col in zip(*u)]

        mapped = []
        for w, amps in self.branches:
            out: dict[tuple, complex] = {}
            for occ, amp in amps.items():
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
                            for j, coeff in columns[col]:
                                m_occ = occ2[j]
                                if m_occ + 1 > D_MAX:
                                    raise CutoffExceededError("linear map pushed occupation past D_MAX")
                                new = occ2[:j] + (m_occ + 1,) + occ2[j + 1:]
                                nxt[new] = nxt.get(new, 0.0) + a2 * coeff * math.sqrt(m_occ + 1)
                        terms = nxt
                for occ3, a3 in terms.items():
                    out[occ3] = out.get(occ3, 0.0) + a3
            mapped.append((w, _pruned(out)))
        return WeightedEnsemble(self.registry, mapped)

    def tensor(self, other: "WeightedEnsemble") -> "WeightedEnsemble":
        """Tensor product over the concatenated registries."""
        registry = ModeRegistry(self.registry.modes + other.registry.modes)
        out = []
        for w1, amps1 in self.branches:
            for w2, amps2 in other.branches:
                amps = {o1 + o2: a1 * a2 for o1, a1 in amps1.items() for o2, a2 in amps2.items()}
                out.append((w1 * w2, _pruned(amps)))
        return WeightedEnsemble(registry, out)

    def measure(self, modes, eta: float) -> list[MeasurementOutcome]:
        """Number-resolved measurement of ``modes`` by detectors of
        efficiency ``eta``.

        A mode holding n photons records k with weight C(n, k) eta^k
        (1 - eta)^(n - k), and each lost number leaves an orthogonal
        branch.  Outcomes (one count per mode) come sorted; the measured
        modes leave the conditional states' registry.  Components of
        joint weight at most ``WEIGHT_PRUNE`` are dropped.
        """
        if not 0.0 <= eta <= 1.0:
            raise FockError(f"detector efficiency must be in [0, 1], got {eta}")
        idxs = [self.registry.index(m) for m in modes]
        if len(set(idxs)) != len(idxs):
            raise FockError("measured modes must be distinct")
        keep = [i for i in range(len(self.registry)) if i not in idxs]
        reduced = ModeRegistry(tuple(self.registry.modes[i] for i in keep))
        measured, kept_modes = _picker(idxs), _picker(keep)
        factors = _binomial_factors(eta)
        # photons -> [((counts, photons), joint factor)], nonzero factors only
        joint: dict[tuple, list] = {}
        per_outcome: dict[tuple, list] = {}
        for w, amps in self.branches:
            comps: dict[tuple, dict[tuple, complex]] = {}  # (counts, photons) -> component
            for occ, amp in amps.items():
                ns = measured(occ)
                terms = joint.get(ns)
                if terms is None:
                    terms = joint[ns] = [
                        ((tuple(k for k, _ in pairs), ns), coeff)
                        for pairs in product(*(factors[n] for n in ns))
                        if (coeff := math.prod(f for _, f in pairs)) != 0.0
                    ]
                rest = kept_modes(occ)
                for key, coeff in terms:
                    comps.setdefault(key, {})[rest] = amp * coeff
            for (ks, _), branch in _split(w, comps):
                per_outcome.setdefault(ks, []).append(branch)
        return [
            MeasurementOutcome(ks, sum(p for p, _ in parts), WeightedEnsemble(reduced, parts))
            for ks, parts in sorted(per_outcome.items())
        ]

    def __repr__(self) -> str:
        return f"WeightedEnsemble({self.branch_count} branches over {len(self.registry)} modes)"


# ---------------------------------------------------------------------------
# Dark-state check for the T -> S conversion Hamiltonian
# ---------------------------------------------------------------------------

_PHOTON_CUTOFF = 2


def _conversion_hamiltonian_action(g: float, omega: float, state: dict) -> dict:
    """H|state> for the conversion Hamiltonian (hbar = 1), states being
    sparse ``{(config, photons): amplitude}`` maps.

    H = g a sum_i |e><s|_i + Omega sum_i |e><t|_i + h.c. over four-level
    atoms (levels "g", "s", "t", "e"; a config is one level per atom) and
    a quantized radiation mode (cutoff 2).
    """
    out: dict[tuple, float] = {}
    for (cfg, ph), amp in state.items():
        for i, level in enumerate(cfg):
            moves = []
            if level == "s" and ph >= 1:
                # g a |e><s|: absorb a photon, s -> e
                moves.append(("e", ph - 1, g * math.sqrt(ph)))
            if level == "e" and ph + 1 <= _PHOTON_CUTOFF:
                # h.c.: emit a photon, e -> s
                moves.append(("s", ph + 1, g * math.sqrt(ph + 1)))
            if level == "t":
                # Omega |e><t|: classical drive, t -> e
                moves.append(("e", ph, omega))
            if level == "e":
                # h.c.: e -> t
                moves.append(("t", ph, omega))
            for new_level, new_ph, coeff in moves:
                key = (cfg[:i] + (new_level,) + cfg[i + 1:], new_ph)
                out[key] = out.get(key, 0.0) + coeff * amp
    return out


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
    scale = math.hypot(g, omega)
    cos_t = omega / scale
    sin_t = g / scale

    dark = {}
    ground = ("g",) * n_atoms
    for i in range(n_atoms):
        dark[(ground[:i] + ("s",) + ground[i + 1:], 1)] = cos_t / math.sqrt(n_atoms)
        dark[(ground[:i] + ("t",) + ground[i + 1:], 0)] = -sin_t / math.sqrt(n_atoms)

    residual = math.sqrt(sum(a * a for a in _conversion_hamiltonian_action(g, omega, dark).values()))
    return residual / max(abs(g), abs(omega))
