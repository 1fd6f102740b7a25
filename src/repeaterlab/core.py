"""Protocol parameters, validation and config ingestion.

All other modules consume :class:`ProtocolParams` values.  Instances are
plain frozen dataclasses and are *not* validated on construction, so that
:func:`validate` can report every violated field of an arbitrary value;
anything loaded through :func:`load_config` is validated before return.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    """Raised when a config document cannot be turned into parameters."""


@dataclass(frozen=True)
class ProtocolParams:
    """Scalar hardware and architecture parameters of the repeater.

    Attributes:
        eta_p: single-photon-source emission probability per pulse.
        eta_s: photon storage efficiency into an ensemble.
        eta_e1: efficiency of the memory T -> S conversion (anti-Stokes emission).
        eta_e2: efficiency of the memory S -> photon retrieval.
        eta_d: single-photon detector efficiency.
        r: single-photon-source repetition rate, Hz.
        L: total communication distance, km.
        L_att: fiber attenuation length, km.
        c: light speed in fiber, km/s.
        n: number of swap levels (the chain has 2**n elementary links).
        p_d: dark-count probability per detector per detection window.
    """

    eta_p: float = 0.9
    eta_s: float = 0.9
    eta_e1: float = 0.05
    eta_e2: float = 0.9
    eta_d: float = 0.9
    r: float = 39.2e6
    L: float = 1280.0
    L_att: float = 22.0
    c: float = 2.0e5
    n: int = 4
    p_d: float = 5e-6

    @property
    def l0(self) -> float:
        """Elementary link length L / 2**n, km (exact in binary floats)."""
        return math.ldexp(self.L, -self.n)

    def with_overrides(self, **kwargs) -> "ProtocolParams":
        return replace(self, **kwargs)


def paper_defaults() -> ProtocolParams:
    """Parameter set quoted in the discussion of the source scheme."""
    return ProtocolParams()


@dataclass(frozen=True)
class RateReport:
    """All derived analytic quantities for one parameter set.

    Probabilities are dimensionless, times in seconds, ``delta_f`` is the
    dark-count infidelity bound 1 - F.
    """

    eta_t: float
    p_l: float
    p_0: float
    p_swap: float
    t_l: float
    t_0: float
    t_total: float
    delta_f: float

    def to_record(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate`; ``violations`` name offending fields."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_PROBABILITY_FIELDS = ("eta_p", "eta_s", "eta_e1", "eta_e2", "eta_d")
_POSITIVE_FIELDS = ("r", "L", "L_att", "c")

# Config keys are unit-suffixed where the field name alone is ambiguous.
_CONFIG_KEYS: dict[str, str] = {
    "eta_p": "eta_p",
    "eta_s": "eta_s",
    "eta_e1": "eta_e1",
    "eta_e2": "eta_e2",
    "eta_d": "eta_d",
    "r_hz": "r",
    "l_km": "L",
    "l_att_km": "L_att",
    "c_km_s": "c",
    "n": "n",
    "p_d": "p_d",
}


def validate(params: ProtocolParams) -> ValidationResult:
    """Check every type invariant; report all violated fields by name."""
    bad: list[str] = []
    for name in _PROBABILITY_FIELDS:
        v = getattr(params, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
            bad.append(name)
    for name in _POSITIVE_FIELDS:
        v = getattr(params, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
            bad.append(name)
    if not (isinstance(params.n, int) and not isinstance(params.n, bool) and params.n >= 0):
        bad.append("n")
    if not (isinstance(params.p_d, (int, float)) and math.isfinite(params.p_d) and 0.0 <= params.p_d < 1.0):
        bad.append("p_d")
    return ValidationResult(tuple(bad))


def serialize(params: ProtocolParams) -> str:
    """Emit a config document; ``load_config(serialize(p)) == p`` for valid p."""
    doc = {key: getattr(params, field) for key, field in _CONFIG_KEYS.items()}
    return json.dumps(doc, indent=2, sort_keys=True)


def load_config(document: str) -> ProtocolParams:
    """Parse a flat JSON config document into validated parameters.

    Missing keys take the paper defaults; unknown keys are rejected.  An
    empty (or whitespace-only) document means "all defaults".

    Raises:
        ConfigError: on parse errors (with line context), unknown keys,
            wrongly typed values, or validation failures.
    """
    text = document.strip()
    if not text:
        doc: dict = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a flat JSON object")

    overrides: dict[str, float | int] = {}
    for key, value in doc.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        field = _CONFIG_KEYS[key]
        if field == "n":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
            overrides[field] = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
            overrides[field] = float(value)

    params = paper_defaults().with_overrides(**overrides)
    result = validate(params)
    if not result.ok:
        raise ConfigError("invalid parameter values for: " + ", ".join(result.violations))
    return params
