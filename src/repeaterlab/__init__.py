"""repeaterlab: a laboratory for a two-photon-interference quantum repeater.

The package has three layers:

* ``fock`` / ``optics`` verify the heralded protocol pipelines at the
  quantum-state level on a small Fock space,
* ``rates`` evaluates the closed-form success probabilities, waiting
  times and the dark-count fidelity bound,
* ``sim`` runs Monte Carlo discrete-event simulations of the full chain
  and compares them against the analytic total-time formula.

``core`` holds the shared parameter model, ``cli`` the command line
front end (``repeaterlab <subcommand>``).
"""

from .core import ProtocolParams, RateReport, ValidationResult, load_config, paper_defaults, validate

__all__ = [
    "ProtocolParams",
    "RateReport",
    "ValidationResult",
    "load_config",
    "paper_defaults",
    "validate",
]

__version__ = "0.4.2"
