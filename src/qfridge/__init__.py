"""Exact steady states, reset-model dynamics, and speed-limit bounds for
the three-qubit absorption refrigerator.

The machine: three qubits (cold, room, hot) with E_r = E_c + E_h, each
coupled to its own bath by probabilistic thermal resets, plus the
three-body swap interaction g(|010><101| + h.c.). The package computes
the closed-form steady state, integrates the master equation, evaluates
the quantum-speed-limit time tau for the transient, and builds the
figure-of-merit chi = Q_c / tau together with its closed forms, sweeps,
and optimizers.
"""

from .errors import (BoundaryMaximumError, ConfigError, DegenerateKernelError,
                     FridgeError, IntegrationError, PoleError,
                     UndefinedChiError)
from .model import (CohSubspace, FridgeParams, PerturbativeRegimeWarning,
                    initial_state)
from .linalg import trace_distance
from .steady import carnot_cop, steady_state
from .dynamics import evolve
from .qsl import (NonCoolingWarning, TrivialEvolutionWarning, bsocr,
                  bsocr_coherent_coeffs, chi_from_g_form, qsl_time,
                  tradeoff_coeffs)
from .analysis import (HighTemperatureValidityWarning, SweepSpec, chi_highT,
                       eta_opt_asymptotic, f_function, maximize_chi_over_eta,
                       run_sweep)

# The API the README and the demos use, plus the error and warning classes
# callers catch or filter; the building blocks live in their own modules.
__all__ = [
    "FridgeParams", "CohSubspace", "initial_state", "steady_state",
    "carnot_cop", "qsl_time", "bsocr", "bsocr_coherent_coeffs",
    "chi_from_g_form", "tradeoff_coeffs", "evolve", "trace_distance",
    "SweepSpec", "run_sweep", "maximize_chi_over_eta", "f_function",
    "chi_highT", "eta_opt_asymptotic",
    "BoundaryMaximumError", "ConfigError", "DegenerateKernelError",
    "FridgeError", "IntegrationError", "PoleError", "UndefinedChiError",
    "PerturbativeRegimeWarning", "NonCoolingWarning",
    "TrivialEvolutionWarning", "HighTemperatureValidityWarning",
]

__version__ = "0.1.0"
