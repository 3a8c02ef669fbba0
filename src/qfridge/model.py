"""Machine construction: parameters, thermal populations, Hamiltonian,
and the (optionally coherent) initial state.

The machine is three qubits (c, r, h) with energies E_c, E_r = E_c + E_h,
E_h = E_c/eta, each coupled to its own bath at temperature T_c <= T_r <= T_h
through a reset channel of rate p_i. A resonant three-body interaction of
strength g couples |010> and |101>. Units: hbar = k_B = 1.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

IDX_INNER = (2, 5)   # |010>, |101>  (k = 4c + 2r + h)
IDX_OUTER = (0, 7)   # |000>, |111>


class PerturbativeRegimeWarning(UserWarning):
    """Parameters outside the g, p_i << E_i regime the model is derived in."""


class CohSubspace(str, Enum):
    """Which density-matrix element pair carries the initial coherence.

    OUTER_DIAG is the |000><111| pair (matrix element (1,8) in 1-based
    labels), INNER_DIAG the |010><101| pair (element (3,6)).
    """
    OUTER_DIAG = "outer_diag"
    INNER_DIAG = "inner_diag"


@dataclass(frozen=True)
class FridgeParams:
    """Full machine specification.

    eta is the design efficiency E_c/E_h; the remaining energies are derived
    as E_h = E_c/eta and E_r = E_c + E_h (energy-conserving interaction).
    kappa in [0, 1] scales the initial coherence amplitude on coh_subspace.
    Every numeric field must be a finite real number, and g and the reset
    rates p_i positive: at g = 0 or p_i = 0 there is no steady cooling
    current and chi = Q_c/tau is 0/0. This is the one place the machine's
    domain is checked; the solvers rely on it. g or a rate at or above
    0.1 E_c warns PerturbativeRegimeWarning, located at the line that
    built the FridgeParams (dataclasses.py through dataclasses.replace).
    """
    E_c: float
    eta: float
    T_c: float
    T_r: float
    T_h: float
    p_c: float
    p_r: float
    p_h: float
    g: float
    kappa: float = 0.0
    coh_subspace: CohSubspace | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not (isinstance(value, numbers.Real)
                                        and math.isfinite(value)):
                raise ValueError("%s must be a finite number" % f.name)
        if not self.E_c > 0:
            raise ValueError("E_c must be positive")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not (0 < self.T_c <= self.T_r <= self.T_h):
            raise ValueError("temperatures must satisfy 0 < T_c <= T_r <= T_h")
        for name in ("p_c", "p_r", "p_h", "g"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if not 0 <= self.kappa <= 1:
            raise ValueError("kappa must lie in [0, 1]")
        if self.coh_subspace is not None:
            object.__setattr__(self, "coh_subspace", CohSubspace(self.coh_subspace))
        if self.kappa > 0 and self.coh_subspace is None:
            raise ValueError("kappa > 0 requires a coherence subspace")
        # local-bath / reset description is perturbative in g and the rates
        if self.g >= 0.1 * self.E_c or max(self.p_c, self.p_r, self.p_h) >= 0.1 * self.E_c:
            warnings.warn(
                "parameters outside the perturbative regime "
                "(g or max p_i >= 0.1 E_c); local reset description is approximate",
                PerturbativeRegimeWarning, stacklevel=3)

    # derived energies -------------------------------------------------
    @property
    def E_h(self):
        return self.E_c / self.eta

    @property
    def E_r(self):
        return self.E_c + self.E_h

    @property
    def energies(self):
        """(E_c, E_r, E_h) in subsystem order (c, r, h)."""
        return (self.E_c, self.E_r, self.E_h)

    @property
    def temperatures(self):
        return (self.T_c, self.T_r, self.T_h)

    @property
    def ps(self):
        return (self.p_c, self.p_r, self.p_h)

    @property
    def q(self):
        """Total reset rate p_c + p_r + p_h."""
        return self.p_c + self.p_r + self.p_h


class ThermalPopulations(NamedTuple):
    """Ground-state occupations r_i of the three qubits at their baths."""
    r_c: float
    r_r: float
    r_h: float


def ground_pop(E, T):
    """Thermal ground-state probability (1 + exp(-E/T))^{-1} in (1/2, 1)
    for E, T > 0."""
    return 1.0 / (1.0 + math.exp(-E / T))


def thermal_populations(params):
    """ThermalPopulations of the three qubits for the given machine."""
    E = params.energies
    T = params.temperatures
    return ThermalPopulations(*(ground_pop(E[i], T[i]) for i in range(3)))


def thermal_qubit(r):
    """Single-qubit thermal state diag(r, 1-r)."""
    return np.diag([r, 1.0 - r]).astype(complex)


def thermal_factors(r):
    """The diagonals (r_i, 1 - r_i) of tau_c, tau_r, tau_h on the axes 0, 1,
    2 of a (2, 2, 2) grid whose flat index is k = 4c + 2r + h: broadcast
    products of them are diagonals of product operators, e.g. tc * (tr * th)
    that of tau_c (x) tau_r (x) tau_h, equal to the Kronecker product.
    """
    return tuple(np.reshape([x, 1.0 - x], shape) for x, shape in
                 zip(r, ((2, 1, 1), (1, 2, 1), (1, 1, 2))))


def thermal_product(r):
    """The thermal product state tau_c (x) tau_r (x) tau_h, 8x8 diagonal."""
    tc, tr, th = thermal_factors(r)
    return np.diag((tc * (tr * th)).ravel()).astype(complex)


def build_hamiltonian(params):
    """H = sum_i E_i |1><1|_i + g(|101><010| + |010><101|), 8x8 Hermitian."""
    E_c, E_r, E_h = params.energies
    H = np.zeros((8, 8), dtype=complex)
    for k in range(8):
        c, r, h = (k >> 2) & 1, (k >> 1) & 1, k & 1
        H[k, k] = c * E_c + r * E_r + h * E_h
    i, j = IDX_INNER
    H[j, i] = params.g
    H[i, j] = params.g
    return H


def coherence_amplitude(params):
    """The real amplitude a = kappa * sqrt(prod_i r_i rbar_i) of the initial
    coherence (0.0 when kappa = 0), with r_i the thermal populations.

    The same magnitude formula is used for both subspaces so equal-kappa
    comparisons are comparisons of equal coherence.
    """
    if params.kappa == 0:
        return 0.0
    r = thermal_populations(params)
    return params.kappa * math.sqrt(math.prod(x * (1.0 - x) for x in r))


def coherence_matrix(params):
    """The initial off-diagonal injection mu: coherence_amplitude on the
    chosen subspace's element pair and its conjugate (zero when kappa = 0)."""
    mu = np.zeros((8, 8), dtype=complex)
    i, j = IDX_OUTER if params.coh_subspace is CohSubspace.OUTER_DIAG else IDX_INNER
    mu[i, j] = mu[j, i] = coherence_amplitude(params)
    return mu


def initial_state(params):
    """rho0 = tau_c (x) tau_r (x) tau_h + mu; Hermitian, unit trace, PSD.

    On either subspace the coupled 2x2 block has determinant
    (1 - kappa^2) prod_i r_i rbar_i >= 0 for kappa in [0, 1], so PSD holds
    analytically (evolve checks every rho0 it integrates from anyway).
    """
    rho = thermal_product(thermal_populations(params))
    if params.kappa > 0:
        rho = rho + coherence_matrix(params)
    return rho
