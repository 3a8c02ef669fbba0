"""Machine construction: parameters and their domain, thermal
populations, Hamiltonian, and the (optionally coherent) initial state.
A FridgeParams checks its domain; FridgeParams.grid puts one knob's
values on a copy as a column, and domain_checks masks its refused rows.

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


# sweep knob -> the FridgeParams fields each grid value sets
KNOBS = {"g": ("g",), "p_equal": ("p_c", "p_r", "p_h"), "eta": ("eta",),
         "kappa": ("kappa",)}
PERTURBATIVE_NOTE = ("parameters outside the perturbative regime (g or max "
                     "p_i >= 0.1 E_c); local reset description is approximate")


@dataclass(frozen=True)
class FridgeParams:
    """Full machine specification.

    eta is the design efficiency E_c/E_h; the remaining energies are derived
    as E_h = E_c/eta and E_r = E_c + E_h (energy-conserving interaction).
    kappa in [0, 1] scales the initial coherence amplitude on coh_subspace.
    Every numeric field must be a finite real number, and g and the reset
    rates p_i positive: at g = 0 or p_i = 0 there is no steady cooling
    current and chi = Q_c/tau is 0/0. domain_checks states the machine's
    domain once; the solvers rely on it. g or a rate at or above 0.1 E_c
    warns PerturbativeRegimeWarning, located at the line that built the
    FridgeParams (dataclasses.py through dataclasses.replace).
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
        for message, bad in domain_checks(self):
            if bad:
                raise ValueError(message)
        if self.coh_subspace is not None:
            object.__setattr__(self, "coh_subspace", CohSubspace(self.coh_subspace))
        if outside_perturbative(self):
            warnings.warn(PERTURBATIVE_NOTE, PerturbativeRegimeWarning,
                          stacklevel=3)

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

    def grid(self, knob, values):
        """A copy whose KNOBS knob fields hold the 1-D values, unchecked,
        for broadcast evaluation: domain_checks masks what __post_init__
        would refuse."""
        p = object.__new__(FridgeParams)
        p.__dict__.update(vars(self), **dict.fromkeys(
            KNOBS[knob], np.asarray(values, dtype=float)))
        return p


_NUMBER_FIELDS = [f.name for f in fields(FridgeParams) if f.type is float]


def domain_checks(p):
    """FridgeParams' checks on p in order, as (message, bad) pairs, bad a
    bool array on a grid's columns. Lazy: a check may assume that the
    earlier ones pass."""
    for name in _NUMBER_FIELDS:
        x = getattr(p, name)
        yield f"{name} must be a finite number", (
            ~np.isfinite(x) if isinstance(x, np.ndarray) and x.ndim
            else not (isinstance(x, (float, numbers.Real))
                      and math.isfinite(x)))
    yield "E_c must be positive", p.E_c <= 0
    yield "eta must be positive", p.eta <= 0
    yield ("temperatures must satisfy 0 < T_c <= T_r <= T_h",
           (p.T_c <= 0) | (p.T_c > p.T_r) | (p.T_r > p.T_h))
    for name in ("p_c", "p_r", "p_h", "g"):
        yield f"{name} must be positive", getattr(p, name) <= 0
    yield "kappa must lie in [0, 1]", (p.kappa < 0) | (p.kappa > 1)
    yield ("kappa > 0 requires a coherence subspace",
           (p.kappa > 0) & (p.coh_subspace is None))


def outside_perturbative(p):
    """g or max p_i >= 0.1 E_c: the local reset description, perturbative
    in g and the rates, is approximate there."""
    edge = 0.1 * p.E_c
    return (p.g >= edge) | (p.p_c >= edge) | (p.p_r >= edge) | (p.p_h >= edge)


# x ** 2 and a / b (at_zero where b == 0), elementwise on grid columns;
# on one point's floats with no numpy call and Python's rounding, inf
# where ** raises (np.float_power rounds as ** does, np.square need not)

def _square(x):
    try:
        return np.float_power(x, 2) if isinstance(x, np.ndarray) else x ** 2
    except OverflowError:
        return math.inf


def _quotient(a, b, at_zero):
    if isinstance(b, np.ndarray):
        return np.where(b == 0, at_zero, a / b)
    return a / b if b else at_zero


class ThermalPopulations(NamedTuple):
    """Ground-state occupations r_i of the three qubits at their baths."""
    r_c: float
    r_r: float
    r_h: float


def ground_pop(E, T):
    """Thermal ground-state probability (1 + exp(-E/T))^{-1} in (1/2, 1)
    for E, T > 0; elementwise on a 1-D array E, still with math.exp (np.exp
    differs from it in the last bit on a few percent of arguments)."""
    x = -E / T
    if isinstance(x, np.ndarray):
        try:
            e = [math.exp(v) for v in x.tolist()]
        except OverflowError:   # v > 0 only where E or T < 0, a refused row
            e = [math.exp(v) if v < 709.0 else math.inf for v in x.tolist()]
        return 1.0 / (1.0 + np.array(e))
    return 1.0 / (1.0 + math.exp(x))


def thermal_populations(params):
    """ThermalPopulations of the three qubits for the given machine."""
    E = params.energies
    T = params.temperatures
    return ThermalPopulations(*(ground_pop(E[i], T[i]) for i in range(3)))


def thermal_qubit(r):
    """Single-qubit thermal state diag(r, 1-r)."""
    return np.diag([r, 1.0 - r]).astype(complex)


def thermal_product(r):
    """The thermal product state tau_c (x) tau_r (x) tau_h, 8x8 diagonal:
    at k = 4c + 2r + h the product of the factors r_i or 1 - r_i that k's
    bits pick."""
    tc, tr, th = ((x, 1.0 - x) for x in r)
    return np.diag([a * (b * c) for a in tc for b in tr for c in th]
                   ).astype(complex)


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
    comparisons are comparisons of equal coherence. Elementwise on a grid.
    """
    if isinstance(params.kappa, float) and params.kappa == 0:
        return 0.0
    r_c, r_r, r_h = thermal_populations(params)
    return params.kappa * np.sqrt(
        r_c * (1.0 - r_c) * (r_r * (1.0 - r_r)) * (r_h * (1.0 - r_h)))


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
