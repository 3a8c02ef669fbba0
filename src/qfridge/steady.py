"""Analytic steady state of the reset master equation and derived
steady-state quantities: rate combinations, the population bias Delta, the
weight lambda, the amplitude gamma, the correction matrix sigma, the
overlap tr(rho_diag sigma), the cooling rate Q_c, and the Carnot
coefficient of performance. steady_state is the one place where these
scalars of a point are computed; qsl reads them from its SteadyReport.

The steady state has the closed form rho_f = rho_diag + gamma * sigma
where rho_diag is the thermal product state and sigma is a fixed traceless
Hermitian matrix built from the thermal populations and the reset-rate
combinations: an 8-vector diagonal plus one off-diagonal pair.
Both gamma's sign convention and the population pairing inside lambda were
pinned against an independent 64x64 null-space solve of the generator
(residuals at machine precision across equal and unequal rate sets); the
unit tests keep that cross-check alive.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularRatesError
from .model import (IDX_INNER, thermal_factors, thermal_populations,
                    thermal_product)


class NoCouplingWarning(UserWarning):
    """g = 0: the interaction is off and gamma is returned as its limit 0."""


@dataclass(frozen=True)
class ResetCombos:
    """Rate combinations entering the steady state.

    q = p_c + p_r + p_h; q_i = p_i/(q - p_i);
    Q_jk = (p_j q_k + p_k q_j)/(q - p_j - p_k).
    Identity used by the heat-current consistency test:
    p_c (1 + q_r + q_h + Q_rh) = q.
    """
    q: float
    q_c: float
    q_r: float
    q_h: float
    Q_cr: float
    Q_ch: float
    Q_rh: float


@dataclass(frozen=True)
class SteadyReport:
    """Everything the steady state determines at one parameter point.

    lam is lambda_weight and overlap = tr(rho_diag sigma), rho_diag the
    thermal product; neither depends on g.
    """
    delta: float
    gamma: float
    lam: float
    overlap: float
    sigma: np.ndarray
    rho_f: np.ndarray
    q_cool: float
    eta: float
    eta_carnot: float
    is_fridge: bool


# ----------------------------------------------------------------------
# scalar building blocks
# ----------------------------------------------------------------------

def reset_combos(p_c, p_r, p_h):
    """ResetCombos from the three reset rates.

    Raises SingularRatesError when any needed denominator vanishes
    (e.g. two of the three rates zero).
    """
    ps = np.array([p_c, p_r, p_h], dtype=float)
    if np.any(ps < 0):
        raise ValueError("reset rates must be nonnegative")
    q = float(ps.sum())
    if q <= 0:
        raise SingularRatesError("all reset rates vanish")
    denom_single = q - ps
    if np.any(denom_single <= 0):
        raise SingularRatesError("q - p_i vanishes for some i")
    qi = ps / denom_single
    pair = [(0, 1), (0, 2), (1, 2)]   # (c,r), (c,h), (r,h)
    Q = []
    for j, k in pair:
        den = q - ps[j] - ps[k]
        if den <= 0:
            raise SingularRatesError("q - p_j - p_k vanishes for pair (%d, %d)" % (j, k))
        Q.append((ps[j] * qi[k] + ps[k] * qi[j]) / den)
    return ResetCombos(q, qi[0], qi[1], qi[2], Q[0], Q[1], Q[2])


def bias_delta(r):
    """Population bias Delta = r_c(1-r_r)r_h - (1-r_c)r_r(1-r_h).

    Delta vanishes exactly at global equilibrium and at the Carnot point;
    the machine cools when Delta < 0 (equivalently gamma > 0).
    """
    return r.r_c * (1.0 - r.r_r) * r.r_h - (1.0 - r.r_c) * r.r_r * (1.0 - r.r_h)


def omega_weights(r):
    """Pair weights Omega_jk = r'_j r'_k + (1-r'_j)(1-r'_k) over {cr, ch, rh}.

    This is the same-state (XNOR) combination in the primed populations; it
    is the unique variant under which rho0 + gamma*sigma annihilates the
    generator (the printed asymmetric form and its symmetrization both fail
    the residual test by many orders of magnitude).
    """
    rp = np.array([r.r_c, 1.0 - r.r_r, r.r_h])   # r' flips the middle qubit
    pairs = [(0, 1), (0, 2), (1, 2)]
    return tuple(rp[j] * rp[k] + (1.0 - rp[j]) * (1.0 - rp[k]) for j, k in pairs)


def lambda_weight(combos, r):
    """lambda = 2 + sum_i q_i + sum_jk Q_jk Omega_jk."""
    om = omega_weights(r)
    return (2.0 + combos.q_c + combos.q_r + combos.q_h
            + combos.Q_cr * om[0] + combos.Q_ch * om[1] + combos.Q_rh * om[2])


def gamma_amplitude(params, combos, r):
    """Steady-state correction amplitude gamma = -Delta/(lambda + q^2/(2g^2)).

    gamma > 0 is the cooling regime. For g = 0 the denominator diverges and
    the limit value 0 is returned with a no-coupling warning.
    """
    if params.g == 0:
        warnings.warn("g = 0: no coupling, gamma = 0 (limit value)",
                      NoCouplingWarning, stacklevel=2)
        return 0.0
    lam = lambda_weight(combos, r)
    return -bias_delta(r) / (lam + combos.q ** 2 / (2.0 * params.g ** 2))


# ----------------------------------------------------------------------
# the correction matrix
# ----------------------------------------------------------------------

def sigma_matrix(combos, r, params):
    """The traceless Hermitian steady-state correction matrix sigma.

    sigma = Q_rh Zc x tau_r x tau_h + Q_ch tau_c x Zr x tau_h
          + Q_cr tau_c x tau_r x Zh + q_c tau_c x Z_rh
          + q_r (tau_r at the middle slot) Z_ch + q_h Z_cr x tau_h
          + Z_crh + (q/2g) Y,
    with Zc = Zh = diag(1, -1), Zr = diag(-1, 1),
    Z_crh = |010><010| - |101><101|, Z_ij = tr_k Z_crh on its own qubits,
    and Y = i|101><010| - i|010><101|. Every term but the last is a
    diagonal product operator, built as a broadcast product of the
    2-vectors of model.thermal_factors and (1, -1); the sum is sigma's
    diagonal and (q/2g) Y its only off-diagonal pair.
    """
    if params.g <= 0:
        raise ValueError("sigma_matrix requires g > 0 (the Y term carries q/2g)")
    tc, tr, th = thermal_factors(r)
    z = np.array([1.0, -1.0])
    zcrh = np.zeros((2, 2, 2))
    zcrh[0, 1, 0], zcrh[1, 0, 1] = 1.0, -1.0
    diag = (combos.Q_rh * (z.reshape(2, 1, 1) * (tr * th))
            + combos.Q_ch * (-z.reshape(1, 2, 1) * (tc * th))
            + combos.Q_cr * (z.reshape(1, 1, 2) * (tc * tr))
            + combos.q_c * (tc * zcrh.sum(axis=0, keepdims=True))
            + combos.q_r * (tr * zcrh.sum(axis=1, keepdims=True))
            + combos.q_h * (th * zcrh.sum(axis=2, keepdims=True))
            + zcrh)
    sig = np.diag(diag.ravel()).astype(complex)
    i, j = IDX_INNER
    y = combos.q / (2.0 * params.g)
    sig[j, i], sig[i, j] = 1j * y, -1j * y
    return sig


def carnot_cop(T_c, T_r, T_h):
    """Carnot coefficient of performance (1/T_r - 1/T_h)/(1/T_c - 1/T_r).

    The efficiency at which the bias Delta vanishes given E_r = E_c + E_h.
    Requires strictly ordered temperatures.
    """
    if not (T_c < T_r < T_h):
        raise ValueError("carnot_cop requires T_c < T_r < T_h strictly")
    return (1.0 / T_r - 1.0 / T_h) / (1.0 / T_c - 1.0 / T_r)


def steady_state(params):
    """Full SteadyReport: rho_f = rho0(kappa=0) + gamma*sigma and friends.

    The steady state does not depend on kappa (the generator is
    kappa-independent; only the initial state is). Q_c = q*gamma*E_c.
    """
    if params.g <= 0:
        raise ValueError("steady_state requires g > 0")
    for p in params.ps:
        if p <= 0:
            raise ValueError("steady_state requires all reset rates positive")
    combos = reset_combos(*params.ps)
    r = thermal_populations(params)
    gamma = gamma_amplitude(params, combos, r)
    rho_diag = thermal_product(r)
    sigma = sigma_matrix(combos, r, params)
    rho_f = rho_diag + gamma * sigma
    if params.T_c < params.T_r < params.T_h:
        eta_car = carnot_cop(params.T_c, params.T_r, params.T_h)
    else:
        eta_car = float("nan")   # degenerate temperatures: no Carnot point
    return SteadyReport(
        delta=bias_delta(r),
        gamma=gamma,
        lam=lambda_weight(combos, r),
        overlap=float(np.diag(rho_diag).real @ np.diag(sigma).real),
        sigma=sigma,
        rho_f=rho_f,
        q_cool=combos.q * gamma * params.E_c,
        eta=params.eta,
        eta_carnot=eta_car,
        is_fridge=bool(gamma > 0),
    )
