"""Analytic steady state of the reset master equation and its scalars:
the rate combinations, the population bias Delta, the weight lambda, the
amplitude gamma, the correction matrix sigma, the overlap
tr(rho_diag sigma), the cooling rate Q_c, and the Carnot coefficient of
performance. steady_columns is the one place where these scalars and the
two 8-entry diagonals are computed, on one point's floats or on a grid's
columns alike; steady_state builds the 8x8 matrices from those
diagonals, and qsl reads the scalars.

The steady state has the closed form rho_f = rho_diag + gamma * sigma
where rho_diag is the thermal product state and sigma is a fixed traceless
Hermitian matrix built from the thermal populations and the reset-rate
combinations: an 8-vector diagonal plus one off-diagonal pair. Both
diagonals are summed entry by entry from the factors r_i and 1 - r_i.
Both gamma's sign convention and the population pairing inside lambda were
pinned against an independent 64x64 null-space solve of the generator
(residuals at machine precision across equal and unequal rate sets); the
unit tests keep that cross-check alive.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import FridgeError
from .model import IDX_INNER, _quotient, _square, thermal_populations


@dataclass(frozen=True)
class SteadyReport:
    """Everything the steady state determines at one parameter point.

    delta is the population bias Delta, gamma the correction amplitude,
    lam the weight lambda and overlap = tr(rho_diag sigma), rho_diag the
    thermal product: the dot product of their diagonals. delta, lam and
    overlap do not depend on g; sigma and rho_f are complex 8x8 arrays.
    q_cool = q gamma E_c is the cooling rate Q_c; is_fridge is gamma > 0.
    The efficiency and its Carnot bound are params.eta and carnot_cop.
    """
    delta: float
    gamma: float
    lam: float
    overlap: float
    sigma: np.ndarray
    rho_f: np.ndarray
    q_cool: float
    is_fridge: bool


def rate_combos(p_c, p_r, p_h):
    """(q, (q_c, q_r, q_h), (Q_cr, Q_ch, Q_rh)) from three positive rates.

    q = p_c + p_r + p_h, q_i = p_i/(q - p_i) and
    Q_jk = (p_j q_k + p_k q_j)/(q - p_j - p_k). Each denominator is taken
    as the sum of the other rates, q - p_i = p_j + p_k and
    q - p_j - p_k = p_i, so none cancels when one rate dwarfs the others.
    Identity behind J_c(rho_f) = q gamma E_c: p_c (1 + q_r + q_h + Q_rh) = q.
    """
    q_c, q_r, q_h = p_c / (p_r + p_h), p_r / (p_c + p_h), p_h / (p_c + p_r)
    return (p_c + p_r + p_h, (q_c, q_r, q_h),
            ((p_c * q_r + p_r * q_c) / p_h,
             (p_c * q_h + p_h * q_c) / p_r,
             (p_r * q_h + p_h * q_r) / p_c))


# at each diagonal index k = 4c + 2r + h, (c, r, h) and the signs of
# sigma's terms (see _diagonals): Zc, Zr, Zh, Z_rh, Z_ch, Z_cr, Z_crh
_Z = {(0, 1, 0): 1.0, (1, 0, 1): -1.0}.get
_SIGNS = [((c, r, h), (1.0 - 2 * c, 2 * r - 1.0, 1.0 - 2 * h,
                       _Z((0, r, h), 0.0) + _Z((1, r, h), 0.0),
                       _Z((c, 0, h), 0.0) + _Z((c, 1, h), 0.0),
                       _Z((c, r, 0), 0.0) + _Z((c, r, 1), 0.0),
                       _Z((c, r, h), 0.0)))
          for c in (0, 1) for r in (0, 1) for h in (0, 1)]


def _diagonals(r, qs, Qs):
    """The diagonals of the thermal product and of sigma as lists over k of
    floats, or of grid columns: the product of the factors r_i or 1 - r_i
    that k's bits pick, and the signed sum of sigma's terms there.

    sigma = Q_rh Zc x tau_r x tau_h + Q_ch tau_c x Zr x tau_h
          + Q_cr tau_c x tau_r x Zh + q_c tau_c x Z_rh
          + q_r (tau_r at the middle slot) Z_ch + q_h Z_cr x tau_h
          + Z_crh + y Y,
    with r the thermal populations, (qs, Qs) from rate_combos,
    y = q/2g, Zc = Zh = diag(1, -1), Zr = diag(-1, 1),
    Z_crh = |010><010| - |101><101|, Z_ij = tr_k Z_crh on its own qubits,
    and Y = i|101><010| - i|010><101|. Every term but the last is a
    diagonal product operator; y Y is sigma's only off-diagonal pair,
    which steady_state adds.
    """
    (q_c, q_r, q_h), (Q_cr, Q_ch, Q_rh) = qs, Qs
    f = [(x, 1.0 - x) for x in r]
    rho, sigma = [], []
    for (c, r_, h), (zc, zr, zh, zrh, zch, zcr, zcrh) in _SIGNS:
        tc, tr, th = f[0][c], f[1][r_], f[2][h]
        rho.append(tc * (tr * th))
        sigma.append(Q_rh * (zc * (tr * th)) + Q_ch * (zr * (tc * th))
                     + Q_cr * (zh * (tc * tr)) + q_c * (tc * zrh)
                     + q_r * (tr * zch) + q_h * (th * zcr) + zcrh)
    return rho, sigma


def carnot_cop(T_c, T_r, T_h):
    """Carnot coefficient of performance (1/T_r - 1/T_h)/(1/T_c - 1/T_r).

    The efficiency at which the bias Delta vanishes given E_r = E_c + E_h.
    Requires strictly ordered temperatures.
    """
    if not (T_c < T_r < T_h):
        raise ValueError("carnot_cop requires T_c < T_r < T_h strictly")
    return (1.0 / T_r - 1.0 / T_h) / (1.0 / T_c - 1.0 / T_r)


# steady_columns' result: SteadyReport's scalars, _diagonals' two lists, and
# the refusals as (message, bad) pairs in the order steady_state checks them
SteadyColumns = namedtuple("SteadyColumns", "delta gamma lam overlap q_cool "
                           "rho_diag sigma_diag refusals")


def steady_columns(p):
    """SteadyColumns of a FridgeParams, or of a grid's columns.

    Delta = r_c rbar_r r_h - rbar_c r_r rbar_h vanishes at global
    equilibrium and at the Carnot point; the machine cools when Delta < 0,
    equivalently gamma = -Delta/(lambda + q^2/(2g^2)) > 0. Q_c = q*gamma*E_c.
    As on Python floats, the arithmetic runs to inf or NaN silently and
    squares round as ** does; tr(rho_diag sigma) adds its terms in the
    order of the strided BLAS dot product of an 8x8 sigma's diagonal.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q, qs, Qs = rate_combos(*p.ps)
        r = r_c, r_r, r_h = thermal_populations(p)
        delta = r_c * (1.0 - r_r) * r_h - (1.0 - r_c) * r_r * (1.0 - r_h)
        # lambda = 2 + sum_i q_i + sum_jk Q_jk Omega_jk over {cr, ch, rh},
        # with Omega_jk = r'_j r'_k + (1-r'_j)(1-r'_k) the same-state
        # (XNOR) combination of the primed populations r' = (r_c, rbar_r,
        # r_h). It is the unique variant under which rho0 + gamma*sigma
        # annihilates the generator: the printed asymmetric form and its
        # symmetrization both fail the residual test by many orders of
        # magnitude (verify's arbiter).
        rp = (r_c, 1.0 - r_r, r_h)
        om = [rp[j] * rp[k] + (1.0 - rp[j]) * (1.0 - rp[k])
              for j, k in ((0, 1), (0, 2), (1, 2))]
        lam = (2.0 + qs[0] + qs[1] + qs[2]
               + Qs[0] * om[0] + Qs[1] * om[1] + Qs[2] * om[2])
        gg, qq = _square(p.g), _square(q)
        den = lam + _quotient(qq, 2.0 * gg, np.inf)   # 2 g^2 may underflow
        gamma = -delta / den
        rho_diag, sigma_diag = _diagonals(r, qs, Qs)
        m = [x * y for x, y in zip(rho_diag, sigma_diag)]
        overlap = (((m[0] + m[2]) + (m[4] + m[6]))
                   + ((m[1] + m[3]) + (m[5] + m[7])))
        q_cool = q * gamma * p.E_c
    return SteadyColumns(delta, gamma, lam, overlap, q_cool, rho_diag,
                         sigma_diag, (
        ("g^2 or q^2 overflows (huge g or rate)",   # where ** raises
         (gg == np.inf) | ((qq == np.inf) & (q < np.inf))),
        ("lambda + q^2/(2g^2) overflows: reset rates too disparate or g "
         "too small", ~np.isfinite(den))))


def steady_state(params):
    """Full SteadyReport: rho_f = rho0(kappa=0) + gamma*sigma and its scalars.

    The scalars and both diagonals are steady_columns'; sigma adds the
    y Y pair, y = q/2g (see _diagonals). The steady state does not depend on
    kappa (the generator is kappa-independent; only the initial state is).
    FridgeError where lambda + q^2/(2g^2) overflows (disparate rates, or a
    tiny g), or where g^2 or q^2 does (a huge g or rate).
    """
    s = steady_columns(params)
    for message, bad in s.refusals:
        if bad:
            raise FridgeError(message)
    gamma, y = float(s.gamma), params.q / (2.0 * params.g)
    sigma = np.diag(s.sigma_diag).astype(complex)
    i, j = IDX_INNER
    sigma[j, i], sigma[i, j] = 1j * y, -1j * y
    return SteadyReport(s.delta, gamma, s.lam, s.overlap, sigma,
                        np.diag(s.rho_diag) + gamma * sigma, float(s.q_cool),
                        gamma > 0)
