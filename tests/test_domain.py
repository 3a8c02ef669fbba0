"""Steady-state invariants and the linearity of chi over the whole valid
parameter domain, and a 50-digit oracle for gamma and Q_c where one rate
dwarfs the others and for Delta near the Carnot point."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qfridge import (CohSubspace, FridgeParams, carnot_cop, qsl_time,
                     steady_state)
from qfridge.dynamics import heat_current_cold, liouvillian_apply
from qfridge.model import thermal_populations
from qfridge.steady import rate_combos


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@st.composite
def _params(draw, coherent=True):
    sub = draw(st.sampled_from([None, CohSubspace.OUTER_DIAG,
                                CohSubspace.INNER_DIAG] if coherent
                               else [None]))
    T_r = draw(_log_uniform(1.0, 100.0))
    return FridgeParams(
        E_c=draw(_log_uniform(1e-2, 10.0)), eta=draw(_log_uniform(1e-2, 10.0)),
        T_c=1.0, T_r=T_r, T_h=T_r * draw(_log_uniform(1.0, 100.0)),
        p_c=draw(_log_uniform(1e-6, 0.1)), p_r=draw(_log_uniform(1e-6, 0.1)),
        p_h=draw(_log_uniform(1e-6, 0.1)), g=draw(_log_uniform(1e-6, 0.1)),
        kappa=draw(st.floats(0.0, 1.0)) if sub else 0.0, coh_subspace=sub)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(_params())
def test_steady_state_invariants_over_the_domain(params):
    rep = steady_state(params)
    rho = rep.rho_f
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-14
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    scale = max(params.E_r, params.q)
    assert np.linalg.norm(liouvillian_apply(params, rho)) <= 1e-14 * scale
    q, (_, q_r, q_h), (_, _, Q_rh) = rate_combos(*params.ps)
    assert params.p_c * (1.0 + q_r + q_h + Q_rh) == pytest.approx(q, rel=1e-14)
    assert rep.lam > 2.0
    # J_c(rho_f) cancels O(1) populations, so its floor is absolute
    assert (abs(heat_current_cold(params, rho) - rep.q_cool)
            <= 1e-13 * params.p_c * params.E_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qrep = qsl_time(params, rep)
    if qrep.tau > 0:
        assert np.sign(qrep.chi) == -np.sign(rep.delta)


def _chi(params):
    return qsl_time(params, steady_state(params)).chi


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(_params(coherent=False), _log_uniform(1e-3, 1e3))
def test_chi_is_linear_in_g_and_in_a_common_rate(params, s):
    # at kappa = 0, chi = sqrt(2) q E_c g |Delta| / tr(rho_diag sigma) up to
    # sign, and tr(rho_diag sigma) depends on the rates only through ratios
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = s * _chi(params)
        assume(not math.isnan(ref))   # Delta = 0 (equal temperatures)
        chi_g = _chi(replace(params, g=s * params.g))
        chi_p = _chi(replace(params, p_c=s * params.p_c, p_r=s * params.p_r,
                             p_h=s * params.p_h))
    assert abs(chi_g - ref) <= 1e-13 * abs(ref)
    assert abs(chi_p - ref) <= 1e-10 * abs(ref)


def _oracle(params):
    """(Delta, gamma, Q_c) at 50 digits from the textbook q - p_i
    denominators, fed the same binary inputs as the library."""
    with mpmath.workdps(50):
        E_c, g = mpmath.mpf(params.E_c), mpmath.mpf(params.g)
        ps = [mpmath.mpf(p) for p in params.ps]
        r = [1 / (1 + mpmath.exp(-mpmath.mpf(E) / mpmath.mpf(T)))
             for E, T in zip(params.energies, params.temperatures)]
        q = sum(ps)
        qs = [p / (q - p) for p in ps]
        pairs = ((0, 1), (0, 2), (1, 2))
        Qs = [(ps[j] * qs[k] + ps[k] * qs[j]) / (q - ps[j] - ps[k])
              for j, k in pairs]
        rp = (r[0], 1 - r[1], r[2])
        lam = 2 + sum(qs) + sum(Q * (rp[j] * rp[k] + (1 - rp[j]) * (1 - rp[k]))
                                for Q, (j, k) in zip(Qs, pairs))
        delta = r[0] * (1 - r[1]) * r[2] - (1 - r[0]) * r[1] * (1 - r[2])
        gamma = -delta / (lam + q ** 2 / (2 * g ** 2))
        return delta, gamma, q * gamma * E_c


@pytest.mark.parametrize("p_small", [1e-20, 1e-17, 1e-14, 1e-10])
def test_gamma_and_q_cool_at_disparate_rates(p_small):
    # q - p_c cancels to a few ulps of p_c when p_r = p_h << p_c
    params = FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                          p_c=0.05, p_r=p_small, p_h=p_small, g=0.05)
    rep = steady_state(params)
    _, gamma, q_cool = _oracle(params)
    assert abs(rep.gamma - gamma) <= 1e-12 * abs(gamma)
    assert abs(rep.q_cool - q_cool) <= 1e-12 * abs(q_cool)


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12, 1e-14])
def test_delta_near_carnot(gap):
    # Delta cancels as eta -> eta_Carnot, so its relative error may grow as
    # eps/gap with gap = 1 - eta/eta_Carnot; its sign must never flip
    eta = carnot_cop(1.0, 2.0, 10.0) * (1.0 - gap)
    params = FridgeParams(E_c=1.0, eta=eta, T_c=1.0, T_r=2.0, T_h=10.0,
                          p_c=0.05, p_r=0.05, p_h=0.05, g=0.05)
    delta = steady_state(params).delta
    exact = float(_oracle(params)[0])
    assert np.sign(delta) == np.sign(exact) == -1.0
    assert abs(delta - exact) <= 16 * np.finfo(float).eps / gap * abs(exact)
