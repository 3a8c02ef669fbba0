import numpy as np
import pytest

import dataclasses

from qfridge import (FridgeParams, NoCouplingWarning, SingularRatesError,
                     carnot_cop, steady_state)
from qfridge.dynamics import liouvillian_apply, liouvillian_matrix
from qfridge.linalg import (embed, null_space_1d, partial_trace, tensor,
                            trace_product)
from qfridge.model import IDX_INNER, thermal_populations, thermal_qubit
from qfridge.steady import (bias_delta, gamma_amplitude, lambda_weight,
                            omega_weights, reset_combos, sigma_matrix)
from conftest import random_params


def _sigma_by_embedding(combos, r, params):
    """sigma term by term as 8x8 operators, each product term placed by
    linalg.embed and each two-qubit Z_ij taken as a partial trace of Z_crh:
    the reference for the diagonal-vector sigma_matrix.
    """
    tau_c, tau_r, tau_h = (thermal_qubit(x) for x in (r.r_c, r.r_r, r.r_h))
    z_c = np.diag([1.0, -1.0]).astype(complex)
    z_r = np.diag([-1.0, 1.0]).astype(complex)
    z_h = np.diag([1.0, -1.0]).astype(complex)
    i, j = IDX_INNER
    z_crh = np.zeros((8, 8), dtype=complex)
    z_crh[i, i], z_crh[j, j] = 1.0, -1.0
    y = np.zeros((8, 8), dtype=complex)
    y[j, i], y[i, j] = 1j, -1j
    return (combos.Q_rh * embed(z_c, tensor(tau_r, tau_h), "c")
            + combos.Q_ch * embed(z_r, tensor(tau_c, tau_h), "r")
            + combos.Q_cr * embed(z_h, tensor(tau_c, tau_r), "h")
            + combos.q_c * embed(tau_c, partial_trace(z_crh, "c"), "c")
            + combos.q_r * embed(tau_r, partial_trace(z_crh, "r"), "r")
            + combos.q_h * embed(tau_h, partial_trace(z_crh, "h"), "h")
            + z_crh
            + (combos.q / (2.0 * params.g)) * y)


# ----------------------------------------------------------------------
# rate combinations
# ----------------------------------------------------------------------

def test_reset_combos_formulas():
    pc, pr, ph = 0.01, 0.02, 0.05
    c = reset_combos(pc, pr, ph)
    q = pc + pr + ph
    assert c.q == pytest.approx(q)
    assert c.q_c == pytest.approx(pc / (q - pc))
    assert c.q_r == pytest.approx(pr / (q - pr))
    assert c.q_h == pytest.approx(ph / (q - ph))
    assert c.Q_cr == pytest.approx((pc * c.q_r + pr * c.q_c) / (q - pc - pr))
    assert c.Q_ch == pytest.approx((pc * c.q_h + ph * c.q_c) / (q - pc - ph))
    assert c.Q_rh == pytest.approx((pr * c.q_h + ph * c.q_r) / (q - pr - ph))


def test_reset_combos_heat_current_identity(rng):
    # p_c (1 + q_r + q_h + Q_rh) = q, the contraction behind J_c = q gamma E_c
    for _ in range(20):
        pc, pr, ph = rng.uniform(0.001, 0.2, size=3)
        c = reset_combos(pc, pr, ph)
        assert pc * (1.0 + c.q_r + c.q_h + c.Q_rh) == pytest.approx(
            c.q, rel=1e-12)


def test_zero_rate_rejected_at_solve_time():
    # a vanishing rate passes construction (it is merely nonnegative) but
    # violates the solver precondition that every reset rate be positive
    p = FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                     p_c=0.0, p_r=0.05, p_h=0.05, g=0.05)
    with pytest.raises(ValueError, match="positive"):
        steady_state(p)


def test_reset_combos_singular_cases():
    with pytest.raises(SingularRatesError):
        reset_combos(0.0, 0.0, 0.0)
    with pytest.raises(SingularRatesError):
        reset_combos(0.0, 0.0, 0.05)        # q - p_h = 0
    with pytest.raises(SingularRatesError):
        reset_combos(0.0, 0.02, 0.05)       # q - p_r - p_h = 0
    with pytest.raises(ValueError):
        reset_combos(-0.01, 0.02, 0.05)


# ----------------------------------------------------------------------
# scalar pieces
# ----------------------------------------------------------------------

def test_bias_sign_tracks_operating_regime(cooling_params, heating_params):
    assert bias_delta(thermal_populations(cooling_params)) < 0   # fridge
    assert bias_delta(thermal_populations(heating_params)) > 0   # heater


def test_omega_weights_are_primed_xnor(cooling_params):
    r = thermal_populations(cooling_params)
    rp = np.array([r.r_c, 1.0 - r.r_r, r.r_h])     # prime flips only r
    om = omega_weights(r)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for w, (j, k) in zip(om, pairs):
        assert w == pytest.approx(rp[j] * rp[k]
                                  + (1 - rp[j]) * (1 - rp[k]), rel=1e-14)
        assert 0.0 < w < 1.0


def test_gamma_zero_coupling_warns():
    p = FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                     p_c=0.05, p_r=0.05, p_h=0.05, g=0.0)
    combos = reset_combos(*p.ps)
    r = thermal_populations(p)
    with pytest.warns(NoCouplingWarning):
        assert gamma_amplitude(p, combos, r) == 0.0


def test_carnot_cop():
    assert carnot_cop(1.0, 2.0, 10.0) == pytest.approx(0.8)
    assert carnot_cop(1.0, 5.0, 10.0) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        carnot_cop(2.0, 2.0, 10.0)


# ----------------------------------------------------------------------
# the steady state itself
# ----------------------------------------------------------------------

def _check_point(params):
    rep = steady_state(params)
    # fixed point of the generator, at machine precision
    residual = np.linalg.norm(liouvillian_apply(params, rep.rho_f))
    assert residual <= 1e-12
    # physical state
    assert np.trace(rep.rho_f).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.rho_f, rep.rho_f.conj().T, atol=1e-13)
    assert np.linalg.eigvalsh(rep.rho_f).min() >= -1e-12
    # sigma is traceless; rho_f = thermal product + gamma sigma
    assert abs(np.trace(rep.sigma)) <= 1e-13
    r = thermal_populations(params)
    prod = tensor(thermal_qubit(r.r_c),
                  tensor(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
    assert np.allclose(rep.rho_f, prod + rep.gamma * rep.sigma, atol=1e-14)
    # scalar bookkeeping
    assert rep.q_cool == pytest.approx(params.q * rep.gamma * params.E_c,
                                       rel=1e-12, abs=1e-300)
    assert rep.is_fridge == (rep.gamma > 0) == (rep.delta < 0)
    assert rep.is_fridge == (rep.eta < rep.eta_carnot)
    return rep


def test_sigma_matrix_equals_the_embedded_terms(cooling_params,
                                                heating_params,
                                                unequal_rate_params, rng):
    fixtures = [cooling_params, heating_params, unequal_rate_params]
    for params in fixtures + [random_params(rng) for _ in range(60)]:
        combos = reset_combos(*params.ps)
        r = thermal_populations(params)
        assert np.array_equal(sigma_matrix(combos, r, params),
                              _sigma_by_embedding(combos, r, params))


def test_report_scalars_match_their_definitions(cooling_params, rng):
    # lam is lambda_weight; overlap is the direct trace tr(rho_diag sigma)
    for params in [cooling_params] + [random_params(rng) for _ in range(20)]:
        rep = steady_state(params)
        r = thermal_populations(params)
        assert rep.lam == lambda_weight(reset_combos(*params.ps), r)
        rho_diag = tensor(thermal_qubit(r.r_c),
                          tensor(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
        assert rep.overlap == pytest.approx(
            trace_product(rho_diag, rep.sigma).real, rel=1e-13)


def test_steady_state_fixed_point_and_report(cooling_params, heating_params,
                                             unequal_rate_params):
    rep = _check_point(cooling_params)
    assert rep.is_fridge and rep.gamma > 0 and rep.q_cool > 0
    rep = _check_point(heating_params)
    assert not rep.is_fridge and rep.gamma < 0 and rep.q_cool < 0
    _check_point(unequal_rate_params)


def test_steady_state_random_points(rng):
    for _ in range(20):
        _check_point(random_params(rng))


def test_steady_state_matches_null_space_oracle(rng):
    # independent route: kernel of the vectorized generator
    for _ in range(8):
        params = random_params(rng)
        rep = steady_state(params)
        oracle = null_space_1d(liouvillian_matrix(params))
        assert np.abs(rep.rho_f - oracle).max() <= 1e-9


def test_coherence_element_of_steady_state(cooling_params):
    # the only off-diagonal structure is gamma * (q/2g) * Y on the swap pair
    rep = steady_state(cooling_params)
    expected = rep.gamma * cooling_params.q / (2.0 * cooling_params.g)
    assert rep.rho_f[5, 2] == pytest.approx(1j * expected, abs=1e-12)
    assert rep.rho_f[2, 5] == pytest.approx(-1j * expected, abs=1e-12)
    off = rep.rho_f - np.diag(np.diag(rep.rho_f))
    off[2, 5] = off[5, 2] = 0.0
    assert np.abs(off).max() <= 1e-15


def test_steady_state_independent_of_kappa(cooling_params, coherent_params):
    # the generator does not depend on the initial coherence
    a = steady_state(cooling_params)
    b = steady_state(coherent_params)
    assert np.allclose(a.rho_f, b.rho_f, atol=1e-15)


def test_overlap_closed_form_matches_trace(rng):
    # tr(rho_diag sigma) via the polynomial used by the tau closed forms
    for _ in range(10):
        params = random_params(rng)
        rep = steady_state(params)
        r = thermal_populations(params)
        combos = reset_combos(*params.ps)
        rho_diag = tensor(thermal_qubit(r.r_c),
                          tensor(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
        direct = trace_product(rho_diag, rep.sigma).real
        pi = lambda ri: ri * ri + (1 - ri) * (1 - ri)
        pc, pr, ph = pi(r.r_c), pi(r.r_r), pi(r.r_h)
        closed = (combos.Q_rh * (r.r_c - r.rbar_c) * pr * ph
                  + combos.Q_ch * (r.rbar_r - r.r_r) * pc * ph
                  + combos.Q_cr * (r.r_h - r.rbar_h) * pc * pr
                  + combos.q_c * pc * (r.rbar_r * r.r_h - r.r_r * r.rbar_h)
                  + combos.q_r * pr * (r.r_c * r.r_h - r.rbar_c * r.rbar_h)
                  + combos.q_h * ph * (r.r_c * r.rbar_r - r.rbar_c * r.r_r)
                  + bias_delta(r))
        assert direct == pytest.approx(closed, rel=1e-11, abs=1e-15)


def test_small_g_limit_gamma_vanishes(cooling_params):
    # gamma ~ 2 g^2 (-Delta)/q^2 as g -> 0: quadratic suppression
    gs = [1e-3, 1e-4, 1e-5]
    gammas = [steady_state(dataclasses.replace(cooling_params, g=g)).gamma
              for g in gs]
    for g, gam in zip(gs, gammas):
        assert gam == pytest.approx(
            2.0 * g ** 2 * (-bias_delta(thermal_populations(cooling_params)))
            / cooling_params.q ** 2, rel=1e-3)


def test_lambda_weight_positive(rng):
    for _ in range(10):
        params = random_params(rng)
        lam = lambda_weight(reset_combos(*params.ps),
                            thermal_populations(params))
        assert lam > 2.0
