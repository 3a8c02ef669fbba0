import numpy as np
import pytest

import dataclasses

from qfridge import FridgeError, FridgeParams, carnot_cop, steady_state
from qfridge.dynamics import liouvillian_apply, liouvillian_matrix
from qfridge.linalg import null_space_1d
from qfridge.model import (IDX_INNER, thermal_populations,
                           thermal_qubit)
from qfridge.steady import rate_combos
from conftest import embed_by_index, partial_trace_by_index, random_params


def _delta(r):
    """Population bias Delta = r_c rbar_r r_h - rbar_c r_r rbar_h."""
    return r.r_c * (1.0 - r.r_r) * r.r_h - (1.0 - r.r_c) * r.r_r * (1.0 - r.r_h)


def _xnor_weights(r):
    """Omega_jk = r'_j r'_k + (1-r'_j)(1-r'_k) over {cr, ch, rh}, r' the
    populations with the middle qubit flipped."""
    rp = (r.r_c, 1.0 - r.r_r, r.r_h)
    return [rp[j] * rp[k] + (1.0 - rp[j]) * (1.0 - rp[k])
            for j, k in ((0, 1), (0, 2), (1, 2))]


def _lambda(params):
    """lambda = 2 + sum_i q_i + sum_jk Q_jk Omega_jk."""
    _, qs, Qs = rate_combos(*params.ps)
    om = _xnor_weights(thermal_populations(params))
    return (2.0 + qs[0] + qs[1] + qs[2]
            + Qs[0] * om[0] + Qs[1] * om[1] + Qs[2] * om[2])


def _sigma_by_embedding(params):
    """sigma term by term as 8x8 operators, each product term placed in
    its qubit's slot and each two-qubit Z_ij taken as a partial trace of
    Z_crh, both element by element: the reference for steady_state's
    sigma, built from its diagonal.
    """
    q, (q_c, q_r, q_h), (Q_cr, Q_ch, Q_rh) = rate_combos(*params.ps)
    tau_c, tau_r, tau_h = (thermal_qubit(x)
                           for x in thermal_populations(params))
    z_c = np.diag([1.0, -1.0]).astype(complex)
    z_r = np.diag([-1.0, 1.0]).astype(complex)
    z_h = np.diag([1.0, -1.0]).astype(complex)
    i, j = IDX_INNER
    z_crh = np.zeros((8, 8), dtype=complex)
    z_crh[i, i], z_crh[j, j] = 1.0, -1.0
    y = np.zeros((8, 8), dtype=complex)
    y[j, i], y[i, j] = 1j, -1j
    return (Q_rh * embed_by_index(z_c, np.kron(tau_r, tau_h), 0)
            + Q_ch * embed_by_index(z_r, np.kron(tau_c, tau_h), 1)
            + Q_cr * embed_by_index(z_h, np.kron(tau_c, tau_r), 2)
            + q_c * embed_by_index(tau_c, partial_trace_by_index(z_crh, 0), 0)
            + q_r * embed_by_index(tau_r, partial_trace_by_index(z_crh, 1), 1)
            + q_h * embed_by_index(tau_h, partial_trace_by_index(z_crh, 2), 2)
            + z_crh
            + (q / (2.0 * params.g)) * y)


# ----------------------------------------------------------------------
# rate combinations
# ----------------------------------------------------------------------

def test_reset_combos_formulas():
    pc, pr, ph = 0.01, 0.02, 0.05
    q, (q_c, q_r, q_h), (Q_cr, Q_ch, Q_rh) = rate_combos(pc, pr, ph)
    assert q == pytest.approx(pc + pr + ph)
    assert q_c == pytest.approx(pc / (q - pc))
    assert q_r == pytest.approx(pr / (q - pr))
    assert q_h == pytest.approx(ph / (q - ph))
    assert Q_cr == pytest.approx((pc * q_r + pr * q_c) / (q - pc - pr))
    assert Q_ch == pytest.approx((pc * q_h + ph * q_c) / (q - pc - ph))
    assert Q_rh == pytest.approx((pr * q_h + ph * q_r) / (q - pr - ph))


def test_reset_combos_heat_current_identity(rng):
    # p_c (1 + q_r + q_h + Q_rh) = q, the contraction behind J_c = q gamma E_c
    for _ in range(20):
        pc, pr, ph = rng.uniform(0.001, 0.2, size=3)
        q, (_, q_r, q_h), (_, _, Q_rh) = rate_combos(pc, pr, ph)
        assert pc * (1.0 + q_r + q_h + Q_rh) == pytest.approx(q, rel=1e-12)


def test_overflowing_rate_ratio_is_refused():
    # Q_rh = (p_r q_h + p_h q_r)/p_c overflows for a subnormal p_c
    p = FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                     p_c=1e-310, p_r=0.05, p_h=0.05, g=0.05)
    with pytest.raises(FridgeError, match="overflows"):
        steady_state(p)


@pytest.mark.parametrize("g", [1e-160, 1e-200])
def test_tiny_g_is_refused(g):
    # q^2/(2g^2) overflows at g = 1e-160, and g**2 underflows to 0 at 1e-200
    p = FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                     p_c=0.05, p_r=0.05, p_h=0.05, g=g)
    with pytest.raises(FridgeError, match="overflows"):
        steady_state(p)


# ----------------------------------------------------------------------
# scalar pieces
# ----------------------------------------------------------------------

def test_bias_sign_tracks_operating_regime(cooling_params, heating_params):
    for params, sign in ((cooling_params, -1.0), (heating_params, 1.0)):
        delta = steady_state(params).delta
        assert delta == _delta(thermal_populations(params))
        assert np.sign(delta) == sign     # Delta < 0: fridge; > 0: heater


def test_omega_weights_are_primed_xnor(cooling_params, rng):
    # lambda weighs each Q_jk by the XNOR of the primed populations; the
    # Omega-variant arbiter in verify shows the other pairings fail
    for params in [cooling_params] + [random_params(rng) for _ in range(20)]:
        assert steady_state(params).lam == _lambda(params)
        assert all(0.0 < w < 1.0
                   for w in _xnor_weights(thermal_populations(params)))


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
    prod = np.kron(thermal_qubit(r.r_c),
                   np.kron(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
    assert np.allclose(rep.rho_f, prod + rep.gamma * rep.sigma, atol=1e-14)
    # scalar bookkeeping
    assert rep.q_cool == pytest.approx(params.q * rep.gamma * params.E_c,
                                       rel=1e-12, abs=1e-300)
    assert rep.is_fridge == (rep.gamma > 0) == (rep.delta < 0)
    assert rep.is_fridge == (
        params.eta < carnot_cop(params.T_c, params.T_r, params.T_h))
    return rep


def test_sigma_matrix_equals_the_embedded_terms(cooling_params,
                                                heating_params,
                                                unequal_rate_params, rng):
    fixtures = [cooling_params, heating_params, unequal_rate_params]
    for params in fixtures + [random_params(rng) for _ in range(60)]:
        assert np.array_equal(steady_state(params).sigma,
                              _sigma_by_embedding(params))


def test_report_scalars_match_their_definitions(cooling_params, rng):
    # gamma = -Delta/(lambda + q^2/2g^2); overlap is the direct trace
    # tr(rho_diag sigma)
    for params in [cooling_params] + [random_params(rng) for _ in range(20)]:
        rep = steady_state(params)
        r = thermal_populations(params)
        assert rep.gamma == pytest.approx(
            -_delta(r) / (_lambda(params)
                          + params.q ** 2 / (2.0 * params.g ** 2)), rel=1e-14)
        rho_diag = np.kron(thermal_qubit(r.r_c),
                           np.kron(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
        assert rep.overlap == pytest.approx(
            np.trace(rho_diag @ rep.sigma).real, rel=1e-13)


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
        _, (q_c, q_r, q_h), (Q_cr, Q_ch, Q_rh) = rate_combos(*params.ps)
        rho_diag = np.kron(thermal_qubit(r.r_c),
                           np.kron(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
        direct = np.trace(rho_diag @ rep.sigma).real
        pi = lambda ri: ri * ri + (1 - ri) * (1 - ri)
        pc, pr, ph = pi(r.r_c), pi(r.r_r), pi(r.r_h)
        rc, rr, rh = r
        bc, br, bh = (1.0 - x for x in r)
        closed = (Q_rh * (rc - bc) * pr * ph
                  + Q_ch * (br - rr) * pc * ph
                  + Q_cr * (rh - bh) * pc * pr
                  + q_c * pc * (br * rh - rr * bh)
                  + q_r * pr * (rc * rh - bc * bh)
                  + q_h * ph * (rc * br - bc * rr)
                  + _delta(r))
        assert direct == pytest.approx(closed, rel=1e-11, abs=1e-15)


def test_small_g_limit_gamma_vanishes(cooling_params):
    # gamma ~ 2 g^2 (-Delta)/q^2 as g -> 0: quadratic suppression
    gs = [1e-3, 1e-4, 1e-5]
    gammas = [steady_state(dataclasses.replace(cooling_params, g=g)).gamma
              for g in gs]
    for g, gam in zip(gs, gammas):
        assert gam == pytest.approx(
            2.0 * g ** 2 * (-_delta(thermal_populations(cooling_params)))
            / cooling_params.q ** 2, rel=1e-3)


def test_lambda_weight_positive(rng):
    for _ in range(10):
        params = random_params(rng)
        assert steady_state(params).lam > 2.0
