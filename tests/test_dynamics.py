import dataclasses

import numpy as np
import pytest

from qfridge import (CohSubspace, IntegrationError, steady_state,
                     trace_distance)
from qfridge.dynamics import (HERM_DRIFT_TOL, MIN_EIG_TOL, SECTORS,
                              TRACE_DRIFT_TOL, _blocks, _check_states,
                              _sectors, convergence_time, default_dt,
                              default_t_end, evolve, heat_current_cold,
                              liouvillian_apply, liouvillian_matrix)
from qfridge.linalg import partial_trace, tensor
from qfridge.model import initial_state, thermal_populations, thermal_qubit
from conftest import random_params


def _random_density(rng):
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def rk4_step_reference(params, rho, dt):
    """One textbook RK4 step from the elementwise generator (test oracle)."""
    k1 = liouvillian_apply(params, rho)
    k2 = liouvillian_apply(params, rho + 0.5 * dt * k1)
    k3 = liouvillian_apply(params, rho + 0.5 * dt * k2)
    k4 = liouvillian_apply(params, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------

def test_liouvillian_preserves_trace_and_hermiticity(rng):
    for _ in range(5):
        params = random_params(rng)
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = (A + A.conj().T) / 2
        rho /= np.trace(rho).real
        out = liouvillian_apply(params, rho)
        assert abs(np.trace(out)) <= 1e-13
        assert np.allclose(out, out.conj().T, atol=1e-13)


def test_liouvillian_matrix_matches_apply(rng):
    params = random_params(rng)
    L = liouvillian_matrix(params)
    for _ in range(5):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        direct = liouvillian_apply(params, A)
        vec = (L @ A.reshape(64)).reshape(8, 8)
        assert np.abs(direct - vec).max() <= 1e-13
    # a stack of states maps matrix by matrix
    stack = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
    stacked = liouvillian_apply(params, stack)
    for n in range(4):
        assert np.array_equal(stacked[n], liouvillian_apply(params, stack[n]))


def test_liouvillian_never_mixes_the_four_sectors(rng):
    # |a><b| only reaches units with a^b in {d, d^7}: exact zeros between
    # the sectors d = 0..3
    a, b = np.divmod(np.arange(64), 8)
    sector = np.minimum(a ^ b, a ^ b ^ 7)
    for _ in range(5):
        L = liouvillian_matrix(random_params(rng))
        assert np.all(L[sector[:, None] != sector[None, :]] == 0.0)
        assert all(np.any(L[np.ix_(sector == d, sector == d)])
                   for d in range(4))


def test_heat_current_definition(cooling_params):
    # J_c at the steady state equals the closed form q gamma E_c
    rep = steady_state(cooling_params)
    J = heat_current_cold(cooling_params, rep.rho_f)
    assert J == pytest.approx(rep.q_cool, rel=1e-10)


def test_heat_current_matches_trace_definition(rng):
    # J_c = p_c tr[(E_c n_c (x) I)(tau_c (x) tr_c rho - rho)], on matrices
    # that are neither normalized nor Hermitian
    n_c = tensor(np.diag([0.0, 1.0]), np.eye(4))
    for _ in range(5):
        params = random_params(rng)
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        tau_c = thermal_qubit(thermal_populations(params).r_c)
        reset = tensor(tau_c, partial_trace(rho, "c")) - rho
        oracle = params.p_c * params.E_c * np.trace(n_c @ reset).real
        assert heat_current_cold(params, rho) == pytest.approx(
            oracle, rel=1e-13, abs=1e-15)
    # a stack of matrices maps matrix by matrix
    stack = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
    stacked = heat_current_cold(params, stack)
    assert stacked.shape == (3,)
    for n in range(3):
        assert stacked[n] == heat_current_cold(params, stack[n])


# ----------------------------------------------------------------------
# integrator
# ----------------------------------------------------------------------

def test_one_step_matches_textbook_rk4(cooling_params, rng):
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    dt = 0.01
    traj = evolve(cooling_params, rho0=rho, t_end=dt, dt=dt)
    ref = rk4_step_reference(cooling_params, rho, dt)
    assert np.abs(traj.states[-1] - ref).max() <= 1e-14


@pytest.mark.parametrize("t_end, store_every", [
    (0.5, 1),    # 50 steps, each one stored
    (0.7, 7),    # 70 steps, a multiple of store_every
    (0.5, 7),    # 50 = 7 * 7 + 1 steps: the last sample takes R^1
    (0.05, 7),   # 5 steps, fewer than store_every: only R^5
], ids=["every-step", "multiple", "remainder", "short"])
def test_stored_samples_match_a_step_by_step_loop(coherent_params, t_end,
                                                  store_every):
    traj = evolve(coherent_params, t_end=t_end, dt=0.01,
                  store_every=store_every)
    n_steps = round(t_end / 0.01)
    dt = t_end / n_steps
    steps = sorted(set(range(0, n_steps + 1, store_every)) | {n_steps})
    # the last time is t_end itself: n_steps * dt misses 0.7 by one ulp
    assert np.array_equal(traj.times[:-1], np.array(steps[:-1]) * dt)
    assert traj.times[-1] == t_end
    rho = initial_state(coherent_params)
    expected = [rho]
    for n in range(1, n_steps + 1):
        rho = rk4_step_reference(coherent_params, rho, dt)
        if n in steps:
            expected.append(rho)
    assert np.abs(traj.states - np.array(expected)).max() <= 1e-13


def test_a_general_rho0_matches_a_64_dim_step_loop(unequal_rate_params,
                                                   rng):
    # a full-rank rho0 occupies all four sectors; each takes its own R
    rho = _random_density(rng)
    traj = evolve(unequal_rate_params, rho0=rho, t_end=1.5, dt=0.01,
                  store_every=2)
    A = 0.01 * liouvillian_matrix(unequal_rate_params)
    R = np.eye(64, dtype=complex)
    term = np.eye(64, dtype=complex)
    for k in range(1, 5):
        term = term @ A / k
        R = R + term
    vec = rho.ravel()
    expected = [vec]
    for n in range(1, 151):
        vec = R @ vec
        if n % 2 == 0:
            expected.append(vec)
    expected = np.array(expected).reshape(-1, 8, 8)
    assert traj.states.shape == expected.shape
    assert np.abs(traj.states - expected).max() <= 1e-13


def test_trajectory_reports_its_worst_drift(cooling_params):
    traj = evolve(cooling_params)
    tr = np.trace(traj.states, axis1=1, axis2=2)
    adj = traj.states.conj().transpose(0, 2, 1)
    assert traj.max_trace_drift == np.max(np.abs(tr.real - 1.0)
                                          + np.abs(tr.imag))
    assert traj.max_herm_drift == np.max(
        np.linalg.norm(traj.states - adj, axis=(1, 2)) / 2.0)
    # the closed-form 2x2 spectra and eigvalsh are both exact to round-off
    assert abs(traj.min_eig - np.linalg.eigvalsh(
        0.5 * (traj.states + adj)).min()) <= 1e-15
    assert 0.0 <= traj.max_trace_drift <= TRACE_DRIFT_TOL
    assert 0.0 <= traj.max_herm_drift <= HERM_DRIFT_TOL
    assert MIN_EIG_TOL <= traj.min_eig < 1.0


def test_defaults(cooling_params):
    assert default_dt(cooling_params) == pytest.approx(
        0.05 / max(cooling_params.E_r, cooling_params.q, cooling_params.g))
    # a coupling above E_r and q sets the step
    strong = dataclasses.replace(cooling_params, g=30.0)
    assert default_dt(strong) == pytest.approx(0.05 / 30.0)
    assert default_t_end(cooling_params) == pytest.approx(
        50.0 / min(cooling_params.ps))


def test_the_default_step_follows_a_strong_coupling(cooling_params):
    # g = 30 is above E_r = 3 and q: a step of 0.05/max(E_r, q) left the
    # state 7.5e-3 off at t = 5; the oracle is numpy's eig of L
    params = dataclasses.replace(cooling_params, g=30.0)
    traj = evolve(params, t_end=5.0)
    lam, V = np.linalg.eig(liouvillian_matrix(params))
    c = np.linalg.solve(V, initial_state(params).ravel())
    exact = (V @ (np.exp(5.0 * lam) * c)).reshape(8, 8)
    assert np.abs(traj.states[-1] - exact).max() <= 1e-5


def test_long_horizon_round_off_names_the_ways_out(cooling_params):
    # rates of 1e-5 ask for 3e8 steps at the largest allowed dt, so the
    # round-off remedy cannot be "fewer, larger steps" alone
    slow = dataclasses.replace(cooling_params, p_c=1e-5, p_r=1e-5, p_h=1e-5)
    with pytest.raises(IntegrationError,
                       match=r"trace drift .* over 300000000 steps of "
                             r"dt=0\.0167: use a larger dt, up to "
                             r"0\.05/max\(E_r, q, g\) = 0\.0167, "
                             r"or a shorter t_end"):
        evolve(slow)


def test_evolve_rejects_oversized_step(cooling_params):
    with pytest.raises(ValueError):
        evolve(cooling_params, t_end=1.0, dt=10.0)


@pytest.mark.parametrize("grid, message", [
    (dict(t_end=np.inf), "t_end must be positive and finite"),
    (dict(dt=-1.0), "dt must be positive"),   # was one step of length 1
    (dict(dt=0.0), "dt must be positive"),
    (dict(dt=np.nan), "dt must be positive"),
    (dict(store_every=0), "store_every must be a positive integer"),
    (dict(store_every=-3), "store_every must be a positive integer"),
    (dict(store_every=2.5), "store_every must be a positive integer"),
    (dict(store_every=np.nan), "store_every must be a positive integer"),
], ids=["t_end=inf", "dt=-1", "dt=0", "dt=nan", "store_every=0",
        "store_every=-3", "store_every=2.5", "store_every=nan"])
def test_evolve_rejects_a_bad_time_grid(cooling_params, grid, message):
    with pytest.raises(ValueError, match=message):
        evolve(cooling_params, **{"t_end": 1.0, **grid})


def test_evolve_refuses_a_stack_larger_than_memory(cooling_params):
    # 1e12 steps, each one stored: ~1 PB, refused before any allocation
    with pytest.raises(ValueError,
                       match=r"1000000000001 stored samples \(store_every=1\)"):
        evolve(cooling_params, t_end=1e4, dt=1e-8, store_every=1)


def test_evolve_accepts_an_integral_float_store_every(cooling_params):
    a = evolve(cooling_params, t_end=1.0, store_every=2.0)
    b = evolve(cooling_params, t_end=1.0, store_every=2)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


_E00 = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("rho0", [
    np.full((8, 8), np.nan),                     # not finite
    np.eye(8),                                   # trace 8
    np.eye(4) / 4,                               # not 8x8
    _E00 + 0.1j * np.eye(8, k=1),                # not Hermitian
    np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]),      # not positive
])
def test_evolve_rejects_a_rho0_that_is_not_a_state(cooling_params, rho0):
    # bad input is named as such: not an IntegrationError that blames dt,
    # nor numpy's "Eigenvalues did not converge"
    with pytest.raises(ValueError, match="rho0"):
        evolve(cooling_params, rho0=rho0, t_end=1.0)


def test_evolve_accepts_a_state_at_the_drift_thresholds(cooling_params):
    rho0 = steady_state(cooling_params).rho_f * (1 + 5e-10)
    traj = evolve(cooling_params, rho0=rho0, t_end=1.0)
    assert np.array_equal(traj.states[0], rho0)


def test_state_check_names_the_earliest_failing_sample():
    not_positive = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    also_not_hermitian = not_positive + 0.1j * np.eye(8, k=1)
    times = np.array([1.0, 2.0, 3.0])
    # the third sample fails the trace check, which comes first per sample;
    # positivity is lost to a too-large step, Hermiticity only to round-off.
    # The super-diagonal leaves sector 0, so that stack takes eigvalsh.
    for second, sectors, message in (
            (not_positive, (0,), "negative eigenvalue"
             r" \S+ at t=2 .*reduce dt"),
            (also_not_hermitian, (0, 1, 3), "Hermiticity drift"
             r" \S+ at t=2 .*round-off piled up over 300 steps of dt=0.01:"
             r" use a larger dt, up to .* = 0.05, or a shorter t_end")):
        stack = np.array([_E00, second, 2 * _E00])
        assert _sectors(second) == sectors
        with pytest.raises(IntegrationError, match=message):
            _check_states(stack, sectors, times, 300, 0.05)
    _check_states(np.array([_E00, _E00]), (0,), times[:2], 300, 0.05)
    stack = np.array([_E00] * 70 + [not_positive])   # a long stack
    with pytest.raises(IntegrationError, match="eigenvalue .* at t=70 "):
        _check_states(stack, (0,), np.arange(71.0), 7000, 0.05)


def _random_sector_zero_stack(rng, n):
    """Hermitian 8x8 matrices whose only nonzero entries lie on the pairs
    (a, a^7): the diagonal and the anti-diagonal."""
    H = np.zeros((n, 8, 8), dtype=complex)
    a = np.arange(8)
    H[:, a, a] = rng.normal(size=(n, 8))
    z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    H[:, a[:4], 7 - a[:4]] = z
    H[:, 7 - a[:4], a[:4]] = z.conj()
    return H / 4.0


def _closed_form_spectra(H):
    m, h = _blocks(H.reshape(-1, 64)[:, SECTORS[0]])
    return np.sort(np.concatenate((m - h, m + h), axis=1), axis=1)


def test_closed_form_spectra_match_eigvalsh(rng):
    H = _random_sector_zero_stack(rng, 500)
    assert all(_sectors(h) == (0,) for h in H)
    ev = _closed_form_spectra(H)
    assert ev.shape == (500, 8)
    assert np.abs(ev - np.linalg.eigvalsh(H)).max() <= 1e-15
    # exact degeneracies and a block with no coupling
    H[0, 0, 7] = H[0, 7, 0] = 0.0
    H[1, 2, 2] = H[1, 5, 5]
    assert np.abs(_closed_form_spectra(H[:2])
                  - np.linalg.eigvalsh(H[:2])).max() <= 1e-15
    assert np.array_equal(_closed_form_spectra(H[3:4])[0], ev[3])


def test_spectra_off_sector_zero_are_eigvalsh(rng):
    H = _random_sector_zero_stack(rng, 70)
    H[69, 0, 1] = H[69, 1, 0] = 1e-300   # one entry off the pairs
    assert _sectors(H[69]) == (0, 1)
    assert _sectors(_random_density(rng)) == (0, 1, 2, 3)
    # a stack off sector 0 takes its smallest eigenvalue from eigvalsh
    states = np.eye(8) + H / 10
    states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
    assert _check_states(states, (0, 1))[2] == np.linalg.eigvalsh(
        states).min()


def test_trajectory_records_its_sectors_and_distances(cooling_params,
                                                      unequal_rate_params,
                                                      rng):
    # a library-built rho0 lies in sector 0; the full-rank rho0 of
    # test_a_general_rho0_matches_a_64_dim_step_loop (same draw) in all four
    rho_f = steady_state(cooling_params).rho_f
    built = evolve(cooling_params, t_end=5.0, store_every=7)
    assert built.sectors == (0,)
    full = evolve(unequal_rate_params, rho0=_random_density(rng),
                  t_end=1.5, dt=0.01, store_every=2)
    assert full.sectors == (0, 1, 2, 3)
    for traj in (built, full):
        dists = traj.trace_distances(rho_f)
        assert dists.shape == (len(traj),)
        assert np.abs(dists - trace_distance(traj.states, rho_f)).max() \
            <= 1e-15
    # off sector 0 the method is linalg.trace_distance itself
    assert np.array_equal(full.trace_distances(rho_f),
                          trace_distance(full.states, rho_f))


def test_trajectory_endpoints_and_monotonicity(cooling_params):
    traj = evolve(cooling_params, t_end=3.0, dt=0.016, store_every=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(3.0, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj) == len(traj.states) == len(traj.currents)
    # states stay physical along the way
    for state in traj.states[:: max(1, len(traj) // 8)]:
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(state).min() >= -1e-10


def test_steady_state_is_fixed_point_of_integrator(cooling_params):
    rep = steady_state(cooling_params)
    traj = evolve(cooling_params, rho0=rep.rho_f, t_end=5.0)
    assert trace_distance(traj.states[-1], rep.rho_f) <= 1e-12


def test_relaxation_reaches_steady_state(cooling_params):
    rep = steady_state(cooling_params)
    traj = evolve(cooling_params)   # default horizon 50/min(p)
    assert trace_distance(traj.states[-1], rep.rho_f) <= 1e-6
    t_conv = convergence_time(traj, rep.rho_f, eps=1e-3)
    assert 0.0 < t_conv < traj.times[-1]
    # distance is (essentially) monotone decreasing for this relaxation
    d = [trace_distance(s, rep.rho_f) for s in traj.states[::200]]
    assert all(a >= b - 1e-12 for a, b in zip(d, d[1:]))


def test_convergence_order_is_four(cooling_params):
    # halving dt divides the endpoint error by ~16
    params = dataclasses.replace(cooling_params, kappa=1.0,
                                 coh_subspace=CohSubspace.OUTER_DIAG)
    t_end = 10.0
    ref = evolve(params, t_end=t_end, dt=0.0125 / 16).states[-1]
    e1 = np.abs(evolve(params, t_end=t_end, dt=0.0125).states[-1] - ref).max()
    e2 = np.abs(evolve(params, t_end=t_end, dt=0.00625).states[-1] - ref).max()
    assert 12.0 <= e1 / e2 <= 20.0
