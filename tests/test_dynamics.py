import dataclasses

import numpy as np
import pytest

from qfridge import (CohSubspace, IntegrationError, steady_state,
                     trace_distance)
from qfridge.dynamics import (HERM_DRIFT_TOL, MIN_EIG_TOL, TRACE_DRIFT_TOL,
                              _check_states, convergence_time, default_dt,
                              default_t_end, evolve, heat_current_cold,
                              liouvillian_apply, liouvillian_matrix)
from qfridge.linalg import partial_trace, tensor
from qfridge.model import initial_state, thermal_populations, thermal_qubit
from conftest import random_params


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


def test_trajectory_reports_its_worst_drift(cooling_params):
    traj = evolve(cooling_params)
    tr = np.trace(traj.states, axis1=1, axis2=2)
    adj = traj.states.conj().transpose(0, 2, 1)
    assert traj.max_trace_drift == np.max(np.abs(tr.real - 1.0)
                                          + np.abs(tr.imag))
    assert traj.max_herm_drift == np.max(
        np.linalg.norm(traj.states - adj, axis=(1, 2)) / 2.0)
    assert traj.min_eig == np.linalg.eigvalsh(
        0.5 * (traj.states + adj)).min()
    assert 0.0 <= traj.max_trace_drift <= TRACE_DRIFT_TOL
    assert 0.0 <= traj.max_herm_drift <= HERM_DRIFT_TOL
    assert MIN_EIG_TOL <= traj.min_eig < 1.0


def test_defaults(cooling_params):
    assert default_dt(cooling_params) == pytest.approx(
        0.05 / max(cooling_params.E_r, cooling_params.q))
    assert default_t_end(cooling_params) == pytest.approx(
        50.0 / min(cooling_params.ps))


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
    # positivity is lost to a too-large step, Hermiticity only to round-off
    for second, message in ((not_positive, "negative eigenvalue"
                             r" \S+ at t=2 .*reduce dt"),
                            (also_not_hermitian, "Hermiticity drift"
                             r" \S+ at t=2 .*round-off.*fewer, larger steps")):
        stack = np.array([_E00, second, 2 * _E00])
        with pytest.raises(IntegrationError, match=message):
            _check_states(stack, times)
    _check_states(np.array([_E00, _E00]), times[:2])   # all pass
    stack = np.array([_E00] * 70 + [not_positive])   # past the first slice
    with pytest.raises(IntegrationError, match="eigenvalue .* at t=70 "):
        _check_states(stack, np.arange(71.0))


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
