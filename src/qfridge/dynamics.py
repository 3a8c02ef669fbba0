"""Time-domain integration of the reset master equation.

The equation of motion is linear and autonomous,

    drho/dt = -i[H, rho] + sum_i p_i (tau_i (x) tr_i rho - rho),

so one fixed step of classic 4th-order Runge-Kutta is exactly the degree-4
Taylor polynomial of the step propagator,

    R(dt) = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24,

applied to vec(rho). evolve() therefore precomputes R once and advances the
64-vector with a single matvec per step; a unit test pins this to the
textbook k1..k4 step built from liouvillian_apply to ~1e-15.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .linalg import embed, partial_trace, trace_distance
from .model import (build_hamiltonian, initial_state, thermal_populations,
                    thermal_qubit)

# drift thresholds monitored along every trajectory
TRACE_DRIFT_TOL = 1e-9
HERM_DRIFT_TOL = 1e-10
MIN_EIG_TOL = -1e-8


@dataclass
class Trajectory:
    """Stored samples of one integration run.

    times are strictly increasing and include t = 0 and t_end; states are
    the 8x8 density matrices at those times; currents the cold-bath heat
    current J_c at those times.
    """
    times: np.ndarray
    states: np.ndarray
    currents: np.ndarray

    def __len__(self):
        return len(self.times)


def liouvillian_apply(params, rho):
    """Right-hand side of the master equation at rho, 8x8 or (..., 8, 8).

    Trace-free and Hermiticity-preserving by construction.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError("liouvillian_apply: expected an 8x8 matrix")
    H = build_hamiltonian(params)
    out = -1j * (H @ rho - rho @ H)
    r = thermal_populations(params).as_array()
    for i, label in enumerate("crh"):
        p = params.ps[i]
        if p == 0:
            continue
        reset = embed(thermal_qubit(r[i]), partial_trace(rho, label), label)
        out = out + p * (reset - rho)
    return out


def liouvillian_matrix(params):
    """64x64 matrix L with vec(liouvillian_apply(rho)) = L @ vec(rho).

    Column k is liouvillian_apply of the k-th matrix unit, all 64 as one
    stack.
    """
    units = np.eye(64, dtype=complex).reshape(64, 8, 8)
    return np.ascontiguousarray(
        liouvillian_apply(params, units).reshape(64, 64).T)


def heat_current_cold(params, rho):
    """Cold-bath heat current J_c at state rho.

    J_c = p_c tr[(E_c |1><1|_c (x) I) (tau_c (x) tr_c rho - rho)]: the
    energy flow into the cold qubit through its reset channel. Positive J_c
    means heat is being drawn out of the cold bath (refrigeration). At the
    steady state this equals q*gamma*E_c exactly. Evaluated as its exact
    reduction p_c E_c (rbar_c tr(rho) - tr(rho[4:, 4:])).
    """
    rho = np.asarray(rho, dtype=complex)
    rbar_c = thermal_populations(params).rbar_c
    excess = rbar_c * np.trace(rho) - np.trace(rho[4:, 4:])
    return params.p_c * params.E_c * float(excess.real)


def default_dt(params):
    """Stability-heuristic step size 0.05/max(E_r, q)."""
    return 0.05 / max(params.E_r, params.q)


def default_t_end(params):
    """Convergence horizon 50/min(p_i) (positive rates only)."""
    ps = [p for p in params.ps if p > 0]
    if not ps:
        raise ValueError("default_t_end requires at least one positive reset rate")
    return 50.0 / min(ps)


def evolve(params, rho0=None, t_end=None, dt=None, store_every=None):
    """Fixed-step 4th-order integration from rho0 to t_end.

    rho0 defaults to the machine's initial state (thermal product plus the
    configured coherence); t_end to 50/min(p_i); dt to 0.05/max(E_r, q).
    Samples are stored every store_every steps (default keeps about 4000
    samples); the final state is always stored. Trace, Hermiticity, and
    positivity drift are monitored at the stored samples; exceeding the
    thresholds raises IntegrationError (usually: reduce dt).
    """
    if rho0 is None:
        rho0 = initial_state(params)
    rho0 = np.asarray(rho0, dtype=complex)
    if t_end is None:
        t_end = default_t_end(params)
    if not t_end > 0:
        raise ValueError("evolve: t_end must be positive")
    if dt is None:
        dt = min(default_dt(params), t_end)
    if dt > 0.05 / max(params.E_r, params.q) * (1 + 1e-12):
        raise ValueError("evolve: dt exceeds the stability heuristic 0.05/max(E_r, q)")

    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps   # land exactly on t_end
    if store_every is None:
        store_every = max(1, n_steps // 4000)

    L = liouvillian_matrix(params)
    A = dt * L
    R = np.eye(64, dtype=complex)
    term = np.eye(64, dtype=complex)
    for k in range(1, 5):
        term = term @ A / k
        R = R + term

    times = [0.0]
    states = [rho0.copy()]
    currents = [heat_current_cold(params, rho0)]
    v = rho0.ravel().copy()
    for n in range(1, n_steps + 1):
        v = R @ v
        if n % store_every == 0 or n == n_steps:
            rho = v.reshape(8, 8)
            _check_state(rho, n * dt)
            times.append(n * dt)
            states.append(rho.copy())
            currents.append(heat_current_cold(params, rho))
    return Trajectory(np.array(times), np.array(states), np.array(currents))


def _check_state(rho, t):
    tr_drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    if tr_drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            "trace drift %.3e at t=%.6g exceeds %.0e; reduce dt"
            % (tr_drift, t, TRACE_DRIFT_TOL))
    herm = float(np.linalg.norm(rho - rho.conj().T)) / 2.0
    if herm > HERM_DRIFT_TOL:
        raise IntegrationError(
            "Hermiticity drift %.3e at t=%.6g exceeds %.0e; reduce dt"
            % (herm, t, HERM_DRIFT_TOL))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < MIN_EIG_TOL:
        raise IntegrationError(
            "negative eigenvalue %.3e at t=%.6g beyond %.0e; reduce dt"
            % (min_eig, t, MIN_EIG_TOL))


def rk4_step_reference(params, rho, dt):
    """One textbook RK4 step from the elementwise generator (test oracle)."""
    k1 = liouvillian_apply(params, rho)
    k2 = liouvillian_apply(params, rho + 0.5 * dt * k1)
    k3 = liouvillian_apply(params, rho + 0.5 * dt * k2)
    k4 = liouvillian_apply(params, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def convergence_time(traj, rho_target, eps=1e-3):
    """First stored time with trace distance <= eps from rho_target.

    Returns None when the trajectory never gets that close.
    """
    for t, rho in zip(traj.times, traj.states):
        if trace_distance(rho, rho_target) <= eps:
            return float(t)
    return None


def avg_transient_power(traj):
    """Time-averaged transient cooling acceleration J_c(t_end)/t_end.

    The trajectory must start from a state with J_c(0) = 0 (the machine's
    own initial state), so this equals the time average of dJ_c/dt over
    [0, t_end].
    """
    if len(traj) == 0 or traj.times[-1] <= 0:
        raise ValueError("avg_transient_power: trajectory must end at t > 0")
    return float(traj.currents[-1] / traj.times[-1])
