"""Time-domain integration of the reset master equation.

The equation of motion is linear and autonomous,

    drho/dt = -i[H, rho] + sum_i p_i (tau_i (x) tr_i rho - rho),

with reset i's partial trace and slot as einsum specs in _RESET_SLOTS. One
fixed step of classic 4th-order Runge-Kutta is exactly the degree-4 Taylor
polynomial of the step propagator,

    R(dt) = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24,

applied to vec(rho). The generator never mixes the four 16-dim sectors of
matrix units |a><b| with a^b in {d, d^7}, d = 0..3 (SECTORS): resets keep
a^b and the swap |010><101| flips it by 7. evolve() records the sectors
rho0 occupies and builds, for each, the 16x16 block of L, its R and
P = R^store_every, and fills the stored samples by doubling: with k
samples filled, the next k are the first k times P^k, and P^k is squared
(one R^remainder ends a grid whose step count is not a multiple of
store_every). Every library-built state lies in sector 0, a direct sum
of 2x2 blocks on the pairs (a, a^7): its drift checks and trace distances
to rho_f read the 16 sector-0 numbers of each sample, with closed-form
spectra. Unit tests pin R to the textbook k1..k4 step built from
liouvillian_apply to ~1e-15, and the stored samples to step-by-step loops
of it and of liouvillian_matrix.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .linalg import trace_distance
from .model import (build_hamiltonian, initial_state, thermal_populations,
                    thermal_qubit)

# drift thresholds monitored along every trajectory
TRACE_DRIFT_TOL = 1e-9
HERM_DRIFT_TOL = 1e-10
MIN_EIG_TOL = -1e-8

# bytes per stored sample: a complex 8x8 state and its time
SAMPLE_BYTES = 64 * 16 + 8

# a run's peak memory in SAMPLE_BYTES per stored sample (tracemalloc read
# 1.905 and 4.022 on 6,001 samples): the drift check's temporaries beside
# the stack, (n, 16) on sector 0, the whole (n, 8, 8) stack's Hermitian
# parts and eigvalsh else
PEAK_FACTOR_SECTOR_0, PEAK_FACTOR_OTHER = 2.0, 4.1

# flat indices 8a + b of the matrix units |a><b| in each of the four
# sectors a^b in {d, d^7}, d = 0..3, that the generator never mixes; unit
# 2a + j of sector d is |a><a^d^7j|
SECTORS = np.array([[8 * a + b for a in range(8) for b in (a ^ d, a ^ d ^ 7)]
                    for d in range(4)])

# position in sector 0 of the transpose |a^7j><a| of its unit 2a + j
TRANSPOSE_0 = np.array([2 * (a ^ 7 * j) + j for a in range(8) for j in (0, 1)])

# reset i of qubits c, r, h on the (..., 2, 2, 2, 2, 2, 2) view of rho, row
# bits then column bits of (c, r, h): an einsum that traces qubit i out, and
# one that puts a 2x2 back in its slot beside the other two qubits' bits
_RESET_SLOTS = (("...iabicd->...abcd", "...ad,...bcef->...abcdef"),
                ("...aibcid->...abcd", "...be,...acdf->...abcdef"),
                ("...abicdi->...abcd", "...cf,...abde->...abcdef"))


@dataclass
class Trajectory:
    """Stored samples of one integration run.

    times are strictly increasing and include t = 0 and t_end; states are
    the 8x8 density matrices at those times; currents the cold-bath heat
    current J_c at those times; sectors the d of SECTORS that rho0, and so
    every stored state, occupies. The last three fields are the worst drift
    over the stored states, which the run's checks bound by TRACE_DRIFT_TOL,
    HERM_DRIFT_TOL and MIN_EIG_TOL: how close the run came to failing.
    """
    times: np.ndarray
    states: np.ndarray
    currents: np.ndarray
    sectors: tuple
    max_trace_drift: float
    max_herm_drift: float
    min_eig: float

    def __len__(self):
        return len(self.times)

    def trace_distances(self, target):
        """Trace distance of each stored state to the 8x8 target: with both
        in sector 0, the sum over the 2x2 blocks of max(|m|, h), half of
        |m - h| + |m + h|; otherwise linalg.trace_distance."""
        target = np.asarray(target, dtype=complex)
        if self.sectors == (0,) and _sectors(target) == (0,):
            m, h = _blocks(self.states.reshape(-1, 64)[:, SECTORS[0]]
                           - target.reshape(64)[SECTORS[0]])
            return np.maximum(np.abs(m), h).sum(axis=1)
        return trace_distance(self.states, target)


def _sectors(rho):
    """The sectors d = 0..3 in which the 8x8 rho has a nonzero entry."""
    return tuple(d for d in range(4) if rho.reshape(64)[SECTORS[d]].any())


def _blocks(cols):
    """Spectra m -+ h, h >= 0, of the 2x2 blocks [[x, z*], [z, y]] on the
    pairs (a, 7 - a), a = 0..3, of sector-0 columns cols (n, 16), read from
    the lower triangle as eigvalsh reads it; m and h are (n, 4)."""
    x, y = cols[:, 0:8:2].real, cols[:, 14:6:-2].real
    z = cols[:, 15:7:-2]
    # |z| by a real hypot: np.abs of a complex array rounds differently on
    # strided and contiguous data, which would tie a spectrum to its stack
    return (x + y) / 2, np.hypot((x - y) / 2, np.hypot(z.real, z.imag))


def liouvillian_apply(params, rho):
    """Right-hand side of the master equation at rho, 8x8 or (..., 8, 8).

    Trace-free and Hermiticity-preserving by construction.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError("liouvillian_apply: expected an 8x8 matrix")
    H = build_hamiltonian(params)
    out = -1j * (H @ rho - rho @ H)
    t = rho.reshape(rho.shape[:-2] + (2,) * 6)
    for p, r_i, (traced, put) in zip(params.ps, thermal_populations(params),
                                     _RESET_SLOTS):
        reset = np.einsum(put, thermal_qubit(r_i), np.einsum(traced, t))
        out = out + p * (reset.reshape(rho.shape) - rho)
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
    """Cold-bath heat current J_c at state rho, 8x8 or (..., 8, 8).

    J_c = p_c tr[(E_c |1><1|_c (x) I) (tau_c (x) tr_c rho - rho)]: the
    energy flow into the cold qubit through its reset channel. Positive J_c
    means heat is being drawn out of the cold bath (refrigeration). At the
    steady state this equals q*gamma*E_c exactly. Evaluated as its exact
    reduction p_c E_c (rbar_c tr(rho) - tr(rho[4:, 4:])).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError("heat_current_cold: expected an 8x8 matrix")
    rbar_c = 1.0 - thermal_populations(params).r_c
    excess = (rbar_c * np.trace(rho, axis1=-2, axis2=-1)
              - np.trace(rho[..., 4:, 4:], axis1=-2, axis2=-1))
    return params.p_c * params.E_c * excess.real


def default_dt(params):
    """Stability-heuristic step size 0.05/max(E_r, q, g)."""
    return 0.05 / max(params.E_r, params.q, params.g)


def default_t_end(params):
    """Convergence horizon 50/min(p_i), all rates positive by FridgeParams."""
    return 50.0 / min(params.ps)


def evolve(params, rho0=None, t_end=None, dt=None, store_every=None):
    """Fixed-step 4th-order integration from rho0 to t_end.

    rho0 defaults to the machine's initial state (thermal product plus the
    configured coherence); a rho0 that is not a finite 8x8 state (unit
    trace, Hermitian, positive within the drift thresholds) raises
    ValueError. t_end defaults to 50/min(p_i) and must be positive and
    finite; dt defaults to default_dt(params), its largest allowed value,
    and must be positive, with t_end/dt below 2**63 steps. Samples are
    stored every store_every steps, a positive integer below 2**63
    (default keeps about 4000 samples); the final state
    is always stored, at exactly t_end. A run whose peak memory, the
    stored stack and the drift check's temporaries, exceeds the machine's
    physical memory raises ValueError before any allocation.
    Trace, Hermiticity, and positivity drift are checked at the stored
    samples; exceeding the thresholds raises IntegrationError for the
    earliest failing sample, naming the remedy: for trace or Hermiticity
    drift (round-off piled up over the steps, as R preserves both exactly)
    a larger dt up to default_dt or a shorter t_end, for a negative
    eigenvalue a smaller dt. The Trajectory reports the worst drift
    otherwise.
    """
    if rho0 is None:
        rho0 = initial_state(params)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (8, 8) or not np.all(np.isfinite(rho0)):
        raise ValueError("evolve: rho0 must be a finite 8x8 matrix")
    sectors = _sectors(rho0)
    _check_states(rho0[None], sectors)
    if t_end is None:
        t_end = default_t_end(params)
    if not 0 < t_end < np.inf:
        raise ValueError("evolve: t_end must be positive and finite")
    dt_max = default_dt(params)
    if dt is None:
        dt = min(dt_max, t_end)
    if not dt > 0:
        raise ValueError("evolve: dt must be positive")
    if dt > dt_max * (1 + 1e-12):
        raise ValueError("evolve: dt exceeds the stability heuristic 0.05/max(E_r, q, g)")

    if not t_end / dt < 2.0 ** 63:   # step numbers are int64
        raise ValueError("evolve: t_end/dt = %.3g steps do not fit in a "
                         "64-bit count" % (t_end / dt))
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps   # land exactly on t_end
    if store_every is None:
        store_every = max(1, n_steps // 4000)
    if not (1 <= store_every < 2 ** 63 and float(store_every).is_integer()):
        raise ValueError("evolve: store_every must be a positive integer "
                         "below 2**63")
    store_every = int(store_every)

    n_full, rest = divmod(n_steps, store_every)
    n_samples = n_full + 1 + bool(rest)
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    peak = PEAK_FACTOR_SECTOR_0 if sectors == (0,) else PEAK_FACTOR_OTHER
    if n_samples * SAMPLE_BYTES * peak > phys:
        raise ValueError("evolve: %d stored samples (store_every=%d) need "
                         "more than the machine's %.3g GB of memory"
                         % (n_samples, store_every, phys / 1e9))
    steps = np.arange(n_full + 1) * store_every
    if rest:
        steps = np.append(steps, n_steps)
    states = np.zeros((len(steps), 64), dtype=complex)
    vec0 = rho0.ravel()
    for idx in SECTORS[list(sectors)]:
        units = np.eye(64, dtype=complex)[idx].reshape(16, 8, 8)
        A = dt * liouvillian_apply(params, units).reshape(16, 64)[:, idx].T
        R = term = np.eye(16, dtype=complex)
        for k in range(1, 5):
            term = term @ A / k
            R = R + term
        states[0, idx] = vec0[idx]
        # P = R^(k store_every) takes samples 0..j-1 to samples k..k+j-1:
        # each pass doubles the filled samples
        P, k = np.linalg.matrix_power(R, store_every), 1
        while k <= n_full:
            j = min(k, n_full + 1 - k)
            states[k:k + j, idx] = states[:j, idx] @ P.T
            P, k = P @ P, k + j
        if rest:
            states[-1, idx] = (np.linalg.matrix_power(R, rest)
                               @ states[n_full, idx])
    times = steps * dt
    times[-1] = t_end
    states = states.reshape(-1, 8, 8)
    drift = _check_states(states, sectors, times, n_steps, dt_max)
    return Trajectory(times, states, heat_current_cold(params, states),
                      sectors, *drift)


def _check_states(rhos, sectors, times=None, n_steps=None, dt_max=None):
    """Check the trace, Hermiticity and positivity drift of rhos, a
    (n, 8, 8) stack in the given sectors, raising for the earliest failing
    state with its first failing check: IntegrationError for samples stored
    at the given times of an n_steps grid with step bound dt_max,
    ValueError for an initial state (times None). Returns the largest trace
    and Hermiticity drift and the smallest eigenvalue. A sector-0 stack is
    read on its 16 sector-0 columns, with closed-form 2x2 spectra and no
    wider temporary; any other takes eigvalsh of the Hermitian parts.
    """
    flat = rhos.reshape(-1, 64)
    tr = flat[:, ::9].sum(axis=1)
    tr_drift = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    if sectors == (0,):
        cols = flat[:, SECTORS[0]]
        adj = cols[:, TRANSPOSE_0].conj()
        m, h = _blocks(0.5 * (cols + adj))
        cols -= adj   # rho - rho^H, in place
        herm = np.linalg.norm(cols, axis=1) / 2.0
        min_eig = (m - h).min(axis=1)
    else:
        adj = rhos.conj().transpose(0, 2, 1)
        herm = np.linalg.norm(rhos - adj, axis=(1, 2)) / 2.0
        min_eig = np.linalg.eigvalsh(0.5 * (rhos + adj))[:, 0]
    bad = np.flatnonzero((tr_drift > TRACE_DRIFT_TOL)
                         | (herm > HERM_DRIFT_TOL)
                         | (min_eig < MIN_EIG_TOL))
    if not bad.size:
        return float(tr_drift.max()), float(herm.max()), float(min_eig.min())
    k = bad[0]
    if times is None:
        error, where, roundoff, truncation = ValueError, "in rho0", "", ""
    else:
        error, where = IntegrationError, "at t=%.6g" % times[k]
        roundoff = ("; R preserves it exactly, so this is round-off piled "
                    "up over %d steps of dt=%.3g: use a larger dt, up to "
                    "0.05/max(E_r, q, g) = %.3g, or a shorter t_end"
                    % (n_steps, times[-1] / n_steps, dt_max))
        truncation = "; reduce dt"
    if tr_drift[k] > TRACE_DRIFT_TOL:
        raise error("trace drift %.3e %s exceeds %.0e%s"
                    % (tr_drift[k], where, TRACE_DRIFT_TOL, roundoff))
    if herm[k] > HERM_DRIFT_TOL:
        raise error("Hermiticity drift %.3e %s exceeds %.0e%s"
                    % (herm[k], where, HERM_DRIFT_TOL, roundoff))
    raise error("negative eigenvalue %.3e %s beyond %.0e%s"
                % (min_eig[k], where, MIN_EIG_TOL, truncation))


def convergence_time(traj, rho_target, eps=1e-3):
    """First stored time with trace distance <= eps from rho_target, or
    None when the trajectory never gets that close."""
    hits = np.flatnonzero(traj.trace_distances(rho_target) <= eps)
    return float(traj.times[hits[0]]) if hits.size else None

