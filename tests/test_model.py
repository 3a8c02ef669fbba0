import numpy as np
import pytest

from qfridge import (CohSubspace, FridgeParams, PerturbativeRegimeWarning,
                     initial_state)
from qfridge.model import (IDX_INNER, IDX_OUTER, build_hamiltonian,
                           coherence_matrix, ground_pop, thermal_populations,
                           thermal_product, thermal_qubit)
from conftest import random_params


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

def _base(**kw):
    args = dict(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                p_c=0.05, p_r=0.05, p_h=0.05, g=0.05)
    args.update(kw)
    return FridgeParams(**args)


@pytest.mark.parametrize("bad", [
    dict(E_c=0.0), dict(E_c=-1.0),
    dict(eta=0.0), dict(eta=-0.2),
    dict(T_c=0.0), dict(T_r=0.5), dict(T_h=1.5),   # ordering T_c <= T_r <= T_h
    dict(p_r=-0.1),
    dict(g=-0.01),
    dict(kappa=-0.1), dict(kappa=1.5),
    # non-finite values
    dict(p_c=np.nan), dict(p_r=np.nan), dict(p_h=np.nan), dict(g=np.nan),
    dict(E_c=np.inf), dict(T_h=np.inf), dict(E_c="1"),
    # no steady cooling current without coupling or a reset channel
    dict(p_c=0.0), dict(p_r=0.0), dict(p_h=0.0), dict(g=0.0),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        _base(**bad)


def test_coherence_needs_subspace():
    with pytest.raises(ValueError):
        _base(kappa=0.5)
    _base(kappa=0.5, coh_subspace=CohSubspace.OUTER_DIAG)   # ok
    _base(kappa=0.0)                                        # ok without


def test_perturbative_regime_warning():
    with pytest.warns(PerturbativeRegimeWarning) as record:
        _base(g=0.1)
    assert record[0].filename == __file__   # the caller, not <string>
    with pytest.warns(PerturbativeRegimeWarning):
        _base(p_h=0.1)


def test_energy_bookkeeping():
    p = _base(eta=0.25, E_c=2.0)
    assert p.E_h == pytest.approx(8.0)
    assert p.E_r == pytest.approx(p.E_c + p.E_h)
    assert p.energies == pytest.approx((2.0, 10.0, 8.0))
    assert p.q == pytest.approx(p.p_c + p.p_r + p.p_h)


# ----------------------------------------------------------------------
# thermal populations
# ----------------------------------------------------------------------

def test_ground_pop_limits_and_monotonicity():
    assert ground_pop(1.0, 1e-9) == pytest.approx(1.0)
    assert ground_pop(1.0, 1e9) == pytest.approx(0.5, abs=1e-6)
    Ts = np.linspace(0.1, 50.0, 40)
    vals = [ground_pop(1.0, T) for T in Ts]
    assert all(0.5 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))   # hotter -> closer to 1/2


def test_populations_match_boltzmann(cooling_params):
    r = thermal_populations(cooling_params)
    E_c, E_r, E_h = cooling_params.energies
    assert r.r_c == pytest.approx(1.0 / (1.0 + np.exp(-E_c / 1.0)))
    assert r.r_r == pytest.approx(1.0 / (1.0 + np.exp(-E_r / 2.0)))
    assert r.r_h == pytest.approx(1.0 / (1.0 + np.exp(-E_h / 10.0)))
    assert tuple(r) == (r.r_c, r.r_r, r.r_h)


def test_thermal_qubit_shape():
    tau = thermal_qubit(0.7)
    assert np.allclose(tau, np.diag([0.7, 0.3]))


# ----------------------------------------------------------------------
# Hamiltonian
# ----------------------------------------------------------------------

def test_hamiltonian_structure(cooling_params):
    H = build_hamiltonian(cooling_params)
    V = H - np.diag(np.diag(H))
    assert np.allclose(H, H.conj().T, atol=1e-15)
    # off-diagonal part is exactly the two-element swap block
    expected_V = np.zeros((8, 8))
    expected_V[IDX_INNER[0], IDX_INNER[1]] = cooling_params.g
    expected_V[IDX_INNER[1], IDX_INNER[0]] = cooling_params.g
    assert np.allclose(V, expected_V, atol=1e-15)
    # free part: diagonal of single-qubit energies, degenerate on the
    # swap pair |010>, |101> by the resonance condition E_r = E_c + E_h
    diag = np.real(np.diag(H - V))
    E_c, E_r, E_h = cooling_params.energies
    k = np.arange(8)
    expected = (E_c * (k // 4) + E_r * ((k // 2) % 2) + E_h * (k % 2))
    assert np.allclose(diag, expected, atol=1e-14)
    assert diag[IDX_INNER[0]] == pytest.approx(diag[IDX_INNER[1]])


# ----------------------------------------------------------------------
# initial state and coherence
# ----------------------------------------------------------------------

def test_initial_state_diagonal_is_thermal_product(cooling_params):
    r = thermal_populations(cooling_params)
    prod = np.kron(thermal_qubit(r.r_c),
                   np.kron(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
    rho0 = initial_state(cooling_params)
    assert np.array_equal(thermal_product(r), prod)
    assert np.allclose(rho0, prod, atol=1e-15)
    assert np.trace(rho0) == pytest.approx(1.0)


@pytest.mark.parametrize("sub,idx", [
    (CohSubspace.OUTER_DIAG, IDX_OUTER),
    (CohSubspace.INNER_DIAG, IDX_INNER),
])
def test_coherence_placement_and_amplitude(sub, idx):
    kappa = 0.6
    p = _base(kappa=kappa, coh_subspace=sub)
    r = thermal_populations(p)
    mu = coherence_matrix(p)
    a = kappa * np.sqrt(r.r_c * (1 - r.r_c) * r.r_r * (1 - r.r_r)
                        * r.r_h * (1 - r.r_h))
    expected = np.zeros((8, 8))
    expected[idx[0], idx[1]] = a
    expected[idx[1], idx[0]] = a
    assert np.allclose(mu, expected, atol=1e-15)
    assert np.trace(mu) == pytest.approx(0.0, abs=1e-16)


def test_coherent_initial_state_is_physical(rng):
    for _ in range(10):
        sub = (CohSubspace.OUTER_DIAG if rng.uniform() < 0.5
               else CohSubspace.INNER_DIAG)
        p = random_params(rng, kappa=float(rng.uniform(0.0, 1.0)),
                          subspace=sub)
        rho0 = initial_state(p)
        assert np.allclose(rho0, rho0.conj().T, atol=1e-15)
        assert np.trace(rho0).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho0).min() >= -1e-12


def test_kappa_zero_coherence_vanishes(cooling_params):
    assert np.allclose(coherence_matrix(cooling_params), 0.0, atol=0)
