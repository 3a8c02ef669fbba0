import numpy as np
import pytest

from qfridge import DegenerateKernelError, trace_distance
from qfridge.linalg import null_space_1d, tensor, trace_product


def _random_density(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


# ----------------------------------------------------------------------
# tensor product
# ----------------------------------------------------------------------

def test_tensor_matches_kron(rng):
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(tensor(A, B), np.kron(A, B), atol=0, rtol=1e-15)


# ----------------------------------------------------------------------
# inner products
# ----------------------------------------------------------------------

def test_trace_product_matches_trace_of_product(rng):
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert trace_product(A, B) == pytest.approx(np.trace(A @ B), rel=1e-12)


# ----------------------------------------------------------------------
# trace distance
# ----------------------------------------------------------------------

def test_trace_distance_basic_properties(rng):
    rho = _random_density(rng, 8)
    sig = _random_density(rng, 8)
    assert trace_distance(rho, rho) < 1e-13
    assert trace_distance(rho, sig) == pytest.approx(
        trace_distance(sig, rho), rel=1e-12)
    assert 0.0 <= trace_distance(rho, sig) <= 1.0 + 1e-12


def test_trace_distance_on_a_stack_is_per_matrix(rng):
    stack = np.array([_random_density(rng, 8) for _ in range(70)])
    sig = _random_density(rng, 8)
    dists = trace_distance(stack, sig)
    assert dists.shape == (70,)
    assert all(dists[k] == trace_distance(stack[k], sig) for k in range(70))
    pairs = trace_distance(stack, stack[::-1])   # both sides stacked
    assert all(pairs[k] == trace_distance(stack[k], stack[69 - k])
               for k in range(70))
    assert isinstance(trace_distance(stack[0], sig), float)


def test_trace_distance_orthogonal_pure_states():
    e0 = np.zeros((8, 8)); e0[0, 0] = 1.0
    e7 = np.zeros((8, 8)); e7[7, 7] = 1.0
    assert trace_distance(e0, e7) == pytest.approx(1.0, abs=1e-13)


# ----------------------------------------------------------------------
# null space extraction
# ----------------------------------------------------------------------

def test_null_space_recovers_known_kernel(rng):
    # build L whose one-dimensional kernel is spanned by a vectorized state
    target = _random_density(rng, 8)
    v = target.reshape(64)
    v = v / np.linalg.norm(v)
    A = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    L = A @ (np.eye(64) - np.outer(v, v.conj()))
    w = null_space_1d(L)
    assert np.allclose(w, target, atol=1e-9)


def test_null_space_rejects_two_dimensional_kernel(rng):
    v1 = np.eye(64)[0]
    v2 = np.eye(64)[1]
    A = rng.normal(size=(64, 64))
    P = np.eye(64) - np.outer(v1, v1) - np.outer(v2, v2)
    with pytest.raises(DegenerateKernelError):
        null_space_1d(A @ P)


def test_null_space_rejects_empty_kernel(rng):
    L = np.diag(np.arange(1.0, 65.0))
    with pytest.raises(DegenerateKernelError):
        null_space_1d(L)
