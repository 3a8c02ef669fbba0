import numpy as np
import pytest

from qfridge import DegenerateKernelError, trace_distance
from qfridge.linalg import (embed, null_space_1d, partial_trace, tensor,
                            trace_product)


def _random_density(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


# ----------------------------------------------------------------------
# tensor / partial trace
# ----------------------------------------------------------------------

def test_tensor_matches_kron(rng):
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(tensor(A, B), np.kron(A, B), atol=0, rtol=1e-15)


def test_partial_trace_preserves_trace(rng):
    rho = _random_density(rng, 8)
    for which in "crh":
        red = partial_trace(rho, which)
        assert red.shape == (4, 4)
        assert abs(np.trace(red) - 1.0) < 1e-13


def test_partial_trace_product_state(rng):
    qs = [_random_density(rng, 2) for _ in range(3)]
    rho = tensor(qs[0], tensor(qs[1], qs[2]))
    # tracing out one qubit of a product leaves the product of the others
    assert np.allclose(partial_trace(rho, "c"), tensor(qs[1], qs[2]),
                       atol=1e-14)
    assert np.allclose(partial_trace(rho, "r"), tensor(qs[0], qs[2]),
                       atol=1e-14)
    assert np.allclose(partial_trace(rho, "h"), tensor(qs[0], qs[1]),
                       atol=1e-14)


def _embed_by_index(op, rest, which):
    """embed written out element by element from k = 4c + 2r + h."""
    w = "crh".index(which)
    out = np.zeros((8, 8), dtype=complex)
    for k in range(8):
        for l in range(8):
            bk = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
            bl = [(l >> 2) & 1, (l >> 1) & 1, l & 1]
            ok, ol = bk.pop(w), bl.pop(w)
            out[k, l] = op[ok, ol] * rest[2 * bk[0] + bk[1], 2 * bl[0] + bl[1]]
    return out


def test_embed_matches_tensor_and_index_formula(rng):
    # one complex product per element; numpy's kernels may round it
    # differently in the last bit
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rest = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    close = lambda a, b: np.allclose(a, b, rtol=1e-15, atol=1e-15)
    assert close(embed(op, rest, "c"), tensor(op, rest))
    assert close(embed(op, rest, "h"), tensor(rest, op))
    for which in "crh":
        assert close(embed(op, rest, which), _embed_by_index(op, rest, which))


def test_embed_and_partial_trace_on_a_stack(rng):
    ops = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    rests = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    rhos = np.array([_random_density(rng, 8) for _ in range(3)])
    for which in "crh":
        stacked = embed(ops, rests, which)
        assert stacked.shape == (3, 8, 8)
        # a single op broadcasts against a stack of rests
        shared = embed(ops[0], rests, which)
        traced = partial_trace(rhos, which)
        assert traced.shape == (3, 4, 4)
        for n in range(3):
            assert np.array_equal(stacked[n], embed(ops[n], rests[n], which))
            assert np.array_equal(shared[n], embed(ops[0], rests[n], which))
            assert np.array_equal(traced[n], partial_trace(rhos[n], which))


def test_partial_trace_inverts_embed(rng):
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rest = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for which in "crh":
        assert np.allclose(partial_trace(embed(op, rest, which), which),
                           np.trace(op) * rest, atol=1e-14)


def test_embed_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        embed(np.eye(4), np.eye(2), "c")
    with pytest.raises(ValueError):
        embed(np.eye(2), np.eye(4), "x")


def test_partial_trace_rejects_unknown_label(rng):
    rho = _random_density(rng, 8)
    with pytest.raises(ValueError):
        partial_trace(rho, "x")
    with pytest.raises(ValueError):
        partial_trace(rho, 0)


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
