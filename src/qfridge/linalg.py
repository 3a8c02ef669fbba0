"""Dense complex matrix kernel for three-qubit (dimension 8) objects.

Everything here is plain numpy on small dense arrays: tensor products,
trace products, trace distances, and an SVD-based null-space solver for
the 64x64 vectorized generator (the resets' slots are in dynamics).

Basis convention (inherited by every other module): the computational basis
of the three qubits (c, r, h) is ordered with c most significant, so the
basis index is k = 4c + 2r + h.
"""

import numpy as np

from .errors import DegenerateKernelError


# ----------------------------------------------------------------------
# products and traces
# ----------------------------------------------------------------------

def tensor(A, B):
    """Kronecker product with the left factor most significant.

    Consistent with the k = 4c + 2r + h index convention:
    tensor(X_c, tensor(X_r, X_h)) puts X_c on the most significant qubit.
    """
    return np.kron(A, B)


def trace_product(A, B):
    """tr(AB), no conjugation."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError("trace_product: dimension mismatch")
    # tr(AB) = sum_ij A_ij B_ji
    return np.sum(A * B.T)


def trace_distance(A, B):
    """Trace distance (1/2)||A - B||_1 between two Hermitian matrices.

    Either argument may be a stack (..., n, n); the stacks broadcast and
    the result is the array of distances, one eigvalsh over the stack.
    Two single matrices give a float.
    """
    ev = np.linalg.eigvalsh(np.asarray(A) - np.asarray(B))
    dist = 0.5 * np.abs(ev).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


# ----------------------------------------------------------------------
# kernel of the vectorized generator
# ----------------------------------------------------------------------

def null_space_1d(L, gap_tol=1e-4):
    """One-dimensional kernel of a 64x64 superoperator, as a density matrix.

    SVD-based: the smallest singular value must be <= 1e-10 * s_max and
    the second smallest >= gap_tol * s_max, otherwise the kernel is not
    unambiguously one-dimensional and a degeneracy error is raised.

    Returns the kernel vector reshaped to 8x8, normalized to unit trace and
    Hermitized. Postconditions checked: Hermiticity residual <= 1e-12,
    minimum eigenvalue >= -1e-10.
    """
    L = np.asarray(L, dtype=complex)
    n = L.shape[0]
    d = int(round(np.sqrt(n)))
    if L.shape != (n, n) or d * d != n:
        raise ValueError("null_space_1d: expected a square matrix of square dimension")

    _, s, vh = np.linalg.svd(L)
    smax = s[0] if s[0] > 0 else 1.0
    if s[-1] > 1e-10 * smax:
        raise DegenerateKernelError(
            "no null vector: smallest singular value %.3e > %.3e relative"
            % (s[-1] / smax, 1e-10))
    if s[-2] < gap_tol * smax:
        raise DegenerateKernelError(
            "kernel dimension > 1: second singular value %.3e < %.3e relative"
            % (s[-2] / smax, gap_tol))

    rho = vh[-1].conj().reshape(d, d)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateKernelError("null vector is traceless; not a state")
    rho = rho / tr

    herm_res = np.linalg.norm(rho - rho.conj().T)
    if herm_res > 1e-12:
        raise DegenerateKernelError(
            "null vector not Hermitian after trace normalization (residual %.3e)"
            % herm_res)
    rho = 0.5 * (rho + rho.conj().T)

    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-10:
        raise DegenerateKernelError(
            "null vector has negative eigenvalue %.3e" % min_eig)
    return rho
