import numpy as np
import pytest

from qfridge import CohSubspace, FridgeParams


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def cooling_params():
    """A comfortably cooling point (eta well below eta_Carnot = 0.8)."""
    return FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                        p_c=0.05, p_r=0.05, p_h=0.05, g=0.05)


@pytest.fixture
def heating_params():
    """A heating point: eta = 1 is far above eta_Carnot = 0.125."""
    return FridgeParams(E_c=1.0, eta=1.0, T_c=1.0, T_r=5.0, T_h=10.0,
                        p_c=0.1, p_r=0.1, p_h=0.1, g=0.01)


@pytest.fixture
def unequal_rate_params():
    return FridgeParams(E_c=1.0, eta=0.4, T_c=1.0, T_r=2.0, T_h=10.0,
                        p_c=0.01, p_r=0.02, p_h=0.05, g=0.01)


@pytest.fixture
def coherent_params():
    return FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                        p_c=0.05, p_r=0.05, p_h=0.05, g=0.05,
                        kappa=1.0, coh_subspace=CohSubspace.OUTER_DIAG)


def random_params(rng, kappa=0.0, subspace=None):
    """Draw a valid parameter point; roughly half the draws cool."""
    T_c = float(rng.uniform(0.5, 2.0))
    T_r = T_c * float(rng.uniform(1.0, 4.0))
    T_h = T_r * float(rng.uniform(1.0, 8.0))
    return FridgeParams(
        E_c=float(rng.uniform(0.5, 2.0)),
        eta=float(rng.uniform(0.05, 0.95)),
        T_c=T_c, T_r=T_r, T_h=T_h,
        p_c=float(rng.uniform(0.005, 0.08)),
        p_r=float(rng.uniform(0.005, 0.08)),
        p_h=float(rng.uniform(0.005, 0.08)),
        g=float(rng.uniform(0.005, 0.08)),
        kappa=kappa, coh_subspace=subspace)


# ----------------------------------------------------------------------
# the one-qubit slots of k = 4c + 2r + h, element by element
# ----------------------------------------------------------------------

def _bits(k):
    """The bits [c, r, h] of the basis index k = 4c + 2r + h."""
    return [(k >> 2) & 1, (k >> 1) & 1, k & 1]


def embed_by_index(op, rest, i):
    """The 2x2 op on qubit i (0, 1, 2 for c, r, h) times the 4x4 rest on
    the other two qubits, kept in (c, r, h) order: one product per
    element of the 8x8 result."""
    out = np.zeros((8, 8), dtype=complex)
    for k in range(8):
        for l in range(8):
            bk, bl = _bits(k), _bits(l)
            ok, ol = bk.pop(i), bl.pop(i)
            out[k, l] = op[ok, ol] * rest[2 * bk[0] + bk[1], 2 * bl[0] + bl[1]]
    return out


def partial_trace_by_index(rho, i):
    """Qubit i (0, 1, 2 for c, r, h) traced out of the 8x8 rho: the 4x4 on
    the other two qubits, kept in (c, r, h) order, summed element by
    element over the entries of rho with equal row and column bit i."""
    out = np.zeros((4, 4), dtype=complex)
    for k in range(8):
        for l in range(8):
            bk, bl = _bits(k), _bits(l)
            if bk.pop(i) == bl.pop(i):
                out[2 * bk[0] + bk[1], 2 * bl[0] + bl[1]] += rho[k, l]
    return out
