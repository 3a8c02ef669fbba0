"""Quantum-speed-limit time tau, the cooling figure of merit
chi = Q_c/tau, its closed forms, and the trade-off coefficients.

tau lower-bounds the time to evolve from the initial state rho0 to the
steady state rho_f under the reset generator:

    tau = |tr(rho0 rho_f) - tr(rho0^2)| / ||L[rho0]||_HS.

chi multiplies the steady cooling rate by the maximal evolution speed; it
upper-bounds the time-averaged transient cooling acceleration.

Every quantity here is a scalar formula in the steady scalars and the
coherence amplitude a of rho0 = rho_diag + mu; no 8x8 matrix is built.
The tests check these exact reductions against the direct traces.
evaluate computes them, with Q_c, for a 1-D grid of one knob in one
broadcast pass: each sweep, and each level of the optimizer's scan and
zoom, is one call. qsl_time reads the same formulas on one point's floats.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import FridgeError, PoleError, UndefinedChiError
from .model import (PERTURBATIVE_NOTE, CohSubspace, _quotient, _square,
                    coherence_amplitude, domain_checks, outside_perturbative,
                    thermal_populations)
from .steady import steady_columns, steady_state


class TrivialEvolutionWarning(UserWarning):
    """rho0 is already the steady state: tau = 0 and chi is undefined."""


class NonCoolingWarning(UserWarning):
    """Outside the cooling window: chi carries the (negative) sign of Q_c."""


@dataclass(frozen=True)
class QslReport:
    """Speed-limit quantities at one parameter point.

    tau = purity_gap / generator_norm; chi = Q_c/tau (NaN when tau = 0).
    """
    tau: float
    purity_gap: float
    generator_norm: float
    chi: float


@dataclass(frozen=True)
class TradeoffCoeffs:
    """Coefficients (xi1, xi2, ups1, ups2) of the parametric trade-off

        Q_c = xi1/(ups1 + ups2/g^2),  tau = (xi2/g)/(ups1 + ups2/g^2),

    which eliminate g into tau^2 = (xi2^2/xi1) Q_c - ups1 (xi2/xi1)^2 Q_c^2.
    The parametrization is invariant under joint rescaling of all four
    coefficients; they are normalized here so that ups2 = 1, which is the
    unique normalization under which all three identities hold exactly.
    """
    xi1: float
    xi2: float
    ups1: float
    ups2: float


# ----------------------------------------------------------------------
# the speed limit
# ----------------------------------------------------------------------

_STATIONARY = "initial state is stationary: tau = 0"
_COINCIDENT = "initial state coincides with the steady state: tau = 0"
_ZERO_NORM = "zero generator norm with nonzero purity gap: inconsistent inputs"


def _initial_speed(params, steady):
    """(g^2 Delta^2, a^2, w^2): the pieces of the initial generator action.

    L[rho0] = -i[H, rho0] - q mu, as the resets annihilate mu. The part
    -i[H, rho_diag] is -i g Delta (|101><010| - h.c.); -i[H, mu] vanishes
    on INNER_DIAG (resonant, commuting with the swap) and is +-i a w,
    w = 2 E_r, on the |000><111| pair on OUTER_DIAG (w = 0 on INNER_DIAG).
    Both are imaginary where -q mu is real, so
    ||L[rho0]||^2 = 2 [g^2 Delta^2 + a^2 (q^2 + w^2)],
    tr(M^2) = ||-i[H, rho0]||^2 = 2 [g^2 Delta^2 + a^2 w^2], tr(mu^2) = 2 a^2.
    """
    a = coherence_amplitude(params)
    w = 2.0 * params.E_r if params.coh_subspace is CohSubspace.OUTER_DIAG else 0.0
    return _square(params.g * steady.delta), a * a, w * w


def _speed(params, steady):
    """The signed purity gap, the generator norm, tau and chi from steady's
    scalars, then the masks of qsl_time's zero-norm refusal and of its
    stationary and coinciding starts; floats or grid columns."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gd2, a2, w2 = _initial_speed(params, steady)
        norm = np.sqrt(2.0 * (gd2 + a2 * (_square(params.q) + w2)))
        gap = steady.gamma * steady.overlap - 2.0 * a2
        tau = _quotient(abs(gap), norm, 0.0)
        chi = _quotient(steady.q_cool, tau, np.nan)
    zero = norm == 0.0
    return (gap, norm, tau, chi, zero & (abs(gap) > 1e-14),
            zero & (abs(gap) <= 1e-14), (tau == 0.0) & (norm != 0.0))


def qsl_time(params, steady):
    """QslReport for the machine: tau, its two factors, and chi.

    purity_gap is |tr(rho0 rho_f) - tr(rho0^2)|, evaluated through its
    exact factorization gamma tr(rho_diag sigma) - tr(mu^2) (the cross
    terms tr(mu sigma) and tr(rho_diag mu) vanish identically). The
    factored form matters: at weak coupling the gap is ~ 1e-10 while the
    two traces are ~ 0.1, so the direct difference loses eight digits to
    cancellation. generator_norm is ||L[rho0]||_HS from its exact
    reduction (_initial_speed). No arccos anywhere (avoids domain rounding
    at near-coincident states). chi = Q_c/tau is NaN (with a
    trivial-evolution warning) when the initial state is stationary.
    """
    gap, norm, tau, chi, refused, stationary, coincident = _speed(params,
                                                                  steady)
    if refused:
        raise FridgeError(_ZERO_NORM)
    if stationary or coincident:
        warnings.warn(_STATIONARY if stationary else _COINCIDENT,
                      TrivialEvolutionWarning, stacklevel=2)
    return QslReport(tau=float(tau), purity_gap=float(abs(gap)),
                     generator_norm=float(norm), chi=float(chi))


# evaluate's result: per grid row, Q_c, tau, chi, gamma, Delta, the signed
# purity gap and the generator norm (NaN on a refused row), the exception
# the row's point raises or None, and its notes
PointColumns = namedtuple("PointColumns",
                          "q_cool tau chi gamma delta gap norm errors notes")


def evaluate(base, knob, values):
    """PointColumns of base with the KNOBS knob at each of the 1-D values:
    one broadcast pass, with no FridgeParams, 8x8 matrix or warning per
    point. A row's notes are "error: " and the first check of
    FridgeParams, steady_state and qsl_time its point fails, then the
    perturbative-regime and trivial-evolution warnings the point gives.
    """
    p = base.grid(knob, values)
    s = steady_columns(p)
    gap, norm, tau, chi, zero_norm, stationary, coincident = _speed(p, s)
    n = len(values)
    errors, notes = [None] * n, [()] * n
    checks = ([(ValueError, m, bad) for m, bad in domain_checks(p)]
              + [(FridgeError, m, bad) for m, bad in s.refusals]
              + [(FridgeError, _ZERO_NORM, zero_norm)])
    for error, message, bad in reversed(checks):   # the first one wins
        for i in _rows(bad, n) if bad is not False else ():
            errors[i], notes[i] = error(message), ("error: " + message,)
    for i in _rows(outside_perturbative(p), n):
        if not isinstance(errors[i], ValueError):   # FridgeParams was built
            notes[i] += (PERTURBATIVE_NOTE,)
    for note, mask in ((_STATIONARY, stationary), (_COINCIDENT, coincident)):
        for i in _rows(mask, n):
            if errors[i] is None:
                notes[i] += (note,)
    vals = (s.q_cool, tau, chi, s.gamma, s.delta, gap, norm)
    cols = np.empty((7, n))
    for col, x in zip(cols, vals):
        col[:] = x
    if any(errors):
        cols[:, [i for i, e in enumerate(errors) if e is not None]] = np.nan
    return PointColumns(*cols, tuple(errors), tuple(notes))


def _rows(mask, n):
    """The rows of n where mask, a bool or a bool column, holds."""
    if isinstance(mask, np.ndarray) and mask.ndim:
        return np.flatnonzero(mask)
    return range(n) if mask else ()


def bsocr(params):
    """chi = Q_c/tau for the machine (signed).

    chi > 0 in the cooling window; outside it chi carries the sign of Q_c
    and a warning is emitted. tau = 0 raises UndefinedChiError.
    """
    srep = steady_state(params)
    rep = qsl_time(params, srep)
    if rep.tau == 0.0:
        raise UndefinedChiError("tau = 0: chi undefined at a stationary start")
    if not srep.is_fridge:
        warnings.warn("outside the cooling window: chi <= 0",
                      NonCoolingWarning, stacklevel=2)
    return rep.chi


# ----------------------------------------------------------------------
# closed forms (equal reset rates)
# ----------------------------------------------------------------------

def _require_equal_p(params):
    if not (params.p_c == params.p_r == params.p_h):
        raise ValueError("closed form requires equal reset rates")
    return params.p_c


def bsocr_closed_equal_p(params):
    """Closed-form chi for equal reset rates and no initial coherence.

    Rational function of the excited-state probabilities rbar_i:

        chi = 3 sqrt(2) g p E_c * num / |den|,
        num = rbar_c rbar_h - rbar_r (1 - rbar_c - rbar_h + 2 rbar_c rbar_h),
        den = the cubic polynomial below (equal to tr(rho0 sigma)).

    num equals -Delta identically, so the sign of chi is the sign of -Delta
    (positive exactly in the cooling window). chi/(g p) is independent of
    both g and p: exact linearity in each knob.
    """
    p = _require_equal_p(params)
    if params.kappa != 0:
        raise ValueError("closed form requires kappa = 0")
    r = thermal_populations(params)
    bc, br, bh = (1.0 - x for x in r)
    num = bc * bh - br * (1.0 - bc - bh + 2.0 * bc * bh)
    den = (1.5 - 3.0 * bh
           + br * (-1.0 + 3.0 * bh + bh ** 2)
           + br ** 2 * (5.0 - 9.0 * bh + 4.0 * bh ** 2)
           + bc ** 2 * (br + br ** 2 * (4.0 - 8.0 * bh) + 8.0 * br * bh ** 2
                        - bh * (1.0 + 4.0 * bh))
           - bc * (3.0 - 5.0 * bh + bh ** 2 + 6.0 * br * bh - 3.0 * br
                   + br ** 2 * (9.0 - 16.0 * bh + 8.0 * bh ** 2)))
    if den == 0.0:
        raise UndefinedChiError("closed form denominator vanishes (tau = 0)")
    return 3.0 * math.sqrt(2.0) * params.g * p * params.E_c * num / abs(den)


@dataclass(frozen=True)
class CoherentCoeffs:
    """Coefficients of the two rational closed forms of chi with coherence.

    Reset-rate form (equal rates p, q = 3p):
        chi = 3 p E_c sqrt((n1 p^2 + n2 p + n3)/(d1 p^4 + d2 p^2 + d3)),
    with every coefficient independent of p. Coupling form:
        chi = g E_c sqrt(g^2 (n1g g^2 + n2g g + n3g)
                         /(d1g g^4 + d2g g^2 + d3g)),
    with every coefficient independent of g (the leading g^2 inside the
    root does not factor into the quoted coefficients). n2 and n2g vanish
    identically; they are kept so the quadratic shape is explicit.
    """
    n1: float
    n2: float
    n3: float
    d1: float
    d2: float
    d3: float
    n1g: float
    n2g: float
    n3g: float
    d1g: float
    d2g: float
    d3g: float


def bsocr_coherent_coeffs(params):
    """CoherentCoeffs at the given parameter point (equal reset rates).

    Built from the traces n1 = 9 tr(mu^2), n2 = -6 tr(M mu), n3 = tr(M^2)
    with M = -i[H, rho0_diag + mu], and pi1 = tr(rho0_diag sigma + mu sigma),
    pi2 = tr(rho0_diag mu + mu^2), through their exact reductions: pi1 is
    the steady overlap, pi2 = 2 a^2, n1 = 18 a^2, n2 = 0 and n3 as in
    _initial_speed. Raises PoleError at Delta = 0 where the reset-rate-form
    denominators lose meaning, and FridgeError where g^4 or q^4 overflows
    (g or q above ~1e77), as steady_state does for g^2 and q^2.
    """
    _require_equal_p(params)
    steady = steady_state(params)
    delta, lam, q, g = steady.delta, steady.lam, params.q, params.g
    if delta == 0.0:
        raise PoleError("coefficients undefined where the bias Delta vanishes")
    gd2, a2, w2 = map(float, _initial_speed(params, steady))

    pi1 = steady.overlap
    pi2 = 2.0 * a2
    n1 = 9.0 * pi2
    n2 = 0.0
    n3 = 2.0 * (gd2 + a2 * w2)
    try:   # ** raises where * would give inf
        g4, q4 = g ** 4, q ** 4
    except OverflowError:
        raise FridgeError("g^4 or q^4 overflows (huge g or rate)") from None

    d1 = 81.0 * pi2 ** 2 / (4.0 * g4 * delta ** 2)
    d2 = 18.0 * (pi1 + lam * pi2 / delta) * pi2 / (2.0 * g ** 2 * delta)
    d3 = (pi1 + lam * pi2 / delta) ** 2

    # coupling form: W = tr(M^2) + q^2 pi2 - 2 g^2 Delta^2 is g-independent
    W = 2.0 * a2 * (q ** 2 + w2)   # its exact reduction
    n1g = 8.0 * q ** 2 * delta ** 4
    n2g = 0.0
    n3g = 4.0 * q ** 2 * delta ** 2 * W
    base = delta * pi1 + lam * pi2
    d1g = 4.0 * base ** 2
    d2g = 4.0 * base * q ** 2 * pi2
    d3g = q4 * pi2 ** 2
    return CoherentCoeffs(n1, n2, n3, d1, d2, d3,
                          n1g, n2g, n3g, d1g, d2g, d3g)


def chi_from_p_form(coeffs, p, E_c):
    """Evaluate the reset-rate rational form at rate p (magnitude of chi)."""
    num = coeffs.n1 * p ** 2 + coeffs.n2 * p + coeffs.n3
    den = coeffs.d1 * p ** 4 + coeffs.d2 * p ** 2 + coeffs.d3
    if den <= 0:
        raise PoleError("reset-rate form denominator nonpositive")
    return 3.0 * p * E_c * math.sqrt(num / den)


def chi_from_g_form(coeffs, g, E_c):
    """Evaluate the coupling rational form at strength g (magnitude of chi)."""
    num = g ** 2 * (coeffs.n1g * g ** 2 + coeffs.n2g * g + coeffs.n3g)
    den = coeffs.d1g * g ** 4 + coeffs.d2g * g ** 2 + coeffs.d3g
    if den <= 0:
        raise PoleError("coupling form denominator nonpositive")
    return g * E_c * math.sqrt(num / den)


# ----------------------------------------------------------------------
# trade-off coefficients
# ----------------------------------------------------------------------

def tradeoff_coeffs(params):
    """TradeoffCoeffs for a thermal-product start (kappa = 0).

    Normalized so that ups2 = 1 (see TradeoffCoeffs); with that choice

        Q_c  = xi1/(ups1 + ups2/g^2)
        tau  = (xi2/g)/(ups1 + ups2/g^2)
        tau^2 = (xi2^2/xi1) Q_c - ups1 (xi2/xi1)^2 Q_c^2

    all hold exactly for every g.
    """
    if params.kappa != 0:
        raise ValueError("trade-off coefficients are defined for kappa = 0")
    steady = steady_state(params)
    q = params.q
    return TradeoffCoeffs(
        xi1=-2.0 * params.E_c * steady.delta / q,
        xi2=math.sqrt(2.0) * abs(steady.overlap) / q ** 2,
        ups1=2.0 * steady.lam / q ** 2,
        ups2=1.0,
    )
