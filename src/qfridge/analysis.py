"""Parameter sweeps, maximization of chi over the efficiency, and the
high-temperature closed forms (F-function, approximate chi, and the
efficiency-at-maximal-chi root formula with its scaling limit). A sweep
is one qsl.evaluate call for its whole grid and returns that call's
columns; the optimizer makes one call for its scan and one per level of
zoom_max, the one search on grids here.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMaximumError, FridgeError, PoleError
from .model import KNOBS
from .steady import carnot_cop
from .qsl import evaluate


class HighTemperatureValidityWarning(UserWarning):
    """Some x_i = E_i/T_i is not small: the high-T forms lose accuracy."""


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """A one-knob sweep: base parameters, the knob name, and the grid.

    knob is a key of KNOBS: g, p_equal (all three reset rates together),
    eta, kappa.
    """
    base: object
    knob: str
    grid: tuple

    def __post_init__(self):
        if self.knob not in KNOBS:
            raise ValueError(f"unknown sweep knob {self.knob!r}; "
                             f"expected one of {tuple(KNOBS)}")
        grid = tuple(float(v) for v in self.grid)
        if len(grid) == 0:
            raise ValueError("sweep grid is empty")
        diffs = np.diff(grid)
        if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep grid must be strictly monotone")
        if self.knob == "eta":
            eta_c = carnot_cop(self.base.T_c, self.base.T_r, self.base.T_h)
            if min(grid) <= 0.0 or max(grid) > eta_c:
                raise ValueError(
                    f"eta grid must lie in (0, {eta_c:.6g}] (Carnot bound)")
        if self.knob == "kappa":
            if min(grid) < 0.0 or max(grid) > 1.0:
                raise ValueError("kappa grid must lie in [0, 1]")
            if max(grid) > 0.0 and self.base.coh_subspace is None:
                raise ValueError(
                    "kappa sweep with nonzero values needs base.coh_subspace")
        object.__setattr__(self, "grid", grid)


def run_sweep(spec):
    """The qsl.PointColumns of the sweep, one row per grid point in grid
    order, from one call of qsl.evaluate. The knob values are spec.grid;
    a row cools where its gamma > 0.

    Per-point failures (singular rates, undefined chi, ...) become NaN
    rows whose notes start with the error text, followed by the row's
    other notes (perturbative regime, trivial evolution). A warning raised
    during the call passes the active filters and, where they let it
    through, is appended to every row's notes. Fully deterministic: fixed
    grid order.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        pts = evaluate(spec.base, spec.knob, spec.grid)
    if not caught:   # a rebuild per sweep grew a long run's peak RSS
        return pts
    extra = tuple(str(w.message) for w in caught)
    return pts._replace(notes=tuple(notes + extra for notes in pts.notes))


# ----------------------------------------------------------------------
# maximization of chi over the efficiency
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Optimum:
    """Result of maximizing chi over eta inside the cooling window;
    n_evals counts the chi values evaluated (the scan and every level)."""
    eta_star: float
    chi_star: float
    f_value: float
    n_evals: int


_ZOOM = np.linspace(-1.0, 1.0, 65)   # a level's offsets in cells; [32] == 0


def zoom_max(f, xs, ys, tol):
    """(x, y): the largest finite value y that f takes at any point x
    evaluated here, zooming from its values ys on the uniform grid xs.

    Each level evaluates f, which maps a 1-D grid to its values, on 65
    points over the two cells around the best point so far, centred on
    it; the best point moves only to a larger value. The levels stop
    once those two cells span <= tol. A minimum of F is the maximum of -F.
    """
    finite = np.where(np.isfinite(ys), ys, -np.inf)
    i = int(np.argmax(finite))
    x, y, h = float(xs[i]), float(finite[i]), float(xs[1] - xs[0])
    while 2.0 * h > tol:
        grid = x + h * _ZOOM   # grid[32] == x
        vals = f(grid)
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        j = int(np.argmax(vals))
        if vals[j] > y:
            x, y = float(grid[j]), float(vals[j])
        h /= 32.0
    return x, y


def maximize_chi_over_eta(params, bracket=None):
    """Locate the interior maximum of chi(eta) on the bracket.

    A 64-point scan, one qsl.evaluate call, selects the best grid point;
    zoom_max then narrows the two cells around it with one evaluate call
    per 65-point level until they span <= 1e-8. eta_star is the point of
    the largest chi evaluated, so chi_star is never below the scan's
    best. A point that evaluate refuses, at the scan or at any level,
    raises its error, the first in grid order.
    If the scan puts the maximum on a bracket endpoint the function
    raises BoundaryMaximumError with the endpoint values, since a
    boundary argmax means the bracket does not contain the claimed
    interior optimum. The returned f_value is the high-temperature
    F-function at eta_star (NaN at its pole), recorded as a diagnostic
    whatever the temperature regime.

    chi is maximized exactly as defined. On parameter sets where the
    purity gap crosses zero inside the bracket the speed-limit bound
    degenerates (tau -> 0) and chi has a pole there; the search will
    converge onto it and report an extreme chi_star. An interior
    optimum is physically meaningful where the gap keeps one sign
    across the bracket.
    """
    eta_c = carnot_cop(params.T_c, params.T_r, params.T_h)
    if bracket is None:
        bracket = (1e-2 * eta_c, (1.0 - 1e-6) * eta_c)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi < eta_c):
        raise ValueError(f"bracket must satisfy 0 < lo < hi < {eta_c:.6g}")

    n_evals = 0

    def chi(etas):
        nonlocal n_evals
        n_evals += len(etas)
        pts = evaluate(params, "eta", etas)
        error = next(filter(None, pts.errors), None)
        if error is not None:
            raise error
        return pts.chi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        xs = np.linspace(lo, hi, 64)
        raw = chi(xs)
        finite = np.isfinite(raw)
        if not finite.any():
            raise FridgeError("chi is not finite anywhere on the bracket")
        vals = np.where(finite, raw, -np.inf)
        i = int(np.argmax(vals))
        # an argmax at an endpoint, or next to a point where chi is not
        # finite (tau -> 0 near the Carnot edge), cannot be bracketed
        if i == 0 or i == len(xs) - 1 or not (finite[i - 1] and finite[i + 1]):
            raise BoundaryMaximumError(
                "chi has no bracketable interior maximum: best grid point "
                f"eta={xs[i]:.8g} (index {i} of {len(xs)}); "
                f"chi(lo)={raw[0]:.6g}, chi(hi)={raw[-1]:.6g}, "
                f"chi(best)={vals[i]:.6g}")
        eta_star, chi_star = zoom_max(chi, xs, raw, 1e-8)
        try:
            f_val = f_function(eta_star, params)
        except PoleError:
            f_val = float("nan")
    return Optimum(eta_star=eta_star, chi_star=chi_star, f_value=f_val,
                   n_evals=n_evals)


# ----------------------------------------------------------------------
# high-temperature forms
# ----------------------------------------------------------------------

def f_function(eta, params):
    """High-temperature shape function F(eta).

        F = x_c x_r (x_c - x_r) / (x_c - x_r + x_h)

    with x_c = E_c/T_c, x_r = (E_c/T_r)(1 + 1/eta), x_h = E_c/(eta T_h).
    chi_highT is monotone increasing in F, so maximizing chi in the
    high-temperature regime is maximizing F. Independent of the reset
    rates and of g.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x_c = params.E_c / params.T_c
    x_r = (params.E_c / params.T_r) * (1.0 + 1.0 / eta)
    x_h = params.E_c / (eta * params.T_h)
    worst = max(x_c, x_r, x_h)
    if worst > 0.1:
        warnings.warn(
            f"max(E_i/T_i) = {worst:.3g} is not small: high-temperature "
            "forms are inaccurate here", HighTemperatureValidityWarning,
            stacklevel=2)
    den = x_c - x_r + x_h
    if den == 0.0:
        raise PoleError("F undefined: x_c - x_r + x_h = 0 at this eta")
    return x_c * x_r * (x_c - x_r) / den


def chi_highT(eta, params):
    """Leading high-temperature approximation of chi at equal reset rates.

        chi ~= 3 sqrt(2) g p E_c / (3 - F/3)

    Reduces to sqrt(2) g p E_c as all x_i -> 0 (F -> 0). Warns when the
    regime assumption max(x_i) << 1 fails; PoleError where F = 9.
    """
    if not (params.p_c == params.p_r == params.p_h):
        raise ValueError("high-temperature chi requires equal reset rates")
    f_val = f_function(eta, params)
    den = 3.0 - f_val / 3.0
    if den == 0.0:
        raise PoleError("chi_highT undefined: F = 9 at this eta")
    return 3.0 * math.sqrt(2.0) * params.g * params.p_c * params.E_c / den


def eta_opt_asymptotic(T_c, T_r, T_h):
    """(exact root, scaling limit) for the efficiency at maximal chi.

    The exact expression is the quadratic root

        eta_opt = (-T_c^2 T_r + T_c^2 T_h - T_c T_r T_h
                   +/- sqrt(T_c^4 T_r^2 + T_c^3 T_r^2 T_h))
                  / (2 T_c^2 T_r - T_c T_r^2 - T_c^2 T_h
                     + 2 T_c T_r T_h - T_r^2 T_h)

    of which the branch inside the cooling window (0, eta_Carnot) is
    returned; for T_h >> T_r >> T_c with T_c/T_r ~ T_r/T_h it approaches

        eta_limit = (T_c/T_r) (1 - sqrt(T_c/T_h)).

    Raises FridgeError unless exactly one branch lies inside the window,
    which fails for many temperature triples outside that regime.
    """
    if not (0 < T_c < T_r < T_h):
        raise ValueError("temperatures must satisfy 0 < T_c < T_r < T_h")
    num0 = -T_c ** 2 * T_r + T_c ** 2 * T_h - T_c * T_r * T_h
    disc = T_c ** 4 * T_r ** 2 + T_c ** 3 * T_r ** 2 * T_h
    den = (2.0 * T_c ** 2 * T_r - T_c * T_r ** 2 - T_c ** 2 * T_h
           + 2.0 * T_c * T_r * T_h - T_r ** 2 * T_h)
    if den == 0.0:
        raise PoleError("root formula denominator vanishes")
    root = math.sqrt(disc)
    candidates = ((num0 + root) / den, (num0 - root) / den)
    eta_limit = (T_c / T_r) * (1.0 - math.sqrt(T_c / T_h))
    eta_c = carnot_cop(T_c, T_r, T_h)
    inside = [e for e in candidates if 0.0 < e < eta_c]
    if len(inside) != 1:
        raise FridgeError(f"{len(inside)} of the roots {candidates[0]:.6g}, "
                          f"{candidates[1]:.6g} lie inside the cooling "
                          f"window (0, {eta_c:.6g}), not one")
    return inside[0], eta_limit
