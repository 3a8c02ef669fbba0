import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qfridge import (BoundaryMaximumError, CohSubspace, FridgeError,
                     FridgeParams, HighTemperatureValidityWarning, PoleError,
                     SweepSpec, bsocr, carnot_cop, chi_highT,
                     eta_opt_asymptotic, f_function, maximize_chi_over_eta,
                     qsl_time, run_sweep, steady_state)
from qfridge import analysis, qsl, steady
from qfridge.qsl import chi_at_eta, evaluate

from conftest import random_params


# ----------------------------------------------------------------------
# sweep specification and execution
# ----------------------------------------------------------------------

def test_sweep_spec_validation(cooling_params):
    ok = SweepSpec(base=cooling_params, knob="g", grid=(0.01, 0.02))
    assert ok.grid == (0.01, 0.02)
    with pytest.raises(ValueError):
        SweepSpec(base=cooling_params, knob="volume", grid=(0.01, 0.02))
    with pytest.raises(ValueError):
        SweepSpec(base=cooling_params, knob="g", grid=())
    SweepSpec(base=cooling_params, knob="g", grid=(0.02, 0.01))  # descending ok
    with pytest.raises(ValueError):   # mixed direction
        SweepSpec(base=cooling_params, knob="g", grid=(0.01, 0.03, 0.02))
    with pytest.raises(ValueError):
        SweepSpec(base=cooling_params, knob="g", grid=(0.01, 0.01))  # strict
    with pytest.raises(ValueError):   # eta grid confined to (0, eta_C]
        SweepSpec(base=cooling_params, knob="eta", grid=(0.5, 0.9))
    with pytest.raises(ValueError):   # kappa sweep needs a subspace
        SweepSpec(base=cooling_params, knob="kappa", grid=(0.0, 0.5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SweepSpec(base=cooling_params, knob="kappa", grid=(0.5, 1.5))


def test_run_sweep_values_match_pointwise(cooling_params):
    grid = (0.01, 0.02, 0.04)
    spec = SweepSpec(base=cooling_params, knob="g", grid=grid)
    pts = run_sweep(spec)
    assert all(len(column) == 3 for column in pts)
    assert spec.grid == pytest.approx(grid)   # the knob values
    for chi, gamma, notes, g in zip(pts.chi, pts.gamma, pts.notes, grid):
        point = dataclasses.replace(cooling_params, g=g)
        assert chi == pytest.approx(bsocr(point), rel=1e-12)
        assert gamma > 0   # is_fridge
        assert notes == ()
    # chi linear in g across the sweep
    assert pts.chi[1] == pytest.approx(2 * pts.chi[0], rel=1e-10)


def test_run_sweep_captures_warnings_and_errors(cooling_params):
    # g = 0.12 leaves the perturbative regime -> warning recorded;
    # p = 1.5 is invalid -> error row with NaN outputs, not an exception
    pts = run_sweep(SweepSpec(base=cooling_params, knob="g",
                              grid=(0.05, 0.12)))
    assert pts.notes[0] == ()
    assert any("perturbative" in w for w in pts.notes[1])

    pts = run_sweep(SweepSpec(base=cooling_params, knob="p_equal",
                              grid=(0.0, 0.05)))
    assert np.isnan(pts.chi[0]) and np.isnan(pts.tau[0])
    assert any(w.startswith("error:") for w in pts.notes[0])
    assert np.isfinite(pts.chi[1])


def test_kappa_sweep_roundtrip(coherent_params):
    pts = run_sweep(SweepSpec(base=coherent_params, knob="kappa",
                              grid=(0.0, 0.5, 1.0)))
    # kappa = 0 reproduces the diagonal-start value regardless of base kappa
    diag = bsocr(dataclasses.replace(coherent_params, kappa=0.0))
    assert pts.chi[0] == pytest.approx(diag, rel=1e-12)
    assert pts.chi[1] > pts.chi[0]   # the boost regime at g = 0.05


def _pointwise_sweep(spec):
    """The sweep one point at a time, as run_sweep did before the
    evaluator: a FridgeParams, steady_state and qsl_time per grid value, a
    refusal caught into an error row, the point's warnings into notes.
    Rows are (knob value, Q_c, tau, chi, gamma, delta, is_fridge, notes)."""
    rows = []
    for value in spec.grid:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                pt = dataclasses.replace(
                    spec.base, **dict.fromkeys(analysis.KNOBS[spec.knob],
                                               value))
                srep = steady_state(pt)
                qrep = qsl_time(pt, srep)
                values = (srep.q_cool, qrep.tau, qrep.chi, srep.gamma,
                          srep.delta, srep.is_fridge)
                notes = ()
            except (FridgeError, ValueError) as exc:
                values = (float("nan"),) * 5 + (False,)
                notes = (f"error: {exc}",)
        rows.append((value, *values, notes + tuple(
            str(w.message) for w in caught)))
    return rows


_BASE = dict(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
             p_c=0.05, p_r=0.05, p_h=0.05, g=0.05)
_OUTER = dict(_BASE, kappa=0.5, coh_subspace=CohSubspace.OUTER_DIAG)


@pytest.mark.parametrize("base, knob, grid", [
    # g <= 0, non-finite, tiny (lambda + q^2/2g^2 overflows), perturbative,
    # huge (g^2 overflows, after the perturbative note's FridgeParams)
    (_BASE, "g", (-np.inf, -0.01, 0.0, 1e-200, 1e-161, 0.05, 0.12, 1e150,
                  1e200, np.inf)),
    (_BASE, "g", (np.nan,)),
    (_BASE, "p_equal", (-0.01, 0.0, 1e-310, 1e-170, 0.05, 0.2, 1e200,
                        1e308)),
    (_BASE, "p_equal", (np.inf,)),
    # E/T >= 37 on every qubit, or on the room qubit: a stationary start
    (dict(_BASE, T_c=0.02, T_r=0.02, T_h=0.02), "g", (0.01, 0.05, 0.2)),
    (dict(_BASE, E_c=40.0), "g", (0.01, 0.05)),
    # heating points
    (dict(_BASE, eta=1.0, T_r=5.0, p_c=0.1, p_r=0.1, p_h=0.1, g=0.01), "g",
     (0.005, 0.01, 0.5)),
    # q^2 underflows: zero generator norm under a nonzero purity gap
    (dict(_BASE, g=1e-161, kappa=1.0, coh_subspace=CohSubspace.INNER_DIAG),
     "p_equal", (1e-170, 1e-100, 0.05)),
    (_OUTER, "kappa", (0.0, 0.5, 1.0)),
    (dict(_OUTER, coh_subspace=CohSubspace.INNER_DIAG), "kappa",
     (0.0, 0.5, 1.0)),
    (_OUTER, "kappa", (np.nan,)),
    # a knob the note or refusal does not depend on: every row has it
    (dict(_BASE, g=0.2), "eta", (0.1, 0.5)),
    (dict(_OUTER, g=1e-200), "kappa", (0.0, 0.5)),
    # E_c/eta overflows: a silent NaN row on the outer subspace
    (dict(_BASE, coh_subspace=CohSubspace.OUTER_DIAG), "eta",
     (1e-310, 1e-200, 1e-100, 0.1, 0.8)),
    (_BASE, "eta", (1e-310, 1e-200, 0.1, 0.8)),
], ids=["g", "g-nan", "p", "p-inf", "cold", "cold-room", "heating",
        "zero-norm", "kappa-outer", "kappa-inner", "kappa-nan",
        "eta-perturbative", "kappa-tiny-g", "eta-outer", "eta"])
def test_run_sweep_matches_the_pointwise_loop(base, knob, grid):
    spec = SweepSpec(base=FridgeParams(**base), knob=knob, grid=grid)
    got, want = run_sweep(spec), _pointwise_sweep(spec)
    assert list(got.notes) == [row[7] for row in want]
    assert (got.gamma > 0).tolist() == [row[6] for row in want]
    np.testing.assert_allclose(
        np.column_stack((spec.grid, got.q_cool, got.tau, got.chi, got.gamma,
                         got.delta)),
        [row[:6] for row in want], rtol=1e-13, atol=0.0)


def test_runtime_warnings_pass_the_library_filters(cooling_params,
                                                   monkeypatch):
    # the sweep and the optimizer filter only the library's UserWarnings:
    # a numpy RuntimeWarning inside the evaluator reaches an error filter
    def evaluate_warns(base, knob, values):
        warnings.warn("overflow encountered", RuntimeWarning)
        return evaluate(base, knob, values)
    monkeypatch.setattr(analysis, "evaluate", evaluate_warns)
    spec = SweepSpec(base=cooling_params, knob="g", grid=(0.01, 0.02))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            run_sweep(spec)
        with pytest.raises(RuntimeWarning, match="overflow"):
            maximize_chi_over_eta(cooling_params, bracket=(0.05, 0.4))
    # under the default filters it is a note on every row, as before
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        pts = run_sweep(spec)
    assert pts.notes == (("overflow encountered",),) * 2


# ----------------------------------------------------------------------
# maximization over the efficiency
# ----------------------------------------------------------------------

def test_maximizer_finds_interior_optimum(unequal_rate_params):
    opt = maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))
    assert opt.eta_star == pytest.approx(0.1910427, abs=5e-6)
    assert opt.chi_star == pytest.approx(1.43886702e-4, rel=1e-6)
    assert np.isfinite(opt.f_value)
    # the optimum beats its neighborhood
    for d in (-0.01, 0.01):
        nearby = dataclasses.replace(unequal_rate_params,
                                     eta=opt.eta_star + d)
        assert bsocr(nearby) < opt.chi_star


def test_maximizer_counts_its_evaluations(unequal_rate_params, monkeypatch):
    # the 64-point scan in one evaluate call, then one point per step of
    # the refinement: complex steps at the ends of the best point's two
    # cells and inside them, and the real chi at the root
    sizes, points = [], []

    def counted(base, knob, values):
        sizes.append(len(values))
        return evaluate(base, knob, values)

    def counted_point(base, eta):
        points.append(eta)
        return chi_at_eta(base, eta)
    monkeypatch.setattr(analysis, "evaluate", counted)
    monkeypatch.setattr(analysis, "chi_at_eta", counted_point)
    opt = maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))
    assert sizes == [64]
    assert opt.n_evals == 64 + len(points) == 76
    xs = np.linspace(0.05, 0.4, 64)
    i = int(np.argmax(evaluate(unequal_rate_params, "eta", xs).chi))
    steps = points[:-1]
    assert all(isinstance(z, complex) and z.imag == analysis._H
               for z in steps)
    assert [z.real for z in steps[:2]] == [xs[i - 1], xs[i + 1]]
    assert all(xs[i - 1] < z.real < xs[i + 1] for z in steps[2:])
    assert points[-1] == opt.eta_star and type(points[-1]) is float


def test_maximizer_eta_invariant_under_rate_scaling(unequal_rate_params):
    # scaling g and all p by the same factor rescales chi but not eta_star
    opt1 = maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))
    scaled = dataclasses.replace(
        unequal_rate_params, g=unequal_rate_params.g / 10,
        p_c=unequal_rate_params.p_c / 10, p_r=unequal_rate_params.p_r / 10,
        p_h=unequal_rate_params.p_h / 10)
    opt2 = maximize_chi_over_eta(scaled, bracket=(0.05, 0.4))
    assert opt2.eta_star == pytest.approx(opt1.eta_star, abs=1e-6)
    assert opt2.chi_star == pytest.approx(opt1.chi_star / 100, rel=1e-8)


def test_maximizer_agrees_with_fine_grid(unequal_rate_params):
    opt = maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))
    etas = np.linspace(0.05, 0.4, 256)
    chis = [bsocr(dataclasses.replace(unequal_rate_params, eta=float(e)))
            for e in etas]
    assert opt.eta_star == pytest.approx(etas[int(np.argmax(chis))],
                                         abs=(0.4 - 0.05) / 255)
    assert opt.chi_star >= max(chis) - 1e-12


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_params(np.random.default_rng(seed))))
@example(FridgeParams(E_c=1.0, eta=0.4, T_c=1.0, T_r=2.0, T_h=10.0,
                      p_c=0.01, p_r=0.02, p_h=0.05, g=0.01))
@example(random_params(np.random.default_rng(57457505)))   # T_r ~ T_h
def test_maximizer_returns_an_evaluated_point_near_the_dense_argmax(params):
    eta_c = carnot_cop(params.T_c, params.T_r, params.T_h)
    lo, hi = 1e-2 * eta_c, (1.0 - 1e-6) * eta_c
    dense = np.linspace(lo, hi, 4097)
    pts = evaluate(params, "eta", dense)
    if np.isnan(pts.chi).all():   # every start stationary: no maximum
        with pytest.raises(FridgeError,
                           match="chi is not finite anywhere on the bracket"):
            maximize_chi_over_eta(params)
        return
    j = int(np.nanargmax(pts.chi))
    # an interior maximum, and no pole of chi (a purity-gap zero) to chase
    assume(0 < j < len(dense) - 1)
    assume(np.all(pts.gap > 0) or np.all(pts.gap < 0))
    opt = maximize_chi_over_eta(params)
    scan = evaluate(params, "eta", np.linspace(lo, hi, 64)).chi
    assert opt.chi_star >= np.nanmax(scan)
    assert opt.chi_star == evaluate(params, "eta", [opt.eta_star]).chi[0]
    assert abs(opt.eta_star - dense[j]) <= dense[1] - dense[0]


@pytest.mark.parametrize("seed", [647, 838, 872, 1382])
def test_maximizer_searches_an_end_cell_whose_slope_points_inward(seed):
    # chi peaks inside the scan's first cell, so the scan's best is its
    # lower end; dchi/deta > 0 there, and the search of that cell lands
    # within one dense cell of the dense argmax
    params = random_params(np.random.default_rng(seed))
    eta_c = carnot_cop(params.T_c, params.T_r, params.T_h)
    lo, hi = 1e-2 * eta_c, (1.0 - 1e-6) * eta_c
    xs, dense = np.linspace(lo, hi, 64), np.linspace(lo, hi, 4097)
    scan = evaluate(params, "eta", xs).chi
    j = int(np.nanargmax(evaluate(params, "eta", dense).chi))
    assert int(np.nanargmax(scan)) == 0 and 0 < j and dense[j] < xs[1]
    opt = maximize_chi_over_eta(params)
    assert abs(opt.eta_star - dense[j]) <= dense[1] - dense[0]
    assert opt.chi_star > scan[0]
    assert opt.chi_star == evaluate(params, "eta", [opt.eta_star]).chi[0]


def test_maximizer_pins_the_lock_sets_root(unequal_rate_params, monkeypatch):
    # the refinement's root is fixed to a few ulps, and the complex step
    # leaves no trace of h in it
    root = 0.19104269035623886
    for bracket in ((0.05, 0.4), None):
        opt = maximize_chi_over_eta(unequal_rate_params, bracket=bracket)
        assert abs(opt.eta_star - root) <= 4.0 * math.ulp(root)
        monkeypatch.setattr(analysis, "_H", 1e-20)
        again = maximize_chi_over_eta(unequal_rate_params, bracket=bracket)
        monkeypatch.undo()
        assert (again.eta_star, again.chi_star) == (opt.eta_star,
                                                    opt.chi_star)


@pytest.mark.parametrize("subspace", [None, CohSubspace.OUTER_DIAG,
                                      CohSubspace.INNER_DIAG])
def test_complex_step_slope_matches_central_differences(subspace):
    # chi(eta + i h).imag / h against central differences of evaluate's
    # real chi; a coherent start's gap is a numpy complex128 and takes
    # the analytic |gap| on either sign of its real part. A difference's
    # error falls with its step d as d^2, then rises as round-off / d
    # (chi's gap cancels to 1e-5 of its terms here), so the closest of
    # five steps is the check
    rng = np.random.default_rng(30)
    signs = set()
    for _ in range(40):
        kappa = 0.0 if subspace is None else float(rng.uniform(0.1, 1.0))
        params = random_params(rng, kappa=kappa, subspace=subspace)
        eta_c = carnot_cop(params.T_c, params.T_r, params.T_h)
        eta = float(rng.uniform(0.05, 0.95)) * eta_c
        steps = eta * np.array([1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
        pts = evaluate(params, "eta", np.concatenate(
            (eta - steps, [eta], (eta + steps)[::-1])))
        if not (np.all(pts.gap > 0) or np.all(pts.gap < 0)):
            continue   # a pole of chi between the difference points
        signs.add(bool(pts.gap[5] > 0))
        step = object.__new__(FridgeParams)
        step.__dict__.update(vars(params), eta=complex(eta, analysis._H))
        gap = qsl._speed(step, steady.steady_columns(step))[0]
        assert type(gap) is (complex if subspace is None else np.complex128)
        z = chi_at_eta(params, complex(eta, analysis._H))
        assert z.real == pytest.approx(pts.chi[5], rel=1e-14)
        central = (pts.chi[6:][::-1] - pts.chi[:5]) / (2.0 * steps)
        scale = abs(z.imag / analysis._H) + abs(pts.chi[5]) / eta
        assert min(abs(z.imag / analysis._H - central)) <= 1e-6 * scale
    assert signs == {True, False}


def test_sign_change_pins_a_root_and_bisects_near_a_pole():
    # Illinois steps on a smooth sign change; through a pole of chi its
    # slope flips as -sign(x - c)/(x - c)^2, the secant stalls and the
    # bisections bound the steps (151 without them)
    def pole(x):
        d = x - 0.3
        return 0.0 if d == 0.0 else -math.copysign(1.0, d) / d ** 2
    for f, most in ((lambda x: (0.3 - x) * (1.0 + x * x), 10), (pole, 110)):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        x = analysis._sign_change(counted, 0.0, f(0.0), 1.0, f(1.0))
        assert abs(x - 0.3) <= 2.0 * math.ulp(0.3)
        assert all(0.0 < c < 1.0 for c in calls) and len(calls) <= most


def test_zoom_max_locates_peak():
    spans = []

    def f(t):
        spans.append(t[-1] - t[0])
        return -(t - 0.3) ** 2
    xs = np.linspace(0.0, 1.0, 64)
    x, y = analysis.zoom_max(f, xs, f(xs), 1e-10)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert y == -(x - 0.3) ** 2
    # each level spans the two cells around the best point, 1/32 of the
    # last; the levels stop once the next two cells span <= tol
    assert spans[1] == pytest.approx(2.0 / 63.0)
    assert spans[-1] / 32.0 <= 1e-10 < spans[-2] / 32.0
    # a minimum is the maximum of the negated function; a non-finite
    # value never wins
    def g(t):
        return np.where(t < -2.1, np.nan, -abs(t + 2.0))
    xs = np.linspace(-5.0, 5.0, 64)
    x, _ = analysis.zoom_max(g, xs, g(xs), 1e-10)
    assert x == pytest.approx(-2.0, abs=1e-9)


def test_maximizer_keeps_a_spike_at_a_scan_point(cooling_params,
                                                 monkeypatch):
    # chi = 1 except for a 1e-6-wide spike of 2 at one scan point: the
    # zoom re-evaluates that point at the centre of every level and moves
    # only to a larger chi, so the spike stays the answer
    lo, hi = 0.05, 0.4
    spike = float(np.linspace(lo, hi, 64)[20])

    def spiked(base, knob, values):
        chi = np.where(abs(np.asarray(values) - spike) < 5e-7, 2.0, 1.0)
        return SimpleNamespace(chi=chi, errors=(None,) * chi.size)
    monkeypatch.setattr(analysis, "evaluate", spiked)
    opt = maximize_chi_over_eta(cooling_params, bracket=(lo, hi))
    assert opt.chi_star == 2.0
    assert opt.eta_star == spike


def test_maximizer_raises_the_first_failing_scan_point(cooling_params,
                                                       unequal_rate_params,
                                                       monkeypatch):
    # every scan point refused: the error of the first
    with pytest.raises(FridgeError, match="lambda"):
        maximize_chi_over_eta(dataclasses.replace(cooling_params, g=1e-200))

    # two refused points of the scan: the lower one's error, of its own
    # type
    def refusing(base, knob, values):
        pts = evaluate(base, knob, values)
        errors = list(pts.errors)
        errors[40], errors[20] = FridgeError("at 40"), ValueError("at 20")
        return pts._replace(errors=tuple(errors))
    monkeypatch.setattr(analysis, "evaluate", refusing)
    with pytest.raises(ValueError, match="at 20"):
        maximize_chi_over_eta(cooling_params, bracket=(0.05, 0.4))
    monkeypatch.undo()

    # a refused point of the refinement raises its own error: a slope at
    # the cells' ends, one inside them, or the real chi at the root
    for refused in (0, 1, 4, -1):
        points = []

        def counting(base, eta):
            points.append(eta)
            return chi_at_eta(base, eta)
        monkeypatch.setattr(analysis, "chi_at_eta", counting)
        maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))
        at = points[refused]

        def refusing_point(base, eta):
            if eta == at:
                raise ValueError(f"at {eta}")
            return chi_at_eta(base, eta)
        monkeypatch.setattr(analysis, "chi_at_eta", refusing_point)
        with pytest.raises(ValueError, match=f"at {re.escape(str(at))}"):
            maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))


def test_maximizer_boundary_spike_raises():
    # in the scaled-down three-decade regime chi climbs all the way to the
    # Carnot edge; there is no interior maximum to bracket
    params = FridgeParams(E_c=1e-3, eta=0.029, T_c=1.0, T_r=30.0, T_h=900.0,
                          p_c=1e-3, p_r=1e-3, p_h=1e-3, g=1e-4)
    with pytest.raises(BoundaryMaximumError):
        maximize_chi_over_eta(params)


def test_maximizer_rejects_bad_bracket(cooling_params):
    with pytest.raises(ValueError):
        maximize_chi_over_eta(cooling_params, bracket=(0.4, 0.05))
    with pytest.raises(ValueError):
        maximize_chi_over_eta(cooling_params, bracket=(0.05, 0.9))  # > eta_C


# ----------------------------------------------------------------------
# high-temperature forms
# ----------------------------------------------------------------------

def _theorem_point(eta=0.029):
    return FridgeParams(E_c=1e-3, eta=eta, T_c=1.0, T_r=30.0, T_h=900.0,
                        p_c=1e-3, p_r=1e-3, p_h=1e-3, g=1e-4)


def test_f_function_is_rate_independent():
    p1 = _theorem_point()
    p2 = dataclasses.replace(p1, p_c=0.004, p_r=0.007, p_h=0.001)
    assert f_function(0.03, p1) == pytest.approx(f_function(0.03, p2),
                                                 rel=1e-14)


def test_f_function_explicit_value():
    params = _theorem_point()
    eta = 0.03
    x_c = params.E_c / params.T_c
    x_r = (params.E_c / params.T_r) * (1.0 + 1.0 / eta)
    x_h = params.E_c / (eta * params.T_h)
    expected = x_c * x_r * (x_c - x_r) / (x_c - x_r + x_h)
    assert f_function(eta, params) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("eta", [0.0, -0.1, np.nan, np.inf])
def test_f_function_needs_positive_eta(eta):
    with pytest.raises(ValueError, match="eta must be positive"):
        f_function(eta, _theorem_point())


def test_f_function_pole():
    # x_c - x_r + x_h = (1) - (1/4)(1 + 1/0.2) + 1/(0.2 * 10) = 0 exactly
    params = FridgeParams(E_c=1.0, eta=0.2, T_c=1.0, T_r=4.0, T_h=10.0,
                          p_c=0.01, p_r=0.01, p_h=0.01, g=0.01)
    with pytest.raises(PoleError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f_function(0.2, params)


def test_high_t_plateau_matches_exact_chi():
    params = _theorem_point()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        approx = chi_highT(params.eta, params)
        exact = bsocr(params)
    assert approx == pytest.approx(exact, rel=1e-4)
    # plateau level sqrt(2) g p E_c
    level = np.sqrt(2.0) * params.g * params.p_c * params.E_c
    assert exact == pytest.approx(level, rel=1e-4)


def test_high_t_warns_outside_validity(cooling_params):
    # x_c = 1 at the cooling fixture: far from the high-T regime
    with pytest.warns(HighTemperatureValidityWarning):
        chi_highT(cooling_params.eta, cooling_params)


def test_chi_high_t_requires_equal_rates(unequal_rate_params):
    with pytest.raises(ValueError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi_highT(unequal_rate_params.eta, unequal_rate_params)


# ----------------------------------------------------------------------
# the exact optimizer root
# ----------------------------------------------------------------------

def test_eta_opt_asymptotic_locked_values():
    exact, limit = eta_opt_asymptotic(1.0, 30.0, 900.0)
    assert exact == pytest.approx(0.0332957216707733, abs=1e-12)
    assert limit == pytest.approx((1.0 / 30.0) * (1.0 - np.sqrt(1.0 / 900.0)),
                                  rel=1e-14)
    assert limit == pytest.approx(0.0322222222, abs=1e-9)
    # the returned root lies inside the cooling window
    assert 0.0 < exact < carnot_cop(1.0, 30.0, 900.0)
    # the two expressions approach each other but differ at the few-percent
    # level in this regime
    assert abs(exact / limit - 1.0) == pytest.approx(0.0333, abs=2e-3)


def test_eta_opt_asymptotic_validation():
    with pytest.raises(ValueError):
        eta_opt_asymptotic(30.0, 1.0, 900.0)


def test_eta_opt_asymptotic_refuses_a_triple_with_no_root_inside():
    # both branches, 0.0675 and 0.112, lie above eta_C = 0.0294
    with pytest.raises(FridgeError, match="cooling window"):
        eta_opt_asymptotic(6.63, 80.95, 120.70)
