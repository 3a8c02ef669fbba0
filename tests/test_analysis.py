import dataclasses
import warnings

import numpy as np
import pytest

from qfridge import (BoundaryMaximumError, FridgeError, FridgeParams,
                     HighTemperatureValidityWarning, PoleError, SweepSpec,
                     bsocr, carnot_cop, chi_highT, eta_opt_asymptotic,
                     f_function, maximize_chi_over_eta, run_sweep,
                     steady_state)
from qfridge import analysis


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
    records = run_sweep(SweepSpec(base=cooling_params, knob="g", grid=grid))
    assert len(records) == 3
    for rec, g in zip(records, grid):
        assert rec.knob_value == pytest.approx(g)
        point = dataclasses.replace(cooling_params, g=g)
        assert rec.chi == pytest.approx(bsocr(point), rel=1e-12)
        assert rec.is_fridge
        assert rec.warnings == ()
    # chi linear in g across the sweep
    assert records[1].chi == pytest.approx(2 * records[0].chi, rel=1e-10)


def test_run_sweep_captures_warnings_and_errors(cooling_params):
    # g = 0.12 leaves the perturbative regime -> warning recorded;
    # p = 1.5 is invalid -> error row with NaN outputs, not an exception
    records = run_sweep(SweepSpec(base=cooling_params, knob="g",
                                  grid=(0.05, 0.12)))
    assert records[0].warnings == ()
    assert any("perturbative" in w for w in records[1].warnings)

    records = run_sweep(SweepSpec(base=cooling_params, knob="p_equal",
                                  grid=(0.0, 0.05)))
    assert np.isnan(records[0].chi) and np.isnan(records[0].tau)
    assert any(w.startswith("error:") for w in records[0].warnings)
    assert np.isfinite(records[1].chi)


def test_kappa_sweep_roundtrip(coherent_params):
    records = run_sweep(SweepSpec(base=coherent_params, knob="kappa",
                                  grid=(0.0, 0.5, 1.0)))
    # kappa = 0 reproduces the diagonal-start value regardless of base kappa
    diag = bsocr(dataclasses.replace(coherent_params, kappa=0.0))
    assert records[0].chi == pytest.approx(diag, rel=1e-12)
    assert records[1].chi > records[0].chi   # the boost regime at g = 0.05


def test_runtime_warnings_pass_the_library_filters(cooling_params,
                                                   monkeypatch):
    # the sweep and the optimizer filter only the library's UserWarnings:
    # a numpy RuntimeWarning inside a point reaches an error filter
    def steady_warns(params):
        warnings.warn("overflow encountered", RuntimeWarning)
        return steady_state(params)
    monkeypatch.setattr(analysis, "steady_state", steady_warns)
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
        records = run_sweep(spec)
    assert all(rec.warnings == ("overflow encountered",) for rec in records)


# ----------------------------------------------------------------------
# maximization over the efficiency
# ----------------------------------------------------------------------

def test_maximizer_finds_interior_optimum(unequal_rate_params):
    opt = maximize_chi_over_eta(unequal_rate_params, bracket=(0.05, 0.4))
    assert opt.eta_star == pytest.approx(0.1910427, abs=5e-6)
    assert opt.chi_star == pytest.approx(1.43886702e-4, rel=1e-6)
    assert opt.method in ("golden_section", "grid_refine")
    assert np.isfinite(opt.f_value)
    # the optimum beats its neighborhood
    for d in (-0.01, 0.01):
        nearby = dataclasses.replace(unequal_rate_params,
                                     eta=opt.eta_star + d)
        assert bsocr(nearby) < opt.chi_star


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


def test_golden_section_max_locates_peak():
    x = analysis.golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0,
                                    1e-10)
    assert x == pytest.approx(0.3, abs=1e-9)
    # a minimum is the maximum of the negated function
    x = analysis.golden_section_max(lambda t: -abs(t + 2.0), -5.0, 5.0,
                                    1e-10)
    assert x == pytest.approx(-2.0, abs=1e-9)


def test_grid_refine_keeps_the_scan_maximum(cooling_params, monkeypatch):
    # chi = 1 except for a 1e-6-wide spike of 2 at one scan point: golden
    # section misses the spike and the dense cell grid straddles it
    lo, hi = 0.05, 0.4
    spike = float(np.linspace(lo, hi, 64)[20])
    monkeypatch.setattr(analysis, "_chi_at_eta",
                        lambda params, eta: 2.0 if abs(eta - spike) < 5e-7
                        else 1.0)
    opt = maximize_chi_over_eta(cooling_params, bracket=(lo, hi))
    assert opt.method == "grid_refine"
    assert opt.chi_star == 2.0
    assert opt.eta_star == spike


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


@pytest.mark.parametrize("eta", [0.0, -0.1])
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
