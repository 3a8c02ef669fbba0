import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfridge import (CohSubspace, FridgeError, FridgeParams,
                     NonCoolingWarning, TrivialEvolutionWarning,
                     UndefinedChiError, bsocr, bsocr_coherent_coeffs,
                     chi_from_g_form, initial_state, qsl_time, steady_state,
                     tradeoff_coeffs)
from qfridge import qsl, steady
from qfridge.dynamics import heat_current_cold, liouvillian_apply
from qfridge.model import (KNOBS, PERTURBATIVE_NOTE, coherence_matrix,
                           thermal_populations, thermal_product)
from qfridge.qsl import bsocr_closed_equal_p, chi_from_p_form, evaluate
from conftest import random_params
from test_steady import _sigma_by_embedding


def _chi(params):
    return qsl_time(params, steady_state(params)).chi


def _coherent_points(rng, n):
    """n random points with kappa in (0, 1], on each subspace in turn."""
    subs = (CohSubspace.OUTER_DIAG, CohSubspace.INNER_DIAG)
    return [random_params(rng, kappa=1.0 - float(rng.uniform()),
                          subspace=subs[k % 2]) for k in range(n)]


# ----------------------------------------------------------------------
# the speed-limit report
# ----------------------------------------------------------------------

def test_report_internal_consistency(cooling_params):
    rep = steady_state(cooling_params)
    qrep = qsl_time(cooling_params, rep)
    assert qrep.tau > 0
    assert qrep.tau == pytest.approx(qrep.purity_gap / qrep.generator_norm,
                                     rel=1e-14)
    # chi * tau = Q_c identically
    assert qrep.chi * qrep.tau == pytest.approx(rep.q_cool, rel=1e-12)


def test_purity_gap_equals_overlap_difference(cooling_params, rng):
    # the factored gap equals |tr(rho0 rho_f) - tr(rho0^2)| where the
    # difference is well conditioned, for diagonal and coherent starts
    points = [cooling_params] + [random_params(rng) for _ in range(6)]
    for params in points + _coherent_points(rng, 20):
        rep = steady_state(params)
        qrep = qsl_time(params, rep)
        rho0 = initial_state(params)
        naive = abs(np.trace(rho0 @ rep.rho_f).real
                    - np.trace(rho0 @ rho0).real)
        assert qrep.purity_gap == pytest.approx(naive, rel=1e-8, abs=1e-18)


def test_generator_norm_is_initial_speed(cooling_params, rng):
    for params in [cooling_params] + _coherent_points(rng, 20):
        qrep = qsl_time(params, steady_state(params))
        gen = liouvillian_apply(params, initial_state(params))
        assert qrep.generator_norm == pytest.approx(
            float(np.linalg.norm(gen, "fro")), rel=1e-14)


def test_chi_scaling_dimensions(cooling_params):
    # (E, T, g, p) -> s*(E, T, g, p) scales Q_c by s^2, tau by 1/s, chi s^3
    s = 10.0
    scaled = dataclasses.replace(
        cooling_params, E_c=cooling_params.E_c * s,
        T_c=cooling_params.T_c * s, T_r=cooling_params.T_r * s,
        T_h=cooling_params.T_h * s, p_c=cooling_params.p_c * s,
        p_r=cooling_params.p_r * s, p_h=cooling_params.p_h * s,
        g=cooling_params.g * s)
    a = qsl_time(cooling_params, steady_state(cooling_params))
    b = qsl_time(scaled, steady_state(scaled))
    assert b.chi == pytest.approx(s ** 3 * a.chi, rel=1e-10)
    assert b.tau == pytest.approx(a.tau / s, rel=1e-10)


def test_bsocr_convenience_and_warning(cooling_params, heating_params):
    assert bsocr(cooling_params) == pytest.approx(_chi(cooling_params),
                                                  rel=1e-14)
    with pytest.warns(NonCoolingWarning):
        chi = bsocr(heating_params)
    assert chi < 0    # signed in the heating regime


# At kappa = 0 the generator norm is sqrt(2) g |Delta| and the purity gap
# |gamma tr(rho_diag sigma)|, so zeroing Delta and gamma in a report drives
# qsl_time's stationary branches.

def test_stationary_start_gives_tau_zero(cooling_params):
    rep = dataclasses.replace(steady_state(cooling_params), delta=0.0,
                              gamma=0.0)
    with pytest.warns(TrivialEvolutionWarning, match="stationary"):
        qrep = qsl_time(cooling_params, rep)
    assert qrep.tau == 0.0 and qrep.generator_norm == 0.0
    assert math.isnan(qrep.chi)


def test_zero_norm_with_a_gap_is_refused(cooling_params):
    rep = dataclasses.replace(steady_state(cooling_params), delta=0.0)
    with pytest.raises(FridgeError, match="inconsistent"):
        qsl_time(cooling_params, rep)


def test_start_coinciding_with_the_steady_state(cooling_params):
    rep = dataclasses.replace(steady_state(cooling_params), gamma=0.0)
    with pytest.warns(TrivialEvolutionWarning, match="coincides"):
        qrep = qsl_time(cooling_params, rep)
    assert qrep.tau == 0.0 and qrep.generator_norm > 0.0
    assert math.isnan(qrep.chi)


def test_bsocr_refuses_tau_zero(cooling_params, monkeypatch):
    rep = dataclasses.replace(steady_state(cooling_params), gamma=0.0)
    monkeypatch.setattr(qsl, "steady_state", lambda params: rep)
    with pytest.warns(TrivialEvolutionWarning), \
            pytest.raises(UndefinedChiError):
        bsocr(cooling_params)


# ----------------------------------------------------------------------
# the broadcast evaluator against the 8x8 path
# ----------------------------------------------------------------------

@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(KNOBS)),
       st.sampled_from([None, CohSubspace.OUTER_DIAG,
                        CohSubspace.INNER_DIAG]))
def test_evaluator_matches_the_8x8_path(seed, knob, sub):
    rng = np.random.default_rng(seed)
    params = random_params(rng, kappa=float(rng.uniform()) if sub else 0.0,
                           subspace=sub)
    value = getattr(params, KNOBS[knob][0])
    grid = ([0.0, value] if knob == "kappa" and sub
            else [0.0] if knob == "kappa" else [0.5 * value, value])
    pts = evaluate(params, knob, np.array(grid))
    for i, v in enumerate(grid):
        pt = dataclasses.replace(params, **dict.fromkeys(KNOBS[knob], v))
        # sigma (steady_state's, which test_steady checks term by term)
        # and the thermal product as 8x8 matrices; gamma as the
        # least-squares zero of the generator on rho_diag + gamma sigma
        sigma = steady_state(pt).sigma
        rho_d = thermal_product(thermal_populations(pt))
        l_d, l_s = liouvillian_apply(pt, rho_d), liouvillian_apply(pt, sigma)
        gamma = -np.vdot(l_s, l_d).real / np.vdot(l_s, l_s).real
        rho_f = rho_d + gamma * sigma
        rho0 = initial_state(pt)
        mu = coherence_matrix(pt)
        terms = (gamma * np.trace(rho_d @ sigma).real,
                 np.trace(mu @ mu).real)
        gap, scale = terms[0] - terms[1], max(map(abs, terms))
        norm = np.linalg.norm(liouvillian_apply(pt, rho0))
        q_cool = heat_current_cold(pt, rho_f)
        assert pts.errors[i] is None
        assert set(pts.notes[i]) <= {PERTURBATIVE_NOTE}
        assert pts.gamma[i] == pytest.approx(gamma, rel=1e-10)
        assert pts.delta[i] == pytest.approx(
            (rho_d[2, 2] - rho_d[5, 5]).real, rel=1e-12, abs=1e-17)
        assert abs(pts.q_cool[i] - q_cool) <= 1e-13 * pt.p_c * pt.E_c
        assert pts.gap[i] == pytest.approx(gap, abs=1e-10 * scale)
        assert pts.norm[i] == pytest.approx(norm, rel=1e-12)
        # a tiny gap is the pole of tau -> 0, where its digits are round-off
        if abs(gap) > 1e-6 * scale:
            assert pts.tau[i] == pytest.approx(abs(gap) / norm, rel=1e-8)
            assert pts.chi[i] == pytest.approx(pts.q_cool[i] / pts.tau[i],
                                               rel=1e-14)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(KNOBS)),
       st.lists(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                 -1e-300, -1e-4, -7e-4, -0.3, 0.05, 0.3,
                                 0.7]), min_size=1, max_size=6))
def test_evaluator_refuses_out_of_domain_rows(knob, grid):
    # each row that FridgeParams refuses is an error row with its message,
    # never a raise: at eta in (-7.04e-4, 0) E_r < 0 sends exp(-E_r/T_r)
    # past the float range; the rows it builds keep the bits they have
    # with no refused row beside them
    base = FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                        p_c=0.05, p_r=0.05, p_h=0.05, g=0.05)
    pts = evaluate(base, knob, np.array(grid))
    built = []
    for i, v in enumerate(grid):
        try:
            dataclasses.replace(base, **dict.fromkeys(KNOBS[knob], v))
        except ValueError as exc:
            assert pts.notes[i][0] == "error: %s" % exc
            assert isinstance(pts.errors[i], ValueError)
            assert all(math.isnan(c[i]) for c in pts[:7])
        else:
            built.append(i)
    if built:
        alone = evaluate(base, knob, np.array(grid)[built])
        for c, a in zip(pts[:9], alone[:9]):
            assert repr([c[i] for i in built]) == repr(list(a))


@pytest.mark.filterwarnings("ignore::qfridge.qsl.TrivialEvolutionWarning")
@pytest.mark.parametrize("seed, knob, sub", [
    (1, "eta", None), (2, "g", None), (3, "p_equal", None),
    (4, "kappa", None), (5, "kappa", CohSubspace.OUTER_DIAG),
    (6, "kappa", CohSubspace.INNER_DIAG)])
def test_evaluator_is_the_pointwise_path_bit_for_bit(seed, knob, sub):
    # the grid pass runs the point's IEEE operations in the point's order,
    # whether steady's diagonals are stacked (eta) or looped over k (the
    # other knobs), so every column equals steady_state + qsl_time exactly
    rng = np.random.default_rng(seed)
    for _ in range(25):
        s = sub if knob == "kappa" else [None, *CohSubspace][rng.integers(3)]
        params = random_params(rng, kappa=float(rng.uniform()) if s else 0.0,
                               subspace=s)
        n = int(rng.integers(1, 65))
        grid = {"eta": rng.uniform(0.01, 2.0 * params.eta, n),
                "g": rng.uniform(0.001, 0.09, n),
                "p_equal": rng.uniform(0.001, 0.09, n),
                "kappa": rng.uniform(0.0, 1.0, n) if s else np.zeros(n)}[knob]
        pts = evaluate(params, knob, grid)
        cols = steady.steady_columns(params.grid(knob, grid))
        for i, v in enumerate(grid.tolist()):
            pt = dataclasses.replace(params, **dict.fromkeys(KNOBS[knob], v))
            srep = steady_state(pt)
            qrep = qsl_time(pt, srep)
            assert pts.errors[i] is None
            gap = qsl._speed(pt, srep)[0]   # qsl_time's, signed
            want = [srep.q_cool, qrep.tau, qrep.chi, srep.gamma, srep.delta,
                    float(gap), qrep.generator_norm]
            assert abs(gap) == qrep.purity_gap
            assert ([repr(float(c[i])) for c in pts[:7]]
                    == list(map(repr, want)))
            if knob == "eta":
                # the (8, n) stacks against the point's loop over k, and
                # that loop against the thermal product and sigma's terms
                one = steady.steady_columns(pt)
                rho, sig = np.array(one.rho_diag), np.array(one.sigma_diag)
                assert cols.rho_diag[:, i].tobytes() == rho.tobytes()
                assert cols.sigma_diag[:, i].tobytes() == sig.tobytes()
                assert rho.tobytes() == np.diag(thermal_product(
                    thermal_populations(pt))).real.tobytes()
                assert sig.tobytes() == np.diag(
                    _sigma_by_embedding(pt)).real.tobytes()


# ----------------------------------------------------------------------
# closed forms (equal rates, diagonal start)
# ----------------------------------------------------------------------

def test_closed_form_matches_direct(cooling_params, heating_params):
    assert bsocr_closed_equal_p(cooling_params) == pytest.approx(
        _chi(cooling_params), rel=1e-10)
    # also exact in the heating regime, where chi < 0
    assert bsocr_closed_equal_p(heating_params) == pytest.approx(
        _chi(heating_params), rel=1e-10)


def test_closed_form_requires_equal_rates(unequal_rate_params):
    with pytest.raises(ValueError):
        bsocr_closed_equal_p(unequal_rate_params)


def test_chi_linear_in_g_and_p(cooling_params):
    base = _chi(cooling_params)
    for s in (0.2, 0.5, 2.0):
        scaled_g = dataclasses.replace(cooling_params,
                                       g=cooling_params.g * s)
        assert _chi(scaled_g) == pytest.approx(s * base, rel=1e-10)
        scaled_p = dataclasses.replace(
            cooling_params, p_c=cooling_params.p_c * s,
            p_r=cooling_params.p_r * s, p_h=cooling_params.p_h * s)
        assert _chi(scaled_p) == pytest.approx(s * base, rel=1e-10)


def test_chi_over_g_flat_at_tiny_coupling(cooling_params):
    # the conditioning-sensitive regime: chi/g must stay flat down to 1e-4
    ratios = []
    for g in np.geomspace(1e-4, 1e-2, 5):
        p = dataclasses.replace(cooling_params, g=float(g))
        ratios.append(_chi(p) / g)
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    assert spread <= 1e-10


# ----------------------------------------------------------------------
# coherent-start coefficient forms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sub", [CohSubspace.OUTER_DIAG,
                                 CohSubspace.INNER_DIAG])
def test_coefficients_reproduce_chi_at_shifted_p(cooling_params, sub):
    base = dataclasses.replace(cooling_params, kappa=0.8, coh_subspace=sub)
    coeffs = bsocr_coherent_coeffs(base)
    assert coeffs.n2 == 0.0
    assert coeffs.n2g == 0.0
    # the polynomial coefficients do not depend on p: evaluate at other p
    for p_new in (0.01, 0.03, 0.08):
        shifted = dataclasses.replace(base, p_c=p_new, p_r=p_new, p_h=p_new)
        direct = abs(_chi(shifted))
        from_form = chi_from_p_form(coeffs, p_new, base.E_c)
        assert from_form == pytest.approx(direct, rel=1e-10)
        # and the g-polynomial coefficients do not depend on g
        coeffs_shifted = bsocr_coherent_coeffs(shifted)
        for g_new in (0.01, 0.04, 0.09):
            moved = dataclasses.replace(shifted, g=g_new)
            assert chi_from_g_form(coeffs_shifted, g_new, base.E_c) == \
                pytest.approx(abs(_chi(moved)), rel=1e-10)


def test_coherent_coeffs_require_equal_rates(unequal_rate_params):
    with pytest.raises(ValueError):
        bsocr_coherent_coeffs(unequal_rate_params)


@pytest.mark.parametrize("huge", [dict(g=1e100),
                                  dict(p_c=1e100, p_r=1e100, p_h=1e100)],
                         ids=["g", "p"])
def test_coherent_coeffs_overflow_is_a_fridge_error(cooling_params, huge):
    base = dataclasses.replace(cooling_params, kappa=0.5,
                               coh_subspace=CohSubspace.OUTER_DIAG)
    params = dataclasses.replace(base, **huge)
    steady_state(params)   # succeeds: only the fourth powers overflow
    with pytest.raises(FridgeError, match="overflows"):
        bsocr_coherent_coeffs(params)
    assert bsocr_coherent_coeffs(dataclasses.replace(base, g=1e70)).d1 > 0


# ----------------------------------------------------------------------
# trade-off coefficients
# ----------------------------------------------------------------------

def test_tradeoff_identities(cooling_params, heating_params):
    for params in (cooling_params, heating_params):
        # the coefficients do not depend on g: compute once, test across g
        co = tradeoff_coeffs(params)
        for g in (0.003, 0.01, 0.05):
            pp = dataclasses.replace(params, g=g)
            rep = steady_state(pp)
            qrep = qsl_time(pp, rep)
            den = co.ups1 + co.ups2 / g ** 2
            assert co.xi1 / den == pytest.approx(rep.q_cool, rel=1e-10)
            assert (co.xi2 / g) / den == pytest.approx(qrep.tau, rel=1e-10)
            quad = (co.xi2 ** 2 / co.xi1) * rep.q_cool \
                - co.ups1 * (co.xi2 / co.xi1) ** 2 * rep.q_cool ** 2
            assert quad == pytest.approx(qrep.tau ** 2, rel=1e-10)


def test_tradeoff_rejects_coherent_start(coherent_params):
    with pytest.raises(ValueError):
        tradeoff_coeffs(coherent_params)


def test_tradeoff_identities_hold_for_unequal_rates(unequal_rate_params):
    # the reconstructions need no equal-rate assumption
    co = tradeoff_coeffs(unequal_rate_params)
    g = unequal_rate_params.g
    rep = steady_state(unequal_rate_params)
    qrep = qsl_time(unequal_rate_params, rep)
    den = co.ups1 + co.ups2 / g ** 2
    assert co.xi1 / den == pytest.approx(rep.q_cool, rel=1e-10)
    assert (co.xi2 / g) / den == pytest.approx(qrep.tau, rel=1e-10)
