"""Acceptance suite: the quantitative claims the package commits to.

One test per criterion, each printing a PASS/FAIL line per sub-check
(visible with -s or on failure) and failing on any FAIL row:

  1.  closed-form steady state annihilates the generator (residual
      <= 1e-10) and matches an independent 64x64 null-space solve
      (<= 1e-9) at four reference parameter sets; a three-variant
      residual table arbitrates the pair-weight formula.
  2.  long-horizon integration converges to the steady state in trace
      distance (<= 1e-6 at t = 50/min p) with 4th-order step scaling.
  3.  chi is exactly linear in g and in the equal reset rate p, and the
      closed equal-rate rational function reproduces chi to 1e-10.
  4.  the trade-off coefficient identities (Q_c, tau reconstructions and
      the tau^2 quadratic) hold to 1e-8 across three decades of g, with
      Q_c and 1/tau monotone along the sweep.
  5.  tau <= t_eps and the transient average power stays below chi at
      the cooling reference sets (signed-bound caveat at the heating
      set: see the strict-xfail twin below).
  6.  J_c(rho_f) = q gamma E_c to 1e-10 including unequal rates.
  7.  coherent starts boost chi on the reference coupling window and
      the resonant-pair start loses to the opposite-diagonal start
      (kappa-monotonicity caveat: strict-xfail twin below).
  8.  high-temperature theorem: locked exact root, window placement,
      plateau agreement of the closed form (argmax caveats: two
      strict-xfail twins below).
  9.  the efficiency sweep has its maximum strictly inside the cooling
      window and chi collapses at the Carnot endpoint.
  10. the generator pipeline: L[rho0] reduces to the pure commutator
      for a thermal-product start and to -i[H, rho0] - q mu for
      coherent starts.

Claims the implemented physics demonstrably does not satisfy are
reported as KNOWN-DEVIATION rows by the checks and asserted here as
strict xfails with the literal reading, so a model change that ever
makes one hold will surface as an unexpected pass.
"""

import numpy as np
import pytest

from qfridge import (BoundaryMaximumError, CohSubspace, bsocr, carnot_cop,
                     eta_opt_asymptotic, f_function, maximize_chi_over_eta)
from qfridge.dynamics import evolve
from qfridge.qsl import qsl_time
from qfridge.steady import steady_state
from qfridge import verify
from qfridge.cli import main
from qfridge.verify import (FAIL, KNOWN, tradeoff_params, coupling_sweep_params,
                            omega_variant_residuals, theorem_params)


def _run(check):
    results = check()
    for row in results:
        print(f"[{row.status:>15}] criterion {row.criterion}: "
              f"{row.label} - {row.detail}")
    bad = [r for r in results if r.status == FAIL]
    assert not bad, "failed sub-checks: " + "; ".join(
        f"{r.label} ({r.detail})" for r in bad)
    return results


def test_criterion_01_steady_state_closed_form():
    # print the three-variant pair-weight arbitration alongside
    for name, residual in omega_variant_residuals(coupling_sweep_params()).items():
        print(f"pair-weight variant {name:>12}: generator residual "
              f"{residual:.3e}")
    _run(verify.check_steady_state)


def test_criterion_02_dynamics_convergence():
    _run(verify.check_dynamics_convergence)


def test_criterion_03_linearity_and_closed_form():
    _run(verify.check_linearity_closed_form)


def test_criterion_04_tradeoff_identities():
    _run(verify.check_tradeoff_identity)


def test_criterion_05_speed_limit_bounds():
    results = _run(verify.check_speed_limit_bounds)
    # the heating-set signed bound is a documented deviation, not a failure
    assert sum(r.status == KNOWN for r in results) <= 1


def test_criterion_06_heat_current_identity():
    _run(verify.check_heat_current_identity)


def test_criterion_07_coherence_boost():
    results = _run(verify.check_coherence_boost)
    assert sum(r.status == KNOWN for r in results) <= 1


def test_criterion_08_high_temperature_theorem():
    _run(verify.check_high_temperature_theorem)


def test_criterion_09_carnot_endpoint_suppression():
    _run(verify.check_carnot_endpoint)


def test_criterion_10_generator_pipeline():
    _run(verify.check_generator_plumbing)


def test_regression_locks():
    _run(verify.check_regression_locks)


def test_criteria_2_and_5_integrate_each_named_set_once(monkeypatch):
    default_runs = []

    def counting_evolve(params, **kw):
        if not kw:   # the default grid; the step-halving check passes one
            default_runs.append(params)
        return evolve(params, **kw)

    monkeypatch.setattr(verify, "evolve", counting_evolve)
    verify._default_run.cache_clear()
    verify.check_steady_state()
    verify.check_generator_plumbing()
    assert default_runs == []   # criteria 1 and 10 need no trajectory
    verify.check_dynamics_convergence()
    verify.check_speed_limit_bounds()
    assert len(default_runs) == 4


def test_a_run_that_never_converges_gives_fail_rows(monkeypatch, capsys):
    # a named set whose default run never comes within eps of rho_f fails
    # its tau <= t_eps row, and verify reports it and exits 4
    monkeypatch.setattr(verify, "convergence_time", lambda *a, **kw: None)
    verify._default_run.cache_clear()
    try:
        rows = [r for r in verify.check_speed_limit_bounds()
                if r.label.startswith("tau <= t_eps")]
        assert len(rows) == 4
        assert all(r.status == FAIL and "never got within eps" in r.detail
                   for r in rows)
        assert main(["verify"]) == 4
        assert capsys.readouterr().out.endswith(
            "30 passed, 4 known deviations, 4 failed\n")
    finally:
        verify._default_run.cache_clear()


# ----------------------------------------------------------------------
# literal readings the model demonstrably does not satisfy
# ----------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason="the machine heats at this set "
                   "(eta = 1 > eta_Carnot = 0.125): chi < 0 and the signed "
                   "average-power bound fails at every sample; the magnitude "
                   "form |Pbar| <= |chi| holds instead")
def test_heating_set_signed_power_bound_literal():
    pp = tradeoff_params()
    srep = steady_state(pp)
    qrep = qsl_time(pp, srep)
    traj = evolve(pp)
    mask = traj.times >= qrep.tau
    powers = traj.currents[mask] / traj.times[mask]
    assert np.all(powers <= qrep.chi + 1e-12)


@pytest.mark.xfail(strict=True, reason="chi is not monotone in kappa: it "
                   "peaks near kappa ~ 0.06 and decreases through 0.5 and "
                   "1.0 on the whole reference window")
def test_chi_monotone_in_kappa_literal():
    def chi(g, kappa):
        pp = coupling_sweep_params(g=g, kappa=kappa,
                         sub=CohSubspace.OUTER_DIAG if kappa else None)
        return bsocr(pp)
    gs = np.linspace(0.04, 0.1, 13)
    assert all(chi(g, 1.0) > chi(g, 0.5) for g in gs)


@pytest.mark.xfail(strict=True, raises=BoundaryMaximumError,
                   reason="in the scaling regime chi(eta) has no interior "
                   "maximum: it climbs monotonically to a tau -> 0 spike at "
                   "the Carnot edge, so no optimizer can place eta_star "
                   "within 2% of the scaling-limit value")
def test_full_model_eta_star_matches_limit_literal():
    pp = theorem_params()
    opt = maximize_chi_over_eta(pp)
    _, limit = eta_opt_asymptotic(1.0, 30.0, 900.0)
    assert abs(opt.eta_star / limit - 1.0) <= 0.02


@pytest.mark.xfail(strict=True, reason="F(eta) has an interior minimum, "
                   "not a maximum, on the cooling window; the root formula "
                   "does not locate any argmax of F")
def test_exact_root_matches_argmax_of_F_literal():
    import warnings
    pp = theorem_params()
    eta_c = carnot_cop(pp.T_c, pp.T_r, pp.T_h)
    etas = np.linspace(1e-3 * eta_c, (1.0 - 1e-3) * eta_c, 4001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fvals = [f_function(float(e), pp) for e in etas]
    argmax = float(etas[int(np.argmax(fvals))])
    exact_root, _ = eta_opt_asymptotic(pp.T_c, pp.T_r, pp.T_h)
    assert abs(argmax - exact_root) <= 1e-4
