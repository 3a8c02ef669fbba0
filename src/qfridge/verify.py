"""Acceptance checks: every quantitative claim the package commits to,
runnable both from pytest and from `qfridge verify`.

Each check_* function returns CheckResult rows with status PASS, FAIL,
or KNOWN-DEVIATION. KNOWN-DEVIATION marks claims from the source
analysis that the implemented physics demonstrably does not satisfy
(the row's detail says what holds instead); they are expected and do
not fail a build. Any FAIL does.
"""

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryMaximumError
from .linalg import null_space_1d
from .model import (CohSubspace, FridgeParams, build_hamiltonian,
                    coherence_matrix, initial_state, thermal_populations,
                    thermal_product)
from .steady import rate_combos, steady_state
from .dynamics import (convergence_time, evolve, heat_current_cold,
                       liouvillian_apply, liouvillian_matrix)
from .qsl import (bsocr, bsocr_closed_equal_p, evaluate, qsl_time,
                  tradeoff_coeffs)
from .analysis import (SweepSpec, chi_highT, eta_opt_asymptotic, f_function,
                       maximize_chi_over_eta, run_sweep, zoom_max)

PASS = "PASS"
FAIL = "FAIL"
KNOWN = "KNOWN-DEVIATION"


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    label: str
    status: str
    detail: str


def _res(criterion, label, ok, detail):
    return CheckResult(criterion, label, PASS if ok else FAIL, detail)


# ----------------------------------------------------------------------
# canonical parameter sets
# ----------------------------------------------------------------------

def tradeoff_params():
    """Trade-off set: E_c=1, eta=1, T=(1,5,10), p=0.1 each, g=0.01.

    This point HEATS (gamma < 0): eta = 1 lies far beyond the Carnot
    value 0.125, so Q_c and chi are negative here.
    """
    return FridgeParams(E_c=1.0, eta=1.0, T_c=1.0, T_r=5.0, T_h=10.0,
                        p_c=0.1, p_r=0.1, p_h=0.1, g=0.01)


def coupling_sweep_params(g=0.05, p=0.05, kappa=0.0, sub=None):
    """Coupling-sweep set: E_c=1, eta=0.5, T=(1,2,10), p=0.05 (cooling)."""
    return FridgeParams(E_c=1.0, eta=0.5, T_c=1.0, T_r=2.0, T_h=10.0,
                        p_c=p, p_r=p, p_h=p, g=g, kappa=kappa,
                        coh_subspace=sub)


def efficiency_sweep_params():
    """Efficiency-sweep set: eta=0.4, T=(1,2,10), p=(1,2,5)e-2, g=0.01."""
    return FridgeParams(E_c=1.0, eta=0.4, T_c=1.0, T_r=2.0, T_h=10.0,
                        p_c=0.01, p_r=0.02, p_h=0.05, g=0.01)


def theorem_params():
    """High-temperature regime: T=(1,30,900) (T_c/T_r = T_r/T_h = 1/30),
    E_c = 1e-3, eta = 0.029 (Carnot: 1/30), equal p = 1e-3, g = 1e-4."""
    return FridgeParams(E_c=1e-3, eta=0.029, T_c=1.0, T_r=30.0, T_h=900.0,
                        p_c=1e-3, p_r=1e-3, p_h=1e-3, g=1e-4)


_NAMED_SETS = (("tradeoff", tradeoff_params),
               ("coupling", coupling_sweep_params),
               ("rate", lambda: coupling_sweep_params(p=0.02)),
               ("efficiency", efficiency_sweep_params))


# ----------------------------------------------------------------------
# criterion 1: analytic steady state vs generator and null-space oracle
# ----------------------------------------------------------------------

def _omega_variant_lambda(variant, qs, Qs, r):
    """lambda built with one of the three candidate Omega_jk combinations."""
    rp = np.array([r.r_c, 1.0 - r.r_r, r.r_h])
    ru = np.array([r.r_c, r.r_r, r.r_h])
    pairs = ((0, 1), (0, 2), (1, 2))
    if variant == "printed":
        om = [rp[j] * (1 - rp[k]) + (1 - rp[j]) * ru[k] for j, k in pairs]
    elif variant == "symmetrized":
        om = [rp[j] * (1 - rp[k]) + (1 - rp[j]) * rp[k] for j, k in pairs]
    else:  # adopted: XNOR of the primed populations
        om = [rp[j] * rp[k] + (1 - rp[j]) * (1 - rp[k]) for j, k in pairs]
    return 2.0 + qs[0] + qs[1] + qs[2] + sum(Q * o for Q, o in zip(Qs, om))


def omega_variant_residuals(params):
    """Generator residual ||L[rho0 + gamma sigma]|| for each Omega variant."""
    srep = steady_state(params)
    q, qs, Qs = rate_combos(*params.ps)
    r = thermal_populations(params)
    rho0 = thermal_product(r)
    out = {}
    for variant in ("printed", "symmetrized", "adopted"):
        lam = _omega_variant_lambda(variant, qs, Qs, r)
        gamma = -srep.delta / (lam + q ** 2 / (2.0 * params.g ** 2))
        out[variant] = np.linalg.norm(
            liouvillian_apply(params, rho0 + gamma * srep.sigma))
    return out


def check_steady_state():
    results = []
    worst_res, worst_mis = 0.0, 0.0
    for name, ctor in _NAMED_SETS:
        pp = ctor()
        srep = steady_state(pp)
        residual = np.linalg.norm(liouvillian_apply(pp, srep.rho_f))
        oracle = null_space_1d(liouvillian_matrix(pp))
        mismatch = float(np.max(np.abs(srep.rho_f - oracle)))
        worst_res = max(worst_res, residual)
        worst_mis = max(worst_mis, mismatch)
        results.append(_res(
            "1", f"steady state at {name}",
            residual <= 1e-10 and mismatch <= 1e-9,
            f"||L[rho_f]|| = {residual:.2e} (<= 1e-10), "
            f"max|rho_f - oracle| = {mismatch:.2e} (<= 1e-9)"))
    tab = omega_variant_residuals(coupling_sweep_params())
    results.append(_res(
        "1", "population-weight arbiter",
        tab["adopted"] <= 1e-10 and tab["printed"] > 1e-10
        and tab["symmetrized"] > 1e-10,
        "residuals: printed {printed:.2e}, symmetrized {symmetrized:.2e} "
        "(both rejected), adopted XNOR {adopted:.2e}".format(**tab)))
    return results


# ----------------------------------------------------------------------
# criterion 2: integrator convergence and fourth-order error scaling
# ----------------------------------------------------------------------

@functools.cache
def _default_run(name):
    """Criteria 2 and 5's default-grid run of a named set: its speed-limit
    report, stored times and cold currents, final trace distance to rho_f
    and t_eps at eps = 1e-3 (no state stack)."""
    pp = dict(_NAMED_SETS)[name]()
    srep = steady_state(pp)
    traj = evolve(pp)
    return (qsl_time(pp, srep), traj.times, traj.currents,
            traj.trace_distances(srep.rho_f)[-1],
            convergence_time(traj, srep.rho_f, eps=1e-3))


def check_dynamics_convergence():
    results = []
    for name, _ in _NAMED_SETS:
        _, times, _, dist, _ = _default_run(name)
        results.append(_res(
            "2", f"convergence at {name}",
            dist <= 1e-6,
            f"trace distance {dist:.2e} at t = {times[-1]:.0f} "
            "= 50/min(p) (<= 1e-6)"))
    pp = coupling_sweep_params(kappa=1.0, sub=CohSubspace.OUTER_DIAG)
    rho0 = initial_state(pp)
    ref = evolve(pp, rho0=rho0, t_end=10.0, dt=0.0125 / 16).states[-1]
    e1, e2 = (np.linalg.norm(evolve(pp, rho0=rho0, t_end=10.0, dt=dt).states[-1] - ref)
              for dt in (0.0125, 0.00625))
    ratio = e1 / e2
    results.append(_res(
        "2", "step-halving error ratio",
        12.0 <= ratio <= 20.0,
        f"err({0.0125})/err({0.00625}) = {ratio:.2f} (expect ~16, in [12, 20])"))
    return results


# ----------------------------------------------------------------------
# criterion 3: exact linearity in g and p; closed form agreement
# ----------------------------------------------------------------------

def check_linearity_closed_form():
    results = []
    gs = np.geomspace(1e-4, 1e-1, 7)
    ratios = evaluate(coupling_sweep_params(), "g", gs).chi / gs
    spread_g = float(ratios.max() / ratios.min() - 1.0)
    results.append(_res(
        "3", "chi/g constant over g in [1e-4, 1e-1]",
        spread_g <= 1e-8, f"relative spread {spread_g:.2e} (<= 1e-8)"))
    ps = np.geomspace(1e-3, 1e-1, 7)
    ratios = evaluate(coupling_sweep_params(), "p_equal", ps).chi / ps
    spread_p = float(ratios.max() / ratios.min() - 1.0)
    results.append(_res(
        "3", "chi/p constant over p in [1e-3, 1e-1]",
        spread_p <= 1e-8, f"relative spread {spread_p:.2e} (<= 1e-8)"))
    worst = 0.0
    for pp in (coupling_sweep_params(), tradeoff_params(),
               replace(coupling_sweep_params(), eta=0.3, g=0.03,
                       p_c=0.02, p_r=0.02, p_h=0.02)):
        with warnings.catch_warnings():
            # the heating point is probed on purpose; chi < 0 is the point
            warnings.simplefilter("ignore", UserWarning)
            direct = bsocr(pp)
        closed = bsocr_closed_equal_p(pp)
        worst = max(worst, abs(closed / direct - 1.0))
    results.append(_res(
        "3", "closed rational form (incl. the heating point)",
        worst <= 1e-10, f"worst relative difference {worst:.2e} (<= 1e-10)"))
    return results


# ----------------------------------------------------------------------
# criterion 4: trade-off identity and monotone (Q_c, 1/tau) curve
# ----------------------------------------------------------------------

def check_tradeoff_identity():
    co = tradeoff_coeffs(tradeoff_params())
    g = np.geomspace(1e-4, 1e-1, 60)
    pts = evaluate(tradeoff_params(), "g", g)
    qcs, inv_taus, g2 = pts.q_cool, 1.0 / pts.tau, np.float_power(g, 2)
    rhs = (co.xi2 ** 2 / co.xi1) * qcs \
        - co.ups1 * (co.xi2 / co.xi1) ** 2 * np.float_power(qcs, 2)
    den = co.ups1 + co.ups2 / g2
    worst = float(max(np.max(abs(rhs / np.float_power(pts.tau, 2) - 1.0)),
                      np.max(abs(co.xi1 / den / qcs - 1.0)),
                      np.max(abs((co.xi2 / g) / den / pts.tau - 1.0))))
    results = [_res(
        "4", "tau^2 identity and both reconstructions",
        worst <= 1e-8,
        f"worst relative residual {worst:.2e} over the 60-point grid "
        "(<= 1e-8)")]
    mono = bool(np.all(np.diff(qcs) < 0) and np.all(np.diff(inv_taus) < 0))
    results.append(_res(
        "4", "(Q_c, 1/tau) both monotone decreasing in g",
        mono,
        f"Q_c from {qcs[0]:.3e} to {qcs[-1]:.3e}, 1/tau from "
        f"{inv_taus[0]:.3e} to {inv_taus[-1]:.3e}; 1/tau has its minimum "
        "just beyond the last grid point"))
    return results


# ----------------------------------------------------------------------
# criterion 5: speed limit below convergence time; average power bound
# ----------------------------------------------------------------------

def check_speed_limit_bounds():
    results = []
    for name, _ in _NAMED_SETS:
        qrep, ts, js, _, t_eps = _default_run(name)
        mask = ts >= max(qrep.tau, ts[1])
        pbar = js[mask] / ts[mask]
        results.append(_res(
            "5", f"tau <= t_eps at {name}",
            t_eps is not None and qrep.tau <= t_eps,
            f"tau = {qrep.tau:.4f}, but the run never got within eps = 1e-3"
            f" of rho_f by t_end = {ts[-1]:.0f}" if t_eps is None else
            f"tau = {qrep.tau:.4f} <= t_eps = {t_eps:.2f} (eps = 1e-3)"))
        if name == "tradeoff":
            signed = int(np.sum(pbar > qrep.chi + 1e-12))
            magnitude = int(np.sum(np.abs(pbar) > abs(qrep.chi) + 1e-12))
            status = KNOWN if signed > 0 and magnitude == 0 else (
                PASS if signed == 0 else FAIL)
            results.append(CheckResult(
                "5", "avg power bound at the trade-off set (heating point)", status,
                f"signed bound violated at {signed}/{len(pbar)} samples "
                "(Pbar -> 0- while chi < 0 stays finite); magnitude form "
                f"|Pbar| <= |chi| violated at {magnitude} samples - the "
                "bound statement only constrains cooling operation"))
        else:
            bad = int(np.sum(pbar > qrep.chi + 1e-12))
            results.append(_res(
                "5", f"avg power Pbar(t) <= chi at {name}",
                bad == 0,
                f"0 violations expected, found {bad} of {len(pbar)} samples "
                f"with t >= tau (chi = {qrep.chi:.3e})"))
    return results


# ----------------------------------------------------------------------
# criterion 6: cold heat current equals q gamma E_c
# ----------------------------------------------------------------------

def check_heat_current_identity():
    results = []
    sets = (("equal p (fig2)", coupling_sweep_params()),
            ("unequal p (fig4)", efficiency_sweep_params()),
            ("unequal p (generic)", replace(coupling_sweep_params(), p_c=0.07,
                                            p_r=0.011, p_h=0.033)))
    for name, pp in sets:
        srep = steady_state(pp)
        direct = heat_current_cold(pp, srep.rho_f)
        analytic = pp.q * srep.gamma * pp.E_c
        rel = abs(direct / analytic - 1.0)
        results.append(_res(
            "6", f"heat current identity, {name}",
            rel <= 1e-10,
            f"J_c(rho_f) = {direct:.6e} vs q*gamma*E_c, "
            f"relative difference {rel:.2e} (<= 1e-10)"))
    return results


# ----------------------------------------------------------------------
# criterion 7: initial coherence raises chi (within the boost window)
# ----------------------------------------------------------------------

# Coupling window for the coherence comparison: the coherent start beats
# the diagonal start only above the crossover couplings g ~ 0.0089
# (kappa = 0.5) and g ~ 0.0202 (kappa = 1), so the comparison grid sits
# inside the boost window. The boost claim names no explicit axis
# range; this grid is the regime the claim describes.
COHERENCE_GRID = tuple(np.linspace(0.04, 0.1, 13))


def check_coherence_boost():
    outer, inner = CohSubspace.OUTER_DIAG, CohSubspace.INNER_DIAG
    c0, c5o, c1o, c5i, c1i = (
        evaluate(coupling_sweep_params(kappa=kappa, sub=sub), "g",
                 COHERENCE_GRID).chi
        for kappa, sub in ((0.0, None), (0.5, outer), (1.0, outer),
                           (0.5, inner), (1.0, inner)))
    n = len(COHERENCE_GRID)
    results = []

    half_beats_none = int(np.sum(c5o > c0))
    full_beats_none = int(np.sum(c1o > c0))
    results.append(_res(
        "7", "coherent start beats diagonal start (outer subspace)",
        half_beats_none == n and full_beats_none == n,
        f"chi(0.5) > chi(0) at {half_beats_none}/{n} grid points, "
        f"chi(1) > chi(0) at {full_beats_none}/{n}"))

    full_beats_half = int(np.sum(c1o > c5o))
    status = KNOWN if full_beats_half == 0 else (
        PASS if full_beats_half == n else FAIL)
    results.append(CheckResult(
        "7", "chi monotone in kappa (claimed chi(1) > chi(0.5))", status,
        f"chi(1) > chi(0.5) at {full_beats_half}/{n} grid points: chi is "
        "NOT monotone in kappa - it peaks near kappa ~ 0.06 at g = 0.05 "
        "(0.173 there vs 0.040 at kappa = 0.5 and 0.020 at kappa = 1)"))

    outer_beats_inner = int(np.sum((c1o > c1i) & (c5o > c5i)))
    results.append(_res(
        "7", "outer subspace beats inner subspace at equal kappa",
        outer_beats_inner == n,
        f"holds at {outer_beats_inner}/{n} grid points (outer coherence "
        "couples to the full E_tot gap, inner coherence is resonant)"))
    return results


# ----------------------------------------------------------------------
# criterion 8: high-temperature optimum-efficiency theorem
# ----------------------------------------------------------------------

def check_high_temperature_theorem():
    results = []
    pp = theorem_params()
    eta_exact, eta_limit = eta_opt_asymptotic(pp.T_c, pp.T_r, pp.T_h)
    eta_c = 1.0 / 30.0

    # full-model maximization: chi rises monotonically through the window
    try:
        opt = maximize_chi_over_eta(pp)
        rel = abs(opt.eta_star - eta_limit) / eta_limit
        results.append(CheckResult(
            "8", "full-model eta_star within 2% of the limit value",
            PASS if rel <= 0.02 else FAIL,
            f"eta_star = {opt.eta_star:.6g}, rel = {rel:.2%}"))
    except BoundaryMaximumError as exc:
        results.append(CheckResult(
            "8", "full-model eta_star within 2% of the limit value", KNOWN,
            "no interior maximum exists: chi(eta) increases monotonically "
            "up to the tau -> 0 spike at the Carnot edge, so the argmax "
            "sits at the window edge eta_C = 1/30 (3.4% above the limit "
            f"0.032222, outside the 2% target). Maximizer: {exc}"))

    # F has an interior MINIMUM, not a maximum, inside the window
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = np.linspace(1e-2 * eta_c, (1 - 1e-6) * eta_c, 64)
        def f_grid(etas):
            return np.array([f_function(x, pp) for x in etas])
        fvals = f_grid(grid)
        eta_min = zoom_max(lambda xs: -f_grid(xs), grid, -fvals, 1e-10)[0]
    i = int(np.argmax(fvals))
    if i == 0 or i == len(grid) - 1:
        results.append(CheckResult(
            "8", "exact root matches the numeric argmax of F", KNOWN,
            "F has no interior maximum on the cooling window: its only "
            f"interior critical point is a MINIMUM at eta = {eta_min:.6g}; "
            f"the root formula value {eta_exact:.6g} is not a zero of "
            "dF/d eta, so the 1e-4 agreement claim is unsatisfiable"))
    else:
        rel = abs(grid[i] - eta_exact) / eta_exact
        results.append(CheckResult(
            "8", "exact root matches the numeric argmax of F",
            PASS if rel <= 1e-4 else FAIL,
            f"argmax F = {grid[i]:.6g} vs root {eta_exact:.6g}"))

    # the parts of the theorem that do hold
    ok_root = abs(eta_exact - 0.0332957216707733) <= 1e-12
    ok_window = 0.0 < eta_exact < eta_c
    gap = abs(eta_exact / eta_limit - 1.0)
    results.append(_res(
        "8", "root formula value and window placement",
        ok_root and ok_window and gap < 0.05,
        f"exact root {eta_exact:.10f} (locked), limit {eta_limit:.10f}, "
        f"gap {gap:.2%} (inside the window; note the gap exceeds the "
        "quoted 2%)"))
    exact_chi = bsocr(pp)
    approx_chi = chi_highT(pp.eta, pp)
    plateau = math.sqrt(2.0) * pp.g * pp.p_c * pp.E_c
    ok_ht = abs(approx_chi / exact_chi - 1.0) <= 0.05
    ok_plateau = abs(exact_chi / plateau - 1.0) <= 1e-3
    results.append(_res(
        "8", "high-T closed form consistency on the plateau",
        ok_ht and ok_plateau,
        f"chi exact {exact_chi:.6e} vs high-T form {approx_chi:.6e} "
        f"(rel {abs(approx_chi / exact_chi - 1):.1e} <= 5%), plateau "
        f"value sqrt(2) g p E_c = {plateau:.6e}"))
    return results


# ----------------------------------------------------------------------
# criterion 9: Carnot endpoint of the efficiency sweep + locked optimum
# ----------------------------------------------------------------------

def check_carnot_endpoint():
    spec = SweepSpec(base=efficiency_sweep_params(), knob="eta",
                     grid=tuple(np.linspace(0.02, 0.7999, 64)))
    chis = run_sweep(spec).chi
    i = int(np.nanargmax(chis))
    interior = 0 < i < len(chis) - 1
    edge_ratio = float(chis[-1] / chis[i])
    results = [_res(
        "9", "interior maximum and Carnot suppression",
        interior and edge_ratio < 1e-3,
        f"argmax at grid index {i} (eta = {spec.grid[i]:.4f}), "
        f"chi(0.7999)/chi_max = {edge_ratio:.2e} (< 1e-3)")]
    return results


def check_regression_locks():
    """Derived curve landmarks locked at the first verified build."""
    results = []
    opt = maximize_chi_over_eta(efficiency_sweep_params(), bracket=(0.05, 0.4))
    ok = (abs(opt.eta_star - 0.1910427) <= 5e-6
          and abs(opt.chi_star / 1.43886702e-4 - 1.0) <= 1e-7)
    results.append(_res(
        "locks", "efficiency-sweep optimum",
        ok,
        f"eta_star = {opt.eta_star:.7f} (locked 0.1910427 +- 5e-6), "
        f"chi_star = {opt.chi_star:.8e} (locked 1.43886702e-4, rel 1e-7)"))

    def chi_p(ps):
        return evaluate(coupling_sweep_params(kappa=1.0,
                                              sub=CohSubspace.OUTER_DIAG),
                        "p_equal", ps).chi
    grid = np.linspace(0.03, 0.08, 64)
    p_star, chi_max = zoom_max(chi_p, grid, chi_p(grid), 1e-9)
    ok = (abs(p_star - 0.05209) <= 5e-4
          and abs(chi_max / 2.045926e-2 - 1.0) <= 1e-6)
    results.append(_res(
        "locks", "rate-sweep peak of the coherent curve",
        ok,
        f"p_star = {p_star:.5f} (locked 0.05209 +- 5e-4; the peak is "
        f"flat), chi_max = {chi_max:.7e} (locked 2.045926e-2, rel 1e-6)"))
    return results


# ----------------------------------------------------------------------
# criterion 10: generator action on the initial state
# ----------------------------------------------------------------------

def check_generator_plumbing():
    results = []
    worst = 0.0
    for name, ctor in _NAMED_SETS:
        pp = ctor()
        rho0 = initial_state(pp)
        lhs = liouvillian_apply(pp, rho0)
        H = build_hamiltonian(pp)
        H = H - np.diag(np.diag(H))
        rhs = -1j * (H @ rho0 - rho0 @ H)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(_res(
        "10", "diagonal start: L[rho0] = -i[H_int, rho0]",
        worst <= 1e-14, f"max elementwise difference {worst:.2e} (<= 1e-14)"))
    worst = 0.0
    for kappa in (0.5, 1.0):
        for sub in (CohSubspace.OUTER_DIAG, CohSubspace.INNER_DIAG):
            pp = coupling_sweep_params(kappa=kappa, sub=sub)
            rho0 = initial_state(pp)
            mu = coherence_matrix(pp)
            H = build_hamiltonian(pp)
            lhs = liouvillian_apply(pp, rho0)
            rhs = -1j * (H @ rho0 - rho0 @ H) - pp.q * mu
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    results.append(_res(
        "10", "coherent start: L[rho0] = -i[H, rho0] - q mu",
        worst <= 1e-14, f"max elementwise difference {worst:.2e} (<= 1e-14)"))
    return results


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

ALL_CHECKS = (check_steady_state, check_dynamics_convergence,
              check_linearity_closed_form, check_tradeoff_identity,
              check_speed_limit_bounds, check_heat_current_identity,
              check_coherence_boost, check_high_temperature_theorem,
              check_carnot_endpoint, check_generator_plumbing,
              check_regression_locks)


def run_all_checks():
    """Run every acceptance check; returns the flat list of CheckResult."""
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for fn in ALL_CHECKS:
            results.extend(fn())
    return results


def format_report(results):
    """Human-readable one-line-per-check report plus a summary line."""
    lines = []
    for r in results:
        lines.append(f"[{r.status:>15s}] criterion {r.criterion}: "
                     f"{r.label} - {r.detail}")
    n_fail = sum(1 for r in results if r.status == FAIL)
    n_known = sum(1 for r in results if r.status == KNOWN)
    n_pass = sum(1 for r in results if r.status == PASS)
    lines.append(f"{n_pass} passed, {n_known} known deviations, "
                 f"{n_fail} failed")
    return "\n".join(lines)
