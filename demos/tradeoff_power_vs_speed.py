# -*- coding: utf-8 -*-
"""
Steady cooling power versus speed of relaxation, swept over the internal
coupling g.

The three-qubit fridge trades one resource against the other: the steady
cooling current Q_c grows like g^2 at weak coupling, while the minimal
evolution time tau grows like g, so the speed 1/tau falls as the power
rises.  Their product chi = Q_c / tau is exactly linear in g, which makes
chi a natural single figure of merit for the transient regime.

This script prints the parametric (Q_c, 1/tau) curve over four decades of
g, checks the exact algebraic identity linking tau^2 to Q_c, and then
integrates the master equation at a weak and a strong coupling to show the
same trade-off in real time: the weak fridge is "already there" (its
steady state barely differs from the uncoupled thermal product) but cools
feebly, while the strong fridge cools thirty times harder and needs a long
transient to get there.

Run:  python3 demos/tradeoff_power_vs_speed.py
"""

import warnings

import numpy as np

from qfridge import (FridgeParams, evolve, initial_state, qsl_time,
                     steady_state, trace_distance, tradeoff_coeffs)

# ----------------------------
# Model parameters (edit here)
# ----------------------------
E_c = 1.0            # cold qubit gap; everything is measured against it
eta = 0.5            # design efficiency Q_c / W, inside the cooling window
T_c, T_r, T_h = 1.0, 2.0, 10.0
p = 0.05             # common reset rate for all three baths
g_lo, g_hi, n_g = 1e-4, 1e-1, 13


def make_params(g):
    return FridgeParams(E_c=E_c, eta=eta, T_c=T_c, T_r=T_r, T_h=T_h,
                        p_c=p, p_r=p, p_h=p, g=g)


# ----------------------------------------------------------------------
# 1. parametric sweep: Q_c up, 1/tau down, chi/g flat
# ----------------------------------------------------------------------
print("=" * 72)
print("power vs speed over g in [%g, %g]" % (g_lo, g_hi))
print("=" * 72)
print(f"{'g':>10} {'Q_c':>12} {'1/tau':>12} {'chi':>12} {'chi/g':>12}")

gs = np.geomspace(g_lo, g_hi, n_g)
ratios = []
worst_identity = 0.0
for g in gs:
    with warnings.catch_warnings():
        # the last grid point sits exactly on the perturbative-regime
        # boundary g = 0.1 E_c; the advisory is expected there
        warnings.simplefilter("ignore")
        pr = make_params(g)
        st = steady_state(pr)
        rep = qsl_time(pr, st)
        co = tradeoff_coeffs(pr)
    ratios.append(rep.chi / g)
    # exact closed identity: tau^2 = (xi2^2/xi1) Q_c - ups1 (xi2/xi1)^2 Q_c^2
    quad = (co.xi2 ** 2 / co.xi1) * st.q_cool \
        - co.ups1 * (co.xi2 / co.xi1) ** 2 * st.q_cool ** 2
    worst_identity = max(worst_identity, abs(quad / rep.tau ** 2 - 1.0))
    print(f"{g:>10.2e} {st.q_cool:>12.4e} {1.0 / rep.tau:>12.4e} "
          f"{rep.chi:>12.4e} {rep.chi / g:>12.6e}")

ratios = np.asarray(ratios)
print()
print(f"chi/g relative spread over the grid : {ratios.max() / ratios.min() - 1.0:.2e}")
print(f"worst tau^2 <-> Q_c identity residual: {worst_identity:.2e}")
print("reading: in the weak-coupling window each decade of g buys ~100x")
print("cooling power at a ~10x cost in speed; the product chi stays")
print("exactly linear in g all the way (spread at machine precision),")
print("even past the turning point g = sqrt(ups2/ups1) where tau peaks")
print("and the speed starts to recover while Q_c saturates.")

# ----------------------------------------------------------------------
# 2. the same trade-off in real time
# ----------------------------------------------------------------------
print()
print("=" * 72)
print("transient relaxation at weak vs strong coupling")
print("=" * 72)

for g in (0.005, 0.08):
    pr = make_params(g)
    st = steady_state(pr)
    rep = qsl_time(pr, st)
    traj = evolve(pr)
    d0 = trace_distance(initial_state(pr), st.rho_f)
    # time at which the trajectory is within 1e-3 trace distance of rho_f
    inside = np.nonzero(traj.trace_distances(st.rho_f) <= 1e-3)[0]
    t_conv = traj.times[inside[0]] if inside.size else np.inf
    print(f"g = {g}:")
    print(f"  distance from thermal start to steady state : {d0:.3e}")
    print(f"  time to come within 1e-3 of the steady state: {t_conv:.2f}")
    print(f"  qsl timescale tau                           : {rep.tau:.4f}")
    print(f"  settled cooling current J_c                 : {traj.currents[-1]:.3e}")
    print(f"  chi = Q_c / tau                             : {rep.chi:.4e}")

print()
print("the weak fridge starts essentially on top of its steady state")
print("(gamma ~ g^2 barely tilts the thermal product) but extracts almost")
print("nothing; the strong fridge extracts ~70x more heat per unit time")
print("yet needs a long transient and a ~4x longer qsl time to settle.")
