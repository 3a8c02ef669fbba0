# -*- coding: utf-8 -*-
"""
Where along the efficiency axis does the fridge deliver its best chi?

The design efficiency eta = E_c / E_h can be dialed anywhere in the
cooling window (0, eta_Carnot): at the bottom the machine moves heat but
each joule of cold heat is bought with an enormous work current, at the
Carnot point the thermal bias Delta vanishes and the cooling current
stalls.  Both ends kill chi = Q_c / tau, so the figure of merit has to
peak somewhere in between, exactly like power does for classical
finite-time engines.

This script sweeps chi over the cooling window for a three-bath machine
with deliberately unequal reset rates, draws the curve as a text bar
chart, then locates the interior maximum with the derivative-free zoom
(a 64-point scan, then 65-point grids over the best two cells) and
sanity-checks it against the grid.

Run:  python3 demos/efficiency_at_max_chi.py
"""

import numpy as np

from qfridge import (FridgeParams, bsocr, carnot_cop,
                     maximize_chi_over_eta, steady_state)

# ----------------------------
# Model parameters (edit here)
# ----------------------------
E_c = 1.0
T_c, T_r, T_h = 1.0, 2.0, 10.0
p_c, p_r, p_h = 0.01, 0.02, 0.05   # unequal on purpose
g = 0.01


def make_params(eta):
    return FridgeParams(E_c=E_c, eta=eta, T_c=T_c, T_r=T_r, T_h=T_h,
                        p_c=p_c, p_r=p_r, p_h=p_h, g=g)


eta_c = carnot_cop(T_c, T_r, T_h)

# ----------------------------------------------------------------------
# 1. chi across the cooling window
# ----------------------------------------------------------------------
print("=" * 72)
print(f"chi over the cooling window (0, eta_C = {eta_c})")
print("=" * 72)

etas = np.linspace(0.04, 0.96, 24) * eta_c
chis = np.array([bsocr(make_params(e)) for e in etas])
peak = chis.max()
for e, c in zip(etas, chis):
    bar = "#" * int(round(44 * max(c, 0.0) / peak))
    print(f"  eta={e:6.4f}  chi={c:11.4e}  {bar}")

print()
print("chi -> 0 at both ends: at eta -> 0 the gaps E_h = E_c/eta and")
print("E_r = E_c + E_h blow up and freeze those qubits into their ground")
print("states, starving the bias; at eta -> eta_C the populations match")
print("and the current dies.")

# ----------------------------------------------------------------------
# 2. the interior maximum, located without derivatives
# ----------------------------------------------------------------------
print()
print("=" * 72)
print("zoom maximum")
print("=" * 72)
opt = maximize_chi_over_eta(make_params(0.4))
print(f"  eta_star  = {opt.eta_star:.7f}   ({opt.eta_star / eta_c:.1%} of Carnot)")
print(f"  chi_star  = {opt.chi_star:.8e}")
print(f"  F(eta_star) = {opt.f_value:.4f}  (the high-temperature shape function)")

# the bracket endpoints and two nearby grid values must all sit below
for de in (-0.01, 0.01):
    c = bsocr(make_params(opt.eta_star + de))
    assert c < opt.chi_star, "grid point above the reported maximum"
print("  neighbours at eta_star +/- 0.01 both sit below chi_star: ok")

# ----------------------------------------------------------------------
# 3. what the machine looks like on either side of the window
# ----------------------------------------------------------------------
print()
print("=" * 72)
print("operating regime markers")
print("=" * 72)
for e in (0.5 * opt.eta_star, opt.eta_star, 0.99 * eta_c, 1.2 * eta_c):
    st = steady_state(make_params(e))
    tag = "fridge" if st.is_fridge else "heater"
    print(f"  eta={e:6.4f}  Delta={st.delta:+.3e}  gamma={st.gamma:+.3e}  "
          f"Q_c={st.q_cool:+.3e}  -> {tag}")
print()
print("past the Carnot point the bias Delta changes sign: the same device")
print("pumps heat INTO the cold bath and chi turns negative with it.")
