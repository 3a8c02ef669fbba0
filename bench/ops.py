"""Seeded op lists for the three workloads, and the oracles that check
each op's output.

An op is one `qfridge` CLI invocation (its argv) plus what its oracle
needs. An op list is built from the workload seed alone, so every pass
over it, in every run with that seed, does identical work. Sizes are
drawn by stratified sampling (one draw per stratum of a fixed ladder), so
the total work of a list barely depends on the seed while the physical
parameters do. The optimize bases are drawn from a fixed pool of vetted
candidates (optimize_pool.json, written by vet_optimize.py).

The transient and sweep oracles use only numpy, `FridgeParams`,
`liouvillian_matrix` and `null_space_1d`; the physics they compare against
(thermal populations, initial state, cold heat current, purity gap) is
written out here independently of the library's closed forms. The
optimize oracle rescans chi with `steady_state` and `qsl_time`, the
per-point path the sweep oracle checks against the null space.
"""

import csv
import io
import json
import math
import os
import random
import warnings
from dataclasses import dataclass

import numpy as np

# ops per pass; the tail percentile is the highest with >= 10 ops beyond
# it in one pass (see tail_percentile)
OPS_PER_PASS = {"transient": 100, "sweep": 100, "optimize": 80}

# verify's named parameter sets (qfridge.verify): tradeoff, coupling,
# rate, efficiency. The efficiency set with bracket (0.05, 0.4) is the
# regression-lock set of the optimizer.
NAMED_SETS = {
    "tradeoff": dict(Ec=1.0, eta=1.0, Tc=1.0, Tr=5.0, Th=10.0,
                     pc=0.1, pr=0.1, ph=0.1, g=0.01),
    "coupling": dict(Ec=1.0, eta=0.5, Tc=1.0, Tr=2.0, Th=10.0,
                     pc=0.05, pr=0.05, ph=0.05, g=0.05),
    "rate": dict(Ec=1.0, eta=0.5, Tc=1.0, Tr=2.0, Th=10.0,
                 pc=0.02, pr=0.02, ph=0.02, g=0.05),
    "efficiency": dict(Ec=1.0, eta=0.4, Tc=1.0, Tr=2.0, Th=10.0,
                       pc=0.01, pr=0.02, ph=0.05, g=0.01),
}
LOCK_BRACKET = (0.05, 0.4)
LOCK_ETA_STAR = 0.1910427
LOCK_ETA_TOL = 5e-6
# the optimize bases that have an interior chi maximum and no purity-gap
# zero on qfridge's default bracket (written by bench/vet_optimize.py)
POOL_FILE = "optimize_pool.json"

# largest E/T of any qubit at any eta an op visits. Past ~37 the excited
# population e^(-E/T) is below the round-off of 1, the initial state is
# stationary to machine precision and tau = 0 leaves chi undefined; 20
# keeps every population resolved to ~1e-9.
MAX_E_OVER_T = 20.0

# transient op sizing: a fixed cost model (ms) of one `evolve` op on the
# reference machine, used only to turn a target op length into a step
# count, so stepping-bound and sampling-bound ops both take 25-100 ms.
_EVOLVE_FIXED_MS = 20.0
_EVOLVE_STEP_MS = 0.0038
_EVOLVE_SAMPLE_MS = 0.16


@dataclass
class Op:
    """One CLI invocation: its argv and what the oracle needs."""
    kind: str
    argv: list
    params: dict
    csv_out: bool
    meta: dict
    size: float   # relative cost within the workload; picks the warm-up


def warmup_op(ops):
    """The smallest op: warms the code paths at a seed-independent cost."""
    return min(ops, key=lambda op: op.size)


def tail_percentile(n_ops):
    """Highest whole percentile with at least ten of n_ops beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n_ops)))


def _rng(workload, seed):
    return random.Random(f"qfridge-bench:{workload}:{seed}")


def _ladder(rng, n, lo, hi):
    """n log-stratified draws in [lo, hi], one per stratum, shuffled."""
    vals = [lo * (hi / lo) ** ((k + rng.random()) / n) for k in range(n)]
    rng.shuffle(vals)
    return vals


def _loguniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _carnot(p):
    return (1.0 / p["Tr"] - 1.0 / p["Th"]) / (1.0 / p["Tc"] - 1.0 / p["Tr"])


def _eta_floor(p):
    """Smallest eta at which every qubit keeps E/T <= MAX_E_OVER_T.

    E_r/T_r = (E_c + E_c/eta)/T_r is the largest of the three ratios at
    small eta (E_r > E_h and T_r <= T_h; E_c/T_c stays below 2 here).
    """
    return p["Ec"] / (MAX_E_OVER_T * p["Tr"] - p["Ec"])


def _random_params(rng, heating_share, coherence):
    """A machine in the perturbative regime, cooling or heating.

    coherence: None (kappa = 0), "outer_diag" or "inner_diag".
    Temperatures are redrawn until the whole cooling window, eta down
    to a tenth of the Carnot value, lies above _eta_floor.
    """
    while True:
        p = dict(Ec=1.0, Tc=_loguniform(rng, 0.5, 2.0))
        p["Tr"] = p["Tc"] * rng.uniform(1.5, 5.0)
        p["Th"] = p["Tr"] * rng.uniform(2.0, 10.0)
        eta_c = _carnot(p)
        if _eta_floor(p) <= 0.1 * eta_c:
            break
    if rng.random() < heating_share:
        p["eta"] = eta_c * rng.uniform(1.1, 3.0)
    else:
        p["eta"] = eta_c * rng.uniform(0.1, 0.9)
    for key in ("pc", "pr", "ph"):
        p[key] = _loguniform(rng, 0.005, 0.05)
    p["g"] = _loguniform(rng, 1e-3, 0.05)
    if coherence is not None:
        p["kappa"] = rng.uniform(0.1, 1.0)
        p["subspace"] = coherence
    return p


def _param_argv(p):
    argv = []
    for key in ("Ec", "eta", "Tc", "Tr", "Th", "pc", "pr", "ph", "g",
                "kappa"):
        if key in p:
            argv += [f"--{key}", repr(float(p[key]))]
    if "subspace" in p:
        argv += ["--subspace", p["subspace"]]
    return argv


def _default_dt(p):
    """qfridge's stability step 0.05/max(E_r, q), for sizing horizons."""
    e_r = p["Ec"] + p["Ec"] / p["eta"]
    return 0.05 / max(e_r, p["pc"] + p["pr"] + p["ph"])


def _transient_ops(rng, n_ops, out):
    targets = _ladder(rng, n_ops, 25.0, 100.0)
    strides = [max(1, round(s)) for s in _ladder(rng, n_ops, 1.0, 1000.0)]
    names = list(NAMED_SETS)
    named_at = dict(zip(rng.sample(range(n_ops), len(names)), names))
    coherences = [None, "outer_diag", "inner_diag"]
    ops = []
    for k in range(n_ops):
        if k in named_at:
            p = dict(NAMED_SETS[named_at[k]])
        else:
            p = _random_params(rng, 0.3, coherences[k % 3])
        stride = strides[k]
        per_sample = _EVOLVE_STEP_MS * stride + _EVOLVE_SAMPLE_MS
        samples = max(2, round((targets[k] - _EVOLVE_FIXED_MS) / per_sample))
        n_steps = stride * samples
        t_end = n_steps * _default_dt(p)
        argv = (["evolve"] + _param_argv(p)
                + ["--t-end", repr(t_end), "--store-every", str(stride),
                   "--out", out])
        est = _EVOLVE_FIXED_MS + per_sample * samples
        ops.append(Op("evolve", argv, p, True,
                      dict(n_steps=n_steps, store_every=stride,
                           t_end=t_end), est))
    return ops


# sweep knobs: (knob, coherence subspace of the base, grid spacing)
_SWEEP_KINDS = (("g", None, "log"), ("p_equal", None, "log"),
                ("eta", None, "lin"), ("kappa", "outer_diag", "lin"),
                ("kappa", "inner_diag", "lin"))


def _sweep_ops(rng, n_ops, out):
    sizes = [max(2, round(n)) for n in _ladder(rng, n_ops, 8.0, 128.0)]
    kinds = [_SWEEP_KINDS[k % len(_SWEEP_KINDS)] for k in range(n_ops)]
    rng.shuffle(kinds)
    base_coherence = [None, "outer_diag", "inner_diag"]
    ops = []
    for k in range(n_ops):
        knob, sub, spacing = kinds[k]
        n = sizes[k]
        if knob == "kappa":
            p = _random_params(rng, 0.3, sub)
            del p["kappa"]
            lo, hi = rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)
        else:
            p = _random_params(rng, 0.0 if knob == "eta" else 0.3,
                               base_coherence[k % 3])
            if knob == "g":
                del p["g"]
                lo = _loguniform(rng, 1e-3, 5e-3)
                hi = _loguniform(rng, 1e-2, 0.05)
            elif knob == "p_equal":
                for key in ("pc", "pr", "ph"):
                    del p[key]
                lo = _loguniform(rng, 0.002, 0.008)
                hi = _loguniform(rng, 0.02, 0.05)
            else:
                del p["eta"]
                eta_c = _carnot(p)
                lo = eta_c * rng.uniform(
                    max(0.02, _eta_floor(p) / eta_c), 0.2)
                hi = eta_c * rng.uniform(0.8, 0.98)
        argv = (["sweep"] + _param_argv(p)
                + ["--knob", knob, f"--{spacing}", repr(lo), repr(hi),
                   str(n), "--out", out])
        grid = (np.geomspace(lo, hi, n) if spacing == "log"
                else np.linspace(lo, hi, n))
        check_rows = sorted(rng.sample(range(n), 1))
        ops.append(Op("sweep", argv, p, True,
                      dict(knob=knob, grid=[float(v) for v in grid],
                           check_rows=check_rows), float(n)))
    return ops


def optimize_candidates(n):
    """The first n candidate bases of the optimize pool: one fixed
    stream of unequal-rate cooling machines, the same for every seed."""
    rng = random.Random("qfridge-bench:optimize-pool")
    return [_random_params(rng, 0.0, None) for _ in range(n)]


def _optimize_pool():
    """The candidate bases bench/vet_optimize.py kept."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           POOL_FILE)) as fh:
        vetted = json.load(fh)
    cands = optimize_candidates(vetted["candidates"])
    return [cands[i] for i in vetted["kept"]]


def _optimize_ops(rng, n_ops):
    locks = set(rng.sample(range(n_ops), 4))
    bases = iter(rng.sample(_optimize_pool(), n_ops - len(locks)))
    ops = []
    for k in range(n_ops):
        if k in locks:
            p = dict(NAMED_SETS["efficiency"])
            bracket = LOCK_BRACKET
        else:
            p = next(bases)
            bracket = None
        argv = ["optimize"] + _param_argv(p)
        if bracket is not None:
            argv += ["--bracket", repr(bracket[0]), repr(bracket[1])]
        ops.append(Op("optimize", argv, p, False,
                      dict(bracket=bracket, lock=k in locks), 1.0))
    return ops


def make_ops(workload, seed, out):
    """The op list of a workload for a seed; CSV ops write to `out`."""
    rng = _rng(workload, seed)
    n_ops = OPS_PER_PASS[workload]
    if workload == "transient":
        return _transient_ops(rng, n_ops, out)
    if workload == "sweep":
        return _sweep_ops(rng, n_ops, out)
    if workload == "optimize":
        return _optimize_ops(rng, n_ops)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

class Oracle:
    """Checks op outputs; built from library entry points captured
    before any tracing is installed, so its own calls are never traced.
    """

    def __init__(self):
        from qfridge.dynamics import liouvillian_matrix
        from qfridge.linalg import null_space_1d
        from qfridge.model import CohSubspace, FridgeParams
        from qfridge.qsl import qsl_time
        from qfridge.steady import steady_state
        self._L = liouvillian_matrix
        self._null = null_space_1d
        self._params_cls = FridgeParams
        self._subspaces = {"outer_diag": CohSubspace.OUTER_DIAG,
                           "inner_diag": CohSubspace.INNER_DIAG}
        self._steady = steady_state
        self._qsl = qsl_time

    # -- independent physics ------------------------------------------

    def fridge_params(self, p, **override):
        p = dict(p, **override)
        sub = p.get("subspace")
        return self._params_cls(
            E_c=p["Ec"], eta=p["eta"], T_c=p["Tc"], T_r=p["Tr"],
            T_h=p["Th"], p_c=p["pc"], p_r=p["pr"], p_h=p["ph"], g=p["g"],
            kappa=p.get("kappa", 0.0),
            coh_subspace=None if sub is None else self._subspaces[sub])

    @staticmethod
    def ground_pops(p):
        e_c = p["Ec"]
        e_h = e_c / p["eta"]
        energies = (e_c, e_c + e_h, e_h)
        temps = (p["Tc"], p["Tr"], p["Th"])
        return np.array([1.0 / (1.0 + math.exp(-e / t))
                         for e, t in zip(energies, temps)])

    @classmethod
    def initial_state(cls, p):
        r = cls.ground_pops(p)
        diag = np.ones(8)
        for k in range(8):
            for i, bit in enumerate(((k >> 2) & 1, (k >> 1) & 1, k & 1)):
                diag[k] *= (1.0 - r[i]) if bit else r[i]
        rho = np.diag(diag).astype(complex)
        kappa = p.get("kappa", 0.0)
        if kappa:
            a = kappa * math.sqrt(float(np.prod(r * (1.0 - r))))
            i, j = (0, 7) if p["subspace"] == "outer_diag" else (2, 5)
            rho[i, j] = rho[j, i] = a
        return rho

    @classmethod
    def cold_current(cls, p, rho):
        """J_c = p_c E_c (1 - r_c - <n_c>): reset flow into the cold qubit."""
        r_c = cls.ground_pops(p)[0]
        excited = float(np.real(rho.diagonal()[4:].sum()))
        return p["pc"] * p["Ec"] * ((1.0 - r_c) - excited)

    @staticmethod
    def trace_distance(a, b):
        return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())

    # -- per-workload checks ------------------------------------------

    def check(self, op, rc, stdout, csv_bytes):
        """None when the output is right, else a one-line reason."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            if op.kind == "evolve":
                return self._check_evolve(op, csv_bytes)
            if op.kind == "sweep":
                return self._check_sweep(op, csv_bytes)
            return self._check_optimize(op, stdout)
        except Exception as exc:   # unreadable output, or an oracle fault
            return f"check raised {exc!r}"

    def _check_evolve(self, op, csv_bytes):
        """Final CSV row against the exact propagator e^{L t} built from
        an eigendecomposition of L; the allowed deviation is the RK4
        truncation error of each eigenmode, computed in the same basis.
        """
        p, m = op.params, op.meta
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        if rows[0] != ["t", "J_c", "trace_dist_to_steady", "avg_power"]:
            return f"bad header {rows[0]}"
        body = [[float(x) for x in row] for row in rows[1:]]
        n_samples = m["n_steps"] // m["store_every"]
        if len(body) != n_samples + 1:
            return f"{len(body)} rows, expected {n_samples + 1}"
        t, j_c, dist, avg = body[-1]
        if abs(t - m["t_end"]) > 1e-9 * m["t_end"]:
            return f"final time {t!r} != t_end {m['t_end']!r}"

        L = self._L(self.fridge_params(p))
        lam, V = np.linalg.eig(L)
        rho0 = self.initial_state(p)
        c = np.linalg.solve(V, rho0.ravel())
        exact = (V @ (np.exp(lam * t) * c)).reshape(8, 8)
        zero = int(np.argmin(np.abs(lam)))
        rho_f = (V[:, zero] * c[zero]).reshape(8, 8)
        rho_f = 0.5 * (rho_f + rho_f.conj().T)
        z = lam * (t / m["n_steps"])
        rk4 = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        mode_err = np.abs(rk4 ** m["n_steps"] - np.exp(lam * t)) * np.abs(c)
        col_norms = np.linalg.norm(V, axis=0)
        # Frobenius bound on the RK4 state error, plus round-off of the
        # eigenbasis and of n_steps matvecs
        cond = np.linalg.cond(V)
        tol = float(mode_err @ col_norms) + 1e-13 * (cond + m["n_steps"])

        j_exact = self.cold_current(p, exact)
        scale = p["pc"] * p["Ec"]
        if abs(j_c - j_exact) > 2.0 * scale * tol + 1e-12 * scale:
            return f"J_c {j_c!r} vs exact {j_exact!r} (tol {tol:.2e})"
        d_exact = self.trace_distance(exact, rho_f)
        if abs(dist - d_exact) > 2.0 * tol + 1e-10:
            return f"trace distance {dist!r} vs exact {d_exact!r}"
        if abs(avg - j_c / t) > 1e-12 * abs(j_c / t) + 1e-300:
            return "avg_power != J_c/t"
        return None

    def _check_sweep(self, op, csv_bytes):
        """Every row: finite, sign(chi) = -sign(Delta). Seeded rows:
        Q_c, gamma, Delta and chi against the null-space steady state of
        the 64x64 generator."""
        p, m = op.params, op.meta
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        header = ["knob_value", "Q_c", "tau", "chi", "gamma", "delta",
                  "is_fridge", "warnings"]
        if rows[0] != header:
            return f"bad header {rows[0]}"
        body = rows[1:]
        if len(body) != len(m["grid"]):
            return f"{len(body)} rows, expected {len(m['grid'])}"
        for i, row in enumerate(body):
            vals = [float(x) for x in row[:6]]
            if vals[0] != m["grid"][i]:
                return f"row {i}: knob value {vals[0]!r} off the grid"
            if not all(math.isfinite(v) for v in vals):
                return f"row {i}: non-finite output ({row[7]})"
            _, q_c, tau, chi, gamma, delta = vals
            if delta == 0.0 or np.sign(chi) != -np.sign(delta):
                return f"row {i}: sign(chi) {chi!r} vs Delta {delta!r}"
            if (row[6] == "1") != (gamma > 0):
                return f"row {i}: is_fridge disagrees with gamma"
        for i in m["check_rows"]:
            why = self._check_point(p, m["knob"], m["grid"][i],
                                    [float(x) for x in body[i][:6]])
            if why:
                return f"row {i}: {why}"
        return None

    def _point(self, p, knob, value):
        if knob == "g":
            return dict(p, g=value)
        if knob == "p_equal":
            return dict(p, pc=value, pr=value, ph=value)
        if knob == "eta":
            return dict(p, eta=value)
        return dict(p, kappa=value)

    def _check_point(self, p, knob, value, row):
        _, q_c, tau, chi, gamma, delta = row
        pt = self._point(p, knob, value)
        L = self._L(self.fridge_params(pt))
        rho_f = self._null(L, gap_tol=1e-9)
        # Frobenius bound on the null-space state's error: a residual
        # over the smallest nonzero singular value, x4 for the trace
        # normalization, plus the round-off of rho_f - rho0
        sigma = np.linalg.svd(L, compute_uv=False)[-2]
        err = (4.0 * float(np.linalg.norm(L @ rho_f.ravel())) / sigma
               + 1e-15)
        rho0 = self.initial_state(pt)
        r = self.ground_pops(pt)
        q = pt["pc"] + pt["pr"] + pt["ph"]
        q_exact = self.cold_current(pt, rho_f)
        delta_exact = (r[0] * (1 - r[1]) * r[2]
                       - (1 - r[0]) * r[1] * (1 - r[2]))
        gap = abs(float(np.real(np.sum(rho0 * (rho_f - rho0).T))))
        norm = float(np.linalg.norm(L @ rho0.ravel()))
        tau_exact = gap / norm
        chi_exact = q_exact / tau_exact
        d_q = 2.0 * pt["pc"] * pt["Ec"] * err
        d_tau = float(np.linalg.norm(rho0)) * err / norm
        d_chi = abs(chi_exact) * (d_q / abs(q_exact) + d_tau / tau_exact)
        checks = (("Q_c", q_c, q_exact, 1e-7, d_q),
                  ("gamma", gamma, q_exact / (q * pt["Ec"]), 1e-7,
                   d_q / (q * pt["Ec"])),
                  ("Delta", delta, delta_exact, 1e-9, 0.0),
                  ("tau", tau, tau_exact, 1e-6, d_tau),
                  ("chi", chi, chi_exact, 1e-6, d_chi))
        for name, got, want, rtol, atol in checks:
            if abs(got - want) > rtol * abs(want) + atol:
                return f"{name} {got!r} vs null-space {want!r}"
        return None

    def _check_optimize(self, op, stdout):
        """Lock set: eta_star = 0.1910427 +- 5e-6. Every op: chi_star is
        no lower than the best point of the 64-point scan."""
        out = {}
        for line in stdout.splitlines():
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
        eta_star, chi_star = float(out["eta_star"]), float(out["chi_star"])
        p, m = op.params, op.meta
        if m["lock"] and abs(eta_star - LOCK_ETA_STAR) > LOCK_ETA_TOL:
            return f"lock eta_star {eta_star!r} != {LOCK_ETA_STAR}"
        eta_c = _carnot(p)
        lo, hi = m["bracket"] or (1e-2 * eta_c, (1.0 - 1e-6) * eta_c)
        if not lo < eta_star < hi:
            return f"eta_star {eta_star!r} outside ({lo!r}, {hi!r})"
        best = max(self._chi(p, eta) for eta in np.linspace(lo, hi, 64))
        if not chi_star >= best - 1e-12 * abs(best):
            return f"chi_star {chi_star!r} below scan best {best!r}"
        return None

    def _chi(self, p, eta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pt = self.fridge_params(p, eta=float(eta))
            chi = self._qsl(pt, self._steady(pt)).chi
        return chi if math.isfinite(chi) else -math.inf
