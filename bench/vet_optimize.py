"""Vet the candidate bases of the optimize workload.

    python3 bench/vet_optimize.py [--candidates N]

Run from the root of a source checkout. Writes bench/optimize_pool.json:
the indices of the candidates (bench/ops.py, optimize_candidates) that
the optimize workload may draw. A candidate is kept when, on qfridge's
default bracket (1e-2, 1 - 1e-6) x the Carnot eta:

  - the signed purity gap gamma tr(rho_diag sigma) keeps one sign at
    256 points, so chi has no pole (qfridge.analysis documents that the
    search converges onto such a pole, and that an interior optimum is
    meaningful only where the gap keeps one sign);
  - the best point of the 64-point scan lies at least two cells inside
    the bracket, with finite chi on both sides, so that the maximum is
    interior by a margin and not a boundary maximum;
  - `qfridge optimize` on it passes the benchmark's oracle.

The first two are properties of the machine's physics; the third checks
that the kept bases run.
"""

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import ops as ops_mod  # noqa: E402
from qfridge.linalg import tensor, trace_product  # noqa: E402
from qfridge.model import thermal_populations, thermal_qubit  # noqa: E402
from qfridge.qsl import qsl_time  # noqa: E402
from qfridge.steady import steady_state  # noqa: E402
from worker import Client  # noqa: E402
import qfridge.cli  # noqa: E402


def signed_gap(fp):
    """gamma tr(rho_diag sigma): the purity gap before its absolute value
    (kappa = 0, so the coherence term is absent)."""
    srep = steady_state(fp)
    r = thermal_populations(fp)
    rho_diag = tensor(thermal_qubit(r.r_c),
                      tensor(thermal_qubit(r.r_r), thermal_qubit(r.r_h)))
    return srep.gamma * float(trace_product(rho_diag, srep.sigma).real)


def why_dropped(oracle, client, p):
    fp = oracle.fridge_params(p)
    eta_c = ops_mod._carnot(p)
    lo, hi = 1e-2 * eta_c, (1.0 - 1e-6) * eta_c
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gaps = np.array([signed_gap(replace(fp, eta=float(e)))
                         for e in np.linspace(lo, hi, 256)])
        gaps = gaps[np.isfinite(gaps) & (gaps != 0.0)]
        if np.any(np.sign(gaps) != np.sign(gaps[0])):
            return "purity gap changes sign"
        chi = np.array([qsl_time(replace(fp, eta=float(e)),
                                 steady_state(replace(fp, eta=float(e)))).chi
                        for e in np.linspace(lo, hi, 64)])
    i = int(np.argmax(np.where(np.isfinite(chi), chi, -np.inf)))
    if not (2 <= i <= len(chi) - 3 and np.isfinite(chi[i - 2:i + 3]).all()):
        return f"scan maximum at index {i}"
    op = ops_mod.Op("optimize", ["optimize"] + ops_mod._param_argv(p), p,
                    False, dict(bracket=None, lock=False), 1.0)
    rc, stdout = client.call(op)
    return oracle.check(op, rc, stdout, b"")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--candidates", type=int, default=1000)
    args = ap.parse_args(argv)
    oracle, client = ops_mod.Oracle(), Client(qfridge.cli)
    kept = []
    for i, p in enumerate(ops_mod.optimize_candidates(args.candidates)):
        why = why_dropped(oracle, client, p)
        if why is None:
            kept.append(i)
        else:
            print(f"candidate {i} dropped: {why}")
    with open(os.path.join(BENCH_DIR, ops_mod.POOL_FILE), "w") as fh:
        json.dump({"candidates": args.candidates, "kept": kept}, fh)
        fh.write("\n")
    print(f"kept {len(kept)} of {args.candidates} candidates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
