"""One workload process: a single-threaded closed-loop client that calls
`qfridge.cli.main` in-process, one op at a time, over a fixed op list.

Modes:
  setup  import, build the op list, run one untimed warm-up op, report
         the monotonic time at which the first timed op would start;
  run    setup, then whole passes over the op list for --seconds of
         pass time (to the nearest pass), then check every op's output;
  trace  setup, untraced passes for half of --seconds, traced passes for
         the other half, then the same checks plus the per-layer report.

The last stdout line is one JSON object for bench/run.py.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

# one BLAS thread: the client is single-threaded and no matrix exceeds
# 64x64; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import ops as ops_mod
from tracer import LAYERS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# traced runs must account for nearly all traced wall time in spans
MIN_COVERAGE = 0.98


def _import_qfridge():
    """qfridge from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import qfridge
    import qfridge.cli
    where = os.path.dirname(os.path.abspath(qfridge.__file__))
    if where != os.path.join(SRC, "qfridge"):
        raise ImportError(f"qfridge imported from {where}, not {SRC}")
    return qfridge


class Client:
    """Runs ops through the CLI entry point and reads back their output."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(op.argv)
            except Exception:
                rc = "raised " + traceback.format_exc(limit=-1).strip()
        return rc, out.getvalue()

    @staticmethod
    def collect(op):
        if not op.csv_out:
            return b""
        path = op.argv[op.argv.index("--out") + 1]
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except OSError:
            return b""


def _digest(rc, stdout, data):
    return hashlib.blake2b(repr(rc).encode() + stdout.encode() + data,
                           digest_size=16).digest()


def timed_passes(ops, budget_s, call, collect, first=None):
    """Whole passes over ops, as many as bring pass time nearest budget_s.

    Returns (latencies, wall seconds, passes, outputs of the first pass,
    per-pass output digests). `first` lets later passes be compared with
    a first pass recorded earlier.
    """
    clock = time.perf_counter
    latencies, digests = [], []
    wall, passes = 0.0, 0
    keep = first is None
    first = [] if first is None else first
    # stop when one more pass of the mean length would overshoot the
    # budget by more than it would fall short without it
    while passes == 0 or wall + 0.5 * wall / passes < budget_s:
        pass_digests = []
        t_pass = clock()
        for op in ops:
            t0 = clock()
            rc, stdout = call(op)
            latencies.append(clock() - t0)
            data = collect(op)
            if keep:
                first.append((rc, stdout, data))
            pass_digests.append(_digest(rc, stdout, data))
        wall += clock() - t_pass
        passes += 1
        keep = False
        digests.append(pass_digests)
    return latencies, wall, passes, first, digests


def check_outputs(oracle, ops, first, digests):
    """Failed (pass, op) count and the first few failure reasons."""
    reasons = []
    bad = set()
    for k, (op, (rc, stdout, data)) in enumerate(zip(ops, first)):
        why = oracle.check(op, rc, stdout, data)
        if why is not None:
            bad.add(k)
            reasons.append(f"op {k} ({op.kind}): {why}")
    ref = [_digest(*rec) for rec in first]
    failed = 0
    for pass_digests in digests:
        for k, d in enumerate(pass_digests):
            if k in bad or d != ref[k]:
                failed += 1
                if k not in bad and len(reasons) < 20:
                    reasons.append(f"op {k}: output differs from first pass")
    return failed, reasons[:20]


def blas_info():
    """BLAS name, version and the thread count it reports."""
    import ctypes
    import glob
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(workload, seed):
    import platform
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "platform": platform.platform(),
    }


def layer_report(tracer, ops, first, n_traced_ops, untraced, traced):
    """Per-layer metrics, per op of the traced passes."""
    s = tracer.summary()
    idx = {n: i for i, n in enumerate(s["names"])}

    def per_op(arr, qual):
        return float(arr[idx[qual]]) / n_traced_ops if qual in idx else 0.0

    m = {}
    for layer in LAYERS:
        members = [i for n, i in idx.items() if n.split(".")[0] == layer]
        for key, arr, unit in (("self_s", s["self_s"], "s/op"),
                               ("calls", s["calls"], "calls/op"),
                               ("errors", s["raised"], "errors/op")):
            m[f"{layer}.{key}"] = (float(arr[members].sum()) / n_traced_ops,
                                   unit)
    for qual in ("dynamics.evolve", "dynamics.heat_current_cold",
                 "dynamics.liouvillian_matrix", "linalg.tensor",
                 "linalg.trace_distance", "steady.sigma_matrix",
                 "qsl.qsl_time", "analysis.run_sweep", "cli.run",
                 "cli.parse_config"):
        m[f"{qual}.self_s"] = (per_op(s["self_s"], qual), "s/op")
    m["dynamics.liouvillian_matrix.total_s"] = (
        per_op(s["total_s"], "dynamics.liouvillian_matrix"), "s/op")
    for qual in ("dynamics.liouvillian_apply", "linalg.tensor",
                 "steady.steady_state"):
        m[f"{qual}.calls"] = (per_op(s["calls"], qual), "calls/op")

    n_opt = sum(1 for op in ops if op.kind == "optimize")
    evals = tracer.calls_under("analysis.maximize_chi_over_eta",
                               "qsl.qsl_time")
    m["analysis.chi_evals_per_op"] = (
        evals / (n_traced_ops * n_opt / len(ops)) if n_opt else 0.0,
        "evals/op")
    rows = bad_rows = 0
    for op, (_, _, data) in zip(ops, first):
        if op.kind == "sweep":
            lines = data.decode().splitlines()[1:]
            rows += len(lines)
            bad_rows += sum(1 for ln in lines if ln.split(",")[1] == "nan")
    m["analysis.error_rows_share"] = (bad_rows / rows if rows else 0.0,
                                      "share")
    m["trace.overhead"] = (traced / untraced, "ratio")
    return m, s


def measure(args):
    qfridge = _import_qfridge()
    ops = ops_mod.make_ops(args.workload, args.seed,
                           os.path.join(args.outdir, "op.csv"))
    client = Client(qfridge.cli)
    client.call(ops_mod.warmup_op(ops))
    result = {"first_op_at": time.monotonic()}
    if args.mode == "setup":
        return result

    oracle = ops_mod.Oracle()
    if args.mode == "run":
        lat, wall, passes, first, digests = timed_passes(
            ops, args.seconds, client.call, client.collect)
        pct = ops_mod.tail_percentile(len(ops))
        # each op's latency is its mean over the passes, which ran
        # seconds apart. A shared core flips between fast and slow
        # states; the mean follows the share of each smoothly, where a
        # median snaps to whichever state held for most of the run and
        # spread about half as much again across runs
        op_ms = np.reshape(lat, (passes, len(ops))).mean(axis=0) * 1e3
        result.update(
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ops_per_s=len(lat) / wall,
            op_p50_ms=float(np.median(op_ms)),
            op_tail_ms=float(np.percentile(op_ms, pct)), tail_pct=pct,
            passes=passes, ops_per_pass=len(ops), wall_s=wall)
    else:
        half = args.seconds / 2.0
        lat, wall, passes, first, digests = timed_passes(
            ops, half, client.call, client.collect)
        tracer = Tracer()
        call = tracer.wrap("bench.op", client.call)
        collect = tracer.wrap("bench.collect", client.collect)
        tracer.install()
        try:
            stale = tracer.stale_bindings()
            t_lat, t_wall, t_passes, _, t_digests = timed_passes(
                ops, half, call, collect, first=first)
        finally:
            tracer.uninstall()
        digests += t_digests
        metrics, s = layer_report(tracer, ops, first, len(t_lat),
                                  wall / passes, t_wall / t_passes)
        coverage = s["root_s"] / t_wall
        metrics["trace.coverage"] = (coverage, "share")
        problems = []
        if coverage < MIN_COVERAGE:
            problems.append(f"spans cover {coverage:.4f} of traced wall "
                            f"time, below {MIN_COVERAGE}")
        if stale:
            problems.append(f"unwrapped bindings left: {stale}")
        bare = [layer for layer in LAYERS
                if not any(q.startswith(layer + ".") for q in tracer.wrapped)]
        if bare:
            problems.append(f"layers with no wrapped function: {bare}")
        spans_path = os.path.join(os.path.dirname(args.outdir),
                                  f"spans-{args.workload}.npz")
        np.savez(spans_path, names=np.array(tracer.names), **tracer.arrays())
        result.update(metrics={k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                      passes=passes, traced_passes=t_passes,
                      wrapped=tracer.wrapped, rebound=tracer.rebound,
                      stale=stale, coverage=coverage, problems=problems,
                      spans_file=os.path.relpath(spans_path, ROOT))

    failed, reasons = check_outputs(oracle, ops, first, digests)
    result.update(attempted=len(digests) * len(ops), failed=failed,
                  failures=reasons, env=environment(args.workload, args.seed))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    try:
        result = measure(args)
    finally:
        shutil.rmtree(args.outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
