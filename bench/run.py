"""qfridge benchmark: end-to-end and per-layer numbers for the CLI paths.

    python3 bench/run.py --workload {transient,sweep,optimize} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports qfridge from its
src/ directory. Each workload runs in its own process (bench/worker.py):
one closed-loop client calling `qfridge.cli.main` in-process over a
fixed op list built from the seed (bench/ops.py), BLAS pinned to one
thread. Every op's output is checked against an oracle.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh processes of process start -> first
               timed op (import, op-list build, one untimed warm-up op)
  ops_per_s    completed ops per second of pass wall time
  op_p50_ms    median over the op list of each op's mean latency over
               the passes
  op_tail_ms   the same at the highest whole percentile with at least
               ten ops beyond it (reported as tail_pct)
  ok_share     share of attempted ops whose output passed its oracle
               (1 - failed_share; a metric must never read 0)
  peak_rss_mb  peak resident memory of the workload process
--trace 1 prints the per-layer metrics of a separate traced run (see
bench/tracer.py and bench/README.md).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it records the environment and run details.
The exit code is 0 whenever that line is printed, also when an output
failed its check (then correct is false and the reasons go to stderr);
it is nonzero when no result could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("transient", "sweep", "optimize")

# fresh processes that only set up, besides the measured run's own
SETUP_PROBES = 6
# the whole invocation must end within this many seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, mode, deadline):
    """Run one worker process; its JSON record plus its setup time."""
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}-{mode}")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--outdir", workdir]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} worker printed no result:\n"
                         + proc.stderr[-2000:])
    record["setup_s"] = record["first_op_at"] - t0
    return record


def end_to_end(args, deadline):
    # setup probes before and after the run, so that their median spans
    # the run's spell of machine load
    setups = [spawn(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES // 2)]
    rec = spawn(args, "run", deadline)
    setups.append(rec["setup_s"])
    setups += [spawn(args, "setup", deadline)["setup_s"]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    attempted, failed = rec["attempted"], rec["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rec["ops_per_s"], "1/s"),
        "op_p50_ms": (rec["op_p50_ms"], "ms"),
        "op_tail_ms": (rec["op_tail_ms"], "ms"),
        "ok_share": (1.0 - failed / attempted, "share"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    info = {k: rec[k] for k in ("env", "tail_pct", "passes", "ops_per_pass",
                                "wall_s", "failures")}
    info.update(setup_samples_s=setups, failed_share=failed / attempted)
    return rec, metrics, info, []


def traced(args, deadline):
    rec = spawn(args, "trace", deadline)
    metrics = {k: (v["value"], v["unit"]) for k, v in rec["metrics"].items()}
    info = {k: rec[k] for k in ("env", "passes", "traced_passes", "coverage",
                                "stale", "wrapped", "rebound", "spans_file",
                                "failures")}
    return rec, metrics, info, rec["problems"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qfridge", "cli.py")):
        print("bench: no qfridge sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        rec, metrics, info, problems = (traced if args.trace else end_to_end)(
            args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for reason in info["failures"] + problems:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"  {args.workload:9s} {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": rec["failed"] == 0 and not problems,
        "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
