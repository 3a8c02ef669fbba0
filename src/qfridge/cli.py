"""Command-line front end: JSON config + flag parsing, command dispatch,
CSV and human-readable output, and the executable verification suite.

The argparse parser is the one registry of settings: a config file may
hold exactly the invoked subcommand's flag names (plus 'grid' for sweep),
with values of the types those flags parse to.
Physics and integrator inputs are validated by the library; run() maps
its refusals to exit codes. A sweep grid's bounds and size are checked
here, before the grid is built. Every CSV is a header line plus one
format string applied to each row of the result's columns, streamed to
the file; the sweep quotes its warnings cell as csv.writer would.

Exit codes: 0 ok, 2 config error, 3 computation error, 4 verification
failure. Identical configs produce byte-identical CSV output.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FridgeError
from .model import CohSubspace, FridgeParams
from .steady import carnot_cop, steady_state
from .dynamics import evolve
from .qsl import qsl_time
from .analysis import KNOBS, SweepSpec, maximize_chi_over_eta, run_sweep

OUTDIR_ENV = "QFRIDGE_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4

# peak bytes per sweep grid point, CSV written: tracemalloc read 273 on
# valid rows, up to 591 on refused rows with notes (1e4 to 1e5 points)
SWEEP_POINT_BYTES = 600


@dataclass(frozen=True)
class RunConfig:
    """One command invocation: its settings (the config file's values with
    the given flags on top) and the inputs built from them."""
    command: str
    settings: dict
    params: FridgeParams = None
    sweep: SweepSpec = None


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

# parameter flags: flag dest, the FridgeParams field it sets, help text
_PARAM_FLAGS = (
    ("Ec", "E_c", "cold qubit energy E_c"),
    ("eta", "eta", "design efficiency E_c/E_h"),
    ("Tc", "T_c", "cold bath temperature"),
    ("Tr", "T_r", "room bath temperature"),
    ("Th", "T_h", "hot bath temperature"),
    ("p", None, "shorthand: all three reset rates"),
    ("pc", "p_c", "cold qubit reset rate"),
    ("pr", "p_r", "room qubit reset rate"),
    ("ph", "p_h", "hot qubit reset rate"),
    ("g", "g", "three-body interaction strength"),
    ("kappa", "kappa", "initial coherence strength in [0, 1]"))


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON file with flat key-value settings; "
                             "flags override file values")
    for key, _, help_text in _PARAM_FLAGS:
        common.add_argument(f"--{key}", type=float, default=None,
                            help=help_text)
    common.add_argument("--subspace",
                        choices=sorted(s.value for s in CohSubspace),
                        default=None, help="coherence subspace")
    writes_csv = argparse.ArgumentParser(add_help=False, parents=[common])
    writes_csv.add_argument("--out", default=None, metavar="PATH",
                            help="output CSV path (default: "
                                 "$%s/<command>.csv)" % OUTDIR_ENV)

    parser = argparse.ArgumentParser(
        prog="qfridge",
        description="Three-qubit absorption refrigerator: steady states, "
                    "reset-model dynamics, speed-limit bounds, and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[writes_csv],
                   help="analytic steady state and cooling summary")
    ev = sub.add_parser("evolve", parents=[writes_csv],
                        help="integrate the master equation, write "
                             "trajectory CSV")
    ev.add_argument("--t-end", dest="t_end", type=float, default=None)
    ev.add_argument("--dt", type=float, default=None)
    ev.add_argument("--store-every", dest="store_every", type=int,
                    default=None)
    sub.add_parser("qsl", parents=[writes_csv],
                   help="speed-limit time tau and chi = Q_c/tau")
    sw = sub.add_parser("sweep", parents=[writes_csv],
                        help="sweep one knob, write sweep CSV")
    sw.add_argument("--knob", choices=KNOBS, default=None)
    sw.add_argument("--log", nargs=3, type=float, default=None,
                    metavar=("LO", "HI", "N"), help="logarithmic grid")
    sw.add_argument("--lin", nargs=3, type=float, default=None,
                    metavar=("LO", "HI", "N"), help="linear grid")
    sw.add_argument("--outputs", default=None,
                    help="comma-separated subset of CSV fields to emit")
    sw.set_defaults(grid=None)   # config-file only: an explicit grid list
    op = sub.add_parser("optimize", parents=[common],
                        help="maximize chi over the efficiency")
    op.add_argument("--bracket", nargs=2, type=float, default=None,
                    metavar=("LO", "HI"))
    sub.add_parser("verify", help="run the acceptance/invariant suite")
    actions = {name: {a.dest: a for a in p._actions}
               for name, p in sub.choices.items()}
    return parser, actions


# the parser and, per subcommand, its actions by dest
_PARSER, _ACTIONS = _build_parser()

# sweep CSV columns between knob_value and warnings, in column order
_SWEEP_COLUMNS = ("Q_c", "tau", "chi", "gamma", "delta", "is_fridge")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_file_value(key, value, action):
    """A config-file value must be what its flag would parse to: a JSON
    number for a numeric flag, otherwise a string, one of the flag's
    choices if it has any; a list of nargs of those for a multi-value
    flag. 'grid' has no flag; it must be a non-empty list of numbers."""
    if action is None:
        want = "a non-empty list of numbers"
        ok = isinstance(value, list) and value and all(map(_is_number, value))
    else:
        numeric, choices = action.type in (int, float), action.choices
        want = ("a number" if numeric else "a string" if choices is None
                else f"one of {sorted(choices)}")
        fits = _is_number if numeric else lambda v: (
            isinstance(v, str) and (choices is None or v in choices))
        if action.nargs is None:
            ok = fits(value)
        else:
            want = f"a list of {action.nargs} items, each {want}"
            ok = (isinstance(value, list) and len(value) == action.nargs
                  and all(map(fits, value)))
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, "
                          f"got {value!r}")


def _settings(args):
    """The config file's values with every given flag on top; the keys
    allowed in the file are the subcommand's own parser dests, and their
    values must have the types the flags parse to."""
    flags = vars(args)
    command, path = flags.pop("command"), flags.pop("config", None)
    settings = {}
    if path:
        try:
            with open(path) as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}")
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key in settings:
            if key not in flags:
                raise ConfigError(
                    f"unknown config key {key!r} for command {command!r}; "
                    f"allowed: {sorted(flags)}")
            if settings[key] is not None:
                _check_file_value(key, settings[key],
                                  _ACTIONS[command].get(key))
    settings.update((k, v) for k, v in flags.items() if v is not None)
    return command, settings


def _build_params(settings, seed=None):
    """FridgeParams from the settings. A rate not given takes the p
    shorthand; a field still unset takes its value in `seed` (FridgeParams
    field -> value), and kappa defaults to 0."""
    fields = {}
    for key, field, _ in _PARAM_FLAGS:
        if field is None:   # the p shorthand, read by the rates
            continue
        value = settings.get(key)
        if value is None and field in KNOBS["p_equal"]:
            value, key = settings.get("p"), f"{key} (or the p shorthand)"
        if value is None:
            value = (seed or {}).get(field)
        if value is not None:
            fields[field] = value
        elif field != "kappa":
            raise ConfigError(f"missing required parameter {key!r}")
    try:
        return FridgeParams(**fields, coh_subspace=settings.get("subspace"))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _sweep_grid(settings):
    """The sweep grid, refused before it is built where its evaluation
    would not fit in the machine's physical memory."""
    log, lin, grid = (settings.get(k) for k in ("log", "lin", "grid"))
    given = [name for name, v in (("log", log), ("lin", lin),
                                  ("grid", grid)) if v is not None]
    if len(given) != 1:
        raise ConfigError("sweep needs exactly one grid source: "
                          "--log LO HI N, --lin LO HI N, or a config "
                          f"'grid' list (got {given or 'none'})")
    if grid is None:
        lo, hi, n = (log if log is not None else lin)
        if not (math.isfinite(n) and n == int(n) and n >= 1):
            raise ConfigError(f"grid point count must be a positive "
                              f"integer, got {n}")
        for name, bound in (("LO", lo), ("HI", hi)):
            if not math.isfinite(bound):
                raise ConfigError(f"--{given[0]} grid requires a finite "
                                  f"{name}, got {bound}")
            if log is not None and bound <= 0:
                raise ConfigError(f"--log grid requires {name} > 0, got "
                                  f"{bound}")
    n = len(grid) if grid is not None else int(n)
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n * SWEEP_POINT_BYTES > phys:
        raise ConfigError("sweep: %d grid points need more than the "
                          "machine's %.3g GB of memory" % (n, phys / 1e9))
    if grid is not None:
        return tuple(float(v) for v in grid)
    return tuple((np.geomspace if log is not None else np.linspace)(lo, hi, n))


def _sweep_columns(settings):
    """The sweep CSV columns --outputs selects, in table order; all of
    them when it names none."""
    given = [s.strip() for s in (settings.get("outputs") or "").split(",")]
    for name in filter(None, given):
        if name not in _SWEEP_COLUMNS:
            raise ConfigError(f"unknown output field {name!r}; expected a "
                              f"subset of {_SWEEP_COLUMNS}")
    return [n for n in _SWEEP_COLUMNS if n in given] or _SWEEP_COLUMNS


def parse_config(argv):
    """Parse flags (+ optional JSON config) into a RunConfig with its
    parameters and sweep spec built."""
    command, settings = _settings(_PARSER.parse_args(argv))
    if command == "verify":
        return RunConfig(command, settings)
    if command != "sweep":
        return RunConfig(command, settings, _build_params(settings))
    # the swept parameter itself may be omitted; seed the base value
    # from the start of the grid (every grid point replaces it anyway)
    knob = settings.get("knob")
    if knob is None:
        raise ConfigError("sweep requires --knob (g, p_equal, eta, or kappa)")
    grid = _sweep_grid(settings)
    params = _build_params(settings, dict.fromkeys(KNOBS[knob], grid[0]))
    try:
        spec = SweepSpec(base=params, knob=knob, grid=grid)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _sweep_columns(settings)   # refuse an unknown --outputs name up front
    return RunConfig(command, settings, params, spec)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def _out_path(config, default_name):
    out = config.settings.get("out")
    if out is not None:
        return out
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), default_name)


def _fmt(x):
    return "%.17g" % x


def _write_csv(config, default_name, header, fmt, rows):
    """Write the header line, then fmt % row for each row (fmt ends in a
    newline), streamed to the command's CSV path; returns the path."""
    path = _out_path(config, default_name)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(map(fmt.__mod__, rows))
    return path


def _csv_cell(text):
    """text as csv.writer writes it as one field of a longer row: quoted
    where QUOTE_MINIMAL quotes it, as is otherwise. The writer's
    terminator holds both \r and \n so that either one is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]   # drop the empty field's ",\r\n"


def _run_steady(config):
    p = config.params
    srep = steady_state(p)
    # degenerate temperatures have no Carnot point
    eta_c = (carnot_cop(p.T_c, p.T_r, p.T_h) if p.T_c < p.T_r < p.T_h
             else float("nan"))
    print(f"delta        = {_fmt(srep.delta)}")
    print(f"gamma        = {_fmt(srep.gamma)}")
    print(f"Q_c          = {_fmt(srep.q_cool)}")
    print(f"eta          = {_fmt(p.eta)}")
    print(f"eta_carnot   = {_fmt(eta_c)}")
    print(f"is_fridge    = {srep.is_fridge}")
    print("wrote", _write_csv(
        config, "steady.csv", "delta,gamma,Q_c,eta,eta_carnot,is_fridge",
        "%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
        [(srep.delta, srep.gamma, srep.q_cool, p.eta, eta_c,
          srep.is_fridge)]))
    return EXIT_OK


def _run_qsl(config):
    rep = qsl_time(config.params, steady_state(config.params))
    print(f"tau            = {_fmt(rep.tau)}")
    print(f"purity_gap     = {_fmt(rep.purity_gap)}")
    print(f"generator_norm = {_fmt(rep.generator_norm)}")
    print(f"chi            = {_fmt(rep.chi)}")
    print("wrote", _write_csv(
        config, "qsl.csv", "tau,purity_gap,generator_norm,chi",
        "%.17g,%.17g,%.17g,%.17g\n",
        [(rep.tau, rep.purity_gap, rep.generator_norm, rep.chi)]))
    return EXIT_OK


def _run_evolve(config):
    srep = steady_state(config.params)
    s = config.settings
    traj = evolve(config.params, t_end=s.get("t_end"), dt=s.get("dt"),
                  store_every=s.get("store_every"))
    dists = traj.trace_distances(srep.rho_f)
    power = np.divide(traj.currents, traj.times, where=traj.times > 0,
                      out=np.zeros_like(traj.currents))
    print(f"evolved to t = {_fmt(traj.times[-1])} in {len(traj)} stored "
          f"samples; final trace distance to steady state {dists[-1]:.3e}")
    print("wrote", _write_csv(
        config, "trajectory.csv", "t,J_c,trace_dist_to_steady,avg_power",
        "%.17g,%.17g,%.17g,%.17g\n",
        zip(traj.times.tolist(), traj.currents.tolist(), dists.tolist(),
            power.tolist())))
    return EXIT_OK


def _run_sweep(config):
    """Sweep CSV: knob_value, the --outputs columns (all by default) in
    table order, warnings; numbers as %.17g (round-trip exact, is_fridge
    0/1), the row's warnings joined by ';' and quoted as csv.writer
    quotes them."""
    pts = run_sweep(config.sweep)
    table = dict(zip(_SWEEP_COLUMNS, (pts.q_cool, pts.tau, pts.chi,
                                      pts.gamma, pts.delta, pts.gamma > 0)))
    names = _sweep_columns(config.settings)
    cells = {notes: _csv_cell(";".join(notes)) for notes in set(pts.notes)}
    path = _write_csv(
        config, "sweep.csv", ",".join(["knob_value", *names, "warnings"]),
        "%.17g," * (1 + len(names)) + "%s\n",
        zip(config.sweep.grid, *(table[n].tolist() for n in names),
            map(cells.__getitem__, pts.notes)))
    n_bad = sum(1 for notes in pts.notes if notes)
    print(f"swept {config.sweep.knob} over {len(pts.notes)} points "
          f"({n_bad} with warnings); wrote {path}")
    return EXIT_OK


def _run_optimize(config):
    params = config.params
    opt = maximize_chi_over_eta(params,
                                bracket=config.settings.get("bracket"))
    print(f"eta_star   = {_fmt(opt.eta_star)}")
    print(f"chi_star   = {_fmt(opt.chi_star)}")
    print(f"f_value    = {_fmt(opt.f_value)}")
    eta_c = carnot_cop(params.T_c, params.T_r, params.T_h)
    print(f"eta_carnot = {_fmt(eta_c)}")
    return EXIT_OK


def _run_verify(_config):
    # imported here: no other command needs the acceptance suite
    from .verify import FAIL, format_report, run_all_checks
    results = run_all_checks()
    print(format_report(results))
    failed = any(r.status == FAIL for r in results)
    return EXIT_VERIFY if failed else EXIT_OK


_RUNNERS = {"steady": _run_steady, "evolve": _run_evolve, "qsl": _run_qsl,
            "sweep": _run_sweep, "optimize": _run_optimize,
            "verify": _run_verify}


def run(config):
    """Execute a RunConfig; returns the process exit code.

    A FridgeError or a numerical failure (numpy's LinAlgError) is a
    computation error; any other ValueError is the library refusing an
    input, a config error, and so is an output file that cannot be
    written (an OSError: the runners do no other I/O).
    """
    try:
        return _RUNNERS[config.command](config)
    except (FridgeError, np.linalg.LinAlgError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None):
    """Parse and run one command; returns the exit code.

    Warnings from parsing or running pass the active filters as usual (so
    `-W error::RuntimeWarning` still raises) and each distinct one is
    printed once on stderr as `warning: <Category>: <message>`.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            config = parse_config(argv if argv is not None else sys.argv[1:])
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        else:
            code = run(config)
    for line in dict.fromkeys(f"warning: {w.category.__name__}: {w.message}"
                              for w in caught):
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
