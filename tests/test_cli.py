import csv
import io
import json
import math
import os
import warnings

import pytest

from qfridge import (ConfigError, SweepSpec, evolve, run_sweep, steady_state,
                     trace_distance)
from qfridge import analysis
from qfridge.qsl import evaluate
from qfridge.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY,
                         _ACTIONS, _csv_cell, main, parse_config)
from qfridge.verify import CheckResult

FIG2 = ["--Ec", "1", "--eta", "0.5", "--Tc", "1", "--Tr", "2", "--Th", "10",
        "--p", "0.05", "--g", "0.05"]


# ----------------------------------------------------------------------
# config assembly
# ----------------------------------------------------------------------

def test_shorthand_rate_expansion():
    cfg = parse_config(["steady"] + FIG2)
    assert cfg.params.ps == (0.05, 0.05, 0.05)


def test_individual_rate_overrides_shorthand():
    cfg = parse_config(["steady"] + FIG2 + ["--pr", "0.02"])
    assert cfg.params.ps == (0.05, 0.02, 0.05)


def test_missing_parameter_named():
    argv = ["steady", "--Ec", "1", "--eta", "0.5", "--Tc", "1", "--Tr", "2",
            "--Th", "10", "--p", "0.05"]   # no --g
    with pytest.raises(ConfigError, match="'g'"):
        parse_config(argv)


def test_config_file_supplies_values(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"Ec": 1, "eta": 0.5, "Tc": 1, "Tr": 2,
                                "Th": 10, "p": 0.05, "g": 0.05}))
    cfg = parse_config(["steady", "--config", str(path)])
    assert cfg.params.g == 0.05
    # flags override the file
    cfg = parse_config(["steady", "--config", str(path), "--g", "0.01"])
    assert cfg.params.g == 0.01


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"Ec": 1, "bogus": 3}))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(["steady", "--config", str(path)])


def _config_refused_by_verify(path, capsys):
    # verify takes no --config, so no key in the file reaches it
    with pytest.raises(SystemExit) as info:
        main(["verify", "--config", str(path)])
    assert info.value.code == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("steady", "knob"),      # 'knob' belongs to sweep, not steady
    ("optimize", "out"),     # optimize and verify write no CSV
    ("verify", "out"),
    ("steady", "grid"),
    ("evolve", "bracket"),
])
def test_command_scoped_key_rejected(tmp_path, capsys, command, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: 1}))
    if command == "verify":
        _config_refused_by_verify(path, capsys)
        return
    with pytest.raises(ConfigError, match=key):
        parse_config([command, "--config", str(path)])


_PARAM_KEYS = {"Ec", "eta", "Tc", "Tr", "Th", "p", "pc", "pr", "ph", "g",
               "kappa", "subspace"}


@pytest.mark.parametrize("command, own_keys", [
    ("steady", {"out"}),
    ("evolve", {"out", "t_end", "dt", "store_every"}),
    ("qsl", {"out"}),
    ("sweep", {"out", "knob", "log", "lin", "grid", "outputs"}),
    ("optimize", {"bracket"}),
    ("verify", set()),
])
def test_config_keys_are_the_subcommand_flags(tmp_path, capsys, command,
                                              own_keys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"bogus": 1}))
    if command == "verify":
        # no flag, so no key: the parser holds only --help
        assert set(_ACTIONS["verify"]) == {"help"}
        _config_refused_by_verify(path, capsys)
        return
    with pytest.raises(ConfigError) as info:
        parse_config([command, "--config", str(path)])
    listed = str(info.value).split("allowed: ")[1]
    assert listed == str(sorted(_PARAM_KEYS | own_keys))


def test_verify_takes_no_settings(tmp_path, capsys):
    # run_all_checks reads no setting, so verify has no flag and no
    # config file to take one from
    path = tmp_path / "run.json"
    path.write_text(json.dumps({}))
    for argv in (["verify", "--g", "1"], ["verify", "--config", str(path)]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_CONFIG
        assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_out_flag_only_where_a_csv_is_written(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--out", "x.csv"])
    assert info.value.code == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


def test_malformed_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(["steady", "--config", str(path)])


@pytest.mark.parametrize("command, key, value", [
    ("evolve", "t_end", "5"),
    ("evolve", "store_every", "3"),
    ("evolve", "dt", True),
    ("steady", "g", True),
    ("sweep", "grid", ["a"]),
    ("sweep", "grid", "0.1"),
    ("sweep", "grid", []),
    ("sweep", "log", [1e-3, "x", 5]),
    ("sweep", "lin", [0.01, 0.03]),
    ("optimize", "bracket", ["a", "b"]),
    ("optimize", "bracket", 0.3),
    ("steady", "out", ["x.csv"]),
    ("sweep", "knob", ["g"]),
    ("sweep", "outputs", 5),
    ("steady", "subspace", ["outer_diag"]),
    ("steady", "subspace", "middle"),
], ids=["t_end-str", "store_every-str", "dt-bool", "g-bool", "grid-str-item",
        "grid-str", "grid-empty", "log-str-item", "lin-short",
        "bracket-str-items", "bracket-scalar", "out-list", "knob-list",
        "outputs-int", "subspace-list", "subspace-not-a-choice"])
def test_config_value_of_the_wrong_type(tmp_path, capsys, command, key,
                                        value):
    # the file's value must be what the flag would parse to (an integer
    # 'out' is never tried in-process: open() would take it for a file
    # descriptor of the test process)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    argv = [command, "--config", str(path)]
    argv += FIG2[:-2] if key == "g" else FIG2   # the file supplies g
    if command != "optimize":
        argv += ["--out", str(tmp_path / "x.csv")]
    if command == "sweep":
        argv += ["--knob", "g"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key {key!r} must be ")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def _config_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "[1, 2]"],
                         ids=["missing-file", "json-array"])
def test_unusable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content)
    argv = ["steady", "--config", str(path), "--out", str(tmp_path / "x.csv")]
    assert main(argv + FIG2) == EXIT_CONFIG
    assert _config_error_line(capsys)
    assert not (tmp_path / "x.csv").exists()


def test_physics_validation_becomes_config_error():
    argv = ["steady", "--Ec", "1", "--eta", "0.5", "--Tc", "5", "--Tr", "2",
            "--Th", "10", "--p", "0.05", "--g", "0.05"]   # T_c > T_r
    with pytest.raises(ConfigError):
        parse_config(argv)


def test_sweep_grid_sources():
    cfg = parse_config(["sweep", "--knob", "g", "--log", "1e-3", "1e-1", "3"]
                       + FIG2)
    assert cfg.sweep.grid == pytest.approx((1e-3, 1e-2, 1e-1))
    cfg = parse_config(["sweep", "--knob", "g", "--lin", "0.01", "0.03", "3"]
                       + FIG2)
    assert cfg.sweep.grid == pytest.approx((0.01, 0.02, 0.03))
    with pytest.raises(ConfigError):   # both grid flavors at once
        parse_config(["sweep", "--knob", "g", "--log", "1e-3", "1e-1", "3",
                      "--lin", "0.01", "0.03", "3"] + FIG2)
    with pytest.raises(ConfigError):   # no grid at all
        parse_config(["sweep", "--knob", "g"] + FIG2)


def test_unknown_sweep_knob_in_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"knob": "bogus", "grid": [0.01, 0.02]}))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(["sweep", "--config", str(path)] + FIG2)


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_sweep_outputs_select_columns(tmp_path, via_config):
    out, path = tmp_path / "sweep.csv", tmp_path / "run.json"
    argv = (["sweep", "--knob", "g", "--log", "1e-3", "1e-1", "3"] + FIG2
            + ["--out", str(out)])
    if via_config:
        path.write_text(json.dumps({"outputs": "chi,tau"}))
        argv += ["--config", str(path)]
    else:
        argv += ["--outputs", "chi,tau"]
    assert main(argv) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["knob_value", "tau", "chi", "warnings"]
    assert len(rows) == 4 and all(len(row) == 4 for row in rows)


def test_sweep_csv_golden(tmp_path, cooling_params):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--knob", "g", "--lin", "0.01", "0.02", "2"] + FIG2
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    lines = a.read_text().splitlines()
    assert lines[0] == "knob_value,Q_c,tau,chi,gamma,delta,is_fridge,warnings"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.01"
    assert first[6] == "1"
    # 17 significant digits round-trip exactly
    pts = run_sweep(SweepSpec(base=cooling_params, knob="g",
                              grid=(0.01, 0.02)))
    assert float(first[3]) == pts.chi[0]
    # deterministic: a second run is byte-identical
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert b.read_bytes() == a.read_bytes()


def test_sweep_csv_output_subset(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = (["sweep", "--knob", "g", "--lin", "0.01", "0.02", "2"] + FIG2
            + ["--outputs", "chi,is_fridge", "--out", str(out)])
    assert main(argv) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "knob_value,chi,is_fridge,warnings"


def test_sweep_unknown_output_is_refused(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = (["sweep", "--knob", "g", "--lin", "0.01", "0.02", "2"] + FIG2
            + ["--outputs", "chi,no_such_field", "--out", str(out)])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: unknown output field 'no_such_field'; expected a "
        "subset of ('Q_c', 'tau', 'chi', 'gamma', 'delta', 'is_fridge')\n")
    assert not out.exists()


def test_sweep_warnings_cell_round_trips(tmp_path, monkeypatch):
    # a note holding the CSV delimiter and quote char is quoted, and the
    # notes of one row are joined by ';'
    notes = ('chi, "roughly"', "second")

    def evaluate_warns(base, knob, values):
        for note in notes:
            warnings.warn(note, UserWarning)
        return evaluate(base, knob, values)
    monkeypatch.setattr(analysis, "evaluate", evaluate_warns)
    out = tmp_path / "sweep.csv"
    argv = (["sweep", "--knob", "g", "--lin", "0.01", "0.02", "2"] + FIG2
            + ["--out", str(out)])
    assert main(argv) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and all(len(row) == 8 for row in rows)
    assert [row[-1] for row in rows[1:]] == [";".join(notes)] * 2


@pytest.mark.parametrize("notes", [
    (), ("a, b",), ('say "so"',), ("one", "two"), ("cr\rhere",),
    ("line\nbreak",), ("a, b", 'say "so"', "x\r\ny")])
def test_warnings_cell_matches_csv_writer(notes):
    # a row's notes, joined by ';', read back as one field, written as
    # csv.writer writes them; a lone \r is quoted, which csv.writer with a
    # "\n" terminator leaves bare
    text = ";".join(notes)
    line = "0.5," + _csv_cell(text) + "\n"
    assert list(csv.reader(io.StringIO(line))) == [["0.5", text]]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["0.5", text])
    if "\r" not in text.replace("\r\n", ""):
        assert line == buf.getvalue()


@pytest.mark.parametrize("notes", [(), ('chi, "roughly"\nand more',)])
def test_sweep_csv_matches_csv_writer(tmp_path, monkeypatch, notes):
    # a refused row (p = 0), and a foreign warning noted on every row: the
    # CSV is what csv.writer writes from run_sweep's columns
    def evaluate_warns(base, knob, values):
        for note in notes:
            warnings.warn(note, UserWarning)
        return evaluate(base, knob, values)
    monkeypatch.setattr(analysis, "evaluate", evaluate_warns)
    out = tmp_path / "sweep.csv"
    argv = (["sweep", "--knob", "p_equal", "--lin", "0", "0.1", "3"] + FIG2
            + ["--out", str(out)])
    assert main(argv) == EXIT_OK
    spec = parse_config(argv).sweep
    pts = run_sweep(spec)
    assert pts.notes[0][0] == "error: p_c must be positive"
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["knob_value", "Q_c", "tau", "chi", "gamma", "delta",
                     "is_fridge", "warnings"])
    for row in zip(spec.grid, pts.q_cool.tolist(), pts.tau.tolist(),
                   pts.chi.tolist(), pts.gamma.tolist(), pts.delta.tolist(),
                   (pts.gamma > 0).tolist(), pts.notes):
        writer.writerow(["%.17g" % v for v in row[:-1]] + [";".join(row[-1])])
    assert out.read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("argv", [
    ["--knob", "g", "--log", "0", "1", "3"] + FIG2,
    ["--knob", "g", "--lin", "0.01", "0.03", "2.5"] + FIG2,
    ["--knob", "g", "--lin", "0.01", "0.03", "0"] + FIG2,
    ["--log", "1e-3", "1e-1", "3"] + FIG2,
    # the omitted swept value is seeded from the grid start, here g = 0
    ["--knob", "g", "--lin", "0", "0.1", "3"] + FIG2[:-2],
    # eta_Carnot = 0.8 at the README set: SweepSpec refuses the grid
    ["--knob", "eta", "--lin", "0.1", "0.9", "3"] + FIG2,
], ids=["log-from-zero", "fractional-count", "zero-count", "no-knob",
        "zero-seed", "eta-past-carnot"])
def test_sweep_refusal_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "sweep.csv"
    assert main(["sweep"] + argv + ["--out", str(out)]) == EXIT_CONFIG
    assert _config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    (["--log", "1e-3", "0", "5"], "--log grid requires HI > 0, got 0.0"),
    (["--log", "1e-3", "-1", "5"], "--log grid requires HI > 0, got -1.0"),
    (["--log", "1e-3", "inf", "3"],
     "--log grid requires a finite HI, got inf"),
    (["--lin", "1e-3", "inf", "3"],
     "--lin grid requires a finite HI, got inf"),
], ids=["log-to-zero", "log-to-negative", "log-to-inf", "lin-to-inf"])
def test_sweep_grid_bound_is_a_config_error(tmp_path, capsys, grid,
                                            message):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--knob", "g"] + grid + FIG2 + ["--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _physical_memory(monkeypatch, n_bytes):
    """Make os.sysconf report n_bytes of physical memory."""
    sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": n_bytes}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)


def test_sweep_grid_past_physical_memory_is_refused(tmp_path, capsys,
                                                    monkeypatch):
    # 10,000 points of ~600 bytes do not fit in 1 MB; a 1e15-point grid
    # would not fit anywhere, and neither grid is built
    out, path = tmp_path / "sweep.csv", tmp_path / "run.json"
    argv = ["sweep", "--knob", "g"] + FIG2 + ["--out", str(out)]
    with monkeypatch.context() as patch:
        _physical_memory(patch, 10 ** 6)
        assert main(argv + ["--lin", "1e-3", "1e-1", "10000"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: sweep: 10000 grid points need more than the "
            "machine's 0.001 GB of memory\n")
        path.write_text(json.dumps({"grid": [0.01 + 1e-6 * k
                                             for k in range(10000)]}))
        assert main(argv + ["--config", str(path)]) == EXIT_CONFIG
        assert _config_error_line(capsys)
    assert main(argv + ["--log", "1e-3", "1e-1", "1e15"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: sweep: 1000000000000000 grid points need more than "
        "the machine's ")
    assert not out.exists()


def test_sweep_grid_zero_past_the_seed_is_an_error_row(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = (["sweep", "--knob", "g", "--lin", "0", "0.1", "3"] + FIG2
            + ["--out", str(out)])
    assert main(argv) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["warnings"] == "error: g must be positive"
    assert all(float(r["chi"]) > 0 for r in rows[1:])


def test_sweep_seeds_swept_parameter():
    # --g may be omitted when g itself is the knob
    argv = ["sweep", "--knob", "g", "--log", "1e-3", "1e-1", "3",
            "--Ec", "1", "--eta", "0.5", "--Tc", "1", "--Tr", "2",
            "--Th", "10", "--p", "0.05"]
    cfg = parse_config(argv)
    assert cfg.params.g == pytest.approx(1e-3)
    # p_equal with only --pc given: the seed fills the two other rates
    argv = ["sweep", "--knob", "p_equal", "--log", "1e-3", "1e-1", "3",
            "--Ec", "1", "--eta", "0.5", "--Tc", "1", "--Tr", "2",
            "--Th", "10", "--g", "0.05", "--pc", "0.02"]
    cfg = parse_config(argv)
    assert cfg.params.ps == (0.02, cfg.sweep.grid[0], cfg.sweep.grid[0])


def test_sweep_config_grid_used_as_given(tmp_path):
    out, path = tmp_path / "sweep.csv", tmp_path / "run.json"
    path.write_text(json.dumps({"knob": "g", "grid": [0.01, 0.02, 0.04]}))
    argv = ["sweep", "--config", str(path), "--out", str(out)] + FIG2
    assert main(argv) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["knob_value"]) for r in rows] == [0.01, 0.02, 0.04]


# ----------------------------------------------------------------------
# exit codes and outputs
# ----------------------------------------------------------------------

def test_steady_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "steady.csv"
    assert main(["steady"] + FIG2 + ["--out", str(out)]) == EXIT_OK
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "delta,gamma,Q_c,eta,eta_carnot,is_fridge"
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(2.745368e-3, rel=1e-5)
    assert fields[5] == "1"
    assert "is_fridge    = True" in capsys.readouterr().out


def test_steady_without_a_carnot_point_writes_nan(tmp_path, capsys):
    # T_c = T_r: the temperatures are not strictly ordered
    out = tmp_path / "steady.csv"
    argv = ["steady"] + FIG2 + ["--Tr", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "eta_carnot   = nan\n" in capsys.readouterr().out
    assert out.read_text().splitlines()[1].split(",")[3:5] == ["0.5", "nan"]


def test_outdir_env_sets_default_location(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QFRIDGE_OUTDIR", str(tmp_path))
    assert main(["qsl"] + FIG2) == EXIT_OK
    assert (tmp_path / "qsl.csv").exists()
    out = capsys.readouterr().out
    assert "chi" in out and "tau" in out


def test_trajectory_csv_schema(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["evolve"] + FIG2 + ["--t-end", "5", "--store-every", "50",
                                     "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,J_c,trace_dist_to_steady,avg_power"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 0.0    # average power defined as 0 at t = 0
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(5.0)


def test_trajectory_csv_distances_are_per_state(tmp_path):
    out = tmp_path / "traj.csv"
    argv = ["evolve"] + FIG2 + ["--t-end", "5", "--store-every", "7",
                                "--out", str(out)]
    assert main(argv) == EXIT_OK
    params = parse_config(argv).params
    traj = evolve(params, t_end=5.0, store_every=7)
    rho_f = steady_state(params).rho_f
    column = [float(line.split(",")[2])
              for line in out.read_text().splitlines()[1:]]
    assert column == traj.trace_distances(rho_f).tolist()
    assert max(abs(d - trace_distance(state, rho_f))
               for d, state in zip(column, traj.states)) <= 1e-15


@pytest.mark.parametrize("command, extra", [
    ("steady", []),
    ("qsl", []),
    ("evolve", ["--t-end", "1"]),
    ("sweep", ["--knob", "g", "--log", "1e-3", "1e-1", "3"]),
])
def test_unwritable_out_path_is_a_config_error(tmp_path, capsys, command,
                                               extra):
    out = tmp_path / "missing" / "x.csv"
    assert main([command] + FIG2 + extra + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert str(out) in err and err.count("\n") == 1


def test_identical_configs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--knob", "g", "--log", "1e-3", "1e-1", "4"] + FIG2
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_config_error_exit_code(capsys):
    code = main(["steady", "--Ec", "1"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["steady"] + FIG2 + ["--g", "0"],
    ["qsl"] + FIG2 + ["--p", "0"],
    ["optimize"] + FIG2 + ["--bracket", "0.3", "0.1"],
    ["evolve"] + FIG2 + ["--dt", "5"],
    ["evolve"] + FIG2 + ["--g", "0"],
    ["optimize"] + FIG2 + ["--pr", "0"],
    ["evolve"] + FIG2 + ["--t-end", "1e30"],   # 6e31 steps: past int64
], ids=["steady-g0", "qsl-p0", "optimize-bracket", "evolve-dt", "evolve-g0",
        "optimize-pr0", "evolve-step-count"])
def test_library_refusal_is_a_config_error(argv, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.setenv("QFRIDGE_OUTDIR", str(tmp_path))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_compute_error_exit_code(capsys):
    # boundary-maximum regime: the optimizer raises, the CLI maps it to 3
    argv = ["optimize", "--Ec", "0.001", "--eta", "0.029", "--Tc", "1",
            "--Tr", "30", "--Th", "900", "--p", "0.001", "--g", "0.0001"]
    code = main(argv)
    assert code == EXIT_COMPUTE
    assert "computation error" in capsys.readouterr().err


@pytest.mark.parametrize("g", ["1e-160", "1e-200"])
@pytest.mark.parametrize("command", ["steady", "qsl"])
def test_tiny_g_is_a_computation_error(command, g, tmp_path, monkeypatch,
                                       capsys):
    # q^2/(2g^2) overflows: refused, not a traceback or a silent gamma = 0
    monkeypatch.setenv("QFRIDGE_OUTDIR", str(tmp_path))
    assert main([command] + FIG2 + ["--g", g]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("computation error: ") and err.count("\n") == 1


def test_tiny_g_sweep_keeps_going(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = (["sweep"] + FIG2 + ["--knob", "g", "--log", "1e-200", "1e-150",
                                "3", "--out", str(out)])
    assert main(argv) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["warnings"].startswith("error: ") for r in rows] == [
        True, True, False]
    assert all(math.isnan(float(r["chi"])) for r in rows[:2])
    assert float(rows[2]["chi"]) > 0


@pytest.mark.parametrize("flag, value", [
    ("--g", "1e155"), ("--g", "1e200"), ("--p", "1e200"), ("--pc", "1e200")])
@pytest.mark.parametrize("command", ["steady", "qsl"])
def test_huge_g_or_rate_is_a_computation_error(command, flag, value,
                                               tmp_path, monkeypatch,
                                               capsys):
    # g ** 2 or q ** 2 overflows: refused, not an OverflowError traceback
    monkeypatch.setenv("QFRIDGE_OUTDIR", str(tmp_path))
    assert main([command] + FIG2 + [flag, value]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("computation error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings(
    "default::qfridge.model.PerturbativeRegimeWarning")
def test_library_warning_prints_as_one_line(tmp_path, monkeypatch, capsys):
    # g far outside the perturbative regime warns while the config is
    # built, then g ** 2 overflows: one line each, in the CLI's own shape,
    # with no library source line echoed
    monkeypatch.setenv("QFRIDGE_OUTDIR", str(tmp_path))
    assert main(["steady"] + FIG2 + ["--g", "1e200"]) == EXIT_COMPUTE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("computation error: ")
    assert lines[1].startswith("warning: PerturbativeRegimeWarning: "
                               "parameters outside the perturbative regime")


def test_huge_g_sweep_keeps_going(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = (["sweep"] + FIG2 + ["--knob", "g", "--log", "1e-2", "1e200",
                                "3", "--out", str(out)])
    assert main(argv) == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["warnings"].startswith("error: ") for r in rows] == [
        False, False, True]
    assert all(math.isfinite(float(r["chi"])) for r in rows[:2])


def test_disparate_rates_are_computed(tmp_path, monkeypatch, capsys):
    # p_r = p_h far below p_c: every rate denominator is a sum of rates
    monkeypatch.setenv("QFRIDGE_OUTDIR", str(tmp_path))
    argv = ["steady", "--Ec", "1", "--eta", "0.5", "--Tc", "1", "--Tr", "2",
            "--Th", "10", "--pc", "0.05", "--pr", "1e-20", "--ph", "1e-20",
            "--g", "0.05"]
    assert main(argv) == EXIT_OK
    assert "gamma" in capsys.readouterr().out


def test_optimize_prints_summary(capsys):
    argv = ["optimize", "--Ec", "1", "--eta", "0.4", "--Tc", "1", "--Tr",
            "2", "--Th", "10", "--pc", "0.01", "--pr", "0.02", "--ph",
            "0.05", "--g", "0.01", "--bracket", "0.05", "0.4"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "eta_star" in out and "chi_star" in out and "eta_carnot" in out


def test_verify_exit_codes(monkeypatch, capsys):
    ok_rows = [CheckResult("1", "x", "PASS", "fine"),
               CheckResult("7", "y", "KNOWN-DEVIATION", "documented")]
    monkeypatch.setattr("qfridge.verify.run_all_checks", lambda: ok_rows)
    assert main(["verify"]) == EXIT_OK       # KNOWN rows do not fail
    capsys.readouterr()
    bad_rows = ok_rows + [CheckResult("2", "z", "FAIL", "broken")]
    monkeypatch.setattr("qfridge.verify.run_all_checks", lambda: bad_rows)
    assert main(["verify"]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out
