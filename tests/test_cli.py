"""Config resolution, validation, emission formats, exit codes, blocked execution."""

import dataclasses
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopump import cli, ensemble, propagator, su2, thermo
from geopump.cli import ConfigError, ResultTable, emit, parse_table, resolve_config, run
from geopump.units import DEFAULT_OMEGA

FAST_OVERRIDES = ["grid.k.count=7", "params.trotter.steps_per_cycle=200",
                  "params.trotter.n_cycles=10"]


def fast_sweep_config(**extra):
    overrides = list(FAST_OVERRIDES)
    for key, val in extra.items():
        overrides = [o for o in overrides if not o.startswith(key + "=")]
        overrides.append(f"{key}={val}")
    return resolve_config("sweep-k", None, overrides)


def test_defaults_cover_every_experiment():
    assert set(cli.EXPERIMENTS) == set(cli.DEFAULTS)
    for name in cli.EXPERIMENTS:
        cfg = resolve_config(name)
        assert cfg["experiment"] == name
        assert isinstance(cfg["output_path"], str)


def test_thermo_and_ensemble_defaults_are_the_dataclasses():
    def defaults(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}

    model = defaults(thermo.ThermalModel())
    assert cli.DEFAULTS["thermal"]["params"]["thermo"] == model
    assert cli.DEFAULTS["fluence"]["params"]["thermo"] == model
    config = ensemble.EnsembleConfig()
    flat = {**defaults(config), **defaults(config.cycle)}
    del flat["cycle"]
    assert cli.DEFAULTS["ensemble"]["params"]["ensemble"] == flat


def test_resolve_config_layering():
    cfg = resolve_config("sweep-k", {"params": {"drive": {"eps0": -0.9}}},
                         ["params.drive.a_ph=0.2", "grid.k.count=11"])
    assert cfg["params"]["drive"]["eps0"] == -0.9
    assert cfg["params"]["drive"]["a_ph"] == 0.2
    assert cfg["grid"]["k"]["count"] == 11
    # untouched fields keep their defaults
    assert cfg["params"]["trotter"]["steps_per_cycle"] == 20000


def test_resolve_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        resolve_config("sweep-k", {"params": {"drve": {}}})
    with pytest.raises(ConfigError):
        resolve_config("sweep-k", None, ["params.trotter.stepz=5"])
    with pytest.raises(ConfigError):
        resolve_config("sweep-k", {"experiment": "thermal"})
    with pytest.raises(ConfigError):
        resolve_config("no-such-experiment")


def test_set_values_parse_as_json_with_string_fallback():
    cfg = resolve_config("sweep-k", None, ["params.trotter.mode=taylor",
                                           "params.drive.omega=null"])
    assert cfg["params"]["trotter"]["mode"] == "taylor"
    assert cfg["params"]["drive"]["omega"] is None


def test_empty_grid_axis_is_config_error():
    cfg = resolve_config("sweep-k", None, ["grid.k.count=0"])
    with pytest.raises(ConfigError):
        run(cfg)


def test_run_small_sweep_shape():
    cfg = fast_sweep_config()
    table = run(cfg)
    assert table.columns == ("k", "p_g", "delta_int", "delta_min", "delta_avg")
    assert table.n_rows == 7
    assert all(v.dtype == np.float64 and v.shape == (7,) for v in table.data)
    assert table.metadata["params"]["drive"]["omega"] is not None  # resolved echo
    ks = table.column("k").tolist()
    assert ks == sorted(ks)
    for p_g in table.column("p_g").tolist():
        assert 0.0 <= p_g <= 1.0


def test_csv_emission_format():
    table = ResultTable(columns=("a", "b"), data=((1.0, -0.25), (0.5, 2.0)),
                        metadata={})
    data = emit(table, "csv")
    text = data.decode("utf-8")
    assert text == "a,b\n1,0.5\n-0.25,2\n"
    assert "\r" not in text


def test_round_trip_csv_and_json():
    table = ResultTable(columns=("x", "y"),
                        data=((math.pi, 6.02e23), (1.0 / 3.0, -1e-300)),
                        metadata={"experiment": "thermal", "n": 3})
    back_csv = parse_table(emit(table, "csv"), "csv")
    assert back_csv.columns == table.columns
    # 17 significant digits round-trip exactly
    assert [v.tobytes() for v in back_csv.data] == [v.tobytes() for v in table.data]
    back_json = parse_table(emit(table, "json"), "json")
    assert [v.tobytes() for v in back_json.data] == [v.tobytes() for v in table.data]
    assert back_json.metadata == table.metadata


def test_non_finite_rows_rejected(capsys):
    with pytest.raises(ValueError, match=r"non-finite value nan in row 1, column 'b'"):
        ResultTable(columns=("a", "b"), data=((1.0, 3.0), (2.0, float("nan"))), metadata={})
    # the unbudgeted taylor run overflows to a NaN row: one error line, no
    # warnings; the worst defect is NaN too, so it names the first such column,
    # its row by the order and step count, and the drive
    for n_cycles in (2, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["unitarity-report", "--set", "params.drive.eps0=3",
                           "--set", f"params.n_cycles={n_cycles}",
                           "--set", "grid.taylor_order.values=[2]",
                           "--set", "grid.steps_per_cycle.values=[100]", "--out", "-"])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "geopump: running unitarity-report",
            "geopump: compute error: unitarity-report: non-finite value nan in row 0 "
            "(taylor_order=2, steps_per_cycle=100), column 'defect_taylor'; "
            "drive k=0.02, eps0=3.0, a_ph=0.1"]


def test_first_non_finite_value_is_named_in_row_major_order():
    # non-finite values at (2, a), (1, c) and (1, b): row 1 comes first, and
    # within it column b
    data = ([0.0, 1.0, math.inf], [0.0, -math.inf, 2.0], [0.0, math.nan, 3.0])
    with pytest.raises(ValueError, match=r"^non-finite value -inf in row 1, column 'b'$"):
        ResultTable(columns=("a", "b", "c"), data=data, metadata={})
    # leading key columns name the row after its index
    with pytest.raises(ValueError, match=r"^non-finite value nan in row 1 \(a=1, b=-0\.5\), "
                                         r"column 'c'$"):
        ResultTable(columns=("a", "b", "c"), data=([0.0, 1.0], [0.0, -0.5], [0.0, math.nan]),
                    metadata={}, keys=2)


def test_point_run_compute_errors_name_the_drive(capsys):
    # (eps0, k) = (-1, 0) closes the gap at t = 0, so the start basis is degenerate
    assert cli.main(["initial-states", "--set", "params.drive.eps0=-1",
                     "--set", "params.drive.k=0", "--out", "-"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "geopump: compute error: initial-states: gap closed at the start time; "
        "drive k=0.0, eps0=-1.0, a_ph=0.1")


# (k, eps0, a_ph) = (0, -1, 0.1), which closes the gap at t = 0, on every
# experiment that runs the propagator
START_CLOSURES = {
    "sweep-k": ["grid.k.values=[0.0]", "params.drive.eps0=-1"],
    "sweep-eps0": ["grid.k.values=[0.0]", "grid.eps0.values=[-1.0]"],
    "sweep-amplitude": ["grid.k.values=[0.0]", "grid.a_ph.values=[0.1]"],
    "initial-states": ["params.drive.k=0", "params.drive.eps0=-1"],
    "unitarity-report": ["params.drive.k=0", "params.drive.eps0=-1"],
}


@pytest.mark.parametrize("experiment", sorted(START_CLOSURES))
def test_every_propagator_experiment_names_a_start_closure_first(experiment, capsys):
    # at the default offset 0 the first measurement instant is closed too
    assert set(START_CLOSURES) == {n for n, d in cli.DEFAULTS.items()
                                   if "drive" in d["params"]}
    argv = [experiment, "--out", "-"]
    for override in START_CLOSURES[experiment]:
        argv += ["--set", override]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"geopump: compute error: {experiment}: gap closed at the start time")


def test_a_drive_on_the_gap_threshold_exits_3_on_both_routes(capsys):
    # 2|d| is below 1e-9 here, while eigh's e1 - e0 is not
    drive = ["--set", "params.drive.eps0=-0.999999999584903",
             "--set", "params.trotter.n_cycles=2", "--out", "-"]
    assert cli.main(["initial-states", "--set", "params.drive.k=2.7873736105752915e-10",
                     *drive]) == 3
    assert cli.main(["sweep-k", "--set", "grid.k.values=[2.7873736105752915e-10]",
                     *drive]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 2 and all("gap closed at" in line for line in errors)


def test_point_run_errors_without_a_state_index_name_no_weights(capsys):
    # a second-order taylor step at 100 steps per cycle breaks the budget for
    # every initial state at once
    assert cli.main(["initial-states", "--set", "params.trotter.mode=taylor",
                     "--set", "params.trotter.taylor_order=2",
                     "--set", "params.trotter.steps_per_cycle=100",
                     "--set", "params.trotter.n_cycles=50", "--out", "-"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "geopump: compute error: initial-states: unitarity defect 4.806e-01 exceeds "
        "budget 0.05; drive k=0.02, eps0=-0.95, a_ph=0.1")


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--set", "params.drive.a_ph=5e-324", "--set", "grid.k.count=3",
     "--set", "params.trotter.steps_per_cycle=100", "--set", "params.trotter.n_cycles=2"],
    ["thermal", "--set", "grid.T.values=[5e-324, 10]"],
    ["thermal", "--set", "params.thermo.t_lif=5e-324",
     "--set", "params.thermo.t_berry=1e-320"],
    ["fluence", "--set", "params.thermo.fluence_slope=1e300", "--set", "grid.F.max=1e10"],
])
def test_subnormal_inputs_run_without_warnings(argv):
    # the drive's critical point, the thermal exponent, T / t_lif and the
    # fluence shift go to +/-inf and are clipped on purpose; that is no reason
    # to warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv + ["--out", "-"])
    assert rc == 0
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("experiment, extra, rc, message", [
    ("sweep-eps0", ["grid.eps0.count=2"], 0, None),
    ("sweep-k", [], 3, "geopump: compute error: sweep-k: non-finite value inf in row 0 "
                       "(k=-0.78539816339744828), column 'delta_avg'"),
])
def test_huge_drive_amplitudes_run_without_warnings(experiment, extra, rc, message,
                                                    capsysbinary):
    # the sampled gaps and their mean overflow to inf; sweep-eps0 emits no mean
    argv = [experiment, "--set", "params.drive.a_ph=1e308", "--set", "grid.k.count=3",
            "--set", "params.trotter.steps_per_cycle=100", "--set", "params.trotter.n_cycles=2"]
    for item in extra:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", "-"]) == rc
    err = capsysbinary.readouterr().err.decode().splitlines()
    assert err[-1] == (message or f"geopump: running {experiment}")


@pytest.mark.parametrize("experiment, overrides, keys", [
    ("sweep-k", FAST_OVERRIDES, ("k",)),
    ("sweep-eps0", ["grid.eps0.count=2", *FAST_OVERRIDES], ("eps0",)),
    ("sweep-amplitude", ["grid.a_ph.values=[0.1]", *FAST_OVERRIDES], ("k", "a_ph")),
    ("initial-states", ["params.trotter.steps_per_cycle=200", "params.trotter.n_cycles=4"],
     ("cycle",)),
    ("ensemble", ["params.ensemble.t_max=1.0"], ("t",)),
    ("verify-cyclemap", ["grid.theta.count=3", "grid.phi.count=2", "params.n_cycles=10"],
     ("theta", "phi")),
    ("thermal", [], ("T",)),
    ("fluence", [], ("F",)),
    ("unitarity-report", ["grid.taylor_order.values=[2]", "grid.steps_per_cycle.values=[200]",
                          "params.n_cycles=3"], ("taylor_order", "steps_per_cycle")),
])
def test_every_table_names_its_rows_by_their_coordinates(experiment, overrides, keys):
    table = run(resolve_config(experiment, None, overrides))
    assert table.columns[:table.keys] == keys


def test_runners_take_the_objects_their_checks_built(monkeypatch):
    built = []

    def counting(name, make):
        def counted(*args, **kwargs):
            built.append(name)
            return make(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)

    counting("TrotterConfig", cli.TrotterConfig)
    run(fast_sweep_config())
    assert built == ["TrotterConfig"]
    built.clear()
    counting("_start_states", cli._start_states)
    run(resolve_config("initial-states", None, ["params.trotter.steps_per_cycle=200",
                                                "params.trotter.n_cycles=4"]))
    assert built.count("_start_states") == 1


@pytest.mark.parametrize("experiment, overrides, cell", [
    ("sweep-k", ["params.drive.eps0=1e308"], "(k=-0.78539816339744828), column 'delta_int'"),
    ("sweep-eps0", ["grid.eps0.min=-1e308", "grid.eps0.max=-1e307", "grid.eps0.count=3"],
     "(eps0=-1e+308), column 'delta_min_k0'"),
], ids=["sweep-k", "sweep-eps0"])
def test_huge_drive_values_exit_3_without_warnings(experiment, overrides, cell, capsys):
    # the propagator stays finite at any finite field, so the gap column's
    # overflow to inf is what the table check names
    argv = [experiment, "--set", "grid.k.count=3", "--set", "params.trotter.steps_per_cycle=100",
            "--set", "params.trotter.n_cycles=2", "--out", "-"]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"geopump: compute error: {experiment}: non-finite value inf in row 0 {cell}")


@pytest.mark.parametrize("experiment, overrides, code, last", [
    ("initial-states", [], 0, "geopump: running initial-states"),
    ("unitarity-report", ["grid.steps_per_cycle.values=[100]"], 3,
     "geopump: compute error: unitarity-report: non-finite value nan in row 0 (taylor_order=1, "
     "steps_per_cycle=100), column 'defect_taylor'; drive k=0.02, eps0={eps0}, a_ph=0.1"),
], ids=["initial-states", "unitarity-report"])
@pytest.mark.parametrize("eps0", ["1e+308", "-1e+308"])
def test_point_runs_at_a_huge_band_offset_do_not_warn(experiment, overrides, code, last, eps0,
                                                      capsys):
    # eigensystem2's d3 = (h00 - h11) / 2 overflows in the difference, an open gap
    argv = [experiment, "--set", f"params.drive.eps0={eps0}", "--out", "-"]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    assert capsys.readouterr().err.splitlines()[-1] == last.format(eps0=eps0)


def test_table_must_be_rectangular():
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "b"), data=((1.0,),), metadata={})
    with pytest.raises(ValueError, match="not rectangular"):
        ResultTable(columns=("a", "b"), data=((1.0, 2.0), (3.0,)), metadata={})


def test_chunked_sweep_equals_one_kernel_call():
    # more points than one block, so the sweep spans two kernel blocks
    cfg = resolve_config("sweep-k", None, [
        f"grid.k.count={propagator._BLOCK_POINTS + 52}",
        "params.trotter.steps_per_cycle=100", "params.trotter.n_cycles=2"])
    result = run(cfg)
    table = parse_table(emit(result, "csv"), "csv")
    drive = result.metadata["params"]["drive"]
    ks = table.column("k")
    direct = propagator.p_g_numeric_grid(ks, drive["eps0"], drive["a_ph"], drive["omega"],
                                         propagator.TrotterConfig(**cfg["params"]["trotter"]))
    assert np.array_equal(table.column("p_g"), direct)


def test_failing_point_in_a_later_block_is_named_by_its_grid_index(capsys):
    # (eps0, k) = (-1, 0) closes the gap at t = 0; on the flattened
    # 3 x n sweep-eps0 grid it sits at index 2n, in the second block
    n = propagator._BLOCK_POINTS // 2 + 76  # 1100 for 2048-point blocks
    i = 2 * n
    eps0s, ks = np.meshgrid([-0.9, -0.95, -1.0], np.linspace(0.0, 0.5, n), indexing="ij")
    assert propagator._BLOCK_POINTS < i < 2 * propagator._BLOCK_POINTS
    cfg = propagator.TrotterConfig(steps_per_cycle=100, n_cycles=2)
    with pytest.raises(propagator.DegenerateMeasurementBasis) as info:
        propagator.p_g_numeric_grid(ks, eps0s, 0.1, DEFAULT_OMEGA, cfg)
    assert info.value.indices == (i,)
    assert str(info.value).endswith(f"; first failing grid index {i}: k=0.0, eps0=-1.0, "
                                    "a_ph=0.1")
    rc = cli.main(["sweep-eps0", "--set", "grid.eps0.values=[-0.9,-0.95,-1.0]",
                   "--set", "grid.k.min=0.0", "--set", "grid.k.max=0.5",
                   "--set", f"grid.k.count={n}",
                   "--set", "params.trotter.steps_per_cycle=100",
                   "--set", "params.trotter.n_cycles=2", "--out", "-"])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == [
        "geopump: running sweep-eps0",
        "geopump: compute error: sweep-eps0: gap closed at the start time at 1 grid "
        f"point(s); first failing grid index {i}: k=0.0, eps0=-1.0, a_ph=0.1"]


@pytest.mark.parametrize("format", ["csv", "json"])
def test_file_stdout_and_emit_bytes_are_equal(format, tmp_path, capsysbinary):
    # 600 rows: two full chunks of 256 rows and a partial one
    assert cli._CHUNK_ROWS == 256
    argv = ["thermal", "--set", "grid.T.count=600", "--format", format]
    out = tmp_path / f"t.{format}"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert cli.main(argv + ["--out", "-"]) == 0
    stdout = capsysbinary.readouterr().out
    # the JSON metadata echoes output_path, so emit() sees the same path
    for path, data in ((str(out), out.read_bytes()), ("-", stdout)):
        table = run(resolve_config("thermal", None, ["grid.T.count=600",
                                                     f"output_path={path}"]))
        assert table.n_rows == 600
        assert emit(table, format) == data
    if format == "csv":
        assert out.read_bytes() == stdout
        chunks = list(cli.emit_chunks(table, "csv"))
        assert [c.count(b"\n") for c in chunks] == [1, 256, 256, 88]


@pytest.mark.parametrize("n_rows", [0, 1, 256, 600])
def test_streamed_json_equals_one_dump(n_rows):
    # the rows, the document's last key, go out a chunk at a time; an empty
    # table keeps "rows": []
    table = ResultTable(columns=("a", "b"),
                        data=(np.arange(n_rows) / 7.0, -np.arange(n_rows) * 1e300),
                        metadata={"rows": [], "grid": {"x": [1, 2.5]}})
    doc = {"metadata": table.metadata, "columns": list(table.columns),
           "rows": [list(r) for r in zip(*(v.tolist() for v in table.data))]}
    assert emit(table, "json") == (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def _traced_peak(argv):
    """The tracemalloc peak of cli.main(argv), after one warm-up run."""
    assert cli.main(argv) == 0  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_cyclemap_output_peaks_below_the_table_text(tmp_path):
    # the 2500-row table as column arrays, written a chunk of rows at a time;
    # row tuples and the whole text at once peaked at 1.2 MiB
    argv = ["verify-cyclemap", "--set", "params.n_cycles=10", "--out", str(tmp_path / "v.csv")]
    assert _traced_peak(argv) < 0.75 * 2**20


def test_verify_cyclemap_json_output_peaks_below_the_table_text(tmp_path):
    # the same bound as CSV; the whole document at once peaked at 2.1 MiB
    argv = ["verify-cyclemap", "--set", "params.n_cycles=10", "--format", "json",
            "--out", str(tmp_path / "v.json")]
    assert _traced_peak(argv) < 0.75 * 2**20


def test_main_writes_file_and_exit_zero(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["thermal", "--out", str(out), "--set", "grid.T.count=5"])
    assert rc == 0
    lines = out.read_bytes().decode("utf-8").splitlines()
    assert lines[0] == "T,q_gp,q_fgr"
    assert len(lines) == 6


def test_main_stdout_dash(capsysbinary):
    rc = cli.main(["fluence", "--out", "-", "--set", "grid.F.count=3"])
    assert rc == 0
    captured = capsysbinary.readouterr()
    assert captured.out.startswith(b"F,q_gp,q_fgr\n")


def test_main_json_format(tmp_path):
    out = tmp_path / "t.json"
    rc = cli.main(["fluence", "--format", "json", "--out", str(out),
                   "--set", "grid.F.count=3"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"metadata", "columns", "rows"}
    assert doc["columns"] == ["F", "q_gp", "q_fgr"]


def test_main_exit_codes(tmp_path):
    assert cli.main(["thermal", "--config", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["thermal", "--set", "grid.T.count=0", "--out", "-"]) == 2
    # degenerate measurement basis inside the sweep -> compute error
    rc = cli.main(["sweep-k", "--set", "params.drive.eps0=-1.0",
                   "--set", "grid.k.min=-0.1", "--set", "grid.k.max=0.1",
                   "--set", "grid.k.count=3",
                   "--set", "params.trotter.steps_per_cycle=100",
                   "--set", "params.trotter.n_cycles=2", "--out", "-"])
    assert rc == 3
    # the unbudgeted taylor run overflows to a NaN row
    assert cli.main(["unitarity-report", "--set", "params.drive.eps0=3",
                     "--set", "params.n_cycles=3", "--set", "grid.taylor_order.values=[2]",
                     "--set", "grid.steps_per_cycle.values=[100]", "--out", "-"]) == 3
    rc = cli.main(["thermal", "--set", "grid.T.count=2",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert rc == 4


@pytest.mark.parametrize("stdout, message", [
    ("pipe", "cannot write to stdout: [Errno 32] Broken pipe"),
    ("closed", "cannot write to stdout: it is closed"),
], ids=["pipe", "closed"])
def test_a_stdout_that_cannot_be_written_is_an_io_error(stdout, message):
    # a pipe whose read end is closed (as under `| head -c 10`), or no fd 1 at all
    argv = [sys.executable, "-m", "geopump.cli", "thermal", "--set", "grid.T.count=3",
            "--out", "-"]
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")}
    if stdout == "pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(write)
    else:
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *argv], stderr=subprocess.PIPE,
                              env=env, timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 4
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines()[-1] == f"geopump: io error: {message}"
    # a closed fd 1 is found before the experiment runs
    assert ("geopump: running thermal" in err) == (stdout == "pipe")


def test_compute_error_names_the_offending_point(capsys):
    # 5 points across k = 0; only the middle one sits on the gap closing
    rc = cli.main(["sweep-k", "--set", "params.drive.eps0=-1.0",
                   "--set", "grid.k.min=-0.1", "--set", "grid.k.max=0.1",
                   "--set", "grid.k.count=5",
                   "--set", "params.trotter.steps_per_cycle=100",
                   "--set", "params.trotter.n_cycles=2", "--out", "-"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "grid index 2: k=0.0, eps0=-1.0, a_ph=0.1" in err


def test_taylor_sweep_overflow_is_compute_error(capsys):
    rc = cli.main(["sweep-k", "--set", "params.trotter.mode=taylor",
                   "--set", "params.trotter.taylor_order=2",
                   "--set", "params.trotter.steps_per_cycle=100",
                   "--set", "params.trotter.n_cycles=2000",
                   "--set", "grid.k.count=5", "--out", "-"])
    assert rc == 3
    assert "unitarity defect" in capsys.readouterr().err


# Every kernel an experiment computes with, as (module, name). Each
# experiment applies its checks and only then calls these, so a test that
# replaces them all sees whether a check came first.
COMPUTE = ((propagator, "p_g_numeric_grid"), (propagator, "evolve"),
           (propagator, "unitarity_report"), (cli.bandmodel, "gap_stats_grid"),
           (cli.ensemble, "ensemble_average"), (cli.cyclemap, "p_series_mean_grid"),
           (cli.cyclemap, "p_g_closed"), (cli.thermo, "temperature_sweep"),
           (cli.thermo, "fluence_sweep"))


def _forbid_compute(monkeypatch):
    """Make every experiment's computation fail the test if it starts."""
    def no_compute(*args, **kwargs):
        raise AssertionError("computation started")

    for module, name in COMPUTE:
        monkeypatch.setattr(module, name, no_compute)


@pytest.mark.parametrize("path, value, named", [
    ("params.bogus", 1, "params.bogus"),
    ("params.drive.k", 0.3, "params.drive.k"),
    # an axis in both forms: the values form has no range fields
    ("grid.k.values", [0.0, 0.1], "grid.k.min"),
])
def test_run_rejects_unknown_keys_before_compute(path, value, named, monkeypatch):
    _forbid_compute(monkeypatch)
    config = resolve_config("sweep-k")
    *parents, leaf = path.split(".")
    node = config
    for part in parents:
        node = node[part]
    node[leaf] = value
    with pytest.raises(ConfigError) as exc:
        run(config)
    assert str(exc.value) == f"unknown config field '{named}'"


def test_a_layer_that_names_both_forms_of_an_axis_is_rejected():
    both = {"min": -0.5, "max": 0.5, "count": 3, "values": [0.1]}
    with pytest.raises(ConfigError) as exc:
        resolve_config("sweep-k", {"grid": {"k": both}})
    assert str(exc.value) == "unknown config field 'grid.k.min'"


@pytest.mark.parametrize("path", ["params.bogus", "params.drive.k", "grid.k.bogus"])
def test_resolve_config_and_the_cli_reject_unknown_keys_as_run_does(path, monkeypatch,
                                                                     capsys):
    _forbid_compute(monkeypatch)
    message = f"unknown config field '{path}'"
    layer = 1
    for part in reversed(path.split(".")):
        layer = {part: layer}
    for file_config, overrides in ((layer, None), (None, [f"{path}=1"])):
        with pytest.raises(ConfigError) as exc:
            resolve_config("sweep-k", file_config, overrides)
        assert str(exc.value) == message
    assert cli.main(["sweep-k", "--set", f"{path}=1", "--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"geopump: config error: {message}"


@pytest.mark.parametrize("experiment, overrides", [
    ("sweep-k", ['params.drive.eps0="x"']),
    ("sweep-k", ['params.drive.eps0={"a":1}']),
    ("sweep-k", ["params.drive.eps0=NaN"]),
    ("sweep-k", ['params.drive.omega="x"']),
    ("sweep-k", ["params.trotter.n_cycles=1.5"]),
    ("sweep-k", ["params.trotter.steps_per_cycle=true"]),
    ("sweep-k", ["params.trotter.measure_offset=NaN"]),
    ("sweep-k", ["params.trotter.mode=taylor", "params.trotter.taylor_order=1"]),
    ("initial-states", ["params.drive.a_ph=-1"]),
    ("unitarity-report", ["params.n_cycles=2.5"]),
    ("ensemble", ["params.ensemble.n_systems=1.5"]),
    ("sweep-k", ["grid.k.max=4"]),
    ("verify-cyclemap", ["grid.theta.max=4"]),
    ("verify-cyclemap", ["grid.theta.min=-1"]),
    ("ensemble", ["params.ensemble.phi=NaN"]),
    ("ensemble", ["params.ensemble.t_max=Infinity"]),
    ("thermal", ["params.thermo.mu0=NaN"]),
    # the drive period 2 pi / omega overflows to inf
    ("sweep-k", ["params.drive.omega=1e-310"]),
    ("initial-states", ["params.drive.omega=1e-310"]),
    # sums to 1 within 1e-9, but not within evolve's initial-state norm tolerance
    ("initial-states", ["params.initial_weights=[[0.5,0.5000000005]]"]),
    # sums to 1 within 1e-12, but its state's norm^2 is 1 + 1.0e-12
    ("initial-states", ["params.initial_weights=[[0.997209935789211,0.0027900642117987327]]"]),
    # more propagator work than cli.MAX_WORK
    ("unitarity-report", ["grid.steps_per_cycle.values=[1e30]"]),
    ("sweep-k", ["grid.k.count=1000000"]),
    ("initial-states", ["params.trotter.n_cycles=1000000000"]),
    # more ensemble member values than cli.MAX_WORK
    ("ensemble", ["params.ensemble.t_max=1e12"]),
    # a propagator work estimate beyond the float range
    ("sweep-k", ["params.trotter.mode=taylor", "params.trotter.steps_per_cycle=1e308"]),
    # more thermal or fluence grid points than cli.MAX_SWEEP_POINTS
    ("thermal", ["grid.T.count=1e9"]),
    ("fluence", ["grid.F.count=1e9"]),
    # a huge taylor order: each step build makes taylor_order // 2 array passes
    ("sweep-k", ["params.trotter.mode=taylor", "params.trotter.taylor_order=1e12",
                 "params.trotter.steps_per_cycle=100", "params.trotter.n_cycles=1",
                 "grid.k.count=1"]),
    ("unitarity-report", ["grid.taylor_order.values=[100000000]",
                          "grid.steps_per_cycle.values=[100]", "params.n_cycles=1"]),
    # the later members' delays j * dt_mismatch overflow to inf
    ("ensemble", ["params.ensemble.tau_cycle=1e308", "params.ensemble.t_max=1e308",
                  "params.ensemble.dt_mismatch=1e307"]),
    # an axis whose max - min overflows: np.linspace would make NaN points
    ("thermal", ["grid.T.min=-1.7e308", "grid.T.max=1.7e308", "grid.T.count=3"]),
    ("verify-cyclemap", ["grid.theta.min=-1.7e308", "grid.theta.max=1.7e308",
                         "grid.theta.count=3"]),
    ("sweep-k", ["grid.k.min=-1.7e308", "grid.k.max=1.7e308", "grid.k.count=3"]),
    # eps0 has no range rule, so only the span rule keeps a NaN out of the kernel
    ("sweep-eps0", ["params.trotter.steps_per_cycle=100", "params.trotter.n_cycles=2",
                    "grid.k.count=3", "grid.eps0.min=-1.7e308", "grid.eps0.max=1.7e308",
                    "grid.eps0.count=3"]),
    # its norm^2 overflows to inf, which the norm test rejects without a warning
    ("initial-states", ["params.initial_weights=[[1e308,1e308]]"]),
    # the exact estimate of a min/max/count step axis, not count x max
    ("unitarity-report", ["grid.steps_per_cycle.min=100", "grid.steps_per_cycle.max=1e23",
                          "grid.steps_per_cycle.count=2"]),
])
def test_malformed_numbers_exit_2_before_compute(experiment, overrides, monkeypatch, capsys):
    _forbid_compute(monkeypatch)
    argv = [experiment, "--out", "-"]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    # the message names the mapping that holds the offending field
    section = overrides[-1].partition("=")[0].rpartition(".")[0]
    err = capsys.readouterr().err
    assert section in err
    if f"{section}.max=1.7e308" in overrides:
        assert err.splitlines()[-1] == (
            f"geopump: config error: field '{section}' spans min=-1.7e+308 to "
            "max=1.7e+308, a width beyond the float range")


def _config_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


_ONE_CELL = ResultTable(columns=("a",), data=((1.0,),), metadata={})


@pytest.mark.parametrize("call, message", [
    (lambda tmp: cli.main(["sweep-k", "--set", "params=3"]),
     "expected a mapping at 'params', got int"),
    (lambda tmp: run({**resolve_config("thermal"), "params": 3}),
     "field 'params' must be a mapping, got 3"),
    (lambda tmp: run({k: v for k, v in resolve_config("thermal").items()
                      if k != "output_path"}),
     "field 'output_path' is missing"),
    (lambda tmp: cli.main(["unitarity-report", "--set", "grid.steps_per_cycle.min=100",
                           "--set", "grid.steps_per_cycle.max=150",
                           "--set", "grid.steps_per_cycle.count=4", "--out", "-"]),
     "field 'grid.steps_per_cycle' must hold integers, "
     "got [100.0, 116.66666666666667, 133.33333333333334, 150.0]"),
    (lambda tmp: cli.main(["unitarity-report", "--set", "grid.steps_per_cycle.values=[50]",
                           "--out", "-"]),
     "params.n_cycles, grid.taylor_order and grid.steps_per_cycle: "
     "steps_per_cycle must be >= 100, got 50"),
    (lambda tmp: cli.main(["unitarity-report", "--set", "grid.taylor_order.min=1",
                           "--set", "grid.taylor_order.max=1e30",
                           "--set", "grid.taylor_order.count=2",
                           "--set", "grid.steps_per_cycle.values=[0]", "--out", "-"]),
     "params.n_cycles, grid.taylor_order and grid.steps_per_cycle: "
     "steps_per_cycle must be >= 100, got 0"),
    (lambda tmp: cli.main(["initial-states", "--set", "params.initial_weights=[[0.5,-0.5]]",
                           "--out", "-"]),
     "params.initial_weights: entry [0.5, -0.5] is not two weights >= 0"),
    (lambda tmp: cli.main(["thermal", "--config", _config_file(tmp, "[1]")]),
     "config file must contain a JSON object"),
    (lambda tmp: cli.main(["sweep-k", "--config", _config_file(
        tmp, '{"experiment": "thermal", "params": {"closable_gap": 1.0}}')]),
     "config is for experiment 'thermal', but 'sweep-k' was requested"),
    (lambda tmp: cli.main(["sweep-k", "--set", "experiment=thermal"]),
     "config is for experiment 'thermal', but 'sweep-k' was requested"),
    (lambda tmp: cli.main(["thermal", "--config", _config_file(tmp, "{")]),
     "config '{config}' is not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (lambda tmp: cli.main(["sweep-k", "--set", "grid.k.count"]),
     "--set expects key=value, got 'grid.k.count'"),
    (lambda tmp: run({"experiment": "nope"}), "unknown experiment 'nope'"),
    (lambda tmp: cli.main(["thermal", "--set", 'output_path=""']),
     "field 'output_path' must be a non-empty string"),
    (lambda tmp: emit(_ONE_CELL, "xml"), "unknown output format 'xml'"),
    (lambda tmp: parse_table(b"a\n1\n", "xml"), "unknown output format 'xml'"),
], ids=["set-non-mapping", "run-non-mapping", "run-missing-field", "non-integral-range",
        "integral-values", "huge-integral-range", "negative-weight", "file-not-object", "file-other-experiment",
        "set-other-experiment", "file-not-json", "set-without-value",
        "run-unknown-experiment", "empty-output-path", "emit-format", "parse-format"])
def test_each_config_error_exits_2_with_its_message(call, message, tmp_path, capsys):
    try:
        rc = call(tmp_path)
        err = capsys.readouterr().err.splitlines()[-1]
    except ConfigError as exc:  # an API call; main reports it so, with exit code 2
        rc, err = 2, f"geopump: config error: {exc}"
    assert rc == 2
    message = message.format(config=tmp_path / "config.json")
    assert err == f"geopump: config error: {message}"


@pytest.mark.parametrize("argv, axis, count", [
    # the product of the counts is 0, so neither cap would stop the 2e8-point axis
    (["sweep-eps0", "--set", "grid.eps0.count=200000000", "--set", "grid.k.count=0"], "k", 0),
    # two negative counts make a positive product
    (["verify-cyclemap", "--set", "grid.theta.count=-1",
      "--set", "grid.phi.count=-1000000000"], "theta", -1),
], ids=["zero", "negative"])
def test_axis_counts_are_checked_before_any_cap(argv, axis, count, monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("a cap ran or an axis was built")

    for name in ("_check_work", "_check_size"):
        monkeypatch.setattr(cli, name, no_call)
    monkeypatch.setattr(cli.np, "linspace", no_call)
    assert cli.main(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"geopump: config error: field 'grid.{axis}.count' must be >= 1, got {count}")


def test_grid_axis_takes_either_form(capsysbinary):
    base = ["--out", "-", "--set", "params.trotter.steps_per_cycle=100",
            "--set", "params.trotter.n_cycles=2"]
    k = cli.DEFAULTS["sweep-k"]["grid"]["k"]
    ks = np.linspace(k["min"], k["max"], k["count"]).tolist()
    assert cli.main(["sweep-k", *base]) == 0
    range_form = capsysbinary.readouterr().out
    assert cli.main(["sweep-k", *base, "--set", f"grid.k.values={json.dumps(ks)}"]) == 0
    assert capsysbinary.readouterr().out == range_form

    assert cli.main(["sweep-amplitude", *base, "--set", "grid.k.count=2",
                     "--set", "grid.a_ph.min=0.1", "--set", "grid.a_ph.max=0.3",
                     "--set", "grid.a_ph.count=3"]) == 0
    a_ph = parse_table(capsysbinary.readouterr().out).column("a_ph")
    assert sorted(set(a_ph.tolist())) == [0.1, 0.2, 0.3]


def _leaves(node, path=""):
    """Dotted paths of the leaves of a DEFAULTS tree; a list is a leaf."""
    if not isinstance(node, dict):
        return [path]
    return [leaf for key, sub in node.items()
            for leaf in _leaves(sub, f"{path}.{key}" if path else key)]


_CHEAP_TROTTER = ["params.trotter.steps_per_cycle=100", "params.trotter.n_cycles=3"]
CHEAP_OVERRIDES = {
    "sweep-k": ["grid.k.count=3", *_CHEAP_TROTTER],
    "sweep-eps0": ["grid.eps0.count=3", "grid.k.count=3", *_CHEAP_TROTTER],
    "sweep-amplitude": ["grid.a_ph.values=[0.1,0.2]", "grid.k.count=3", *_CHEAP_TROTTER],
    "initial-states": _CHEAP_TROTTER,
    "ensemble": ["params.ensemble.n_systems=3", "params.ensemble.t_max=3"],
    "verify-cyclemap": ["params.n_cycles=3", "grid.theta.count=3", "grid.phi.count=3"],
    "thermal": ["grid.T.count=3"],
    "fluence": ["grid.F.count=3"],
    "unitarity-report": ["params.n_cycles=3", "grid.taylor_order.values=[2]",
                         "grid.steps_per_cycle.values=[100]"],
}

# Malformed, out-of-domain and small valid values. Numbers stay below 50 so
# that no count, cycle or step number asks for unbounded work.
FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "x", "taylor", None,
                     [], {}, {"a": 1}]),
    st.integers(-3, 40),
    st.floats(-5.0, 40.0),
    st.lists(st.floats(-1.0, 4.0), min_size=1, max_size=3),
)


@pytest.mark.parametrize("experiment, path", [
    (name, leaf) for name in cli.EXPERIMENTS for leaf in _leaves(cli.DEFAULTS[name])])
@settings(max_examples=20, deadline=None)
@given(value=FUZZ_VALUES)
def test_fuzzed_field_ends_in_a_documented_exit_code(experiment, path, value):
    argv = [experiment, "--out", os.devnull]
    for item in CHEAP_OVERRIDES[experiment] + [f"{path}={json.dumps(value)}"]:
        argv += ["--set", item]
    assert cli.main(argv) in (0, 2, 3, 4)


def test_no_output_file_on_config_error(tmp_path):
    out = tmp_path / "never.csv"
    rc = cli.main(["thermal", "--set", "grid.T.count=0", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_workers_flag_is_validated_and_ignored(capsysbinary):
    assert cli.main(["fluence", "--set", "grid.F.count=3", "--workers", "0",
                     "--out", "-"]) == 2
    blobs = set()
    for w in ("1", "4"):
        assert cli.main(["fluence", "--set", "grid.F.count=3", "--workers", w,
                         "--out", "-"]) == 0
        blobs.add(capsysbinary.readouterr().out)
    assert len(blobs) == 1


def test_committed_example_configs_resolve():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(os.listdir(root))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(root, name)) as fh:
            doc = json.load(fh)
        cfg = resolve_config(doc["experiment"], doc)
        assert cfg["experiment"] == doc["experiment"]


def _reproduces_committed_output(stem, tmp_path):
    root = os.path.join(os.path.dirname(__file__), "..")
    config = os.path.join(root, "configs", f"{stem}.json")
    with open(config) as fh:
        experiment = json.load(fh)["experiment"]
    out = tmp_path / f"{stem}.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([experiment, "--config", config, "--out", str(out)]) == 0
    with open(os.path.join(root, "out", f"{stem}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_bench_copies_of_the_configs_and_outputs_are_identical():
    # the benchmark checks its own copies; a regenerated output must move both
    root = os.path.join(os.path.dirname(__file__), "..")
    for ours, twin in (("configs", "bench/configs"), ("out", "bench/reference")):
        names = sorted(os.listdir(os.path.join(root, ours)))
        assert len(names) == 9
        for name in names:
            with open(os.path.join(root, ours, name), "rb") as a, \
                    open(os.path.join(root, twin, name), "rb") as b:
                assert a.read() == b.read(), f"{ours}/{name} differs from {twin}/{name}"


@pytest.mark.parametrize("stem", ["initial_states", "unitarity_report"])
def test_point_run_configs_reproduce_committed_output(stem, tmp_path):
    _reproduces_committed_output(stem, tmp_path)


@pytest.mark.parametrize("stem", ["sweep_k", "sweep_amplitude", "sweep_eps0",
                                  "verify_cyclemap"])
def test_grid_configs_reproduce_committed_output(stem, tmp_path):
    _reproduces_committed_output(stem, tmp_path)


@pytest.mark.parametrize("stem", ["ensemble", "thermal", "fluence"])
def test_ensemble_and_thermo_configs_reproduce_committed_output(stem, tmp_path):
    _reproduces_committed_output(stem, tmp_path)


def test_initial_states_runner_columns():
    cfg = resolve_config("initial-states", None, [
        "params.trotter.steps_per_cycle=200",
        "params.trotter.n_cycles=8",
        "params.initial_weights=[[1.0,0.0],[0.5,0.5]]",
    ])
    table = run(cfg)
    assert table.columns == ("cycle", "p_n_w1", "p_n_w0.5")
    assert table.n_rows == 8
    assert table.column("cycle").tolist() == [float(m) for m in range(1, 9)]


def test_unitarity_report_runner_orders():
    cfg = resolve_config("unitarity-report", None, [
        "grid.taylor_order.values=[1,2]",
        "grid.steps_per_cycle.values=[2000]",
        "params.n_cycles=20",
    ])
    table = run(cfg)
    assert table.columns == ("taylor_order", "steps_per_cycle", "defect_taylor",
                             "max_dev_vs_exact")
    defects = dict(zip(table.column("taylor_order").tolist(),
                       table.column("defect_taylor").tolist()))
    assert defects[1] > defects[2]


def test_initial_states_runs_one_stacked_evolution(monkeypatch):
    cfg = resolve_config("initial-states", None, [
        "params.trotter.steps_per_cycle=300", "params.trotter.n_cycles=20",
        "params.trotter.measure_offset=0.3"])
    calls = []
    evolve = propagator.evolve
    monkeypatch.setattr(propagator, "evolve",
                        lambda *args, **kwargs: calls.append(args) or evolve(*args, **kwargs))
    table = run(cfg)
    assert len(calls) == 1
    # five separate evolutions from the same start states
    p = cli.DriveParams(**table.metadata["params"]["drive"])
    tcfg = propagator.TrotterConfig(**cfg["params"]["trotter"])
    _, _, g0, g1 = su2.eigensystem2(cli.bandmodel.hamiltonian(p, 0.0))
    for i, (w0, w1) in enumerate(cfg["params"]["initial_weights"], start=1):
        state = math.sqrt(w0) * g0 + math.sqrt(w1) * g1
        p_n = evolve(p, tcfg, initial=state).p_n
        assert table.data[i].tobytes() == p_n.tobytes()


def test_initial_states_error_names_the_failing_weights(capsys):
    # order 2 at 1000 steps: the excited start ends above probability 1
    rc = cli.main(["initial-states", "--set", "params.drive.eps0=-0.5",
                   "--set", "params.drive.k=0.3", "--set", "params.trotter.mode=taylor",
                   "--set", "params.trotter.taylor_order=2",
                   "--set", "params.trotter.steps_per_cycle=1000",
                   "--set", "params.trotter.n_cycles=5",
                   "--set", "params.initial_weights=[[1,0],[0,1]]", "--out", "-"])
    assert rc == 3
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "beyond tolerance at weights (0.0, 1.0); drive k=0.3, eps0=-0.5, a_ph=0.1")


class _ComputeStarted(Exception):
    pass


@pytest.mark.parametrize("root", ["configs", os.path.join("bench", "configs")])
def test_committed_configs_stay_under_the_work_cap(root, monkeypatch):
    def started(*args, **kwargs):
        raise _ComputeStarted

    for module, name in COMPUTE:
        monkeypatch.setattr(module, name, started)
    capped, sized = {}, {}
    cap, size_cap = cli._check_work, cli._check_size

    def check_work(where, work, *args):
        capped[experiment] = work
        return cap(where, work, *args)

    def check_size(where, size, what):
        sized[experiment, what] = size
        return size_cap(where, size, what)

    monkeypatch.setattr(cli, "_check_work", check_work)
    monkeypatch.setattr(cli, "_check_size", check_size)
    root = os.path.join(os.path.dirname(__file__), "..", root)
    names = sorted(os.listdir(root))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(root, name)) as fh:
            doc = json.load(fh)
        experiment = doc["experiment"]
        with pytest.raises(_ComputeStarted):  # every check passed
            run(resolve_config(experiment, doc))
    # every propagator, cycle-map and ensemble experiment had its work capped,
    # and every experiment its grid points
    assert set(capped) == {"sweep-k", "sweep-eps0", "sweep-amplitude", "initial-states",
                           "unitarity-report", "verify-cyclemap", "ensemble"}
    assert max(capped.values()) <= cli.MAX_WORK
    assert {name for name, what in sized if what == "grid points"} == set(cli.EXPERIMENTS)
    assert max(sized.values()) <= cli.MAX_SWEEP_POINTS
    assert sized["thermal", "grid points"] == 300 and sized["fluence", "grid points"] == 81
    assert capped["unitarity-report"] == 7 * 22000 + 4 * 2 * 100  # orders 1, 2 and 4
    assert capped["verify-cyclemap"] == 2500 * 100000
    assert capped["ensemble"] == 1446 * 61  # n_t grid times x (n_systems + 1)


def test_size_cap_is_checked_before_any_axis_is_built(monkeypatch, capsys):
    def linspace(*args, **kwargs):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(cli.np, "linspace", linspace)
    for argv in (["sweep-k", "--set", "grid.k.count=1e8"],
                 ["sweep-eps0", "--set", "grid.eps0.count=1e6", "--set", "grid.k.count=1e6"],
                 ["unitarity-report", "--set", "grid.steps_per_cycle.min=100",
                  "--set", "grid.steps_per_cycle.max=100",
                  "--set", "grid.steps_per_cycle.count=1e8"],
                 ["verify-cyclemap", "--set", "grid.theta.count=1e8"]):
        assert cli.main(argv + ["--out", "-"]) == 2
        assert "grid points exceed the cap of 1e+06" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # under the work cap, but 1e9 points: two 8 GB meshgrids and a 1e9-row table
    (["verify-cyclemap", "--set", "params.n_cycles=1", "--set", "grid.theta.count=31622",
      "--set", "grid.phi.count=31622"],
     "grid.theta and grid.phi: 1e+09 grid points exceed the cap of 1e+06"),
    # 9.1e8 point-steps plus point-cycles, but a 9e6-row table
    (["sweep-k", "--set", "params.trotter.steps_per_cycle=100",
      "--set", "params.trotter.n_cycles=1", "--set", "grid.k.count=9000000"],
     "grid.k: 9e+06 grid points exceed the cap of 1e+06"),
    (["initial-states", "--set", "params.trotter.steps_per_cycle=100",
      "--set", "params.trotter.n_cycles=2000000"],
     "params.trotter.n_cycles: 2e+06 output rows exceed the cap of 1e+06"),
    (["ensemble", "--set", "params.ensemble.n_systems=1",
      "--set", "params.ensemble.t_max=1e4"],
     "params.ensemble.t_max and params.ensemble.tau_cycle: 1.2e+06 output rows exceed the "
     "cap of 1e+06"),
    # a grid-point count beyond the float range
    (["verify-cyclemap", "--set", "params.n_cycles=0", "--set", "grid.theta.count=1e200",
      "--set", "grid.phi.count=1e200"],
     "grid.theta and grid.phi: 10^400.0 grid points exceed the cap of 1e+06"),
    # the size cap is the only cap on a thermo sweep
    (["thermal", "--set", "grid.T.count=1e9"],
     "grid.T: 1e+09 grid points exceed the cap of 1e+06"),
    (["fluence", "--set", "grid.F.count=1e9"],
     "grid.F: 1e+09 grid points exceed the cap of 1e+06"),
], ids=["verify-cyclemap", "sweep-k", "initial-states", "ensemble", "beyond-float", "thermal",
        "fluence"])
def test_grid_points_and_output_rows_are_capped(argv, message, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a grid or a result was built")

    for module, name in ((cli.np, "meshgrid"), (cli.np, "linspace"), *COMPUTE):
        monkeypatch.setattr(module, name, no_build)
    assert cli.main(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"geopump: config error: {message}"


@pytest.mark.parametrize("argv, message", [
    # an integer estimate beyond the float range
    (["sweep-k", "--set", "params.trotter.mode=taylor",
      "--set", "params.trotter.steps_per_cycle=1e308"],
     "params.trotter and grid.k: propagator work of 10^311.1"),
    # the built axis holds 100 and 1e23: 7 x their sum, not 7 x count x max
    (["unitarity-report", "--set", "grid.steps_per_cycle.min=100",
      "--set", "grid.steps_per_cycle.max=1e23", "--set", "grid.steps_per_cycle.count=2"],
     "params.n_cycles, grid.taylor_order and grid.steps_per_cycle: propagator work of 7e+23"),
], ids=["sweep-k", "unitarity-report"])
def test_propagator_work_is_capped(argv, message, monkeypatch, capsys):
    _forbid_compute(monkeypatch)
    assert cli.main(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"geopump: config error: {message} point-steps plus point-cycles exceeds the cap of "
        "1e+09")


def test_cyclemap_series_work_is_capped(monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli.cyclemap, "p_series_mean_grid", no_compute)
    assert cli.main(["verify-cyclemap", "--set", "params.n_cycles=1e12", "--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "geopump: config error: grid.theta, grid.phi and params.n_cycles: cycle-map series "
        "work of 2.5e+15 point-cycles exceeds the cap of 1e+09")


def test_ensemble_work_is_capped(monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli.ensemble, "ensemble_average", no_compute)
    assert cli.main(["ensemble", "--set", "params.ensemble.t_max=1e12", "--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "geopump: config error: params.ensemble.t_max and params.ensemble.n_systems: "
        "ensemble work of 7.35e+15 member values exceeds the cap of 1e+09")
    # a grid step tau_cycle / 100 that underflows to 0 has no end of times
    assert cli.main(["ensemble", "--set", "params.ensemble.tau_cycle=1e-323",
                     "--set", "params.ensemble.dt_mismatch=5e-324", "--out", "-"]) == 2
    assert "ensemble work of inf member values" in capsys.readouterr().err


def test_invalid_ensemble_density_is_a_compute_error(monkeypatch, capsys):
    # a non-unitary cycle map leaves the densities' trace off 1
    monkeypatch.setattr(cli.ensemble, "cycle_unitary",
                        lambda c: 2.0 * np.eye(2, dtype=complex))
    assert cli.main(["ensemble", "--out", "-"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "geopump: running ensemble",
        "geopump: compute error: ensemble: ensemble density at time index 38 "
        "(t = 0.3154): trace differs from 1 beyond tolerance"]


def test_reproduce_all_prints_its_usage_and_rejects_an_unknown_option(tmp_path,
                                                                      monkeypatch, capsys):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "reproduce_all.py")
    main = runpy.run_path(script)["main"]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: reproduce_all.py")
    with pytest.raises(SystemExit) as info:
        main(["--no-such-option"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_loads_only_the_standard_library_and_numpy():
    # every CLI run starts with this import, so a heavy dependency of any
    # module would add to the setup time of each one
    code = ("import sys; before = set(sys.modules); import geopump.cli; "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'geopump'}))")
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
