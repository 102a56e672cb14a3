"""End-to-end runs of the command-line surface, in process via main(argv)."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import linecancel.cli as cli
import linecancel.quantum_sim as qs
from linecancel.estimator import fit_amplitude
from linecancel.model_core import TWO_PI, CPSequence, HeatingModel
from linecancel.phasor_cancel import Phasor
from linecancel.simlab import SimLab, reference_truth, scenario_to_dict


def run(*argv):
    return cli.main([str(a) for a in argv])


def read(path):
    return path.read_text()


# ----------------------------------------------------------------- simulate


def test_simulate_writes_deterministic_trace(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ["simulate", "--seed", 3, "--points", 20, "--shots", 200, "--tau-max", 0.06]
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    text = read(a / "trace.csv")
    assert text == read(b / "trace.csv")
    lines = text.strip().split("\n")
    assert lines[0] == "tau_s,signal,shots,sigma"
    assert len(lines) == 21


def test_simulate_flag_validation(tmp_path, capsys):
    out = ["--out", tmp_path]
    assert run("simulate", "--points", 0, *out) == 2
    assert run("simulate", "--tau-max", -0.1, *out) == 2
    assert run("simulate", "--mode", "Q", *out) == 2
    assert run("simulate", "--comp-mv", 5.0, *out) == 2  # angle missing
    assert run("simulate", "--t-d", -0.001, *out) == 2
    assert run("simulate", "--t-d", "nan", *out) == 2
    capsys.readouterr()
    for flag, argv in (
        ("--comp-mv", ["--comp-mv", "nan", "--comp-angle-deg", 0.0]),
        ("--comp-mv", ["--comp-mv", "inf", "--comp-angle-deg", 0.0]),
        ("--comp-angle-deg", ["--comp-mv", 1.0, "--comp-angle-deg", "nan"]),
        ("--comp-angle-deg", ["--comp-mv", 1.0, "--comp-angle-deg=-inf"]),
        ("--analyzer", ["--analyzer", "nan"]),
        ("--analyzer", ["--analyzer", "inf"]),
    ):
        assert run("simulate", *argv, *out) == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "trace.csv").exists()


def test_simulate_rejects_bad_scenario(tmp_path):
    bad = tmp_path / "scenario.json"
    bad.write_text("{not json")
    assert run("simulate", "--scenario", bad, "--out", tmp_path) == 2
    bad.write_text(json.dumps({"schema_version": 1}))
    assert run("simulate", "--scenario", bad, "--out", tmp_path) == 2
    assert run("simulate", "--scenario", tmp_path / "missing.json", "--out", tmp_path) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", [("transfer_r_mV_per_Hz",), ("f_line_Hz",), ("line_jitter_Hz",),
                                  ("modes", "X", "freq_Hz"), ("drift", "tau_c_s")], ids=".".join)
def test_simulate_rejects_non_finite_scenario_value(tmp_path, capsys, path, value):
    obj = scenario_to_dict(reference_truth())
    entry = obj
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(obj))  # NaN / Infinity / -Infinity, which json.loads accepts
    out = tmp_path / "out"
    assert run("simulate", "--scenario", scenario, "--out", out, "--points", 5, "--shots", 10) == 2
    assert "scenario" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_csv_parse_emit_parse_identity(tmp_path):
    assert run("simulate", "--seed", 1, "--points", 15, "--shots", 300,
               "--tau-max", 0.05, "--out", tmp_path) == 0
    path = tmp_path / "trace.csv"
    original = read(path)
    trace = cli._read_trace(str(path))
    rows = [
        (tau, sig, int(sh), sg)
        for tau, sig, sh, sg in zip(trace.tau, trace.signal, trace.shots, trace.sigma)
    ]
    assert cli._csv_text(cli.TRACE_HEADER, rows) == original


# ---------------------------------------------------------------------- fit


@pytest.fixture(scope="module")
def echo_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    assert run("simulate", "--seed", 8, "--out", out) == 0
    return out / "trace.csv"


def test_fit_amplitude_via_cli(echo_trace, tmp_path):
    assert run("fit", "--trace", echo_trace, "--kind", "amplitude", "--n", 1,
               "--out", tmp_path) == 0
    payload = json.loads(read(tmp_path / "fit.json"))
    assert payload["kind"] == "amplitude"
    assert set(payload) == {"kind", "params", "sigmas", "chi2_reduced", "converged",
                            "n_iterations"}
    # default scenario ambient: 14 mV / 0.38 mV/Hz = 36.8 Hz
    assert payload["params"]["A_over_2pi"] == pytest.approx(14.0 / 0.38, abs=6.0)
    assert payload["params"]["nbar_dot"] == pytest.approx(15.5, abs=4.0)
    assert payload["sigmas"]["A_over_2pi"] > 0.0


def test_fit_writes_stdout_without_out(echo_trace, capsys):
    assert run("fit", "--trace", echo_trace, "--kind", "amplitude", "--n", 1) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "amplitude"


def test_fit_error_paths(echo_trace, tmp_path, capsys):
    assert run("fit", "--trace", tmp_path / "nope.csv", "--kind", "amplitude", "--n", 1) == 2
    assert run("fit", "--trace", echo_trace, "--kind", "amplitude") == 2  # --n missing

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    assert run("fit", "--trace", bad_header, "--kind", "amplitude", "--n", 1) == 2

    bad_tau = tmp_path / "tau.csv"
    bad_tau.write_text("tau_s,signal,shots,sigma\n0.02,0.5,100,0.05\n0.01,0.4,100,0.05\n")
    assert run("fit", "--trace", bad_tau, "--kind", "amplitude", "--n", 1) == 2

    empty = tmp_path / "empty.csv"
    empty.write_text("tau_s,signal,shots,sigma\n")
    assert run("fit", "--trace", empty, "--kind", "envelope") == 2

    for kind, flag, value in (("amplitude", "--n", -1), ("phase", "--fock-cutoff", 2),
                              ("phase", "--f-m", "nan")):
        capsys.readouterr()
        assert run("fit", "--trace", echo_trace, "--kind", kind, flag, value) == 2
        assert flag in capsys.readouterr().err


def test_argparse_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("fit", "--kind", "amplitude")  # --trace is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run("unknown-command")


def test_fit_slope_via_cli(tmp_path):
    slope = TWO_PI * 60.0
    rows = "\n".join(
        f"{float(t_d)!r},{float((0.4 + slope * t_d) % math.pi)!r},0.01"
        for t_d in np.arange(8) * 1e-3
    )
    path = tmp_path / "delays.csv"
    path.write_text("t_d_s,phi_d_rad,sigma_rad\n" + rows + "\n")
    assert run("fit", "--trace", path, "--kind", "slope", "--period-rad", math.pi,
               "--out", tmp_path) == 0
    payload = json.loads(read(tmp_path / "fit.json"))
    assert payload["params"]["slope_over_2pi_hz"] == pytest.approx(60.0, rel=1e-9)
    assert payload["ambiguous"] is False


def test_fit_envelope_via_cli(tmp_path):
    tau = np.linspace(0.0002, 0.009, 16)
    sig = np.exp(-((tau / 0.005) ** 2))
    rows = "\n".join(f"{float(t)!r},{float(s)!r},1000,0.02" for t, s in zip(tau, sig))
    path = tmp_path / "env.csv"
    path.write_text("tau_s,signal,shots,sigma\n" + rows + "\n")
    assert run("fit", "--trace", path, "--kind", "envelope", "--out", tmp_path) == 0
    payload = json.loads(read(tmp_path / "fit.json"))
    assert payload["params"]["t_gauss_s"] == pytest.approx(0.005, rel=1e-6)


# ------------------------------------------------------------------- cancel


def test_cancel_collinear_angles_exit_4(tmp_path):
    code = run("cancel", "--seed", 2, "--trials", 3, "--trial-angles-deg", "0,180",
               "--points", 12, "--shots", 80, "--tau-max", 0.04,
               "--verify-points", 10, "--verify-shots", 50, "--out", tmp_path)
    assert code == 4
    assert not (tmp_path / "solution.json").exists()


def test_cancel_wrong_angle_count_exit_2(tmp_path):
    assert run("cancel", "--trials", 4, "--trial-angles-deg", "0,120",
               "--out", tmp_path) == 2
    assert run("cancel", "--trials", 2, "--out", tmp_path) == 2
    assert run("cancel", "--trial-angles-deg", "0,abc,240", "--out", tmp_path) == 2


@pytest.mark.parametrize("flag, value", [
    ("--shots", 0), ("--points", 0), ("--verify-shots", 0), ("--verify-points", 0),
    ("--n", -1), ("--tau-max", -1), ("--verify-tau-max", "nan"), ("--f-m", 0),
    ("--trial-mv", "nan"), ("--threshold", 2), ("--min-apply-mv", "nan"),
    ("--trial-angles-deg", "nan,0,90"),
])
def test_cancel_bad_flag_exits_2(flag, value, tmp_path, capsys):
    assert run("cancel", flag, value, "--out", tmp_path) == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cancel_fits_at_scenario_fock_cutoff(tmp_path):
    truth = reference_truth(seed=3)
    truth = replace(truth, heating={mode: HeatingModel(15.5, 6) for mode in ("X", "Y")})
    scenario = tmp_path / "cutoff6.json"
    scenario.write_text(json.dumps(scenario_to_dict(truth)))
    assert run("cancel", "--scenario", scenario, "--out", tmp_path) == 0
    rows = read(tmp_path / "trials.csv").strip().split("\n")[1:]
    fitted = [float(row.split(",")[3]) for row in rows]

    # replay the default trial scans on a fresh lab with the same truth
    lab = SimLab(truth)
    grid = np.linspace(0.05 / 40, 0.05, 40)
    injections = [None] + [Phasor(15.0, angle) for angle in cli._trial_angles(4, None)]
    expected = [
        fit_amplitude(lab.trace("X", 1, grid, 400, compensation=inj), 1, 60.0,
                      fock_cutoff=6).params["A_over_2pi"]
        for inj in injections
    ]
    assert fitted == expected


def test_cancel_zero_noise_skips_compensation(tmp_path):
    scenario = tmp_path / "quiet.json"
    scenario.write_text(json.dumps(scenario_to_dict(
        reference_truth(seed=1, noise_mv=0.0, nbar_dot=15.5))))
    code = run("cancel", "--scenario", scenario, "--trial-mv", 12.0,
               "--points", 12, "--shots", 120, "--tau-max", 0.04,
               "--verify-points", 12, "--verify-shots", 80, "--verify-tau-max", 0.05,
               "--out", tmp_path)
    assert code == 0
    solution = json.loads(read(tmp_path / "solution.json"))
    assert solution["applied"] is False
    assert solution["compensation_mv"] is None
    assert solution["noise_mv"] < 1.0
    assert (tmp_path / "trials.csv").exists()
    assert (tmp_path / "before.csv").exists()
    assert (tmp_path / "after.csv").exists()


# ------------------------------------------------------------------ figures


def test_figures_rejects_unknown_id(tmp_path):
    assert run("figures", "--id", "fig99", "--out", tmp_path) == 2


def test_figures_fig2a_bundle(tmp_path):
    assert run("figures", "--id", "fig2a", "--out", tmp_path) == 0
    data = read(tmp_path / "fig2a_data.csv").strip().split("\n")
    assert len(data) == 81
    model = read(tmp_path / "fig2a_model.csv").strip().split("\n")
    assert model[0] == "tau_s,signal"
    assert len(model) == 401
    fit = json.loads(read(tmp_path / "fig2a_fit.json"))
    assert fit["params"]["A_over_2pi"] == pytest.approx(53.9, abs=5.0)


def test_integration_error_exits_3(tmp_path, monkeypatch, capsys):
    """A density-matrix run that loses its trace raises IntegrationError, and
    the CLI maps it to exit 3.  A negative tolerance makes every trace check
    fail, so the path runs without contriving a broken state.
    """
    monkeypatch.setattr(qs, "_TRACE_TOL", -1.0)
    spec = qs.SequenceSpec(CPSequence(1, 0.01), heating=HeatingModel(6.0))
    with pytest.raises(qs.IntegrationError):
        qs.run_sequence_phases(spec, np.zeros(4))
    capsys.readouterr()
    assert run("figures", "--id", "figS2", "--out", tmp_path) == 3
    assert "integration" in capsys.readouterr().err


def test_figures_figS2_product_scan(tmp_path):
    assert run("figures", "--id", "figS2", "--out", tmp_path) == 0
    summary = json.loads(read(tmp_path / "figS2_summary.json"))
    for n in (0, 1, 2):
        lines = read(tmp_path / f"figS2_n{n}.csv").strip().split("\n")
        assert lines[0] == "tau_s,c_total,c_heat,c_mod,product,abs_diff"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (16, 6)
        assert np.allclose(rows[:, 4], rows[:, 2] * rows[:, 3], rtol=0.0, atol=1e-15)
        assert np.allclose(rows[:, 5], np.abs(rows[:, 1] - rows[:, 4]), rtol=0.0, atol=1e-15)
        assert summary[f"n{n}"]["max_abs_diff"] == rows[:, 5].max()
        # c_heat is the exact envelope, not a master-curve lookup
        env = qs.heating_envelope(CPSequence(n, 1.0), HeatingModel(cli._FIGS2_NBAR), rows[:, 0])
        assert np.array_equal(rows[:, 2], env)
    # the echo scan is where the product model breaks by tenths (criterion 5)
    assert summary["n1"]["max_abs_diff"] > 0.1


def test_figures_figS3a_monitor(tmp_path):
    assert run("figures", "--id", "figS3a", "--out", tmp_path) == 0
    summary = json.loads(read(tmp_path / "figS3a_summary.json"))
    assert summary["common_drift"] is True
    assert summary["mode_correlation"] > 0.8
    shots = read(tmp_path / "figS3a_shots.csv").strip().split("\n")
    assert len(shots) == 62501
    binned = read(tmp_path / "figS3a_binned_X.csv").strip().split("\n")
    assert binned[0] == "t_s,p1_mean,p1_sigma"


# ------------------------------------------------------------------ plumbing


def test_atomic_write_leaves_no_temp_files(tmp_path):
    cli._atomic_write(str(tmp_path / "x.txt"), "hello\n")
    assert read(tmp_path / "x.txt") == "hello\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


# ------------------------------------------------------------------ imports


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    # Cold-start cost: each CLI call pays for every module the CLI imports.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, linecancel.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
