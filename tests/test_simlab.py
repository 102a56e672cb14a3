"""The simulated lab: determinism, per-shot physics, drift, monitors, and the
scenario schema.
"""
import math

import numpy as np
import pytest

import linecancel.simlab as sl
from linecancel.estimator import shot_noise_sigma
from linecancel.model_core import TWO_PI, CPSequence, HeatingModel, ModulationParams, analytic_signal
from linecancel.phase_oracle import accumulated_phase
from linecancel.phasor_cancel import Phasor
from linecancel.quantum_sim import cached_heating_envelope
from linecancel.simlab import (
    DriftParams,
    LabTruth,
    SchemaError,
    ShotRequest,
    SimLab,
    bin_monitor,
    coherence_time,
    monitor_trace,
    reference_truth,
    scenario_from_dict,
    scenario_to_dict,
)

from oracles import ou_drift_step, segment_sum_phase_grid

TAU_GRID = np.linspace(0.004, 0.06, 8)


# -------------------------------------------------------------- determinism


def test_trace_is_bit_deterministic():
    a = SimLab(reference_truth(seed=5)).trace("X", 1, TAU_GRID, shots=300)
    b = SimLab(reference_truth(seed=5)).trace("X", 1, TAU_GRID, shots=300)
    assert np.array_equal(a.signal, b.signal)
    assert np.array_equal(a.sigma, b.sigma)


def test_fresh_labs_draw_identical_shots():
    truth = reference_truth(seed=9)
    req = ShotRequest("X", CPSequence(1, 0.02), shots=400)
    assert SimLab(truth).run_shots(req) == SimLab(truth).run_shots(req)


def test_rng_stream_advances_within_one_lab():
    lab = SimLab(reference_truth(seed=9))
    req = ShotRequest("X", CPSequence(1, 0.02), shots=400)
    assert lab.run_shots(req) != lab.run_shots(req)


@pytest.mark.parametrize("n, t_d, comp, truth_kw", [
    (0, None, None, {"sigma_f": 4.0}),
    (1, 0.003, None, {}),
    (2, None, Phasor(12.0, 4.5), {}),
    (3, 0.002, Phasor(12.0, 4.5), {"sigma_f": 4.0, "burst_mode": False}),
    (0, 0.001, Phasor(5.0, 1.0), {"line_jitter": 0.0, "sigma_f": 2.0}),
    (1, None, Phasor(14.0, 1.2), {"line_jitter": 0.0, "burst_mode": False}),
])
def test_trace_equals_point_by_point_run_shots(n, t_d, comp, truth_kw):
    # A trace evaluates the physics in one array pass; it must draw and
    # return exactly what run_shots does point by point, drift state included.
    truth = reference_truth(seed=21, **truth_kw)
    lab, twin = SimLab(truth), SimLab(truth)
    trace = lab.trace("Y", n, TAU_GRID, shots=250, t_d=t_d, analyzer_phase=0.3,
                      compensation=comp)
    points = [twin.run_shots(ShotRequest("Y", CPSequence(n, float(tau)), 250, t_d, 0.3, comp))
              for tau in TAU_GRID]
    assert trace.signal.tolist() == [p[0] for p in points]
    assert trace.sigma.tolist() == [p[1] for p in points]
    req = ShotRequest("X", CPSequence(n, 0.03), shots=300, t_d=t_d)
    assert lab.run_shots(req) == twin.run_shots(req)


@pytest.mark.parametrize("t_d", [None, 0.002], ids=["free", "triggered"])
@pytest.mark.parametrize("comp", [None, Phasor(12.0, 4.5)], ids=["bare", "compensated"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_trace_unchanged_by_segment_sum_phase(monkeypatch, n, comp, t_d):
    # The factored accumulated phase and the per-segment antiderivative sum
    # differ at rounding only, far below what moves a shot outcome.  The
    # analyzer offset makes the signal odd in the phase, so a sign slip shows.
    truth = reference_truth(seed=17, sigma_f=4.0)
    kw = dict(shots=300, t_d=t_d, analyzer_phase=0.3, compensation=comp)
    fast = SimLab(truth).trace("X", n, TAU_GRID, **kw)
    monkeypatch.setattr(sl, "accumulated_phase_grid", segment_sum_phase_grid)
    ref = SimLab(truth).trace("X", n, TAU_GRID, **kw)
    assert np.array_equal(fast.signal, ref.signal)
    assert np.array_equal(fast.sigma, ref.sigma)


def test_trace_rejects_bad_grids():
    lab = SimLab(reference_truth(seed=2))
    for grid in ([], [0.01, 0.0], [0.01, math.nan]):
        with pytest.raises(ValueError):
            lab.trace("X", 1, grid, shots=10)


# --------------------------------------------------------- per-shot physics


def test_quiet_lab_reads_unity():
    truth = reference_truth(seed=0, noise_mv=0.0, nbar_dot=0.0)
    trace = SimLab(truth).trace("X", 1, TAU_GRID, shots=200)
    assert np.all(trace.signal == 1.0)
    np.testing.assert_allclose(trace.sigma, 1.0 / 400.0)


def test_free_running_point_matches_product_model():
    # The lab's own fitting model: phase-averaged contrast times envelope.
    truth = reference_truth(seed=3, line_jitter=0.0)
    tau = 0.0173
    trace = SimLab(truth).trace("X", 1, np.array([tau]), shots=20000)
    a_hz = truth.ambient_amplitude("X")
    expected = cached_heating_envelope(1, 15.5, tau) * analytic_signal(
        CPSequence(1, tau), ModulationParams.from_hz(a_hz, 60.0)
    )
    assert abs(trace.signal[0] - expected) <= 5.0 * shot_noise_sigma(expected, 20000)


def test_line_triggered_point_matches_phase_oracle():
    # With jitter and drift off, a triggered shot is a pure Bernoulli draw
    # around envelope * cos(accumulated phase at the trigger-set phase).
    truth = reference_truth(seed=4, line_jitter=0.0)
    tau, t_d = 0.021, 0.0025
    seq = CPSequence(1, tau)
    trace = SimLab(truth).trace("X", 1, np.array([tau]), shots=20000, t_d=t_d)
    phi0 = truth.noise_phasor.angle + TWO_PI * 60.0 * t_d
    acc = accumulated_phase(
        seq, ModulationParams(TWO_PI * truth.ambient_amplitude("X"), TWO_PI * 60.0, phi0)
    )
    expected = cached_heating_envelope(1, 15.5, tau) * math.cos(acc)
    assert abs(trace.signal[0] - expected) <= 5.0 * shot_noise_sigma(expected, 20000)


def test_exact_compensation_leaves_envelope_only():
    truth = reference_truth(seed=6, line_jitter=0.0)
    comp = truth.noise_phasor.rotated(math.pi)
    tau = 0.0173
    trace = SimLab(truth).trace("X", 1, np.array([tau]), shots=20000, compensation=comp)
    env = cached_heating_envelope(1, 15.5, tau)
    assert abs(trace.signal[0] - env) <= 5.0 * shot_noise_sigma(env, 20000)


def test_jittered_compensation_still_near_envelope():
    # Burst re-referencing bounds the injection phase slip to one jitter
    # cycle, so cancellation survives 1 Hz of line jitter.
    truth = reference_truth(seed=6, line_jitter=1.0)
    comp = truth.noise_phasor.rotated(math.pi)
    tau = 0.0173
    trace = SimLab(truth).trace("X", 1, np.array([tau]), shots=20000, compensation=comp)
    env = cached_heating_envelope(1, 15.5, tau)
    assert abs(trace.signal[0] - env) <= 0.02


def test_mode_transfer_scaling():
    truth = reference_truth()
    assert truth.r_for_mode("X") == pytest.approx(0.38)
    assert truth.ambient_amplitude("X") == pytest.approx(14.0 / 0.38)
    # modulation amplitude scales with the mode frequency
    assert truth.ambient_amplitude("Y") == pytest.approx(
        truth.ambient_amplitude("X") * 1270e3 / 910e3
    )
    with pytest.raises(ValueError, match="unknown mode"):
        truth.r_for_mode("Z")


def test_shot_request_validation():
    with pytest.raises(ValueError):
        ShotRequest("X", CPSequence(1, 0.01), shots=0)
    with pytest.raises(ValueError):
        ShotRequest("X", CPSequence(1, 0.01), shots=10, t_d=-1e-3)


def test_truth_validation():
    with pytest.raises(ValueError):
        LabTruth(noise_phasor=Phasor(1.0, 0.0), transfer_r=0.0)
    with pytest.raises(ValueError):
        LabTruth(noise_phasor=Phasor(1.0, 0.0), transfer_r=0.38, f_line=-60.0)
    with pytest.raises(ValueError):
        DriftParams(sigma_f=-1.0)
    with pytest.raises(ValueError):
        DriftParams(sigma_f=1.0, tau_c=0.0)


# -------------------------------------------------------------------- drift


def test_ou_step_stationary_statistics():
    rng = np.random.default_rng(12)
    sigma_f, tau_c, dt = 30.0, 10.0, 5.0
    x = 0.0
    samples = []
    for _ in range(20000):
        x = ou_drift_step(x, dt, sigma_f, tau_c, rng)
        samples.append(x)
    std = float(np.std(samples[200:]))
    assert abs(std - sigma_f) / sigma_f <= 0.03


def test_ou_step_zero_sigma_only_decays():
    path, final = sl._ou_path(5.0, 3, 2.0, 0.0, 10.0, np.random.default_rng(0))
    assert path == pytest.approx(5.0 * np.exp(-0.2 * np.arange(1, 4)))
    assert final == path[-1]


def test_ou_path_autocorrelation_time():
    rng = np.random.default_rng(5)
    sigma_f, tau_c, dt = 30.0, 10.0, 5.0
    path, _ = sl._ou_path(0.0, 200000, dt, sigma_f, tau_c, rng)
    x = path[200:]
    lag = 2  # one correlation time
    rho = float(np.corrcoef(x[:-lag], x[lag:])[0, 1])
    assert abs(rho - math.exp(-1.0)) <= 0.05 * math.exp(-1.0)


def test_ou_path_matches_stepwise_recursion():
    sigma_f, tau_c, dt = 7.0, 3.0, 0.5
    path, final = sl._ou_path(1.5, 50, dt, sigma_f, tau_c, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    x = 1.5
    for k in range(50):
        x = ou_drift_step(x, dt, sigma_f, tau_c, rng)
        assert path[k] == x
    assert final == x


# ----------------------------------------------------------------- monitors


def test_monitor_modes_share_common_drift():
    truth = reference_truth(seed=15, sigma_f=40.0, tau_c=5.0)
    binned = {}
    for mode in ("X", "Y"):
        times, outcomes = monitor_trace(truth, mode, 2e-3, 250.0, 4e-3)
        _, means, _ = bin_monitor(times, outcomes, 1.0)
        binned[mode] = means
    corr = float(np.corrcoef(binned["X"], binned["Y"])[0, 1])
    assert corr > 0.8

    independent = LabTruth(
        noise_phasor=truth.noise_phasor, transfer_r=truth.transfer_r,
        heating=truth.heating, rng_seed=15,
        drift=DriftParams(sigma_f=40.0, tau_c=5.0, common=False),
    )
    binned_i = {}
    for mode in ("X", "Y"):
        times, outcomes = monitor_trace(independent, mode, 2e-3, 250.0, 4e-3)
        _, means, _ = bin_monitor(times, outcomes, 1.0)
        binned_i[mode] = means
    corr_i = float(np.corrcoef(binned_i["X"], binned_i["Y"])[0, 1])
    assert abs(corr_i) < 0.5


def test_monitor_trace_validation():
    truth = reference_truth()
    with pytest.raises(ValueError):
        monitor_trace(truth, "X", 0.0, 10.0, 0.01)
    with pytest.raises(ValueError):
        monitor_trace(truth, "X", 1e-3, 10.0, -0.01)


def test_bin_monitor_shapes_and_drops():
    times = np.array([0.1, 0.2, 2.1, 2.2, 2.3])
    outcomes = np.array([1, 0, 1, 1, 0])
    centers, means, counts = bin_monitor(times, outcomes, 1.0)
    np.testing.assert_allclose(centers, [0.5, 2.5])  # empty middle bin dropped
    np.testing.assert_allclose(means, [0.5, 2.0 / 3.0])
    np.testing.assert_array_equal(counts, [2, 3])
    with pytest.raises(ValueError):
        bin_monitor(times, outcomes, 0.0)


# ----------------------------------------------------------- coherence time


def make_decay_trace(tau_c=0.035, oscillate=False):
    tau = np.linspace(0.001, 0.12, 120)
    sig = np.exp(-tau / tau_c)
    if oscillate:
        sig = sig * np.abs(np.cos(TWO_PI * 45.0 * tau))
    shots = np.full(tau.size, 1000)
    from linecancel.model_core import RamseyTrace

    return RamseyTrace(tau, sig, shots, np.full(tau.size, 0.02))


def test_coherence_time_exponential():
    assert coherence_time(make_decay_trace()) == pytest.approx(0.035, rel=0.01)


def test_coherence_time_peak_envelope_reads_through_oscillation():
    t = coherence_time(make_decay_trace(oscillate=True), use_peak_envelope=True)
    assert t == pytest.approx(0.035, rel=0.15)


def test_coherence_time_error_paths():
    trace = make_decay_trace()
    with pytest.raises(ValueError):
        coherence_time(trace, threshold=1.5)
    with pytest.raises(ValueError, match="starts below"):
        coherence_time(trace, threshold=0.999)
    short = make_decay_trace(tau_c=10.0)
    with pytest.raises(ValueError, match="never crosses"):
        coherence_time(short)


# ------------------------------------------------------------------- schema


def test_scenario_round_trip():
    truth = reference_truth(seed=11, sigma_f=25.0, tau_c=7.0, burst_mode=False)
    back = scenario_from_dict(scenario_to_dict(truth))
    assert back.noise_phasor.magnitude == pytest.approx(truth.noise_phasor.magnitude)
    assert back.noise_phasor.angle == pytest.approx(truth.noise_phasor.angle)
    assert back.transfer_r == truth.transfer_r
    assert back.burst_mode is False
    assert back.drift == truth.drift
    assert back.rng_seed == 11
    assert back.heating_for_mode("X") == truth.heating_for_mode("X")
    assert back.mode_freqs == truth.mode_freqs


def test_scenario_schema_rejections():
    good = scenario_to_dict(reference_truth())

    bad = dict(good, extra_key=1)
    with pytest.raises(SchemaError, match="unknown"):
        scenario_from_dict(bad)

    bad = dict(good, schema_version=99)
    with pytest.raises(SchemaError, match="schema_version"):
        scenario_from_dict(bad)

    bad = dict(good, transfer_r_mV_per_Hz="0.38")
    with pytest.raises(SchemaError, match="type"):
        scenario_from_dict(bad)

    # bool is not an acceptable stand-in for a number
    bad = dict(good, f_line_Hz=True)
    with pytest.raises(SchemaError, match="bool"):
        scenario_from_dict(bad)

    bad = dict(good, modes={"Y": good["modes"]["Y"]})
    with pytest.raises(SchemaError, match="'X'"):
        scenario_from_dict(bad)

    bad = dict(good, modes=dict(good["modes"], X=dict(good["modes"]["X"], typo=1)))
    with pytest.raises(SchemaError, match="unknown"):
        scenario_from_dict(bad)

    bad = dict(good, drift=dict(good["drift"], sigma_f_Hz=-1.0))
    with pytest.raises(SchemaError):
        scenario_from_dict(bad)

    with pytest.raises(SchemaError):
        scenario_from_dict([1, 2, 3])


# Every numeric scenario field, as a key path into the schema-v1 dict.
NUMERIC_FIELDS = (
    ("transfer_r_mV_per_Hz",), ("f_line_Hz",), ("line_jitter_Hz",),
    ("modes", "X", "freq_Hz"), ("modes", "Y", "freq_Hz"), ("modes", "X", "nbar_dot"),
    ("drift", "sigma_f_Hz"), ("drift", "tau_c_s"), ("noise", "magnitude_mV"), ("noise", "angle_deg"),
)


def with_field(obj, path, value):
    """A copy of the scenario dict with the field at `path` set to value."""
    if len(path) == 1:
        return dict(obj, **{path[0]: value})
    return dict(obj, **{path[0]: with_field(obj[path[0]], path[1:], value)})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", NUMERIC_FIELDS, ids=".".join)
def test_scenario_rejects_non_finite_values(path, value):
    good = scenario_to_dict(reference_truth())
    with pytest.raises(SchemaError):
        scenario_from_dict(with_field(good, path, value))


def test_scenario_rejects_invalid_physics():
    good = scenario_to_dict(reference_truth())
    bad = dict(good, modes=dict(good["modes"], X=dict(good["modes"]["X"], nbar_dot=-2.0)))
    with pytest.raises(SchemaError):
        scenario_from_dict(bad)
