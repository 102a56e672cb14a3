"""Amplitude, phase, slope, and envelope fits.

Noiseless self-consistency checks feed the fit its own model and require
near-exact recovery; the Monte Carlo checks sample the simulated lab and test
statistical calibration of the quoted uncertainties.
"""
import math

import numpy as np
import pytest

from linecancel.estimator import (
    fit_amplitude,
    fit_gaussian_envelope,
    fit_phase,
    fit_phase_slope,
    shot_noise_sigma,
)
from linecancel.model_core import (
    TWO_PI,
    CPSequence,
    ModulationParams,
    RamseyTrace,
    analytic_signal,
    bessel_j0,
    filter_F,
    filter_F_general,
    signed_filter,
)
from linecancel.quantum_sim import cached_heating_envelope
from linecancel.simlab import SimLab, reference_truth

from oracles import multistart_fit_phase


def make_amplitude_trace(a_hz=53.9, nbar_dot=6.4, f_m=60.0, n=1, n_pts=48):
    tau = np.linspace(0.1 / n_pts, 0.1, n_pts)
    env = cached_heating_envelope(n, nbar_dot, tau)
    signal = env * bessel_j0((a_hz / f_m) * filter_F(n, TWO_PI * f_m * tau))
    sigma = np.full_like(tau, 0.02)
    return RamseyTrace(tau, signal, np.full(n_pts, 500), sigma)


def make_phase_trace(a_hz=56.8, phi_d=0.913 * math.pi, nbar_dot=15.5, f_m=60.0, n_pts=60):
    tau = np.linspace(0.1 / n_pts, 0.1, n_pts)
    omega = TWO_PI * f_m
    acc = (a_hz / f_m) * 4.0 * np.sin(omega * tau / 4.0) ** 2 * np.sin(omega * tau / 2.0 + phi_d)
    signal = cached_heating_envelope(1, nbar_dot, tau) * np.cos(acc)
    sigma = np.full_like(tau, 0.02)
    return RamseyTrace(tau, signal, np.full(n_pts, 500), sigma)


# --------------------------------------------------------------- shot noise


def test_shot_noise_sigma_values():
    assert shot_noise_sigma(0.0, 100) == pytest.approx(0.1)
    assert shot_noise_sigma(1.0, 100) == 1.0 / 200.0  # clipped floor
    out = shot_noise_sigma(np.array([0.0, 0.6]), np.array([100, 100]))
    assert out[1] == pytest.approx(0.08)


# ------------------------------------------------------------ fit_amplitude


def test_fit_amplitude_noiseless_self_consistency():
    res = fit_amplitude(make_amplitude_trace(), 1, 60.0)
    assert res.converged
    assert res.params["A_over_2pi"] == pytest.approx(53.9, rel=1e-6)
    assert res.params["nbar_dot"] == pytest.approx(6.4, rel=1e-6)
    assert res.chi2_reduced <= 1e-10


def test_fit_amplitude_random_noiseless_draws():
    rng = np.random.default_rng(17)
    for _ in range(15):
        a = float(rng.uniform(5.0, 100.0))
        g = float(rng.uniform(0.5, 25.0))
        res = fit_amplitude(make_amplitude_trace(a_hz=a, nbar_dot=g), 1, 60.0)
        assert res.params["A_over_2pi"] == pytest.approx(a, rel=1e-5), (a, g)
        assert res.params["nbar_dot"] == pytest.approx(g, rel=1e-4, abs=1e-4), (a, g)


@pytest.mark.parametrize("n", [4, 5])
def test_filter_values_vectorized_for_higher_n(n):
    # Beyond the closed forms, one array call over omega * tau gives the
    # contrast model's filter values; their magnitude is the segment |F|.
    omega = TWO_PI * 60.0
    tau = np.linspace(0.1 / 48, 0.1, 48)
    values = signed_filter(n, omega * tau)
    per_tau = [signed_filter(n, omega * t) for t in tau]
    assert np.array_equal(values, per_tau)
    per_sequence = [filter_F_general(CPSequence(n, float(t)), omega) for t in tau]
    assert np.allclose(np.abs(values), per_sequence, rtol=0.0, atol=1e-12)


def test_fit_amplitude_recovers_four_pulse_trace():
    # Truth built per tau from analytic_signal, i.e. from scalar filter values.
    n, a_hz, nbar_dot, f_m = 4, 53.9, 6.4, 60.0
    tau = np.linspace(0.1 / 48, 0.1, 48)
    mod = ModulationParams.from_hz(a_hz, f_m)
    contrast = np.array([analytic_signal(CPSequence(n, float(t)), mod) for t in tau])
    signal = cached_heating_envelope(n, nbar_dot, tau) * contrast
    trace = RamseyTrace(tau, signal, np.full(tau.size, 500), np.full(tau.size, 0.02))
    res = fit_amplitude(trace, n, f_m)
    assert res.converged
    assert res.params["A_over_2pi"] == pytest.approx(a_hz, rel=1e-6)
    assert res.params["nbar_dot"] == pytest.approx(nbar_dot, rel=1e-6)


def test_fit_amplitude_uniform_sigma_rescale_leaves_optimum():
    trace = make_amplitude_trace()
    scaled = RamseyTrace(trace.tau, trace.signal, trace.shots, 10.0 * trace.sigma)
    a = fit_amplitude(trace, 1, 60.0).params["A_over_2pi"]
    b = fit_amplitude(scaled, 1, 60.0).params["A_over_2pi"]
    assert a == pytest.approx(b, rel=1e-6)


def test_fit_amplitude_error_paths():
    trace = make_amplitude_trace()
    with pytest.raises(ValueError):
        fit_amplitude(trace, 1, 0.0)
    short = RamseyTrace(trace.tau[:5], trace.signal[:5], trace.shots[:5], trace.sigma[:5])
    with pytest.raises(ValueError, match="points"):
        fit_amplitude(short, 1, 60.0)
    # 25 ms span is under the 33 ms echo revival period at 60 Hz
    k = np.searchsorted(trace.tau, 0.025)
    narrow = RamseyTrace(trace.tau[:k], trace.signal[:k], trace.shots[:k], trace.sigma[:k])
    with pytest.raises(ValueError, match="revival"):
        fit_amplitude(narrow, 1, 60.0)
    blind = RamseyTrace(trace.tau, trace.signal, trace.shots, np.full_like(trace.tau, math.inf))
    with pytest.raises(ValueError, match="sigma"):
        fit_amplitude(blind, 1, 60.0)


def test_fit_amplitude_one_sigma_coverage():
    """Interval calibration: over 200 lab draws the 1-sigma interval should
    contain the true amplitude at roughly the Gaussian rate.
    """
    tau = np.linspace(0.1 / 80, 0.1, 80)
    hits = 0
    for seed in range(200):
        truth = reference_truth(seed=seed, noise_mv=53.9 * 0.38, nbar_dot=6.4)
        trace = SimLab(truth).trace("X", 1, tau, shots=500)
        res = fit_amplitude(trace, 1, 60.0)
        if abs(res.params["A_over_2pi"] - 53.9) <= res.sigmas["A_over_2pi"]:
            hits += 1
    assert 0.60 <= hits / 200.0 <= 0.75


def test_fit_amplitude_null_truth_consistent_with_zero():
    # No injected modulation: the fitted amplitude should sit within 2 sigma
    # of zero at roughly the Gaussian rate.
    tau = np.linspace(0.1 / 80, 0.1, 80)
    hits = 0
    for seed in range(100):
        truth = reference_truth(seed=seed, noise_mv=0.0, nbar_dot=6.4)
        trace = SimLab(truth).trace("X", 1, tau, shots=500)
        res = fit_amplitude(trace, 1, 60.0)
        if res.params["A_over_2pi"] <= 2.0 * res.sigmas["A_over_2pi"]:
            hits += 1
    assert hits >= 85


# ---------------------------------------------------------------- fit_phase


def test_fit_phase_noiseless_self_consistency():
    res = fit_phase(make_phase_trace(), 60.0)
    assert res.converged
    assert res.params["A_over_2pi"] == pytest.approx(56.8, rel=1e-6)
    assert res.params["phi_d"] == pytest.approx(0.913 * math.pi, rel=1e-6)
    assert res.params["nbar_dot"] == pytest.approx(15.5, rel=1e-5)
    assert res.chi2_reduced <= 1e-10


def test_fit_phase_reports_canonical_branch():
    # phi_d and phi_d + pi give identical signals; the report lives in [0, pi).
    shifted = make_phase_trace(phi_d=0.913 * math.pi + math.pi)
    res = fit_phase(shifted, 60.0)
    assert 0.0 <= res.params["phi_d"] < math.pi
    assert res.params["phi_d"] == pytest.approx(0.913 * math.pi, rel=1e-5)


@pytest.mark.parametrize("a_hz", [130.0, 145.0])
def test_fit_phase_large_amplitude_noiseless(a_hz):
    # Starts at 25 and 60 Hz alone settle in a wrong lobe here (A ~ 35-41
    # Hz, chi2_red ~ 100); the scan reaches up to 150 Hz.
    res = fit_phase(make_phase_trace(a_hz=a_hz, phi_d=1.7), 60.0)
    assert abs(res.params["A_over_2pi"] - a_hz) <= 1e-3
    dphi = abs(res.params["phi_d"] - 1.7) % math.pi
    assert min(dphi, math.pi - dphi) <= 1e-4


def test_fit_phase_matches_multistart_oracle():
    # One scan + one LM must reach the minimum the 16-start fit finds.
    tau = np.linspace(0.08 / 60, 0.08, 60)
    rng = np.random.default_rng(29)
    for seed in range(12):
        a_hz = float(rng.uniform(20.0, 100.0))
        truth = reference_truth(seed=seed, noise_mv=a_hz * 0.38,
                                noise_angle=float(rng.uniform(0.0, TWO_PI)), nbar_dot=15.5)
        trace = SimLab(truth).trace("X", 1, tau, 400, t_d=float(rng.uniform(0.0, 0.01)))
        res = fit_phase(trace, 60.0)
        oracle, params = multistart_fit_phase(trace, 60.0)
        assert res.chi2_reduced * (tau.size - 3) <= oracle.cost * (1.0 + 1e-6), seed
        for key in ("A_over_2pi", "nbar_dot"):
            assert res.params[key] == pytest.approx(params[key], rel=1e-5), (seed, key)
        dphi = abs(res.params["phi_d"] - params["phi_d"]) % math.pi
        assert min(dphi, math.pi - dphi) <= 1e-5 * params["phi_d"], seed


def test_fit_phase_rejects_bad_frequency():
    with pytest.raises(ValueError):
        fit_phase(make_phase_trace(), -60.0)


# ---------------------------------------------------------- fit_phase_slope


def test_fit_phase_slope_exact_line():
    slope = TWO_PI * 60.0
    t_d = np.arange(9) * 1e-3
    phis = (0.2 + slope * t_d) % math.pi
    fit = fit_phase_slope([(t, p, 0.01) for t, p in zip(t_d, phis)], period=math.pi)
    assert not fit.ambiguous
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(0.2, abs=1e-9)


def test_fit_phase_slope_down_weights_outlier():
    # A huge sigma on one corrupted point removes its influence; with equal
    # sigmas the same point drags the line off.
    t_d = np.arange(4) * 1e-3
    phis = 0.1 + 400.0 * t_d
    phis[3] += 1.0
    rows = [(t, p, 0.01) for t, p in zip(t_d, phis)]
    weighted = fit_phase_slope(rows[:3] + [(t_d[3], phis[3], 1e6)])
    assert weighted.slope == pytest.approx(400.0, rel=1e-9)
    assert weighted.intercept == pytest.approx(0.1, abs=1e-9)
    assert weighted.sigma == pytest.approx(0.01 / math.sqrt(2e-6), rel=1e-6)
    assert abs(fit_phase_slope(rows).slope - 400.0) > 100.0


def test_fit_phase_slope_two_points():
    fit = fit_phase_slope([(0.0, 0.1, 0.01), (0.001, 0.5, 0.01)])
    assert fit.slope == pytest.approx(400.0, rel=1e-12)


def test_fit_phase_slope_handles_unsorted_input():
    slope = TWO_PI * 66.7
    t_d = np.array([0.004, 0.0, 0.002, 0.006])
    phis = (1.0 + slope * t_d) % math.pi
    fit = fit_phase_slope([(t, p, 0.01) for t, p in zip(t_d, phis)], period=math.pi)
    assert fit.slope == pytest.approx(slope, rel=1e-9)


def test_fit_phase_slope_flags_antipodal_gap():
    # A successive gap of exactly half the period is equidistant from both
    # branches: flagged rather than silently resolved.  A resolvable gap
    # (0.3 pi here) is bridged without complaint.
    fit = fit_phase_slope([(0.0, 0.0, 0.01), (0.001, 0.5 * math.pi, 0.01),
                           (0.002, 0.0, 0.01)], period=math.pi)
    assert fit.ambiguous
    ok = fit_phase_slope([(0.0, 0.0, 0.01), (0.001, 0.3 * math.pi, 0.01),
                          (0.002, 0.6 * math.pi, 0.01)], period=math.pi)
    assert not ok.ambiguous


def test_fit_phase_slope_error_paths():
    with pytest.raises(ValueError):
        fit_phase_slope([(0.0, 0.1, 0.01)])
    with pytest.raises(ValueError, match="distinct"):
        fit_phase_slope([(0.001, 0.1, 0.01), (0.001, 0.2, 0.01)])


# ---------------------------------------------------- fit_gaussian_envelope


def test_fit_gaussian_envelope_noiseless():
    tg_true = 0.005
    tau = np.linspace(0.0002, 0.009, 20)
    signal = np.exp(-((tau / tg_true) ** 2))
    trace = RamseyTrace(tau, signal, np.full(20, 1000), np.full(20, 0.02))
    tg, tg_sigma = fit_gaussian_envelope(trace)
    assert tg == pytest.approx(tg_true, rel=1e-6)
    assert tg_sigma > 0.0


def test_fit_gaussian_envelope_scaled_contrast():
    # A reduced starting contrast c0 < 1 must not bias the time constant.
    tg_true = 0.004
    tau = np.linspace(0.0002, 0.008, 20)
    signal = 0.8 * np.exp(-((tau / tg_true) ** 2))
    trace = RamseyTrace(tau, signal, np.full(20, 1000), np.full(20, 0.02))
    tg, _ = fit_gaussian_envelope(trace)
    assert tg == pytest.approx(tg_true, rel=1e-6)
