"""Sequence geometry, closed-form filters, and the analytic contrast model."""
import math

import numpy as np
import pytest

from linecancel.model_core import (
    TWO_PI,
    CPSequence,
    HeatingModel,
    ModulationParams,
    RamseyTrace,
    analytic_signal,
    filter_F,
    filter_F_general,
    signed_filter,
    p1_to_signal,
    signal_to_p1,
    toggling_value,
)

import oracles

# Oracle-frozen J0(10/3); the worked example below lands exactly on it.
J0_10_3 = -0.35142283429330196


# ---------------------------------------------------------------- sequences


def test_pulse_times_match_oracle():
    for n in range(1, 9):
        tau = 0.05 * (n + 1)
        np.testing.assert_allclose(
            CPSequence(n, tau).pulse_times(), oracles.pulse_times(n, tau), rtol=0, atol=1e-15
        )


def test_segment_edges_and_signs():
    seq = CPSequence(2, 1.0)
    np.testing.assert_allclose(seq.segment_edges(), [0.0, 0.25, 0.75, 1.0])
    np.testing.assert_array_equal(seq.segment_signs(), [1, -1, 1])


def test_toggling_value_examples():
    seq = CPSequence(1, 1.0)
    assert toggling_value(seq, 0.25) == 1
    assert toggling_value(seq, 0.6) == -1
    assert toggling_value(seq, 0.9) == -1
    # boundary lands on the post-pulse side
    assert toggling_value(seq, 0.5) == -1
    seq2 = CPSequence(2, 1.0)
    assert toggling_value(seq2, 0.2) == 1
    assert toggling_value(seq2, 0.5) == -1
    assert toggling_value(seq2, 0.8) == 1


def test_toggling_value_outside_window_raises():
    seq = CPSequence(1, 1.0)
    with pytest.raises(ValueError):
        toggling_value(seq, -0.01)
    with pytest.raises(ValueError):
        toggling_value(seq, 1.01)


def test_toggling_integral_vanishes_for_pulsed_sequences():
    # Equal-area placement: the signed time integral of y(t) is zero for any
    # n >= 1 and tau for n = 0.
    for n in range(1, 9):
        seq = CPSequence(n, 0.137)
        total = seq.segment_signs() @ np.diff(seq.segment_edges())
        assert abs(total) <= 1e-12 * seq.tau
    seq0 = CPSequence(0, 0.137)
    total0 = seq0.segment_signs() @ np.diff(seq0.segment_edges())
    assert total0 == pytest.approx(0.137, abs=1e-15)


# ------------------------------------------------------------------ filters


def test_filter_anchor_values():
    assert filter_F(0, TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert filter_F(1, TWO_PI) == pytest.approx(4.0, abs=1e-12)
    assert filter_F(1, 2 * TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert filter_F(3, TWO_PI) == pytest.approx(-2.0, abs=1e-12)


def test_filter_closed_forms_match_general_construction():
    """Dual route: trig closed forms vs the segment-sum |F|."""
    rng = np.random.default_rng(7)
    for n in range(0, 4):
        for _ in range(100):
            tau = rng.uniform(1e-3, 0.2)
            theta = rng.uniform(1e-3, 40.0 * math.pi)
            omega = theta / tau
            closed = abs(filter_F(n, theta))
            general = filter_F_general(CPSequence(n, tau), omega)
            assert abs(closed - general) <= 1e-10, (n, theta)


def test_filter_general_matches_quadrature_for_higher_n():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        tau = rng.uniform(0.005, 0.1)
        omega = rng.uniform(50.0, 900.0)
        ours = filter_F_general(CPSequence(n, tau), omega)
        ref = oracles.filter_magnitude_quadrature(n, tau, omega)
        assert abs(ours - ref) <= 1e-9


def test_filter_five_pulse_zero_at_pi():
    # theta = pi sits on a zero of the 5-pulse filter in both routes.
    tau = 0.02
    omega = math.pi / tau
    assert filter_F_general(CPSequence(5, tau), omega) <= 1e-12
    assert oracles.filter_magnitude_quadrature(5, tau, omega) <= 1e-10


def test_signed_filter_extends_closed_forms():
    theta = np.linspace(1e-3, 300.0, 2001)
    for n in range(0, 4):
        assert np.array_equal(signed_filter(n, theta), filter_F(n, theta))
    for n in range(4, 9):
        general = filter_F_general(CPSequence(n, 1.0), theta)
        assert np.max(np.abs(np.abs(signed_filter(n, theta)) - general)) <= 1e-12, n
    assert isinstance(signed_filter(6, 2.5), float)


def test_filter_closed_form_rejects_large_n():
    with pytest.raises(ValueError):
        filter_F(4, 1.0)


def test_filter_general_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        filter_F_general(CPSequence(1, 0.01), 0.0)


# ------------------------------------------------------- analytic contrast


def test_analytic_signal_worked_example():
    seq = CPSequence(1, 1.0 / 60.0)
    mod = ModulationParams.from_hz(50.0, 60.0)
    # theta = 2 pi, F_1 = 4, argument = (50/60) * 4 = 10/3
    assert analytic_signal(seq, mod) == pytest.approx(J0_10_3, abs=1e-12)


def test_analytic_signal_revivals_are_exact():
    # Window an integer number of half-periods ahead of the filter zero:
    # the contrast returns to 1 exactly.
    for k in range(1, 6):
        seq = CPSequence(1, k / 30.0)
        mod = ModulationParams.from_hz(50.0, 60.0)
        assert analytic_signal(seq, mod) == 1.0
    assert analytic_signal(CPSequence(0, 1.0 / 60.0), ModulationParams.from_hz(80.0, 60.0)) == 1.0
    assert analytic_signal(CPSequence(2, 2.0 / 60.0), ModulationParams.from_hz(80.0, 60.0)) == 1.0


def test_analytic_signal_zero_amplitude():
    seq = CPSequence(3, 0.0123)
    assert analytic_signal(seq, ModulationParams(0.0, 377.0)) == 1.0


def test_analytic_signal_ignores_modulation_phase():
    seq = CPSequence(2, 0.031)
    a = analytic_signal(seq, ModulationParams(200.0, 350.0, phase=0.0))
    b = analytic_signal(seq, ModulationParams(200.0, 350.0, phase=2.1))
    assert a == b


# ----------------------------------------------------------- value objects


def test_modulation_params_validation():
    with pytest.raises(ValueError):
        ModulationParams(-1.0, 100.0)
    with pytest.raises(ValueError):
        ModulationParams(1.0, 0.0)
    with pytest.raises(ValueError):
        ModulationParams(math.inf, 100.0)
    with pytest.raises(ValueError):
        ModulationParams(1.0, 100.0, phase=math.nan)


def test_modulation_params_phase_normalized():
    mod = ModulationParams(1.0, 100.0, phase=-0.5)
    assert 0.0 <= mod.phase < TWO_PI
    assert mod.phase == pytest.approx(TWO_PI - 0.5)


def test_modulation_params_hz_round_trip():
    mod = ModulationParams.from_hz(53.9, 60.0, phase=1.0)
    assert mod.amplitude == pytest.approx(TWO_PI * 53.9)
    assert mod.amplitude_hz == pytest.approx(53.9)
    assert mod.freq_hz == pytest.approx(60.0)


def test_cpsequence_validation():
    with pytest.raises(ValueError):
        CPSequence(-1, 1.0)
    with pytest.raises(ValueError):
        CPSequence(1.5, 1.0)
    with pytest.raises(ValueError):
        CPSequence(1, 0.0)
    with pytest.raises(ValueError):
        CPSequence(1, math.inf)


def test_heating_model_validation():
    assert HeatingModel(0.0).nbar_dot == 0.0
    with pytest.raises(ValueError):
        HeatingModel(-0.1)
    with pytest.raises(ValueError):
        HeatingModel(1.0, fock_cutoff=3)
    with pytest.raises(ValueError):
        HeatingModel(1.0, fock_cutoff=7.5)


def test_ramsey_trace_validation():
    tau = np.array([0.01, 0.02, 0.03])
    sig = np.array([0.9, 0.5, 0.1])
    shots = np.array([100, 100, 100])
    sigma = np.array([0.03, 0.05, 0.05])
    trace = RamseyTrace(tau, sig, shots, sigma)
    assert len(trace) == 3

    with pytest.raises(ValueError):
        RamseyTrace(tau[:2], sig, shots, sigma)
    with pytest.raises(ValueError):
        RamseyTrace(tau[::-1], sig, shots, sigma)
    with pytest.raises(ValueError):
        RamseyTrace(tau, sig, np.zeros(3, dtype=int), sigma)
    with pytest.raises(ValueError):
        RamseyTrace(tau, sig, shots, np.array([0.03, -0.05, 0.05]))
    with pytest.raises(ValueError):
        RamseyTrace(tau, np.array([0.9, 0.5, 2.0]), shots, sigma)
    with pytest.raises(ValueError):
        RamseyTrace(np.array([]), np.array([]), np.array([]), np.array([]))


def test_p1_round_trip():
    s = np.linspace(-1.0, 1.0, 11)
    np.testing.assert_allclose(p1_to_signal(signal_to_p1(s)), s, rtol=0, atol=1e-15)
    assert signal_to_p1(1.0) == 1.0
    assert signal_to_p1(-1.0) == 0.0
