"""Exact accumulated phase and its phase-grid averages.

The module under test evaluates the factored form
(A/omega) F_n(omega tau) sin(phase + omega tau/2 + delta_n).  The references
in oracles.py take other routes: the per-segment antiderivative sum, and
quadrature that integrates y(t) * A cos(omega t + phi) numerically.
Agreement between them is evidence, not tautology.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecancel.model_core import TWO_PI, CPSequence, ModulationParams, analytic_signal
from linecancel.phase_oracle import (
    accumulated_phase,
    accumulated_phase_grid,
    phase_averaged_signal,
)

import oracles

# Oracle-frozen phase average for the worked example (n=1, tau=1/60 s,
# A/2pi = 50 Hz, f = 60 Hz); equals J0(10/3) to rounding.
FROZEN_AVERAGE = -0.35142283429330234


def test_free_evolution_full_period_integrates_to_zero():
    # n = 0 over one full modulation period: the cosine integrates to zero.
    seq = CPSequence(0, 1.0 / 60.0)
    mod = ModulationParams(100.0, TWO_PI * 60.0, phase=0.0)
    assert abs(accumulated_phase(seq, mod)) <= 1e-12


def test_echo_closed_form_anchor():
    # n = 1, omega tau = 2 pi, A = omega, phase 3pi/2: the accumulated phase
    # is exactly 4.
    omega = TWO_PI * 60.0
    seq = CPSequence(1, TWO_PI / omega)
    mod = ModulationParams(omega, omega, phase=1.5 * math.pi)
    assert accumulated_phase(seq, mod) == pytest.approx(4.0, abs=1e-12)


def test_accumulated_phase_linear_in_amplitude():
    seq = CPSequence(2, 0.0314)
    base = ModulationParams(40.0, 500.0, phase=0.7)
    tripled = ModulationParams(120.0, 500.0, phase=0.7)
    assert accumulated_phase(seq, tripled) == pytest.approx(
        3.0 * accumulated_phase(seq, base), rel=1e-14
    )


def test_accumulated_phase_zero_modulation():
    assert accumulated_phase(CPSequence(2, 0.02), ModulationParams(0.0, 377.0)) == 0.0


def test_accumulated_phase_matches_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(0, 5))
        tau = rng.uniform(0.002, 0.15)
        amp = rng.uniform(10.0, 800.0)
        omega = rng.uniform(100.0, 600.0)
        phase = rng.uniform(0.0, TWO_PI)
        ours = accumulated_phase(CPSequence(n, tau), ModulationParams(amp, omega, phase))
        ref = oracles.toggled_phase_quadrature(n, tau, amp, omega, phase)
        assert abs(ours - ref) <= 1e-9, (n, tau, amp, omega, phase)


def test_grid_form_matches_scalar_form():
    seq = CPSequence(3, 0.05)
    phases = np.linspace(0.0, TWO_PI, 17)
    grid = accumulated_phase_grid(seq, 80.0, 420.0, phases)
    for phi, val in zip(phases, grid):
        assert val == pytest.approx(
            accumulated_phase(seq, ModulationParams(80.0, 420.0, phi)), abs=1e-13
        )


def test_grid_form_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        accumulated_phase_grid(CPSequence(1, 0.01), 10.0, 0.0, np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_grid_form_rejects_non_finite_frequency(bad):
    seq = CPSequence(2, 0.01)
    with pytest.raises(ValueError, match="finite"):
        accumulated_phase_grid(seq, 10.0, bad, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        accumulated_phase_grid(seq, 10.0, np.array([377.0, bad]), np.array([0.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 8),
    theta=st.floats(1e-6, 2000.0, exclude_min=True),
    amp_over_omega=st.floats(1e-3, 1e3),
    phase=st.floats(0.0, 2.0 * math.pi),
    shape=st.sampled_from(["scalar", "phases", "omega", "both"]),
)
def test_factored_form_matches_segment_sum(n, theta, amp_over_omega, phase, shape):
    """Factored form vs the per-segment antiderivative sum, any n, any shape."""
    seq = CPSequence(n, 1.0)
    omega, phases = theta, phase
    if shape in ("phases", "both"):
        phases = phase + np.linspace(0.0, 2.0 * math.pi, 7)
    if shape in ("omega", "both"):
        omega = theta * np.linspace(0.5, 1.0, 3)[:, None]
    amplitude = amp_over_omega * theta
    ours = accumulated_phase_grid(seq, amplitude, omega, phases)
    ref = oracles.segment_sum_phase_grid(seq, amplitude, omega, phases)
    assert np.shape(ours) == np.shape(ref)
    scale = amplitude / np.asarray(omega) * (1.0 + np.asarray(omega) * seq.tau)
    assert np.all(np.abs(ours - ref) <= 1e-13 * (n + 2) * scale)


@pytest.mark.parametrize("phase", [0.7, 2.0, 4.0])
def test_small_theta_phase_keeps_relative_accuracy(phase):
    # omega tau = 3.8e-4: the segment antiderivatives are differences of
    # nearly equal sines, which cost the segment sum ~1e-4 relative here;
    # the factored form keeps every digit the quadrature resolves.
    n, tau = 2, 1e-6
    mod = ModulationParams.from_hz(50.0, 60.0, phase)
    ref = oracles.toggled_phase_quadrature(n, tau, mod.amplitude, mod.omega_mod, phase, tol=1e-20)
    assert accumulated_phase(CPSequence(n, tau), mod) == pytest.approx(ref, rel=1e-6, abs=0.0)


# ------------------------------------------------------------ phase average


def test_phase_average_zero_amplitude_is_one():
    assert phase_averaged_signal(CPSequence(1, 0.02), ModulationParams(0.0, 377.0)) == 1.0


def test_phase_average_revival():
    seq = CPSequence(1, 2.0 / 60.0)
    mod = ModulationParams.from_hz(50.0, 60.0)
    assert phase_averaged_signal(seq, mod) == pytest.approx(1.0, abs=1e-12)


def test_phase_average_frozen_example():
    seq = CPSequence(1, 1.0 / 60.0)
    mod = ModulationParams.from_hz(50.0, 60.0)
    assert phase_averaged_signal(seq, mod) == pytest.approx(FROZEN_AVERAGE, abs=1e-12)


def test_phase_average_grid_convergence_is_spectral():
    seq = CPSequence(2, 0.0417)
    mod = ModulationParams.from_hz(120.0, 57.0)
    a = phase_averaged_signal(seq, mod, n_phases=4096)
    b = phase_averaged_signal(seq, mod, n_phases=8192)
    assert abs(a - b) <= 1e-10


def test_phase_average_small_grid_rejected():
    with pytest.raises(ValueError):
        phase_averaged_signal(CPSequence(1, 0.02), ModulationParams(1.0, 377.0), n_phases=32)


def test_phase_average_agrees_with_closed_form_across_draws():
    """Dual route: phase-grid mean of the segment-sum phases vs the J0 closed form."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(0, 4))
        tau = rng.uniform(0.001, 0.2)
        mod = ModulationParams.from_hz(rng.uniform(1.0, 200.0), rng.uniform(40.0, 80.0))
        seq = CPSequence(n, tau)
        grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        phases = oracles.segment_sum_phase_grid(seq, mod.amplitude, mod.omega_mod, grid)
        diff = abs(np.mean(np.cos(phases)) - analytic_signal(seq, mod))
        worst = max(worst, diff)
    assert worst <= 1e-9


def test_phase_average_matches_quadrature_oracle():
    n, tau, amp_hz, f = 2, 0.03, 60.0, 55.0
    ours = phase_averaged_signal(CPSequence(n, tau), ModulationParams.from_hz(amp_hz, f))
    ref = oracles.phase_average_quadrature(n, tau, TWO_PI * amp_hz, TWO_PI * f)
    assert abs(ours - ref) <= 1e-8
