"""Exact accumulated phase of a toggled single-tone modulation, and the
signal shapes built directly from it.

The integral int_0^tau y_n(t) * A cos(omega t + phase) dt is evaluated in the
factored form (A/omega) * F_n(omega tau) * sin(phase + omega tau/2 + delta_n)
derived at model_core.signed_filter: one filter pass and one sine per
element, exact to rounding, and free of the cancellation a sum of
per-segment antiderivatives suffers when omega tau << 1.  The independent
cross-checks, that segment sum and blind quadrature, live in
tests/oracles.py.  The explicit phase-grid average here is the direct route
to the phase-averaged contrast that the J0 closed form must reproduce.
"""
from __future__ import annotations

import math

import numpy as np

from .model_core import signed_filter

__all__ = [
    "accumulated_phase",
    "accumulated_phase_grid",
    "phase_averaged_signal",
]


def accumulated_phase(seq, mod):
    """phi_n(tau) = int_0^tau y_n(t) * amplitude * cos(omega t + phase) dt.

    Exact, in factored form.  Linear in the modulation amplitude.  The scalar
    case of accumulated_phase_grid.
    """
    return float(accumulated_phase_grid(seq, mod.amplitude, mod.omega_mod, mod.phase))


def accumulated_phase_grid(seq, amplitude, omega_mod, phases):
    """accumulated_phase evaluated for an array of modulation phases at once.

    (amplitude/omega) * F_n(omega tau) * sin(phase + omega tau/2 + delta_n),
    vectorized over `phases` and broadcasting against `amplitude` and an
    `omega_mod` array if per-element frequencies are supplied.  Raises
    ValueError unless every omega_mod is finite and > 0.
    """
    phases = np.asarray(phases, dtype=float)
    omega = np.asarray(omega_mod, dtype=float)
    if not (np.all(np.isfinite(omega)) and np.all(omega > 0.0)):
        raise ValueError(f"omega_mod must be finite and > 0, got {omega_mod}")
    n = seq.n_pulses
    theta = omega * seq.tau
    arg = phases + 0.5 * theta
    # delta_n as exact quadratures: sin(x + pi/2) = cos x, sin(x - pi/2) = -cos x
    if n % 2:
        wave = np.sin(arg)
    elif n == 0:
        wave = np.cos(arg)
    else:
        wave = -np.cos(arg)
    return amplitude / omega * signed_filter(n, theta) * wave


def phase_averaged_signal(seq, mod, n_phases=4096):
    """Mean of cos(accumulated_phase) over a uniform modulation-phase grid.

    This is the direct average the closed-form J0 expression must reproduce.
    The grid is uniform on [0, 2*pi), so convergence in n_phases is spectral;
    n_phases >= 64 is required, 4096 leaves nothing measurable.
    """
    if n_phases < 64:
        raise ValueError(f"n_phases must be >= 64, got {n_phases}")
    grid = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    phases = accumulated_phase_grid(seq, mod.amplitude, mod.omega_mod, grid)
    return float(np.mean(np.cos(phases)))
