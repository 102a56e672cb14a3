"""Exact accumulated phase of a toggled single-tone modulation, and the
signal shapes built directly from it.

The integral int_0^tau y_n(t) * A cos(omega t + phase) dt is evaluated from
per-segment antiderivatives, (A/omega) * [sin(omega t + phase)] differences
with the segment's toggling sign, so the result is exact to rounding.  The
explicit phase-grid average here is the slow-but-independent cross-check for
the J0 closed form in model_core: the two must agree, and tests hold them to
that.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "accumulated_phase",
    "accumulated_phase_grid",
    "phase_averaged_signal",
]


def accumulated_phase(seq, mod):
    """phi_n(tau) = int_0^tau y_n(t) * amplitude * cos(omega t + phase) dt.

    Exact, from segment antiderivatives.  Linear in the modulation amplitude.
    The scalar case of accumulated_phase_grid.
    """
    return float(accumulated_phase_grid(seq, mod.amplitude, mod.omega_mod, mod.phase))


def accumulated_phase_grid(seq, amplitude, omega_mod, phases):
    """accumulated_phase evaluated for an array of modulation phases at once.

    The integral is (amplitude/omega) * sum over segments of the toggling sign
    times the difference of sin(omega t + phase) at the segment edges,
    vectorized over `phases` (and broadcasting against an `omega_mod` array if
    per-element frequencies are supplied).
    """
    phases = np.asarray(phases, dtype=float)
    omega = np.asarray(omega_mod, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega_mod must be > 0")
    edges = seq.segment_edges()
    # (..., n_edges): outer structure from broadcasting phases/omega, inner edges
    arg = omega[..., None] * edges + phases[..., None]
    per_segment = np.diff(np.sin(arg), axis=-1)
    return amplitude / omega * (per_segment @ seq.segment_signs())


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
