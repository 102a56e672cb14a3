"""Core types and closed-form model for motional coherence under a sinusoidal
secular-frequency modulation.

A single trapped-ion motional mode whose frequency is pulled by line pickup is
modeled as delta_omega(t) = amplitude * cos(omega_mod * t + phase).  A
blue-sideband Ramsey sequence with n equally-weighted refocusing pi pulses
(pulses at tau*(2k-1)/(2n), k = 1..n) accumulates the phase

    phi_n(tau) = int_0^tau y_n(t) * delta_omega(t) dt,

where y_n(t) is the +-1 toggling function that flips at every pi pulse.  For a
single tone the phase-averaged fringe contrast is

    C_n(tau) = < cos(phi_n) >_phase = J0((amplitude/omega_mod) * F_n(omega_mod*tau)),

with F_n the sequence filter function.  This module holds the parameter types,
the toggling function, the filter functions (closed forms for n <= 3, the
signed filter for any n, and the general signed-segment construction), and the
resulting analytic signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import j0

__all__ = [
    "ModulationParams",
    "CPSequence",
    "RamseyTrace",
    "HeatingModel",
    "toggling_value",
    "filter_F",
    "filter_F_general",
    "signed_filter",
    "analytic_signal",
    "bessel_j0",
    "signal_to_p1",
    "p1_to_signal",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModulationParams:
    """Single-tone secular-frequency modulation.

    Parameters
    ----------
    amplitude : float
        Peak angular-frequency excursion, rad/s.  Non-negative.
    omega_mod : float
        Modulation angular frequency, rad/s.  Strictly positive.
    phase : float
        Modulation phase at t = 0, radians.  Stored normalized to [0, 2*pi).
    """

    amplitude: float
    omega_mod: float
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not (math.isfinite(self.omega_mod) and self.omega_mod > 0.0):
            raise ValueError(f"omega_mod must be finite and > 0, got {self.omega_mod}")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "phase", self.phase % TWO_PI)

    @classmethod
    def from_hz(cls, amplitude_hz, freq_hz, phase=0.0):
        """Build from cyclic units: amplitude_hz and freq_hz in Hz."""
        return cls(TWO_PI * amplitude_hz, TWO_PI * freq_hz, phase)

    @property
    def amplitude_hz(self):
        return self.amplitude / TWO_PI

    @property
    def freq_hz(self):
        return self.omega_mod / TWO_PI


@dataclass(frozen=True)
class CPSequence:
    """Ramsey sequence with n equally-spaced refocusing pi pulses.

    n_pulses = 0 is the plain Ramsey, 1 the spin echo, n >= 2 the
    Carr-Purcell train.  Pulses sit at tau*(2k-1)/(2n) so every inter-pulse
    interval is tau/n and the two end segments are tau/(2n).
    """

    n_pulses: int
    tau: float

    def __post_init__(self):
        if not isinstance(self.n_pulses, (int, np.integer)) or self.n_pulses < 0:
            raise ValueError(f"n_pulses must be an integer >= 0, got {self.n_pulses!r}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")

    def pulse_times(self):
        """Pi-pulse instants as an ndarray (empty for the plain Ramsey)."""
        n = self.n_pulses
        if n == 0:
            return np.empty(0)
        return self.tau * (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)

    def segment_edges(self):
        """Free-evolution segment boundaries: 0, pulse times, tau."""
        return np.concatenate(([0.0], self.pulse_times(), [self.tau]))

    def segment_signs(self):
        """Toggling sign on each segment: +1, -1, +1, ..."""
        return (-1.0) ** np.arange(self.n_pulses + 1)


@dataclass
class RamseyTrace:
    """Measured (or simulated) signal versus free-evolution time.

    Parallel arrays: tau [s], signal in [-1, 1], shots per point, and the
    per-point 1-sigma statistical uncertainty of the signal.
    """

    tau: np.ndarray
    signal: np.ndarray
    shots: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        self.shots = np.asarray(self.shots)
        self.sigma = np.asarray(self.sigma, dtype=float)
        n = self.tau.size
        if not (self.signal.size == self.shots.size == self.sigma.size == n) or n == 0:
            raise ValueError("trace arrays must be non-empty and of equal length")
        if not np.all(np.isfinite(self.tau)) or np.any(self.tau <= 0.0):
            raise ValueError("tau values must be finite and > 0")
        if np.any(np.diff(self.tau) <= 0.0):
            raise ValueError("tau values must be strictly increasing")
        if not np.all(np.isfinite(self.signal)):
            raise ValueError("signal values must be finite")
        if np.any(self.shots < 1):
            raise ValueError("shots must be >= 1")
        if np.any(np.isnan(self.sigma)) or np.any(self.sigma <= 0.0):
            raise ValueError("sigma values must be > 0")
        # 6-sigma slack catches unit mix-ups without rejecting honest noise.
        if np.any(np.abs(self.signal) > 1.0 + 6.0 * self.sigma):
            raise ValueError("signal values far outside [-1, 1]")

    def __len__(self):
        return self.tau.size


@dataclass(frozen=True)
class HeatingModel:
    """Motional heating at a constant phonon growth rate nbar_dot (1/s).

    fock_cutoff bounds the simulated phonon ladder; results are reliable while
    the populated levels stay well below it.
    """

    nbar_dot: float
    fock_cutoff: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.nbar_dot) and self.nbar_dot >= 0.0):
            raise ValueError(f"nbar_dot must be finite and >= 0, got {self.nbar_dot}")
        if not isinstance(self.fock_cutoff, (int, np.integer)) or self.fock_cutoff < 4:
            raise ValueError(f"fock_cutoff must be an integer >= 4, got {self.fock_cutoff!r}")


def toggling_value(seq, t):
    """Toggling function y_n(t) in {+1, -1} for t in [0, tau].

    Starts at +1 and flips at every pi pulse; a pulse instant belongs to the
    segment it starts.
    """
    if not 0.0 <= t <= seq.tau:
        raise ValueError(f"t = {t} outside the sequence window [0, {seq.tau}]")
    flips = int(np.searchsorted(seq.pulse_times(), t, side="right"))
    return 1 if flips % 2 == 0 else -1


def filter_F(n, theta):
    """Closed-form filter function F_n(theta), theta = omega_mod * tau.

    Known closed forms exist for n <= 3:

        F_0 = 2 sin(theta/2)
        F_1 = 4 sin^2(theta/4)
        F_2 = 8 sin^2(theta/8) sin(theta/4)
        F_3 = 4 sin^2(theta/12) (2 cos(theta/3) - 1)

    The sign is irrelevant to the phase-averaged contrast (J0 is even) but
    not to the accumulated phase; see signed_filter, which extends these to
    any n.  filter_F_general returns |F|.
    """
    theta = np.asarray(theta, dtype=float)
    if n == 0:
        out = 2.0 * np.sin(theta / 2.0)
    elif n == 1:
        out = 4.0 * np.sin(theta / 4.0) ** 2
    elif n == 2:
        out = 8.0 * np.sin(theta / 8.0) ** 2 * np.sin(theta / 4.0)
    elif n == 3:
        out = 4.0 * np.sin(theta / 12.0) ** 2 * (2.0 * np.cos(theta / 3.0) - 1.0)
    else:
        raise ValueError(f"no closed form for n = {n}; use signed_filter")
    return float(out) if out.ndim == 0 else out


def filter_F_general(seq, omega_mod):
    """|int_0^tau y_n(t) e^(i omega t) dt| * omega for any pulse count.

    Each free-evolution segment contributes its exact complex integral
    (a difference of complex exponentials), summed with the toggling sign;
    the normalization matches filter_F so that the phase-averaged contrast is
    J0((amplitude/omega) * F).  omega_mod may be an array, giving one value
    per frequency; since F depends on omega * tau only, the unit-length
    sequence CPSequence(n, 1.0) at omega * tau gives F_n for a whole tau grid.
    """
    omega = np.asarray(omega_mod, dtype=float)
    if not (np.all(np.isfinite(omega)) and np.all(omega > 0.0)):
        raise ValueError(f"omega_mod must be finite and > 0, got {omega_mod}")
    expo = np.exp(1j * omega[..., None] * seq.segment_edges())
    out = np.abs(np.sum(seq.segment_signs() * (expo[..., 1:] - expo[..., :-1]), axis=-1))
    return float(out) if out.ndim == 0 else out


def signed_filter(n, theta):
    """Signed filter F_n(theta), theta = omega_mod * tau, for any pulse count.

    A CP_n toggling function obeys y_n(tau - t) = (-1)^n y_n(t), so the phase
    accumulated under one tone factors as

        phi_n = (A/omega) * F_n(theta) * sin(phase + theta/2 + delta_n),

    with delta_0 = pi/2, delta_odd = 0 and delta_even = -pi/2 (n >= 2).  For
    n <= 3 this is filter_F.  Beyond, with y = theta/(2n),

        F_n = 4 sin^2(theta/(4n)) * R_n(y),
        R_n = (-1)^((n-1)/2) [1 + 2 sum_{k=1}^{(n-1)/2} (-1)^k cos(2ky)]   (n odd),
        R_n = 2 sum_{k=1}^{n/2} (-1)^(n/2-k) sin((2k-1)y)                   (n even),

    a finite trigonometric sum with no 0/0 anywhere.  |F_n| is what
    filter_F_general builds from the segments.
    """
    if n <= 3:
        return filter_F(n, theta)
    theta = np.asarray(theta, dtype=float)
    y = theta / (2.0 * n)
    half = n // 2
    if n % 2:
        r = np.ones_like(y)
        for k in range(1, half + 1):
            r += (-1) ** k * 2.0 * np.cos(2.0 * k * y)
        r *= (-1) ** half
    else:
        r = np.zeros_like(y)
        for k in range(1, half + 1):
            r += (-1) ** (half - k) * 2.0 * np.sin((2.0 * k - 1.0) * y)
    out = 4.0 * np.sin(theta / (4.0 * n)) ** 2 * r
    return float(out) if out.ndim == 0 else out


def bessel_j0(z):
    """J0(z) for real scalar or array argument, from scipy.special.j0.

    Returns a float for scalar input and an ndarray otherwise; raises
    ValueError if any element is NaN or infinite.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite real arguments")
    out = j0(arr)
    return float(out) if out.ndim == 0 else out


def analytic_signal(seq, mod):
    """Phase-averaged contrast C_n(tau) = J0((amplitude/omega) * F_n(omega*tau)).

    F_n comes from signed_filter (J0 is even, so its sign drops out).  Lies in
    [J0's global minimum, 1]; equals 1 exactly wherever the filter vanishes
    (the revivals).
    """
    f_mag = abs(signed_filter(seq.n_pulses, mod.omega_mod * seq.tau))
    return bessel_j0(mod.amplitude / mod.omega_mod * f_mag)


def signal_to_p1(signal):
    """Map the symmetric signal in [-1, 1] to an excitation probability."""
    return 0.5 * (1.0 + np.asarray(signal, dtype=float))


def p1_to_signal(p1):
    """Inverse of signal_to_p1."""
    return 2.0 * np.asarray(p1, dtype=float) - 1.0
