"""Locating the ambient line-noise phasor from trial injections.

The lab can add a voltage phasor of chosen magnitude and angle to the trap
set-point at the line frequency, then measure the residual modulation
amplitude A_i (Hz) with an echo sequence.  Writing the unknown ambient noise
as the phasor -V*u (volts, |u| = 1) and the conversion from volts to
modulation amplitude as a scale r, a trial injection z_i leaves residual
amplitude |z_i - V*u| / r.  Fitting

    sum_i ( |V*u - z_i| - r * A_i )^2

over (V, angle of u, r) recovers all three.  The objective is non-convex in
the angle, so a dense coarse grid (with r eliminated by its conditional
closed form) finds the basin and a simplex polish finishes.

Naming follows the physics: noise_phasor is the ambient itself (-V*u) and
compensation is what gets injected to null it (+V*u).  The angle quoted in
reports is that of the noise phasor, i.e. arg(-u).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .model_core import TWO_PI

__all__ = [
    "Phasor",
    "TrialRecord",
    "CancelSolution",
    "IllPosedGeometryError",
    "DegenerateDataError",
    "solve_phasor",
    "predict_residual",
    "setpoint_scale",
]

_ANGLE_STEPS = 360
_MAG_STEPS = 100
_IRLS_PASSES = 3


class IllPosedGeometryError(ValueError):
    """Too few trials, or all injections collinear: the phasor is not pinned down."""


class DegenerateDataError(ValueError):
    """The conditional scale optimum is non-positive; the amplitudes carry no signal."""


@dataclass(frozen=True)
class Phasor:
    """Polar phasor: magnitude >= 0 (volts in this module), angle in [0, 2pi)."""

    magnitude: float
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.magnitude) or not math.isfinite(self.angle):
            raise ValueError("phasor fields must be finite")
        mag, ang = self.magnitude, self.angle
        if mag < 0.0:
            mag, ang = -mag, ang + math.pi
        object.__setattr__(self, "magnitude", float(mag))
        object.__setattr__(self, "angle", float(ang % TWO_PI))

    @classmethod
    def from_complex(cls, z):
        return cls(abs(z), cmath.phase(z))

    @property
    def z(self):
        return self.magnitude * cmath.exp(1j * self.angle)

    def rotated(self, delta):
        return Phasor(self.magnitude, self.angle + delta)


@dataclass(frozen=True)
class TrialRecord:
    """One injection trial: what was injected and what residual it left."""

    injected: Phasor
    residual_amplitude: float  # Hz, >= 0
    residual_sigma: float | None = None  # Hz; None = uniform weighting

    def __post_init__(self):
        if self.residual_amplitude < 0.0 or not math.isfinite(self.residual_amplitude):
            raise ValueError(f"residual amplitude must be finite and >= 0, got {self.residual_amplitude}")
        sigma = self.residual_sigma
        if sigma is not None and not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"residual sigma must be finite and > 0, got {sigma}")


@dataclass(frozen=True)
class CancelSolution:
    """Recovered ambient phasor, volts-per-Hz scale, and achieved objective."""

    noise_phasor: Phasor  # the ambient: -V*u
    scale_r: float        # mV per Hz
    residual_cost: float

    @property
    def compensation(self):
        """Injection that nulls the ambient: the noise phasor rotated by pi."""
        return self.noise_phasor.rotated(math.pi)


def _objective(v, psi, r, z, amps, weights):
    d = np.abs(v * np.exp(1j * psi) - z)
    return float(np.sum(weights * (d - r * amps) ** 2))


def solve_phasor(trials):
    """Fit (V, u, r) to a set of trials; returns a CancelSolution.

    Needs >= 3 trials whose injected phasors are not collinear in the plane
    (a zero-injection baseline counts as a trial and helps).  When every
    trial carries a residual_sigma, terms are reweighted by 1/(r*sigma_i)
    and the fit is iterated three times so the weights use the fitted r.
    """
    trials = list(trials)
    if len(trials) < 3:
        raise IllPosedGeometryError(f"need >= 3 trials, got {len(trials)}")
    z = np.array([t.injected.z for t in trials])
    amps = np.array([t.residual_amplitude for t in trials], dtype=float)
    # collinear injections leave a mirror ambiguity across their common line
    pts = np.column_stack([z.real, z.imag])
    spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if spread[1] <= 1e-9 * max(spread[0], 1e-30):
        raise IllPosedGeometryError("injected phasors are collinear")

    sigmas = [t.residual_sigma for t in trials]
    use_irls = all(s is not None for s in sigmas)
    weights = np.ones_like(amps)
    n_passes = _IRLS_PASSES if use_irls else 1

    v_max = 2.0 * max(float(np.abs(z).max()), 1e-12)
    psi_grid = np.linspace(0.0, TWO_PI, _ANGLE_STEPS, endpoint=False)
    v_grid = np.linspace(0.0, v_max, _MAG_STEPS)

    # coarse grid distances, trial-major: (trials, magnitude, angle)
    d = np.abs(v_grid[:, None] * np.exp(1j * psi_grid) - z[:, None, None])
    a = amps[:, None, None]
    best = None
    for _ in range(n_passes):
        # coarse grid with conditional closed-form r
        w = weights
        num = (w[:, None, None] * d * a).sum(axis=0)
        den = float(np.sum(w * amps * amps))
        r_cond = num / den if den > 0.0 else np.full_like(num, -1.0)
        cost = np.sum(w[:, None, None] * (d - r_cond * a) ** 2, axis=0)
        cost = np.where(r_cond > 0.0, cost, np.inf)
        if not np.isfinite(cost).any():
            raise DegenerateDataError("conditional scale optimum is non-positive everywhere")
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        x0 = np.array([v_grid[i], psi_grid[j], r_cond[i, j]])

        def fun(x):
            if x[2] <= 0.0:
                return 1e30
            return _objective(abs(x[0]), x[1], x[2], z, amps, w)

        # Costs are O(10), where 1e-14 is a few ulp and the stop would hinge
        # on rounding.  These tolerances stop on the data: the solution is
        # settled to ~1e-7 mV, far inside its shot-noise error (tenths of a mV).
        res = minimize(fun, x0, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000})
        v_fit, psi_fit, r_fit = res.x
        if v_fit < 0.0:
            v_fit, psi_fit = -v_fit, psi_fit + math.pi
        if r_fit <= 0.0:
            raise DegenerateDataError(f"fitted scale r = {r_fit:.3g} <= 0")
        best = (float(v_fit), float(psi_fit % TWO_PI), float(r_fit), float(res.fun))
        if use_irls:
            weights = 1.0 / (best[2] * np.array(sigmas, dtype=float)) ** 2

    v_fit, psi_fit, r_fit, cost = best
    # store the ambient = -V*u; the compensation property undoes the flip
    return CancelSolution(
        noise_phasor=Phasor(v_fit, psi_fit + math.pi),
        scale_r=r_fit,
        residual_cost=cost,
    )


def predict_residual(solution, injected):
    """Residual modulation amplitude (Hz) left by a given injection."""
    return abs(injected.z - solution.compensation.z) / solution.scale_r


def setpoint_scale(secular_freq, setpoint):
    """Local linear gain of set-point voltage per hertz of secular frequency.

    Linearizing f_sec proportional to set-point gives d(setpoint)/d(f_sec) =
    setpoint / f_sec.  Inputs in Hz and volts; returned in mV per Hz to match
    the solver's scale_r units.
    """
    if secular_freq <= 0.0 or setpoint <= 0.0:
        raise ValueError("secular frequency and set-point must be > 0")
    return 1e3 * setpoint / secular_freq
