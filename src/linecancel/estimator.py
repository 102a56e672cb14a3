"""Weighted least-squares extraction of modulation and heating parameters.

Four fits; all but the straight-line slope fit run on one Levenberg-Marquardt
core:

* fit_amplitude: phase-averaged contrast vs wait time -> modulation amplitude
  and heating rate, with contrast_model: the heating envelope times
  J0((A/omega_m) F_n(omega_m tau)); the envelope comes from the cached master
  curve in quantum_sim, so each fit iteration costs an interpolation, not a
  density-matrix integration.
* fit_phase: line-triggered echo signal vs wait time -> amplitude, modulation
  phase at the sequence start, heating rate, with echo_model.  The model is
  periodic in phi_d and its local minima are real, so the fit starts from
  the best point of a chi^2 scan over amplitude x phase x heating rate.
* fit_phase_slope: unwrapped modulation phase vs trigger delay -> slope, the
  actual noise frequency in rad/s (weighted np.polyfit).
* fit_gaussian_envelope: short-time contrast decay -> Gaussian time constant.

Uncertainties are 1-sigma from inv(J^T J) with shot-noise-scaled residuals;
no reduced-chi-square rescaling is applied (see levmar module docstring).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levmar import levenberg_marquardt
from .model_core import TWO_PI, CPSequence, RamseyTrace, bessel_j0, signed_filter
from .phase_oracle import accumulated_phase_grid
from .quantum_sim import DEFAULT_FOCK_CUTOFF, cached_heating_envelope

__all__ = [
    "FitResult",
    "SlopeFit",
    "shot_noise_sigma",
    "contrast_model",
    "echo_model",
    "fit_amplitude",
    "fit_phase",
    "fit_phase_slope",
    "fit_gaussian_envelope",
]

# Coarse grids for the fit starting points.  J0 and the echo cosine
# oscillate, so a gradient descent from one fixed guess can lock onto the
# wrong lobe; a cheap scan over the grids picks the right basin first.
_AMP_SCAN_HZ = np.linspace(0.0, 120.0, 25)
_RATE_SCAN = np.linspace(0.0, 30.0, 7)
# The echo scan leaves A = 0 out: the model's gradient in A and phi_d
# vanishes there, and an LM started at A = 0 stalls.  Half a turn of phi_d
# covers the model, which is even under phi_d -> phi_d + pi.
_ECHO_AMP_SCAN_HZ = np.linspace(150.0 / 25, 150.0, 25)
_ECHO_PHASE_SCAN = np.linspace(0.0, math.pi, 12, endpoint=False)
_QUADRATURE_PHASES = np.array([[0.0], [0.5 * math.pi]])


@dataclass(frozen=True)
class FitResult:
    """Converged (or best-effort) weighted fit.

    params/sigmas are keyed by name: "A_over_2pi" (Hz), "nbar_dot" (/s), and
    "phi_d" (rad) where the model has a phase.  sigmas are 1-sigma from the
    fit covariance.
    """

    params: dict
    sigmas: dict
    chi2_reduced: float
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class SlopeFit:
    """Weighted straight-line fit of unwrapped phase vs trigger delay.

    ambiguous is set when some successive unwrapped gap still reaches pi, i.e.
    the delay sampling is too sparse to pin the branch; the numbers are then
    the continuous-branch guess and should not be trusted silently.
    """

    slope: float
    sigma: float
    intercept: float
    intercept_sigma: float
    ambiguous: bool


def shot_noise_sigma(signal, shots):
    """Binomial standard error of a signal estimated from `shots` two-outcome shots.

    Clipped below at 1/(2*shots) so points that happened to land exactly on
    +-1 keep a finite weight.
    """
    s = np.clip(np.asarray(signal, dtype=float), -1.0, 1.0)
    shots = np.asarray(shots, dtype=float)
    sig = np.sqrt((1.0 - s * s) / shots)
    out = np.maximum(sig, 1.0 / (2.0 * shots))
    return float(out) if out.ndim == 0 else out


def _check_weights(trace):
    if not np.any(np.isfinite(trace.sigma)):
        raise ValueError("all sigma values are infinite; nothing to fit")


def _fit_result(res, params, n_points):
    """FitResult of a levenberg_marquardt result; params in the order of res.x."""
    return FitResult(
        params=params,
        sigmas={k: math.sqrt(max(res.cov[i, i], 0.0)) for i, k in enumerate(params)},
        chi2_reduced=res.cost / max(n_points - len(params), 1),
        converged=res.converged,
        n_iterations=res.n_iterations,
    )


def _basin_scan(model, trace, grids):
    """LM start vector: the least-chi^2 point of grids x _RATE_SCAN.

    model(*params, nbar_dot) is evaluated once per heating rate, broadcast
    over the 1-D parameter grids (each on its own leading axis) and tau.
    """
    axes = [np.reshape(g, (-1,) + (1,) * (len(grids) - i)) for i, g in enumerate(grids)]
    best = None
    for g in _RATE_SCAN:
        chi2 = np.nansum(((trace.signal - model(*axes, g)) / trace.sigma) ** 2, axis=-1)
        k = np.unravel_index(np.argmin(chi2), chi2.shape)
        if best is None or chi2[k] < best[0]:
            best = (chi2[k], [grid[i] for grid, i in zip(grids, k)] + [g])
    return np.array(best[1])


def _revival_period(n, f_m):
    # first wait time where the filter returns to zero (full contrast revival)
    firsts = {0: 1.0, 1: 2.0, 2: 2.0, 3: 0.5}
    return firsts.get(n, 2.0) / f_m


def contrast_model(n, f_m, tau, fock_cutoff=DEFAULT_FOCK_CUTOFF):
    """Phase-averaged n-pulse contrast on the wait-time grid tau.

    Returns model(A_over_2pi, nbar_dot) = heating envelope times
    J0((A/omega_m) F_n(omega_m tau)), with A_over_2pi and f_m in Hz.  The
    filter values depend on tau only and are computed once; an amplitude
    array shaped (k, 1) gives k curves at once.
    """
    fvals = signed_filter(n, TWO_PI * f_m * tau)

    def model(a_hz, nbar_dot):
        env = cached_heating_envelope(n, nbar_dot, tau, fock_cutoff)
        return env * bessel_j0((a_hz / f_m) * fvals)

    return model


def echo_model(f_m, tau, fock_cutoff=DEFAULT_FOCK_CUTOFF):
    """Line-triggered echo signal on the wait-time grid tau.

    Returns model(A_over_2pi, phi_d, nbar_dot) = heating envelope times
    cos(phi_acc), where phi_acc = (A/omega_m) F_1(omega_m tau)
    sin(omega_m tau/2 + phi_d), F_1 = 4 sin^2(omega_m tau/4), is the echo's
    accumulated phase and phi_d the modulation phase at the first pi/2 pulse.
    accumulated_phase_grid evaluates that factored form once per grid, at
    phi_d = 0 and pi/2, and each call recombines the two by the sine addition
    rule.
    """
    theta = TWO_PI * f_m * tau
    # The phase accumulated by a tau-long echo at omega equals that of a
    # unit-length echo at omega * tau; amplitude = theta makes A/omega = 1.
    q0, q1 = accumulated_phase_grid(CPSequence(1, 1.0), theta, theta, _QUADRATURE_PHASES)

    def model(a_hz, phi_d, nbar_dot):
        acc = (a_hz / f_m) * (q0 * np.cos(phi_d) + q1 * np.sin(phi_d))
        return cached_heating_envelope(1, nbar_dot, tau, fock_cutoff) * np.cos(acc)

    return model


def fit_amplitude(trace, n, f_m, fock_cutoff=DEFAULT_FOCK_CUTOFF):
    """Fit phase-averaged contrast: envelope times J0((A/omega_m) F_n).

    Free parameters: A_over_2pi (Hz) and nbar_dot (/s).  Requires >= 8 points
    spanning at least one contrast revival of the n-pulse filter.
    """
    if f_m <= 0.0:
        raise ValueError(f"f_m must be > 0, got {f_m}")
    if trace.tau.size < 8:
        raise ValueError(f"need >= 8 points, got {trace.tau.size}")
    span = trace.tau[-1] - trace.tau[0]
    if span < _revival_period(n, f_m) * (1.0 - 1e-9):
        raise ValueError(
            f"trace spans {span:.4g} s, less than one revival period "
            f"{_revival_period(n, f_m):.4g} s"
        )
    _check_weights(trace)

    model = contrast_model(n, f_m, trace.tau, fock_cutoff)
    sig = trace.sigma

    def resid(x):
        return (trace.signal - model(x[0], x[1])) / sig

    x0 = _basin_scan(model, trace, [_AMP_SCAN_HZ])
    res = levenberg_marquardt(resid, x0, floor=np.array([1.0, 1.0]))
    a_hz, nbar_dot = res.x
    return _fit_result(res, {"A_over_2pi": abs(a_hz), "nbar_dot": nbar_dot}, trace.tau.size)


def fit_phase(trace, f_m, fock_cutoff=DEFAULT_FOCK_CUTOFF):
    """Fit a line-triggered echo trace for (A, phi_d, nbar_dot) with echo_model.

    One Levenberg-Marquardt polish from the least-chi^2 point of a scan over
    A in (0, 150] Hz x phi_d in [0, pi) x nbar_dot in [0, 30] /s.

    Because the readout is a cosine of the accumulated phase, phi_d and
    phi_d + pi produce identical signals at every tau: a single-delay trace
    determines the phase only modulo pi.  The canonical representative in
    [0, pi) is reported; delay sweeps must unwrap with period pi (see
    fit_phase_slope).
    """
    if f_m <= 0.0:
        raise ValueError(f"f_m must be > 0, got {f_m}")
    _check_weights(trace)
    model = echo_model(f_m, trace.tau, fock_cutoff)
    sig = trace.sigma

    def resid(x):
        return (trace.signal - model(*x)) / sig

    x0 = _basin_scan(model, trace, [_ECHO_AMP_SCAN_HZ, _ECHO_PHASE_SCAN])
    res = levenberg_marquardt(resid, x0, floor=np.array([1.0, 1.0, 1.0]))
    a_hz, phi_d, nbar_dot = res.x
    if a_hz < 0.0:
        # A -> -A equals phi_d -> phi_d + pi in this model
        a_hz = -a_hz
        phi_d += math.pi
    phi_d %= math.pi  # mod-pi degeneracy; canonical representative
    params = {"A_over_2pi": a_hz, "phi_d": phi_d, "nbar_dot": nbar_dot}
    return _fit_result(res, params, trace.tau.size)


def fit_phase_slope(delays, period=TWO_PI):
    """Weighted linear fit of unwrapped phase vs trigger delay.

    delays: iterable of (t_d seconds, phi_d radians, sigma radians).  The
    phases are unwrapped to the branch continuous with the previous point,
    with the first point normalized into [0, period); any remaining
    successive gap >= period/2 sets the ambiguous flag instead of being
    silently bridged.  Pass period=pi when the phases come from fit_phase,
    which pins them only modulo pi.
    """
    arr = np.asarray([(t, p, s) for t, p, s in delays], dtype=float)
    if arr.shape[0] < 2:
        raise ValueError("need at least two delay points")
    order = np.argsort(arr[:, 0])
    t_d, phi, sig = arr[order].T
    if np.any(np.diff(t_d) <= 0.0):
        raise ValueError("delay values must be distinct")
    phi = np.unwrap(phi, period=period)
    phi -= period * math.floor(phi[0] / period)  # first point into [0, period)
    ambiguous = bool(np.any(np.abs(np.diff(phi)) >= period / 2.0))
    (b, a), cov = np.polyfit(t_d, phi, 1, w=1.0 / sig, cov="unscaled")
    return SlopeFit(
        slope=float(b),
        sigma=math.sqrt(max(cov[0, 0], 0.0)),
        intercept=float(a),
        intercept_sigma=math.sqrt(max(cov[1, 1], 0.0)),
        ambiguous=ambiguous,
    )


def fit_gaussian_envelope(trace):
    """Fit c0 * exp(-(tau/T_g)^2) to short-time contrast decay.

    Returns (T_g, sigma_T_g) in seconds.
    """
    _check_weights(trace)
    tau = trace.tau
    sig = trace.sigma
    c0_guess = max(float(np.max(trace.signal)), 0.1)
    # log-linear moment for the time-constant start
    keep = trace.signal > 0.2 * c0_guess
    if keep.sum() >= 2:
        slope = np.polyfit(tau[keep] ** 2, np.log(trace.signal[keep]), 1)[0]
        tg0 = 1.0 / math.sqrt(-slope) if slope < 0.0 else tau[-1]
    else:
        tg0 = tau[-1]

    def resid(x):
        c0, tg = x
        return (trace.signal - c0 * np.exp(-((tau / tg) ** 2))) / sig

    res = levenberg_marquardt(
        resid, np.array([c0_guess, tg0]), floor=np.array([1.0, max(tau[-1] / 10.0, 1e-6)])
    )
    tg = abs(res.x[1])
    return tg, math.sqrt(max(res.cov[1, 1], 0.0))
