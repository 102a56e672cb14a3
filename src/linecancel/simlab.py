"""A simulated ion-trap lab for line-noise cancellation experiments.

The lab hides a ground truth (ambient line-pickup phasor, volts-to-hertz
transfer scale, per-mode heating rates, slow frequency drift, line-frequency
jitter) and answers sequence requests with shot-sampled data, the way the
real experiment would.  Everything downstream (fits, phasor solving, the
cancellation workflow) sees only sampled RamseyTrace points.

Per-shot model:

* line frequency drawn uniform in f_line +- line_jitter;
* the sequence is either line-triggered (phase at the first pulse is
  omega * t_d plus the phasor angle of the residual pickup) or free-running
  (uniform random phase);
* injected compensation adds to the ambient phasor; its phase error relative
  to the line is bounded by one jitter cycle in burst mode (re-referenced
  every line cycle) or grows linearly over t_d + tau/2 otherwise;
* slow drift is an Ornstein-Uhlenbeck detuning, constant within one shot
  (quasi-static: tau << tau_c), stepped by t_d + tau between shots;
* the ideal signal comes from the accumulated-phase oracle, is multiplied by
  the cached heating envelope, converted to P1 = (1 + s)/2, and one
  Bernoulli outcome is drawn per shot.

Random numbers come from one sequential stream per lab.  Point by point, in
scan order, a point draws its shots' line frequencies (when jittered), burst
injection slips (when compensating in burst mode), free-running phases
(when untriggered), OU drift normals (when sigma_f > 0) and outcome
uniforms.  A trace draws all of them first and then evaluates the physics
in one pass over (points, shots) arrays, so it reproduces run_shots called
point by point.

The modulation amplitude seen by a mode scales with the mode frequency
(locally linear set-point transfer), so the volts-per-hertz scale for mode m
is transfer_r * f_X / f_m, with the X mode the quoting reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import shot_noise_sigma
from .model_core import TWO_PI, CPSequence, HeatingModel, RamseyTrace, signal_to_p1
from .phase_oracle import accumulated_phase_grid
from .phasor_cancel import Phasor
from .quantum_sim import cached_heating_envelope

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "DriftParams",
    "LabTruth",
    "ShotRequest",
    "SimLab",
    "reference_truth",
    "monitor_trace",
    "bin_monitor",
    "coherence_time",
    "scenario_to_dict",
    "scenario_from_dict",
]

SCHEMA_VERSION = 1
_MODE_STREAM = {"X": 1, "Y": 2}  # substream tags for the monitor functions


class SchemaError(ValueError):
    """Scenario JSON does not match the documented schema."""


@dataclass(frozen=True)
class DriftParams:
    """Slow secular-frequency drift: OU process with std sigma_f (Hz).

    common=True drives both radial modes with one drift path (the default;
    suggested by the correlated monitor wander, though not certain), False
    gives each mode its own independent path.
    """

    sigma_f: float = 0.0
    tau_c: float = 10.0
    common: bool = True

    def __post_init__(self):
        if self.sigma_f < 0.0 or not math.isfinite(self.sigma_f):
            raise ValueError(f"sigma_f must be finite and >= 0, got {self.sigma_f}")
        if not (self.tau_c > 0.0 and math.isfinite(self.tau_c)):
            raise ValueError(f"tau_c must be finite and > 0, got {self.tau_c}")


@dataclass(frozen=True)
class LabTruth:
    """Hidden ground truth of the simulated lab.

    noise_phasor is the ambient line pickup in mV on the set-point;
    transfer_r converts set-point mV to secular-frequency modulation Hz for
    the X mode.  heating and mode_freqs are keyed by mode name.
    """

    noise_phasor: Phasor
    transfer_r: float
    f_line: float = 60.0
    line_jitter: float = 1.0
    burst_mode: bool = True
    mode_freqs: dict = field(default_factory=lambda: {"X": 910e3, "Y": 1270e3})
    heating: dict = field(default_factory=dict)
    drift: DriftParams = field(default_factory=DriftParams)
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.transfer_r > 0.0 and math.isfinite(self.transfer_r)):
            raise ValueError(f"transfer_r must be finite and > 0, got {self.transfer_r}")
        if not (self.f_line > 0.0 and math.isfinite(self.f_line)):
            raise ValueError(f"f_line must be finite and > 0, got {self.f_line}")
        if not (self.line_jitter >= 0.0 and math.isfinite(self.line_jitter)):
            raise ValueError(f"line_jitter must be finite and >= 0, got {self.line_jitter}")
        for mode, f in self.mode_freqs.items():
            if not (f > 0.0 and math.isfinite(f)):
                raise ValueError(f"mode {mode} frequency must be finite and > 0, got {f}")

    def r_for_mode(self, mode):
        """Volts-per-hertz scale for a mode (mV/Hz); amplitude scales with f_mode."""
        if mode not in self.mode_freqs:
            raise ValueError(f"unknown mode {mode!r}; have {sorted(self.mode_freqs)}")
        return self.transfer_r * self.mode_freqs["X"] / self.mode_freqs[mode]

    def heating_for_mode(self, mode):
        return self.heating.get(mode, HeatingModel(0.0))

    def ambient_amplitude(self, mode):
        """Uncompensated modulation amplitude A/2pi (Hz) on a mode."""
        return self.noise_phasor.magnitude / self.r_for_mode(mode)


def reference_truth(seed=0, noise_mv=14.0, noise_angle=math.radians(102.0),
                transfer_r=0.38, nbar_dot=15.5, sigma_f=0.0, tau_c=10.0,
                line_jitter=1.0, burst_mode=True):
    """Default scenario: the measured ambient phasor and heating-limited rates."""
    return LabTruth(
        noise_phasor=Phasor(noise_mv, noise_angle),
        transfer_r=transfer_r,
        line_jitter=line_jitter,
        burst_mode=burst_mode,
        heating={"X": HeatingModel(nbar_dot), "Y": HeatingModel(nbar_dot)},
        drift=DriftParams(sigma_f=sigma_f, tau_c=tau_c),
        rng_seed=seed,
    )


@dataclass(frozen=True)
class ShotRequest:
    """One measurement setting: which sequence, how triggered, how many shots."""

    mode: str
    seq: CPSequence
    shots: int
    t_d: float | None = None          # None = free-running (phase-averaged)
    analyzer_phase: float = 0.0
    compensation: Phasor | None = None

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.t_d is not None and (self.t_d < 0.0 or not math.isfinite(self.t_d)):
            raise ValueError(f"t_d must be finite and >= 0, got {self.t_d}")


def _ou_path(state, n, dt, sigma_f, tau_c, rng):
    """n exact-discretization OU steps of length dt from `state`.

    Each step is state * decay + sigma_f * sqrt(1 - decay^2) * normal with
    decay = exp(-dt / tau_c), so the stationary std is sigma_f.  Returns
    (path array, final state).
    """
    decay = math.exp(-dt / tau_c)
    innov = sigma_f * math.sqrt(1.0 - decay * decay) * rng.standard_normal(n)
    path = []
    for x in innov.tolist():
        state = x + decay * state
        path.append(state)
    return np.array(path), float(state)


def _sample_points(truth, req, tau, rng, drift_state):
    """Sample every shot of the points tau of a scan at the settings of req.

    req.seq gives the pulse count; its own wait time is ignored.  Each
    point's random numbers are drawn in the order a single point draws them
    (line frequency, injection slip, free-running phase, OU drift normals,
    shot-outcome uniforms), then the physics runs once over (points, shots)
    arrays.  Returns (signals, sigmas, new drift state).
    """
    n_pts, n_sh = tau.size, req.shots
    r_mode = truth.r_for_mode(req.mode)
    comp = req.compensation
    if comp is not None and comp.magnitude == 0.0:
        comp = None
    drift = truth.drift

    f = np.full((n_pts, n_sh), truth.f_line)
    slip_u = np.empty((n_pts, n_sh))
    phase_u = np.empty((n_pts, n_sh))
    delta = np.zeros((n_pts, n_sh))
    outcome_u = np.empty((n_pts, n_sh))
    for i in range(n_pts):
        if truth.line_jitter > 0.0:
            f[i] = truth.f_line + rng.uniform(-truth.line_jitter, truth.line_jitter, n_sh)
        if comp is not None and truth.burst_mode:
            slip_u[i] = rng.uniform(0.0, 1.0, n_sh)
        if req.t_d is None:
            phase_u[i] = rng.uniform(0.0, TWO_PI, n_sh)
        if drift.sigma_f > 0.0:  # without noise the drift state never leaves 0
            dt = (req.t_d or 0.0) + tau[i]  # drift step per shot
            delta[i], drift_state = _ou_path(drift_state, n_sh, dt, drift.sigma_f, drift.tau_c, rng)
        outcome_u[i] = rng.random(n_sh)

    omega = TWO_PI * f
    col = tau[:, None]
    # residual pickup phasor per shot: ambient plus (possibly phase-slipped) injection
    noise_z = complex(truth.noise_phasor.z)
    if comp is None:
        resid = np.full((n_pts, n_sh), noise_z)
    else:
        df = f - truth.f_line
        if truth.burst_mode:
            slip = TWO_PI * (df / truth.f_line) * slip_u
        else:
            slip = TWO_PI * df * ((req.t_d or 0.0) + col / 2.0)
        resid = noise_z + comp.z * np.exp(1j * slip)
    a_eff = np.abs(resid) / r_mode  # Hz
    theta = np.angle(resid)
    phi0 = theta + (phase_u if req.t_d is None else omega * req.t_d)

    # A tau-long sequence at omega accumulates the phase of a unit-length one
    # at omega * tau (amplitude scaled alike), so one call covers every point.
    n = req.seq.n_pulses
    acc = accumulated_phase_grid(CPSequence(n, 1.0), TWO_PI * a_eff * col, omega * col, phi0)
    if n == 0:
        # only the unrefocused Ramsey picks up the static drift detuning
        acc = acc + TWO_PI * delta * col

    heat = truth.heating_for_mode(req.mode)
    env = cached_heating_envelope(n, heat.nbar_dot, tau, heat.fock_cutoff)
    p1 = signal_to_p1(env[:, None] * np.cos(acc - req.analyzer_phase))
    estimate = 2.0 * (outcome_u < p1).mean(axis=1) - 1.0
    return estimate, shot_noise_sigma(estimate, n_sh), drift_state


class SimLab:
    """One lab instance: a truth plus a sequential RNG stream and drift state.

    Identical seed and request sequence reproduce bit-identical data, and a
    trace draws exactly what run_shots point by point would.  Drift state
    persists across requests (the lab's slow drift does not reset between
    scans); common-mode drift shares one state across modes.
    """

    def __init__(self, truth):
        self.truth = truth
        self._rng = np.random.default_rng(truth.rng_seed)
        self._drift_state = {}

    def _sample(self, req, tau):
        key = "common" if self.truth.drift.common else req.mode
        state = self._drift_state.get(key, 0.0)
        signal, sigma, state = _sample_points(self.truth, req, tau, self._rng, state)
        self._drift_state[key] = state
        return signal, sigma

    def run_shots(self, req):
        """Measure one trace point; returns (signal, sigma)."""
        signal, sigma = self._sample(req, np.array([req.seq.tau]))
        return float(signal[0]), float(sigma[0])

    def trace(self, mode, n_pulses, tau_grid, shots, t_d=None, analyzer_phase=0.0,
              compensation=None):
        """Scan tau over tau_grid at fixed settings; returns a RamseyTrace."""
        tau_grid = np.asarray(tau_grid, dtype=float)
        positive = np.all(np.isfinite(tau_grid) & (tau_grid > 0.0))
        if tau_grid.ndim != 1 or tau_grid.size == 0 or not positive:
            raise ValueError("tau_grid must be a non-empty 1-D array of finite wait times > 0")
        req = ShotRequest(mode=mode, seq=CPSequence(n_pulses, float(tau_grid[0])), shots=shots,
                          t_d=t_d, analyzer_phase=analyzer_phase, compensation=compensation)
        sig, err = self._sample(req, tau_grid)
        return RamseyTrace(tau_grid, sig, np.full(tau_grid.size, shots), err)


def monitor_trace(truth, mode, wait_time, duration_s, shot_period,
                  analyzer_phase=math.pi / 2.0):
    """Continuous single-shot record at fixed wait time; returns (times, outcomes).

    A plain two-pulse sequence (no refocusing) with the analyzer a quarter
    turn off null, so P1 sits near 0.5 and responds linearly to slow
    detuning drift.  Shots fire every shot_period seconds.

    Drift draws come from a substream that depends on the mode only when the
    drift source is per-mode, so two monitor calls on different modes share
    the drift path exactly when it is configured common-mode, while their
    line phases and quantum projections stay independent.
    """
    if wait_time <= 0.0 or shot_period <= 0.0 or duration_s <= 0.0:
        raise ValueError("wait_time, duration_s, shot_period must all be > 0")
    n_sh = int(duration_s / shot_period)
    times = np.arange(n_sh) * shot_period
    seq = CPSequence(0, wait_time)
    drift = truth.drift
    mode_tag = 0 if drift.common else _MODE_STREAM[mode]
    rng_drift = np.random.default_rng((truth.rng_seed, 7, mode_tag))
    rng_shot = np.random.default_rng((truth.rng_seed, 11, _MODE_STREAM[mode]))

    delta, _ = _ou_path(0.0, n_sh, shot_period, drift.sigma_f, drift.tau_c, rng_drift)
    if truth.line_jitter > 0.0:
        f = truth.f_line + rng_shot.uniform(-truth.line_jitter, truth.line_jitter, n_sh)
    else:
        f = np.full(n_sh, truth.f_line)
    phi0 = truth.noise_phasor.angle + rng_shot.uniform(0.0, TWO_PI, n_sh)
    a_eff = truth.ambient_amplitude(mode)

    acc = accumulated_phase_grid(seq, TWO_PI * a_eff, TWO_PI * f, phi0)
    acc = acc + TWO_PI * delta * wait_time
    heat = truth.heating_for_mode(mode)
    env = cached_heating_envelope(0, heat.nbar_dot, wait_time, heat.fock_cutoff)
    p1 = signal_to_p1(env * np.cos(acc - analyzer_phase))
    outcomes = (rng_shot.random(n_sh) < p1).astype(int)
    return times, outcomes


def bin_monitor(times, outcomes, bin_s):
    """Average single-shot outcomes into time bins.

    Returns (bin centers, P1 means, shot counts); empty bins are dropped.
    """
    if bin_s <= 0.0:
        raise ValueError(f"bin_s must be > 0, got {bin_s}")
    times = np.asarray(times, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    idx = (times / bin_s).astype(int)
    n_bins = idx.max() + 1
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=outcomes, minlength=n_bins)
    keep = counts > 0
    centers = (np.arange(n_bins)[keep] + 0.5) * bin_s
    return centers, sums[keep] / counts[keep], counts[keep]


def coherence_time(trace, threshold=math.exp(-1.0), use_peak_envelope=False):
    """First wait time where the contrast crosses `threshold`, by linear interpolation.

    With use_peak_envelope the crossing is taken on the sequence of local
    maxima instead (the revival-peak upper envelope), which reads through
    residual modulation oscillations.  Raises ValueError when the trace does
    not bracket the crossing.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    tau = trace.tau
    sig = trace.signal
    if use_peak_envelope:
        keep = [0]
        for i in range(1, tau.size - 1):
            if sig[i] >= sig[i - 1] and sig[i] >= sig[i + 1]:
                keep.append(i)
        keep.append(tau.size - 1)
        keep = np.unique(keep)
        tau, sig = tau[keep], sig[keep]
    if sig[0] < threshold:
        raise ValueError("trace starts below the threshold; crossing not bracketed")
    below = np.nonzero(sig < threshold)[0]
    if below.size == 0:
        raise ValueError("trace never crosses the threshold")
    j = below[0]
    frac = (sig[j - 1] - threshold) / (sig[j - 1] - sig[j])
    return float(tau[j - 1] + frac * (tau[j] - tau[j - 1]))


# --- scenario serialization (schema v1) -------------------------------------

_TOP_KEYS = {
    "schema_version", "seed", "noise", "transfer_r_mV_per_Hz", "f_line_Hz",
    "line_jitter_Hz", "burst_mode", "modes", "drift",
}


def scenario_to_dict(truth):
    """LabTruth -> plain-JSON dict (schema v1)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": truth.rng_seed,
        "noise": {
            "magnitude_mV": truth.noise_phasor.magnitude,
            "angle_deg": math.degrees(truth.noise_phasor.angle),
        },
        "transfer_r_mV_per_Hz": truth.transfer_r,
        "f_line_Hz": truth.f_line,
        "line_jitter_Hz": truth.line_jitter,
        "burst_mode": truth.burst_mode,
        "modes": {
            mode: {
                "freq_Hz": truth.mode_freqs[mode],
                "nbar_dot": truth.heating_for_mode(mode).nbar_dot,
                "fock_cutoff": truth.heating_for_mode(mode).fock_cutoff,
            }
            for mode in sorted(truth.mode_freqs)
        },
        "drift": {
            "sigma_f_Hz": truth.drift.sigma_f,
            "tau_c_s": truth.drift.tau_c,
            "common": truth.drift.common,
        },
    }


def _need(obj, key, types, where):
    if key not in obj:
        raise SchemaError(f"missing key {key!r} in {where}")
    val = obj[key]
    if not isinstance(types, tuple):
        types = (types,)
    # bool subclasses int; only let it through where bool is really wanted
    if isinstance(val, bool) and bool not in types:
        raise SchemaError(f"{where}.{key} has wrong type bool")
    if not isinstance(val, types):
        raise SchemaError(f"{where}.{key} has wrong type {type(val).__name__}")
    return val


def scenario_from_dict(obj):
    """Validate a schema-v1 dict and build the LabTruth; raises SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError(f"scenario must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown scenario keys: {sorted(unknown)}")
    version = _need(obj, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")
    seed = _need(obj, "seed", int, "scenario")
    noise = _need(obj, "noise", dict, "scenario")
    mag = _need(noise, "magnitude_mV", (int, float), "noise")
    ang = _need(noise, "angle_deg", (int, float), "noise")
    if mag < 0.0:
        raise SchemaError(f"noise.magnitude_mV must be >= 0, got {mag}")
    r = _need(obj, "transfer_r_mV_per_Hz", (int, float), "scenario")
    f_line = _need(obj, "f_line_Hz", (int, float), "scenario")
    jitter = _need(obj, "line_jitter_Hz", (int, float), "scenario")
    burst = _need(obj, "burst_mode", bool, "scenario")
    modes = _need(obj, "modes", dict, "scenario")
    if "X" not in modes:
        raise SchemaError("modes must include 'X' (the transfer-scale reference)")
    mode_freqs = {}
    heating = {}
    for mode, entry in modes.items():
        if not isinstance(entry, dict):
            raise SchemaError(f"modes.{mode} must be an object")
        freq = _need(entry, "freq_Hz", (int, float), f"modes.{mode}")
        nbar = _need(entry, "nbar_dot", (int, float), f"modes.{mode}")
        cutoff = entry.get("fock_cutoff", 10)
        if isinstance(cutoff, bool) or not isinstance(cutoff, int):
            raise SchemaError(f"modes.{mode}.fock_cutoff must be an integer")
        extra = set(entry) - {"freq_Hz", "nbar_dot", "fock_cutoff"}
        if extra:
            raise SchemaError(f"unknown keys in modes.{mode}: {sorted(extra)}")
        mode_freqs[mode] = float(freq)
        try:
            heating[mode] = HeatingModel(float(nbar), cutoff)
        except ValueError as exc:
            raise SchemaError(f"modes.{mode}: {exc}") from exc
    dr = _need(obj, "drift", dict, "scenario")
    sigma_f = _need(dr, "sigma_f_Hz", (int, float), "drift")
    tau_c = _need(dr, "tau_c_s", (int, float), "drift")
    common = _need(dr, "common", bool, "drift")
    extra = set(dr) - {"sigma_f_Hz", "tau_c_s", "common"}
    if extra:
        raise SchemaError(f"unknown keys in drift: {sorted(extra)}")
    extra = set(noise) - {"magnitude_mV", "angle_deg"}
    if extra:
        raise SchemaError(f"unknown keys in noise: {sorted(extra)}")
    try:
        return LabTruth(
            noise_phasor=Phasor(float(mag), math.radians(float(ang))),
            transfer_r=float(r),
            f_line=float(f_line),
            line_jitter=float(jitter),
            burst_mode=burst,
            mode_freqs=mode_freqs,
            heating=heating,
            drift=DriftParams(sigma_f=float(sigma_f), tau_c=float(tau_c), common=common),
            rng_seed=seed,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
