"""Density-matrix simulation of blue-sideband Ramsey sequences with motional
heating and secular-frequency modulation.

State space and conventions
---------------------------
A density matrix is a plain complex ndarray of shape (d, d) with
d = 2 * (fock_cutoff + 1), basis |spin> (x) |n_phonon>, spin in {down, up},
index = spin * (fock_cutoff + 1) + n.  Batched operation on shape (B, d, d)
arrays is supported throughout.

Free evolution solves

    drho/dt = -i [H(t), rho] + D[rho],
    H(t)    = delta_omega(t) * (a^dag a) (x) 1_spin,

with delta_omega(t) = amplitude * cos(omega_mod * t + phase), in closed form.
Heating is the infinite-temperature limit: two collapse channels of equal
rate gamma = nbar_dot on a and on a^dag, so the mean phonon number grows as
d<n>/dt = nbar_dot from any state.  The modulation term multiplies element
(n, n') by -i delta_omega(t) (n - n'), and the dissipator only couples
(n, n') to (n +- 1, n' +- 1), which preserves n - n'; the two generators
therefore commute at all times, and a segment t0..t1 propagates exactly as

    rho -> exp(-i Phi (n - n')) * exp(gamma (t1 - t0) D)[rho],
    Phi  = (amplitude / omega_mod) [sin(omega_mod t1 + phase) - sin(omega_mod t0 + phase)],

Phi being the segment's accumulated phase (phase_oracle's antiderivative).
Because D keeps n' - n, it is one real symmetric tridiagonal chain per
diagonal k = n' - n of a spin block, the same for k and -k
(_heating_chain); exp(u D) comes from each chain's cached
eigendecomposition.

Blue-sideband pulses couple |down, n> <-> |up, n+1> and are applied as exact
unitaries: the rotation angle is the nominal angle times sqrt(n+1) (exact in
the n = 0 manifold), |up, 0> is uncoupled and stays put, and so does
|down, fock_cutoff>, whose partner lies beyond the truncation.

The sequence sector
-------------------
Pulses conserve K = n - [spin up], heating and modulation preserve n - n'
and the spins, and every sequence starts in |down, 0> (K = 0).  So only
elements with K = K' ever become non-zero: 4m - 2 of the (2m)^2, with
m = fock_cutoff + 1 (42 of 484 at the default cutoff).  The sequence runner
behind run_sequence_phases, heating_envelope, product_model_scan and the
master curves evolves just those:

- populations p[spin, n], shape (..., 2, m);
- coherences c[n] = rho(down n, up n+1), shape (..., m-1).

A pulse is a closed-form 2x2 update on each manifold {|down, n>, |up, n+1>}
(p[down, n], p[up, n+1], c[n]), leaving p[up, 0] and p[down, cutoff] alone.
Heating runs the populations of either spin on chain k = 0 and the
coherences on chain k = 1, the sector's two diagonals of D.  Modulation
multiplies c by exp(+i Phi).  The readout is sum p[up] - sum p[down], and a
run whose populations no longer sum to one raises IntegrationError.

The full-space functions (initial_state, sideband_pulse, free_evolution,
mean_phonon, check_density_matrix) stay for work on arbitrary density
matrices, such as states outside the sector, and serve the tests as the
independent full-space route the sector runner is checked against.
free_evolution heats every diagonal of every spin block on its chain, so
full space and sector share one dissipator.

Signal convention: run_sequence returns cos(accumulated_phase - analyzer_phase)
in the ideal limit for every pulse count, so a perfect echo with analyzer 0
reads +1.  Internally that fixes the sign of the final pulse phase and of the
spin readout as functions of pulse-count parity; see _sequence_signals.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model_core import CPSequence, HeatingModel, ModulationParams
from .phase_oracle import accumulated_phase_grid

__all__ = [
    "DEFAULT_FOCK_CUTOFF",
    "IntegrationError",
    "SequenceSpec",
    "initial_state",
    "sideband_pulse",
    "free_evolution",
    "run_sequence",
    "run_sequence_phases",
    "phase_averaged_sequence",
    "heating_envelope",
    "cached_heating_envelope",
    "product_model_scan",
    "product_model_check",
    "mean_phonon",
    "check_density_matrix",
]

DEFAULT_FOCK_CUTOFF = 10

_TRACE_TOL = 1e-6


class IntegrationError(RuntimeError):
    """Raised when free evolution or a sequence run loses the trace of the state."""


@dataclass(frozen=True)
class SequenceSpec:
    """Everything run_sequence needs besides the modulation phase.

    mod supplies amplitude and omega_mod; its own phase field is ignored (the
    per-run phase is the run_sequence argument).  heating of None or of
    nbar_dot = 0 both mean no dissipation.  ideal_pulses switches every
    sideband pulse to an n-independent rotation (ablation, see
    _pulse_unitary); the default is the physical sqrt(n+1) scaling.
    """

    seq: CPSequence
    mod: ModulationParams | None = None
    heating: HeatingModel | None = None
    analyzer_phase: float = 0.0
    ideal_pulses: bool = False

    @property
    def fock_cutoff(self):
        return self.heating.fock_cutoff if self.heating is not None else DEFAULT_FOCK_CUTOFF


def initial_state(fock_cutoff=DEFAULT_FOCK_CUTOFF):
    """rho = |down, 0><down, 0| on the truncated ladder."""
    d = 2 * (fock_cutoff + 1)
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _manifold_angles(fock_cutoff, angle, ideal):
    """Rotation angle of manifold n = 0..fock_cutoff-1: angle * sqrt(n+1), or angle if ideal."""
    return np.full(fock_cutoff, float(angle)) if ideal else angle * np.sqrt(np.arange(1.0, fock_cutoff + 1))


def _pulse_unitary(fock_cutoff, angle, phase, ideal=False):
    """Blue-sideband rotation on the {|dn,n>, |up,n+1>} manifolds.

    Fixed-duration pulses rotate manifold n by angle*sqrt(n+1) (calibrated on
    n = 0); this over-rotation of heated population is the dominant way
    heating eats contrast.  ideal=True removes the sqrt(n+1) scaling (every
    manifold rotates by exactly `angle`), an ablation for separating
    over-rotation loss from intrinsic heating decoherence.  Either way
    |up, 0> stays dark: it has no sideband partner, so no pulse touches it.
    """
    m = fock_cutoff + 1
    u = np.eye(2 * m, dtype=complex)
    n = np.arange(fock_cutoff)  # manifolds with both partners inside the ladder
    theta = _manifold_angles(fock_cutoff, angle, ideal)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    lo = n          # |down, n>
    hi = m + n + 1  # |up, n+1>
    u[lo, lo] = c
    u[hi, hi] = c
    u[lo, hi] = -1j * np.exp(-1j * phase) * s
    u[hi, lo] = -1j * np.exp(1j * phase) * s
    return u


def sideband_pulse(rho, angle, phase=0.0, ideal=False):
    """Apply a blue-sideband pulse to rho (batched over leading axes)."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    u = _pulse_unitary(d // 2 - 1, angle, phase, ideal)
    return u @ rho @ u.conj().T


@functools.lru_cache(maxsize=None)
def _heating_chain(fock_cutoff, k):
    """(lam, V) with V diag(lam) V^T the unit-rate heating dissipator D on
    diagonal k >= 0 of a spin block: the elements rho(n, n+k), n < m - k,
    m = fock_cutoff + 1.

    D only exchanges (n, n') with (n+1, n'+1), so it keeps n' - n and is one
    real symmetric tridiagonal chain per diagonal: element (n, n+k) decays
    at the mean of its two levels' rates, n + (n+1) each (the truncated top
    level has no a^dag channel, so just n), and a rho a^dag / a^dag rho a
    exchange it with (n+1, n+k+1) at weight sqrt((n+1)(n+k+1)).  D is
    symmetric under n <-> n', so diagonal -k runs on chain k.  Chain 0
    carries the sector's populations, chain 1 its coherences.
    """
    m = fock_cutoff + 1
    levels = np.arange(m, dtype=float)
    decay = levels + np.append(levels[1:], 0.0)
    diag = -0.5 * (decay[: m - k] + decay[k:])
    off = np.sqrt(levels[1 : m - k] * levels[1 + k :])
    lam, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    lam.flags.writeable = False
    vec.flags.writeable = False
    return lam, vec


def _evolve_batch(rho, duration, t_start, amplitude, omega_mod, phases, gamma, fock_cutoff):
    """Exact free evolution of the batched master equation over one segment.

    rho: (..., d, d) complex; the evolved state is returned.  phases and
    gamma may be scalars or arrays broadcastable against the batch shape.
    """
    gamma_arr = np.asarray(gamma, dtype=float)
    heated = bool(np.any(gamma_arr > 0.0))
    if duration <= 0.0 or not (heated or amplitude > 0.0):
        return rho  # generator vanishes identically
    m = fock_cutoff + 1
    batch_shape = rho.shape[:-2]
    if heated:
        # (..., 2, m, 2, m) -> (..., 2, 2, m, m): spin blocks, each heated one
        # diagonal (n, n+k) at a time on its chain.
        blocks = np.swapaxes(rho.reshape(batch_shape + (2, m, 2, m)), -3, -2).copy()
        for k in range(1 - m, m):
            lam, vec = _heating_chain(fock_cutoff, abs(k))
            rows = np.arange(max(0, -k), m - max(0, k))
            factor = np.exp(np.multiply.outer(gamma_arr * duration, lam))[..., None, None, :]
            x = blocks[..., rows, rows + k]  # 2-D matmuls: one gemm each, not one per item
            x = (x.reshape(-1, rows.size) @ vec).reshape(x.shape) * factor
            blocks[..., rows, rows + k] = (x.reshape(-1, rows.size) @ vec.T).reshape(x.shape)
        rho = np.swapaxes(blocks, -3, -2).reshape(rho.shape)
    if amplitude > 0.0:
        shifted = np.asarray(phases, dtype=float) + omega_mod * t_start
        big_phi = accumulated_phase_grid(CPSequence(0, duration), amplitude, omega_mod, shifted)
        v = np.exp(-1j * big_phi[..., None] * np.tile(np.arange(m), 2))
        rho = rho * (v[..., :, None] * v.conj()[..., None, :])

    traces = np.abs(np.einsum("...ii->...", rho).real - 1.0)
    if traces.max() > _TRACE_TOL:
        raise IntegrationError(f"trace drifted by {traces.max():.2e} during free evolution")
    return rho


def free_evolution(rho, duration, mod=None, heating=None, t_start=0.0):
    """Evolve rho for `duration` under modulation and/or heating.

    With both absent the state is returned exactly unchanged.  t_start anchors
    the modulation phase: delta_omega is evaluated at absolute times
    t_start..t_start+duration, which is how multi-segment sequences keep a
    single coherent tone across pulses.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    rho = np.array(rho, dtype=complex)
    d = rho.shape[-1]
    amplitude = mod.amplitude if mod is not None else 0.0
    omega = mod.omega_mod if mod is not None else 1.0
    phase = mod.phase if mod is not None else 0.0
    gamma = heating.nbar_dot if heating is not None else 0.0
    return _evolve_batch(rho, duration, t_start, amplitude, omega, phase, gamma, d // 2 - 1)


def _sector_pulse(fock_cutoff, angle, phase, ideal):
    """Coefficients (cos^2, sin^2, cos*w, w^2) of one pulse on every manifold.

    On {|down, n>, |up, n+1>} the pulse is U = [[cos, w], [-w*, cos]] with
    cos = cos(theta/2), w = -i e^(-i phase) sin(theta/2), the same rotation
    _pulse_unitary writes into the full space.
    """
    theta = _manifold_angles(fock_cutoff, angle, ideal)
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    w = -1j * np.exp(-1j * phase) * sin
    return cos * cos, sin * sin, cos * w, w * w


def _apply_sector_pulse(p, c, coeffs):
    """U rho U^dag per manifold: a = p[down, n], b = p[up, n+1], x = c[n].

    a' = cos^2 a + sin^2 b + r, b' = sin^2 a + cos^2 b - r, r = 2 Re(cos w x*),
    x' = cos^2 x - w^2 x* + cos w (b - a).  p[up, 0] and p[down, cutoff]
    belong to no manifold and keep their values.
    """
    cos2, sin2, cos_w, w2 = coeffs
    a, b = p[..., 0, :-1], p[..., 1, 1:]
    cross = 2.0 * (cos_w * c.conj()).real
    c = cos2 * c - w2 * c.conj() + cos_w * (b - a)
    a_new = cos2 * a + sin2 * b + cross
    b_new = sin2 * a + cos2 * b - cross
    p[..., 0, :-1] = a_new
    p[..., 1, 1:] = b_new
    return p, c


def _sequence_signals(
    n_pulses, tau, amplitude, omega_mod, phases, gamma, fock_cutoff, analyzer_phase, ideal_pulses=False
):
    """Shared driver: batched sequence run, returns signals shaped like `phases`/`gamma`.

    Evolves only the sector the sequence can reach (module docstring):
    populations p of shape (..., 2, m) indexed [spin, n], and coherences
    c[n] = rho(down n, up n+1) of shape (..., m-1).  Heating applies
    heating chain 0 to p and chain 1 to c, both looked up once per run.

    The analyzer convention (see module docstring): the physical phase of the
    closing pi/2 pulse is (-1)^(n+1) * analyzer_phase, and the returned signal
    is (-1)^n * <sigma_z>; together these give cos(phi_acc - analyzer_phase)
    in the ideal limit for every n.
    """
    phases_arr = np.asarray(phases, dtype=float)
    gamma_arr = np.asarray(gamma, dtype=float)
    batch_shape = np.broadcast_shapes(phases_arr.shape, gamma_arr.shape)
    m = fock_cutoff + 1
    p = np.zeros(batch_shape + (2, m))
    p[..., 0, 0] = 1.0
    c = np.zeros(batch_shape + (m - 1,), dtype=complex)
    phases_b = np.broadcast_to(phases_arr, batch_shape)
    gamma_b = np.broadcast_to(gamma_arr, batch_shape)
    heated = bool(np.any(gamma_arr > 0.0))
    if heated:
        lam_p, vec_p = _heating_chain(fock_cutoff, 0)
        lam_c, vec_c = _heating_chain(fock_cutoff, 1)

    seq = CPSequence(n_pulses, tau)
    edges = seq.segment_edges()
    half = _sector_pulse(fock_cutoff, math.pi / 2.0, 0.0, ideal_pulses)
    pi = _sector_pulse(fock_cutoff, math.pi, 0.0, ideal_pulses)
    sign_parity = -1.0 if n_pulses % 2 == 0 else 1.0
    close = _sector_pulse(fock_cutoff, math.pi / 2.0, sign_parity * analyzer_phase, ideal_pulses)

    p, c = _apply_sector_pulse(p, c, half)
    for i in range(len(edges) - 1):
        duration = edges[i + 1] - edges[i]
        if heated:
            u = gamma_b * duration
            p = (p @ vec_p) * np.exp(np.multiply.outer(u, lam_p))[..., None, :] @ vec_p.T
            c = (c @ vec_c) * np.exp(np.multiply.outer(u, lam_c)) @ vec_c.T
        if amplitude > 0.0:
            shifted = phases_b + omega_mod * edges[i]
            big_phi = accumulated_phase_grid(CPSequence(0, duration), amplitude, omega_mod, shifted)
            c = c * np.exp(1j * big_phi)[..., None]
        if i < len(edges) - 2:
            p, c = _apply_sector_pulse(p, c, pi)
    p, c = _apply_sector_pulse(p, c, close)

    traces = np.abs(p.sum(axis=(-2, -1)) - 1.0)
    if traces.max() > _TRACE_TOL:
        raise IntegrationError(f"trace drifted by {traces.max():.2e} over the sequence")
    sigma_z = p[..., 1, :].sum(axis=-1) - p[..., 0, :].sum(axis=-1)
    signal = (-1.0) ** n_pulses * sigma_z
    if signal.ndim == 0:
        return float(signal)
    return signal


def run_sequence(spec, phi=0.0):
    """Signal of one full sequence at a fixed modulation phase phi.

    Returns cos(accumulated_phase - analyzer_phase) in the heating-free limit;
    with heating, the contrast-reduced equivalent.
    """
    return run_sequence_phases(spec, phi)


def run_sequence_phases(spec, phis):
    """Sequence signals over an array of modulation phases, batched in one pass."""
    amplitude = spec.mod.amplitude if spec.mod is not None else 0.0
    omega = spec.mod.omega_mod if spec.mod is not None else 1.0
    gamma = spec.heating.nbar_dot if spec.heating is not None else 0.0
    return _sequence_signals(
        spec.seq.n_pulses, spec.seq.tau, amplitude, omega, np.asarray(phis, dtype=float),
        gamma, spec.fock_cutoff, spec.analyzer_phase, spec.ideal_pulses,
    )


def phase_averaged_sequence(spec, n_phases=64):
    """Mean sequence signal over a uniform modulation-phase grid."""
    if n_phases < 16:
        raise ValueError(f"n_phases must be >= 16, got {n_phases}")
    grid = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)
    return float(np.mean(run_sequence_phases(spec, grid)))


def heating_envelope(seq, heating, tau_grid, ideal_pulses=False):
    """Contrast envelope of the sequence with heating only (no modulation).

    With the modulation off the generator is nbar_dot times a fixed
    superoperator and the pulses sit at fixed fractions of tau, so the
    envelope depends on tau and nbar_dot only through u = nbar_dot * tau.
    All grid points are therefore simulated in one batch on a unit-time
    sequence with per-item rates u_i, which is exactly equivalent to
    simulating each tau separately (tests hold it to that).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid <= 0.0):
        raise ValueError("tau values must be > 0")
    if heating is None or heating.nbar_dot == 0.0:
        return np.ones_like(tau_grid)
    u = heating.nbar_dot * tau_grid
    return _sequence_signals(seq.n_pulses, 1.0, 0.0, 1.0, 0.0, u, heating.fock_cutoff, 0.0, ideal_pulses)


_MASTER_CACHE = {}
_MASTER_U_MAX = 4.8
_MASTER_POINTS = 97


def cached_heating_envelope(n_pulses, nbar_dot, tau, fock_cutoff=DEFAULT_FOCK_CUTOFF):
    """Heating envelope from a per-(n, cutoff) master curve E_n(nbar_dot * tau).

    The curve is simulated once on a grid of u = nbar_dot * tau (spacing 0.05)
    and evaluated through a shape-preserving cubic (PCHIP).  Against the exact
    envelope (heating_envelope) the measured interpolation error is at most
    ~1e-5 for n <= 2 beyond the first grid interval; inside it (u < 0.05),
    where the curve bends fastest, it reaches 2e-6 / 7e-5 / 3e-5 / 2e-4 for
    n = 0 / 1 / 2 / 3.  The decay is not a pure exponential: past u ~ 1.3
    the contrast crosses zero into a shallow negative lobe (a few percent
    deep) before relaxing back toward zero.
    Beyond u = 4.8 the curve is clamped at its last value; by then the fit
    weights attached to such points carry no information anyway.  tau may be
    a scalar or an array.
    """
    from scipy.interpolate import PchipInterpolator

    key = (int(n_pulses), int(fock_cutoff))
    if key not in _MASTER_CACHE:
        u_grid = np.linspace(0.0, _MASTER_U_MAX, _MASTER_POINTS)
        vals = _sequence_signals(n_pulses, 1.0, 0.0, 1.0, 0.0, u_grid, fock_cutoff, 0.0)
        vals[0] = 1.0
        _MASTER_CACHE[key] = PchipInterpolator(u_grid, vals)
    interp = _MASTER_CACHE[key]
    u = np.minimum(np.asarray(nbar_dot, dtype=float) * np.asarray(tau, dtype=float), _MASTER_U_MAX)
    out = interp(u)
    if out.ndim == 0:
        return float(out)
    return out


def product_model_scan(seq_template, mod, heating, tau_grid, n_phases=64, ideal_pulses=False):
    """(c_total, c_heat, c_mod) over tau_grid: the terms of C_total ~= C_heat * C_mod.

    c_total is the phase-averaged simulation with modulation and heating
    together (phase_averaged_sequence), c_heat the exact heating-only
    envelope (one batched heating_envelope call) and c_mod the analytic
    phase-averaged modulation contrast, each an array shaped like tau_grid.
    Only seq_template's pulse count is used.
    """
    from .model_core import analytic_signal

    tau_grid = np.asarray(tau_grid, dtype=float)
    c_heat = heating_envelope(seq_template, heating, tau_grid, ideal_pulses)
    c_total = np.empty_like(tau_grid)
    c_mod = np.empty_like(tau_grid)
    for i, tau in enumerate(tau_grid):
        seq = CPSequence(seq_template.n_pulses, float(tau))
        c_total[i] = phase_averaged_sequence(SequenceSpec(seq, mod, heating, ideal_pulses=ideal_pulses), n_phases)
        c_mod[i] = analytic_signal(seq, mod)
    return c_total, c_heat, c_mod


def product_model_check(seq_template, mod, heating, tau_grid, n_phases=64, ideal_pulses=False):
    """Worst-case error of the factorization C_total ~= C_heat * C_modulation:
    max |c_total - c_heat * c_mod| over product_model_scan.

    The free evolution alone factorizes exactly: the modulation term is
    diagonal and the dissipator is phase-covariant, so they commute segment
    by segment (the simulator's propagator is built on this, and tests check
    it on an independent RK4 integration).  The pulses break it:
    over-rotated heated population, and population stranded in the
    sideband-dark |up, 0> state, traverse the rest of the sequence with the
    wrong toggling pattern and beat against the intended path.  At echo
    parameters in the few-percent-heating regime the deviation reaches a few
    tenths (ideal_pulses=True roughly halves it but the dark-state pathway
    remains), so the product form is a fitting convenience, not an identity.
    """
    c_total, c_heat, c_mod = product_model_scan(seq_template, mod, heating, tau_grid, n_phases, ideal_pulses)
    return float(np.max(np.abs(c_total - c_heat * c_mod)))


def mean_phonon(rho):
    """<n> of a (possibly batched) density matrix."""
    rho = np.asarray(rho)
    m = rho.shape[-1] // 2
    populations = np.einsum("...ii->...i", rho).real
    nvec = np.tile(np.arange(m, dtype=float), 2)
    return populations @ nvec


def check_density_matrix(rho, tol=1e-8):
    """Validate trace one, Hermiticity, and positivity (to tolerance tol)."""
    rho = np.asarray(rho)
    tr = np.einsum("...ii->...", rho)
    if np.max(np.abs(tr - 1.0)) > tol:
        raise ValueError(f"trace deviates from 1 by {np.max(np.abs(tr - 1.0)):.2e}")
    herm = np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()))
    if herm > tol:
        raise ValueError(f"Hermiticity violated by {herm:.2e}")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -tol:
        raise ValueError(f"negative eigenvalue {eigs.min():.2e}")
    return True
