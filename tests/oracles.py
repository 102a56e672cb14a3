"""Independent numerical oracles used only by the test suite.

Everything here deliberately avoids the closed forms used by the package:
integrals are evaluated by adaptive quadrature (Simpson, and scipy's quad for
the outer phase average), and density-matrix free evolution by fixed-step RK4
on the master equation, so that agreement between package and oracle is
evidence, not tautology.
segment_sum_phase_grid is the accumulated phase as a sum of per-segment
antiderivatives, the reference for the package's factored form.
full_rho_sequence_signals runs a sequence on the whole (d, d) density matrix
with the package's full-space pulse unitary and exact propagator; the
sequence runner, which keeps only the sector the dynamics can reach, must
match it to rounding.
dense_heating_dissipator is the heating dissipator as one dense
(m^2, m^2) matrix on a flattened spin block, the reference the package's
per-diagonal chains must reproduce.
multistart_fit_phase is the exception that checks a search, not a formula:
it minimizes the package's own echo model by brute-force restarts.
ou_drift_step is the lab's drift recursion one scalar step at a time, the
reference that simlab._ou_path's n-step path must match exactly.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def adaptive_simpson(f, a, b, tol=1e-11, max_depth=48):
    """Adaptive Simpson quadrature of f on [a, b] to absolute tolerance tol."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def bessel_j0_quadrature(z, tol=1e-11):
    """J0 via its defining integral (1/pi) * int_0^pi cos(z sin(phi)) dphi."""
    return adaptive_simpson(lambda p: math.cos(z * math.sin(p)), 0.0, math.pi, tol) / math.pi


def pulse_times(n, tau):
    """Pi-pulse instants tau*(2k-1)/(2n), k = 1..n."""
    return [tau * (2 * k - 1) / (2 * n) for k in range(1, n + 1)]


def segment_edges(n, tau):
    return [0.0] + pulse_times(n, tau) + [tau]


def toggled_phase_quadrature(n, tau, amplitude, omega, phase, tol=1e-12):
    """int_0^tau y_n(t) * amplitude*cos(omega*t + phase) dt by per-segment Simpson.

    The sign pattern comes from the pulse placement; the integration itself is
    blind numerical quadrature (no antiderivatives).
    """
    edges = segment_edges(n, tau)
    total = 0.0
    sign = 1.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += sign * adaptive_simpson(
            lambda t: amplitude * math.cos(omega * t + phase), a, b, tol
        )
        sign = -sign
    return total


def segment_sum_phase_grid(seq, amplitude, omega_mod, phases):
    """Accumulated phase from per-segment antiderivatives, vectorized.

    (amplitude/omega) * sum over segments of the toggling sign times the
    difference of sin(omega t + phase) at the segment edges; same signature
    and broadcasting as phase_oracle.accumulated_phase_grid, which evaluates
    the factored form instead.  Exact in exact arithmetic; in floating point
    the edge differences cancel when omega * tau << 1.
    """
    phases = np.asarray(phases, dtype=float)
    omega = np.asarray(omega_mod, dtype=float)
    edges = np.concatenate(([0.0], pulse_times(seq.n_pulses, seq.tau), [seq.tau]))
    signs = (-1.0) ** np.arange(seq.n_pulses + 1)
    arg = omega[..., None] * edges + phases[..., None]
    return amplitude / omega * (np.diff(np.sin(arg), axis=-1) @ signs)


def filter_magnitude_quadrature(n, tau, omega, tol=1e-12):
    """|int_0^tau y_n(t) e^(i omega t) dt| * omega by per-segment Simpson."""
    edges = segment_edges(n, tau)
    re = 0.0
    im = 0.0
    sign = 1.0
    for a, b in zip(edges[:-1], edges[1:]):
        re += sign * adaptive_simpson(lambda t: math.cos(omega * t), a, b, tol)
        im += sign * adaptive_simpson(lambda t: math.sin(omega * t), a, b, tol)
        sign = -sign
    return math.hypot(re, im) * omega


def phase_average_quadrature(n, tau, amplitude, omega, epsabs=1e-12):
    """Average of cos(accumulated phase) over the modulation phase, by quadrature.

    The inner time integral is blind Simpson (toggled_phase_quadrature); the
    outer integral over one period of the phase is scipy's adaptive
    Gauss-Kronrod quad, which converges on the smooth periodic integrand in
    a few hundred inner evaluations where nested Simpson needs tens of
    thousands.
    """

    def integrand(phase):
        return math.cos(toggled_phase_quadrature(n, tau, amplitude, omega, phase))

    total, _ = quad(integrand, 0.0, 2.0 * math.pi, epsabs=epsabs)
    return total / (2.0 * math.pi)


# Fixed-step RK4 step control.  The hard ceiling resolves the fastest process
# by a factor RK4_STEP_DIVISOR; the accuracy bounds then tighten the step so
# the accumulated O(h^4) error stays well below 1e-7 over a worst-case 0.2 s
# sequence (the populated coherences rotate at <= amplitude and decay at
# <= ~9*gamma, which sets the rate scales below; measured step-halving
# differences land at the 1e-8 scale).
RK4_STEP_DIVISOR = 200
RK4_ERR_BUDGET = 2e-6
RK4_T_REF = 0.2
RK4_HEAT_RATE_FACTOR = 9.0


def rk4_free_evolution(rho, duration, t_start, amplitude, omega_mod, phases, gamma, fock_cutoff,
                       step_scale=1.0):
    """Fixed-step RK4 integration of drho/dt = -i[H(t), rho] + gamma D[rho].

    Same conventions and argument order as quantum_sim._evolve_batch: rho is
    (..., d, d) complex, phases and gamma scalars or arrays broadcastable
    against the batch shape.  step_scale multiplies the step count (2.0
    halves the step).
    """
    rho = np.array(rho, dtype=complex)
    if duration <= 0.0:
        return rho
    has_mod = amplitude > 0.0
    gamma_arr = np.asarray(gamma, dtype=float)
    gamma_max = float(gamma_arr.max())
    has_heat = gamma_max > 0.0
    if not has_mod and not has_heat:
        return rho

    m = fock_cutoff + 1
    batch_shape = rho.shape[:-2]
    caps = [duration]
    if has_mod:
        caps.append(2.0 * math.pi / omega_mod / RK4_STEP_DIVISOR)
        caps.append((RK4_ERR_BUDGET * 120.0 / (RK4_T_REF * amplitude**5)) ** 0.25)
    if has_heat:
        caps.append(1.0 / gamma_max / RK4_STEP_DIVISOR)
        rate = RK4_HEAT_RATE_FACTOR * gamma_max
        caps.append((RK4_ERR_BUDGET * 120.0 / (RK4_T_REF * rate**5)) ** 0.25)
    n_steps = max(1, int(math.ceil(step_scale * duration / min(caps))))
    h = duration / n_steps

    # Broadcast helpers, shaped to multiply (..., d, d) arrays.
    phase_b = np.asarray(phases, dtype=float).reshape(np.shape(phases) + (1, 1))
    gamma_b = gamma_arr.reshape(gamma_arr.shape + (1, 1))
    nvec = np.tile(np.arange(m, dtype=float), 2)
    minus_i_dn = -1j * (nvec[:, None] - nvec[None, :])
    s_up = np.sqrt(np.arange(1.0, m))               # sqrt(n+1) for n = 0..m-2
    so = s_up[:, None, None] * s_up[None, None, :]  # (n_i, spin_j, n_j) broadcast
    decay = np.arange(m, dtype=float)
    decay[:-1] += np.arange(1.0, m)                 # n + (n+1), truncated top level: just n
    dvec = np.tile(decay, 2)
    half_g = 0.5 * (dvec[:, None] + dvec[None, :])

    def rhs(t, y):
        out = np.zeros_like(y)
        if has_mod:
            out += amplitude * np.cos(omega_mod * t + phase_b) * (minus_i_dn * y)
        if has_heat:
            y5 = y.reshape(batch_shape + (2, m, 2, m))
            jump = np.zeros_like(y5)
            # a rho a^dag: pulls populations down-ladder coherently
            jump[..., :, :-1, :, :-1] += so * y5[..., :, 1:, :, 1:]
            # a^dag rho a: pushes them up
            jump[..., :, 1:, :, 1:] += so * y5[..., :, :-1, :, :-1]
            out += gamma_b * (jump.reshape(y.shape) - half_g * y)
        return out

    t = t_start
    for _ in range(n_steps):
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * h, rho + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, rho + (0.5 * h) * k2)
        k4 = rhs(t + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += h
    return rho


def dense_heating_dissipator(fock_cutoff):
    """The unit-rate heating dissipator D as a dense (m*m, m*m) matrix, m = fock_cutoff + 1.

    D acts identically on each (m, m) spin block of rho, as a real symmetric
    matrix on the row-major flattened block: element (n, n') decays at the
    mean of n + (n+1) and n' + (n'+1) (the truncated top level has no a^dag
    channel, so just n), and a rho a^dag / a^dag rho a exchange (n, n') with
    (n+1, n'+1) at weight sqrt((n+1)(n'+1)).
    """
    m = fock_cutoff + 1
    n = np.arange(m, dtype=float)
    decay = n + np.append(n[1:], 0.0)
    dmat = np.diag(-0.5 * (decay[:, None] + decay[None, :]).ravel())
    lower = (np.arange(m - 1)[:, None] * m + np.arange(m - 1)).ravel()
    weight = np.outer(np.sqrt(n[1:]), np.sqrt(n[1:])).ravel()
    dmat[lower, lower + m + 1] = weight
    dmat[lower + m + 1, lower] = weight
    return dmat


def rk4_sequence_signal(n_pulses, tau, amplitude, omega_mod, phases, gamma, fock_cutoff,
                        analyzer_phase=0.0, ideal_pulses=False, step_scale=1.0):
    """Sequence signal with every free-evolution segment integrated by RK4.

    Pulses are the package's exact sideband unitaries; only the free
    evolution differs from quantum_sim.  Same readout convention as
    quantum_sim.run_sequence: cos(accumulated_phase - analyzer_phase) in the
    ideal limit.  Returns an array shaped like `phases`.
    """
    from linecancel.quantum_sim import sideband_pulse

    phases = np.asarray(phases, dtype=float)
    m = fock_cutoff + 1
    rho = np.zeros(phases.shape + (2 * m, 2 * m), dtype=complex)
    rho[..., 0, 0] = 1.0
    edges = segment_edges(n_pulses, tau)
    rho = sideband_pulse(rho, math.pi / 2.0, ideal=ideal_pulses)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        rho = rk4_free_evolution(rho, b - a, a, amplitude, omega_mod, phases, gamma, fock_cutoff,
                                 step_scale)
        if i < len(edges) - 2:
            rho = sideband_pulse(rho, math.pi, ideal=ideal_pulses)
    close_phase = (-1.0 if n_pulses % 2 == 0 else 1.0) * analyzer_phase
    rho = sideband_pulse(rho, math.pi / 2.0, close_phase, ideal=ideal_pulses)
    populations = np.einsum("...ii->...i", rho).real
    sigma_z = populations[..., m:].sum(axis=-1) - populations[..., :m].sum(axis=-1)
    return (-1.0) ** n_pulses * sigma_z


def full_rho_sequence_state(n_pulses, tau, amplitude, omega_mod, phases, gamma, fock_cutoff,
                            analyzer_phase, ideal_pulses=False):
    """Final (..., d, d) density matrix of a sequence run on the full Fock space.

    The pre-sector quantum_sim sequence runner: every pulse is a stacked (d, d)
    `u @ rho @ u^dag` with quantum_sim._pulse_unitary and every segment is
    quantum_sim._evolve_batch, so nothing here uses the sector reduction.
    Batch shape is the broadcast of `phases` and `gamma`.
    """
    from linecancel.model_core import CPSequence
    from linecancel.quantum_sim import _evolve_batch, _pulse_unitary

    phases_arr = np.asarray(phases, dtype=float)
    gamma_arr = np.asarray(gamma, dtype=float)
    batch_shape = np.broadcast_shapes(phases_arr.shape, gamma_arr.shape)
    m = fock_cutoff + 1
    d = 2 * m
    rho = np.zeros(batch_shape + (d, d), dtype=complex)
    rho[..., 0, 0] = 1.0
    phases_b = np.broadcast_to(phases_arr, batch_shape)
    gamma_b = np.broadcast_to(gamma_arr, batch_shape)

    seq = CPSequence(n_pulses, tau)
    edges = seq.segment_edges()
    u_half = _pulse_unitary(fock_cutoff, math.pi / 2.0, 0.0, ideal_pulses)
    u_pi = _pulse_unitary(fock_cutoff, math.pi, 0.0, ideal_pulses)
    sign_parity = -1.0 if n_pulses % 2 == 0 else 1.0
    u_close = _pulse_unitary(fock_cutoff, math.pi / 2.0, sign_parity * analyzer_phase, ideal_pulses)

    rho = u_half @ rho @ u_half.conj().T
    for i in range(len(edges) - 1):
        rho = _evolve_batch(
            rho, edges[i + 1] - edges[i], edges[i], amplitude, omega_mod, phases_b, gamma_b, fock_cutoff
        )
        if i < len(edges) - 2:
            rho = u_pi @ rho @ u_pi.conj().T
    return u_close @ rho @ u_close.conj().T


def full_rho_sequence_signals(n_pulses, tau, amplitude, omega_mod, phases, gamma, fock_cutoff,
                              analyzer_phase, ideal_pulses=False):
    """quantum_sim._sequence_signals on the full (d, d) density matrix.

    Same signature and readout, (-1)^n * <sigma_z>; the reference the sector
    runner must match to rounding.
    """
    rho = full_rho_sequence_state(n_pulses, tau, amplitude, omega_mod, phases, gamma, fock_cutoff,
                                  analyzer_phase, ideal_pulses)
    m = fock_cutoff + 1
    populations = np.einsum("...ii->...i", rho).real
    sigma_z = populations[..., m:].sum(axis=-1) - populations[..., :m].sum(axis=-1)
    signal = (-1.0) ** n_pulses * sigma_z
    if signal.ndim == 0:
        return float(signal)
    return signal


def multistart_fit_phase(trace, f_m):
    """The echo-phase fit by brute force: 16 LM runs, keep the least cost.

    Starts at 8 phases around the full circle x amplitudes 25 and 60 Hz, all
    at nbar_dot = 5 /s.  Slow, but it reaches the basins a single start can
    miss; estimator.fit_phase (one scan, one LM) must do no worse.  Returns
    (LMResult of the best start, params canonicalized as fit_phase does).
    """
    from linecancel.estimator import echo_model
    from linecancel.levmar import levenberg_marquardt

    model = echo_model(f_m, trace.tau)

    def resid(x):
        return (trace.signal - model(*x)) / trace.sigma

    best = None
    for phi0 in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        for a0 in (25.0, 60.0):
            res = levenberg_marquardt(resid, np.array([a0, phi0, 5.0]), floor=np.ones(3))
            if best is None or res.cost < best.cost:
                best = res
    a_hz, phi_d, nbar_dot = best.x
    if a_hz < 0.0:
        a_hz, phi_d = -a_hz, phi_d + math.pi
    return best, {"A_over_2pi": a_hz, "phi_d": phi_d % math.pi, "nbar_dot": nbar_dot}


def ou_drift_step(state, dt, sigma_f, tau_c, rng):
    """One exact-discretization Ornstein-Uhlenbeck step; stationary std is sigma_f."""
    decay = math.exp(-dt / tau_c)
    return state * decay + sigma_f * math.sqrt(1.0 - decay * decay) * rng.standard_normal()
