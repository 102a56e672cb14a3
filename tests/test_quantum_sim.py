"""Density-matrix simulator: pulses, free evolution, heating envelopes, and
the limits of the product (envelope times contrast) factorization.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecancel.quantum_sim as qs
from linecancel.model_core import TWO_PI, CPSequence, HeatingModel, ModulationParams
from linecancel.phase_oracle import accumulated_phase
from linecancel.quantum_sim import (
    SequenceSpec,
    cached_heating_envelope,
    check_density_matrix,
    free_evolution,
    heating_envelope,
    initial_state,
    mean_phonon,
    phase_averaged_sequence,
    product_model_check,
    run_sequence,
    run_sequence_phases,
    sideband_pulse,
)

import oracles

CUTOFF = 10
M = CUTOFF + 1
D = 2 * M


def up_state(n):
    """|up, n> projector at the default cutoff."""
    rho = np.zeros((D, D), dtype=complex)
    rho[M + n, M + n] = 1.0
    return rho


# ------------------------------------------------------------------- pulses


def test_initial_state_is_ground():
    rho = initial_state()
    assert rho.shape == (D, D)
    assert rho[0, 0] == 1.0
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    assert mean_phonon(rho) == 0.0


def test_pi_pulse_twice_returns():
    rho = initial_state()
    out = sideband_pulse(sideband_pulse(rho, math.pi), math.pi)
    assert np.max(np.abs(out - rho)) <= 1e-10


def test_half_pulse_splits_ground_evenly():
    rho = sideband_pulse(initial_state(), math.pi / 2.0)
    pops = np.diag(rho).real
    assert pops[0] == pytest.approx(0.5, abs=1e-12)      # |down, 0>
    assert pops[M + 1] == pytest.approx(0.5, abs=1e-12)  # |up, 1>
    check_density_matrix(rho)


def test_up_zero_is_sideband_dark():
    # |up, 0> has no partner state, so no pulse of either calibration moves it.
    rho = up_state(0)
    for ideal in (False, True):
        out = sideband_pulse(rho, math.pi, phase=0.3, ideal=ideal)
        assert np.array_equal(out, rho)


def test_pulse_batching_matches_single():
    rho = sideband_pulse(initial_state(), 0.7, phase=1.1)
    batch = np.stack([initial_state(), initial_state()])
    out = sideband_pulse(batch, 0.7, phase=1.1)
    assert out.shape == (2, D, D)
    assert np.max(np.abs(out[0] - rho)) <= 1e-15


def test_ideal_pulse_removes_carrier_scaling():
    # A pi pulse fully transfers |down, 1> only when the sqrt(n+1) scaling is
    # switched off; physically it over-rotates by sqrt(2).
    rho = np.zeros((D, D), dtype=complex)
    rho[1, 1] = 1.0  # |down, 1>
    ideal = sideband_pulse(rho, math.pi, ideal=True)
    assert np.diag(ideal).real[M + 2] == pytest.approx(1.0, abs=1e-12)
    physical = sideband_pulse(rho, math.pi)
    assert np.diag(physical).real[M + 2] == pytest.approx(
        math.sin(math.pi * math.sqrt(2.0) / 2.0) ** 2, abs=1e-12
    )


# ----------------------------------------------------------- free evolution


def test_free_evolution_noop_is_exact():
    rho = sideband_pulse(initial_state(), 0.9, phase=0.2)
    out = free_evolution(rho, 0.05)
    assert np.array_equal(out, rho)


def test_free_evolution_rejects_negative_duration():
    with pytest.raises(ValueError):
        free_evolution(initial_state(), -1e-6)


def test_phonon_growth_rate():
    # d<n>/dt = nbar_dot from any state; 6/s for 10 ms gives 0.06.
    heating = HeatingModel(6.0)
    rho = free_evolution(initial_state(), 0.010, heating=heating)
    check_density_matrix(rho)
    assert mean_phonon(rho) == pytest.approx(0.06, abs=0.005)
    rho = free_evolution(rho, 0.040, heating=heating, t_start=0.010)
    assert mean_phonon(rho) == pytest.approx(0.30, rel=0.02)


def test_heating_chains_reproduce_dense_dissipator():
    # D keeps n' - n, so the chains, placed on their diagonals' elements of
    # the flattened block, must rebuild the whole dense D.
    for cutoff in range(4, 15):
        m = cutoff + 1
        dense = oracles.dense_heating_dissipator(cutoff)
        n, n_prime = np.indices((m, m))
        from_chains = np.zeros_like(dense)
        for k in range(1 - m, m):
            lam, vec = qs._heating_chain(cutoff, abs(k))
            idx = np.flatnonzero(n_prime - n == k)  # (n, n+k) in order of n
            from_chains[np.ix_(idx, idx)] = (vec * lam) @ vec.T
        assert np.max(np.abs(from_chains - dense)) <= 1e-12, cutoff


@pytest.mark.parametrize("cutoff", [4, 10, 14])
def test_free_evolution_matches_expm_of_dense_dissipator(cutoff):
    from scipy.linalg import expm

    m = cutoff + 1
    rng = np.random.default_rng(cutoff)
    a = rng.normal(size=(3, 2 * m, 2 * m)) + 1j * rng.normal(size=(3, 2 * m, 2 * m))
    rho = a @ np.swapaxes(a.conj(), -1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    heating = HeatingModel(9.0, cutoff)
    mod = ModulationParams(TWO_PI * 30.0, TWO_PI * 60.0, 0.4)
    t0, dt = 0.002, 0.013

    # exp(gamma dt D) on every row-major flattened spin block
    prop = expm(heating.nbar_dot * dt * oracles.dense_heating_dissipator(cutoff))
    blocks = np.swapaxes(rho.reshape(3, 2, m, 2, m), 2, 3).reshape(3, 2, 2, m * m) @ prop.T
    heated = np.swapaxes(blocks.reshape(3, 2, 2, m, m), 2, 3).reshape(rho.shape)
    assert np.max(np.abs(free_evolution(rho, dt, heating=heating, t_start=t0) - heated)) <= 1e-12

    big_phi = mod.amplitude / mod.omega_mod * (
        math.sin(mod.omega_mod * (t0 + dt) + mod.phase) - math.sin(mod.omega_mod * t0 + mod.phase))
    v = np.exp(-1j * big_phi * np.tile(np.arange(m), 2))
    expected = v[:, None] * heated * v.conj()[None, :]
    assert np.max(np.abs(free_evolution(rho, dt, mod, heating, t_start=t0) - expected)) <= 1e-12


def test_integrator_step_halving_is_converged():
    """The exact segment propagator against the independent RK4 oracle.

    Both the RK4 at its production step and at half that step must sit within
    1e-8 of the exact signal, and halving the step must shrink the gap by
    about 16 (fourth order): the integrator converges onto the exact result.
    Covers every pulse count 0..3, heated and heating-free, physical and
    ideal pulses, and two Fock cutoffs.
    """
    amp, omega = TWO_PI * 53.9, TWO_PI * 60.0
    phis = np.array([0.3, 1.9, 4.4])
    tau, analyzer = 0.006, 0.4
    for cutoff in (8, 10):
        for ideal in (False, True):
            for gamma in (0.0, 30.0):
                for n in range(4):
                    case = (cutoff, ideal, gamma, n)
                    exact = qs._sequence_signals(n, tau, amp, omega, phis, gamma, cutoff, analyzer, ideal)
                    gaps = [
                        np.max(np.abs(exact - oracles.rk4_sequence_signal(
                            n, tau, amp, omega, phis, gamma, cutoff, analyzer, ideal, step_scale)))
                        for step_scale in (1.0, 2.0)
                    ]
                    assert max(gaps) <= 1e-8, case
                    assert gaps[1] <= gaps[0] / 8.0, case


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 4),
    cutoff=st.integers(4, 14),
    ideal=st.booleans(),
    tau=st.floats(1e-3, 0.1),
    amplitude_hz=st.sampled_from([0.0, 17.0, 53.9, 120.0]),
    nbar_dot=st.sampled_from([0.0, 0.5, 6.0, 40.0]),
    analyzer=st.floats(-math.pi, math.pi),
    n_phases=st.integers(1, 5),
)
def test_sector_runner_matches_full_rho_oracle(n, cutoff, ideal, tau, amplitude_hz, nbar_dot, analyzer,
                                               n_phases):
    """The sector runner against the full (d, d) density-matrix oracle, to 1e-12.

    Each example runs a broadcast (phases x rates) batch, with a heating-free
    column among the rates, and the heating_envelope form (unit-time
    sequence, one rate u = nbar_dot * tau per item, no modulation).
    """
    amp, omega = TWO_PI * amplitude_hz, TWO_PI * 60.0
    phis = np.linspace(0.0, TWO_PI, n_phases, endpoint=False)[:, None] + 0.3
    gamma = np.array([0.0, nbar_dot, 2.0 * nbar_dot])
    args = (n, tau, amp, omega, phis, gamma, cutoff, analyzer, ideal)
    sector = qs._sequence_signals(*args)
    assert sector.shape == (n_phases, 3)
    assert np.max(np.abs(sector - oracles.full_rho_sequence_signals(*args))) <= 1e-12

    u = nbar_dot * np.array([0.01, 0.05, 0.2, 1.0])
    args = (n, 1.0, 0.0, 1.0, 0.0, u, cutoff, 0.0, ideal)
    assert np.max(np.abs(qs._sequence_signals(*args) - oracles.full_rho_sequence_signals(*args))) <= 1e-12


@pytest.mark.parametrize("ideal", [False, True])
def test_sequence_state_stays_in_the_pulse_sector(ideal):
    """Every element the sector runner drops is zero in the full density matrix.

    The pulses conserve K = n - [spin up], heating and modulation preserve
    n - n' and the spins, and the start state |down, 0> has K = 0, so only
    elements with K = K' can become non-zero.  Checked on the full-space
    oracle after a heated, modulated three-pulse sequence at cutoff 10.
    """
    phis = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    rho = oracles.full_rho_sequence_state(
        3, 0.03, TWO_PI * 40.4, TWO_PI * 60.0, phis, 30.0, CUTOFF, 0.4, ideal
    )
    index = np.arange(D)
    k = index % M - index // M
    outside = k[:, None] != k[None, :]
    assert np.max(np.abs(rho[:, outside])) <= 1e-14
    # ... and the sector, 2m populations plus m-1 coherences and their
    # conjugates (42 of 484 elements), is all populated: no smaller one would do.
    assert np.count_nonzero(~outside) == 4 * M - 2
    assert np.all(np.max(np.abs(rho[:, ~outside]), axis=0) > 1e-14)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 3),
    tau=st.floats(1e-3, 0.1),
    amplitude_hz=st.floats(0.0, 100.0),
    nbar_dot=st.floats(0.0, 50.0),
    phi=st.floats(0.0, TWO_PI),
)
def test_heated_sequence_state_stays_physical(n, tau, amplitude_hz, nbar_dot, phi):
    """After a full heated sequence rho keeps unit trace, stays Hermitian and
    has no eigenvalue below -1e-10, for any pulse count, duration, modulation
    amplitude and heating rate >= 0.
    """
    seq = CPSequence(n, tau)
    mod = ModulationParams.from_hz(amplitude_hz, 60.0, phi)
    heating = HeatingModel(nbar_dot)
    edges = seq.segment_edges()
    rho = sideband_pulse(initial_state(), math.pi / 2.0)
    for i in range(len(edges) - 1):
        rho = free_evolution(rho, edges[i + 1] - edges[i], mod, heating, t_start=edges[i])
        if i < len(edges) - 2:
            rho = sideband_pulse(rho, math.pi)
    rho = sideband_pulse(rho, math.pi / 2.0)
    assert check_density_matrix(rho, tol=1e-10)


# -------------------------------------------------------- sequence contract


def test_sequence_spec_cutoff_follows_heating():
    assert SequenceSpec(CPSequence(1, 0.01)).fock_cutoff == qs.DEFAULT_FOCK_CUTOFF
    assert SequenceSpec(CPSequence(1, 0.01), heating=HeatingModel(1.0, fock_cutoff=8)).fock_cutoff == 8


def test_perfect_sequence_reads_plus_one():
    for n in range(0, 4):
        assert run_sequence(SequenceSpec(CPSequence(n, 0.01))) == pytest.approx(1.0, abs=1e-12)


def test_heating_free_signal_matches_accumulated_phase():
    """Dual route: density-matrix sequence (pulses and all) vs the phase integral."""
    mod = ModulationParams(TWO_PI * 53.9, TWO_PI * 60.0)
    seq = CPSequence(1, 0.0173)
    analyzer = 0.4
    phi = 0.7
    sim = run_sequence(SequenceSpec(seq, mod, analyzer_phase=analyzer), phi=phi)
    ref = math.cos(
        accumulated_phase(seq, ModulationParams(mod.amplitude, mod.omega_mod, phi)) - analyzer
    )
    assert abs(sim - ref) <= 1e-6


def test_heating_free_signal_all_pulse_counts():
    mod = ModulationParams(TWO_PI * 40.0, TWO_PI * 55.0)
    for n in range(0, 4):
        seq = CPSequence(n, 0.021)
        sim = run_sequence(SequenceSpec(seq, mod), phi=2.2)
        ref = math.cos(accumulated_phase(seq, ModulationParams(mod.amplitude, mod.omega_mod, 2.2)))
        assert abs(sim - ref) <= 1e-5, n


def test_run_sequence_phases_matches_scalar_runs():
    spec = SequenceSpec(CPSequence(2, 0.03), ModulationParams(TWO_PI * 30.0, TWO_PI * 60.0))
    phis = np.array([0.0, 1.3, 4.0])
    batch = run_sequence_phases(spec, phis)
    assert batch.shape == (3,)
    for phi, val in zip(phis, batch):
        assert val == pytest.approx(run_sequence(spec, phi=phi), abs=1e-12)


def test_phase_averaged_sequence_rejects_tiny_grid():
    with pytest.raises(ValueError):
        phase_averaged_sequence(SequenceSpec(CPSequence(1, 0.01)), n_phases=8)


# ---------------------------------------------------------------- envelopes


def test_envelope_without_heating_is_ones():
    tau = np.array([0.01, 0.05])
    assert np.array_equal(heating_envelope(CPSequence(1, 1.0), None, tau), np.ones(2))
    assert np.array_equal(heating_envelope(CPSequence(1, 1.0), HeatingModel(0.0), tau), np.ones(2))


def test_envelope_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        heating_envelope(CPSequence(1, 1.0), HeatingModel(1.0), np.array([0.0, 0.01]))


def test_envelope_batch_matches_per_tau_runs():
    # The u = nbar_dot * tau batch trick must equal simulating each tau.
    heating = HeatingModel(15.5)
    tau = np.array([0.02, 0.05])
    batch = heating_envelope(CPSequence(1, 1.0), heating, tau)
    for t, val in zip(tau, batch):
        direct = run_sequence(SequenceSpec(CPSequence(1, t), heating=heating))
        assert abs(val - direct) <= 1e-8


def test_envelope_cutoff_truncation_converged():
    tau = np.array([0.05])
    lo = heating_envelope(CPSequence(1, 1.0), HeatingModel(6.0, fock_cutoff=10), tau)
    hi = heating_envelope(CPSequence(1, 1.0), HeatingModel(6.0, fock_cutoff=20), tau)
    assert abs(lo[0] - hi[0]) <= 1e-4


def test_cached_envelope_matches_direct():
    heating = HeatingModel(15.5)
    for tau in (0.013, 0.035, 0.06):
        direct = heating_envelope(CPSequence(1, 1.0), heating, np.array([tau]))[0]
        assert abs(cached_heating_envelope(1, 15.5, tau) - direct) <= 1e-5


def test_cached_envelope_scalar_and_array_forms():
    arr = cached_heating_envelope(1, 15.5, np.array([0.01, 0.02]))
    assert arr.shape == (2,)
    assert cached_heating_envelope(1, 15.5, 0.01) == pytest.approx(arr[0])
    assert cached_heating_envelope(1, 15.5, 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_envelope_monotone_in_the_fitting_window():
    # Monotone decay holds up to u ~ 1.2; past ~1.3 the curve crosses into a
    # shallow negative lobe, so the claim is deliberately windowed.
    u = np.linspace(0.0, 1.2, 61)
    vals = cached_heating_envelope(1, 1.0, u)
    assert np.all(np.diff(vals) <= 1e-9)


def test_envelope_negative_lobe_exists():
    assert -0.11 <= cached_heating_envelope(1, 15.0, 0.2) <= -0.05  # u = 3


def test_envelope_one_over_e_crossing():
    # Echo at nbar_dot = 15/s: contrast crosses 1/e a bit under 30 ms.
    tau = np.linspace(0.005, 0.06, 221)
    vals = cached_heating_envelope(1, 15.0, tau)
    target = math.exp(-1.0)
    idx = int(np.argmax(vals < target))
    assert 0 < idx < len(tau)
    f = (vals[idx - 1] - target) / (vals[idx - 1] - vals[idx])
    crossing = tau[idx - 1] + f * (tau[idx] - tau[idx - 1])
    assert 0.028 <= crossing <= 0.042


# ------------------------------------------------- factorization and limits


def test_pulse_free_evolution_factorizes_exactly():
    """With no pulses, modulation acts as a known diagonal rotation on top of
    heating: rho_mod(T) = V rho_heat(T) V*, V = diag(exp(-i n Phi(T))).

    This is the exact statement behind the envelope-times-contrast fitting
    model, and the one quantum_sim's free-evolution propagator is built on;
    it is checked here on the RK4 oracle, which integrates the two generators
    together, so the check is independent of that construction.  The full
    sequence only breaks the factorization through the pulses.
    """
    amp, omega = TWO_PI * 53.9, TWO_PI * 60.0
    gamma, T = 6.0, 0.0173
    psi = np.zeros(D, dtype=complex)
    psi[[0, M + 1, 2]] = 1.0 / math.sqrt(3.0)
    rho0 = np.outer(psi, psi.conj())
    phis = np.array([0.3, 1.9, 4.4])

    rho_mod = oracles.rk4_free_evolution(
        np.broadcast_to(rho0, (3, D, D)), T, 0.0, amp, omega, phis, np.full(3, gamma), CUTOFF
    )
    rho_heat = oracles.rk4_free_evolution(rho0, T, 0.0, 0.0, 1.0, 0.0, gamma, CUTOFF)

    nvec = np.tile(np.arange(M, dtype=float), 2)
    for k, phi in enumerate(phis):
        big_phi = accumulated_phase(CPSequence(0, T), ModulationParams(amp, omega, phi))
        v = np.exp(-1j * nvec * big_phi)
        conjugated = v[:, None] * rho_heat * v.conj()[None, :]
        assert np.max(np.abs(rho_mod[k] - conjugated)) <= 1e-6


def test_product_check_degenerate_limits():
    seq = CPSequence(1, 1.0)
    tau = np.array([0.02, 0.05])
    # amplitude 0: both routes reduce to the heating envelope
    no_mod = product_model_check(seq, ModulationParams(0.0, TWO_PI * 60.0), HeatingModel(15.5), tau)
    assert no_mod <= 2e-9
    # heating 0: both routes reduce to the analytic contrast
    no_heat = product_model_check(seq, ModulationParams(TWO_PI * 50.0, TWO_PI * 60.0), None, tau)
    assert no_heat <= 1e-6


def test_product_form_breaks_at_the_pulses():
    """The factorization fails by tenths once heating and pulses coexist, and
    the failure is mostly, not entirely, the sqrt(n+1) over-rotation: ideal
    pulses shrink it but the sideband-dark |up, 0> pathway keeps it far above
    any fitting tolerance.
    """
    seq = CPSequence(1, 1.0)
    mod = ModulationParams(TWO_PI * 53.9, TWO_PI * 60.0)
    heating = HeatingModel(15.5)
    tau = np.array([0.035, 0.05])
    dev_physical = product_model_check(seq, mod, heating, tau, n_phases=32)
    dev_ideal = product_model_check(seq, mod, heating, tau, n_phases=32, ideal_pulses=True)
    assert dev_physical > 0.1
    assert dev_ideal < dev_physical
    assert dev_ideal > 0.02


# ---------------------------------------------------------------- utilities


def test_mean_phonon_counts_both_spins():
    assert mean_phonon(up_state(3)) == 3.0


def test_check_density_matrix_error_paths():
    rho = initial_state()
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(2.0 * rho)
    bad_herm = rho.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermiticity"):
        check_density_matrix(bad_herm)
    bad_eig = rho.copy()
    bad_eig[0, 0] = 1.2
    bad_eig[1, 1] = -0.2
    with pytest.raises(ValueError, match="negative"):
        check_density_matrix(bad_eig)
    assert check_density_matrix(rho) is True
