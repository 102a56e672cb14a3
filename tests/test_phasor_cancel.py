"""Phasor geometry and the three-parameter injection fit."""
import cmath
import math

import numpy as np
import pytest

import linecancel.phasor_cancel as pc
from linecancel.phasor_cancel import (
    CancelSolution,
    DegenerateDataError,
    IllPosedGeometryError,
    Phasor,
    TrialRecord,
    predict_residual,
    setpoint_scale,
    solve_phasor,
)

TRUTH_V = 14.0
TRUTH_ANGLE = math.radians(102.0)
TRUTH_R = 0.38


def truth_phasors():
    noise = Phasor(TRUTH_V, TRUTH_ANGLE)
    return noise, noise.rotated(math.pi)


def synth_trials(injections, sigma=None, rng=None, rel_noise=0.0):
    """Forward model: residual amplitude |z - V u| / r, optional 5%-style noise."""
    _, comp = truth_phasors()
    trials = []
    for inj in injections:
        amp = abs(inj.z - comp.z) / TRUTH_R
        if rel_noise:
            amp *= 1.0 + rel_noise * rng.standard_normal()
        trials.append(TrialRecord(inj, max(amp, 0.0), sigma))
    return trials


def spread_injections(mag=15.0):
    return [Phasor(0.0, 0.0)] + [Phasor(mag, math.radians(a)) for a in (0.0, 120.0, 240.0)]


# ------------------------------------------------------------------ phasors


def test_phasor_normalization():
    p = Phasor(2.0, -0.5)
    assert p.angle == pytest.approx(2.0 * math.pi - 0.5)
    flipped = Phasor(-2.0, 0.5)
    assert flipped.magnitude == 2.0
    assert flipped.angle == pytest.approx(math.pi + 0.5)
    with pytest.raises(ValueError):
        Phasor(math.nan, 0.0)


def test_phasor_complex_round_trip():
    z = 3.0 - 4.0j
    p = Phasor.from_complex(z)
    assert cmath.isclose(p.z, z, rel_tol=1e-12)
    assert p.magnitude == pytest.approx(5.0)


def test_phasor_rotation():
    p = Phasor(1.0, 0.3).rotated(math.pi)
    assert p.angle == pytest.approx(math.pi + 0.3)
    assert p.rotated(math.pi).angle == pytest.approx(0.3, abs=1e-12)


def test_trial_record_validation():
    with pytest.raises(ValueError):
        TrialRecord(Phasor(1.0, 0.0), -0.1)
    with pytest.raises(ValueError):
        TrialRecord(Phasor(1.0, 0.0), 1.0, residual_sigma=0.0)
    assert TrialRecord(Phasor(1.0, 0.0), 1.0).residual_sigma is None


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_trial_record_rejects_non_finite_sigma(sigma):
    # NaN used to surface later as a DegenerateDataError, +inf to drop the
    # trial from the IRLS weights without a word.
    with pytest.raises(ValueError, match="finite"):
        TrialRecord(Phasor(1.0, 0.0), 1.0, residual_sigma=sigma)


def test_compensation_is_noise_rotated_half_turn():
    sol = CancelSolution(Phasor(14.0, 1.0), 0.38, 0.0)
    assert sol.compensation.magnitude == 14.0
    assert sol.compensation.angle == pytest.approx(1.0 + math.pi)


# ------------------------------------------------------------------- solver


def test_noiseless_recovery_is_exact():
    sol = solve_phasor(synth_trials(spread_injections()))
    assert sol.residual_cost <= 1e-12
    assert sol.noise_phasor.magnitude == pytest.approx(TRUTH_V, abs=1e-5)
    assert sol.noise_phasor.angle == pytest.approx(TRUTH_ANGLE, abs=1e-6)
    assert sol.scale_r == pytest.approx(TRUTH_R, abs=1e-6)


def test_injection_at_compensation_point():
    # One trial lands exactly on V*u: its residual is 0 going in, and the
    # recovered solution predicts 0 for it coming out.
    _, comp = truth_phasors()
    trials = synth_trials(spread_injections() + [comp])
    assert trials[-1].residual_amplitude == 0.0
    sol = solve_phasor(trials)
    assert predict_residual(sol, comp) <= 1e-5


def test_rotation_equivariance():
    delta = 0.97
    base = solve_phasor(synth_trials(spread_injections()))
    rotated_inj = [Phasor(p.magnitude, p.angle + delta) for p in spread_injections()]
    _, comp = truth_phasors()
    comp_rot = comp.rotated(delta)
    trials = [
        TrialRecord(inj, abs(inj.z - comp_rot.z) / TRUTH_R) for inj in rotated_inj
    ]
    rot = solve_phasor(trials)
    assert rot.noise_phasor.magnitude == pytest.approx(base.noise_phasor.magnitude, abs=1e-5)
    assert (rot.noise_phasor.angle - base.noise_phasor.angle) % (2 * math.pi) == pytest.approx(
        delta, abs=1e-5
    )
    assert rot.scale_r == pytest.approx(base.scale_r, abs=1e-6)


def test_scale_equivariance():
    c = 2.5
    _, comp = truth_phasors()
    comp_big = Phasor(c * comp.magnitude, comp.angle)
    trials = [
        TrialRecord(Phasor(c * p.magnitude, p.angle), abs(Phasor(c * p.magnitude, p.angle).z - comp_big.z) / (c * TRUTH_R))
        for p in spread_injections()
    ]
    sol = solve_phasor(trials)
    assert sol.noise_phasor.magnitude == pytest.approx(c * TRUTH_V, rel=1e-5)
    assert sol.noise_phasor.angle == pytest.approx(TRUTH_ANGLE, abs=1e-5)
    assert sol.scale_r == pytest.approx(c * TRUTH_R, rel=1e-5)


def test_noisy_recovery_with_sigmas():
    rng = np.random.default_rng(42)
    trials = synth_trials(spread_injections(), sigma=2.0, rng=rng, rel_noise=0.05)
    sol = solve_phasor(trials)
    assert sol.noise_phasor.magnitude == pytest.approx(TRUTH_V, abs=3.0)
    assert sol.scale_r == pytest.approx(TRUTH_R, abs=0.04)


# (injected mV, residual amplitude Hz, sigma Hz) for the zero trial and the
# 15 mV trials at 0, 120 and 240 degrees of three `cancel` runs (seed 5 n=2 X,
# seed 8 n=2 Y, seed 11 n=2 Y).  With a cost tolerance of a few ulp (fatol
# 1e-14 on costs near 8), two polish passes of each ran to maxiter.
CAPPED_TRIAL_SETS = (
    ((0.0, 36.89850140882058, 0.6286214487122527), (15.0, 47.45467616867483, 1.0457406868443897),
     (15.0, 75.70605778417483, 0.9882662038005022), (15.0, 26.731804006177786, 0.5323858025898962)),
    ((0.0, 53.14858411478961, 0.9677583038404435), (15.0, 67.9549623046952, 0.7800823864184842),
     (15.0, 101.8787942138041, 1.129213707355815), (15.0, 38.2040846169372, 0.6515508675576287)),
    ((0.0, 53.16930941570213, 1.0068328592369875), (15.0, 69.32860996787969, 0.8538712529757386),
     (15.0, 105.30421870371974, 1.001436544681189), (15.0, 39.31043976467732, 0.6974456777035588)),
)


def test_polish_converges_before_iteration_cap(monkeypatch):
    original = pc.minimize
    passes = []

    def recording_minimize(*args, **kwargs):
        res = original(*args, **kwargs)
        passes.append((res.nit, kwargs["options"]["maxiter"]))
        return res

    monkeypatch.setattr(pc, "minimize", recording_minimize)
    angles = (0.0, 0.0, 2.0 * math.pi / 3, 2.0 * math.pi * 2 / 3)
    for rows in CAPPED_TRIAL_SETS:
        solve_phasor([TrialRecord(Phasor(mv, angle), amp, sig)
                      for angle, (mv, amp, sig) in zip(angles, rows)])
    assert len(passes) == 3 * len(CAPPED_TRIAL_SETS)
    assert all(nit < maxiter for nit, maxiter in passes), passes


def test_zero_ambient_truth():
    # V = 0: residuals are just |z|/r and the solver should find a tiny V.
    injections = spread_injections()
    trials = [TrialRecord(p, abs(p.z) / TRUTH_R) for p in injections]
    sol = solve_phasor(trials)
    assert sol.noise_phasor.magnitude <= 1e-5
    assert sol.scale_r == pytest.approx(TRUTH_R, rel=1e-5)


def test_too_few_trials_rejected():
    with pytest.raises(IllPosedGeometryError):
        solve_phasor(synth_trials(spread_injections()[:2]))


def test_collinear_injections_rejected():
    line = [Phasor(0.0, 0.0), Phasor(10.0, 0.0), Phasor(20.0, 0.0), Phasor(5.0, math.pi)]
    with pytest.raises(IllPosedGeometryError):
        solve_phasor(synth_trials(line))


def test_all_zero_amplitudes_rejected():
    trials = [TrialRecord(p, 0.0) for p in spread_injections()]
    with pytest.raises(DegenerateDataError):
        solve_phasor(trials)


# ------------------------------------------------------------- predictions


def test_predict_residual_reference_points():
    sol = solve_phasor(synth_trials(spread_injections()))
    v_over_r = TRUTH_V / TRUTH_R
    assert predict_residual(sol, sol.compensation) <= 1e-5
    assert predict_residual(sol, Phasor(0.0, 0.0)) == pytest.approx(v_over_r, rel=1e-5)
    assert predict_residual(sol, sol.noise_phasor) == pytest.approx(2.0 * v_over_r, rel=1e-5)


def test_setpoint_scale_reference_values():
    # 1.43 V set-point at 1 MHz: 1.43e-3 mV per Hz, so a 50 Hz shift costs
    # about 71.5 uV of set-point.
    scale = setpoint_scale(1e6, 1.43)
    assert scale == pytest.approx(1.43e-3, rel=1e-12)
    assert 50.0 * scale == pytest.approx(0.0715, rel=1e-12)
    assert setpoint_scale(1.27e6, 1.43) == pytest.approx(1.126e-3, rel=1e-3)
    with pytest.raises(ValueError):
        setpoint_scale(0.0, 1.43)
    with pytest.raises(ValueError):
        setpoint_scale(1e6, -1.0)
