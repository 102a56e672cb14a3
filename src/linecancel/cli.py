"""Command-line surface: simulate traces, fit them, cancel, replot.

Subcommands
-----------
simulate   synthetic trace from a scenario truth -> CSV (tau_s,signal,shots,sigma)
fit        amplitude | phase | slope | envelope fit on a CSV -> JSON
cancel     closed-loop phasor cancellation against a simulated lab -> JSON + traces
figures    regenerate the datasets behind the standard figures -> CSV bundle

Exit codes: 0 success (a fit that reports converged=false is still data),
2 input error, 3 numeric failure, 4 ill-posed trial geometry.

All trace CSVs print floats with repr() so parse -> emit -> parse is the
identity, and every output file is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .estimator import (
    contrast_model,
    echo_model,
    fit_amplitude,
    fit_gaussian_envelope,
    fit_phase,
    fit_phase_slope,
)
from .model_core import (
    TWO_PI,
    CPSequence,
    HeatingModel,
    ModulationParams,
    RamseyTrace,
    bessel_j0,  # noqa: F401  not called here; perfbench/tracing.py wraps this import site
)
from .phasor_cancel import (
    DegenerateDataError,
    IllPosedGeometryError,
    Phasor,
    TrialRecord,
    solve_phasor,
)
from .quantum_sim import (
    IntegrationError,
    cached_heating_envelope,  # noqa: F401  not called here; perfbench/tracing.py wraps this import site
    product_model_scan,
)
from .simlab import (
    SchemaError,
    SimLab,
    bin_monitor,
    coherence_time,
    monitor_trace,
    reference_truth,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_GEOMETRY = 4

TRACE_HEADER = ["tau_s", "signal", "shots", "sigma"]
SLOPE_HEADER = ["t_d_s", "phi_d_rad", "sigma_rad"]

FIGURE_IDS = ("fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig4b", "figS2", "figS3a")


class InputError(Exception):
    """Bad flags, files, or file contents; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# file plumbing

def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_csv(path, header, rows):
    _atomic_write(path, _csv_text(header, rows))
    print(path)


def _write_json(path, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(path)


def _write_trace(path, trace):
    rows = [
        (tau, sig, int(sh), sg)
        for tau, sig, sh, sg in zip(trace.tau, trace.signal, trace.shots, trace.sigma)
    ]
    _write_csv(path, TRACE_HEADER, rows)


def _read_rows(path, header):
    try:
        with open(path, newline="") as fh:
            raw = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not raw or [c.strip() for c in raw[0]] != header:
        raise InputError(f"{path}: first line must be {','.join(header)}")
    rows = []
    for lineno, row in enumerate(raw[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            rows.append([float(c) for c in row])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric field")
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _read_trace(path):
    data = _read_rows(path, TRACE_HEADER)
    try:
        return RamseyTrace(data[:, 0], data[:, 1], data[:, 2].astype(int), data[:, 3])
    except ValueError as exc:
        raise InputError(f"{path}: invalid trace: {exc}")


# ---------------------------------------------------------------------------
# scenario and flag checks

def _load_truth(args):
    path = getattr(args, "scenario", None)
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read scenario {path}: {exc}")
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}")
        truth = scenario_from_dict(obj)
    else:
        truth = reference_truth()
    seed = getattr(args, "seed", None)
    if seed is not None:
        truth = replace(truth, rng_seed=seed)
    return truth


def _check_mode(truth, mode):
    if mode not in truth.mode_freqs:
        raise InputError(f"unknown mode {mode!r}; scenario has {sorted(truth.mode_freqs)}")


def _check_positive(flag, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise InputError(f"{flag} must be finite and > 0, got {value}")


def _check_pulses(n):
    if n < 0:
        raise InputError(f"--n must be >= 0, got {n}")


def _check_scan(prefix, points, shots, tau_max):
    """Reject a wait-time scan the lab cannot sample; prefix is "--" or "--verify-"."""
    if points < 1:
        raise InputError(f"{prefix}points must be >= 1, got {points}")
    if shots < 1:
        raise InputError(f"{prefix}shots must be >= 1, got {shots}")
    _check_positive(f"{prefix}tau-max", tau_max)


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args):
    truth = _load_truth(args)
    _check_mode(truth, args.mode)
    _check_scan("--", args.points, args.shots, args.tau_max)
    tau_min = args.tau_min if args.tau_min is not None else args.tau_max / args.points
    if not (0.0 < tau_min <= args.tau_max):
        raise InputError(f"--tau-min must be in (0, tau-max], got {tau_min}")
    _check_pulses(args.n)
    if args.t_d is not None and not (args.t_d >= 0.0 and math.isfinite(args.t_d)):
        raise InputError(f"--t-d must be finite and >= 0, got {args.t_d}")
    if not math.isfinite(args.analyzer):
        raise InputError(f"--analyzer must be finite, got {args.analyzer}")
    comp = _parse_comp(args)

    grid = np.linspace(tau_min, args.tau_max, args.points)
    lab = SimLab(truth)
    trace = lab.trace(args.mode, args.n, grid, args.shots, t_d=args.t_d,
                      analyzer_phase=args.analyzer, compensation=comp)
    _write_trace(os.path.join(args.out, args.name), trace)
    return EXIT_OK


def _parse_comp(args):
    mv = getattr(args, "comp_mv", None)
    deg = getattr(args, "comp_angle_deg", None)
    if (mv is None) != (deg is None):
        raise InputError("--comp-mv and --comp-angle-deg must be given together")
    if mv is None:
        return None
    if not (mv >= 0.0 and math.isfinite(mv)):
        raise InputError(f"--comp-mv must be finite and >= 0, got {mv}")
    if not math.isfinite(deg):
        raise InputError(f"--comp-angle-deg must be finite, got {deg}")
    return Phasor(mv, math.radians(deg))


# ---------------------------------------------------------------------------
# fit

def _fit_payload(kind, result):
    return {
        "kind": kind,
        "params": dict(result.params),
        "sigmas": dict(result.sigmas),
        "chi2_reduced": result.chi2_reduced,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
    }


def cmd_fit(args):
    if args.kind == "slope":
        data = _read_rows(args.trace, SLOPE_HEADER)
        try:
            slope = fit_phase_slope([tuple(r) for r in data], period=args.period_rad)
        except ValueError as exc:
            raise InputError(str(exc))
        payload = {
            "kind": "slope",
            "params": {
                "slope_rad_per_s": slope.slope,
                "slope_over_2pi_hz": slope.slope / TWO_PI,
                "intercept_rad": slope.intercept,
            },
            "sigmas": {
                "slope_rad_per_s": slope.sigma,
                "slope_over_2pi_hz": slope.sigma / TWO_PI,
                "intercept_rad": slope.intercept_sigma,
            },
            "ambiguous": slope.ambiguous,
        }
    elif args.kind == "envelope":
        trace = _read_trace(args.trace)
        try:
            t_gauss, sigma = fit_gaussian_envelope(trace)
        except ValueError as exc:
            raise InputError(str(exc))
        payload = {
            "kind": "envelope",
            "params": {"t_gauss_s": t_gauss},
            "sigmas": {"t_gauss_s": sigma},
        }
    else:  # amplitude or phase
        if args.kind == "amplitude":
            if args.n is None:
                raise InputError("--kind amplitude requires --n")
            _check_pulses(args.n)
        _check_positive("--f-m", args.f_m)
        try:
            HeatingModel(0.0, args.fock_cutoff)
        except ValueError as exc:
            raise InputError(f"--fock-cutoff: {exc}")
        trace = _read_trace(args.trace)
        try:
            if args.kind == "amplitude":
                result = fit_amplitude(trace, args.n, args.f_m, fock_cutoff=args.fock_cutoff)
            else:
                result = fit_phase(trace, args.f_m, fock_cutoff=args.fock_cutoff)
        except ValueError as exc:
            raise InputError(str(exc))
        payload = _fit_payload(args.kind, result)

    if args.out is not None:
        _write_json(os.path.join(args.out, "fit.json"), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cancel

def _fit_trial_amplitude(trace, n, f_m, fock_cutoff):
    result = fit_amplitude(trace, n, f_m, fock_cutoff=fock_cutoff)
    sigma = result.sigmas["A_over_2pi"]
    # An amplitude consistent with zero has a singular Jacobian column (the
    # model is flat in A at A=0), so the reported sigma can collapse to 0;
    # pass it as unknown rather than as infinite weight.
    if not (math.isfinite(sigma) and sigma > 0.0):
        sigma = None
    return result.params["A_over_2pi"], sigma


def _trial_angles(n_trials, override):
    if override is not None:
        if len(override) != n_trials - 1 or not all(map(math.isfinite, override)):
            raise InputError(
                f"--trial-angles-deg needs {n_trials - 1} finite values for {n_trials} trials, got {override}")
        return [math.radians(a) for a in override]
    # Spread so zero + injections never sit on one line (k=3 would otherwise
    # land at 0 and 180 degrees).
    divisor = max(n_trials - 1, 3)
    return [TWO_PI * j / divisor for j in range(n_trials - 1)]


def _run_cancel(truth, mode, n, f_m, n_trials, trial_mv, shots, points, tau_max,
                verify_shots, verify_points, verify_tau_max, min_apply_mv, threshold,
                trial_angles=None):
    """Trial injections -> phasor solve -> verification scans on one lab."""
    lab = SimLab(truth)
    fock_cutoff = truth.heating_for_mode(mode).fock_cutoff
    trial_grid = np.linspace(tau_max / points, tau_max, points)

    injections = [Phasor(0.0, 0.0)]
    for angle in _trial_angles(n_trials, trial_angles):
        injections.append(Phasor(trial_mv, angle))

    records = []
    trial_rows = []
    for idx, inj in enumerate(injections):
        comp = inj if inj.magnitude > 0.0 else None
        trace = lab.trace(mode, n, trial_grid, shots, compensation=comp)
        amp, amp_sigma = _fit_trial_amplitude(trace, n, f_m, fock_cutoff)
        records.append(TrialRecord(inj, amp, amp_sigma))
        trial_rows.append((idx, inj.magnitude, inj.angle, amp,
                           float("nan") if amp_sigma is None else amp_sigma))

    solution = solve_phasor(records)
    apply_comp = solution.noise_phasor.magnitude >= min_apply_mv
    comp = solution.compensation if apply_comp else None

    verify_grid = np.linspace(verify_tau_max / verify_points, verify_tau_max, verify_points)
    before = lab.trace(mode, n, verify_grid, verify_shots)
    after = lab.trace(mode, n, verify_grid, verify_shots, compensation=comp)

    def _coherence(trace):
        try:
            return coherence_time(trace, threshold=threshold)
        except ValueError:
            return None

    summary = {
        "noise_mv": solution.noise_phasor.magnitude,
        "noise_angle_deg": math.degrees(solution.noise_phasor.angle),
        "scale_r_mv_per_hz": solution.scale_r,
        "residual_cost": solution.residual_cost,
        "applied": apply_comp,
        "compensation_mv": comp.magnitude if comp is not None else None,
        "compensation_angle_deg": math.degrees(comp.angle) if comp is not None else None,
        "coherence_before_s": _coherence(before),
        "coherence_after_s": _coherence(after),
        "threshold": threshold,
        "mode": mode,
        "n_pulses": n,
    }
    return summary, trial_rows, before, after


def cmd_cancel(args):
    truth = _load_truth(args)
    _check_mode(truth, args.mode)
    _check_pulses(args.n)
    if args.trials < 3:
        raise InputError(f"--trials must be >= 3, got {args.trials}")
    _check_positive("--trial-mv", args.trial_mv)
    _check_scan("--", args.points, args.shots, args.tau_max)
    _check_scan("--verify-", args.verify_points, args.verify_shots, args.verify_tau_max)
    if args.f_m is not None:
        _check_positive("--f-m", args.f_m)
    if not 0.0 < args.threshold < 1.0:
        raise InputError(f"--threshold must be in (0, 1), got {args.threshold}")
    if not (args.min_apply_mv >= 0.0 and math.isfinite(args.min_apply_mv)):
        raise InputError(f"--min-apply-mv must be finite and >= 0, got {args.min_apply_mv}")
    f_m = args.f_m if args.f_m is not None else truth.f_line
    angles = None
    if args.trial_angles_deg is not None:
        try:
            angles = [float(a) for a in args.trial_angles_deg.split(",")]
        except ValueError:
            raise InputError(f"--trial-angles-deg must be comma-separated numbers, got {args.trial_angles_deg!r}")
    summary, trial_rows, before, after = _run_cancel(
        truth, args.mode, args.n, f_m, args.trials, args.trial_mv,
        args.shots, args.points, args.tau_max,
        args.verify_shots, args.verify_points, args.verify_tau_max,
        args.min_apply_mv, args.threshold, trial_angles=angles,
    )
    _write_csv(os.path.join(args.out, "trials.csv"),
               ["trial", "injected_mv", "injected_angle_rad", "fitted_amplitude_hz", "fitted_sigma_hz"],
               trial_rows)
    _write_trace(os.path.join(args.out, "before.csv"), before)
    _write_trace(os.path.join(args.out, "after.csv"), after)
    _write_json(os.path.join(args.out, "solution.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures

# Free-running contrast scans: (n, modulation amplitude Hz, heating rate /s, seed).
_FIG2 = {
    "fig2a": (1, 53.9, 6.4, 11),
    "fig2b": (2, 40.4, 7.1, 21),
    "fig2c": (3, 45.5, 13.6, 31),
}

_F_LINE = 60.0


def _fig2_truth(amp_hz, nbar_dot, seed):
    return reference_truth(seed=seed, noise_mv=amp_hz * 0.38, nbar_dot=nbar_dot)


def _figure_fig2(fig_id, out, seed_override):
    n, amp_hz, nbar_dot, seed = _FIG2[fig_id]
    if seed_override is not None:
        seed = seed_override
    truth = _fig2_truth(amp_hz, nbar_dot, seed)
    lab = SimLab(truth)
    grid = np.linspace(0.1 / 80, 0.1, 80)
    trace = lab.trace("X", n, grid, 500)
    _write_trace(os.path.join(out, f"{fig_id}_data.csv"), trace)

    result = fit_amplitude(trace, n, _F_LINE)
    _write_json(os.path.join(out, f"{fig_id}_fit.json"), _fit_payload("amplitude", result))

    fine = np.linspace(1e-4, 0.1, 400)
    curve = contrast_model(n, _F_LINE, fine)(result.params["A_over_2pi"], result.params["nbar_dot"])
    _write_csv(os.path.join(out, f"{fig_id}_model.csv"), ["tau_s", "signal"],
               list(zip(fine, curve)))


def _figure_fig3a(out, seed_override):
    seed = 12 if seed_override is None else seed_override
    t_d = 0.002
    phi_d = 0.913 * math.pi
    # Truth angle chosen so the phase at the sequence start equals phi_d.
    angle = phi_d - TWO_PI * _F_LINE * t_d
    truth = reference_truth(seed=seed, noise_mv=56.8 * 0.38, noise_angle=angle, nbar_dot=15.5)
    lab = SimLab(truth)
    grid = np.linspace(0.1 / 80, 0.1, 80)
    trace = lab.trace("X", 1, grid, 500, t_d=t_d)
    _write_trace(os.path.join(out, "fig3a_data.csv"), trace)

    result = fit_phase(trace, _F_LINE)
    _write_json(os.path.join(out, "fig3a_fit.json"), _fit_payload("phase", result))

    fine = np.linspace(1e-4, 0.1, 400)
    params = result.params
    curve = echo_model(_F_LINE, fine)(params["A_over_2pi"], params["phi_d"], params["nbar_dot"])
    _write_csv(os.path.join(out, "fig3a_model.csv"), ["tau_s", "signal"],
               list(zip(fine, curve)))


def _figure_fig3b(out, seed_override):
    seed = 13 if seed_override is None else seed_override
    truth = reference_truth(seed=seed, noise_mv=56.8 * 0.38, nbar_dot=15.5)
    delays = np.arange(9) * 1e-3
    grid = np.linspace(0.08 / 60, 0.08, 60)
    slopes = {}
    for mode in ("X", "Y"):
        lab = SimLab(replace(truth, rng_seed=truth.rng_seed + (0 if mode == "X" else 1)))
        rows = []
        for t_d in delays:
            trace = lab.trace(mode, 1, grid, 400, t_d=float(t_d))
            result = fit_phase(trace, _F_LINE)
            rows.append((t_d, result.params["phi_d"], result.sigmas["phi_d"]))
        _write_csv(os.path.join(out, f"fig3b_{mode}.csv"), SLOPE_HEADER, rows)
        fit = fit_phase_slope(rows, period=math.pi)
        slopes[mode] = {
            "slope_rad_per_s": fit.slope,
            "slope_over_2pi_hz": fit.slope / TWO_PI,
            "sigma_rad_per_s": fit.sigma,
            "intercept_rad": fit.intercept,
            "ambiguous": fit.ambiguous,
        }
    _write_json(os.path.join(out, "fig3b_slopes.json"), slopes)


def _figure_fig4b(out, seed_override):
    seed = 14 if seed_override is None else seed_override
    truth = reference_truth(seed=seed)
    summary, trial_rows, before, after = _run_cancel(
        truth, "X", 1, truth.f_line, n_trials=4, trial_mv=15.0,
        shots=400, points=40, tau_max=0.05,
        verify_shots=600, verify_points=80, verify_tau_max=0.08,
        min_apply_mv=1.0, threshold=math.exp(-1.0),
    )
    _write_csv(os.path.join(out, "fig4b_trials.csv"),
               ["trial", "injected_mv", "injected_angle_rad", "fitted_amplitude_hz", "fitted_sigma_hz"],
               trial_rows)
    _write_trace(os.path.join(out, "fig4b_before.csv"), before)
    _write_trace(os.path.join(out, "fig4b_after.csv"), after)
    _write_json(os.path.join(out, "fig4b_solution.json"), summary)


# Product-model scans share the heating rate; the n=0 panel reuses the echo
# scan's modulation amplitude (no dedicated amplitude exists for it).
_FIGS2_SETS = ((0, 53.9), (1, 53.9), (2, 40.4))
_FIGS2_NBAR = 6.0


def _figure_figS2(out, seed_override):
    del seed_override  # fully deterministic, no sampling
    tau_grid = np.linspace(0.006, 0.096, 16)
    summary = {}
    for n, a_hz in _FIGS2_SETS:
        mod = ModulationParams.from_hz(a_hz, _F_LINE)
        c_tot, c_heat, c_mod = product_model_scan(CPSequence(n, 1.0), mod, HeatingModel(_FIGS2_NBAR), tau_grid)
        product = c_heat * c_mod
        abs_diff = np.abs(c_tot - product)
        _write_csv(os.path.join(out, f"figS2_n{n}.csv"),
                   ["tau_s", "c_total", "c_heat", "c_mod", "product", "abs_diff"],
                   np.column_stack((tau_grid, c_tot, c_heat, c_mod, product, abs_diff)).tolist())
        summary[f"n{n}"] = {"max_abs_diff": float(abs_diff.max())}
    _write_json(os.path.join(out, "figS2_summary.json"), summary)


def _figure_figS3a(out, seed_override):
    seed = 15 if seed_override is None else seed_override
    truth = reference_truth(seed=seed, sigma_f=40.0, tau_c=5.0)
    binned = {}
    for mode in ("X", "Y"):
        times, outcomes = monitor_trace(truth, mode, 2e-3, 250.0, 4e-3)
        if mode == "X":
            _write_csv(os.path.join(out, "figS3a_shots.csv"), ["t_s", "outcome"],
                       [(t, int(o)) for t, o in zip(times, outcomes)])
        centers, means, counts = bin_monitor(times, outcomes, 1.0)
        sigmas = np.maximum(np.sqrt(means * (1.0 - means) / counts), 0.5 / counts)
        binned[mode] = means
        _write_csv(os.path.join(out, f"figS3a_binned_{mode}.csv"),
                   ["t_s", "p1_mean", "p1_sigma"],
                   list(zip(centers, means, sigmas)))
    corr = float(np.corrcoef(binned["X"], binned["Y"])[0, 1])
    _write_json(os.path.join(out, "figS3a_summary.json"),
                {"mode_correlation": corr, "common_drift": truth.drift.common})


def cmd_figures(args):
    if args.id not in FIGURE_IDS:
        raise InputError(f"unknown figure id {args.id!r}; choose from {', '.join(FIGURE_IDS)}")
    out = args.out
    if args.id in _FIG2:
        _figure_fig2(args.id, out, args.seed)
    elif args.id == "fig3a":
        _figure_fig3a(out, args.seed)
    elif args.id == "fig3b":
        _figure_fig3b(out, args.seed)
    elif args.id == "fig4b":
        _figure_fig4b(out, args.seed)
    elif args.id == "figS2":
        _figure_figS2(out, args.seed)
    else:
        _figure_figS3a(out, args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="linecancel",
        description="Simulate, fit, and cancel power-line modulation of trapped-ion motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic trace CSV")
    sim.add_argument("--scenario", help="scenario JSON (default: built-in truth)")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--mode", default="X")
    sim.add_argument("--n", type=int, default=1, help="number of refocusing pulses")
    sim.add_argument("--tau-min", type=float, default=None)
    sim.add_argument("--tau-max", type=float, default=0.1)
    sim.add_argument("--points", type=int, default=80)
    sim.add_argument("--shots", type=int, default=500)
    sim.add_argument("--t-d", type=float, default=None, help="trigger delay (s); omit for free-running")
    sim.add_argument("--analyzer", type=float, default=0.0, help="analyzer phase (rad)")
    sim.add_argument("--comp-mv", type=float, default=None, help="compensation magnitude (mV)")
    sim.add_argument("--comp-angle-deg", type=float, default=None, help="compensation angle (deg)")
    sim.add_argument("--out", default=".")
    sim.add_argument("--name", default="trace.csv")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a trace CSV")
    fit.add_argument("--trace", required=True, help="input CSV")
    fit.add_argument("--kind", required=True, choices=["amplitude", "phase", "slope", "envelope"])
    fit.add_argument("--n", type=int, default=None, help="refocusing pulses (amplitude fits)")
    fit.add_argument("--f-m", type=float, default=60.0, help="modulation frequency (Hz)")
    fit.add_argument("--fock-cutoff", type=int, default=10)
    fit.add_argument("--period-rad", type=float, default=TWO_PI,
                     help="unwrap period for slope fits; use pi for fit_phase outputs")
    fit.add_argument("--out", default=None, help="write fit.json here instead of stdout")
    fit.set_defaults(func=cmd_fit)

    can = sub.add_parser("cancel", help="closed-loop cancellation on a simulated lab")
    can.add_argument("--scenario")
    can.add_argument("--seed", type=int)
    can.add_argument("--mode", default="X")
    can.add_argument("--n", type=int, default=1)
    can.add_argument("--f-m", type=float, default=None, help="fit model frequency (default: scenario line frequency)")
    can.add_argument("--trials", type=int, default=4)
    can.add_argument("--trial-mv", type=float, default=15.0)
    can.add_argument("--trial-angles-deg", default=None,
                     help="comma-separated injection angles, one per non-zero trial")
    can.add_argument("--shots", type=int, default=400)
    can.add_argument("--points", type=int, default=40)
    can.add_argument("--tau-max", type=float, default=0.05)
    can.add_argument("--verify-shots", type=int, default=600)
    can.add_argument("--verify-points", type=int, default=80)
    can.add_argument("--verify-tau-max", type=float, default=0.08)
    can.add_argument("--min-apply-mv", type=float, default=1.0,
                     help="skip compensation below this fitted magnitude")
    can.add_argument("--threshold", type=float, default=math.exp(-1.0))
    can.add_argument("--out", default=".")
    can.set_defaults(func=cmd_cancel)

    fig = sub.add_parser("figures", help="regenerate a figure's dataset")
    fig.add_argument("--id", required=True)
    fig.add_argument("--seed", type=int, default=None)
    fig.add_argument("--out", default=".")
    fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SchemaError as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IllPosedGeometryError, DegenerateDataError) as exc:
        print(f"error: geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except IntegrationError as exc:
        print(f"error: integration: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
