"""The benchmark's workloads.

Each workload hands the package only inputs generated from the run's seed,
runs one operation at a time (a closed loop with one client), and checks
every operation's output.  Operations come in cycles: a cycle holds every
operation kind of the workload in a fixed mix (the seed shuffles order and
picks parameters that do not change the cost of an operation), and a run
executes whole cycles, so the mix timed is the same on every seed.

Package functions are always looked up through their module at call time,
so the traced run sees the calls the benchmark itself makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "density_reference.json")


@dataclass
class OpResult:
    ok: bool
    error: str | None = None
    accuracy: float | None = None  # workload-specific error, see Workload.accuracy_metric


@dataclass
class Workload:
    name: str
    processes: int = 2                 # fresh processes a run's timed phase is split over
    master_curves: tuple = ()          # pulse counts whose master curve set-up builds
    expected_layers: tuple = ()        # layers the traced run must see called
    accuracy_metric: tuple | None = None  # (name, unit) of the per-op accuracy figure, reported ungated
    state: dict = field(default_factory=dict)

    def setup(self, root):
        from linecancel import quantum_sim

        for n in self.master_curves:
            quantum_sim.cached_heating_envelope(n, 6.0, 0.01)

    def teardown(self):
        pass

    def kind(self, op):
        """Label of the op's cost class, for the per-kind breakdown."""
        return ""


# ---------------------------------------------------------------------------
# closed_loop: `linecancel cancel` with the CLI defaults, in-process.

TRUTH_NOISE = complex(14.0 * math.cos(math.radians(102.0)), 14.0 * math.sin(math.radians(102.0)))
PHASOR_TOL_MV = 4.0


class ClosedLoop(Workload):
    def __init__(self):
        super().__init__(
            name="closed_loop",
            master_curves=(1, 2),
            expected_layers=(
                "cli", "estimator.fit_amplitude", "levmar.levenberg_marquardt", "estimator.residual",
                "bessel.bessel_j0", "quantum_sim.cached_heating_envelope",
                "phase_oracle.accumulated_phase_grid", "simlab.SimLab.trace",
                "phasor_cancel.solve_phasor", "phasor_cancel.minimize",
            ),
            accuracy_metric=("phasor_err_mv", "mV"),
        )

    def setup(self, root):
        import linecancel.cli  # noqa: F401  (part of what a cold `cancel` call loads)

        super().setup(root)
        self.state["out"] = os.path.join(root, "perfbench", ".work", f"closed_loop-{os.getpid()}")
        os.makedirs(self.state["out"], exist_ok=True)

    def teardown(self):
        shutil.rmtree(self.state["out"], ignore_errors=True)

    def cycle(self, rng, index):
        # n alternates every op, the mode every two: all four (n, mode) pairs per cycle.
        return [
            {"n": n, "mode": mode, "lab_seed": int(rng.integers(0, 2**31 - 1))}
            for mode in ("X", "Y") for n in (1, 2)
        ]

    def kind(self, op):
        return f"n={op['n']} {op['mode']}"

    def run(self, op):
        from linecancel import cli

        argv = ["cancel", "--seed", str(op["lab_seed"]), "--mode", op["mode"],
                "--n", str(op["n"]), "--out", self.state["out"]]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, op, code):
        if code != 0:
            return OpResult(False, f"exit code {code}")
        try:
            with open(os.path.join(self.state["out"], "solution.json")) as fh:
                sol = json.load(fh)
        except (OSError, ValueError) as exc:
            return OpResult(False, f"solution.json unreadable: {exc}")
        if sol.get("applied") is not True:
            return OpResult(False, "compensation not applied")
        z = sol["noise_mv"] * complex(math.cos(math.radians(sol["noise_angle_deg"])),
                                      math.sin(math.radians(sol["noise_angle_deg"])))
        err = abs(z - TRUTH_NOISE)
        if not err <= PHASOR_TOL_MV:
            return OpResult(False, f"noise phasor off by {err:.2f} mV", err)
        return OpResult(True, accuracy=err)


# ---------------------------------------------------------------------------
# phase_tracking: line-triggered delay sweeps (fig3b / criterion 7).

SWEEP_DELAYS = np.arange(9) * 1e-3
SWEEP_GRID = np.linspace(0.08 / 60, 0.08, 60)
LINE_FREQS = (50.0, 60.0)
LINE_FREQ_TOL_HZ = 2.0


class PhaseTracking(Workload):
    def __init__(self):
        super().__init__(
            name="phase_tracking",
            master_curves=(1,),
            expected_layers=(
                "simlab.SimLab.trace", "phase_oracle.accumulated_phase_grid",
                "quantum_sim.cached_heating_envelope", "estimator.fit_phase",
                "estimator.fit_phase_slope", "levmar.levenberg_marquardt", "estimator.residual",
            ),
            accuracy_metric=("line_freq_err_hz", "Hz"),
        )

    def cycle(self, rng, index):
        # One sweep per line frequency; one op per trigger delay.
        ops = []
        for f_line in LINE_FREQS:
            sweep = {"f_line": f_line, "lab_seed": int(rng.integers(0, 2**31 - 1)),
                     "angle": float(rng.uniform(0.0, 2.0 * math.pi)), "rows": []}
            for k, t_d in enumerate(SWEEP_DELAYS):
                ops.append({"sweep": sweep, "t_d": float(t_d), "last": k == SWEEP_DELAYS.size - 1})
        return ops

    def kind(self, op):
        return f"f_line={op['sweep']['f_line']:g}"

    def run(self, op):
        from dataclasses import replace

        from linecancel import estimator, simlab

        sweep = op["sweep"]
        if "lab" not in sweep:
            truth = simlab.reference_truth(seed=sweep["lab_seed"], noise_mv=56.8 * 0.38,
                                           noise_angle=sweep["angle"], nbar_dot=15.5)
            sweep["lab"] = simlab.SimLab(replace(truth, f_line=sweep["f_line"]))
        trace = sweep["lab"].trace("X", 1, SWEEP_GRID, 400, t_d=op["t_d"])
        fit = estimator.fit_phase(trace, sweep["f_line"])
        sweep["rows"].append((op["t_d"], fit.params["phi_d"], fit.sigmas["phi_d"]))
        slope = estimator.fit_phase_slope(sweep["rows"], period=math.pi) if op["last"] else None
        return fit, slope

    def check(self, op, result):
        fit, slope = result
        values = list(fit.params.values()) + list(fit.sigmas.values())
        if not all(math.isfinite(v) for v in values):
            return OpResult(False, f"non-finite fit {fit.params} {fit.sigmas}")
        if slope is None:
            return OpResult(True)
        err = abs(slope.slope / (2.0 * math.pi) - op["sweep"]["f_line"])
        if slope.ambiguous or not err <= LINE_FREQ_TOL_HZ:
            return OpResult(False, f"slope off by {err:.2f} Hz (ambiguous={slope.ambiguous})", err)
        return OpResult(True, accuracy=err)


# ---------------------------------------------------------------------------
# density_matrix: product-model points (criterion 5 / figS2) and heating-free
# points (criterion 3).

N_PHASES = 64
NBAR_DOT = 6.0
F_LINE = 60.0
PRODUCT_AMPLITUDES = {0: 53.9, 1: 53.9, 2: 40.4}   # Hz, the product-scan sets
AMPLITUDE_VARIANTS = (0.9, 1.0, 1.1)                # seed picks one per heated op
HEATED_TAUS = (0.01, 0.1)                           # both ends of the product scan
FREE_TAU = 0.013                                    # criterion 3's shortest; cheaper than any heated op
FREE_AMPLITUDE_HZ = (35.0, 60.0)                    # below 74 Hz the RK4 step, hence cost, is fixed
ANALYTIC_TOL = 1e-5
REFERENCE_TOL = 1e-6


def heated_points():
    """Every heated (n, tau, A/2pi) the workload can draw; the reference table covers exactly these."""
    return [(n, tau, round(PRODUCT_AMPLITUDES[n] * f, 6))
            for n in sorted(PRODUCT_AMPLITUDES) for tau in HEATED_TAUS for f in AMPLITUDE_VARIANTS]


def density_point(n, tau, a_hz, heated):
    """One product-model point: (c_tot over the phase grid, c_heat, c_mod)."""
    from linecancel import model_core, quantum_sim

    seq = model_core.CPSequence(n, tau)
    mod = model_core.ModulationParams.from_hz(a_hz, F_LINE)
    heating = model_core.HeatingModel(NBAR_DOT) if heated else None
    spec = quantum_sim.SequenceSpec(seq, mod, heating)
    phases = np.linspace(0.0, 2.0 * math.pi, N_PHASES, endpoint=False)
    c_tot = float(np.mean(quantum_sim.run_sequence_phases(spec, phases)))
    c_heat = float(quantum_sim.heating_envelope(model_core.CPSequence(n, 1.0), heating, np.array([tau]))[0])
    c_mod = float(model_core.analytic_signal(seq, mod))
    return c_tot, c_heat, c_mod


class DensityMatrix(Workload):
    def __init__(self):
        super().__init__(
            name="density_matrix",
            processes=3,
            expected_layers=(
                "quantum_sim.run_sequence_phases", "quantum_sim.heating_envelope",
                "model_core.analytic_signal", "bessel.bessel_j0",
            ),
        )

    def setup(self, root):
        import linecancel  # noqa: F401

        with open(REFERENCE_FILE) as fh:
            table = json.load(fh)
        self.state["reference"] = {(p["n"], p["tau"], p["a_hz"]): p for p in table["points"]}

    def cycle(self, rng, index):
        # Every n at the short heated tau, one heating-free point, and, in the
        # run's first cycle only, one long heated point: it costs about ten
        # short ones, and the run measures it once.
        def heated(n, tau):
            variant = AMPLITUDE_VARIANTS[rng.integers(len(AMPLITUDE_VARIANTS))]
            return {"n": n, "tau": tau, "a_hz": round(PRODUCT_AMPLITUDES[n] * variant, 6), "heated": True}

        ns = sorted(PRODUCT_AMPLITUDES)
        ops = [heated(n, HEATED_TAUS[0]) for n in ns]
        ops.append({"n": ns[index % len(ns)], "tau": FREE_TAU,
                    "a_hz": float(rng.uniform(*FREE_AMPLITUDE_HZ)), "heated": False})
        if index == 0:
            ops.append(heated(ns[rng.integers(len(ns))], HEATED_TAUS[1]))
        return [ops[i] for i in rng.permutation(len(ops))]

    def kind(self, op):
        return f"{'heated' if op['heated'] else 'heating-free'} n={op['n']} tau={op['tau']:g}"

    def run(self, op):
        return density_point(op["n"], op["tau"], op["a_hz"], op["heated"])

    def check(self, op, result):
        c_tot, c_heat, c_mod = result
        if not op["heated"]:
            dev = abs(c_tot - c_mod)
            if not (dev <= ANALYTIC_TOL and c_heat == 1.0):
                return OpResult(False, f"heating-free point off the closed form by {dev:.2e}")
            return OpResult(True)
        ref = self.state["reference"].get((op["n"], op["tau"], op["a_hz"]))
        if ref is None:
            return OpResult(False, f"no reference entry for {op}")
        dev = max(abs(c_tot - ref["c_tot"]), abs(c_heat - ref["c_heat"]))
        if not dev <= REFERENCE_TOL:
            return OpResult(False, f"heated point off the reference table by {dev:.2e}")
        return OpResult(True)


WORKLOADS = {w.name: w for w in (ClosedLoop(), PhaseTracking(), DensityMatrix())}
