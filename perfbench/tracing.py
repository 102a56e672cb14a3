"""Span tracer for the traced benchmark run.

The package binds imported names by value (``from .bessel import bessel_j0``),
so a layer is only observable if its function is replaced at every module
that imported it.  SITES lists those import sites; install() replaces each
with a wrapper that records a span (name, start, end, parent, op id) in
compact in-memory arrays.  Nothing is written until the run ends.

A layer's self time is its span minus the time covered by its child spans.
Summed over every span of an op, self times telescope to the op's top-level
span time; the rest of the op (benchmark glue around the calls) is reported
as ``bench.remainder_s``, so layers plus remainder add up to the op time.
"""
from __future__ import annotations

import array
import functools
import importlib
import inspect
import time

import numpy as np

# (module, attribute, span name).  A dotted attribute names a class method.
SITES = (
    ("linecancel.estimator", "bessel_j0", "bessel.bessel_j0"),
    ("linecancel.model_core", "bessel_j0", "bessel.bessel_j0"),
    ("linecancel.cli", "bessel_j0", "bessel.bessel_j0"),
    ("linecancel.estimator", "cached_heating_envelope", "quantum_sim.cached_heating_envelope"),
    ("linecancel.simlab", "cached_heating_envelope", "quantum_sim.cached_heating_envelope"),
    ("linecancel.cli", "cached_heating_envelope", "quantum_sim.cached_heating_envelope"),
    ("linecancel.quantum_sim", "cached_heating_envelope", "quantum_sim.cached_heating_envelope"),
    ("linecancel.simlab", "accumulated_phase_grid", "phase_oracle.accumulated_phase_grid"),
    ("linecancel.estimator", "levenberg_marquardt", "levmar.levenberg_marquardt"),
    ("linecancel.phasor_cancel", "minimize", "phasor_cancel.minimize"),
    ("linecancel.cli", "fit_amplitude", "estimator.fit_amplitude"),
    ("linecancel.cli", "solve_phasor", "phasor_cancel.solve_phasor"),
    ("linecancel.cli", "main", "cli"),
    ("linecancel.simlab", "SimLab.trace", "simlab.SimLab.trace"),
    ("linecancel.estimator", "fit_phase", "estimator.fit_phase"),
    ("linecancel.estimator", "fit_phase_slope", "estimator.fit_phase_slope"),
    ("linecancel.quantum_sim", "run_sequence_phases", "quantum_sim.run_sequence_phases"),
    ("linecancel.quantum_sim", "heating_envelope", "quantum_sim.heating_envelope"),
    ("linecancel.model_core", "analytic_signal", "model_core.analytic_signal"),
)

# Spans whose self time and call count are reported per op.
LAYERS = (
    "quantum_sim.run_sequence_phases",
    "quantum_sim.heating_envelope",
    "quantum_sim.cached_heating_envelope",
    "bessel.bessel_j0",
    "phase_oracle.accumulated_phase_grid",
    "simlab.SimLab.trace",
    "levmar.levenberg_marquardt",
    "estimator.fit_amplitude",
    "estimator.fit_phase",
    "estimator.fit_phase_slope",
    "estimator.residual",
    "phasor_cancel.solve_phasor",
    "phasor_cancel.minimize",
    "model_core.analytic_signal",
    "cli",
)


class TraceError(RuntimeError):
    """The trace cannot be trusted: a site is gone or an expected layer is silent."""


class Tracer:
    def __init__(self):
        self._ids = {}
        self.names = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self.op_id = -1
        self.counters = {}
        self.master_build_s = {}

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        """Add to a per-run counter; only work done inside an op counts."""
        if self.op_id >= 0:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_return is not None:
                on_return(args, kwargs, result, self.end[idx] - self.start[idx])
            return result

        return traced

    # -- site-specific wrappers ------------------------------------------------

    def _wrap_site(self, fn, attr, name):
        if attr == "bessel_j0":
            return self.wrap(fn, name, lambda a, k, r, d: self.count("bessel.points", np.size(a[0])))
        if attr == "accumulated_phase_grid":
            return self.wrap(fn, name, lambda a, k, r, d: self.count("phase_oracle.elements", np.size(r)))
        if attr == "run_sequence_phases":
            return self.wrap(fn, name, lambda a, k, r, d: self.count("quantum_sim.phase_points", np.size(r)))
        if attr == "cached_heating_envelope":
            return self._wrap_envelope(fn, name)
        if attr == "SimLab.trace":
            return self.wrap(fn, name, self._on_trace)
        if attr == "minimize":
            return self.wrap(fn, name, self._on_minimize)
        if attr == "levenberg_marquardt":
            return self._wrap_lm(fn, name)
        return self.wrap(fn, name)

    def _wrap_envelope(self, fn, name):
        param = inspect.signature(fn).parameters.get("fock_cutoff")
        default_cutoff = None if param is None else param.default

        def on_return(args, kwargs, result, duration):
            cutoff = args[3] if len(args) > 3 else kwargs.get("fock_cutoff", default_cutoff)
            key = (int(args[0]), cutoff)
            if key not in self.master_build_s:
                self.master_build_s[key] = duration

        return self.wrap(fn, name, on_return)

    def _on_trace(self, args, kwargs, result, duration):
        self.count("simlab.shots", int(np.sum(result.shots)))

    def _on_minimize(self, args, kwargs, result, duration):
        self.count("phasor_cancel.nm_passes")
        self.count("phasor_cancel.nm_nfev", int(result.nfev))

    def _wrap_lm(self, fn, name):
        traced_lm = self.wrap(fn, name, self._on_lm)

        @functools.wraps(fn)
        def lm(residual, *args, **kwargs):
            def counted_residual(x):
                self.count("levmar.residual_evals")
                return residual(x)

            return traced_lm(self.wrap(counted_residual, "estimator.residual"), *args, **kwargs)

        return lm

    def _on_lm(self, args, kwargs, result, duration):
        self.count("levmar.iterations", int(result.n_iterations))
        self.count("levmar.converged", int(bool(result.converged)))

    def install(self):
        """Replace every site in SITES; raise TraceError if one no longer exists."""
        for module_name, attr, span in SITES:
            try:
                owner = importlib.import_module(module_name)
                parts = attr.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError) as exc:
                raise TraceError(f"trace site {module_name}.{attr} no longer exists ({exc})") from exc
            setattr(owner, parts[-1], self._wrap_site(original, attr, span))

    # -- aggregation ---------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": start,
            "end": end,
        }

    def layer_metrics(self, op_times, expected):
        """Per-op layer metrics for the ops whose wall times are op_times.

        Raises TraceError when a layer in `expected` recorded no call inside
        an op: a renamed function would otherwise read as a 100% speed-up.
        """
        n_ops = len(op_times)
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        in_op = a["op"] >= 0

        out = {}
        calls = {}
        for layer in LAYERS:
            if layer in self._ids:
                mask = in_op & (a["name_id"] == self._ids[layer])
                calls[layer] = int(mask.sum())
            else:
                mask = np.zeros_like(in_op)
                calls[layer] = 0
            out[f"{layer}.calls"] = calls[layer] / n_ops
            out[f"{layer}.self_s"] = float(self_t[mask].sum()) / n_ops
            if layer == "estimator.residual":
                out["estimator.residual_s"] = float(dur[mask].sum()) / n_ops
        silent = [layer for layer in expected if calls.get(layer, 0) == 0]
        if silent:
            raise TraceError(f"expected layers recorded no calls: {', '.join(silent)}")

        c = self.counters

        def per_op(key):
            return c.get(key, 0) / n_ops

        out["quantum_sim.run_sequence_phases.phase_points"] = per_op("quantum_sim.phase_points")
        out["bessel.bessel_j0.points"] = per_op("bessel.points")
        out["phase_oracle.accumulated_phase_grid.elements"] = per_op("phase_oracle.elements")
        out["simlab.shots"] = per_op("simlab.shots")
        out["levmar.iterations"] = per_op("levmar.iterations")
        out["levmar.residual_evals"] = per_op("levmar.residual_evals")
        lm_calls = calls["levmar.levenberg_marquardt"]
        out["levmar.converged_ratio"] = c.get("levmar.converged", 0) / lm_calls if lm_calls else 0.0
        solves = calls["phasor_cancel.solve_phasor"]
        out["phasor_cancel.nm_passes"] = c.get("phasor_cancel.nm_passes", 0) / solves if solves else 0.0
        out["phasor_cancel.nm_nfev"] = c.get("phasor_cancel.nm_nfev", 0) / solves if solves else 0.0
        out["quantum_sim.master_build_s"] = float(sum(self.master_build_s.values()))

        top = in_op & ~has_parent
        total_op = float(sum(op_times))
        out["bench.remainder_s"] = (total_op - float(dur[top].sum())) / n_ops
        out["trace.op_s_mean"] = total_op / n_ops
        out["trace.op_s_p50"] = float(np.median(op_times))
        return out
