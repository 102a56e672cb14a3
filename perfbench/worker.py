"""One workload in a fresh interpreter; started by run.py, not by hand.

Protocol on stdout: the line READY once set-up is done (run.py times the
interval from process start to that line as set-up time), then one JSON
line with the per-op records.  A broken trace or a failed set-up exits
non-zero without that line.

A run's timed phase is split over --parts such processes, each taking every
parts-th op cycle, because the speed of a process varies by about 10% from one
process to the next on identical inputs (measured on a 2-core VM).
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import linecancel

    if not os.path.abspath(linecancel.__file__).startswith(src + os.sep):
        raise SystemExit(f"linecancel imported from {linecancel.__file__}, not from {src}")


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _run_op(workload, op, tracer, op_id):
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        dt = time.perf_counter() - t0
        check = None
        error = f"{type(exc).__name__}: {exc}"
    else:
        dt = time.perf_counter() - t0
        check = workload.check(op, result)
        error = check.error
    if tracer is not None:
        tracer.op_id = -1
    return {
        "kind": workload.kind(op),
        "t": dt,
        "ok": bool(check is not None and check.ok),
        "error": error,
        "accuracy": None if check is None else check.accuracy,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, default=0, help="run the cycles whose index is part mod parts")
    p.add_argument("--parts", type=int, default=1)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np

    import calibrate
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    _load_package()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup(ROOT)
    print("READY", flush=True)

    # A calibration burst before and after every op; each op is scaled by the
    # median of the three bursts nearest it (calibrate.py).
    bursts = [calibrate.burst() for _ in range(2)]
    rng = np.random.default_rng(args.seed)
    records = []
    elapsed = 0.0
    try:
        for index in itertools.count():
            # Every part draws every cycle, so all parts see the same seeded inputs.
            ops = workload.cycle(rng, index)
            if index % args.parts != args.part:
                continue
            for op in ops:
                t0 = time.perf_counter()
                record = _run_op(workload, op, tracer, len(records))
                elapsed += time.perf_counter() - t0
                bursts.append(calibrate.burst())
                record["cal_s"] = float(np.median(bursts[-3:]))
                records.append(record)
            if elapsed >= args.seconds:
                break
    finally:
        workload.teardown()

    out = {
        "ops": records,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": _blas(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics([r["t"] for r in records], workload.expected_layers)
        out["master_builds"] = {f"n={n},cutoff={c}": s for (n, c), s in tracer.master_build_s.items()}
        spans = os.path.join(ROOT, "perfbench", "results", f"spans-{args.workload}.npz")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        np.savez_compressed(spans, **tracer.arrays())
        out["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
