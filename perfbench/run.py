"""Benchmark for linecancel: one workload per call, or a comparison of two result files.

Run from the repository root:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run starts the workload in a few fresh interpreters in turn (worker.py).
Each loads the package from src/, sets up (imports, master curves), then
runs its share of whole op cycles one op at a time, checking every op,
until its share of --seconds has passed.  Op times are pooled over the
interpreters; set-up time is the median of their set-ups.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 wraps
the package's import sites (tracing.py) and prints the per-layer metrics.
Either way a human-readable table comes first and the last stdout line is a
JSON object {"correct", "attempted", "failed", "metrics"}.  Every run also
appends a record, with provenance, to the --results file (JSON lines), which
is what --compare reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0   # a run (all its interpreters) must end within this
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "LINECANCEL_THREADS")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# provenance

def git_commit(root):
    """HEAD commit read from .git without running git (which would search parent directories)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def provenance(root, seed, blas):
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "src_lines": src_lines(root),
    }


# ---------------------------------------------------------------------------
# running the worker

def _spawn(args, deadline, part, parts):
    """Run one worker.py part; returns (set-up seconds, its decoded result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / parts), "--trace", str(args.trace),
           "--part", str(part), "--parts", str(parts)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "READY" or not rest:
        raise BenchError(f"worker exited with code {code} ({'killed at the time budget' if code < 0 else 'see stderr'})")
    return setup_s, json.loads(rest[-1])


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(workload, outs, setups):
    """Every end-to-end figure of a run: name -> (value, unit, sample note).

    Gated op times are in reference seconds: each op's wall time scaled by
    REFERENCE_S over the calibration-kernel time measured around it
    (calibrate.py).  The wall-clock median is reported next to it.

    BENCHMARK.json gates the median-based figures.  ops_per_s and op_s_tail
    are reported but not gated: on closed_loop about one loop in five runs
    the phasor solver's Nelder-Mead to its 4000-iteration cap, at nearly four
    times the usual loop time, so means and tails over the ~30 loops of a run
    move by more than any admissible bound from seed to seed.
    """
    ops = [r for o in outs for r in o["ops"]]
    wall = [r["t"] for r in ops]
    ref = [r["t"] * calibrate.REFERENCE_S / r["cal_s"] for r in ops]
    n = len(ops)
    passed = sum(r["ok"] for r in ops)
    elapsed = sum(o["elapsed_s"] for o in outs)
    # The highest percentile with at least ten ops beyond it, never below the median.
    q = max(0.5, 1.0 - 10.0 / n)
    k = len(setups)
    figures = {
        "setup_s": (statistics.median(setups), "s", f"median of {k} fresh interpreters"),
        "op_s_p50": (statistics.median(ref), "s", f"reference seconds, n={n}"),
        "ok_ratio": (passed / n, "ratio", f"{passed}/{n} ops passed"),
        "peak_rss_mb": (max(o["peak_rss_mb"] for o in outs), "MB", "largest of the workload processes"),
        "op_wall_s_p50": (statistics.median(wall), "s", f"n={n}"),
        "op_s_tail": (percentile(ref, q), "s", f"reference seconds, p{100.0 * q:.0f}, n={n}"),
        "ops_per_s": (n / elapsed, "1/s", f"{n} ops in {elapsed:.2f} wall s"),
    }
    if workload.accuracy_metric is not None:
        name, unit = workload.accuracy_metric
        vals = [r["accuracy"] for r in ops if r["accuracy"] is not None]
        if vals:
            figures[name] = (statistics.median(vals), unit, f"median, n={len(vals)}")
    return figures


def _overhead(results_path, workload, commit, traced_p50):
    """Traced wall-clock op median over the untraced one, from earlier records of this commit."""
    base = [r["ungated"]["op_wall_s_p50"] for r in _read_records(results_path)
            if r["workload"] == workload and r["trace"] == 0 and r["provenance"]["commit"] == commit]
    if not base:
        return None
    return traced_p50 / statistics.median(base) - 1.0


def run(args, bench):
    if not os.path.isfile(os.path.join(ROOT, "src", "linecancel", "__init__.py")):
        raise BenchError(f"no package source at {os.path.join(ROOT, 'src', 'linecancel')}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S

    # The traced run needs no set-up samples and keeps all spans in one process.
    parts = 1 if args.trace else workload.processes
    setups, outs = zip(*(_spawn(args, deadline, part, parts) for part in range(parts)))
    out = outs[0]
    ops = [r for o in outs for r in o["ops"]]
    failed = sum(not r["ok"] for r in ops)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    if args.trace:
        figures = {k: (v, declared.get(k), f"mean over {len(ops)} ops" if declared.get(k, "").endswith("/op") else "")
                   for k, v in out["layers"].items()}
    else:
        figures = end_to_end(workload, outs, setups)
    missing = set(declared) - set(figures)
    if missing or any(figures[k][1] != u for k, u in declared.items()):
        raise BenchError(f"metrics of this run and BENCHMARK.json disagree (missing: {sorted(missing)})")
    values = {k: (v, note) for k, (v, _, note) in figures.items() if k in declared}
    extra = {k: f for k, f in figures.items() if k not in declared}

    prov = provenance(ROOT, args.seed, out["blas"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"commit {prov['commit'][:12]}  src lines {prov['src_lines']}")
    width = max(len(k) for k in list(values) + list(extra))
    for name, unit in declared.items():
        value, note = values[name]
        print(f"  {name:<{width}}  {value:>12.6g} {unit:<9} ({note})")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:<{width}}  {value:>12.6g} {unit:<9} ({note}; reported, not gated)")
    if args.trace:
        print(f"  master curves built in set-up: {out['master_builds']}")
        layer_sum = sum(v for k, (v, _) in values.items() if k.endswith(".self_s")) + values["bench.remainder_s"][0]
        print(f"  layer self times + bench.remainder_s = {layer_sum:.6g} s/op; "
              f"traced op time = {values['trace.op_s_mean'][0]:.6g} s/op; spans in {out['spans_file']}")
        overhead = _overhead(args.results, args.workload, prov["commit"], values["trace.op_s_p50"][0])
        if overhead is not None:
            print(f"  tracing overhead: op_s_p50 {100.0 * overhead:+.1f}% against untraced runs of this commit")
    kinds = {}
    for r in ops:
        kinds.setdefault(r["kind"], []).append(r["t"])
    if len(kinds) > 1:
        print("  op_s median by kind: " + ", ".join(
            f"{k} {statistics.median(v):.4g} (n={len(v)})" for k, v in sorted(kinds.items())))
    for r in [r for r in ops if not r["ok"]][:5]:
        print(f"  FAILED op: {r['error']}", file=sys.stderr)

    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": len(ops), "failed": failed,
        "metrics": {k: v for k, (v, _) in values.items()},
        "ungated": {k: v for k, (v, _, _) in extra.items()},
        "parts": [{"setup_s": s, "op_wall_s": [r["t"] for r in o["ops"]], "cal_s": [r["cal_s"] for r in o["ops"]]}
                  for s, o in zip(setups, outs)],
        "notes": {k: note for k, (_, note) in values.items()},
        "provenance": prov,
    }
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k][0], "unit": u} for k, u in declared.items()},
    }))


# ---------------------------------------------------------------------------
# compare

def _read_records(path):
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    """improved / no worse / worse / unresolved for change b against parent a.

    Improved needs ten runs a side, medians further apart than the parent's
    quartile spread, and nine in ten of b's runs better than a's median.
    """
    if bound is None:
        return "no bound"
    ma, mb = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = _quartiles(a), _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(ma) or 1.0
    if max(a3 - a1, b3 - b1) / scale > bound:
        return "improved" if all(sign * (y - x) < 0 for x in a for y in b) else "unresolved"
    worse = sign * (mb - ma) / scale
    if worse > bound:
        return "worse"
    wins = sum(sign * (y - ma) < 0 for y in b)
    if min(len(a), len(b)) >= 10 and -worse * scale > a3 - a1 and wins >= 0.9 * len(b):
        return "improved"
    return "no worse"


def compare(path_a, path_b, bench):
    a_recs, b_recs = _read_records(path_a), _read_records(path_b)
    for path, recs in ((path_a, a_recs), (path_b, b_recs)):
        if not recs:
            raise BenchError(f"no run records in {path}")
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<15} {'metric':<45} {'median A':>11} {'[q1, q3] A':>23} {'median B':>11} "
          f"{'[q1, q3] B':>23} {'B/A':>7}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            ra = [r for r in a_recs if r["workload"] == w and r["trace"] == trace]
            rb = [r for r in b_recs if r["workload"] == w and r["trace"] == trace]
            if not ra or not rb:
                continue
            names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            names += sorted(set().union(*(r["ungated"] for r in ra + rb)))
            for name in names:
                a = [r["metrics"].get(name, r["ungated"].get(name)) for r in ra]
                b = [r["metrics"].get(name, r["ungated"].get(name)) for r in rb]
                a, b = [v for v in a if v is not None], [v for v in b if v is not None]
                if not a or not b:
                    continue
                m = meta.get(name, {})
                ma, mb = statistics.median(a), statistics.median(b)
                ratio = f"{mb / ma:7.3f}" if ma else "    n/a"
                qa, qb = _quartiles(a), _quartiles(b)
                print(f"{w:<15} {name:<45} {ma:>11.4g} [{qa[0]:>10.4g},{qa[1]:>10.4g}] {mb:>11.4g} "
                      f"[{qb[0]:>10.4g},{qb[1]:>10.4g}] {ratio}  "
                      f"{verdict(a, b, m.get('better'), m.get('bound'))}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=os.path.join(HERE, "results", "runs.jsonl"),
                   help="JSON-lines file each run appends its record to")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two results files")
    args = p.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if args.compare:
            compare(*args.compare, bench)
        elif args.workload is None:
            p.error("--workload or --compare is required")
        else:
            run(args, bench)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
