"""Regenerate density_reference.json, the table the density_matrix workload
checks its heated points against.

Run from the repository root:  python3 perfbench/make_reference.py

The table pins c_tot (64-phase average of the full density-matrix run) and
c_heat (heating-only envelope) for every heated point the workload can draw.
Regenerate it only when a change to quantum_sim is meant to change those
numbers, and say so in the change.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from run import git_commit  # noqa: E402
from workloads import F_LINE, N_PHASES, NBAR_DOT, REFERENCE_FILE, density_point, heated_points  # noqa: E402


def main():
    points = []
    for n, tau, a_hz in heated_points():
        c_tot, c_heat, c_mod = density_point(n, tau, a_hz, heated=True)
        points.append({"n": n, "tau": tau, "a_hz": a_hz, "c_tot": c_tot, "c_heat": c_heat, "c_mod": c_mod})
        print(f"n={n} tau={tau} A={a_hz} Hz: c_tot={c_tot:.9f} c_heat={c_heat:.9f}", flush=True)
    table = {
        "commit": git_commit(ROOT),
        "nbar_dot": NBAR_DOT,
        "f_line_hz": F_LINE,
        "n_phases": N_PHASES,
        "points": points,
    }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
