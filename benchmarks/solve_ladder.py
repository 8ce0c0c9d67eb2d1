"""Time ``solve`` on a ladder of trees, split by phase.

Each rung is one ``solve`` at the perfbench endowment: the ``lattice-exp``
and ``random-cap`` instances of perfbench seeds 1 and 5, ``binomial`` at
T = 5 under ``exp:alpha=1``, and perfbench's ``random_tree`` at T = 5 under
its cap utility, both drawn from ``random.Random(1)``.  A rung runs once to
warm up, then ``REPEATS`` times under ``time.perf_counter``.  Each timed run
is split into phases by wrappers around the module attributes the solver
looks up, so the split reads the same names in any checkout:

- ``exact_sweeps_s``: the backward pass's ``_kernels.sweep_exact`` calls,
  the date-(T-2) sweeps;
- ``grid_search_s`` and ``grid_scan_s``: the backward pass's
  ``_kernels.sweep_grid`` calls, the earlier dates, split into the action
  scan (the time inside ``_kernels._scan``, which consumes the scan's
  candidate blocks) and the rest (the bound search);
- ``one_point_sweeps_s``: the kernel calls of ``forward_extract``, one
  one-point sweep per visited node;
- ``evaluate_s``: ``evaluate_strategy``.

An entry records the median of the solve times and of each phase, every
solve time, and the root value, the replay and ``value_gap`` as
``float.hex``.  The entries go to ``benchmarks/BENCH_solve.json`` under
``--label``; entries of other labels stay.  The run pins glibc's malloc
thresholds first, as ``perfbench/run.py`` does, and records the allocator.
``--src`` names the package source to time::

    python3 benchmarks/solve_ladder.py --label change
    python3 benchmarks/solve_ladder.py --label parent --src ../parent/src
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

from _machine import machine, pin_allocator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "BENCH_solve.json"
REPEATS = 5
PHASES = ("exact_sweeps_s", "grid_search_s", "grid_scan_s", "one_point_sweeps_s", "evaluate_s")


def _rungs(workloads, tree_mod, utility):
    """(name, tree, utility, z) for every rung of the ladder."""
    for workload in ("lattice-exp", "random-cap"):
        for seed in (1, 5):
            for inst in workloads.build(workload, seed):
                yield f"{workload} seed {seed} {inst.name}", inst.tree, inst.utility, workloads.Z
    binomial = tree_mod.generate(tree_mod.preset("binomial", T=5))
    yield "binomial-T5 exp:alpha=1", binomial, utility.exponential(1.0), workloads.Z
    rng = random.Random(1)
    t = workloads.random_tree(rng, 5)
    yield "random_tree-T5 cap", t, workloads._random_utility(rng, "cap"), workloads.Z


class _Phases:
    """Wrappers, while installed, that book each call's time to a phase.

    ``inside`` names the call the solver is in: ``"forward"`` during
    ``forward_extract``, whose kernel calls are one-point sweeps, and
    ``"grid"`` during a backward ``sweep_grid``, whose ``_scan`` time is
    its action scan and the rest its bound search.
    """

    def __init__(self, kernels, solver) -> None:
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.inside = None
        self._saved = []
        forward = "one_point_sweeps_s"
        self._wrap(solver, "forward_extract", lambda outer: None, "forward")
        self._wrap(solver, "evaluate_strategy", lambda outer: "evaluate_s")
        self._wrap(kernels, "sweep_exact", lambda outer: forward if outer == "forward" else "exact_sweeps_s")
        self._wrap(kernels, "sweep_grid", lambda outer: forward if outer == "forward" else "grid_search_s", "grid")
        self._wrap(kernels, "_scan", lambda outer: "grid_scan_s" if outer == "grid" else None)

    def _wrap(self, owner, attr, phase, inside=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))

        def timed(*args, **kwargs):
            outer = self.inside
            if inside is not None and outer is None:
                self.inside = inside
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.inside = outer
                if phase(outer) is not None:
                    self.spent[phase(outer)] += elapsed

        setattr(owner, attr, timed)

    def uninstall(self) -> dict:
        """Put the originals back; the time of each phase."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        # the grid sweeps' time so far includes their scans
        return {**self.spent, "grid_search_s": self.spent["grid_search_s"] - self.spent["grid_scan_s"]}


def _measure(solver, kernels, t, u, z) -> tuple:
    """The report of ``solve``, its wall times and the phase medians."""
    report = solver.solve(t, u, z)
    times, phases = [], {k: [] for k in PHASES}
    for _ in range(REPEATS):
        split = _Phases(kernels, solver)
        try:
            start = time.perf_counter()
            solver.solve(t, u, z)
            times.append(time.perf_counter() - start)
        finally:
            spent = split.uninstall()
        for k in PHASES:
            phases[k].append(spent[k])
    return report, times, {k: statistics.median(v) for k, v in phases.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the impactdp package")
    args = ap.parse_args(argv)
    allocator = pin_allocator()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from impactdp import _kernels, solver, tree, utility

    entries = []
    for name, t, u, z in _rungs(workloads, tree, utility):
        report, times, phases = _measure(solver, _kernels, t, u, z)
        entry = {
            "rung": name,
            "median_s": statistics.median(times),
            "times_s": times,
            **phases,
            "root_value": float(report.root_value).hex(),
            "replay": float(report.strategy_value).hex(),
            "value_gap": float(report.diagnostics["value_gap"]).hex(),
        }
        print(f"{name:44s} {entry['median_s']:8.4f} s  " + " ".join(f"{phases[k]:.4f}" for k in PHASES), flush=True)
        entries.append(entry)
    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {"runs": {}}
    doc["script"] = "benchmarks/solve_ladder.py"
    doc["phases"] = list(PHASES)
    doc["runs"][args.label] = {"machine": machine(np.__version__, allocator), "repeats": REPEATS, "entries": entries}
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
