"""Time ``solve`` on a ladder of trees, split by phase.

Each rung is one ``solve`` at the perfbench endowment: the ``lattice-exp``
and ``random-cap`` instances of perfbench seeds 1 and 5, ``binomial`` at
T = 5 under ``exp:alpha=1``, and perfbench's ``random_tree`` at T = 5 under
its cap utility, both drawn from ``random.Random(1)``.  A rung runs once to
warm up, then ``--repeats`` times under ``time.perf_counter``.  Each timed
run is split into phases by wrappers around the module attributes the solver
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

The warm-up run also counts the candidate values each sweep phase forms (the
sizes of the blocks that ``_kernels._over_children``'s candidate returns):
``exact_sweeps_candidates``, ``grid_sweeps_candidates`` (bound search and
scan) and ``one_point_sweeps_candidates``.  These counts do not depend on the
host, so they show work a change saves where the times are too noisy to.

An entry records the median and the minimum of the solve times, the median of
each phase, every solve time, the candidate counts, and the root value, the
replay and ``value_gap`` as ``float.hex``.  The entries go to ``--out``
(``benchmarks/BENCH_solve.json`` by default) under ``--label``; entries of
other labels stay.  The run pins glibc's malloc thresholds first, as
``perfbench/run.py`` does, and records the allocator.  ``--src`` names the
package source to time::

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
REPEATS = 15
PHASES = ("exact_sweeps_s", "grid_search_s", "grid_scan_s", "one_point_sweeps_s", "evaluate_s")
# the candidate count of each sweep phase, by the phase its time goes to
COUNTS = {
    "exact_sweeps_s": "exact_sweeps_candidates",
    "grid_search_s": "grid_sweeps_candidates",
    "grid_scan_s": "grid_sweeps_candidates",
    "one_point_sweeps_s": "one_point_sweeps_candidates",
}


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
    its action scan and the rest its bound search.  With ``count`` set, the
    candidate values each phase forms are counted too.
    """

    def __init__(self, kernels, solver, count=False) -> None:
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.counts = dict.fromkeys(COUNTS.values(), 0)
        self.inside = None
        self.phase = None
        self._saved = []
        if count:
            self._count(kernels)
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
            outer, outer_phase = self.inside, self.phase
            if inside is not None and outer is None:
                self.inside = inside
            self.phase = phase(outer) or outer_phase
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.inside, self.phase = outer, outer_phase
                if phase(outer) is not None:
                    self.spent[phase(outer)] += elapsed

        setattr(owner, attr, timed)

    def _count(self, kernels):
        """Wrap ``_over_children`` so that its candidate adds the size of
        each block it returns to the count of the phase it runs in."""
        original = kernels._over_children
        self._saved.append((kernels, "_over_children", original))

        def over_children(*args, **kwargs):
            cand = original(*args, **kwargs)

            def counted(*cargs):
                values = cand(*cargs)
                if self.phase in COUNTS:
                    self.counts[COUNTS[self.phase]] += values.size
                return values

            return counted

        kernels._over_children = over_children

    def uninstall(self) -> dict:
        """Put the originals back; the time of each phase."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        # the grid sweeps' time so far includes their scans
        return {**self.spent, "grid_search_s": self.spent["grid_search_s"] - self.spent["grid_scan_s"]}


def _measure(solver, kernels, t, u, z, repeats) -> tuple:
    """The report of ``solve``, its wall times, the phase medians and the
    candidate counts."""
    split = _Phases(kernels, solver, count=True)
    try:
        report = solver.solve(t, u, z)
    finally:
        split.uninstall()
    counts = split.counts
    times, phases = [], {k: [] for k in PHASES}
    for _ in range(repeats):
        split = _Phases(kernels, solver)
        try:
            start = time.perf_counter()
            solver.solve(t, u, z)
            times.append(time.perf_counter() - start)
        finally:
            spent = split.uninstall()
        for k in PHASES:
            phases[k].append(spent[k])
    return report, times, {k: statistics.median(v) for k, v in phases.items()}, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the impactdp package")
    ap.add_argument("--repeats", type=int, default=REPEATS, help="timed solves per rung")
    ap.add_argument("--out", type=Path, default=OUT, help="the JSON file the entries go to")
    args = ap.parse_args(argv)
    allocator = pin_allocator()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from impactdp import _kernels, solver, tree, utility

    entries = []
    for name, t, u, z in _rungs(workloads, tree, utility):
        report, times, phases, counts = _measure(solver, _kernels, t, u, z, args.repeats)
        entry = {
            "rung": name,
            "median_s": statistics.median(times),
            "min_s": min(times),
            "times_s": times,
            **phases,
            **counts,
            "root_value": float(report.root_value).hex(),
            "replay": float(report.strategy_value).hex(),
            "value_gap": float(report.diagnostics["value_gap"]).hex(),
        }
        print(
            f"{name:44s} {entry['median_s']:8.4f} {entry['min_s']:8.4f} s  "
            + " ".join(f"{phases[k]:.4f}" for k in PHASES)
            + "  " + " ".join(f"{counts[k]:>9d}" for k in dict.fromkeys(COUNTS.values())),
            flush=True,
        )
        entries.append(entry)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"runs": {}}
    doc["script"] = "benchmarks/solve_ladder.py"
    doc["phases"] = list(PHASES)
    doc["runs"][args.label] = {"machine": machine(np.__version__, allocator), "repeats": args.repeats, "entries": entries}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
