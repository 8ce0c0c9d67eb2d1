"""Time the exhaustive oracles and the exact DP on a ladder of trees and action grids.

For each rung, ``brute_force_solve`` and ``history_dp`` run once to warm up,
then ``REPEATS`` times under ``time.perf_counter``, then once more under
``tracemalloc``.  An entry records the candidate count (``candidates`` of the
result), the median and every wall time, the ``tracemalloc`` peak in bytes
and per candidate, and the value as ``float.hex``.  The ``exact_state_dp``
rungs run the same way, and their entries record the action count in place of
the candidates.  The entries go to ``benchmarks/BENCH_oracles.json`` under
``--label``; entries of other labels stay, so one file holds the runs of two
versions side by side.

The oracle rungs are ``binomial`` at T = 4 under ``cap:cap=1`` on 3, 5 and 7
evenly spaced actions in [-1, 1], and the ``random-cap`` and ``lattice-exp``
trees of perfbench seeds 1 and 5 on their coarse grids, at the perfbench
endowment.  The ``exact_state_dp`` rungs are perfbench's ``random_tree`` under
its cap utility, both drawn from ``random.Random(1)``, at T = 4 with 41
actions, T = 5 with 21 and 41 and T = 6 with 9, and ``binomial`` at T = 5
under ``exp:alpha=1`` with 21 actions, all evenly spaced in [-1, 1].
The run pins glibc's malloc thresholds first (``_machine.pin_allocator``, as
``perfbench/run.py`` does), so a rung's time does not depend on what the
rungs before it left in the heap, and records the allocator in its machine
block.  ``--src`` names the package source to time, so another checkout can
be measured with this same script::

    python3 benchmarks/oracle_ladder.py --label change
    python3 benchmarks/oracle_ladder.py --label parent --src ../parent/src
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from _machine import machine, pin_allocator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "BENCH_oracles.json"
REPEATS = 5


def _rungs(workloads, oracle, tree_mod, utility):
    """(name, tree, utility, z, grid) for every rung of the ladder."""
    tree = tree_mod.generate(tree_mod.preset("binomial", T=4))
    cap = utility.parse_utility("cap:cap=1")
    for n in (3, 5, 7):
        m = n // 2
        grid = oracle.ActionGrid(tuple(k / m for k in range(-m, m + 1)))
        yield f"binomial-T4 cap:cap=1 {n} actions", tree, cap, 0.0, grid
    for workload in ("random-cap", "lattice-exp"):
        for seed in (1, 5):
            for inst in workloads.build(workload, seed):
                yield f"{workload} seed {seed} {inst.name}", inst.tree, inst.utility, workloads.Z, inst.coarse


def _even(n: int) -> tuple[float, ...]:
    """n evenly spaced actions in [-1, 1], n odd."""
    m = n // 2
    return tuple(k / m for k in range(-m, m + 1))


def _exact_rungs(workloads, tree_mod, utility):
    """(name, tree, utility, z, actions) for every ``exact_state_dp`` rung."""
    for T, n in ((4, 41), (5, 21), (5, 41), (6, 9)):
        rng = random.Random(1)
        t = workloads.random_tree(rng, T)
        yield f"random_tree-T{T} cap {n} actions", t, workloads._random_utility(rng, "cap"), workloads.Z, _even(n)
    binomial = tree_mod.generate(tree_mod.preset("binomial", T=5))
    yield "binomial-T5 exp:alpha=1 21 actions", binomial, utility.exponential(1.0), workloads.Z, _even(21)


def _measure(fn, args) -> tuple:
    """The result of ``fn(*args)``, its wall times and its ``tracemalloc`` peak."""
    result = fn(*args)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, {"median_s": statistics.median(times), "times_s": times, "peak_bytes": peak}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the impactdp package")
    args = ap.parse_args(argv)
    allocator = pin_allocator()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from impactdp import oracle, solver, tree, utility

    entries = []

    def record(entry):
        count = entry.get("candidates", entry.get("actions"))
        print(f"{entry['rung']:48s} {entry['oracle']:18s} {count:>8d} {entry['median_s']:9.4f} s "
              f"{entry['peak_bytes'] / 1e6:8.2f} MB {entry['value']}", flush=True)
        entries.append(entry)

    for name, t, u, z, grid in _rungs(workloads, oracle, tree, utility):
        for fn in (oracle.brute_force_solve, oracle.history_dp):
            result, timing = _measure(fn, (t, u, z, grid))
            record({
                "rung": name, "oracle": fn.__name__, "candidates": result.candidates, **timing,
                "peak_bytes_per_candidate": timing["peak_bytes"] / result.candidates,
                "value": float(result.value).hex(),
            })
    for name, t, u, z, acts in _exact_rungs(workloads, tree, utility):
        (value, _), timing = _measure(solver.exact_state_dp, (t, u, z, acts))
        record({"rung": name, "oracle": "exact_state_dp", "actions": len(acts), **timing, "value": float(value).hex()})
    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {"runs": {}}
    doc["script"] = "benchmarks/oracle_ladder.py"
    doc["runs"][args.label] = {
        "machine": machine(np.__version__, allocator),
        "repeats": REPEATS,
        "entries": entries,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
