"""Solve benchmark for impactdp: time to a solution, its quality and its checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload lattice-exp --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

One caller, one thread, closed loop: a pass solves every instance of the
workload in turn and certifies each answer; passes repeat while the next
instance still fits in ``--seconds`` (two whole passes always run).  Each solve
and oracle call is timed on its own, and a time metric sums the per-call
medians.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
alternates untraced and traced whole passes and reports the per-layer metrics.
Every run prints a report, writes its records under ``.bench_out/`` and ends
with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# single-threaded runs: no BLAS worker threads, here and in the set-up probes,
# which inherit the environment; set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import impactdp  # noqa: E402

if Path(impactdp.__file__).resolve().parent.parent != ROOT / "src":
    sys.exit(f"error: impactdp was imported from {impactdp.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
from impactdp import _kernels, cli, dynamics, oracle, solver  # noqa: E402
from impactdp.tree import PredictableAssignment  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, subtree_counts  # noqa: E402

OUT = ROOT / ".bench_out"
# set-up probes per batch; a batch runs before, midway through and after the passes
SETUP_PROBES = 3
MIN_PASSES = 2
# the package's own agreement bound for its two terminal-wealth forms
WEALTH_TOL = 1e-12
EXACT_TOL = 1e-12
# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------


def _measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes (see setup_probe.py); setup_s is the
    median of all batches, which spread the probes over the run."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _pin_allocator() -> str:
    """Keep freed memory in the heap instead of handing it back to the kernel.

    A sweep allocates NumPy temporaries of one float per grid state (145 KB at
    the default 41 x 21 x 21 grid).  Under glibc's adaptive defaults a fresh
    process returns them to the kernel and faults them in again, about 1.2
    million minor faults and 2 s of system time per random T=4 solve, until
    the thresholds adapt after a random number of solves.  That makes single
    solves swing by a quarter.  Pinning the thresholds starts the process in
    the adapted state, the steady state of a long-lived caller.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(M_TRIM_THRESHOLD, 256 << 20) and mallopt(M_MMAP_THRESHOLD, 32 << 20):
        return "glibc, trim and mmap thresholds pinned"
    return "default"


# -- bookkeeping ------------------------------------------------------------


class Ledger:
    """Attempted and failed operations.

    A failure is an exception from the library, a command-line exit code of 2
    or more, or a failed output gate.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a library error is a result to report, not a crash
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def gate(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, detail)

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {detail}")


class LayerCapture:
    """Keeps the value functions of the latest backward induction for hashing.

    Installed for the whole run, traced or not: one extra Python call per solve.
    """

    def __init__(self) -> None:
        self.latest = None
        original = solver.backward_induce

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self.latest = original(*args, **kwargs)
            return self.latest

        solver.backward_induce = capture

    def take(self):
        vf, self.latest = self.latest, None
        return vf


@dataclass
class PassResult:
    traced: bool
    complete: bool = True  # False when a deadline cut the pass short
    solve_s: float = 0.0
    certify_s: float = 0.0
    peak_rss_mb: float = 0.0  # process peak so far, read when the pass ends
    # "<instance>/<call>" -> wall times of that call in this pass
    times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    records: list[dict] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


def _bits(v: float) -> str:
    return float(v).hex()


def _shortfall(reference: float, replay: float) -> float:
    return max(0.0, reference - replay) / (1.0 + abs(reference))


def _layers_sha256(vf) -> str:
    digest = hashlib.sha256()
    for nid in sorted(vf.layers):
        digest.update(vf.layers[nid].values.tobytes())
        digest.update(vf.layers[nid].policy.tobytes())
    return digest.hexdigest()


def _wealth_pairs(t, strategy) -> list[tuple[int, float, float]]:
    """(leaf, explicit, recursive) terminal wealth on every leaf path."""
    out = []
    for leaf in t.leaves():
        path = t.extract_path(leaf.id).path
        trades = strategy.trades_to_leaf(t, leaf.id)
        explicit = dynamics.terminal_wealth_explicit(path, trades)
        recursive = dynamics.terminal_wealth_recursive(path, trades).xi
        out.append((leaf.id, explicit, recursive))
    return out


def machine(allocator: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _kernels.BACKEND,
        "allocator": allocator,
    }


# -- one pass ---------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.instances = workloads.build(workload, seed)
        for inst in self.instances:
            if inst.cli == "tree":
                inst.tree.save(workdir / f"{inst.name}-tree.json")
        self.ledger = Ledger()
        self.capture = LayerCapture()
        self.hashes: dict[str, str] = {}
        self.certify_repeats = workloads.CERTIFY_REPEATS[workload]
        # wall time of each instance's latest untraced solve-and-certify round
        self.round_s: dict[str, float] = {}

    def run_pass(self, tracer: Tracer | None = None, deadline: float | None = None) -> PassResult:
        """Solve and certify every instance; with a deadline, stop before the
        first instance whose last round would no longer fit."""
        res = PassResult(traced=tracer is not None)
        repeats = 1 if tracer is not None else self.certify_repeats
        if tracer is not None:
            tracer.request = "setup"
            workloads.build(self.workload, self.seed)
        for inst in self.instances:
            began = time.perf_counter()
            if deadline is not None and began + self.round_s.get(inst.name, 0.0) > deadline:
                res.complete = False
                break
            if tracer is not None:
                tracer.request = inst.name
            start = time.perf_counter()
            outcome = self._solve(inst)
            res.times[f"{inst.name}/solve"].append(time.perf_counter() - start)
            vf = self.capture.take()
            report = outcome if inst.cli is None else self._cli_report(inst, *outcome, res.counts)
            if report is None or vf is None:
                continue
            # every repeat runs the same calls and the gates check the first;
            # traced passes certify once, so per-layer figures are per certification
            cert = [self._certify(inst, res.times) for _ in range(repeats)]
            res.records.append(self._check(inst, report, vf, cert[0], res.counts))
            if tracer is None:
                self.round_s[inst.name] = time.perf_counter() - began
        res.solve_s = sum(sum(v) for k, v in res.times.items() if k.endswith("/solve"))
        res.certify_s = sum(sum(v) for k, v in res.times.items() if not k.endswith("/solve")) / repeats
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return res

    def _solve(self, inst):
        """A SolveReport from ``solve()``, or (exit code, report path) from the CLI."""
        if inst.cli is None:
            return self.ledger.call(f"{inst.name}: solve", solver.solve, inst.tree, inst.utility, workloads.Z)
        out = self.workdir / f"{inst.name}.json"
        out.unlink(missing_ok=True)
        if inst.cli == "gen":
            source = ["--gen", inst.name]
        else:
            source = ["--tree", str(self.workdir / f"{inst.name}-tree.json"), "--utility", inst.utility.describe()]
        return self.ledger.call(f"{inst.name}: cli solve", cli.main, ["solve", *source, "--out", str(out)]), out

    def _cli_report(self, inst, code, out: Path, counts: Counter):
        if code is None:
            return None
        counts["cli_exit_nonzero"] += code != 0
        if code >= 2:
            self.ledger.fail(f"{inst.name}: cli solve", f"exit code {code}")
            return None
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
            return solver.SolveReport(
                root_value=doc["root_value"],
                strategy=PredictableAssignment.from_report(doc["strategy"]),
                strategy_value=doc["strategy_value"],
                diagnostics=doc["diagnostics"],
            )
        except (OSError, ValueError, KeyError) as exc:
            self.ledger.fail(f"{inst.name}: cli report", f"{type(exc).__name__}: {exc}")
            return None

    def _certify(self, inst, times):
        """(brute force, history DP, exact DP on the coarse grid, exact DP on the fine grid)."""
        args = (inst.tree, inst.utility, workloads.Z)
        out = []
        for key, fn, grid in (
            ("brute force", oracle.brute_force_solve, inst.coarse),
            ("history dp", oracle.history_dp, inst.coarse),
            ("exact dp (coarse)", solver.exact_state_dp, inst.coarse.values),
            ("exact dp (fine)", solver.exact_state_dp, inst.fine),
        ):
            start = time.perf_counter()
            out.append(self.ledger.call(f"{inst.name}: {key}", fn, *args, grid))
            times[f"{inst.name}/{key}"].append(time.perf_counter() - start)
        return tuple(out)

    def _check(self, inst, report, vf, cert, counts: Counter) -> dict:
        """Run the output gates on one solve and return its record."""
        name, t, gate = inst.name, inst.tree, self.ledger.gate
        zero = PredictableAssignment({n: 0.0 for n in t.node_ids() if t.node(n).t < t.T})
        idle = self.ledger.call(f"{name}: idle evaluation", solver.evaluate_strategy, t, zero, inst.utility, workloads.Z)
        brute, hist, exact, fine = cert
        if brute is not None and hist is not None:
            same = _bits(brute.value) == _bits(hist.value) and (
                {k: _bits(v) for k, v in brute.strategy.values.items()}
                == {k: _bits(v) for k, v in hist.strategy.values.items()}
            )
            gate(f"{name}: brute force == history dp", same, f"{brute.value!r} vs {hist.value!r}")
        if exact is not None and hist is not None:
            close = math.isclose(exact[0], hist.value, rel_tol=EXACT_TOL, abs_tol=EXACT_TOL)
            gate(f"{name}: exact dp ~ history dp", close, f"{exact[0]!r} vs {hist.value!r}")
        for leaf, explicit, recursive in self.ledger.call(f"{name}: wealth forms", _wealth_pairs, t, report.strategy) or []:
            ok = abs(explicit - recursive) <= WEALTH_TOL * (1.0 + abs(explicit))
            counts["wealth_checks"] += 1
            counts["wealth_mismatches"] += not ok
            gate(f"{name}: wealth forms at leaf {leaf}", ok, f"{explicit!r} vs {recursive!r}")
        sha = _layers_sha256(vf)
        seen = self.hashes.setdefault(name, sha)
        gate(f"{name}: layer hash repeats across passes", sha == seen, f"{sha} vs {seen}")
        values = [report.root_value, report.strategy_value, idle]
        finite = idle is not None and all(math.isfinite(v) for v in values)
        gate(f"{name}: finite root, replay and idle values", finite, repr(values))

        diag = report.diagnostics
        counts["floor_values"] += sum(int(np.count_nonzero(g.values == _kernels.U_FLOOR)) for g in vf.layers.values())
        counts["layer_values"] += sum(g.values.size for g in vf.layers.values())
        counts["monotonicity_violations"] += int(diag["monotonicity_violations"])
        rec = {
            "instance": name,
            "root": report.root_value,
            "replay": report.strategy_value,
            "idle": idle,
            "oracle": brute.value if brute is not None else None,
            "oracle_fine": fine[0] if fine is not None else None,
            "value_gap": float(diag["value_gap"]),
            "value_gap_ok": bool(diag["value_gap_ok"]),
            "k_warnings": int(diag["k_warnings"]),
            "grid_states": vf.axes.xi.size * vf.axes.zeta.size * vf.axes.x.size,
            "layers_sha256": sha,
        }
        if finite:
            rec["idle_shortfall"] = _shortfall(idle, report.strategy_value)
            if brute is not None and math.isfinite(brute.value):
                rec["oracle_shortfall"] = _shortfall(brute.value, report.strategy_value)
        return rec

    def check_earlier_runs(self) -> None:
        """Gate: layer hashes equal those of earlier runs in this checkout."""
        store = OUT / "layer_hashes.json"
        known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
        for name, sha in sorted(self.hashes.items()):
            prev = known.setdefault(f"{self.workload}/{self.seed}/{name}", sha)
            self.ledger.gate(f"{name}: layer hash repeats across runs", prev == sha, f"{sha} vs {prev}")
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(store)


# -- metrics ----------------------------------------------------------------


def _quality(passes: list[PassResult], ledger: Ledger) -> dict:
    recs = [r for p in passes for r in p.records]
    return {
        "certified_share": (sum(r["value_gap_ok"] for r in recs) / len(recs) if recs else 0.0, "ratio"),
        "value_gap_max": (max((r["value_gap"] for r in recs), default=0.0), "ratio"),
        "idle_shortfall_max": (max((r.get("idle_shortfall", 0.0) for r in recs), default=0.0), "ratio"),
        "oracle_shortfall_max": (max((r.get("oracle_shortfall", 0.0) for r in recs), default=0.0), "ratio"),
        "failed_share": (ledger.failed / max(ledger.attempted, 1), "ratio"),
    }


def _sum_of_medians(passes: list[PassResult], solves: bool) -> float:
    """Per call, the median of its timed samples over the passes; then their sum.

    Each sample is short (one solve, or one oracle call), so a burst of load
    on the host spoils a few samples instead of a whole pass.
    """
    samples = defaultdict(list)
    for p in passes:
        for key, times in p.times.items():
            if key.endswith("/solve") == solves:
                samples[key] += times
    return sum(statistics.median(v) for v in samples.values())


def _end_to_end(passes, setup_times) -> dict:
    plain = [p for p in passes if not p.traced]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (_sum_of_medians(plain, solves=True), "s"),
        "certify_s": (_sum_of_medians(plain, solves=False), "s"),
        # the pinned allocator keeps the heap grown, so later passes can only
        # add fragmentation; the first pass holds every distinct allocation
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    }


def _per_layer(bench: Bench, tracer: Tracer, passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    lt = tracer.layer_times()
    k = tracer.counts

    def self_s(name):
        return lt["self_s"].get(name, 0.0) / n

    def calls(name):
        return lt["calls"].get(name, 0) / n

    def counted(key):
        return sum(p.counts[key] for p in traced) / n

    def ratio(num, den):
        return num / den if den else 0.0

    sweeps = [subtree_counts(i.tree) for i in bench.instances]
    sweep_nodes = sum(s for s, _ in sweeps)
    distinct = sum(d for _, d in sweeps)
    recs = traced[0].records
    solve_plain = statistics.median(p.solve_s for p in plain)
    solve_traced = statistics.median(p.solve_s for p in traced)
    m = {
        "tree.generate_s": (self_s("tree.generate"), "s"),
        "tree.validate_s": (self_s("tree.validate"), "s"),
        "tree.nodes": (sum(len(i.tree.node_ids()) for i in bench.instances), "count"),
        "tree.sweep_nodes": (sweep_nodes, "count"),
        "tree.distinct_subtrees": (distinct, "count"),
        "tree.distinct_share": (ratio(distinct, sweep_nodes), "ratio"),
    }
    for kern in ("forced_layer", "sweep_exact", "sweep_grid"):
        m[f"kernels.{kern}_s"] = (self_s(f"_kernels.{kern}"), "s")
        m[f"kernels.{kern}_calls"] = (calls(f"_kernels.{kern}"), "count")
    m.update({
        "kernels.states_swept": (k["_kernels.states_swept"] / n, "count"),
        "kernels.k_rounds_max": (k["_kernels.k_rounds_max"], "count"),
        "kernels.k_warnings": (k["_kernels.k_warnings"] / n, "count"),
        "kernels.interp_count": (k["_kernels.interp_count"] / n, "count"),
        "kernels.utility_evals": (k["_kernels.utility_evals"] / n, "count"),
        "kernels.ns_per_interp": (ratio(self_s("_kernels.sweep_grid") * 1e9, k["_kernels.interp_count"] / n), "ns"),
        "kernels.ns_per_utility_eval": (
            ratio(self_s("_kernels.sweep_exact") * 1e9, k["_kernels.utility_evals"] / n), "ns"),
        "solver.solve_s": (self_s("solver.solve"), "s"),
        "solver.backward_s": (self_s("solver.backward_induce"), "s"),
        "solver.forward_s": (self_s("solver.forward_extract"), "s"),
        "solver.evaluate_s": (self_s("solver.evaluate_strategy"), "s"),
        "solver.exact_state_dp_s": (self_s("solver.exact_state_dp"), "s"),
        "solver.grid_states": (max((r["grid_states"] for r in recs), default=0), "count"),
        "solver.floor_share": (ratio(counted("floor_values"), counted("layer_values")), "ratio"),
        "solver.monotonicity_violations": (counted("monotonicity_violations"), "count"),
        "oracle.brute_s": (self_s("oracle.brute_force_solve"), "s"),
        "oracle.brute_candidates": (k["oracle.brute_candidates"] / n, "count"),
        "oracle.history_s": (self_s("oracle.history_dp"), "s"),
        "oracle.history_evaluations": (k["oracle.history_evaluations"] / n, "count"),
        "oracle.us_per_candidate": (
            ratio(self_s("oracle.brute_force_solve") * 1e6, k["oracle.brute_candidates"] / n), "us"),
        "dynamics.wealth_checks": (counted("wealth_checks"), "count"),
        "dynamics.wealth_mismatches": (counted("wealth_mismatches"), "count"),
        "cli.main_s": (self_s("cli.main"), "s"),
        "cli.exit_nonzero": (counted("cli_exit_nonzero"), "count"),
        "trace.solve_s": (lt["solve_s"] / n, "s"),
        "trace.solve_layers_s": (lt["solve_layers_s"] / n, "s"),
        "trace.accounted_share": (ratio(lt["solve_layers_s"], lt["solve_s"]), "ratio"),
        "trace.overhead_s": (solve_traced - solve_plain, "s"),
        "trace.overhead_share": (ratio(solve_traced - solve_plain, solve_plain), "ratio"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    })
    return m


# -- entry point ------------------------------------------------------------


def _latest_records(passes: list[PassResult]) -> list[dict]:
    """The latest record of each instance (the last pass may be partial)."""
    return list({r["instance"]: r for p in passes for r in p.records}.values())


def _g(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def _print_report(args, info: dict, ledger: Ledger, passes: list[PassResult], sections: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  "
          + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{'instance':<18}{'root':>14}{'replay':>14}{'idle':>14}{'oracle':>14}{'gap':>9}  ok  kwarn  layers")
    for r in _latest_records(passes):
        print(f"{r['instance']:<18}{_g(r['root']):>14}{_g(r['replay']):>14}{_g(r['idle']):>14}{_g(r['oracle']):>14}"
              f"{r['value_gap']:>9.3g}  {'y' if r['value_gap_ok'] else 'n'}  {r['k_warnings']:>5}  {r['layers_sha256'][:16]}")
    for i, p in enumerate(passes):
        print(f"pass {i} {'traced' if p.traced else 'untraced'}: solve {p.solve_s:.4f} s  certify {p.certify_s:.4f} s")
    for title, metrics in sections.items():
        print(f"-- {title}")
        for name, (value, unit) in metrics.items():
            print(f"{name:<32}{value:>18.6g} {unit}")
    if args.trace:
        print("trace.overhead_share: traced minus untraced solve_s, over the untraced solve_s of this run")
    for line in ledger.failures:
        print(f"FAILED {line}")


def _run_passes(bench: Bench, tracer: Tracer | None, seconds: float, midway) -> list[PassResult]:
    """Closed loop: passes back to back while the next one still fits.

    With a tracer, odd-numbered passes are traced and the rest run untouched.
    Without one, whole passes run until MIN_PASSES are done; then passes go on
    instance by instance while the next instance's round still fits, so the
    last pass may be partial.  ``midway()`` runs once, after MIN_PASSES passes.
    """
    passes: list[PassResult] = []
    start = time.perf_counter()
    if tracer is None:
        for _ in range(MIN_PASSES):
            passes.append(bench.run_pass())
        midway()
        while True:
            res = bench.run_pass(deadline=start + seconds)
            if res.times:
                passes.append(res)
            if not res.complete:
                return passes
    while True:
        began = time.perf_counter()
        if tracer is not None and len(passes) % 2 == 1:
            tracer.install()
            try:
                passes.append(bench.run_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(bench.run_pass())
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - began) > seconds:
            return passes


def _run_workload(args) -> int:
    setup_times: list[float] = []

    def probe_batch() -> None:
        setup_times.extend(_measure_setup(args.workload, args.seed))

    probe_batch()
    info = machine(_pin_allocator())
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        bench = Bench(args.workload, args.seed, Path(workdir))
        passes = _run_passes(bench, tracer, args.seconds, midway=probe_batch)
    probe_batch()
    bench.check_earlier_runs()

    quality = _quality(passes, bench.ledger)
    if tracer is not None:
        reported = {**_per_layer(bench, tracer, passes), **quality}
        sections = {"per-layer": reported}
    else:
        reported = _end_to_end(passes, setup_times)
        sections = {"end-to-end": reported, "quality": quality}
    _print_report(args, info, bench.ledger, passes, sections)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "machine": info,
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_times,
        "passes": [
            {"traced": p.traced, "solve_s": p.solve_s, "certify_s": p.certify_s, "peak_rss_mb": p.peak_rss_mb,
             "times": p.times}
            for p in passes
        ],
        "instances": _latest_records(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**reported, **quality}.items()},
        "failures": bench.ledger.failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    ledger = bench.ledger
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    return _run_all(args) if args.workload == "all" else _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
