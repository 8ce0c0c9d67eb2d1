"""Spans and counters recorded around the library's public functions.

``Tracer.install`` replaces each traced function at the module attribute its
caller looks up (``solver.backward_induce`` for ``solve``, ``cli.solve`` for
the command line, ``_kernels.sweep_grid`` for the solver, ``workloads.generate``
for the benchmark's own tree building) and ``uninstall``
puts the originals back, so untraced passes run the library untouched.  Spans
(name, start, end, parent, request) stay in memory until the run ends.  A
span's self time is its duration minus the time its child spans cover; calls
are sequential, so that is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from impactdp import _kernels, cli, dynamics, oracle, solver, tree

import workloads

# span name -> (owner, attribute) pairs wrapped under that name
_TARGETS = {
    "tree.generate": [(workloads, "generate"), (cli, "generate"), (tree.ScenarioTree, "__init__")],
    "tree.validate": [(tree.ScenarioTree, "validate")],
    "solver.solve": [(solver, "solve"), (cli, "solve")],
    "solver.backward_induce": [(solver, "backward_induce")],
    "solver.forward_extract": [(solver, "forward_extract")],
    "solver.evaluate_strategy": [(solver, "evaluate_strategy"), (cli, "evaluate_strategy")],
    "solver.exact_state_dp": [(solver, "exact_state_dp")],
    "_kernels.forced_layer": [(_kernels, "forced_layer")],
    "_kernels.sweep_exact": [(_kernels, "sweep_exact")],
    "_kernels.sweep_grid": [(_kernels, "sweep_grid")],
    "oracle.brute_force_solve": [(oracle, "brute_force_solve"), (cli, "brute_force_solve")],
    "oracle.history_dp": [(oracle, "history_dp"), (cli, "history_dp")],
    "dynamics.terminal_wealth_explicit": [(dynamics, "terminal_wealth_explicit")],
    "dynamics.terminal_wealth_recursive": [(dynamics, "terminal_wealth_recursive")],
    "cli.main": [(cli, "main")],
}

# root spans whose durations make up the traced solve time
SOLVE_ROOTS = ("solver.solve", "cli.main")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str


def _sweep_counts(counts: Counter, result, states: int, fanout: int, n_act: int, work_key: str) -> None:
    """Tally one sweep from its returned expansion counts and warnings.

    A sweep evaluates every state at h = 0, at +-K for each bound-search round
    plus the final one, and at every other action of the shared scan; each
    evaluation touches ``fanout`` children (interpolations) or leaves
    (utility evaluations).
    """
    _, _, nexp, warn = result
    rounds = int(nexp.max())
    counts["_kernels.states_swept"] += states
    counts[work_key] += states * fanout * (2 * rounds + 2 + n_act)
    counts["_kernels.k_rounds_max"] = max(counts["_kernels.k_rounds_max"], rounds)
    counts["_kernels.k_warnings"] += int(warn.sum())


def _on_sweep_grid(counts, args, result):
    xg, zg, xxg, cp, n_act = args[0], args[1], args[2], args[4], args[14]
    _sweep_counts(counts, result, xg.size * zg.size * xxg.size, cp.shape[0], n_act, "_kernels.interp_count")


def _on_sweep_exact(counts, args, result):
    xg, zg, xxg, gp, n_act = args[0], args[1], args[2], args[9], args[21]
    _sweep_counts(counts, result, xg.size * zg.size * xxg.size, gp.shape[0], n_act, "_kernels.utility_evals")


def _on_oracle(key):
    def tally(counts, args, result):
        counts[key] += result.candidates

    return tally


_ON_RETURN = {
    "_kernels.sweep_grid": _on_sweep_grid,
    "_kernels.sweep_exact": _on_sweep_exact,
    "oracle.brute_force_solve": _on_oracle("oracle.brute_candidates"),
    "oracle.history_dp": _on_oracle("oracle.history_evaluations"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, targets in _TARGETS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, original):
        on_return = _ON_RETURN.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_times(self) -> dict:
        """Self time and call count per span name, plus the solve accounting.

        ``solve_s`` sums the durations of root spans that are solves (library
        or command line); ``solve_layers_s`` sums the self times of every span
        inside them, which must give the same total.
        """
        own = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for s, t in zip(self.spans, own):
            self_s[s.name] += t
            calls[s.name] += 1
        root_of: list[int] = []
        for i, s in enumerate(self.spans):
            root_of.append(i if s.parent is None else root_of[s.parent])
        solve_roots = {i for i, s in enumerate(self.spans) if s.parent is None and s.name in SOLVE_ROOTS}
        solve_s = sum(self.spans[i].end - self.spans[i].start for i in solve_roots)
        solve_layers_s = sum(t for i, t in enumerate(own) if root_of[i] in solve_roots)
        return {"self_s": dict(self_s), "calls": dict(calls), "solve_s": solve_s, "solve_layers_s": solve_layers_s}

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "request": s.request}
            for s in self.spans
        ]


def subtree_counts(t: tree.ScenarioTree) -> tuple[int, int]:
    """(sweep nodes, distinct subtrees among them).

    A node's value grid depends only on its own resilience and on its
    children's (p, P, delta, B) and subtrees, so the bottom-up signature below,
    built from exact floats, identifies nodes that would get identical grids.
    Sweep nodes are those at dates 0..T-2.
    """
    sig: dict[int, tuple] = {}
    for date in range(t.T, -1, -1):
        for node in t.nodes_at(date):
            kids = tuple((k.p, k.P, k.delta, k.B, sig[k.id]) for k in t.children(node.id))
            sig[node.id] = (node.r, kids)
    sweep = [sig[n] for n in t.node_ids() if t.node(n).t <= t.T - 2]
    return len(sweep), len(set(sweep))
