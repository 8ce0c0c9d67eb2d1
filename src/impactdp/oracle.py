"""Exhaustive reference solvers for small trees.

Two independent computations of the same maximum: ``brute_force_solve``
enumerates every strategy on a finite action grid and keeps the best, while
``history_dp`` maximizes node by node over trade histories.  Both run their
arithmetic through the shared evaluation walk in :mod:`.solver`, and expected
value is monotone in each subtree value, so the two results are equal to the
last bit, not merely to a tolerance.  That identity is the ground truth the
grid solver is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import closing_trade
from .solver import _cara_shift, _child_sum, _node_value, _replay, _run_z, _tie_key
from .tree import PredictableAssignment, ScenarioTree
from .utility import UtilitySpec

__all__ = [
    "ActionGrid",
    "CapacityError",
    "OracleResult",
    "enumerate_strategies",
    "brute_force_solve",
    "history_dp",
]

DEFAULT_CAP = 10_000_000


class CapacityError(RuntimeError):
    """Raised when an enumeration would exceed the candidate cap."""


@dataclass(frozen=True)
class ActionGrid:
    """Finite set of admissible free trades; must contain an exact 0.0."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("action grid must be nonempty")
        for v in vals:
            if not math.isfinite(v):
                raise ValueError("action grid entries must be finite")
        if len(set(vals)) != len(vals):
            raise ValueError("action grid entries must be distinct")
        if 0.0 not in vals:
            raise ValueError("action grid must contain 0.0 so doing nothing is admissible")
        object.__setattr__(self, "values", tuple(sorted(vals)))

    @classmethod
    def from_text(cls, text: str) -> "ActionGrid":
        """Parse a comma-separated list such as ``-1,-0.5,0,0.5,1``."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty action grid text")
        return cls(tuple(float(p) for p in parts))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class OracleResult:
    value: float
    strategy: PredictableAssignment
    candidates: int


def _closure_values(tree: ScenarioTree, decided: dict[int, float]) -> dict[int, float]:
    """Extend free trades with the forced closing trade at every date-(T-1) node."""
    values = dict(decided)
    for node in tree.nodes_at(tree.T - 1):
        hs = tuple(values[a.id] for a in tree.parent_chain(node.id)[:-1])
        values[node.id] = closing_trade(hs)
    return values


def enumerate_strategies(tree: ScenarioTree, grid: ActionGrid, cap: int = DEFAULT_CAP):
    """Yield every liquidating strategy with free trades drawn from ``grid``.

    The count is ``len(grid) ** n`` over the ``n`` free-choice nodes; a count
    beyond ``cap`` raises ``CapacityError`` before any work is done.
    """
    ids = tree.decision_ids()
    count = len(grid) ** len(ids)
    if count > cap:
        raise CapacityError(
            f"{len(grid)}^{len(ids)} = {count} strategies exceeds the cap of {cap}"
        )
    for combo in itertools.product(grid.values, repeat=len(ids)):
        yield PredictableAssignment(_closure_values(tree, dict(zip(ids, combo))))


def brute_force_solve(
    tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid, cap: int = DEFAULT_CAP
) -> OracleResult:
    """Best strategy by full enumeration.

    Ties in value break toward the assignment whose (|h|, sign) key sequence
    over free-choice nodes in id order is lexicographically smallest, i.e.
    small trades first, then selling before buying.  Under exponential
    utility the candidates are scored at z = 0 and the best value is scaled
    by exp(-alpha * z), as in the grid solver.
    """
    z_run = _run_z(u, z)
    best_v = -math.inf
    best: PredictableAssignment | None = None
    best_key: tuple | None = None
    n = 0
    ids = tree.decision_ids()
    with np.errstate(over="ignore"):
        for assignment in enumerate_strategies(tree, grid, cap):
            n += 1
            v = _replay(tree, assignment, u, z_run)
            key = tuple(_tie_key(assignment.values[i]) for i in ids)
            if best is None or v > best_v or (v == best_v and key < best_key):
                best_v = v
                best = assignment
                best_key = key
    return OracleResult(value=_cara_shift(u, best_v, z), strategy=best, candidates=n)


def history_dp(
    tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid
) -> OracleResult:
    """Best strategy by backward recursion over trade histories.

    Each free-choice node maximizes the conditional expected value over the
    grid given the exact trades made so far, with the same (|h|, sign)
    tie-break as enumeration.  Expected value is monotone in every subtree
    value and all arithmetic is shared with enumeration, so the returned value
    matches ``brute_force_solve`` bit for bit, also under exponential utility,
    where both run at z = 0 and scale the value the same way.
    """
    z_run = _run_z(u, z)
    choice: dict[tuple, float] = {}
    evaluations = 0

    def decide(node, rsums, deltas, hs, wealth):
        nonlocal evaluations
        best_v = -math.inf
        best_h = 0.0
        best_key = (math.inf, 2)
        for h in grid.values:
            evaluations += 1
            v = _child_sum(tree, node, rsums, deltas, hs, wealth, h, u, z_run, decide)
            key = _tie_key(h)
            if v > best_v or (v == best_v and key < best_key):
                best_v = v
                best_h = h
                best_key = key
        choice[(node.id, hs)] = best_h
        return best_v

    with np.errstate(over="ignore"):
        value = _node_value(tree, tree.root, (0.0,), (), (), 0.0, u, z_run, decide)

    # a child's decide runs once per parent candidate, so choices are keyed by
    # history; replay the argmax path to read off the strategy
    chosen: dict[int, float] = {}

    def extract(node, hs):
        if node.t == tree.T:
            return
        h = closing_trade(hs) if node.t == tree.T - 1 else choice[(node.id, hs)]
        chosen[node.id] = h
        for child in tree.children(node.id):
            extract(child, hs + (h,))

    extract(tree.root, ())
    # decide and extract reach themselves through their closure cells; emptying
    # the cells breaks those cycles, so the tables go with this frame
    del decide, extract
    return OracleResult(value=_cara_shift(u, value, z), strategy=PredictableAssignment(chosen), candidates=evaluations)
