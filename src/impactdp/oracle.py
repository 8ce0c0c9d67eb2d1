"""Exhaustive reference solvers for small trees.

Two independent computations of the same maximum: ``brute_force_solve``
enumerates every strategy on a finite action grid and keeps the best, while
``history_dp`` maximizes node by node over trade histories.  Both are
subclasses of the evaluation walk ``solver._Walk`` that override only its
``decide`` step, so they run the same arithmetic, and expected value is
monotone in each subtree value, so the two values are equal to the last bit:
the ground truth the grid solver is tested against.  Both keep the first
maximum in ``solver._tie_key`` order, but of the root's float (brute force) or
each subtree's (``history_dp``), so their strategies can differ.

Enumeration does not replay the whole tree for every candidate.  Its walk
decides each (decision node, trade history) once, into an array over every
combination of the free trades in the node's subtree, and adds children's
arrays by broadcasting, entry by entry with the floats of the scalar walk.
The root's array thus holds every candidate's replay value, in enumeration
order, at 8 bytes a candidate; brute force keeps the first candidate, then
only a strictly greater value, so a NaN never wins after the first.

Both oracles, and ``enumerate_strategies``, decide only the free trades at
dates 0..T-2.  The exact-state walk of the forward pass,
``solver._exact_walk``, completes them to a strategy: it reads each free
trade off its node id (enumeration) or its node and trade history
(``history_dp``), and adds the forced closing trade at date T-1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .solver import _cara_shift, _exact_walk, _run_z, _tie_key, _Walk, evaluate_strategy
from .tree import PredictableAssignment, ScenarioTree
from .utility import UtilitySpec

__all__ = [
    "ActionGrid",
    "CapacityError",
    "OracleResult",
    "enumerate_strategies",
    "brute_force_solve",
    "history_dp",
    "oracles_agree",
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


def _completed(tree: ScenarioTree, free: Mapping[int, float]) -> PredictableAssignment:
    """The liquidating strategy that trades ``free[node id]`` at the
    free-choice nodes, completed by the exact-state walk's forced close."""
    return _exact_walk(tree, lambda node, xi, zeta, x, hs: free[node.id])


def _combos(tree: ScenarioTree, grid: ActionGrid, cap: int):
    """The free-choice node ids and an iterator over every tuple of their
    trades, in ``itertools.product`` order over the grid sorted by
    ``_tie_key``, so the tuples' key sequences increase; raises
    ``CapacityError`` if there are more than ``cap`` tuples."""
    ids = tree.decision_ids()
    count = len(grid) ** len(ids)
    if count > cap:
        raise CapacityError(
            f"{len(grid)}^{len(ids)} = {count} strategies exceeds the cap of {cap}"
        )
    return ids, itertools.product(sorted(grid.values, key=_tie_key), repeat=len(ids))


def enumerate_strategies(tree: ScenarioTree, grid: ActionGrid, cap: int = DEFAULT_CAP):
    """Yield every liquidating strategy with free trades drawn from ``grid``.

    Strategies come in lexicographic order of their (|h|, sign) key sequences
    over the free-choice nodes in id order, doing nothing first.  The count
    is ``len(grid) ** n`` over the ``n`` free-choice nodes; a count beyond
    ``cap`` raises ``CapacityError`` before any work is done.
    """
    ids, combos = _combos(tree, grid, cap)
    for combo in combos:
        yield _completed(tree, dict(zip(ids, combo)))


class _Scores(_Walk):
    """The walk of brute force: a decision node's value is one float64 array
    over every combination of the free trades in its subtree.

    The array has an axis per decision node, in ``tree.decision_ids()``
    order, of size ``len(grid)`` on the node's own axis and on its subtree's
    and 1 elsewhere; leading axes of size 1 may be left out, since NumPy
    broadcasts from the right.  Slot k of the node's own axis holds
    ``child_sum`` of the k-th trade in ``_tie_key`` order, written in as it
    is made.  ``child_sum`` adds its children's arrays by broadcasting, each
    entry with the floats of the scalar walk, so the root's array read in C
    order is every candidate's replay in ``_combos`` order.
    """

    def __init__(self, tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid) -> None:
        super().__init__(tree, u, z, {})
        ids = tree.decision_ids()
        self.order = sorted(grid.values, key=_tie_key)
        # the index that picks slot k of a node's axis reads (..., k, *after)
        self.after = {i: (slice(None),) * (len(ids) - 1 - a) for a, i in enumerate(ids)}

    def decide(self, node, rsums, deltas, hs, wealth):
        after = self.after[node.id]
        out = None
        for k, h in enumerate(self.order):
            part = self.child_sum(node, rsums, deltas, hs, wealth, h)
            if out is None:
                out = np.empty(np.broadcast_shapes(np.shape(part), (len(self.order),) + (1,) * len(after)))
            out[(..., slice(k, k + 1), *after)] = part
        return out


def _first_max(scores: np.ndarray) -> int:
    """The index a scan ends on that keeps the first candidate, and after it
    only a strictly greater value: 0 if ``scores[0]`` is NaN, else the first
    maximum among the values that are not NaN."""
    if math.isnan(scores[0]):
        return 0
    return int(np.argmax(scores == np.nanmax(scores)))


def brute_force_solve(
    tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid, cap: int = DEFAULT_CAP
) -> OracleResult:
    """Best strategy by full enumeration.

    Ties in value break toward the assignment whose (|h|, sign) key sequence
    over free-choice nodes in id order is lexicographically smallest, i.e.
    small trades first, then selling before buying: candidates come in that
    order and the first maximum is kept.  Under exponential utility the
    candidates are scored at z = 0 and the best value is scaled by
    exp(-alpha * z), as in the grid solver.

    One walk scores every candidate: each (decision node, trade history) is
    decided once, into an array over its subtree's trades (``_Scores``), and
    the root's array holds each candidate's score, the float a full replay of
    its strategy gives, in enumeration order.  It takes 8 bytes a candidate,
    about 80 MB at ``DEFAULT_CAP``.
    """
    ids, _ = _combos(tree, grid, cap)
    walk = _Scores(tree, u, _run_z(u, z), grid)
    with np.errstate(over="ignore"):
        scores = np.ravel(walk.root_value())
    i = _first_max(scores)
    picks = np.unravel_index(i, (len(grid),) * len(ids))
    best = {node: walk.order[k] for node, k in zip(ids, picks)}
    value = _cara_shift(u, float(scores[i]), z)
    return OracleResult(value=value, strategy=_completed(tree, best), candidates=scores.size)


class _Search(_Walk):
    """The walk of ``history_dp``: each free-choice node takes the first
    maximum over the grid in ``_tie_key`` order, given the trades made so
    far, and records it in ``choice`` under (node id, trade history)."""

    def __init__(self, tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid) -> None:
        super().__init__(tree, u, z, {})
        self.order = sorted(grid.values, key=_tie_key)
        self.choice: dict[tuple, float] = {}
        self.evaluations = 0

    def decide(self, node, rsums, deltas, hs, wealth):
        # 0.0 comes first, so it stands when no trade beats -inf
        best_v, best_h = -math.inf, 0.0
        for h in self.order:
            v = self.child_sum(node, rsums, deltas, hs, wealth, h)
            if v > best_v:
                best_v, best_h = v, h
        self.evaluations += len(self.order)
        self.choice[(node.id, hs)] = best_h
        return best_v


def history_dp(
    tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid
) -> OracleResult:
    """Best strategy by backward recursion over trade histories.

    Each free-choice node maximizes the conditional expected value over the
    grid given the exact trades made so far, keeping its first maximum in the
    (|h|, sign) order of enumeration.  Expected value is monotone in every
    subtree value and all arithmetic is shared with enumeration, so the
    returned value (not the strategy) matches ``brute_force_solve`` bit for
    bit, also under exponential utility, where both run at z = 0.
    """
    walk = _Search(tree, u, _run_z(u, z), grid)
    with np.errstate(over="ignore"):
        value = walk.root_value()
    # a child decides once per parent candidate, so choices are keyed by the
    # trade history, which the exact-state walk hands to its pick
    strategy = _exact_walk(tree, lambda node, xi, zeta, x, hs: walk.choice[(node.id, hs)])
    return OracleResult(value=_cara_shift(u, value, z), strategy=strategy, candidates=walk.evaluations)


def oracles_agree(tree: ScenarioTree, u: UtilitySpec, z: float, brute: OracleResult, dp: OracleResult) -> bool:
    """What ``brute_force_solve`` and ``history_dp`` on one grid guarantee:
    equal values, bit for bit, to which each strategy replays exactly through
    ``evaluate_strategy``, and brute force's (|h|, sign) key sequence over the
    decision nodes at most ``history_dp``'s.  The strategies may differ."""
    replays = [_cara_shift(u, evaluate_strategy(tree, r.strategy, u, _run_z(u, z)), z) for r in (brute, dp)]
    keys = [[_tie_key(r.strategy.trade_at(i)) for i in tree.decision_ids()] for r in (brute, dp)]
    return len({float(v).hex() for v in (brute.value, dp.value, *replays)}) == 1 and keys[0] <= keys[1]
