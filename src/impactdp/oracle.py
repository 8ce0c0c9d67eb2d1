"""Exhaustive reference solvers for small trees.

Two independent computations of the same maximum: ``brute_force_solve``
enumerates every strategy on a finite action grid and keeps the best, while
``history_dp`` maximizes node by node over trade histories.  Both run on the
evaluation walk ``solver._Walk``, ``history_dp`` through a subclass that
overrides only its ``decide`` step, so they run the same arithmetic, and
expected value is monotone in each subtree value, so the two values are equal
to the last bit: the ground truth the grid solver is tested against.  Both
keep the first maximum in ``solver._tie_key`` order, but of the root's float
(brute force) or each subtree's (``history_dp``), so their strategies can
differ.

Neither replays the tree per candidate or per trade history: one visit per
node scores every history.  Each decision node trades its whole grid, in
``_tie_key`` order, on an axis of its own, with size 1 on every other axis,
and the walk's arithmetic broadcasts, entry by entry with the floats of a
walk that plays one history alone.  Brute force gives decision node a the
axis a of ``tree.decision_ids()`` and keeps every axis, so the root's value,
read in C order, is every candidate's replay value in enumeration order, at 8
bytes a candidate; it keeps the first candidate, then only a strictly greater
value, so a NaN never wins after the first.  ``history_dp`` gives a date-t
node the axis t and reduces it at the node, so a node's arrays run over its
ancestors' trades only.

Both oracles, and ``enumerate_strategies``, decide only the free trades at
dates 0..T-2.  The exact-state walk of the forward pass,
``solver._exact_walk``, completes them to a strategy: it reads each free
trade off its node id (enumeration) or, as the slots of its node's trade
history, off the node's choices (``history_dp``), and adds the forced closing
trade at date T-1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _kernels
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
    """Raised when an oracle would exceed the candidate cap."""


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


def _on_axes(order: list, axis: Mapping[int, int]) -> tuple[dict, dict]:
    """Each decision node's axis and its trades ``order`` as an array on that
    axis, of size 1 on every other.  A one-trade grid puts every node on axis
    0, since NumPy holds at most 64 axes and all would be of size 1."""
    if len(order) == 1:
        axis = dict.fromkeys(axis, 0)
    ndim = max(axis.values(), default=-1) + 1
    return axis, {n: np.array(order).reshape((1,) * a + (-1,) + (1,) * (ndim - 1 - a)) for n, a in axis.items()}


def _scores(tree: ScenarioTree, u: UtilitySpec, z: float, ids: list, order: list) -> np.ndarray:
    """Every candidate's score in ``_combos`` order: the root value of the
    walk in which decision node ``ids[a]`` trades ``order`` on axis a, read
    in C order."""
    _, trades = _on_axes(order, {i: a for a, i in enumerate(ids)})
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ravel(_Walk(tree, u, z, trades).root_value())


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

    One walk scores every candidate, with one visit per node: decision node
    a trades the whole grid, in ``_tie_key`` order, on axis a of
    ``tree.decision_ids()``, so the root's value is an array with an axis per
    decision node that, read in C order, holds each candidate's score, the
    float a full replay of its strategy gives, in enumeration order.  It
    takes 8 bytes a candidate, about 80 MB at ``DEFAULT_CAP``.
    """
    ids, _ = _combos(tree, grid, cap)
    order = sorted(grid.values, key=_tie_key)
    scores = _scores(tree, u, _run_z(u, z), ids, order)
    i = _first_max(scores)
    # candidate i trades slot (i // n**(D-1-a)) % n at decision node a
    n, D = len(order), len(ids)
    best = {node: order[i // n ** (D - 1 - a) % n] for a, node in enumerate(ids)}
    value = _cara_shift(u, float(scores[i]), z)
    return OracleResult(value=value, strategy=_completed(tree, best), candidates=scores.size)


class _Search(_Walk):
    """The walk of ``history_dp``: a decision node at date t trades the grid,
    in ``_tie_key`` order, on axis t of T-1, so its scores run over every
    trade history above it and over its own trade.  For each history it keeps
    the first trade that beats -inf and every earlier trade (the kernels'
    ``_scan`` behind a row of -inf), records that trade's slot, or -1 where
    none does, in ``choice[node id]``, flat over the histories in C order, and
    returns the kept scores with a size-1 axis t (axis 0 for a one-trade
    grid, see ``_on_axes``)."""

    def __init__(self, tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid) -> None:
        self.order = sorted(grid.values, key=_tie_key)
        self.axis, trades = _on_axes(self.order, {i: tree.node(i).t for i in tree.decision_ids()})
        super().__init__(tree, u, z, trades)
        self.choice: dict[int, np.ndarray] = {}
        self.evaluations = 0

    def decide(self, node, rsums, deltas, hs, wealth):
        a = self.axis[node.id]
        scores = super().decide(node, rsums, deltas, hs, wealth)
        rows = (scores[(slice(None),) * a + (slice(k, k + 1),)] for k in range(len(self.order)))
        floor = np.full(scores.shape[:a] + (1,) + scores.shape[a + 1 :], -math.inf)
        best_v, best_k = _kernels._scan(itertools.chain([floor], rows), range(-1, len(self.order)))
        self.choice[node.id] = best_k.ravel()
        self.evaluations += scores.size
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
    bit, also under exponential utility, where both run at z = 0.  One visit
    per node decides every trade history at once (``_Search``), so its widest
    arrays, at dates T-2 and T-1, hold ``len(grid) ** (T - 1)`` floats; a
    count beyond enumeration's ``DEFAULT_CAP`` raises ``CapacityError``
    before any work is done.
    """
    widest = len(grid) ** max(tree.T - 1, 0)
    if widest > DEFAULT_CAP:
        raise CapacityError(f"{len(grid)}^{tree.T - 1} = {widest} trade histories exceeds the cap of {DEFAULT_CAP}")
    walk = _Search(tree, u, _run_z(u, z), grid)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.ravel(walk.root_value())[0])
    # the exact-state walk hands each node its trade history, read back as
    # slots; slot -1, where no trade beat -inf, trades 0.0, the first in order
    order, choice = walk.order, walk.choice
    slot = {h: k for k, h in enumerate(order)}
    trades = (*order, 0.0)

    def pick(node, xi, zeta, x, hs):
        i = 0
        for h in hs:
            i = i * len(order) + slot[h]
        return trades[choice[node.id][i]]

    strategy = _exact_walk(tree, pick)
    return OracleResult(value=_cara_shift(u, value, z), strategy=strategy, candidates=walk.evaluations)


def oracles_agree(tree: ScenarioTree, u: UtilitySpec, z: float, brute: OracleResult, dp: OracleResult) -> bool:
    """What ``brute_force_solve`` and ``history_dp`` on one grid guarantee:
    equal values, bit for bit, to which each strategy replays exactly through
    ``evaluate_strategy``, and brute force's (|h|, sign) key sequence over the
    decision nodes at most ``history_dp``'s.  The strategies may differ."""
    replays = [_cara_shift(u, evaluate_strategy(tree, r.strategy, u, _run_z(u, z)), z) for r in (brute, dp)]
    keys = [[_tie_key(r.strategy.trade_at(i)) for i in tree.decision_ids()] for r in (brute, dp)]
    return len({float(v).hex() for v in (brute.value, dp.value, *replays)}) == 1 and keys[0] <= keys[1]
