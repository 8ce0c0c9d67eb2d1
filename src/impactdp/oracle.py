"""Exhaustive reference solvers for small trees.

Two independent computations of the same maximum: ``brute_force_solve``
enumerates every strategy on a finite action grid and keeps the best, while
``history_dp`` maximizes node by node over trade histories.  Both are
subclasses of the evaluation walk ``solver._Walk`` that override only its
``decide`` step, so they run the same arithmetic, and expected value is
monotone in each subtree value, so the two results are equal to the last bit,
not merely to a tolerance.  Both scan trades in ``solver._tie_key`` order and
keep the first maximum, so they also break ties alike.  That identity is the
ground truth the grid solver is tested against.

Enumeration does not replay the whole tree for every candidate.  Below the
root, a subtree's value is a function of its node, the trade history above it
and the trades at the decision nodes inside it: the node fixes the path data
and the history fixes the wealth, so brute force computes each such value once
and reuses the float for every later candidate that shares the key.  The
reused value is the one a full replay would compute again, so the bits cannot
change.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from .dynamics import closing_trade
from .solver import _cara_shift, _Replay, _run_z, _tie_key, _Walk
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


def _closing_chains(tree: ScenarioTree) -> list[tuple[int, tuple[int, ...]]]:
    """Each date-(T-1) node's id with the ids of its ancestors, root first."""
    return [
        (node.id, tuple(a.id for a in tree.parent_chain(node.id)[:-1]))
        for node in tree.nodes_at(tree.T - 1)
    ]


def _closure_values(chains: list[tuple[int, tuple[int, ...]]], decided: dict[int, float]) -> dict[int, float]:
    """Extend free trades with the forced closing trade at every date-(T-1)
    node; ``chains`` is ``_closing_chains(tree)``."""
    values = dict(decided)
    for node_id, ancestors in chains:
        values[node_id] = closing_trade(tuple(values[a] for a in ancestors))
    return values


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
    chains = _closing_chains(tree)
    for combo in combos:
        yield PredictableAssignment(_closure_values(chains, dict(zip(ids, combo))))


class _Reuse(_Replay):
    """The walk of brute force: one ``_Replay`` for all candidates, whose
    ``trades`` are set to each candidate's free trades in turn, and which
    remembers the subtree values it computes.

    ``subtree`` maps a node whose key can recur to a getter of the trades at
    the decision nodes of its subtree; the key is (node id, trade history,
    those trades).  A key recurs only if some decision node is neither above
    nor below the node, so the root and the nodes of a chain are not kept.
    """

    def __init__(self, tree: ScenarioTree, u: UtilitySpec, z: float, subtree: Mapping[int, Callable]) -> None:
        super().__init__(tree, u, z, {})
        self.subtree = subtree
        self.memo: dict[tuple, float] = {}

    def decide(self, node, rsums, deltas, hs, wealth):
        get = self.subtree.get(node.id)
        if get is None:
            return _Replay.decide(self, node, rsums, deltas, hs, wealth)
        key = (node.id, hs, get(self.trades))
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = _Replay.decide(self, node, rsums, deltas, hs, wealth)
        return v


def _scores(tree: ScenarioTree, grid: ActionGrid, u: UtilitySpec, z: float, cap: int):
    """Yield each candidate's free trades, by node id in id order, with its
    value at endowment ``z``: the float ``solver._replay`` gives the
    candidate's strategy.  Candidates come in ``_combos`` order."""
    ids, combos = _combos(tree, grid, cap)
    chains = {i: [a.id for a in tree.parent_chain(i)] for i in ids}
    below = {i: [d for d in ids if i in chains[d]] for i in ids}
    # a key recurs when ancestors and subtree leave out some decision node
    subtree = {i: itemgetter(*below[i]) for i in ids if len(chains[i]) - 1 + len(below[i]) < len(ids)}
    walk = _Reuse(tree, u, z, subtree)
    for combo in combos:
        walk.trades = dict(zip(ids, combo))
        yield walk.trades, walk.root_value()


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

    Each subtree value below the root is computed once per (node, trade
    history, trades inside the subtree) and reused by the later candidates
    that share it.  The node fixes the path data and the history fixes the
    wealth, so the reused float is the one a full replay of the candidate
    would compute again, and every score is that replay's, bit for bit.
    """
    best_v = -math.inf
    best: dict[int, float] | None = None
    n = 0
    with np.errstate(over="ignore"):
        for trades, v in _scores(tree, grid, u, _run_z(u, z), cap):
            n += 1
            if best is None or v > best_v:
                best_v = v
                best = trades
    strategy = PredictableAssignment(_closure_values(_closing_chains(tree), best))
    return OracleResult(value=_cara_shift(u, best_v, z), strategy=strategy, candidates=n)


class _Search(_Walk):
    """The walk of ``history_dp``: each free-choice node takes the first
    maximum over the grid in ``_tie_key`` order, given the trades made so
    far, and records it in ``choice`` under (node id, trade history)."""

    def __init__(self, tree: ScenarioTree, u: UtilitySpec, z: float, grid: ActionGrid) -> None:
        super().__init__(tree, u, z)
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
    grid given the exact trades made so far, with the same (|h|, sign)
    tie-break as enumeration.  Expected value is monotone in every subtree
    value and all arithmetic is shared with enumeration, so the returned value
    matches ``brute_force_solve`` bit for bit, also under exponential utility,
    where both run at z = 0 and scale the value the same way.
    """
    walk = _Search(tree, u, _run_z(u, z), grid)
    with np.errstate(over="ignore"):
        value = walk.root_value()
    # a child decides once per parent candidate, so choices are keyed by
    # history; read the argmax path off them, parents first
    chosen: dict[int, float] = {}
    for t in range(tree.T - 1):
        for node in tree.nodes_at(t):
            hs = tuple(chosen[a.id] for a in tree.parent_chain(node.id)[:-1])
            chosen[node.id] = walk.choice[(node.id, hs)]
    strategy = PredictableAssignment(_closure_values(_closing_chains(tree), chosen))
    return OracleResult(value=_cara_shift(u, value, z), strategy=strategy, candidates=walk.evaluations)
