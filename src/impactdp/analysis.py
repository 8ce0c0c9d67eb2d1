"""Worked analyses: friction geometry, value-function kinks, Monte Carlo.

The textbook intuition that execution problems are convex fails here in two
places this module makes concrete.  First, the total friction cost of a trade
schedule is a quadratic in the trades that need not be positive semidefinite
once the impact depth varies over time, so averaging two schedules can cost
more than either.  Second, the best achievable expected utility as a function
of the cash endowment can have kinks where the optimal plan switches, so it
need not be concave even when the utility itself is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import MarketPath, terminal_wealth_explicit
from .solver import evaluate_strategy
from .tree import PredictableAssignment, ScenarioTree, generate, preset
from .utility import UtilitySpec

__all__ = [
    "friction_quadratic",
    "NonconvexityReport",
    "nonconvexity_demo",
    "IndirectUtilityReport",
    "indirect_utility_demo",
    "ConvexityProbeReport",
    "convexity_probe",
    "MonteCarloReport",
    "monte_carlo_eval",
]


def friction_quadratic(path: MarketPath, trades: Sequence[float]) -> float:
    """Total friction cost of a full trade schedule, with prices zeroed out.

    Friction means the spread payments alone; zeroing the prices removes the
    linear revenue terms and leaves -wealth, a quadratic form in the trades.
    """
    zeroed = replace(path, P=(0.0,) * (path.T + 1))
    return -terminal_wealth_explicit(zeroed, trades)


@dataclass(frozen=True)
class NonconvexityReport:
    point_a: tuple[float, float]
    point_b: tuple[float, float]
    midpoint: tuple[float, float]
    cost_a: float
    cost_b: float
    cost_midpoint: float
    average_cost: float
    margin: float

    @property
    def midpoint_convex(self) -> bool:
        return self.margin <= 0.0

    def to_dict(self) -> dict:
        return {
            "point_a": list(self.point_a),
            "point_b": list(self.point_b),
            "midpoint": list(self.midpoint),
            "cost_a": self.cost_a,
            "cost_b": self.cost_b,
            "cost_midpoint": self.cost_midpoint,
            "average_cost": self.average_cost,
            "margin": self.margin,
            "midpoint_convex": self.midpoint_convex,
        }


_DEMO_POINTS = ((1.0, 1.0), (1.5, 0.0))


def _schedule_cost(path: MarketPath, free: tuple[float, ...]) -> float:
    """Friction cost of the free trades followed by the closing trade."""
    return friction_quadratic(path, free + (-math.fsum(free),))


def nonconvexity_demo(
    point_a: tuple[float, float] = _DEMO_POINTS[0],
    point_b: tuple[float, float] = _DEMO_POINTS[1],
) -> NonconvexityReport:
    """Two liquidating schedules whose midpoint costs more than their average.

    Schedules are given by the two free trades; the third trade closes the
    position.  With the default points the costs are 4.7 and 4.725 but the
    midpoint schedule costs 4.79375, a margin of 0.08125 above the average.
    The market is the first path of ``notconvex``: depth 1, then 10, makes
    early trades dear and their impact linger, breaking semidefiniteness.
    """
    tree = generate(preset("notconvex"))
    path = tree.extract_path(tree.leaves()[0].id).path
    mid = ((point_a[0] + point_b[0]) / 2.0, (point_a[1] + point_b[1]) / 2.0)
    cost_a = _schedule_cost(path, point_a)
    cost_b = _schedule_cost(path, point_b)
    cost_mid = _schedule_cost(path, mid)
    average = (cost_a + cost_b) / 2.0
    return NonconvexityReport(
        point_a=point_a,
        point_b=point_b,
        midpoint=mid,
        cost_a=cost_a,
        cost_b=cost_b,
        cost_midpoint=cost_mid,
        average_cost=average,
        margin=cost_mid - average,
    )


@dataclass(frozen=True)
class IndirectUtilityReport:
    z: np.ndarray
    values: np.ndarray
    kink_at: float
    value_at_kink: float
    left_slope: float
    right_slope: float
    slope_gap: float
    kink_detected: bool

    def to_dict(self) -> dict:
        return {
            "z": [float(v) for v in self.z],
            "values": [float(v) for v in self.values],
            "kink_at": self.kink_at,
            "value_at_kink": self.value_at_kink,
            "left_slope": self.left_slope,
            "right_slope": self.right_slope,
            "slope_gap": self.slope_gap,
            "kink_detected": self.kink_detected,
        }


def _plan_sell_now(z: float) -> float:
    return math.log(z)


def _plan_split(z: float) -> float:
    return 0.5 * (math.log(z + 2.0) + math.log(z - 1.0))


def _best_plan(z: float) -> float:
    if z <= 1.0:
        return _plan_sell_now(z)
    return max(_plan_sell_now(z), _plan_split(z))


KINK_OFFSET = 1e-6
KINK_SLOPE_TOL = 1e-3


def indirect_utility_demo(
    z_lo: float = 1.25, z_hi: float = 3.0, count: int = 29
) -> IndirectUtilityReport:
    """Best-of-two-plans value of the endowment, with a kink at z = 2.

    The two plans are selling the whole position at once (log z) and an even
    50/50 gamble between finishing rich and finishing poor (the average of
    log(z+2) and log(z-1)).  They cross at z = 2 where both give log 2; the
    one-sided difference quotients there differ by more than the detection
    threshold, so the envelope of concave plans is not concave.
    """
    if not (z_lo > 1.0 and z_hi > z_lo):
        raise ValueError("need 1 < z_lo < z_hi")
    zs = np.linspace(z_lo, z_hi, count)
    if not np.any(zs == 2.0):
        zs = np.sort(np.append(zs, 2.0))
    values = np.array([_best_plan(float(z)) for z in zs])
    at = _best_plan(2.0)
    left = (at - _best_plan(2.0 - KINK_OFFSET)) / KINK_OFFSET
    right = (_best_plan(2.0 + KINK_OFFSET) - at) / KINK_OFFSET
    gap = right - left
    return IndirectUtilityReport(
        z=zs,
        values=values,
        kink_at=2.0,
        value_at_kink=at,
        left_slope=left,
        right_slope=right,
        slope_gap=gap,
        kink_detected=abs(gap) > KINK_SLOPE_TOL,
    )


@dataclass(frozen=True)
class ConvexityProbeReport:
    nonconvex: bool
    witness_a: tuple[float, ...] | None
    witness_b: tuple[float, ...] | None
    margin: float
    pairs_checked: int

    def to_dict(self) -> dict:
        return {
            "nonconvex": self.nonconvex,
            "witness_a": list(self.witness_a) if self.witness_a else None,
            "witness_b": list(self.witness_b) if self.witness_b else None,
            "margin": self.margin,
            "pairs_checked": self.pairs_checked,
        }


PROBE_TOL = 1e-12


def convexity_probe(
    tree: ScenarioTree,
    samples: int = 64,
    seed: int = 0,
) -> ConvexityProbeReport:
    """Search for a midpoint-convexity violation of the friction cost.

    Probes the quadratic friction cost along one market path of the tree
    (prices zeroed).  Checks random pairs of liquidating schedules, plus on
    three-date trees the pair of ``nonconvexity_demo``, and reports the first
    witness with margin above ``PROBE_TOL``.
    """
    leaf = tree.leaves()[0]
    path = tree.extract_path(leaf.id).path
    m = path.T - 1
    if m < 1:
        raise ValueError("need at least two dates to probe")
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs: list[tuple[tuple[float, ...], tuple[float, ...]]] = []
    if m == 2:
        pairs.append(_DEMO_POINTS)
    while len(pairs) < samples:
        a = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=m))
        b = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=m))
        pairs.append((a, b))

    checked = 0
    for a, b in pairs:
        checked += 1
        mid = tuple((x + y) / 2.0 for x, y in zip(a, b))
        margin = _schedule_cost(path, mid) - (_schedule_cost(path, a) + _schedule_cost(path, b)) / 2.0
        if margin > PROBE_TOL:
            return ConvexityProbeReport(True, a, b, margin, checked)
    return ConvexityProbeReport(False, None, None, 0.0, checked)


@dataclass(frozen=True)
class MonteCarloReport:
    estimate: float
    stderr: float
    n_samples: int
    seed: int
    exact: float

    @property
    def within_3_stderr(self) -> bool:
        return abs(self.estimate - self.exact) <= 3.0 * self.stderr

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "exact": self.exact,
            "within_3_stderr": self.within_3_stderr,
        }


def monte_carlo_eval(
    tree: ScenarioTree,
    assignment: PredictableAssignment,
    u: UtilitySpec,
    z: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> MonteCarloReport:
    """Sample-mean estimate of a strategy's expected utility.

    Draws leaves by path probability with a counter-based generator keyed by
    the seed, so runs are reproducible and independent across seeds.  The
    standard error uses the unbiased sample variance; the exact value from
    the deterministic walk is included for comparison.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    exact = evaluate_strategy(tree, assignment, u, z)
    leaves = tree.leaves()
    paths = [tree.extract_path(lf.id) for lf in leaves]
    probs = np.array([data.probability for data in paths])
    probs = probs / probs.sum()
    vals = np.empty(len(leaves))
    for i, (lf, data) in enumerate(zip(leaves, paths)):
        wealth = terminal_wealth_explicit(data.path, assignment.trades_to_leaf(tree, lf.id))
        vals[i] = u(z + wealth - data.endowment)
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.choice(len(leaves), size=n_samples, p=probs)
    draws = vals[idx]
    estimate = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(n_samples))
    return MonteCarloReport(
        estimate=estimate, stderr=stderr, n_samples=n_samples, seed=seed, exact=exact
    )
