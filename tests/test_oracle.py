"""Exhaustive oracles: action grids, enumeration, and oracle agreement."""

import math

import pytest

from impactdp.oracle import (
    ActionGrid,
    CapacityError,
    brute_force_solve,
    enumerate_strategies,
    history_dp,
)
from impactdp.solver import evaluate_strategy
from impactdp.tree import GeneratorSpec, generate, preset
from impactdp.utility import capped_linear, exponential


GRID5 = ActionGrid((-1.0, -0.5, 0.0, 0.5, 1.0))


# -- action grids ------------------------------------------------------------


def test_action_grid_sorts_and_freezes():
    g = ActionGrid((1.0, -1.0, 0.0))
    assert list(g) == [-1.0, 0.0, 1.0]
    assert len(g) == 3


@pytest.mark.parametrize(
    "values, message",
    [
        ((), "nonempty"),
        ((0.0, math.inf), "finite"),
        ((0.0, math.nan), "finite"),
        ((0.0, 1.0, 1.0), "distinct"),
        ((-1.0, 1.0), "contain 0.0"),
    ],
)
def test_action_grid_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        ActionGrid(values)


def test_action_grid_from_text():
    g = ActionGrid.from_text(" -1, 0.5,0, 1 ")
    assert list(g) == [-1.0, 0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="empty"):
        ActionGrid.from_text("  ")
    with pytest.raises(ValueError, match="contain 0.0"):
        ActionGrid.from_text("0.5,1")


# -- enumeration -------------------------------------------------------------


def test_enumeration_count_and_liquidation():
    tree = generate(preset("binomial"))  # T = 3: three free-choice nodes
    strategies = list(enumerate_strategies(tree, ActionGrid((-0.5, 0.0, 0.5))))
    assert len(strategies) == 3 ** len(tree.decision_ids()) == 27
    for s in strategies:
        assert s.is_complete(tree)
        assert s.is_liquidating(tree)
    # every distinct free-trade combination appears exactly once
    keys = {tuple(s.values[i] for i in tree.decision_ids()) for s in strategies}
    assert len(keys) == 27


def test_enumeration_respects_the_cap_before_any_work():
    tree = generate(preset("binomial"))
    n_free = len(tree.decision_ids())
    gen = enumerate_strategies(tree, GRID5, cap=len(GRID5) ** n_free - 1)
    with pytest.raises(CapacityError, match="exceeds the cap"):
        next(gen)
    # exactly at the cap is allowed
    ok = enumerate_strategies(tree, GRID5, cap=len(GRID5) ** n_free)
    assert sum(1 for _ in ok) == len(GRID5) ** n_free


def test_brute_force_propagates_capacity_error():
    tree = generate(GeneratorSpec(kind="binomial", T=5, resilience=0.1, zeta0=0.0))
    with pytest.raises(CapacityError):
        brute_force_solve(tree, exponential(1.0), 0.0, GRID5, cap=1000)


# -- oracle agreement --------------------------------------------------------


@pytest.mark.parametrize("name", ["det-example", "zero-price", "binomial", "notconvex"])
def test_history_dp_matches_brute_force_bitwise(name):
    tree = generate(preset(name))
    u = exponential(1.0)
    brute = brute_force_solve(tree, u, 0.0, GRID5)
    dp = history_dp(tree, u, 0.0, GRID5)
    assert dp.value == brute.value  # exact equality, same arithmetic walk
    assert dp.strategy.values == brute.strategy.values
    assert brute.candidates == len(GRID5) ** len(tree.decision_ids())


def test_oracle_value_is_the_exact_evaluation_of_its_strategy():
    tree = generate(preset("binomial"))
    u = capped_linear(10.0)
    res = brute_force_solve(tree, u, 0.25, GRID5)
    assert evaluate_strategy(tree, res.strategy, u, 0.25) == res.value


def test_tie_break_prefers_doing_nothing():
    # a flat zero-price market makes every closed strategy cost something
    # except never trading; with equal values the all-zero strategy must win
    spec = GeneratorSpec(kind="binomial", T=2, p0=0.0, step=0.0, resilience=0.0, zeta0=0.0)
    tree = generate(spec)
    res = brute_force_solve(tree, exponential(1.0), 0.0, GRID5)
    assert all(v == 0.0 for v in res.strategy.values.values())
    assert res.value == exponential(1.0)(0.0) == -1.0


def test_tie_break_prefers_selling_between_equal_magnitudes():
    # flat utility far above water makes every trade in the grid equally good;
    # ties then resolve by |h| first and selling before buying
    spec = GeneratorSpec(kind="deterministic", T=2, prices=(0.0, 0.0, 0.0), resilience=0.0, zeta0=0.0)
    tree = generate(spec)
    u = capped_linear(-100.0)  # u(w) = min(w, -100): constant for small trades
    res = brute_force_solve(tree, u, 0.0, ActionGrid((-0.5, 0.5, 0.0)))
    assert res.value == -100.0
    assert res.strategy.trade_at(0) == 0.0  # smallest magnitude wins the tie
    # with zero excluded by construction impossible, compare the key order
    from impactdp.solver import _tie_key

    assert _tie_key(-0.5) < _tie_key(0.5)  # selling sorts ahead of buying at equal magnitude
    assert _tie_key(0.0) < _tie_key(-0.5)


def test_history_dp_evaluation_count():
    # each free-choice node runs one grid scan per distinct trade history
    # above it, i.e. len(grid)**t histories, each scanning len(grid) actions
    for name in ("binomial", "notconvex"):
        tree = generate(preset(name))
        dp = history_dp(tree, exponential(1.0), 0.0, GRID5)
        want = sum(len(GRID5) ** (tree.node(i).t + 1) for i in tree.decision_ids())
        assert dp.candidates == want
