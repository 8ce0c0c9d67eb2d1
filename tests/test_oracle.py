"""Exhaustive oracles: action grids, enumeration, and oracle agreement."""

import gc
import math
from collections import Counter

import numpy as np
import pytest

import impactdp.oracle as oracle
import impactdp.solver as solver_module
from impactdp.oracle import (
    ActionGrid,
    CapacityError,
    brute_force_solve,
    enumerate_strategies,
    history_dp,
    oracles_agree,
)
from impactdp.solver import _replay, _run_z, evaluate_strategy
from impactdp.tree import GeneratorSpec, generate, preset
from impactdp.utility import capped_linear, exponential, piecewise_linear


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


def test_oracles_agree_in_value_where_rounding_splits_their_strategies(absorbed_gain_tree):
    tree, u, grid = absorbed_gain_tree, capped_linear(0.0), ActionGrid((-1.0, 0.0))
    brute = brute_force_solve(tree, u, 0.0, grid)
    dp = history_dp(tree, u, 0.0, grid)
    assert brute.value.hex() == dp.value.hex() == "-0x1.5555555555555p-2"
    assert set(brute.strategy.values.values()) == {0.0}
    assert {n: h for n, h in dp.strategy.values.items() if h != 0.0} == {1: -1.0, 4: 1.0}
    for res in (brute, dp):
        assert evaluate_strategy(tree, res.strategy, u, 0.0).hex() == brute.value.hex()
    assert oracles_agree(tree, u, 0.0, brute, dp)
    # the first maximum of the root's float comes earlier in (|h|, sign) order
    assert not oracles_agree(tree, u, 0.0, dp, brute)


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


# -- reuse of subtree values -------------------------------------------------

UTILITIES = {
    "exp": exponential(1.0),
    "cap": capped_linear(1.0),
    "pwl": piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)]),
}


@pytest.mark.parametrize("z", [0.0, 0.25])
@pytest.mark.parametrize("family", sorted(UTILITIES))
def test_every_candidate_scores_as_its_full_replay(family, z):
    # brute force reuses subtree values across candidates; each score must
    # still be the float a full replay of the candidate gives
    tree = generate(preset("binomial"))
    u = UTILITIES[family]
    z_run = _run_z(u, z)
    ids = tree.decision_ids()
    n = 0
    with np.errstate(over="ignore"):
        scored = oracle._scores(tree, GRID5, u, z_run, oracle.DEFAULT_CAP)
        for (trades, v), strategy in zip(scored, enumerate_strategies(tree, GRID5), strict=True):
            assert list(trades.items()) == [(i, strategy.values[i]) for i in ids]
            assert v.hex() == _replay(tree, strategy, u, z_run).hex()
            n += 1
    assert n == len(GRID5) ** len(ids)


def test_each_subtree_value_is_computed_at_most_once(monkeypatch):
    tree = generate(preset("binomial", T=4))
    ids = tree.decision_ids()
    inside = {i: [d for d in ids if i in {a.id for a in tree.parent_chain(d)}] for i in ids}
    keys = Counter()
    real = solver_module._Walk.decide

    def counted(walk, node, rsums, deltas, hs, wealth):
        keys[(node.id, hs, tuple(walk.trades[i] for i in inside[node.id]))] += 1
        return real(walk, node, rsums, deltas, hs, wealth)

    monkeypatch.setattr(solver_module._Walk, "decide", counted)
    grid = ActionGrid((-1.0, 0.0, 1.0))
    res = brute_force_solve(tree, capped_linear(1.0), 0.0, grid)
    assert res.candidates == 3 ** len(ids) == 2187
    assert max(keys.values()) == 1
    # one root sum per candidate, and each (node, history, subtree trades) key
    # of a decision node below the root: 3**(t + subtree size) keys
    below = sum(3 ** (tree.node(i).t + len(inside[i])) for i in ids if i != tree.root_id)
    assert sum(keys.values()) == res.candidates + below == 2187 + 270


def test_brute_force_leaves_no_cycles():
    tree = generate(preset("binomial", T=4))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        brute_force_solve(tree, capped_linear(1.0), 0.0, ActionGrid((-1.0, 0.0, 1.0)))
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == 0


@pytest.mark.parametrize("solver", [brute_force_solve, history_dp])
def test_an_oracle_that_raises_leaves_no_cycles(monkeypatch, solver):
    # the walk fails part way, with the oracle's tables half filled; they
    # must go with the exception, not wait for the cycle collector
    real = solver_module._kappa_core
    calls = Counter()

    def failing(*args):
        calls["kappa"] += 1
        if calls["kappa"] == 40:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(solver_module, "_kappa_core", failing)
    tree = generate(preset("binomial"))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            solver(tree, capped_linear(1.0), 0.0, ActionGrid((-1.0, 0.0, 1.0)))
        except RuntimeError:
            pass
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert calls["kappa"] == 40
    assert garbage == 0
