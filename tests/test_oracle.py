"""Exhaustive oracles: action grids, enumeration, and oracle agreement."""

import gc
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impactdp.oracle as oracle
from impactdp import _kernels
import impactdp.solver as solver_module
from impactdp.oracle import (
    ActionGrid,
    CapacityError,
    brute_force_solve,
    enumerate_strategies,
    history_dp,
    oracles_agree,
)
from impactdp.dynamics import terminal_wealth_explicit
from impactdp.solver import _cara_shift, _replay, _run_z, _tie_key, evaluate_strategy
from impactdp.tree import GeneratorSpec, ScenarioTree, TreeNode, generate, preset
from impactdp.utility import capped_linear, exponential, piecewise_linear
from test_solver import PROPERTY_UTILITIES, small_trees


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


def test_history_dp_refuses_more_trade_histories_than_the_cap():
    # a date-(T-2) node would hold a float per trade history and trade, 5**11
    spec = GeneratorSpec(kind="deterministic", T=12, prices=(1.0,) * 13)
    with pytest.raises(CapacityError, match="5\\^11 = 48828125 trade histories exceeds the cap of 10000000"):
        history_dp(generate(spec), exponential(1.0), 0.0, GRID5)


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
    assert history_dp(tree, u, 0.0, ActionGrid((-0.5, 0.5, 0.0))).strategy.trade_at(0) == 0.0
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


# -- one walk scores every candidate -----------------------------------------

UTILITIES = {
    "exp": exponential(1.0),
    "cap": capped_linear(1.0),
    "pwl": piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)]),
}


def nested_reference(tree, u, z):
    """The expected utility of a strategy written out with scalars: at each
    leaf u(z + terminal_wealth_explicit(path, trades) - B), and at each other
    node the sum from 0.0 of p * value over its children in id order."""
    paths = {leaf.id: tree.extract_path(leaf.id).path for leaf in tree.leaves()}

    def value(node, strategy):
        if node.t == tree.T:
            wealth = terminal_wealth_explicit(paths[node.id], strategy.trades_to_leaf(tree, node.id))
            return float(u(z + wealth - node.B))
        acc = 0.0
        for child in tree.children(node.id):
            acc = acc + child.p * value(child, strategy)
        return acc

    return lambda strategy: value(tree.root, strategy)


@pytest.mark.parametrize("z", [0.0, 0.25])
@pytest.mark.parametrize("family", sorted(UTILITIES))
def test_every_candidate_scores_as_its_full_replay(family, z):
    # brute force's scores, in C order, and history_dp's value are the floats
    # a path-by-path evaluation of the enumerated strategies gives; notconvex
    # has three children a node, so the order of a child sum shows
    u = UTILITIES[family]
    z_run = _run_z(u, z)
    order = sorted(GRID5.values, key=_tie_key)
    for name in ("binomial", "notconvex"):
        tree = generate(preset(name))
        ids = tree.decision_ids()
        scores = oracle._scores(tree, u, z_run, ids, order)
        reference = nested_reference(tree, u, z_run)
        with np.errstate(over="ignore"):
            want = [reference(s) for s in enumerate_strategies(tree, GRID5)]
        assert len(want) == len(GRID5) ** len(ids)
        assert [v.hex() for v in scores.tolist()] == [v.hex() for v in want]
        assert history_dp(tree, u, z, GRID5).value.hex() == _cara_shift(u, max(want), z).hex()


def test_each_subtree_value_is_computed_at_most_once(monkeypatch):
    # one visit per node decides every trade history above it at once
    tree = generate(preset("binomial", T=4))
    ids = tree.decision_ids()
    visits, decided = Counter(), Counter()
    real_visit, real_decide = solver_module._Walk.node_value, solver_module._Walk.decide

    def visit(walk, node, *args):
        visits[node.id] += 1
        return real_visit(walk, node, *args)

    def decide(walk, node, *args):
        decided[node.id] += 1
        return real_decide(walk, node, *args)

    monkeypatch.setattr(solver_module._Walk, "node_value", visit)
    monkeypatch.setattr(solver_module._Walk, "decide", decide)
    grid = ActionGrid((-1.0, 0.0, 1.0))
    brute = brute_force_solve(tree, capped_linear(1.0), 0.0, grid)
    assert brute.candidates == 3 ** len(ids) == 2187
    assert visits == Counter(tree.node_ids()) and decided == Counter(ids)
    visits.clear()
    decided.clear()
    dp = history_dp(tree, capped_linear(1.0), 0.0, grid)
    assert dp.candidates == sum(3 ** (tree.node(i).t + 1) for i in ids) == 3 + 2 * 9 + 4 * 27
    assert visits == Counter(tree.node_ids()) and decided == Counter(ids)
    assert dp.value == brute.value


@pytest.mark.parametrize(
    "spec",
    [GeneratorSpec(kind="binomial", T=8), GeneratorSpec(kind="deterministic", T=70, prices=(1.0,) * 71)],
    ids=["127-decision-nodes", "69-dates"],
)
def test_a_one_trade_grid_runs_where_numpy_cannot_hold_an_axis_per_trade(spec):
    # NumPy holds at most 64 axes
    tree = generate(spec)
    u, grid = capped_linear(1.0), ActionGrid((0.0,))
    brute = brute_force_solve(tree, u, 0.0, grid)
    dp = history_dp(tree, u, 0.0, grid)
    assert brute.candidates == 1 and dp.candidates == len(tree.decision_ids())
    assert brute.value == dp.value == evaluate_strategy(tree, brute.strategy, u, 0.0)
    assert brute.strategy.values == dp.strategy.values


def test_brute_force_holds_one_float_per_candidate():
    # each own-trade part goes into the node's array as it is made, so the
    # root's array (8 bytes a candidate) is nearly all that is held at once
    tree = generate(preset("binomial", T=4))
    args = (tree, capped_linear(1.0), 0.0, GRID5)
    brute_force_solve(*args)
    tracemalloc.start()
    try:
        res = brute_force_solve(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.candidates == 5**7
    assert peak <= 16 * res.candidates


FIRST_MAX_CASES = pytest.mark.parametrize(
    "scores, want",
    [
        ([math.nan, 1.0, 2.0], 0),  # the first candidate stands even as NaN
        ([1.0, math.nan, 2.0, 2.0, math.nan], 2),  # later NaNs never win
        ([-math.inf, -math.inf, math.nan], 0),
        ([-0.0, 0.0, 1.0, math.inf, math.inf], 3),
        ([0.0, -0.0], 0),
    ],
)


@FIRST_MAX_CASES
def test_first_max_is_the_scan_that_keeps_only_strictly_greater(scores, want):
    # brute force's use of the kernels' scan: one flat block of candidates
    best_v, best_i = _kernels._scan([np.array(scores)], range(len(scores)))
    assert int(best_i) == want
    assert float(best_v).hex() == float(scores[want]).hex()


@FIRST_MAX_CASES
def test_kernel_scan_keeps_only_strictly_greater(scores, want):
    # the sweeps' and exact_state_dp's use, on one state: row k is candidate k
    rows = np.array(scores)[:, None]
    best_v, best_i = _kernels._scan([rows[:2], rows[2:]], np.arange(len(scores)))
    assert best_i.tolist() == [want]
    assert best_v[0].hex() == float(scores[want]).hex()


def _scan(tree, u, z, grid):
    """Brute force written out: replay every enumerated strategy and keep the
    first one, then only a strictly greater value."""
    z_run = _run_z(u, z)
    best_v, best, n = None, None, 0
    with np.errstate(over="ignore"):
        for strategy in enumerate_strategies(tree, grid):
            v = _replay(tree, strategy, u, z_run)
            n += 1
            if best is None or v > best_v:
                best_v, best = v, strategy
    return _cara_shift(u, best_v, z), best, n


def assert_brute_force_is_the_scan(tree, u, z, grid):
    res = brute_force_solve(tree, u, z, grid)
    value, strategy, n = _scan(tree, u, z, grid)
    assert res.value.hex() == value.hex()
    assert {k: v.hex() for k, v in res.strategy.values.items()} == {k: v.hex() for k, v in strategy.values.items()}
    assert res.candidates == n


def _children_first(tree):
    """``tree`` with its ids reversed, so every child's id is below its
    parent's and the root's axis comes last."""
    top = max(tree.node_ids())
    nodes = [
        replace(n, id=top - n.id, parent=None if n.parent is None else top - n.parent)
        for n in (tree.node(i) for i in tree.node_ids())
    ]
    return ScenarioTree(T=tree.T, zeta0=tree.zeta0, nodes=nodes)


def test_brute_force_picks_as_the_scan_where_the_oracles_part(absorbed_gain_tree):
    assert_brute_force_is_the_scan(absorbed_gain_tree, capped_linear(0.0), 0.0, ActionGrid((-1.0, 0.0)))


@pytest.mark.parametrize("family", sorted(UTILITIES))
def test_brute_force_picks_as_the_scan_with_the_root_axis_last(family):
    tree = _children_first(generate(preset("binomial", T=4)))
    assert tree.validate().ok
    assert tree.decision_ids()[-1] == tree.root_id
    assert_brute_force_is_the_scan(tree, UTILITIES[family], 0.25, ActionGrid((-1.0, 0.0, 1.0)))


def _one_step_tree():
    """A T = 1 tree: the root trades only its forced close, so it has no free
    trade and one candidate (``validate`` asks for T >= 2; the walk does not)."""
    nodes = [TreeNode(id=0, parent=None, t=0, p=1.0, P=1.0, r=0.1)]
    nodes += [TreeNode(id=i, parent=0, t=1, p=0.5, P=P, delta=d, B=B) for i, P, d, B in ((1, 1.2, 1.0, 0.1), (2, 0.8, 2.0, -0.2))]
    return ScenarioTree(T=1, zeta0=0.1, nodes=nodes)


@pytest.mark.parametrize("short", ["T=2", "T=1"])
@pytest.mark.parametrize("family", sorted(UTILITIES))
def test_brute_force_picks_as_the_scan_on_short_trees(family, short):
    tree = generate(preset("binomial", T=2)) if short == "T=2" else _one_step_tree()
    assert tree.decision_ids() == ([tree.root_id] if short == "T=2" else [])
    assert_brute_force_is_the_scan(tree, UTILITIES[family], 0.25, GRID5)


@settings(max_examples=40, deadline=None)
@given(
    small_trees(),
    st.sampled_from(PROPERTY_UTILITIES),
    st.sampled_from((0.0, 0.25, -0.5)),
    st.lists(st.sampled_from((-1.0, -0.5, -0.3, 0.25, 0.5, 0.7, 1.0)), unique=True, max_size=3),
)
def test_brute_force_picks_as_the_scan_on_random_trees(tree, u, z, trades):
    assert_brute_force_is_the_scan(tree, u, z, ActionGrid((0.0, *trades)))


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
        if calls["kappa"] == 10:  # of one call per edge, 14 on this tree
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(solver_module, "_kappa_core", failing)
    tree = generate(preset("binomial"))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with pytest.raises(RuntimeError, match="injected"):
            solver(tree, capped_linear(1.0), 0.0, ActionGrid((-1.0, 0.0, 1.0)))
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert calls["kappa"] == 10
    assert garbage == 0
