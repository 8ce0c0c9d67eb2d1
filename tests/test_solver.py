"""Solver layer: config, grids, one-step search, extraction, exact-state DP."""

import gc
import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impactdp import _kernels
from impactdp.oracle import ActionGrid, brute_force_solve, history_dp, oracles_agree
from impactdp.solver import (
    MarketState,
    SolveConfig,
    SolverNumericError,
    _exact_walk,
    _sweep_node,
    backward_induce,
    evaluate_strategy,
    exact_state_dp,
    forward_extract,
    one_step_optimize,
    solve,
)
from impactdp.tree import GeneratorSpec, PredictableAssignment, ScenarioTree, TreeNode, generate, preset
from impactdp.utility import capped_linear, exponential, piecewise_linear


def two_leaf_tree(p_up=0.6, p_dn=None):
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=1.0, r=0.1),
        TreeNode(id=1, parent=0, t=1, p=1.0, P=1.5, r=0.2, delta=2.0),
        TreeNode(id=2, parent=1, t=2, p=p_up, P=2.0, delta=1.0, B=0.5),
        TreeNode(id=3, parent=1, t=2, p=1.0 - p_up if p_dn is None else p_dn, P=0.5, delta=1.0, B=0.0),
    ]
    return ScenarioTree(T=2, zeta0=0.25, nodes=nodes)


# -- configuration -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"xi_count": 1}, "at least 2"),
        ({"zeta_count": 0}, "at least 2"),
        ({"action_count": 4}, "odd"),
        ({"action_count": 1}, "odd"),
        ({"x_count": 1}, "at least 2"),
        ({"x_bounds": (1.0, -1.0)}, "increasing"),
        ({"zeta_bounds": (-2.0, -1.0)}, "nonnegative"),
        ({"xi_bounds": (2.0, 1.0)}, "increasing"),
        ({"zeta_bounds": (3.0, 3.0)}, "increasing"),
        ({"zeta_bounds": (-1.0, 3.0)}, "nonnegative"),
        ({"xi_bounds": (math.nan, 1.0)}, "xi_bounds must be finite"),
        ({"zeta_bounds": (0.0, math.nan)}, "zeta_bounds must be finite"),
        ({"x_bounds": (-math.inf, 1.0)}, "x_bounds must be finite"),
        ({"zeta_bounds": (0.0, math.inf)}, "zeta_bounds must be finite"),
        ({"xi_bounds": (-1.0, math.inf)}, "xi_bounds must be finite"),
        ({"x_bounds": (math.nan, 1.0)}, "x_bounds must be finite"),
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolveConfig(**kwargs)


def test_default_axes_center_the_position_grid_on_zero():
    tree = generate(preset("binomial"))
    axes = SolveConfig().resolve_axes(tree)
    assert axes.x[(axes.x.size - 1) // 2] == 0.0
    assert axes.x[0] == -axes.x[-1]
    assert axes.zeta[0] == 0.0
    assert axes.xi[0] < 0.0 < axes.xi[-1]


def test_explicit_bounds_are_honored_exactly():
    tree = generate(preset("binomial"))
    cfg = SolveConfig(
        xi_bounds=(-7.0, 3.0), zeta_bounds=(0.5, 2.5), x_bounds=(-1.0, 1.0), x_count=5
    )
    axes = cfg.resolve_axes(tree)
    assert (axes.xi[0], axes.xi[-1]) == (-7.0, 3.0)
    assert (axes.zeta[0], axes.zeta[-1]) == (0.5, 2.5)
    assert list(axes.x) == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_config_echo_round_trips_through_kwargs():
    cfg = SolveConfig(xi_bounds=(-2.0, 2.0), action_count=51)
    echoed = cfg.echo()
    rebuilt = SolveConfig(
        **{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in echoed.items()
        }
    )
    assert rebuilt == cfg


def test_market_state_rejects_negative_spread():
    with pytest.raises(ValueError, match="nonnegative"):
        MarketState(0.0, -0.1, 0.0)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
def test_market_state_rejects_a_non_finite_spread(zeta):
    with pytest.raises(ValueError, match="zeta must be finite and nonnegative"):
        MarketState(0.0, zeta, 0.0)


# -- one-step optimization ---------------------------------------------------


def test_one_step_matches_hand_scan_on_deterministic_tree():
    # closed position, zero prices until the final date: wealth is h - 3 h^2,
    # best grid point at h = 0.17 for a 0.01 action step
    tree = generate(preset("det-example"))
    u = exponential(1.0)
    step = one_step_optimize(tree, 0, MarketState(0.0, 0.0, 0.0), None, u, 0.0)
    hs = [(i - 100) / 100 for i in range(201)]
    hand_best = max(hs, key=lambda h: (u(h - 3 * h * h), -abs(h), h < 0))
    assert step.h == hand_best == 0.17
    assert step.value == pytest.approx(u(0.17 - 3 * 0.17**2), rel=1e-12)
    assert step.k_expansions == 0
    assert step.k_warning is False


def test_one_step_forces_closure_at_the_last_decision_date():
    tree = generate(preset("det-example"))
    u = exponential(1.0)
    node_id = tree.nodes_at(1)[0].id
    step = one_step_optimize(tree, node_id, MarketState(0.5, 0.2, 0.7), None, u, 0.0)
    assert step.h == -0.7
    ze2 = 0.2 + 0.7
    xi2 = 0.5 + 0.7 - ze2 * 0.7
    assert step.value == pytest.approx(u(xi2), rel=1e-15)
    assert step.k_expansions == 0
    # holding nothing trades exactly zero, not negative zero
    flat = one_step_optimize(tree, node_id, MarketState(0.0, 0.0, 0.0), None, u, 0.0)
    assert flat.h == 0.0 and math.copysign(1.0, flat.h) == 1.0


def test_one_step_rejects_leaves_and_missing_grids():
    tree = generate(preset("det-example"))
    u = exponential(1.0)
    leaf = tree.leaves()[0].id
    with pytest.raises(ValueError, match="leaf"):
        one_step_optimize(tree, leaf, MarketState(0.0, 0.0, 0.0), None, u, 0.0)
    deep = generate(preset("binomial"))  # T = 3: the root needs child value grids
    with pytest.raises(ValueError, match="value grids"):
        one_step_optimize(deep, 0, MarketState(0.0, 0.1, 0.0), None, u, 0.0)


def forced_grid(tree, node, u, z, axes):
    """``_kernels.forced_layer`` of a last-decision-date node on the grid
    axes, run at z = 0 under exp as the solver runs it."""
    ucode, ua, uxs, uys = u.kernel_encoding()
    lp, lP, ld, lB = (np.array([getattr(k, a) for k in tree.children(node.id)]) for a in ("p", "P", "delta", "B"))
    z = 0.0 if u.family == "exp" else z
    decay = math.exp(-node.r)
    return _kernels.forced_layer(axes.xi, axes.zeta, axes.x, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z)


@pytest.mark.parametrize("u", [exponential(1.0), capped_linear(0.5)])
def test_one_step_at_the_last_decision_date_reads_the_forced_layer(u):
    # one dispatch for grids and exact states: at a grid state, the one-step
    # result is the forced layer's entry, bit for bit (under exp scaled by
    # exp(-alpha * z)), and a flat close trades +0.0
    tree = generate(preset("binomial"))
    config = SolveConfig(xi_count=5, zeta_count=4, x_count=5, action_count=5)
    ax = config.resolve_axes(tree, u)
    for node in tree.nodes_at(tree.T - 1):
        values, policy = forced_grid(tree, node, u, 0.25, ax)
        for i, j, k in np.ndindex(values.shape):
            step = one_step_optimize(tree, node.id, MarketState(ax.xi[i], ax.zeta[j], ax.x[k]), None, u, 0.25)
            want = values[i, j, k]
            if u.family == "exp":
                want = _kernels.cara_scale(want, ax.xi[i] + 0.25, u.alpha)
            assert step.value.hex() == float(want).hex()
            assert step.h.hex() == float(policy[i, j, k] + 0.0).hex()
            assert (step.k_expansions, step.k_warning) == (0, False)
            if u.family == "exp":
                # the layer holds the values at xi = 0 only; other cash levels
                # scale them
                assert_cash_invariant(tree, node, u, 0.25, ax.zeta[j], ax.x[k], config)
    assert math.copysign(1.0, policy[0, 0, 2]) == -1.0  # x = 0 closes with -0.0 in the layer


CASH_LEVELS = (-300.0, -5.0, 5.0, 300.0)


def direct_kernel(tree, node, u, z, state, config):
    """Value of the node's closed-form kernel, forced_layer at T-1 and
    sweep_exact at T-2, run on the one-point axes (xi, zeta, x) of ``state``:
    the 3-D computation, with no cash-free layer involved."""
    ucode, ua, uxs, uys = u.kernel_encoding()
    decay = math.exp(-node.r)
    kids = tree.children(node.id)
    xg, zg, xxg = (np.array([v]) for v in (state.xi, state.zeta, state.x))

    def fields(nodes, *names):
        return tuple(np.array([getattr(n, a) for n in nodes], dtype=np.float64) for a in names)

    if node.t == tree.T - 1:
        lp, lP, ld, lB = fields(kids, "p", "P", "delta", "B")
        vals, _ = _kernels.forced_layer(xg, zg, xxg, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z)
    else:
        leaves = [tree.children(k.id) for k in kids]
        goff = np.cumsum([0] + [len(ls) for ls in leaves], dtype=np.int64)
        cdecay = np.array([math.exp(-k.r) for k in kids])
        packed = fields([leaf for ls in leaves for leaf in ls], "p", "P", "delta", "B")
        search = (_kernels.K_START, _kernels.K_FACTOR, _kernels.K_ROUNDS, config.action_count)
        vals, _, _, _ = _kernels.sweep_exact(
            xg, zg, xxg, decay, *fields(kids, "p", "P", "delta"), cdecay, goff, *packed,
            ucode, ua, uxs, uys, z, *search,
        )
    return float(vals[0, 0, 0])


def assert_cash_invariant(tree, node, u, z, zeta, x, config):
    """One-step calls at cash levels away from 0, with endowment z, keep the
    trade chosen at xi = z = 0, and their values match the 3-D kernel run at
    that cash level and endowment."""
    at_zero = one_step_optimize(tree, node.id, MarketState(0.0, zeta, x), None, u, 0.0, config)
    assert direct_kernel(tree, node, u, 0.0, MarketState(0.0, zeta, x), config) == at_zero.value
    for xi in (0.0,) + CASH_LEVELS:
        state = MarketState(xi, zeta, x)
        step = one_step_optimize(tree, node.id, state, None, u, z, config)
        assert step.h.hex() == at_zero.h.hex()
        assert step.value == pytest.approx(direct_kernel(tree, node, u, z, state, config), rel=1e-12, abs=0.0)


def test_exponential_one_step_is_cash_invariant():
    # under u = -exp(-alpha w) the optimal trade does not depend on cash and
    # the value at cash xi is exp(-alpha xi) times the value at 0
    tree = generate(preset("binomial", T=4))
    u = exponential(1.0)
    config = SolveConfig(action_count=21)
    nodes = tree.nodes_at(tree.T - 2)
    assert len(nodes) == 4
    for node in nodes:
        for zeta, x in ((0.0, 0.0), (0.4, -1.5), (1.3, 0.75)):
            assert_cash_invariant(tree, node, u, 0.0, zeta, x, config)


# -- backward induction ------------------------------------------------------


def test_backward_induction_covers_every_node(monkeypatch):
    # every node whose grid a sweep reads, dates 1..T-2, has a layer, and no
    # other node has one: the sweeps of dates 0..T-3 read these grids and
    # nothing else: the root
    # value comes from an exact-state one-step call and dates T-1 and T are
    # summed in closed form, so neither gets a grid
    tree = generate(preset("binomial", T=4))
    u = exponential(1.0)
    vf = backward_induce(tree, u, 0.3)
    assert sorted(vf.layers) == [n for n in tree.node_ids() if 1 <= tree.node(n).t <= 2]
    assert vf.axes.xi.tolist() == [0.0]  # exponential layers are cash-free
    for nid, grid in vf.layers.items():
        assert grid.t == tree.node(nid).t
        assert grid.values.shape == (1, 21, 21)
        assert not np.isnan(grid.values).any() and not np.isposinf(grid.values).any()
    calls = count_kernel_calls(monkeypatch)
    vf = backward_induce(generate(preset("det-example")), u, 0.0)
    assert vf.layers == {} and calls == []
    assert vf.diagnostics["distinct_grids"] == 0


def test_terminal_layers_are_the_utility_of_final_wealth():
    # terminal utility enters through the closed-form leaf sum of the last
    # decision date: with a flat position nothing is traded, so the forced
    # layer holds sum_leaves p * u(z + xi - B) exactly (under exp at z = 0,
    # where the solver runs it, and not floored)
    tree = generate(preset("binomial"))
    for u in (exponential(1.0), capped_linear(0.5)):
        ax = SolveConfig().resolve_axes(tree, u)
        z = 0.0 if u.family == "exp" else 0.3
        flat = int(np.flatnonzero(ax.x == 0.0)[0])
        for node in tree.nodes_at(tree.T - 1):
            values, policy = forced_grid(tree, node, u, z, ax)
            expect = np.zeros((len(ax.xi), len(ax.zeta)))
            for leaf in tree.children(node.id):
                expect += leaf.p * u(z + ax.xi[:, None] - leaf.B) * np.ones(len(ax.zeta))
            assert np.array_equal(values[:, :, flat], expect)
            assert np.all(policy[:, :, flat] == 0.0)


def test_forced_layers_close_the_position():
    tree = generate(preset("binomial"))
    u = exponential(1.0)
    ax = SolveConfig().resolve_axes(tree, u)
    for node in tree.nodes_at(tree.T - 1):
        _, policy = forced_grid(tree, node, u, 0.0, ax)
        assert np.array_equal(policy, np.broadcast_to(-ax.x, (1, 21, 21)) + 0.0)


def test_value_layers_are_monotone_in_cash_on_presets():
    for name in ("det-example", "binomial", "zero-price", "notconvex"):
        vf = backward_induce(generate(preset(name)), exponential(1.0), 0.0)
        assert vf.diagnostics["monotonicity_violations"] == 0
        for grid in vf.layers.values():
            assert np.all(grid.values[1:, :, :] >= grid.values[:-1, :, :])


def test_numeric_error_on_nan_inputs():
    # every layer and every exact-state one-step result passes the same check:
    # at T = 2 no layer exists, and the root's one-step call raises
    tree = two_leaf_tree()
    nodes = [replace(tree.node(n), B=math.nan) if n == 3 else tree.node(n) for n in tree.node_ids()]
    nan_leaf = ScenarioTree(T=2, zeta0=tree.zeta0, nodes=nodes)
    for u in (exponential(1.0), capped_linear(1.0)):
        vf = backward_induce(nan_leaf, u, 0.0)
        assert vf.layers == {}
        with pytest.raises(SolverNumericError, match="non-finite values at node 0"):
            forward_extract(nan_leaf, vf, u, 0.0)
    deep = generate(preset("binomial"))  # T = 3: the date-1 layers see the NaN
    leaf = deep.leaves()[0].id
    nodes = [replace(deep.node(n), B=math.nan) if n == leaf else deep.node(n) for n in deep.node_ids()]
    with pytest.raises(SolverNumericError, match="non-finite"):
        backward_induce(ScenarioTree(T=3, zeta0=deep.zeta0, nodes=nodes), exponential(1.0), 0.0)


# -- shared subtrees ---------------------------------------------------------

SMALL_CONFIG = SolveConfig(xi_count=3, zeta_count=3, x_count=3, action_count=5)


def count_kernel_calls(monkeypatch):
    calls = []
    for name in ("forced_layer", "sweep_exact", "sweep_grid"):
        original = getattr(_kernels, name)

        def counted(*args, _original=original):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(_kernels, name, counted)
    return calls


def test_recombining_lattice_sweeps_each_distinct_subtree_once(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    tree = generate(preset("binomial", T=8))
    vf = backward_induce(tree, exponential(1.0), 0.0, SMALL_CONFIG)
    grid_nodes = [n for n in tree.node_ids() if 1 <= tree.node(n).t <= tree.T - 2]
    assert len(grid_nodes) == 126
    assert len(calls) == 27  # 2 + 3 + ... + 7 distinct subtrees at dates 1..6
    assert vf.diagnostics["distinct_grids"] == 27
    assert vf.diagnostics["swept_states"] == 27 * 1 * 3 * 3  # cash-free layers
    assert sorted(vf.layers) == grid_nodes


def test_non_recombining_tree_sweeps_every_node(monkeypatch):
    rng = np.random.default_rng(11)
    lattice = generate(preset("binomial", T=4))
    nodes = [replace(lattice.node(n), P=float(rng.uniform(0.0, 2.0))) for n in lattice.node_ids()]
    tree = ScenarioTree(T=4, zeta0=lattice.zeta0, nodes=nodes)
    calls = count_kernel_calls(monkeypatch)
    vf = backward_induce(tree, capped_linear(1.0), 0.0, SMALL_CONFIG)
    assert len(calls) == 6 == vf.diagnostics["distinct_grids"]


def test_nodes_with_the_same_subtree_share_read_only_grids():
    tree = generate(preset("binomial", T=4))
    vf = backward_induce(tree, exponential(1.0), 0.0, SMALL_CONFIG)
    up, down = tree.children(tree.root_id)
    up_down, down_up = tree.children(up.id)[1], tree.children(down.id)[0]
    assert up_down.P == down_up.P
    a, b = vf.layers[up_down.id], vf.layers[down_up.id]
    assert (a.node_id, b.node_id) == (up_down.id, down_up.id)
    assert a.values is b.values and a.policy is b.policy
    assert a.k_expansions == b.k_expansions and a.k_warnings == b.k_warnings
    for grid in vf.layers.values():
        for arr in (grid.values, grid.policy):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0


# -- frozen outputs ----------------------------------------------------------

FROZEN_CONFIG = SolveConfig(xi_count=9, zeta_count=5, x_count=5, action_count=21)
FROZEN_ACTIONS = (-0.2, -0.1, 0.0, 0.1, 0.2)
# SHA-256 over every stored layer's values then policy bytes in node-id order
# (dates 1..T-2; none at T = 2, so det-example hashes no bytes), and the
# float.hex of the root value, the replayed strategy value and the exact-state
# DP value on FROZEN_ACTIONS.  A refactor of the kernels, the transition or the
# utility evaluator must leave all of them unchanged.  The exp entries hash
# cash-free layers, on the one-point cash axis.  Recorded with NumPy 2.4 on
# x86-64; a NumPy build whose exp rounds differently needs new values.
FROZEN = {
    "det-example-exp": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "-0x1.d8a2b4ac44685p-1", "-0x1.d8a2b4ac44685p-1", "-0x1.d8a2b4ac44685p-1",
    ),
    "binomial-exp": (
        "279ca67e445b5d5808099475581cc45f078b660f117cb776dfc8e983abf2c57e",
        "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
    ),
    "notconvex-exp": (
        "a2fd02e5b117ad631c6380ec80655ff972997bf079daecce35881d8728e9517f",
        "-0x1.0000000000000p+0", "-0x1.0000000000000p+0", "-0x1.0000000000000p+0",
    ),
    "binomial-T4-cap": (
        "0e5e352fa4fc138322971c6bdf816c99475e17a42a97263d42574f169cd93ebf",
        "-0x1.1942850a14289p+5", "0x0.0p+0", "0x1.65af0d59f932cp-6",
    ),
    "trinomial-pwl": (
        "a346d17f831eaafc893f8659f994ce61c1ac8977e4d20619ad8bd1d5aab8435d",
        "-0x1.77f2b5d9bd4c9p+2", "-0x1.874f3651fef43p-4", "0x0.0p+0",
    ),
}


def frozen_instance(name):
    if name == "binomial-T4-cap":
        return generate(preset("binomial", T=4)), capped_linear(1.0)
    if name == "trinomial-pwl":
        spec = GeneratorSpec(
            kind="trinomial", T=3, zeta0=0.05, resilience=0.3, depth=(1.0, 2.0, 1.5), p0=1.0, step=0.5
        )
        return generate(spec), piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)])
    return generate(preset(name.rsplit("-", 1)[0])), exponential(1.0)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_layers_and_values_match_frozen_bits(name):
    tree, u = frozen_instance(name)
    vf = backward_induce(tree, u, 0.0, FROZEN_CONFIG)
    digest = hashlib.sha256()
    for nid in sorted(vf.layers):
        digest.update(vf.layers[nid].values.tobytes())
        digest.update(vf.layers[nid].policy.tobytes())
    assignment, root, _ = forward_extract(tree, vf, u, 0.0, FROZEN_CONFIG)
    replay = evaluate_strategy(tree, assignment, u, 0.0)
    exact, _ = exact_state_dp(tree, u, 0.0, FROZEN_ACTIONS)
    got = (digest.hexdigest(), root.value.hex(), replay.hex(), exact.hex())
    assert got == FROZEN[name]


# SHA-256 over the stored layers (as in FROZEN), then over one line
# "node h value" in float.hex per one_step_optimize call at every node before
# T-1: at the state the policy replay reaches and at one state off the path.
# Keyed by (action_count, instance) on FROZEN_CONFIG.  With 201 actions the
# 9x5x5 grid sweeps scan their actions in several blocks and the one-point
# sweeps in one; the bits are those of the scan that took one trade per call.
ONE_STEP_FROZEN = {
    (21, "binomial-T4-cap"): "5ce1c1d6b85ccedea54f47eb85bb2c4c0b9177346ea3a27c5b064ab252012c8d",
    (21, "binomial-exp"): "b50081fdc306694debfc325b6ba5d2646bf91d0586ae7caec30d65090f8d0753",
    (21, "det-example-exp"): "7fe7afc26c8e4d336c5dd7c3baf3f026a9d66921befdc14ecc2378a17382e896",
    (21, "notconvex-exp"): "735c474ff17a8c8b9a0d93457f66c1d17479191c8c84992f1a1a269f339c01ae",
    (21, "trinomial-pwl"): "c37e8c92f81b91bb161f2cb9b83dbb21d1fc655e1816ba76adae2e47ebae24a2",
    (201, "binomial-T4-cap"): "020c2abfe61fac48d3ee53c712523537c2361372837b5b9108f547e679246d09",
    (201, "binomial-exp"): "84a8c1e479e131651ac74b43c2acf938f9496fa2578930a6eb69f40390996e92",
    (201, "det-example-exp"): "ed163ca0d2c0ad0bbf79aa92f48196240a1c34ed15c9dd8aed08a365404ccec2",
    (201, "notconvex-exp"): "0c179600ce1fe5b5f2e873534e7220dd870878c018826ee45317814399ef1731",
    (201, "trinomial-pwl"): "39757a7322deb84779f567272d59598fa3a7e9ef0ef566dd1d0a9af6f70ce6c9",
}


@pytest.mark.parametrize("n_act, name", sorted(ONE_STEP_FROZEN))
def test_one_step_results_match_frozen_bits(n_act, name):
    tree, u = frozen_instance(name)
    config = replace(FROZEN_CONFIG, action_count=n_act)
    vf = backward_induce(tree, u, 0.0, config)
    digest = hashlib.sha256()
    for nid in sorted(vf.layers):
        digest.update(vf.layers[nid].values.tobytes())
        digest.update(vf.layers[nid].policy.tobytes())

    def pick(node, xi, zeta, x, hs):
        steps = [
            one_step_optimize(tree, node.id, MarketState(*s), vf, u, 0.0, config)
            for s in ((xi, zeta, x), (xi + 0.5, zeta + 0.3, x - 0.35))
        ]
        for s in steps:
            digest.update(f"{node.id} {s.h.hex()} {s.value.hex()}\n".encode())
        return steps[0].h

    _exact_walk(tree, pick)
    assert digest.hexdigest() == ONE_STEP_FROZEN[(n_act, name)]


# -- extraction and evaluation -----------------------------------------------


def test_forward_extract_builds_a_liquidating_strategy():
    tree = generate(preset("binomial"))
    u = exponential(1.0)
    vf = backward_induce(tree, u, 0.0)
    assignment, root_step, diag = forward_extract(tree, vf, u, 0.0)
    assert assignment.is_complete(tree)
    assert assignment.is_liquidating(tree)
    assert set(diag) == {"k_expansions", "k_warnings"}
    # the replayed strategy evaluates exactly; the grid root value is only an
    # interpolated estimate, so no ordering between the two is guaranteed
    got = evaluate_strategy(tree, assignment, u, 0.0)
    assert math.isfinite(got) and got < 0.0  # exponential utility is negative
    assert math.isfinite(root_step.value)


def test_evaluate_strategy_is_the_leaf_probability_sum():
    tree = two_leaf_tree()
    u = exponential(1.0)
    z = 0.5
    h1 = 0.8
    assignment = PredictableAssignment({0: h1, 1: -h1})
    got = evaluate_strategy(tree, assignment, u, z)
    from impactdp.dynamics import terminal_wealth_explicit

    want = 0.0
    for leaf in tree.leaves():
        path, endowment, prob = tree.extract_path(leaf.id)
        wealth = terminal_wealth_explicit(path, (h1, -h1))
        want += prob * u(z + wealth - endowment)
    assert got == pytest.approx(want, rel=1e-12)


def test_evaluate_strategy_rejects_incomplete_or_open_strategies():
    tree = two_leaf_tree()
    u = exponential(1.0)
    with pytest.raises(ValueError, match="every non-leaf"):
        evaluate_strategy(tree, PredictableAssignment({0: 0.1}), u, 0.0)
    with pytest.raises(ValueError, match="position to zero"):
        evaluate_strategy(tree, PredictableAssignment({0: 1.0, 1: 0.5}), u, 0.0)
    # a trade the tree cannot hold is named, not ignored
    with pytest.raises(ValueError, match="node 2, a leaf"):
        evaluate_strategy(tree, PredictableAssignment({0: 0.5, 1: -0.5, 2: 7.0}), u, 0.0)
    with pytest.raises(ValueError, match="node 99, which the tree does not have"):
        evaluate_strategy(tree, PredictableAssignment({0: 0.5, 1: -0.5, 99: 3.0}), u, 0.0)


def test_exact_state_dp_agrees_with_history_indexed_oracle():
    # the reduced state must carry everything the full history does
    grid = ActionGrid((-1.0, -0.5, 0.0, 0.5, 1.0))
    for name in ("notconvex", "binomial", "zero-price"):
        tree = generate(preset(name))
        u = exponential(1.0)
        v_state, s_state = exact_state_dp(tree, u, 0.0, list(grid))
        oracle = history_dp(tree, u, 0.0, grid)
        assert v_state == pytest.approx(oracle.value, rel=1e-12, abs=1e-12)
        assert s_state.values == oracle.strategy.values
        assert evaluate_strategy(tree, s_state, u, 0.0) == pytest.approx(
            oracle.value, rel=1e-12, abs=1e-12
        )


def test_recursions_leave_no_filled_tables_to_the_cycle_collector():
    # history_dp's tables live on a walk object that holds no reference to
    # itself, and exact_state_dp's and forward_extract's nested functions do
    # not refer to themselves: neither their tables nor anything else is left
    # for the next cyclic collection
    tree = generate(preset("binomial"))
    u = exponential(1.0)
    grid = ActionGrid((-1.0, 0.0, 1.0))
    vf = backward_induce(tree, u, 0.0, SMALL_CONFIG)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        exact_state_dp(tree, u, 0.0, list(grid))
        history_dp(tree, u, 0.0, grid)
        forward_extract(tree, vf, u, 0.0, SMALL_CONFIG)
        gc.collect()
        filled = [o for o in gc.garbage if isinstance(o, dict) and o]
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert filled == []
    assert garbage == 0


def test_strategy_replays_leave_no_cycles():
    # the replay is a walk object, not a closure that names itself, so
    # scoring strategies leaves nothing to the cycle collector
    tree = generate(preset("binomial"))
    u = exponential(1.0)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        best = brute_force_solve(tree, u, 0.0, ActionGrid((-1.0, 0.0, 1.0)))
        evaluate_strategy(tree, best.strategy, u, 0.0)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == 0


def test_exact_state_dp_needs_actions():
    with pytest.raises(ValueError, match="nonempty"):
        exact_state_dp(generate(preset("det-example")), exponential(1.0), 0.0, [])


@pytest.mark.parametrize("acts", [[math.nan, 0.0, 0.5], [0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]])
def test_exact_state_dp_rejects_non_finite_actions(acts):
    with pytest.raises(ValueError, match="actions must be finite"):
        exact_state_dp(generate(preset("binomial")), exponential(1.0), 0.0, acts)


FROZEN_41 = ("-0x1.e4e5e5f9acc84p-1", "e980d29d4d03e036f01d5d8b516a7c98dabbacf1602442df9f0987db6f4f8301")


def frozen_41_bits():
    """The value's hex and the strategy's SHA-256 of ``exact_state_dp`` on
    binomial T = 4 with 41 actions, and the root trade."""
    tree = generate(preset("binomial", T=4, p_up=0.79, resilience=0.29))
    value, strategy = exact_state_dp(tree, exponential(1.0), 0.0, [k / 20 for k in range(-20, 21)])
    pairs = " ".join(f"{n} {h.hex()}" for n, h in sorted(strategy.values.items()))
    return (value.hex(), hashlib.sha256(pairs.encode()).hexdigest()), strategy.trade_at(0)


def test_exact_state_dp_matches_frozen_bits_on_41_actions_at_T4():
    # 41**3 states at each date-(T-1) node; the bits are those the memoised
    # scalar recursion gave before the array passes replaced it
    bits, root_trade = frozen_41_bits()
    assert bits == FROZEN_41
    assert root_trade == 0.15


@pytest.mark.parametrize("trades", [1, 2, 3, 41])
def test_exact_state_dp_bits_do_not_depend_on_the_block_size(monkeypatch, trades):
    # 41**2 states at each date-(T-2) node, scored 1, 2, 3 or all 41 trades
    # per candidate call
    monkeypatch.setattr(_kernels, "_BLOCK", trades * 41**2)
    assert frozen_41_bits() == (FROZEN_41, 0.15)


def test_exact_state_dp_holds_one_block_of_date_T_minus_1_states():
    # 21**3 states at each date-(T-2) node; all their date-(T-1) states at
    # once took 23 MB
    tree = generate(preset("binomial", T=5))
    args = (tree, exponential(1.0), 0.0, [k / 10 for k in range(-10, 11)])
    exact_state_dp(*args)
    tracemalloc.start()
    try:
        exact_state_dp(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@st.composite
def small_trees(draw, horizons=(2, 3), max_children=3):
    """A random non-recombining tree, T in ``horizons``, one to
    ``max_children`` children per node."""
    T = draw(st.sampled_from(horizons))

    def num(lo, hi):
        return draw(st.floats(lo, hi))

    nodes = [TreeNode(id=0, parent=None, t=0, p=1.0, P=num(0.5, 1.5), r=num(0.0, 0.5))]
    frontier = [0]
    for t in range(1, T + 1):
        parents, frontier = frontier, []
        for pid in parents:
            weights = draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=max_children))
            for w in weights:
                frontier.append(len(nodes))
                nodes.append(
                    TreeNode(
                        id=len(nodes),
                        parent=pid,
                        t=t,
                        p=w / sum(weights),
                        P=num(0.0, 2.0),
                        r=num(0.0, 0.5) if t < T else None,
                        delta=num(0.5, 2.0),
                        B=num(-1.0, 1.0) if t == T else None,
                    )
                )
    return ScenarioTree(T=T, zeta0=num(0.0, 0.2), nodes=nodes)


PROPERTY_UTILITIES = (
    exponential(1.0),
    exponential(3.0),
    capped_linear(0.0),
    capped_linear(1.0),
    capped_linear(-20.0),  # every trade reaches the cap, so only the tie-break decides
    piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)]),
)


def _bits(result):
    value, strategy = result
    return value.hex(), {n: h.hex() for n, h in strategy.values.items()}


@settings(max_examples=60, deadline=None)
@given(
    small_trees(),
    st.sampled_from(PROPERTY_UTILITIES),
    st.sampled_from((0.0, 0.25, -0.5)),
    st.lists(st.sampled_from((-1.0, -0.5, -0.3, 0.25, 0.5, 0.7, 1.0)), unique=True, max_size=4),
    st.data(),
)
def test_exact_state_dp_matches_history_dp_whatever_the_action_order(tree, u, z, trades, data):
    acts = [0.0, *trades]
    assert tree.validate().ok
    got = exact_state_dp(tree, u, z, acts)
    oracle = history_dp(tree, u, z, ActionGrid(tuple(acts)))
    assert got[0] == pytest.approx(oracle.value, rel=1e-12, abs=1e-12)
    # equal values, exact replays and brute force's key sequence first; the
    # strategies may differ where rounding at the root absorbs a subtree's gain
    brute = brute_force_solve(tree, u, z, ActionGrid(tuple(acts)))
    assert oracles_agree(tree, u, z, brute, oracle)
    # the tie-break orders actions by (|h|, sign), not by list position
    shuffled = data.draw(st.permutations(acts))
    at = data.draw(st.integers(0, len(acts)))
    doubled = shuffled[:at] + [data.draw(st.sampled_from(acts))] + shuffled[at:]
    for variant in (shuffled, doubled):
        assert _bits(exact_state_dp(tree, u, z, variant)) == _bits(got)
    # nor on how many trades one candidate call scores: 1, 2, 3 or all
    states = len(acts) ** (tree.T - 2)  # at every date-(T-2) node
    for size in (1, 2, 3, len(acts)):
        with mock.patch.object(_kernels, "_BLOCK", size * states):
            assert _bits(exact_state_dp(tree, u, z, acts)) == _bits(got)


def test_exact_state_dp_strategy_replays_to_its_value():
    # the strategy walk reads each node's trade at the state the node scored,
    # state j * n + i of a child being state i of its n-state parent after
    # action j.  On this tree (perfbench's random_tree at T = 4 from
    # random.Random(3), with its cap utility) a walk that swapped i and j
    # would trade 0.25 at node 5 and replay to 0.186 against the value 0.195
    tree = ScenarioTree.load(Path(__file__).parent / "data" / "random-T4-cap.json")
    u = capped_linear(0.7376356194647841)
    value, strategy = exact_state_dp(tree, u, 0.0, [k / 4 for k in range(-4, 5)])
    assert value.hex() == "0x1.8f98ef09b5ffap-3"
    assert [strategy.trade_at(n) for n in (3, 4, 5, 6)] == [0.25, 0.0, 0.0, 0.25]
    assert evaluate_strategy(tree, strategy, u, 0.0) == pytest.approx(value, rel=1e-12)


# -- affine cash tails -------------------------------------------------------

TAIL_UTILITIES = st.one_of(
    st.floats(-1.0, 2.0).map(capped_linear),
    st.just(piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)])),
    st.just(piecewise_linear([(0.5, 0.5)])),
    st.just(piecewise_linear([(-1.0, -1.0), (0.0, -0.9), (0.5, 0.5)])),  # not concave
)


def full_sweeps(tree, vf, u, z, config, dates):
    """Each layer at ``dates`` next to a sweep of its node over the whole cash
    axis, reading the children's layers of ``vf``."""
    ax = vf.axes
    for node in (n for t in dates for n in tree.nodes_at(t)):
        yield vf.layers[node.id], _sweep_node(tree, node, ax.xi, ax.zeta, ax.x, vf.layers, ax, u, z, config)


def closed_form_objective(tree, node, u, z, state, h):
    """The objective of trading h at one state of a date-(T-2) node, formed
    as ``_kernels.sweep_exact`` forms it."""
    kids = tree.children(node.id)

    def cont(c, XI1, ZE1, X1):
        leaves = tree.children(kids[c].id)
        lp, lP, ld, lB = (np.array([getattr(q, a) for q in leaves]) for a in ("p", "P", "delta", "B"))
        return _kernels._leaf_sum(XI1, ZE1, X1, math.exp(-kids[c].r), lp, lP, ld, lB, *u.kernel_encoding(), z)

    cp, cP, cd = (np.array([getattr(k, a) for k in kids]) for a in ("p", "P", "delta"))
    cand = _kernels._over_children(math.exp(-node.r), cp, cP, cd, cont)
    xi, zeta, x = (np.full((1, 1, 1), v) for v in state)
    return float(cand(xi, zeta, x, np.full((1, 1, 1, 1), h))[0, 0, 0, 0])


@settings(max_examples=60, deadline=None)
@given(
    small_trees(horizons=(3, 4), max_children=2),
    TAIL_UTILITIES,
    st.sampled_from((-5.0, 0.0, 5.0)),
    st.booleans(),
)
def test_affine_tail_matches_a_full_sweep_at_the_closed_form_date(tree, u, z, near_kink):
    # at date T-2 every trade from an affine row ends at or below the kink, so
    # the filled rows are the full sweep's up to rounding, and so is its
    # policy: where the trades differ, both are maxima that rounding splits
    # (on a symmetric tree the full sweep's own trade changes from row to row).
    # The auto cash axis steps by hundreds; the near-kink axis steps by one
    # across the threshold, so rows fall between it and the kink
    config = FROZEN_CONFIG
    if near_kink:
        config = replace(config, xi_bounds=(u.kink - z - 12.0, u.kink - z + 4.0), xi_count=17)
    vf = backward_induce(tree, u, z, config)
    ax = vf.axes
    for got, (values, policy, _, _) in full_sweeps(tree, vf, u, z, config, [tree.T - 2]):
        assert np.all(np.abs(got.values - values) <= 1e-14 * (1.0 + np.abs(values)))
        for i, j, k in zip(*np.nonzero(got.policy != policy)):
            state = (ax.xi[i], ax.zeta[j], ax.x[k])
            tail, full = (
                closed_form_objective(tree, tree.node(got.node_id), u, z, state, h)
                for h in (got.policy[i, j, k], policy[i, j, k])
            )
            assert abs(tail - full) <= 1e-14 * (1.0 + abs(full))
    per_grid = vf.axes.xi.size * vf.axes.zeta.size * vf.axes.x.size
    assert vf.diagnostics["swept_states"] <= vf.diagnostics["distinct_grids"] * per_grid


@pytest.mark.parametrize(
    "z, xi_bounds",
    [(1e6, None), (0.0, (50.0, 60.0))],
    ids=["endowment-above-the-cap", "cash-axis-above-the-cap"],
)
def test_an_empty_affine_tail_sweeps_every_row_as_before(z, xi_bounds):
    # no row can stay below the kink: every layer is the full sweep, bit for bit
    tree, u = frozen_instance("binomial-T4-cap")
    config = replace(FROZEN_CONFIG, xi_bounds=xi_bounds)
    vf = backward_induce(tree, u, z, config)
    for got, (values, policy, nexp, warn) in full_sweeps(tree, vf, u, z, config, range(1, tree.T - 1)):
        assert got.values.tobytes() == values.tobytes() and got.policy.tobytes() == policy.tobytes()
        assert (got.k_expansions, got.k_warnings) == (nexp, warn)
    assert vf.diagnostics["swept_states"] == vf.diagnostics["distinct_grids"] * 9 * 5 * 5


def test_affine_tail_sweeps_only_the_rows_above_it():
    # binomial T = 4 under cap = 1 at z = 0, nine cash rows: the three
    # distinct date-2 grids sweep rows 7..8 and the two date-1 grids rows
    # 6..8; each lower row is the top row's value moved by the cash step
    tree, u = frozen_instance("binomial-T4-cap")
    vf = backward_induce(tree, u, 0.0, FROZEN_CONFIG)
    assert vf.diagnostics["distinct_grids"] == 5
    assert vf.diagnostics["swept_states"] == (3 * 2 + 2 * 3) * 5 * 5
    xi = vf.axes.xi
    for grid in vf.layers.values():
        top = {1: 6, 2: 7}[grid.t]
        for i in range(top):
            assert np.array_equal(grid.values[i], grid.values[top] + (xi[i] - xi[top]))
            assert np.array_equal(grid.policy[i], grid.policy[top])


# -- full pipeline -----------------------------------------------------------


def test_solve_deterministic_example_end_to_end():
    report = solve(generate(preset("det-example")), exponential(1.0), 0.0)
    assert report.root_value == pytest.approx(exponential(1.0)(1 / 12), abs=1e-3)
    assert report.strategy.trade_at(0) == 0.17
    assert report.strategy.is_liquidating(generate(preset("det-example")))
    assert report.strategy_value == pytest.approx(report.root_value, rel=1e-9)
    d = report.diagnostics
    assert d["monotonicity_violations"] == 0
    assert d["value_gap_ok"] is True and d["value_gap"] <= 1e-9
    payload = report.to_dict()
    assert set(payload) == {"root_value", "strategy", "strategy_value", "diagnostics"}


def test_exponential_trades_do_not_depend_on_the_endowment():
    # exp(-alpha * z) factors out of every exponential value as exp(-alpha * xi)
    # does, so the kernels run at z = 0 and |z| large enough to overflow or
    # underflow u(z + w) leaves the trade as it is
    tree = generate(preset("det-example"))
    u = exponential(1.0)
    base = solve(tree, u, 0.0)
    assert base.strategy.trade_at(0) == 0.17
    for z in (700.0, 760.0, -760.0):
        report = solve(tree, u, z)
        assert report.strategy.values == base.strategy.values
        assert report.strategy.trade_at(0).hex() == base.strategy.trade_at(0).hex()
    high = solve(tree, u, 760.0)
    assert high.root_value == 0.0 and high.diagnostics["value_gap_ok"] is True
    # at z = -760 the root and the replay both overflow to -inf; the gap is
    # taken at z = 0, before the values scale, so the answer certifies
    low = solve(tree, u, -760.0)
    assert low.root_value == low.strategy_value == -math.inf
    assert low.diagnostics["value_gap"] == base.diagnostics["value_gap"]
    assert low.diagnostics["value_gap_ok"] is True


def test_exponential_ground_truth_does_not_depend_on_the_endowment():
    # exact-state DP, the history recursion and brute force run at z = 0 under
    # exp and scale by exp(-alpha * z), so at |z| = 760, where u(z + w)
    # underflows to -0.0 or overflows to -inf for every trade, they still trade
    # 0.17, as the solver does, and no RuntimeWarning escapes them
    tree = generate(preset("det-example"))
    u = exponential(1.0)
    acts = tuple((i - 100) / 100 for i in range(201))
    grid = ActionGrid(acts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = exact_state_dp(tree, u, 0.0, acts)[0]
        for z in (0.0, 760.0, -760.0):
            exact, strategy = exact_state_dp(tree, u, z, acts)
            bf = brute_force_solve(tree, u, z, grid)
            hd = history_dp(tree, u, z, grid)
            for s in (strategy, bf.strategy, hd.strategy):
                assert s.trade_at(0) == 0.17
            assert bf.value.hex() == hd.value.hex()
            assert bf.strategy.values == hd.strategy.values
            assert exact == pytest.approx(bf.value, rel=1e-12)
            with np.errstate(over="ignore", under="ignore"):
                want = at_zero if z == 0.0 else float(_kernels.cara_scale(at_zero, z, u.alpha))
            assert exact.hex() == want.hex()
        assert exact_state_dp(tree, u, 760.0, acts)[0] == 0.0
        assert exact_state_dp(tree, u, -760.0, acts)[0] == -math.inf


@pytest.mark.parametrize("name, T", [("binomial", 3), ("binomial", 4), ("binomial", 5), ("notconvex", 3)])
def test_default_config_certifies_exponential_presets(name, T):
    tree = generate(preset(name, T=T))
    u = exponential(1.0)
    report = solve(tree, u, 0.0)
    idle = PredictableAssignment({n: 0.0 for n in tree.node_ids() if tree.node(n).t < tree.T})
    d = report.diagnostics
    assert d["value_gap_ok"] is True
    assert report.strategy_value >= evaluate_strategy(tree, idle, u, 0.0)
    assert d["k_warnings"] == 0
    # cash-free layers leave nothing to count; binomial T = 4 used to report
    # 1106 drops of one ulp at the old utility floor
    assert d["monotonicity_violations"] == 0


@pytest.mark.parametrize("name", ["binomial-T4-cap", "trinomial-pwl"])
def test_cash_axis_monotonicity_count_under_cap_and_pwl(name):
    tree, u = frozen_instance(name)
    vf = backward_induce(tree, u, 0.0, FROZEN_CONFIG)
    assert vf.axes.xi.size == FROZEN_CONFIG.xi_count
    assert vf.diagnostics["monotonicity_violations"] == 0


def test_saturated_cash_rows_stay_at_the_utility_bound():
    # a random binary T = 4 tree whose top date-1 cash rows saturate at c_u:
    # their sums of saturated leaves used to round above c_u, and seven
    # values fell by an ulp along the cash axis
    tree = ScenarioTree.load(Path(__file__).parent / "data" / "random-T4-pwl.json")
    u = piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.694203291930319)])
    vf = backward_induce(tree, u, 0.0)
    assert max(float(g.values.max()) for g in vf.layers.values()) == u.c_u
    assert vf.diagnostics["monotonicity_violations"] == 0


def test_solve_rejects_invalid_trees():
    broken = two_leaf_tree(p_up=0.3, p_dn=0.4)  # leaf probabilities sum to 0.7
    with pytest.raises(ValueError, match="invalid tree"):
        solve(broken, exponential(1.0), 0.0)
