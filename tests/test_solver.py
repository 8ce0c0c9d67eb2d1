"""Solver layer: config, grids, one-step search, extraction, exact-state DP."""

import gc
import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impactdp import _kernels
from impactdp.oracle import ActionGrid, brute_force_solve, history_dp
from impactdp.solver import (
    MarketState,
    SolveConfig,
    SolverNumericError,
    _exact_walk,
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
        ({"value_tol": math.nan}, "value_tol must be finite and nonnegative"),
        ({"value_tol": -1.0}, "value_tol must be finite and nonnegative"),
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
    cfg = SolveConfig(xi_bounds=(-2.0, 2.0), action_count=51, value_tol=0.5)
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
        "fc6f4c6842252793c5060e87b145cb166f0afc625b49726ff1d223b963adaf6b",
        "-0x1.1942850a14289p+5", "0x0.0p+0", "0x1.65af0d59f932cp-6",
    ),
    "trinomial-pwl": (
        "70840f40869174caf75b8bec4df189acea4e25240bc991bdd09b17861d5da188",
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
    (21, "binomial-T4-cap"): "ecb18c862cc363cbc2b37a8f150d6e7240fd8ae91817d1752d686f46be5ed19f",
    (21, "binomial-exp"): "b50081fdc306694debfc325b6ba5d2646bf91d0586ae7caec30d65090f8d0753",
    (21, "det-example-exp"): "7fe7afc26c8e4d336c5dd7c3baf3f026a9d66921befdc14ecc2378a17382e896",
    (21, "notconvex-exp"): "735c474ff17a8c8b9a0d93457f66c1d17479191c8c84992f1a1a269f339c01ae",
    (21, "trinomial-pwl"): "6b9d15d0aea913c4d5f0657451bb1016cacb49b4ae67c05eebf974b4bc5a1b96",
    (201, "binomial-T4-cap"): "9ab232413492e4e6effe1f0ff85d6cd1df1c13e4405ccafc9a3f4405728ab8f2",
    (201, "binomial-exp"): "84a8c1e479e131651ac74b43c2acf938f9496fa2578930a6eb69f40390996e92",
    (201, "det-example-exp"): "ed163ca0d2c0ad0bbf79aa92f48196240a1c34ed15c9dd8aed08a365404ccec2",
    (201, "notconvex-exp"): "0c179600ce1fe5b5f2e873534e7220dd870878c018826ee45317814399ef1731",
    (201, "trinomial-pwl"): "d888e9a7ecd44cbf65c8ba4d8678f6926aeaec0829564fbca77254419f6970cc",
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

    def pick(node, xi, zeta, x):
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


def test_exact_state_dp_matches_frozen_bits_on_41_actions_at_T4():
    # 41**3 states at each date-(T-1) node; the bits are those the memoised
    # scalar recursion gave before the array passes replaced it
    tree = generate(preset("binomial", T=4, p_up=0.79, resilience=0.29))
    value, strategy = exact_state_dp(tree, exponential(1.0), 0.0, [k / 20 for k in range(-20, 21)])
    assert value.hex() == "-0x1.e4e5e5f9acc84p-1"
    assert strategy.trade_at(0) == 0.15
    pairs = " ".join(f"{n} {h.hex()}" for n, h in sorted(strategy.values.items()))
    assert hashlib.sha256(pairs.encode()).hexdigest() == (
        "e980d29d4d03e036f01d5d8b516a7c98dabbacf1602442df9f0987db6f4f8301"
    )


@st.composite
def small_trees(draw):
    """A random non-recombining tree, T in {2, 3}, one to three children per node."""
    T = draw(st.sampled_from((2, 3)))

    def num(lo, hi):
        return draw(st.floats(lo, hi))

    nodes = [TreeNode(id=0, parent=None, t=0, p=1.0, P=num(0.5, 1.5), r=num(0.0, 0.5))]
    frontier = [0]
    for t in range(1, T + 1):
        parents, frontier = frontier, []
        for pid in parents:
            weights = draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3))
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
    # both oracles keep the first maximum in (|h|, sign) order
    brute = brute_force_solve(tree, u, z, ActionGrid(tuple(acts)))
    assert _bits((brute.value, brute.strategy)) == _bits((oracle.value, oracle.strategy))
    # the tie-break orders actions by (|h|, sign), not by list position
    shuffled = data.draw(st.permutations(acts))
    at = data.draw(st.integers(0, len(acts)))
    doubled = shuffled[:at] + [data.draw(st.sampled_from(acts))] + shuffled[at:]
    for variant in (shuffled, doubled):
        assert _bits(exact_state_dp(tree, u, z, variant)) == _bits(got)


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


def test_solve_rejects_invalid_trees():
    broken = two_leaf_tree(p_up=0.3, p_dn=0.4)  # leaf probabilities sum to 0.7
    with pytest.raises(ValueError, match="invalid tree"):
        solve(broken, exponential(1.0), 0.0)
