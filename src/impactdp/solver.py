"""Backward-induction solver on scenario trees.

The value functions are indexed by the sufficient statistic (xi, zeta, x):
cash, half-spread and position.  Leaves evaluate terminal utility, the last
decision date is forced (the position must be closed), and every earlier date
maximizes the one-step objective over a symmetric action grid whose half-width
K is expanded until the boundary trades are provably dominated by doing
nothing.  A date's value function serves only as the continuation of the date
before, and dates T-1 and T are always summed in closed form (one cheap sum
over the leaves of each last-decision-date child), so value grids exist at
dates 1..T-2 only: they are read back with clamped multilinear interpolation
by the sweeps of the date before, and the root value comes from a one-step
optimization at the exact root state.  ``_sweep_node`` is the one map from a
node's date to its kernel, checks every result for NaN and +inf, and clamps
cap and pwl results at the utility's bound c_u, which a sum of saturated
leaves can exceed by rounding: the backward pass calls it on the grid axes,
``one_step_optimize`` on one-point axes at an exact state.

Under exponential utility u(w) = -exp(-alpha*w) cash and the endowment z add
to wealth, so V_t(xi, zeta, x) = exp(-alpha*(xi + z)) * V_t(0, zeta, x) with
V_t(0, ., .) taken at z = 0, and the optimal trade depends on neither.
Exponential layers are therefore cash-free: each holds W_t = V_t(0, ., .) on
the one-point cash axis xi = 0 with the kernels run at z = 0, every sweep runs
on the (zeta, x) states only, and a child grid is read as
exp(-alpha*xi') * W(zeta', x'), exact along xi with no cash clamp and no
utility floor (``_kernels`` has the details).  ``one_step_optimize`` runs the
node at xi = z = 0 and scales the value to the state's cash plus z.  Cap and
pwl layers keep the cash axis and z.  ``exact_state_dp`` and the oracles use
no grid at all: ``exact_state_dp`` hands each node, depth first, the exact
states an action set A reaches as arrays, and scores the trades of each
date-(T-2) node with ``sweep_exact``'s candidate, block path and first-maximum
scan, so its memory grows with |A|^(T-2), while the oracles score every trade
history on broadcast arrays, one visit per node.  Under exponential utility
they run at z = 0 as well and scale their value by exp(-alpha*z), and
``solve`` takes its value gap at z = 0.

Cap and pwl utilities have slope one at and below their kink
(``UtilitySpec.kink``), and no trade adds more cash than the innovation
envelope's cap P^2 * delta / 4 (``dynamics.innovation_envelope``).  Let G be
the largest sum of those caps along a path from a node's children down to a
leaf, and B_min the smallest leaf endowment below it.  At a state with
z + xi + G - B_min <= kink every reachable leaf wealth lies in the slope-one
region, so V(xi, zeta, x) = xi + V(0, zeta, x) there exactly, with a trade
that does not depend on cash.  ``backward_induce`` therefore sweeps a cap or
pwl layer only from the top row of its affine tail upward.  At date T-2 that
top is the largest cash row with z + xi + G - B_min <= kink.  Before T-2 it
is the largest row from which every child read, at cash at most
xi + P_c^2 * delta_c / 4, lands in that child's tail.  The rows below the top
are filled with values[top] + (xi - xi_top) and policy[top]; the bound search
and the action scan see only the swept rows.  At date T-2 the filled rows are
the full sweep's up to rounding.  Before T-2 they hold the identity where a
full sweep would read the child grids clamped below the cash axis.
``diagnostics["swept_states"]`` counts the states the backward pass swept.

A node's grid depends only on its own resilience and endowment and on its
children's (p, P, delta) and subtrees.  ``backward_induce`` gives every node
below the root a bottom-up signature of exactly those floats (bit for bit),
computes one grid per distinct signature at dates 1..T-2 and lets the nodes
that share a signature share its read-only arrays, so a recombining lattice or
an iid tree sweeps each distinct subtree once.

``evaluate_strategy`` walks the tree with the explicit cash-innovation form.
The walk, ``_Walk``, is the single evaluation path shared with the exhaustive
oracles, which is what makes oracle cross-checks exact rather than
approximate.  It visits each node once, and its trades may be floats or
broadcast arrays: ``evaluate_strategy`` plays floats, while each oracle gives
every decision node its whole grid on an axis of its own, so that one visit
per node scores every trade history.  Brute force puts decision node a on axis
a of ``tree.decision_ids()`` and keeps every axis, and ``history_dp`` puts a
date-t node on axis t and maximizes over it in ``decide``.  A rule for the free
trades becomes a full strategy in one more walk, ``_exact_walk``: it carries
each node's exact state and trade history, asks the rule for the trade before
date T-1 and closes the position at T-1.  ``forward_extract``,
``exact_state_dp`` and both oracles complete their strategies there.
``solve`` certifies its answer when root and replay differ by at most
``VALUE_TOL`` relative to 1 + |root|.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .dynamics import _kappa_core, closing_trade, innovation_envelope, transition
from .tree import PredictableAssignment, ScenarioTree, TreeNode
from .utility import UtilitySpec

__all__ = [
    "MarketState",
    "SolveConfig",
    "GridAxes",
    "NodeGrid",
    "ValueFunctions",
    "SolveReport",
    "OneStep",
    "SolverNumericError",
    "backward_induce",
    "one_step_optimize",
    "forward_extract",
    "evaluate_strategy",
    "exact_state_dp",
    "solve",
]


# the largest relative gap between the root value and the replay of the
# extracted strategy that still certifies a solve
VALUE_TOL = 1e-2


class SolverNumericError(RuntimeError):
    """Raised when a value layer contains NaN or +inf."""


@dataclass(frozen=True)
class MarketState:
    """Exact solver state: cash xi, half-spread zeta >= 0, position x."""

    xi: float
    zeta: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.zeta) and self.zeta >= 0.0):
            raise ValueError(f"half-spread zeta must be finite and nonnegative, got {self.zeta!r}")


@dataclass(frozen=True)
class GridAxes:
    xi: np.ndarray
    zeta: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class SolveConfig:
    """Grid geometry and action count for one solve.

    ``None`` bounds are auto-sized from the tree: the position axis covers
    +-T, the spread axis covers the worst case reachable with trades that
    large, and the cash axis covers price times trade budget plus friction.
    Auto bounds favor coverage over resolution; pass explicit bounds for
    tight value comparisons.  ``xi_bounds`` and ``xi_count`` apply to cap
    and pwl utility only: exponential layers are cash-free and have no cash
    axis.  Most rows of the auto cash axis lie in a layer's affine tail, where
    cash plus z plus the envelope gain still possible below the node, minus
    its smallest leaf endowment, stays at or below the utility's kink: the
    value there is cash plus a cash-free part, so those rows are filled from
    the tail's top row and not swept (module docstring).  The trade range
    comes from the kernels' bound search, whose start, growth and round cap
    are fixed: ``_kernels.K_START``, ``K_FACTOR`` and ``K_ROUNDS``.
    """

    xi_bounds: tuple[float, float] | None = None
    xi_count: int = 41
    zeta_bounds: tuple[float, float] | None = None
    zeta_count: int = 21
    x_bounds: tuple[float, float] | None = None
    x_count: int = 21
    action_count: int = 201

    def __post_init__(self) -> None:
        for name in ("xi_count", "zeta_count", "x_count"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if self.action_count < 3 or self.action_count % 2 == 0:
            raise ValueError("action_count must be odd and at least 3")
        for name in ("xi_bounds", "zeta_bounds", "x_bounds"):
            b = getattr(self, name)
            if b is not None and not all(map(math.isfinite, b)):
                raise ValueError(f"{name} must be finite")
            if b is not None and not b[0] < b[1]:
                raise ValueError(f"{name} must be an increasing pair")
        zb = self.zeta_bounds
        if zb is not None and zb[0] < 0.0:
            raise ValueError("zeta_bounds must be nonnegative")

    def resolve_axes(self, tree: ScenarioTree, u: UtilitySpec | None = None) -> GridAxes:
        """Grid axes for ``tree``: the auto position axis is +-T, the auto
        spread axis ends at zeta0 + 2 * T**2 over the tree's smallest depth,
        and the cash axis is the single point 0.0 when ``u`` is exponential."""
        T = tree.T
        x_max = float(T)
        if self.x_bounds is None:
            x_axis = _kernels.symmetric_grid(x_max, self.x_count)
        else:
            x_axis = np.linspace(self.x_bounds[0], self.x_bounds[1], self.x_count)
        if self.zeta_bounds is None:
            depth_min = min(n.delta for n in map(tree.node, tree.node_ids()) if n.delta is not None)
            zeta_hi = tree.zeta0 + 2.0 * x_max * T / float(depth_min)
            zeta_axis = np.linspace(0.0, zeta_hi, self.zeta_count)
        else:
            zeta_hi = self.zeta_bounds[1]
            zeta_axis = np.linspace(self.zeta_bounds[0], zeta_hi, self.zeta_count)
        if u is not None and u.family == "exp":
            xi_axis = np.zeros(1)
        elif self.xi_bounds is None:
            price_abs = max(
                (abs(tree.node(i).P) for i in tree.node_ids() if tree.node(i).t >= 1),
                default=0.0,
            )
            budget = 2.0 * x_max * T
            xi_lo = -budget * (price_abs + zeta_hi)
            xi_hi = budget * price_abs
            if not xi_lo < xi_hi:
                xi_lo, xi_hi = xi_lo - 1.0, xi_hi + 1.0
            xi_axis = np.linspace(xi_lo, xi_hi, self.xi_count)
        else:
            xi_axis = np.linspace(self.xi_bounds[0], self.xi_bounds[1], self.xi_count)
        return GridAxes(xi=xi_axis, zeta=zeta_axis, x=x_axis)

    def echo(self) -> dict:
        """Every field by name, bound pairs as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass
class NodeGrid:
    """Value estimates and maximizing actions for one node, on the state grid."""

    node_id: int
    t: int
    values: np.ndarray
    policy: np.ndarray
    k_expansions: int = 0
    k_warnings: int = 0


@dataclass
class ValueFunctions:
    """The grids of the nodes at dates 1..T-2, the only ones a sweep reads,
    and their diagnostics."""

    axes: GridAxes
    layers: dict[int, NodeGrid]
    diagnostics: dict = field(default_factory=dict)


class OneStep(NamedTuple):
    h: float
    value: float
    k_expansions: int
    k_warning: bool


# -- backward induction -----------------------------------------------------


def backward_induce(
    tree: ScenarioTree, u: UtilitySpec, z: float, config: SolveConfig | None = None
) -> ValueFunctions:
    """Build value and policy grids for the nodes at dates 1..T-2, leaves first.

    These are the grids the sweeps of dates 0..T-3 read; the root value and
    every trade come from ``one_step_optimize`` at exact states, and dates T-1
    and T enter only through the closed-form leaf sums of the kernels, so no
    grid is built for them.  Every node below the root still gets a subtree
    signature, since a node's signature holds its children's.  Under
    exponential utility every layer is cash-free, of shape (1, nzeta, nx).
    Nodes with the same subtree signature share one grid, whose arrays are
    read-only.  Raises ``SolverNumericError`` if a layer contains NaN or +inf.
    """
    config = config or SolveConfig()
    axes = config.resolve_axes(tree, u)
    z = float(z)
    kink = u.kink
    layers: dict[int, NodeGrid] = {}
    sig_of: dict[int, int] = {}  # node id -> signature id
    sig_ids: dict[tuple, int] = {}  # signature -> its id, in order of first sight
    computed: dict[int, tuple] = {}  # signature id -> the sweep made for it
    envelope: dict[int, tuple[float, float]] = {}  # signature id -> (G, B_min), cap and pwl only
    tail_xi: dict[int, float] = {}  # signature id -> cash of its affine top row, -inf if none
    swept = 0
    for t in range(tree.T, 0, -1):
        for node in tree.nodes_at(t):
            children = tree.children(node.id)
            kids = tuple((_exact(k.p), _exact(k.P), _exact(k.delta), sig_of[k.id]) for k in children)
            sig = sig_ids.setdefault((_exact(node.r), _exact(node.B), kids), len(sig_ids))
            sig_of[node.id] = sig
            if kink is not None and sig not in envelope:
                envelope[sig] = _envelope(node, children, envelope, sig_of)
            if t > tree.T - 2:
                continue
            if sig not in computed:
                top = 0
                if kink is not None:
                    top, tail_xi[sig] = _tail_top(tree, node, axes.xi, envelope[sig], tail_xi, sig_of, z, kink)
                xg = axes.xi[top:]
                vals, pol, nexp, warn = _sweep_node(tree, node, xg, axes.zeta, axes.x, layers, axes, u, z, config)
                swept += vals.size
                if top:
                    vals, pol = _fill_tail(vals, pol, axes.xi, top)
                computed[sig] = (vals, pol, nexp, warn)
                for arr in (vals, pol):
                    arr.setflags(write=False)  # nodes may share them
            layers[node.id] = NodeGrid(node.id, t, *computed[sig])
    diagnostics = {
        "k_expansions": max((g.k_expansions for g in layers.values()), default=0),
        "k_warnings": sum(g.k_warnings for g in layers.values()),
        "monotonicity_violations": int(
            sum(np.sum(g.values[1:, :, :] < g.values[:-1, :, :]) for g in layers.values())
        ),
        "distinct_grids": len(computed),
        "swept_states": swept,
    }
    return ValueFunctions(axes=axes, layers=layers, diagnostics=diagnostics)


def _exact(v: float | None) -> str | None:
    # bit-exact key: 0.0 and -0.0 compare equal but may round differently
    return None if v is None else float(v).hex()


def _envelope(node: TreeNode, children: Sequence[TreeNode], envelope: dict, sig_of: dict) -> tuple[float, float]:
    """(G, B_min) of a node: G bounds the cash the trades below it can still
    add, the largest sum of innovation envelope caps P^2 * delta / 4 along a
    path down to a leaf, and B_min is the smallest leaf endowment below it."""
    if not children:
        return 0.0, float(node.B)
    below = [envelope[sig_of[c.id]] for c in children]
    gain = max(innovation_envelope(c.P, c.delta, 0.0).cap + g for c, (g, _) in zip(children, below))
    return gain, min(b for _, b in below)


def _tail_top(tree, node, xi, envelope, tail_xi, sig_of, z, kink) -> tuple[int, float]:
    """The lowest cash row a cap or pwl sweep must run, and its cash if it is
    affine (-inf if no row is).

    A row is affine when every leaf wealth reachable from it stays at or below
    the utility's kink, where the utility is w plus a constant, so the value
    there is the row's cash plus a value that does not depend on cash.  At
    date T-2 that holds when z + xi + G - B_min <= kink.  Before, a row is
    affine when every child read, at cash at most xi + P_c^2 * delta_c / 4,
    lands at or below the child's own affine top row.  The affine rows form a
    prefix of the increasing cash axis; the sweep runs from the top one.
    """
    if node.t == tree.T - 2:
        gain, b_min = envelope
        ok = z + xi + gain - b_min <= kink
    else:
        ok = np.ones(xi.size, dtype=bool)
        for c in tree.children(node.id):
            ok &= xi + innovation_envelope(c.P, c.delta, 0.0).cap <= tail_xi[sig_of[c.id]]
    n = int(np.count_nonzero(ok))
    return (n - 1, float(xi[n - 1])) if n else (0, -math.inf)


def _fill_tail(vals: np.ndarray, pol: np.ndarray, xi: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-axis layers from a sweep of the cash rows top..: row i < top holds
    values[top] + (xi_i - xi_top) and policy[top]."""
    below = vals[0] + (xi[:top] - xi[top])[:, None, None]
    return np.concatenate([below, vals]), np.concatenate([np.broadcast_to(pol[0], below.shape), pol])


def _sweep_node(tree, node, xg, zg, xxg, layers, axes, u, z, config):
    """Values, policy, K expansions and K warnings of a non-leaf node.

    The states are the product of the axes xg, zg, xxg; ``layers`` and
    ``axes`` hold the children's grids, which only dates before T-2 read.
    The date picks the kernel: forced liquidation at T-1, the closed-form
    sweep at T-2, the interpolating sweep before.  Exponential kernels run at
    z = 0, as the cash-free layers are.  Raises ``SolverNumericError`` if a
    value is NaN or +inf.
    """
    ucode, ua, uxs, uys = u.kernel_encoding()
    z = _run_z(u, z)
    decay = math.exp(-node.r)
    kids = tree.children(node.id)
    if node.t == tree.T - 1:
        lp, lP, ld, lB = _fields(kids, "p", "P", "delta", "B")
        vals, pol = _kernels.forced_layer(xg, zg, xxg, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z)
        nexp = warn = 0
    else:
        cp, cP, cdelta = _fields(kids, "p", "P", "delta")
        search = (_kernels.K_START, _kernels.K_FACTOR, _kernels.K_ROUNDS, config.action_count)
        if node.t == tree.T - 2:
            vals, pol, nexp, warn = _kernels.sweep_exact(
                xg, zg, xxg, decay, cp, cP, cdelta, *_leaves(tree, kids), ucode, ua, uxs, uys, z, *search
            )
        else:
            grids = np.ascontiguousarray(np.stack([layers[k.id].values for k in kids]))
            cara = ua if ucode == 0 else None
            vals, pol, nexp, warn = _kernels.sweep_grid(
                xg, zg, xxg, decay, cp, cP, cdelta, grids, axes.xi, axes.zeta, axes.x, *search, cara
            )
        nexp, warn = int(nexp.max()), int(warn.sum())
    if np.isnan(vals).any() or np.isposinf(vals).any():
        raise SolverNumericError(f"non-finite values at node {node.id}")
    if u.family != "exp":
        # u <= c_u, but a sum of saturated leaves can round above it
        np.minimum(vals, u.c_u, out=vals)
    return vals, pol, nexp, warn


def _fields(nodes: Sequence[TreeNode], *names: str) -> tuple[np.ndarray, ...]:
    return tuple(np.array([getattr(n, name) for n in nodes], dtype=np.float64) for name in names)


def _leaves(tree: ScenarioTree, kids: Sequence[TreeNode]) -> tuple[np.ndarray, ...]:
    """The leaves below the date-(T-1) nodes ``kids`` as ``_kernels._leaf_cont``
    takes them: each kid's decay exp(-r), the offsets of each kid's leaves and
    the leaves' p, P, delta and B, packed kid after kid."""
    leaves = [tree.children(k.id) for k in kids]
    goff = np.cumsum([0] + [len(ls) for ls in leaves], dtype=np.int64)
    cdecay = np.array([math.exp(-k.r) for k in kids], dtype=np.float64)
    return (cdecay, goff, *_fields([leaf for ls in leaves for leaf in ls], "p", "P", "delta", "B"))


def _run_z(u: UtilitySpec, z: float) -> float:
    """The endowment a value is computed at: 0 under exponential utility,
    whose values at z are exp(-alpha * z) times those at 0 (``_cara_shift``
    applies the factor), and ``z`` itself otherwise."""
    return 0.0 if u.family == "exp" else z


def _cara_shift(u: UtilitySpec, value: float, shift: float) -> float:
    """An exponential value computed at cash and endowment 0, moved to cash
    plus endowment ``shift``: exp(-alpha * shift) * value, the same bits when
    ``shift`` is 0.  Values of other families are returned as they are."""
    if u.family != "exp" or shift == 0.0:
        return value
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return float(_kernels.cara_scale(value, shift, u.alpha))


def one_step_optimize(
    tree: ScenarioTree,
    node_id: int,
    state: MarketState,
    value_functions: ValueFunctions | None,
    u: UtilitySpec,
    z: float,
    config: SolveConfig | None = None,
) -> OneStep:
    """Optimal trade at one exact state.

    Runs the node's kernel on a single-point state grid, through the same
    dispatch as the grid pass, so the semantics (action set, K expansion,
    tie-break toward small then negative trades) are exactly those of the
    grid pass.  With one state, the kernel's action scan puts every action
    of the set on its leading axis, evaluates them in one candidate call and
    keeps their first maximum in one block update of ``_kernels._scan``; the
    K search probes h = 0 and its first trade pair in one call, then one pair
    per further round.  At the last
    decision date the trade is forced to close the position and no search
    happens.  Under exponential utility the optimal trade depends on neither
    cash nor the endowment z: the node runs at xi = z = 0, as in the grid
    pass, and the value is scaled by exp(-alpha * (xi + z)).
    """
    config = config or SolveConfig()
    node = tree.node(node_id)
    if node.t >= tree.T:
        raise ValueError(f"node {node_id} is a leaf, no trade is chosen there")
    if node.t < tree.T - 2 and value_functions is None:
        raise ValueError("value grids are required when children carry grids")
    layers, axes = (None, None) if value_functions is None else (value_functions.layers, value_functions.axes)
    xi = 0.0 if u.family == "exp" else state.xi
    xg, zg, xxg = (np.array([v], dtype=np.float64) for v in (xi, state.zeta, state.x))
    vals, pol, nexp, warn = _sweep_node(tree, node, xg, zg, xxg, layers, axes, u, float(z), config)
    value = _cara_shift(u, float(vals[0, 0, 0]), state.xi + float(z))
    # + 0.0: closing a flat position trades 0.0, not -0.0
    return OneStep(float(pol[0, 0, 0]) + 0.0, value, nexp, bool(warn))


def forward_extract(
    tree: ScenarioTree,
    value_functions: ValueFunctions,
    u: UtilitySpec,
    z: float,
    config: SolveConfig | None = None,
) -> tuple[PredictableAssignment, OneStep, dict]:
    """Replay the policy from the root at exact states.

    Returns the full strategy (a trade for every non-leaf node; forced closure
    at the last decision date), the root one-step result whose value is the
    reported root value, and K-search diagnostics aggregated over every
    exact-state optimization along the way.
    """
    config = config or SolveConfig()
    steps: list[OneStep] = []

    def pick(node: TreeNode, xi: float, zeta: float, x: float, hs: tuple) -> float:
        steps.append(one_step_optimize(tree, node.id, MarketState(xi, zeta, x), value_functions, u, z, config))
        return steps[-1].h

    assignment = _exact_walk(tree, pick)
    diag = {
        "k_expansions": max(s.k_expansions for s in steps),
        "k_warnings": sum(int(s.k_warning) for s in steps),
    }
    return assignment, steps[0], diag


def _exact_walk(tree: ScenarioTree, pick: Callable) -> PredictableAssignment:
    """The trades along every path from the root's exact state.

    ``pick(node, xi, zeta, x, hs)`` chooses the trade at a node before the
    last decision date, given its exact state and the trades ``hs`` made on
    the way to it, root first.  The walk closes the position at T-1 with
    ``dynamics.closing_trade(hs)``, as the evaluation walk does, and applies
    ``dynamics.transition`` in between.  The root is picked first.
    """
    values: dict[int, float] = {}
    stack = [(tree.root, 0.0, tree.zeta0, 0.0, ())]
    while stack:
        node, xi, zeta, x, hs = stack.pop()
        if node.t == tree.T - 1:
            values[node.id] = closing_trade(hs)
            continue
        h = values[node.id] = pick(node, xi, zeta, x, hs)
        ah = abs(h)
        decay = math.exp(-node.r)
        hs = hs + (h,)
        for child in reversed(tree.children(node.id)):
            xi1, ze1 = transition(xi, zeta, h, ah, decay, child.P, child.delta)
            stack.append((child, xi1, ze1, x + h, hs))
    return PredictableAssignment(values)


# -- exact strategy evaluation (shared with the oracles) --------------------


def evaluate_strategy(
    tree: ScenarioTree, assignment: PredictableAssignment, u: UtilitySpec, z: float
) -> float:
    """Expected terminal utility of a liquidating strategy, exactly.

    Wealth along every path is accumulated date by date with the explicit
    cash-innovation form; the expectation is the nested sum over children in
    ascending id order.  The oracles run through this same code path, which is
    what makes their agreement exact.  A trade at a leaf or at a node id the
    tree does not have raises ``ValueError`` naming the node.
    """
    ids = set(tree.node_ids())
    for n in assignment.values:
        if n not in ids:
            raise ValueError(f"strategy trades at node {n}, which the tree does not have")
        if tree.node(n).t >= tree.T:
            raise ValueError(f"strategy trades at node {n}, a leaf, where nothing is traded")
    if not assignment.is_complete(tree):
        raise ValueError("strategy must assign a trade to every non-leaf node")
    if not assignment.is_liquidating(tree):
        raise ValueError("strategy must return the position to zero on every path")

    with np.errstate(over="ignore"):
        return _replay(tree, assignment, u, z)


def _replay(tree: ScenarioTree, assignment: PredictableAssignment, u: UtilitySpec, z: float) -> float:
    """``evaluate_strategy`` without its checks on the strategy."""
    return _Walk(tree, u, z, {n: float(h) for n, h in assignment.values.items()}).root_value()


class _Walk:
    """The exact evaluation walk, one visit per node.

    Wealth is accumulated child by child with the explicit cash-innovation
    form, leaves score terminal utility at endowment ``z``, the position is
    closed at date T-1, and ``decide`` gives the value of a node before T-1.
    This walk's ``decide`` trades ``trades[node id]``.  A trade is a float or
    an array: ``_kappa_core``, ``closing_trade`` and the utility take both
    with the same operations in the same order.  So when each decision node
    trades its whole action grid on an axis of its own, with size 1 on every
    other axis, one visit per node scores every trade history: a node's
    arrays run over the axes of its ancestors' trades, and its value over
    those of its subtree's as well, each entry the float a walk that plays
    that history alone gives.  ``evaluate_strategy`` plays floats, brute force
    gives decision node a the axis a of ``tree.decision_ids()``, and
    ``history_dp`` gives a date-t node the axis t and reduces it in its own
    ``decide``.  A walk holds no reference to itself, so whatever tables a
    subclass fills go with it, also when the walk raises.
    """

    def __init__(self, tree: ScenarioTree, u: UtilitySpec, z: float, trades: Mapping[int, float | np.ndarray]) -> None:
        self.tree, self.u, self.z, self.trades = tree, u, z, trades

    def root_value(self):
        return self.node_value(self.tree.root, (0.0,), (), (), 0.0)

    def node_value(self, node: TreeNode, rsums: tuple, deltas: tuple, hs: tuple, wealth):
        if node.t == self.tree.T:
            return self.u(self.z + wealth - node.B)
        if node.t == self.tree.T - 1:
            return self.child_sum(node, rsums, deltas, hs, wealth, closing_trade(hs))
        return self.decide(node, rsums, deltas, hs, wealth)

    def child_sum(self, node: TreeNode, rsums: tuple, deltas: tuple, hs: tuple, wealth, h):
        """Expected value over the children of ``node`` after trading ``h``."""
        tree = self.tree
        rs = rsums + (rsums[-1] + float(node.r),)
        hs = hs + (h,)
        acc = 0.0
        for child in tree.children(node.id):
            ds = deltas + (float(child.delta),)
            kap = _kappa_core(tree.zeta0, rs, ds, float(child.P), hs)
            # not +=: the children's values may be arrays of different shapes
            acc = acc + child.p * self.node_value(child, rs, ds, hs, wealth + kap)
        return acc

    def decide(self, node: TreeNode, rsums: tuple, deltas: tuple, hs: tuple, wealth):
        return self.child_sum(node, rsums, deltas, hs, wealth, self.trades[node.id])


def _tie_key(h: float) -> tuple[float, int]:
    """Order among trades of equal value: the smaller |h| first, then the sale.

    The oracles and ``exact_state_dp`` scan their trades sorted by this key,
    the grid sweeps scan theirs as 0, -d, +d, -2d, +2d, ..., and all keep the
    first maximum.
    """
    return (abs(h), 1 if h > 0.0 else 0)


# -- exact-state certification ----------------------------------------------


def exact_state_dp(
    tree: ScenarioTree, u: UtilitySpec, z: float, actions: Sequence[float]
) -> tuple[float, PredictableAssignment]:
    """Grid-free backward induction on the exact (xi, zeta, x) state.

    Maximizes over the given action set only (no K expansion), with the same
    tie-break as the grid solver.  Certifies that the reduced state carries
    everything the history does: its value must match the history-indexed
    oracle to float accuracy on any instance small enough to enumerate.
    Under exponential utility it runs at z = 0, as the grid solver does, and
    scales the value by exp(-alpha * z), so a large |z| cannot make every
    candidate overflow or underflow to the same value.  One depth-first pass
    hands each node its reachable states as flat arrays, state j * n + i of a
    child being state i of its n-state parent after action j, and scores the
    node when its subtree is done.  A date-(T-2) node scores its trades with
    ``_kernels.sweep_exact``'s candidate through the kernels' block path, on
    slices of at most ``_kernels._BLOCK`` of its states, so it never holds all
    its date-(T-1) states and no candidate block outgrows ``_BLOCK``
    elements, and its states go once it is scored: memory grows with
    |A|^(T-2) for the action set A.  An earlier node sums its children's
    values into one block with the actions on its leading axis.  Each keeps
    the first maximum in ``_tie_key`` order with the sweeps'
    ``_kernels._scan``, and the strategy walk reads each node's trade at its
    state's index.
    """
    acts = [float(a) for a in actions]
    if not acts:
        raise ValueError("need a nonempty action set")
    if not all(map(math.isfinite, acts)):
        raise ValueError("actions must be finite")
    acts.sort(key=_tie_key)  # stable, so the first maximum wins as in the sweeps
    closed = (*u.kernel_encoding(), _run_z(u, z))
    best: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        states = (np.zeros(1), np.full(1, tree.zeta0), np.zeros(1))
        root = _exact_score(tree, tree.root, states, acts, closed, best)
    index = {tree.root.id: 0}  # node id -> the walk's state among the node's states

    def pick(node: TreeNode, xi: float, zeta: float, x: float, hs: tuple) -> float:
        i = index.pop(node.id)
        j = int(best.pop(node.id)[i])
        for child in tree.children(node.id):
            index[child.id] = j * len(acts) ** node.t + i
        return acts[j]

    return _cara_shift(u, float(root[0]), z), _exact_walk(tree, pick)


def _exact_score(
    tree: ScenarioTree, node: TreeNode, states: tuple, acts: list, closed: tuple, best: dict
) -> np.ndarray:
    """``exact_state_dp``'s value of ``node`` at each of its ``states``
    (xi, zeta, x), with the slot of each state's first maximum among
    ``acts`` put in ``best`` under the node's id, and so for its subtree."""
    kids = tree.children(node.id)
    xi, zeta, x = states
    if node.t == tree.T - 2:  # the date-(T-1) states are formed a block at a time
        cont = _kernels._leaf_cont(*_leaves(tree, kids), *closed)
        cand = _kernels._over_children(math.exp(-node.r), *_fields(kids, "p", "P", "delta"), cont)
        index, step = np.arange(len(acts)), _kernels._BLOCK
        # at most _BLOCK states a slice, so no candidate block outgrows _BLOCK
        parts = [
            _kernels._scan(_kernels._rows(cand, xi[lo : lo + step], zeta[lo : lo + step], x[lo : lo + step], acts), index)
            for lo in range(0, x.size, step)
        ]
        value, best[node.id] = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        return value
    H = np.array(acts)[:, None]
    rows, x1 = 0.0, (x + H).ravel()
    for child in kids:
        # state j * n + i of the child is state i of the node after action j
        xi1, ze1 = transition(xi, zeta, H, abs(H), math.exp(-node.r), child.P, child.delta)
        value = _exact_score(tree, child, (xi1.ravel(), ze1.ravel(), x1), acts, closed, best)
        rows = rows + child.p * value.reshape(len(acts), -1)
    value, best[node.id] = _kernels._scan([rows], np.arange(len(acts)))
    return value


# -- top level --------------------------------------------------------------


@dataclass
class SolveReport:
    root_value: float
    strategy: PredictableAssignment
    strategy_value: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "root_value": self.root_value,
            "strategy": self.strategy.to_report(),
            "strategy_value": self.strategy_value,
            "diagnostics": dict(self.diagnostics),
        }


def solve(
    tree: ScenarioTree, u: UtilitySpec, z: float, config: SolveConfig | None = None
) -> SolveReport:
    """Full pipeline: validate, induce grids, extract and evaluate a strategy.

    The reported values are those at the endowment z.  Under exponential
    utility the value gap compares the root and the replay at z = 0, before
    both scale by exp(-alpha * z), so an endowment that overflows or
    underflows the scaled values leaves the certificate as it is.
    """
    config = config or SolveConfig()
    tree.require_valid()
    z_run = _run_z(u, z)
    vf = backward_induce(tree, u, z, config)
    assignment, root_step, extract_diag = forward_extract(tree, vf, u, z_run, config)
    replay = evaluate_strategy(tree, assignment, u, z_run)
    diagnostics = dict(vf.diagnostics)
    diagnostics["k_expansions"] = max(diagnostics["k_expansions"], extract_diag["k_expansions"])
    diagnostics["k_warnings"] += extract_diag["k_warnings"]
    diagnostics["value_gap"] = abs(root_step.value - replay) / (1.0 + abs(root_step.value))
    diagnostics["value_gap_ok"] = diagnostics["value_gap"] <= VALUE_TOL
    return SolveReport(
        root_value=_cara_shift(u, root_step.value, z),
        strategy=assignment,
        strategy_value=replay if z_run == z else evaluate_strategy(tree, assignment, u, z),
        diagnostics=diagnostics,
    )
