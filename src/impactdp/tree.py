"""Finite scenario trees for the execution problem.

A tree node carries everything the market reveals at its date: midprice ``P``,
resilience ``r`` applied over the step out of the node (dates 0..T-1), depth
``delta`` met by the trade into the node (dates 1..T) and the endowment
obligation ``B`` at the leaves.  Strategies are predictable: the trade executed
at date t+1 is chosen at the date-t node, so it is one number per non-leaf
node, constant across that node's children by construction.

The JSON file format is deliberately rigid: unknown keys are rejected, parents
must precede children, and all numbers are read as 64-bit floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dynamics import LIQUIDATION_TOL, MarketPath, closing_trade

__all__ = [
    "TreeNode",
    "ScenarioTree",
    "PredictableAssignment",
    "ValidationReport",
    "PathData",
    "GeneratorSpec",
    "generate",
    "preset",
    "PRESET_NAMES",
    "monotone_depth_check",
    "MonotoneDepthReport",
]

PROB_TOL = 1e-9

_TOP_KEYS = {"T", "zeta0", "nodes"}
_NODE_KEYS = {"id", "parent", "t", "p", "P", "r", "delta", "B"}
_STRUCTURAL_KEYS = {"id", "parent", "t", "p", "P"}


@dataclass(frozen=True)
class TreeNode:
    """One node: market data revealed at its date.

    ``p`` is the conditional probability of reaching the node from its parent
    (1.0 for the root).  ``r`` is required for dates <= T-1, ``delta`` for
    dates >= 1 and ``B`` only at the leaves; the others stay None.
    """

    id: int
    parent: int | None
    t: int
    p: float
    P: float
    r: float | None = None
    delta: float | None = None
    B: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class PathData(NamedTuple):
    path: MarketPath
    endowment: float
    probability: float


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


class ScenarioTree:
    """Immutable scenario tree indexed by node id.

    Construction only enforces what is needed to index the tree (unique ids,
    existing parents, a single root); everything else is reported by
    ``validate`` so broken inputs can be diagnosed rather than bounced.
    """

    def __init__(self, T: int, zeta0: float, nodes: Iterable[TreeNode]):
        self.T = int(T)
        self.zeta0 = float(zeta0)
        self._nodes: dict[int, TreeNode] = {}
        self._children: dict[int, list[int]] = {}
        root = None
        for node in nodes:
            if node.id in self._nodes:
                raise ValueError(f"duplicate node id {node.id}")
            if node.parent is None:
                if root is not None:
                    raise ValueError("tree has more than one root")
                root = node.id
            elif node.parent not in self._nodes:
                raise ValueError(
                    f"node {node.id} references parent {node.parent} before it is defined"
                )
            self._nodes[node.id] = node
            self._children[node.id] = []
            if node.parent is not None:
                self._children[node.parent].append(node.id)
        if root is None:
            raise ValueError("tree has no root")
        self.root_id = root
        for ids in self._children.values():
            ids.sort()

    # -- indexing ---------------------------------------------------------

    def node(self, node_id: int) -> TreeNode:
        return self._nodes[node_id]

    def children(self, node_id: int) -> list[TreeNode]:
        return [self._nodes[c] for c in self._children[node_id]]

    @property
    def root(self) -> TreeNode:
        return self._nodes[self.root_id]

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def nodes_at(self, t: int) -> list[TreeNode]:
        return [self._nodes[i] for i in self.node_ids() if self._nodes[i].t == t]

    def leaves(self) -> list[TreeNode]:
        return [n for n in (self._nodes[i] for i in self.node_ids()) if not self._children[n.id]]

    def decision_ids(self) -> list[int]:
        """Nodes where a free trade is chosen (dates 0..T-2)."""
        return [i for i in self.node_ids() if self._nodes[i].t <= self.T - 2]

    def parent_chain(self, node_id: int) -> list[TreeNode]:
        """Nodes from the root down to ``node_id`` inclusive."""
        chain = []
        cur: int | None = node_id
        while cur is not None:
            node = self._nodes[cur]
            chain.append(node)
            cur = node.parent
        chain.reverse()
        return chain

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Every rule the tree breaks, by node; each depth must be finite and positive."""
        v: list[str] = []
        if self.T < 2:
            v.append(f"horizon T must be at least 2, got {self.T}")
        if not 0.0 <= self.zeta0 < math.inf:
            v.append(f"initial half-spread zeta0 must be finite and nonnegative, got {self.zeta0}")
        root = self.root
        if root.t != 0:
            v.append(f"root node {root.id} must sit at date 0, got t={root.t}")
        if abs(root.p - 1.0) > PROB_TOL:
            v.append(f"root conditional probability must be 1, got {root.p}")
        for nid in self.node_ids():
            node = self._nodes[nid]
            kids = self.children(nid)
            if node.t < 0 or node.t > self.T:
                v.append(f"node {nid} date t={node.t} outside 0..{self.T}")
                continue
            if node.parent is not None:
                pt = self._nodes[node.parent].t
                if node.t != pt + 1:
                    v.append(f"node {nid} date t={node.t} is not parent date {pt} plus one")
            if not 0.0 < node.p <= 1.0:
                v.append(f"node {nid} conditional probability {node.p} outside (0, 1]")
            if node.t < self.T:
                if not kids:
                    v.append(f"node {nid} at date {node.t} < T has no children")
                else:
                    total = math.fsum(k.p for k in kids)
                    if abs(total - 1.0) > PROB_TOL:
                        v.append(
                            f"children of node {nid} have probabilities summing to {total!r}, not 1"
                        )
            elif kids:
                v.append(f"leaf-date node {nid} has children")
            if node.t <= self.T - 1 and node.r is None:
                v.append(f"node {nid} at date {node.t} is missing resilience r")
            if node.r is not None and node.r < 0.0:
                v.append(f"node {nid} resilience r={node.r} is negative")
            if node.t >= 1 and node.delta is None:
                v.append(f"node {nid} at date {node.t} is missing depth delta")
            if node.delta is not None and not 0.0 < node.delta < math.inf:
                v.append(f"node {nid} depth delta={node.delta} is not finite and positive")
            if node.t == self.T and node.B is None:
                v.append(f"leaf {nid} is missing the endowment B")
            for name in ("P", "r", "B"):
                value = getattr(node, name)
                if value is not None and not math.isfinite(value):
                    v.append(f"node {nid} {name}={value} is not finite")
        return ValidationReport(tuple(v))

    def require_valid(self) -> None:
        """Raise ``ValueError`` listing every violation ``validate`` finds."""
        report = self.validate()
        if not report.ok:
            raise ValueError("invalid tree: " + "; ".join(report.violations))

    # -- paths ------------------------------------------------------------

    def extract_path(self, leaf_id: int) -> PathData:
        """Market path, endowment and path probability for one leaf."""
        chain = self.parent_chain(leaf_id)
        leaf = chain[-1]
        if self._children[leaf.id]:
            raise ValueError(f"node {leaf_id} is not a leaf")
        if leaf.t != self.T or len(chain) != self.T + 1:
            raise ValueError(f"leaf {leaf_id} does not sit at the horizon date {self.T}")
        P = np.array([n.P for n in chain], dtype=np.float64)
        r = []
        delta = []
        for n in chain[:-1]:
            if n.r is None:
                raise ValueError(f"node {n.id} on the path is missing resilience r")
            r.append(n.r)
        for n in chain[1:]:
            if n.delta is None:
                raise ValueError(f"node {n.id} on the path is missing depth delta")
            delta.append(n.delta)
        if leaf.B is None:
            raise ValueError(f"leaf {leaf_id} is missing the endowment B")
        prob = 1.0
        for n in chain[1:]:
            prob *= n.p
        path = MarketPath(
            T=self.T,
            zeta0=self.zeta0,
            P=P,
            r=np.array(r, dtype=np.float64),
            delta=np.array(delta, dtype=np.float64),
        )
        return PathData(path, float(leaf.B), prob)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        nodes = []
        for nid in self.node_ids():
            n = self._nodes[nid]
            entry: dict = {"id": n.id, "parent": n.parent, "t": n.t, "p": n.p, "P": n.P}
            if n.r is not None:
                entry["r"] = n.r
            if n.delta is not None:
                entry["delta"] = n.delta
            if n.B is not None:
                entry["B"] = n.B
            nodes.append(entry)
        return {"T": self.T, "zeta0": self.zeta0, "nodes": nodes}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioTree":
        if not isinstance(data, Mapping):
            raise ValueError("tree document must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ValueError(f"unknown top-level keys {sorted(unknown)}")
        missing = _TOP_KEYS - set(data)
        if missing:
            raise ValueError(f"missing top-level keys {sorted(missing)}")
        T = _require_int(data["T"], "T")
        zeta0 = _require_number(data["zeta0"], "zeta0")
        raw_nodes = data["nodes"]
        if not isinstance(raw_nodes, list):
            raise ValueError("nodes must be a list")
        nodes = []
        for i, raw in enumerate(raw_nodes):
            if not isinstance(raw, Mapping):
                raise ValueError(f"node entry {i} must be an object")
            unknown = set(raw) - _NODE_KEYS
            if unknown:
                raise ValueError(f"node entry {i} has unknown keys {sorted(unknown)}")
            missing = _STRUCTURAL_KEYS - set(raw)
            if missing:
                raise ValueError(f"node entry {i} is missing keys {sorted(missing)}")
            parent = raw["parent"]
            if parent is not None:
                parent = _require_int(parent, "parent")
            nodes.append(
                TreeNode(
                    id=_require_int(raw["id"], "id"),
                    parent=parent,
                    t=_require_int(raw["t"], "t"),
                    p=_require_number(raw["p"], "p"),
                    P=_require_number(raw["P"], "P"),
                    r=None if "r" not in raw else _require_number(raw["r"], "r"),
                    delta=None if "delta" not in raw else _require_number(raw["delta"], "delta"),
                    B=None if "B" not in raw else _require_number(raw["B"], "B"),
                )
            )
        return cls(T=T, zeta0=zeta0, nodes=nodes)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioTree":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ScenarioTree":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class PredictableAssignment:
    """A trading strategy: the trade chosen at each non-leaf node.

    ``values[n]`` is the trade executed at date t+1 when standing at the
    date-t node ``n``; predictability is structural because children share
    their parent's entry.
    """

    values: Mapping[int, float]

    def trade_at(self, node_id: int) -> float:
        return float(self.values[node_id])

    def is_complete(self, tree: ScenarioTree) -> bool:
        return all(n.id in self.values for n in (tree.node(i) for i in tree.node_ids()) if n.t < tree.T)

    def trades_to_leaf(self, tree: ScenarioTree, leaf_id: int) -> np.ndarray:
        """Trades h_1..h_T executed along the path to ``leaf_id``."""
        chain = tree.parent_chain(leaf_id)
        return np.array([self.values[n.id] for n in chain[:-1]], dtype=np.float64)

    def is_liquidating(self, tree: ScenarioTree) -> bool:
        return all(
            abs(closing_trade(self.trades_to_leaf(tree, leaf.id))) <= LIQUIDATION_TOL for leaf in tree.leaves()
        )

    def to_report(self) -> list[dict]:
        return [{"node": int(k), "h": float(self.values[k])} for k in sorted(self.values)]

    @classmethod
    def from_report(cls, entries: Sequence[Mapping]) -> "PredictableAssignment":
        """Inverse of ``to_report``: a list of objects with exactly the keys
        ``node`` (an integer, each node once) and ``h`` (a number)."""
        if not isinstance(entries, list):
            raise ValueError("a strategy must be a list of {node, h} objects")
        values = {}
        for i, e in enumerate(entries):
            if not isinstance(e, Mapping) or set(e) != {"node", "h"}:
                raise ValueError(f"strategy entry {i} must be an object with exactly the keys node and h")
            node = _require_int(e["node"], "node")
            if node in values:
                raise ValueError(f"strategy entry {i} lists node {node} a second time")
            values[node] = _require_number(e["h"], "h")
        return cls(values)


# -- generators ------------------------------------------------------------


_KINDS = ("deterministic", "binomial", "trinomial", "quantized_gaussian")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic scenario tree.

    ``resilience`` and ``depth`` accept either a scalar (constant schedule) or
    per-step sequences (length T; depth applies to dates 1..T).  Lattice kinds
    start the midprice at ``p0``; ``prices`` pins the whole midprice path for
    the deterministic kind.
    """

    kind: str
    T: int = 3
    zeta0: float = 0.0
    resilience: float | tuple[float, ...] = 0.0
    depth: float | tuple[float, ...] = 1.0
    endowment: float = 0.0
    prices: tuple[float, ...] | None = None
    p0: float = 0.0
    step: float = 1.0
    p_up: float = 0.5
    atoms: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.T < 2:
            raise ValueError("horizon T must be at least 2")
        if self.kind == "deterministic":
            if self.prices is None or len(self.prices) != self.T + 1:
                raise ValueError("deterministic trees need prices of length T+1")
        if self.kind == "binomial" and not 0.0 < self.p_up < 1.0:
            raise ValueError("p_up must lie in (0, 1)")
        if self.kind == "quantized_gaussian" and self.atoms < 2:
            raise ValueError("quantized_gaussian needs at least 2 atoms")

    def schedule(self, raw: float | Sequence[float], what: str) -> np.ndarray:
        if np.ndim(raw) == 0:
            return np.full(self.T, float(raw), dtype=np.float64)
        arr = np.asarray(raw, dtype=np.float64)
        if arr.shape[0] != self.T:
            raise ValueError(f"{what} schedule must have T={self.T} entries")
        return arr


def _branching(spec: GeneratorSpec) -> list[tuple[float, float]]:
    """Per-step (probability, move) pairs, in child order.

    A lattice move is the change in the net number of up-steps; a quantized
    move is the atom drawn; the deterministic kind has one child, with the
    pinned price.
    """
    if spec.kind == "deterministic":
        return [(1.0, 0.0)]
    if spec.kind == "binomial":
        return [(spec.p_up, 1), (1.0 - spec.p_up, -1)]
    if spec.kind == "trinomial":
        return [(0.25, 1), (0.5, 0), (0.25, -1)]
    # quantized_gaussian: Gauss-Hermite atoms of a standard normal, which
    # match the continuous moments up to order 2*atoms-1
    points, weights = np.polynomial.hermite_e.hermegauss(spec.atoms)
    probs = weights / weights.sum()
    return [(float(p), float(x)) for p, x in zip(probs, points)]


def generate(spec: GeneratorSpec) -> ScenarioTree:
    """Build the scenario tree described by ``spec``.

    Nodes are numbered breadth-first from the root so files stay topological.
    For the quantized kind the midprice at every date is an independent draw
    (p0 plus an atom).  A lattice node's midprice is p0 + k * step with k its
    net number of up-steps, so paths that reach the same k carry the same
    float whatever the order of their steps (the lattice recombines).
    """
    r_sched = spec.schedule(spec.resilience, "resilience")
    d_sched = spec.schedule(spec.depth, "depth")
    if np.any(r_sched < 0.0):
        raise ValueError("resilience schedule must be nonnegative")
    if np.any(d_sched <= 0.0):
        raise ValueError("depth schedule must be positive")

    p0 = spec.prices[0] if spec.kind == "deterministic" else spec.p0
    nodes = [TreeNode(id=0, parent=None, t=0, p=1.0, P=float(p0), r=float(r_sched[0]))]
    frontier = [0]  # ids of the previous date's nodes
    ups = {0: 0}  # net up-steps of each lattice node, by id
    next_id = 1
    moves = _branching(spec)
    for t in range(1, spec.T + 1):
        depth_t = float(d_sched[t - 1])
        r_t = float(r_sched[t]) if t <= spec.T - 1 else None
        new_frontier = []
        for pid in frontier:
            for prob, move in moves:
                if spec.kind == "deterministic":
                    price = float(spec.prices[t])
                elif spec.kind == "quantized_gaussian":
                    price = spec.p0 + move
                else:
                    ups[next_id] = ups[pid] + move
                    price = float(spec.p0 + ups[next_id] * spec.step)
                nodes.append(
                    TreeNode(
                        id=next_id,
                        parent=pid,
                        t=t,
                        p=prob,
                        P=price,
                        r=r_t,
                        delta=depth_t,
                        B=float(spec.endowment) if t == spec.T else None,
                    )
                )
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return ScenarioTree(T=spec.T, zeta0=spec.zeta0, nodes=nodes)


_PRESETS: dict[str, GeneratorSpec] = {
    # two dates, flat then unit midprice: the closed-form warmup instance
    "det-example": GeneratorSpec(
        kind="deterministic", T=2, zeta0=0.0, resilience=0.0, depth=1.0, prices=(0.0, 0.0, 1.0)
    ),
    # branching but informationless: prices and endowment identically zero
    "zero-price": GeneratorSpec(
        kind="binomial", T=3, zeta0=0.1, resilience=0.1, depth=1.0, p0=0.0, step=0.0, p_up=0.5
    ),
    # drifting binomial lattice, the workhorse stochastic instance
    "binomial": GeneratorSpec(
        kind="binomial", T=3, zeta0=0.1, resilience=0.2, depth=1.0, p0=1.0, step=0.5, p_up=0.7
    ),
    # iid quantized-normal prices with the shallow-then-deep book for which
    # adapted strategies strictly beat every deterministic one
    "notconvex": GeneratorSpec(
        kind="quantized_gaussian",
        T=3,
        zeta0=0.0,
        resilience=0.0,
        depth=(1.0, 10.0, 10.0),
        p0=0.0,
        atoms=3,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, **overrides) -> GeneratorSpec:
    """Named instance recipes; ``overrides`` replace GeneratorSpec fields."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}, known: {', '.join(PRESET_NAMES)}")
    spec = _PRESETS[name]
    if overrides:
        spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    return spec


# -- depth monotonicity -----------------------------------------------------


@dataclass(frozen=True)
class MonotoneDepthReport:
    """Whether decay-discounted depth shrinks strictly along every path.

    The quantity tracked is decay(0,t)^2 * delta_t; classical single-step
    arguments need it strictly decreasing, and instances that break it are
    exactly where adapted strategies can beat deterministic ones.
    ``violations`` lists (leaf id, first date where the decrease fails).
    """

    holds: bool
    violations: tuple[tuple[int, int], ...]


def monotone_depth_check(tree: ScenarioTree) -> MonotoneDepthReport:
    violations = []
    for leaf in tree.leaves():
        path = tree.extract_path(leaf.id).path
        prev = None
        for t in range(1, tree.T + 1):
            decay = path.decay(0, t)
            s = decay * decay * float(path.delta[t - 1])
            if prev is not None and not s < prev:
                violations.append((leaf.id, t))
                break
            prev = s
    return MonotoneDepthReport(holds=not violations, violations=tuple(violations))
