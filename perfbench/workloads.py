"""Workload inputs: scenario trees, utilities and action grids made from a seed.

Each workload is a fixed list of instances.  The seed drives a private
``random.Random``, so the same seed always gives the same trees; the library
only ever sees the finished trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from impactdp.oracle import ActionGrid
from impactdp.tree import PRESET_NAMES, GeneratorSpec, ScenarioTree, TreeNode, generate, preset
from impactdp.utility import UtilitySpec, capped_linear, exponential, piecewise_linear

WORKLOADS = ("lattice-exp", "random-cap", "certify-small")
# certifications per solve in a pass: more timed samples of the short oracle
# calls, at the cost of fewer passes
CERTIFY_REPEATS = {"lattice-exp": 3, "random-cap": 2, "certify-small": 2}
Z = 0.0  # cash endowment of every instance, as in the CLI default

# coarse grids feed brute force, the history recursion and exact-state DP;
# fine grids feed exact-state DP alone
_GRID_3 = ActionGrid((-1.0, 0.0, 1.0))
_GRID_9 = ActionGrid(tuple(k / 4 for k in range(-4, 5)))
_FINE_9 = _GRID_9.values
_FINE_41 = tuple(k / 20 for k in range(-20, 21))


@dataclass(frozen=True)
class Instance:
    """One solve plus its certification."""

    name: str
    tree: ScenarioTree
    utility: UtilitySpec
    coarse: ActionGrid
    fine: tuple[float, ...]
    # None: solved by solve(); "gen": `impactdp solve --gen <name>`;
    # "tree": `impactdp solve --tree <file> --utility <spec>`
    cli: str | None = None


def random_tree(rng: random.Random, T: int) -> ScenarioTree:
    """Binary non-recombining tree with per-node random market data."""
    nodes = [TreeNode(id=0, parent=None, t=0, p=1.0, P=rng.uniform(0.5, 1.5), r=rng.uniform(0.0, 0.5))]
    frontier = [0]
    for t in range(1, T + 1):
        next_frontier = []
        for pid in frontier:
            q = rng.uniform(0.2, 0.8)
            for p in (q, 1.0 - q):
                nid = len(nodes)
                nodes.append(
                    TreeNode(
                        id=nid,
                        parent=pid,
                        t=t,
                        p=p,
                        P=rng.uniform(0.0, 2.0),
                        r=rng.uniform(0.0, 0.5) if t < T else None,
                        delta=rng.uniform(0.5, 2.0),
                        B=rng.uniform(-1.0, 1.0) if t == T else None,
                    )
                )
                next_frontier.append(nid)
        frontier = next_frontier
    return ScenarioTree(T=T, zeta0=rng.uniform(0.0, 0.2), nodes=nodes)


def _random_utility(rng: random.Random, family: str) -> UtilitySpec:
    if family == "cap":
        return capped_linear(rng.uniform(0.5, 1.5))
    return piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, rng.uniform(0.3, 0.7))])


def _lattice_exp(rng: random.Random) -> list[Instance]:
    # step stays 0.5 so lattice prices recombine to the same float
    binomial = preset(
        "binomial", T=4, p_up=round(rng.uniform(0.6, 0.8), 2), resilience=round(rng.uniform(0.1, 0.3), 2)
    )
    iid = GeneratorSpec(
        kind="quantized_gaussian",
        T=3,
        zeta0=0.0,
        resilience=0.0,
        depth=(1.0, 10.0, 10.0),
        p0=round(rng.uniform(-0.5, 0.5), 2),
        atoms=3,
    )
    u = exponential(1.0)
    return [
        Instance("binomial-T4", generate(binomial), u, _GRID_3, _FINE_9, cli="tree"),
        Instance("iid-gauss-T3", generate(iid), u, _GRID_3, _FINE_9),
    ]


def _random_cap(rng: random.Random) -> list[Instance]:
    return [
        Instance(f"random-T4-{family}", random_tree(rng, 4), _random_utility(rng, family), _GRID_3, _FINE_9, cli)
        for family, cli in (("cap", None), ("pwl", "tree"))
    ]


def _certify_small(rng: random.Random) -> list[Instance]:
    # the CLI solves presets under its default utility, exp:alpha=1.0
    u = exponential(1.0)
    out = [Instance(name, generate(preset(name)), u, _GRID_9, _FINE_41, cli="gen") for name in PRESET_NAMES]
    out += [
        Instance(f"random-T3-{family}", random_tree(rng, 3), _random_utility(rng, family), _GRID_9, _FINE_41)
        for family in ("cap", "pwl")
    ]
    return out


_FACTORIES = {"lattice-exp": _lattice_exp, "random-cap": _random_cap, "certify-small": _certify_small}


def build(workload: str, seed: int) -> list[Instance]:
    return _FACTORIES[workload](random.Random(seed))
