"""Scenario trees: construction, validation, paths, serialization, generators."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from impactdp.dynamics import terminal_wealth_explicit
from impactdp.tree import (
    GeneratorSpec,
    PredictableAssignment,
    ScenarioTree,
    TreeNode,
    generate,
    monotone_depth_check,
    preset,
)


def two_leaf_tree(**root_kw):
    """T=2 tree: root -> mid -> two leaves with probabilities 0.6 / 0.4."""
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=1.0, r=0.1, **root_kw),
        TreeNode(id=1, parent=0, t=1, p=1.0, P=1.5, r=0.2, delta=2.0),
        TreeNode(id=2, parent=1, t=2, p=0.6, P=2.0, delta=1.0, B=0.5),
        TreeNode(id=3, parent=1, t=2, p=0.4, P=0.5, delta=1.0, B=0.0),
    ]
    return ScenarioTree(T=2, zeta0=0.25, nodes=nodes)


# -- construction ------------------------------------------------------------


def test_construction_rejects_duplicate_ids():
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=0.0, r=0.0),
        TreeNode(id=0, parent=0, t=1, p=1.0, P=0.0, r=0.0, delta=1.0),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        ScenarioTree(T=2, zeta0=0.0, nodes=nodes)


def test_construction_rejects_forward_parent_reference():
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=0.0, r=0.0),
        TreeNode(id=2, parent=1, t=2, p=1.0, P=0.0, delta=1.0, B=0.0),
        TreeNode(id=1, parent=0, t=1, p=1.0, P=0.0, r=0.0, delta=1.0),
    ]
    with pytest.raises(ValueError, match="before it is defined"):
        ScenarioTree(T=2, zeta0=0.0, nodes=nodes)


def test_construction_rejects_multiple_or_missing_roots():
    with pytest.raises(ValueError, match="more than one root"):
        ScenarioTree(
            T=2,
            zeta0=0.0,
            nodes=[
                TreeNode(id=0, parent=None, t=0, p=1.0, P=0.0, r=0.0),
                TreeNode(id=1, parent=None, t=0, p=1.0, P=0.0, r=0.0),
            ],
        )
    with pytest.raises(ValueError, match="no root"):
        ScenarioTree(T=2, zeta0=0.0, nodes=[])


def test_indexing_views():
    tree = two_leaf_tree()
    assert tree.root.id == 0
    assert tree.node_ids() == [0, 1, 2, 3]
    assert [n.id for n in tree.children(1)] == [2, 3]
    assert [n.id for n in tree.nodes_at(2)] == [2, 3]
    assert [n.id for n in tree.leaves()] == [2, 3]
    assert tree.decision_ids() == [0]
    assert [n.id for n in tree.parent_chain(3)] == [0, 1, 3]


# -- validation --------------------------------------------------------------


def test_validate_clean_tree():
    rep = two_leaf_tree().validate()
    assert rep.ok and rep.violations == ()


def test_validate_reports_probability_and_schedule_problems():
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=0.0, r=0.0),
        TreeNode(id=1, parent=0, t=1, p=0.7, P=0.0, r=None, delta=1.0),
        TreeNode(id=2, parent=0, t=1, p=0.7, P=0.0, r=0.0, delta=1.0),
        TreeNode(id=3, parent=1, t=2, p=1.0, P=0.0, delta=1.0, B=None),
        TreeNode(id=4, parent=2, t=2, p=1.0, P=0.0, delta=None, B=0.0),
    ]
    rep = ScenarioTree(T=2, zeta0=0.0, nodes=nodes).validate()
    assert not rep.ok
    text = "\n".join(rep.violations)
    assert "summing to" in text
    assert "missing resilience" in text
    assert "missing depth" in text
    assert "missing the endowment" in text


def test_validate_checks_each_depth_on_its_own():
    # one bad depth is one violation, named by its node; no floor derived
    # from the depths is held against the other 13
    tree = generate(preset("binomial"))
    for bad in (math.nan, math.inf, 0.0, -1.0):
        nodes = [replace(tree.node(i), delta=bad) if i == 1 else tree.node(i) for i in tree.node_ids()]
        rep = ScenarioTree(T=tree.T, zeta0=tree.zeta0, nodes=nodes).validate()
        assert rep.violations == (f"node 1 depth delta={bad} is not finite and positive",)
    tiny = [replace(tree.node(i), delta=5e-324) if i == 1 else tree.node(i) for i in tree.node_ids()]
    assert ScenarioTree(T=tree.T, zeta0=tree.zeta0, nodes=tiny).validate().ok


def test_validate_reports_date_gaps_and_leaf_children():
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=0.0, r=0.0),
        TreeNode(id=1, parent=0, t=2, p=1.0, P=0.0, delta=1.0, B=0.0),
    ]
    rep = ScenarioTree(T=2, zeta0=0.0, nodes=nodes).validate()
    assert not rep.ok
    assert any("parent date" in v for v in rep.violations)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_reports_non_finite_inputs(bad):
    tree = two_leaf_tree()
    for node_id, name in ((0, "P"), (1, "r"), (2, "B")):
        nodes = [replace(tree.node(i), **{name: bad}) if i == node_id else tree.node(i) for i in tree.node_ids()]
        rep = ScenarioTree(T=2, zeta0=0.25, nodes=nodes).validate()
        assert any(f"node {node_id} {name}=" in v and "not finite" in v for v in rep.violations)
    rep = ScenarioTree(T=2, zeta0=bad, nodes=[tree.node(i) for i in tree.node_ids()]).validate()
    assert any("zeta0 must be finite" in v for v in rep.violations)


# -- paths -------------------------------------------------------------------


def test_extract_path_carries_market_data():
    tree = two_leaf_tree()
    data = tree.extract_path(3)
    assert data.probability == pytest.approx(0.4)
    assert data.endowment == 0.0
    path = data.path
    assert path.T == 2 and path.zeta0 == 0.25
    assert list(path.P) == [1.0, 1.5, 0.5]
    assert list(path.r) == [0.1, 0.2]
    assert list(path.delta) == [2.0, 1.0]


def test_extract_path_rejects_non_leaves():
    tree = two_leaf_tree()
    with pytest.raises(ValueError, match="not a leaf"):
        tree.extract_path(1)


def test_path_probabilities_sum_to_one_on_presets():
    for name in ("det-example", "zero-price", "binomial", "notconvex"):
        tree = generate(preset(name))
        total = math.fsum(tree.extract_path(leaf.id).probability for leaf in tree.leaves())
        assert total == pytest.approx(1.0, abs=1e-9)


# -- serialization -----------------------------------------------------------


def test_json_round_trip_preserves_structure():
    tree = generate(preset("binomial"))
    clone = ScenarioTree.from_json(tree.to_json())
    assert clone.T == tree.T and clone.zeta0 == tree.zeta0
    assert clone.node_ids() == tree.node_ids()
    for nid in tree.node_ids():
        a, b = tree.node(nid), clone.node(nid)
        assert (a.parent, a.t, a.p, a.P, a.r, a.delta, a.B) == (b.parent, b.t, b.p, b.P, b.r, b.delta, b.B)


def test_loader_rejects_unknown_keys():
    tree = two_leaf_tree()
    data = tree.to_dict()
    data["nodes"][0]["color"] = "red"
    with pytest.raises(ValueError, match="[Uu]nknown"):
        ScenarioTree.from_dict(data)


def test_loader_rejects_missing_top_level_fields():
    with pytest.raises(ValueError):
        ScenarioTree.from_dict({"T": 2, "nodes": []})
    with pytest.raises(ValueError):
        ScenarioTree.from_dict({"zeta0": 0.0, "nodes": []})


def test_loader_rejects_non_numeric_fields():
    data = two_leaf_tree().to_dict()
    data["nodes"][2]["p"] = "high"
    with pytest.raises(ValueError):
        ScenarioTree.from_dict(data)


def test_save_and_load_files(tmp_path):
    tree = generate(preset("det-example"))
    target = tmp_path / "tree.json"
    tree.save(target)
    loaded = ScenarioTree.load(target)
    assert loaded.to_json() == tree.to_json()
    # the file itself is plain JSON with the documented top-level keys
    raw = json.loads(target.read_text())
    assert set(raw) == {"T", "zeta0", "nodes"}


# -- predictable assignments -------------------------------------------------


def test_assignment_completeness_and_trades():
    tree = generate(preset("binomial"))
    free = {i: 0.1 for i in tree.decision_ids()}
    partial = PredictableAssignment(dict(list(free.items())[:-1]))
    assert not partial.is_complete(tree)
    full = PredictableAssignment(free)
    assert not full.is_complete(tree)  # forced closing trades still missing
    closed = {**free}
    for node in tree.nodes_at(tree.T - 1):
        chain = [a.id for a in tree.parent_chain(node.id)[:-1]]
        closed[node.id] = -math.fsum(closed[i] for i in chain)
    done = PredictableAssignment(closed)
    assert done.is_complete(tree)
    assert done.is_liquidating(tree)
    leaf = tree.leaves()[0]
    trades = done.trades_to_leaf(tree, leaf.id)
    assert trades.shape == (tree.T,)
    assert float(np.sum(trades)) == pytest.approx(0.0, abs=1e-12)


def test_assignment_report_round_trip():
    tree = generate(preset("det-example"))
    values = {0: 0.5, 1: -0.5}
    a = PredictableAssignment(values)
    b = PredictableAssignment.from_report(a.to_report())
    assert b.values == a.values
    assert a.trade_at(0) == 0.5


def test_assignment_report_rejects_a_node_listed_twice():
    # a second entry for node 0 must not silently replace the first
    report = [{"node": 0, "h": 0.5}, {"node": 1, "h": -0.5}, {"node": 0, "h": 0.25}]
    with pytest.raises(ValueError, match="strategy entry 2 lists node 0 a second time"):
        PredictableAssignment.from_report(report)


def test_assignment_shared_across_siblings_by_construction():
    # trades are keyed by the deciding node, so both children of one node see
    # the same trade by construction
    tree = generate(preset("binomial"))
    a = PredictableAssignment({i: 0.25 for i in tree.decision_ids()})
    t1 = tree.nodes_at(1)
    assert len(t1) == 2
    assert a.trade_at(tree.root.id) == 0.25


# -- generators --------------------------------------------------------------


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError, match="unknown generator"):
        GeneratorSpec(kind="weird")
    with pytest.raises(ValueError, match="horizon"):
        GeneratorSpec(kind="binomial", T=1)
    with pytest.raises(ValueError, match="prices"):
        GeneratorSpec(kind="deterministic", T=2, prices=(0.0, 1.0))
    with pytest.raises(ValueError, match="p_up"):
        GeneratorSpec(kind="binomial", p_up=1.0)
    with pytest.raises(ValueError, match="atoms"):
        GeneratorSpec(kind="quantized_gaussian", atoms=1)
    with pytest.raises(ValueError, match="schedule"):
        generate(GeneratorSpec(kind="binomial", T=3, depth=(1.0, 2.0)))
    with pytest.raises(ValueError, match="nonnegative"):
        generate(GeneratorSpec(kind="binomial", T=2, resilience=-0.1))
    with pytest.raises(ValueError, match="positive"):
        generate(GeneratorSpec(kind="binomial", T=2, depth=0.0))


def test_binomial_counts_and_leaf_probabilities():
    tree = generate(GeneratorSpec(kind="binomial", T=2, step=1.0, p_up=0.5, p0=0.0))
    assert len(tree.node_ids()) == 7
    for leaf in tree.leaves():
        assert tree.extract_path(leaf.id).probability == pytest.approx(0.25)
    rep = tree.validate()
    assert rep.ok


def test_binomial_prices_accumulate_increments():
    tree = generate(GeneratorSpec(kind="binomial", T=2, step=0.5, p_up=0.7, p0=2.0))
    prices_t1 = sorted(n.P for n in tree.nodes_at(1))
    assert prices_t1 == [1.5, 2.5]
    prices_t2 = sorted(n.P for n in tree.nodes_at(2))
    assert prices_t2 == [1.0, 2.0, 2.0, 3.0]


def test_lattices_recombine_to_the_same_float():
    # 0.1 is not dyadic: summing the steps in path order would give up-down
    # and down-up midprices that differ in the last bit
    tree = generate(GeneratorSpec(kind="binomial", T=4, step=0.1, p0=0.3))
    up, down = tree.children(tree.root.id)
    assert tree.children(up.id)[1].P == tree.children(down.id)[0].P == 0.3
    assert [len({n.P for n in tree.nodes_at(t)}) for t in range(5)] == [1, 2, 3, 4, 5]
    tree = generate(GeneratorSpec(kind="trinomial", T=4, step=0.1, p0=0.3))
    assert [len({n.P for n in tree.nodes_at(t)}) for t in range(5)] == [1, 3, 5, 7, 9]


def test_trinomial_branching():
    tree = generate(GeneratorSpec(kind="trinomial", T=2, step=1.0, p0=0.0))
    assert len(tree.children(tree.root.id)) == 3
    probs = [n.p for n in tree.children(tree.root.id)]
    assert probs == [0.25, 0.5, 0.25]
    assert tree.validate().ok


def test_quantized_gaussian_atoms_match_three_point_rule():
    tree = generate(preset("notconvex"))
    kids = tree.children(tree.root.id)
    probs = sorted(n.p for n in kids)
    prices = sorted(n.P for n in kids)
    assert probs == pytest.approx([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])
    assert prices == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])
    # iid draws: every date shows the same atoms, not a random walk
    t2_prices = sorted(set(round(n.P, 12) for n in tree.nodes_at(2)))
    assert t2_prices == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)])
    assert tree.validate().ok


def test_quantized_gaussian_moments_match_standard_normal():
    tree = generate(preset("notconvex"))
    kids = tree.children(tree.root.id)
    mean = math.fsum(n.p * n.P for n in kids)
    var = math.fsum(n.p * n.P * n.P for n in kids)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(1.0, rel=1e-12)


def test_det_example_structure_and_wealth_formula():
    tree = generate(preset("det-example"))
    assert tree.T == 2
    assert len(tree.node_ids()) == 3
    data = tree.extract_path(tree.leaves()[0].id)
    # single path P=(0,0,1), r=0, delta=1, zeta0=0: trading (h, -h) gives
    # zeta1=|h|, kappa1=-h^2; zeta2=2|h|, kappa2=h-2h^2; wealth h-3h^2
    for h in (0.0, 1.0 / 6.0, 0.25, -0.5):
        wealth = terminal_wealth_explicit(data.path, (h, -h))
        assert wealth == pytest.approx(h - 3.0 * h * h, rel=1e-12, abs=1e-15)


def test_preset_overrides_and_unknown_name():
    spec = preset("binomial", T=4, zeta0=0.3)
    assert spec.T == 4 and spec.zeta0 == 0.3
    with pytest.raises(ValueError, match="unknown preset"):
        preset("missing")


# -- depth-profile classifier ------------------------------------------------


def test_monotone_depth_check_outcomes():
    # shallow-then-deep book with no resilience: profile (1, 10, 10) never decreases
    rep = monotone_depth_check(generate(preset("notconvex")))
    assert not rep.holds
    assert rep.violations and all(t == 2 for _, t in rep.violations)

    # constant r=0.5, delta=1: profile exp(-t) strictly decreasing
    good = generate(GeneratorSpec(kind="binomial", T=3, resilience=0.5, depth=1.0, p0=1.0, step=0.5))
    assert monotone_depth_check(good).holds

    # r=0 with constant depth: constant profile, not strictly decreasing
    flat = generate(GeneratorSpec(kind="binomial", T=3, resilience=0.0, depth=1.0, p0=1.0, step=0.5))
    rep = monotone_depth_check(flat)
    assert not rep.holds


def test_monotone_depth_check_on_det_example():
    assert not monotone_depth_check(generate(preset("det-example"))).holds
