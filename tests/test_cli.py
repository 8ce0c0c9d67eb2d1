"""Command-line interface: exit codes, JSON shape, determinism, round trips."""

import argparse
import json
import math

import pytest

import impactdp.cli as cli
from impactdp.cli import main
from impactdp.tree import ScenarioTree, TreeNode, generate, preset
from impactdp.utility import exponential


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- solve -------------------------------------------------------------------

def test_solve_deterministic_example(capsys):
    code, payload, err = run_json(capsys, "solve", "--gen", "det-example")
    assert code == 0 and err == ""
    assert payload["command"] == "solve"
    assert payload["source"] == {"gen": "det-example"}
    assert payload["root_value"] == pytest.approx(exponential(1.0)(1 / 12), abs=1e-3)
    assert {"node": 0, "h": 0.17} in payload["strategy"]
    assert payload["diagnostics"]["monotonicity_violations"] == 0
    assert payload["config"]["action_count"] == 201


def test_solve_output_is_byte_deterministic(capsys):
    argv = ("solve", "--gen", "binomial", "--grid-xi", "11", "--grid-zeta", "5",
            "--grid-x", "5", "--actions", "21")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert out1 == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_uncertified_solve_exits_1_with_the_full_report(tmp_path, capsys):
    # on this coarse grid the root (-35.2) is far from its replay (0.0): the
    # report is written in full, and the exit code says it is not certified
    tree_file = tmp_path / "tree.json"
    generate(preset("binomial", T=4)).save(tree_file)
    code, payload, err = run_json(
        capsys, "solve", "--tree", str(tree_file), "--utility", "cap:cap=1.0",
        "--grid-xi", "9", "--grid-zeta", "5", "--grid-x", "5", "--actions", "21",
    )
    assert code == 1 and err == ""
    assert set(payload) >= {"root_value", "strategy", "strategy_value", "diagnostics", "config"}
    assert payload["root_value"] == pytest.approx(-35.157, abs=1e-3)
    assert payload["strategy_value"] == 0.0
    assert payload["diagnostics"]["value_gap_ok"] is False
    assert len(payload["strategy"]) == 15  # a trade for every non-leaf node


def test_solve_exits_1_on_a_monotonicity_violation(monkeypatch, capsys):
    # no shipped instance decreases along the cash axis, so the count is
    # planted in an otherwise certified report
    import impactdp.cli as cli

    real = cli.solve

    def violating(*args):
        report = real(*args)
        report.diagnostics["monotonicity_violations"] = 3
        return report

    monkeypatch.setattr(cli, "solve", violating)
    code, payload, err = run_json(capsys, "solve", "--gen", "det-example")
    assert code == 1 and err == ""
    assert payload["diagnostics"]["value_gap_ok"] is True
    assert payload["diagnostics"]["monotonicity_violations"] == 3
    assert {"node": 0, "h": 0.17} in payload["strategy"]


def test_solve_rejects_even_action_count(capsys):
    code, out, err = run(capsys, "solve", "--gen", "det-example", "--actions", "10")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "odd" in err


def test_solve_rejects_unparseable_utility(capsys):
    code, _, err = run(capsys, "solve", "--gen", "det-example", "--utility", "sqrt")
    assert code == 2 and err.startswith("error:")


def test_out_file_matches_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "demo", "nonconvex")
    assert code == 0
    code2 = main(["demo", "nonconvex", "--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


# -- oracle ------------------------------------------------------------------

def test_oracle_agrees_with_itself(capsys):
    code, payload, err = run_json(capsys, "oracle", "--gen", "binomial")
    assert code == 0 and err == ""
    assert payload["methods_agree"] is True
    assert payload["enumerated"] == 5 ** 3
    assert math.isfinite(payload["value"])
    hs = {e["node"]: e["h"] for e in payload["strategy"]}
    assert set(hs) == set(generate(preset("binomial")).node_ids()) - {
        lf.id for lf in generate(preset("binomial")).leaves()
    }


@pytest.mark.parametrize("field", ["value", "strategy"])
def test_oracle_exits_1_when_the_methods_disagree(monkeypatch, capsys, field):
    # the two oracles agree on every shipped instance, so the disagreement is
    # planted: a value one ulp off, or, in place of the optimal all-zero
    # strategy, a sale of 0.5 at the root bought back at date T-1, which does
    # not replay to the value
    from dataclasses import replace

    from impactdp.tree import PredictableAssignment

    real = cli.history_dp

    def off(*args):
        res = real(*args)
        if field == "value":
            return replace(res, value=math.nextafter(res.value, -math.inf))
        assert set(res.strategy.values.values()) == {0.0}
        tree = args[0]
        trades = dict(res.strategy.values)
        trades[0] = -0.5
        trades.update({n.id: 0.5 for n in tree.nodes_at(tree.T - 1)})
        return replace(res, strategy=PredictableAssignment(trades))

    monkeypatch.setattr(cli, "history_dp", off)
    code, payload, err = run_json(capsys, "oracle", "--gen", "binomial")
    assert code == 1
    assert payload["methods_agree"] is False
    assert "disagree in value or strategy" in err


def test_oracle_accepts_strategies_that_rounding_splits(tmp_path, capsys, absorbed_gain_tree):
    # brute force does nothing, history_dp sells and buys back: the values
    # and both replays are the same float, so the methods agree
    path = tmp_path / "tree.json"
    absorbed_gain_tree.save(str(path))
    code, payload, err = run_json(
        capsys, "oracle", "--tree", str(path), "--utility", "cap:cap=0", "--oracle-grid=-1,0"
    )
    assert code == 0 and err == ""
    assert payload["methods_agree"] is True
    assert payload["value"].hex() == "-0x1.5555555555555p-2"
    assert {e["h"] for e in payload["strategy"]} == {0.0}


def test_oracle_reports_capacity_exhaustion(capsys, tmp_path):
    from impactdp.tree import GeneratorSpec

    tree = generate(GeneratorSpec(kind="binomial", T=6, resilience=0.1, zeta0=0.0))
    path = tmp_path / "tree.json"
    tree.save(str(path))
    code, out, err = run(capsys, "oracle", "--tree", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error:") and "exceeds the cap" in err


def test_oracle_requires_zero_in_the_grid(capsys):
    code, _, err = run(capsys, "oracle", "--gen", "binomial", "--oracle-grid=0.5,1")
    assert code == 2
    assert "contain 0.0" in err


# -- evaluate ----------------------------------------------------------------

def test_evaluate_round_trips_the_solver_strategy(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    solve_file = tmp_path / "solve.json"
    assert main(["gen-tree", "--gen", "binomial", "--out", str(tree_file)]) == 0
    assert main([
        "solve", "--tree", str(tree_file), "--out", str(solve_file),
        "--grid-xi", "11", "--grid-zeta", "5", "--grid-x", "5", "--actions", "21",
    ]) == 0
    capsys.readouterr()
    code, payload, _ = run_json(
        capsys, "evaluate", "--tree", str(tree_file), "--strategy", str(solve_file)
    )
    assert code == 0
    solved = json.loads(solve_file.read_text())
    assert payload["value"] == solved["strategy_value"]


def test_evaluate_accepts_a_bare_strategy_report(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    assert main(["gen-tree", "--gen", "det-example", "--out", str(tree_file)]) == 0
    capsys.readouterr()
    strategy = [{"node": 0, "h": 0.5}, {"node": 1, "h": -0.5}]
    strategy_file = tmp_path / "strategy.json"
    strategy_file.write_text(json.dumps(strategy))
    code, payload, _ = run_json(
        capsys, "evaluate", "--tree", str(tree_file), "--strategy", str(strategy_file)
    )
    assert code == 0
    assert payload["value"] == pytest.approx(exponential(1.0)(0.5 - 3 * 0.25), rel=1e-12)


@pytest.mark.parametrize(
    "doc",
    [[{"node": 0}], {"foo": 1}, [1, 2]],
    ids=["entry-without-h", "object-without-strategy", "list-of-numbers"],
)
def test_evaluate_rejects_a_malformed_strategy(tmp_path, capsys, doc):
    strategy_file = tmp_path / "strategy.json"
    strategy_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "evaluate", "--gen", "det-example", "--strategy", str(strategy_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "strategy" in err


def test_evaluate_rejects_a_strategy_that_lists_a_node_twice(tmp_path, capsys):
    # with the last entry kept, this strategy would fail the liquidation check
    # and the error would name the wrong defect
    strategy = [{"node": 0, "h": 0.5}, {"node": 1, "h": -0.5}, {"node": 0, "h": 0.25}]
    strategy_file = tmp_path / "strategy.json"
    strategy_file.write_text(json.dumps(strategy))
    code, out, err = run(capsys, "evaluate", "--gen", "det-example", "--strategy", str(strategy_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "node 0 a second time" in err


@pytest.mark.parametrize(
    "node, message",
    [(2, "node 2, a leaf"), (99, "node 99, which the tree does not have")],
    ids=["leaf", "unknown-node"],
)
def test_evaluate_rejects_a_trade_the_tree_cannot_hold(tmp_path, capsys, node, message):
    # det-example has nodes 0 and 1 before its leaf 2; a trade elsewhere was
    # once ignored and echoed back as part of the strategy
    strategy = [{"node": 0, "h": 0.5}, {"node": 1, "h": -0.5}, {"node": node, "h": 7.0}]
    strategy_file = tmp_path / "strategy.json"
    strategy_file.write_text(json.dumps(strategy))
    code, out, err = run(capsys, "evaluate", "--gen", "det-example", "--strategy", str(strategy_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


# -- demo --------------------------------------------------------------------

def test_demo_nonconvex_reports_a_positive_margin(capsys):
    code, payload, _ = run_json(capsys, "demo", "nonconvex")
    assert code == 0
    assert payload["margin"] == pytest.approx(0.08125, abs=1e-12)
    assert payload["midpoint_convex"] is False


def test_demo_indirect_utility_csv(capsys):
    code, out, err = run(capsys, "demo", "indirect-utility", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "z,value"
    assert len(lines) == 30  # 29 grid points, kink at 2.0 already on the grid
    zs = [float(line.split(",")[0]) for line in lines[1:]]
    assert 2.0 in zs
    for line in lines[1:]:
        z, v = (float(tok) for tok in line.split(","))
        assert v == pytest.approx(
            max(math.log(z), 0.5 * (math.log(z + 2.0) + math.log(z - 1.0))), rel=1e-12
        )


def test_demo_nonconvex_has_no_csv_form(capsys):
    code, _, err = run(capsys, "demo", "nonconvex", "--format", "csv")
    assert code == 2 and "indirect-utility" in err


# -- check -------------------------------------------------------------------

def test_check_flags_varying_depth(capsys):
    code, payload, _ = run_json(capsys, "check", "--gen", "notconvex")
    assert code == 1
    assert payload["failures"] == ["monotone-condition"]
    assert payload["valid"] is True
    assert payload["monotone_depth"]["holds"] is False
    assert payload["monotone_depth"]["violations"]


def test_check_passes_on_recovering_depth(capsys):
    code, payload, _ = run_json(capsys, "check", "--gen", "binomial")
    assert code == 0
    assert payload["failures"] == []
    assert payload["monotone_depth"]["holds"] is True
    assert payload["utility_assumptions"]["ok"] is True


def test_check_flags_invalid_trees(tmp_path, capsys):
    nodes = [
        TreeNode(id=0, parent=None, t=0, p=1.0, P=1.0, r=0.1),
        TreeNode(id=1, parent=0, t=1, p=1.0, P=1.5, r=0.2, delta=2.0),
        TreeNode(id=2, parent=1, t=2, p=0.3, P=2.0, delta=1.0, B=0.0),
        TreeNode(id=3, parent=1, t=2, p=0.4, P=0.5, delta=1.0, B=0.0),
    ]
    broken = ScenarioTree(T=2, zeta0=0.25, nodes=nodes)
    path = tmp_path / "broken.json"
    broken.save(str(path))
    code, payload, _ = run_json(capsys, "check", "--tree", str(path))
    assert code == 1
    assert "tree-invalid" in payload["failures"]
    assert payload["valid"] is False and payload["violations"]


def test_check_reports_a_missing_depth_as_an_invalid_tree(tmp_path, capsys):
    # the depth profile needs every depth, so it is left out of the report
    doc = generate(preset("binomial")).to_dict()
    del doc["nodes"][11]["delta"]
    path = tmp_path / "no-depth.json"
    path.write_text(json.dumps(doc))
    code, payload, err = run_json(capsys, "check", "--tree", str(path))
    assert code == 1 and err == ""
    assert payload["failures"] == ["tree-invalid"] and payload["monotone_depth"] is None
    assert payload["violations"] == ["node 11 at date 3 is missing depth delta"]


def test_non_finite_prices_make_a_tree_invalid(tmp_path, capsys):
    # JSON readers accept NaN and Infinity; validation must not, and every
    # command that computes on the tree validates it first
    text = generate(preset("det-example")).to_json()
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps([{"node": 0, "h": 0.0}, {"node": 1, "h": 0.0}]))
    for old, new in (('"P": 1.0', '"P": NaN'), ('"delta": 1.0', '"delta": Infinity')):
        path = tmp_path / "broken.json"
        path.write_text(text.replace(old, new, 1))
        assert new in path.read_text()
        code, payload, _ = run_json(capsys, "check", "--tree", str(path))
        assert code == 1 and payload["valid"] is False and payload["monotone_depth"] is None
        assert any("not finite" in v for v in payload["violations"])
        for argv in (("solve",), ("oracle",), ("evaluate", "--strategy", str(strategy))):
            code, out, err = run(capsys, *argv, "--tree", str(path))
            assert code == 2 and out == "" and "invalid tree" in err, argv


@pytest.mark.parametrize("defect", ["probabilities-sum-to-1.2", "leaf-without-B"])
def test_oracle_and_evaluate_reject_an_invalid_tree(tmp_path, capsys, defect):
    doc = generate(preset("binomial")).to_dict()
    if defect == "leaf-without-B":
        del doc["nodes"][-1]["B"]
    else:
        doc["nodes"][1]["p"] = 0.9  # node 0's children: 0.9 + 0.3
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps([{"node": n, "h": 0.0} for n in range(7)]))
    for argv in (("oracle",), ("evaluate", "--strategy", str(strategy))):
        code, out, err = run(capsys, *argv, "--tree", str(path))
        assert code == 2 and out == "" and err.startswith("error: invalid tree:"), argv


# -- input handling ----------------------------------------------------------

def test_missing_tree_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "solve", "--tree", "/nonexistent/tree.json")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_malformed_tree_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--tree", str(bad))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--gen", "det-example", "--z=nan"),
        ("solve", "--gen", "det-example", "--z=nan"),
        ("evaluate", "--gen", "det-example", "--strategy", "unread.json", "--z=-inf"),
        ("solve", "--gen", "det-example", "--utility", "cap:cap=nan"),
        ("solve", "--gen", "det-example", "--utility", "pwl:knots=nan,0"),
        ("solve", "--gen", "det-example", "--utility", "pwl:knots=0,0;1,inf"),
        ("solve", "--gen", "det-example", "--utility", "exp:alpha=inf"),
    ],
)
def test_non_finite_inputs_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_gen_tree_round_trips(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-tree", "--gen", "zero-price")
    assert code == 0
    assert out == generate(preset("zero-price")).to_json()
    loaded = ScenarioTree.from_json(out)
    assert loaded.T == 3 and loaded.validate().ok


# -- flags -------------------------------------------------------------------


class ReadRecorder(argparse.Namespace):
    """A parsed namespace that records the names read from it."""

    def __init__(self, parsed):
        super().__init__(**vars(parsed))
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return super().__getattribute__(name)


def test_every_flag_is_read_by_its_subcommand(tmp_path, capsys):
    # each subcommand runs once with every flag it accepts but --tree, which
    # excludes --gen; the handler must read every parsed dest, --tree's
    # included, so no flag is accepted and silently ignored
    out = str(tmp_path / "out")
    report = str(tmp_path / "report.json")
    source = ("--gen", "binomial")
    runs = {
        "solve": source + ("--utility", "cap:cap=1", "--z", "0.25", "--out", report, "--grid-xi", "5",
                           "--grid-zeta", "4", "--grid-x", "5", "--actions", "5"),
        "evaluate": source + ("--utility", "cap:cap=1", "--z", "0.25", "--out", out, "--strategy", report),
        "oracle": ("--gen", "det-example", "--utility", "exp:alpha=1.0", "--z", "0.5",
                   "--out", out, "--oracle-grid=-1,0,1"),
        "check": source + ("--utility", "cap:cap=5", "--out", out),
        "demo": ("indirect-utility", "--format", "csv", "--out", out),
        "gen-tree": source + ("--out", out),
    }
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(runs) == set(commands)
    for command, argv in runs.items():
        accepted = {flag for a in commands[command]._actions for flag in a.option_strings} - {"-h", "--help"}
        assert accepted - {"--tree"} == {a.split("=")[0] for a in argv if a.startswith("--")}, command
        args = ReadRecorder(parser.parse_args((command,) + argv))
        assert getattr(cli, "_cmd_" + command.replace("-", "_"))(args) in (0, 1), command
        unread = set(vars(args)) - {"command", "_reads"} - args._reads
        assert not unread, f"{command} never reads {sorted(unread)}"
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--gen", "binomial", "--k0", "1"),
        ("solve", "--gen", "binomial", "--k-factor", "2"),
        ("check", "--gen", "binomial", "--z", "1"),
        ("check", "--gen", "binomial", "--seed", "7"),
        ("solve", "--gen", "det-example", "--seed", "1"),
        ("oracle", "--gen", "det-example", "--seed", "1"),
        ("evaluate", "--gen", "det-example", "--strategy", "unread.json", "--seed", "1"),
        ("gen-tree", "--gen", "binomial", "--seed", "99"),
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
