"""Command-line interface.

Subcommands: solve, oracle, evaluate, demo, check, gen-tree.  Reports are
JSON with sorted keys (CSV for curves via --format csv) and contain no
timestamps, so identical inputs give byte-identical outputs.  Exit codes:
0 success, 1 failed check or internal disagreement (for ``solve``: a root
value the replayed strategy does not certify, ``value_gap_ok`` false, or a
value layer that decreases along the cash axis, ``monotonicity_violations``
above 0, reported in full all the same; for ``oracle``: results that break
``oracle.oracles_agree``, with each broken property named on stderr; for
``check``: any failed check, ``tree-invalid`` among them, which reports
``"monotone_depth": null``), 2 invalid input (for
``solve``, ``oracle`` and ``evaluate`` also a tree that fails validation),
3 numeric failure, 4 enumeration capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .analysis import indirect_utility_demo, nonconvexity_demo
from .oracle import ActionGrid, CapacityError, brute_force_solve, history_dp, oracle_disagreements
from .solver import SolveConfig, SolverNumericError, evaluate_strategy, solve
from .tree import (
    PRESET_NAMES,
    PredictableAssignment,
    ScenarioTree,
    generate,
    monotone_depth_check,
    preset,
)
from .utility import check_assumptions, parse_utility

__all__ = ["main"]

# solve flag -> (SolveConfig field, help); its type and default are the field's
_SOLVE_FLAGS = {
    "--grid-xi": ("xi_count", "cash grid points (cap and pwl only: exp layers have no cash axis)"),
    "--grid-zeta": ("zeta_count", "spread grid points"),
    "--grid-x": ("x_count", "position grid points"),
    "--actions": ("action_count", "action grid points (odd)"),
}


def _add_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--tree", metavar="PATH", help="scenario tree JSON file")
    g.add_argument("--gen", choices=PRESET_NAMES, help="generate a built-in tree")


def _add_common(p: argparse.ArgumentParser, z: bool = True) -> None:
    p.add_argument("--utility", default="exp:alpha=1.0", help="utility spec string")
    if z:
        p.add_argument("--z", type=float, default=0.0, help="cash endowment")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactdp",
        description="Optimal trade execution with transient impact on scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="grid solver: value functions plus an extracted strategy")
    _add_source(p)
    _add_common(p)
    defaults = SolveConfig()
    for flag, (name, text) in _SOLVE_FLAGS.items():
        default = getattr(defaults, name)
        p.add_argument(flag, dest=name, type=type(default), default=default, help=text)

    p = sub.add_parser("oracle", help="exhaustive solvers on a finite action grid")
    _add_source(p)
    _add_common(p)
    p.add_argument(
        "--oracle-grid",
        default="-1,-0.5,0,0.5,1",
        help="comma-separated admissible trades (must contain 0)",
    )

    p = sub.add_parser("evaluate", help="exact expected utility of a stored strategy")
    _add_source(p)
    _add_common(p)
    p.add_argument("--strategy", required=True, metavar="PATH", help="strategy JSON file")

    p = sub.add_parser("demo", help="worked counterexamples")
    p.add_argument("which", choices=("nonconvex", "indirect-utility"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("check", help="validate a tree, its depth profile and a utility")
    _add_source(p)
    _add_common(p, z=False)

    p = sub.add_parser("gen-tree", help="write a built-in scenario tree as JSON")
    p.add_argument("--gen", choices=PRESET_NAMES, required=True)
    p.add_argument("--out", metavar="PATH")

    return parser


def _load_tree(args) -> tuple[ScenarioTree, dict]:
    if args.tree is not None:
        return ScenarioTree.load(args.tree), {"tree": args.tree}
    return generate(preset(args.gen)), {"gen": args.gen}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _cmd_solve(args) -> int:
    tree, source = _load_tree(args)
    u = parse_utility(args.utility)
    config = SolveConfig(**{name: getattr(args, name) for name, _ in _SOLVE_FLAGS.values()})
    report = solve(tree, u, args.z, config)
    payload = {
        "command": "solve",
        "source": source,
        "utility": u.describe(),
        "z": args.z,
        "config": config.echo(),
    }
    payload.update(report.to_dict())
    _emit_json(payload, args.out)
    diag = report.diagnostics
    return 0 if diag["value_gap_ok"] and diag["monotonicity_violations"] == 0 else 1


def _cmd_oracle(args) -> int:
    tree, source = _load_tree(args)
    tree.require_valid()
    u = parse_utility(args.utility)
    grid = ActionGrid.from_text(args.oracle_grid)
    bf = brute_force_solve(tree, u, args.z, grid)
    hd = history_dp(tree, u, args.z, grid)
    broken = oracle_disagreements(tree, u, args.z, bf, hd)
    payload = {
        "command": "oracle",
        "source": source,
        "utility": u.describe(),
        "z": args.z,
        "grid": list(grid.values),
        "value": bf.value,
        "strategy": bf.strategy.to_report(),
        "enumerated": bf.candidates,
        "recursion_evaluations": hd.candidates,
        "methods_agree": not broken,
    }
    _emit_json(payload, args.out)
    if broken:
        print(f"enumeration and recursion disagree: {'; '.join(broken)}; this is a bug", file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(args) -> int:
    tree, source = _load_tree(args)
    tree.require_valid()
    u = parse_utility(args.utility)
    with open(args.strategy, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "strategy" in raw:
        raw = raw["strategy"]
    assignment = PredictableAssignment.from_report(raw)
    value = evaluate_strategy(tree, assignment, u, args.z)
    payload = {
        "command": "evaluate",
        "source": source,
        "utility": u.describe(),
        "z": args.z,
        "strategy": assignment.to_report(),
        "value": value,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_demo(args) -> int:
    if args.which == "nonconvex":
        if args.format == "csv":
            raise ValueError("csv output is only available for the indirect-utility curve")
        rep = nonconvexity_demo()
        _emit_json({"command": "demo", "which": "nonconvex", **rep.to_dict()}, args.out)
        return 0 if rep.margin > 0.0 else 1
    rep = indirect_utility_demo()
    if args.format == "csv":
        lines = ["z,value"] + [f"{float(z)!r},{float(v)!r}" for z, v in zip(rep.z, rep.values)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json({"command": "demo", "which": "indirect-utility", **rep.to_dict()}, args.out)
    return 0 if rep.kink_detected else 1


def _cmd_check(args) -> int:
    tree, source = _load_tree(args)
    failures: list[str] = []
    validation = tree.validate()
    depth = monotone_depth_check(tree) if validation.ok else None
    if depth is None:
        failures.append("tree-invalid")
    elif not depth.holds:
        failures.append("monotone-condition")
    payload = {
        "command": "check",
        "source": source,
        "valid": validation.ok,
        "violations": list(validation.violations),
        "monotone_depth": None if depth is None else {
            "holds": depth.holds,
            "violations": [[int(a), int(b)] for a, b in depth.violations],
        },
        "utility_assumptions": None,
    }
    if args.utility:
        u = parse_utility(args.utility)
        rep = check_assumptions(u)
        payload["utility_assumptions"] = {
            "ok": rep.ok,
            "bound": rep.c_u,
            "monotonicity_violations": rep.monotonicity_violations,
            "bound_violations": rep.bound_violations,
            "lower_limit_ok": rep.lower_limit_ok,
        }
        if not rep.ok:
            failures.append("utility-assumptions")
    payload["failures"] = failures
    _emit_json(payload, args.out)
    return 0 if not failures else 1


def _cmd_gen_tree(args) -> int:
    tree = generate(preset(args.gen))
    _emit(tree.to_json(), args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "evaluate": _cmd_evaluate,
        "demo": _cmd_demo,
        "check": _cmd_check,
        "gen-tree": _cmd_gen_tree,
    }
    try:
        if not math.isfinite(getattr(args, "z", 0.0)):
            raise ValueError(f"--z must be a finite number, got {args.z!r}")
        return handlers[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SolverNumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
