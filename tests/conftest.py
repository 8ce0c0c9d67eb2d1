"""Shared test plumbing: the acceptance result registry and shared trees.

Acceptance tests record one verdict per numbered criterion through the
``acceptance`` fixture; a terminal-summary hook prints one PASS/FAIL line per
criterion at the end of every pytest run so the verdicts are visible without
-s.  A criterion whose test never reached its record call is reported as
failed (not run).
"""

from __future__ import annotations

import pytest

from impactdp.tree import ScenarioTree, TreeNode


@pytest.fixture
def absorbed_gain_tree() -> ScenarioTree:
    """A T = 3 tree on which the two oracles pick different strategies.

    Three equally likely chains; under ``cap:cap=0`` on the grid {-1, 0} at
    z = 0, selling 1 at node 1 and buying it back at node 4 lifts leaf 7
    from -3.2e-156 to 0.  At the root rounding absorbs that gain, so brute
    force keeps doing nothing while ``history_dp`` trades, and both values
    are -0x1.5555555555555p-2.
    """
    third = 0.3333333333333333
    nodes = [TreeNode(id=0, parent=None, t=0, p=1.0, P=1.0, r=0.0)]
    nodes += [TreeNode(id=i, parent=0, t=1, p=third, P=0.0, r=0.0, delta=1.0) for i in (1, 2, 3)]
    for i, P, delta, B in ((1, 2.0, 2.0, 3.2190623646766564e-156), (2, 0.0, 1.0, 1.0), (3, 0.0, 1.0, 0.0)):
        nodes.append(TreeNode(id=i + 3, parent=i, t=2, p=1.0, P=P, r=0.0, delta=delta))
        nodes.append(TreeNode(id=i + 6, parent=i + 3, t=3, p=1.0, P=0.0, delta=delta, B=B))
    return ScenarioTree(T=3, zeta0=0.0, nodes=nodes)

CRITERIA = {
    1: "explicit and recursive terminal wealth agree (1000 pairs, 1e-12 rel, <5s)",
    2: "friction quadratic counterexample values exact to 1e-12",
    3: "indirect-utility kink: value ln 2, one-sided slopes 0.5 / 0.625",
    4: "enumeration and history recursion bit-identical (<30s)",
    5: "grid DP certified against closed form and oracle (<60s)",
    6: "innovation / envelope / cap bound chain on 1e5 random triples",
    7: "innovation lower bounds on bounded trade boxes, m in {1,5,10}",
    8: "zero cash-axis monotonicity violations in every value layer",
    9: "depth-profile classifier on decreasing vs non-decreasing instances",
    10: "zero-price instance: root value u(z) and all-zero strategy, exact",
    11: "Monte Carlo within 3 stderr of exact for >= 99 of 100 seeds",
}

_RESULTS: dict[int, tuple[bool, str]] = {}


class AcceptanceRecorder:
    """Record-then-assert helper so failed checks still reach the summary."""

    def check(self, criterion: int, passed, detail: str = "") -> None:
        ok = bool(passed)
        prev_ok, prev_detail = _RESULTS.get(criterion, (True, ""))
        _RESULTS[criterion] = (prev_ok and ok, prev_detail if not prev_ok else detail)
        assert ok, f"criterion {criterion}: {detail or CRITERIA[criterion]}"


@pytest.fixture
def acceptance() -> AcceptanceRecorder:
    return AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num not in _RESULTS:
            tr.write_line(f"[FAIL] criterion {num:2d}: {CRITERIA[num]} (not run)")
            continue
        ok, detail = _RESULTS[num]
        tag = "PASS" if ok else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        tr.write_line(f"[{tag}] criterion {num:2d}: {CRITERIA[num]}{suffix}")
