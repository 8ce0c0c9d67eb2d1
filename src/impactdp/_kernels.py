"""Hot numeric paths for the grid solver: vectorized NumPy sweeps.

A sweep optimizes, for every grid state (xi, zeta, x), the one-step objective

    v(h) = sum_c p_c * continuation_c(xi', zeta', x')

where (xi', zeta') is the child's ``dynamics.transition`` after trading h and
x' = x + h.  The continuation is either the closed-form forced liquidation
into the leaves (children at the last decision date) or clamped multilinear
interpolation into the child's value grid.  All states of a node are swept at
once as flat arrays; each candidate trade costs one array pass per child.

A sweep runs in two phases.  Phase one searches, per state, for a truncation
bound K = k0 * k_factor**n such that the candidates at h = +-K both fall below
the candidate at h = 0; the search stops early (with the failure warning) when
two successive boundary probes return bit-identical values, which happens when
the transitions have saturated the clamped grid box or the utility floor and
further doubling carries no information.  Phase two scans every state over one
shared action set, symmetric around an exact 0.0 on [-K_layer, K_layer] with
K_layer the maximum bound found in phase one.  Sharing the action set across
the layer is what makes the swept values non-decreasing along the cash axis:
each candidate's value is monotone in xi, and a max over a state-independent
candidate set preserves that, whereas per-state action sets can lose it when
neighbouring states truncate at different bounds.
"""

from __future__ import annotations

import numpy as np

from .dynamics import transition
from .utility import evaluate_utility

__all__ = [
    "BACKEND",
    "U_FLOOR",
    "sweep_exact",
    "sweep_grid",
    "forced_layer",
]

# the only numeric backend; benchmark reports record it
BACKEND = "numpy"

# utilities are floored here so interpolation never forms 0 * inf
U_FLOOR = -1e300


def _axis_lookup(vals, grid):
    # uniform axes for the index, actual node values for the fractions, so a
    # query exactly at a node reproduces the stored value
    n = grid.shape[0]
    t = (vals - grid[0]) / ((grid[n - 1] - grid[0]) / (n - 1))
    idx = np.clip(np.floor(t), 0, n - 2).astype(np.int64)
    f = np.clip((vals - grid[idx]) / (grid[idx + 1] - grid[idx]), 0.0, 1.0)
    return idx, f


def _interp3(grid, xg, zg, xxg, xi, ze, xx):
    """Clamped multilinear interpolation of ``grid`` on the axes xg, zg, xxg."""
    i, fi = _axis_lookup(xi, xg)
    j, fj = _axis_lookup(ze, zg)
    k, fk = _axis_lookup(xx, xxg)
    w00 = grid[i, j, k] * (1.0 - fi) + grid[i + 1, j, k] * fi
    w10 = grid[i, j + 1, k] * (1.0 - fi) + grid[i + 1, j + 1, k] * fi
    w01 = grid[i, j, k + 1] * (1.0 - fi) + grid[i + 1, j, k + 1] * fi
    w11 = grid[i, j + 1, k + 1] * (1.0 - fi) + grid[i + 1, j + 1, k + 1] * fi
    w0 = w00 * (1.0 - fj) + w10 * fj
    w1 = w01 * (1.0 - fj) + w11 * fj
    return w0 * (1.0 - fk) + w1 * fk


def _sweep(cand, xg, zg, xxg, k0, kfac, kmax, n_act):
    """Shared state-vectorized optimizer; ``cand`` maps trade vector to values.

    Per-state bound search with the dominance, plateau, and max-expansion
    exits in that order, then one scan of all states over the action set built
    from the layer-wide maximum bound.
    """
    nx = xg.shape[0]
    nz = zg.shape[0]
    nxx = xxg.shape[0]
    XI = np.repeat(xg, nz * nxx)
    ZE = np.tile(np.repeat(zg, nxx), nx)
    XX = np.tile(xxg, nx * nz)
    n = XI.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        v0 = cand(XI, ZE, XX, np.zeros(n))
        big = np.full(n, k0)
        active = np.ones(n, dtype=bool)
        nexp = np.zeros(n, dtype=np.int64)
        warn = np.zeros(n, dtype=np.int64)
        prev_vp = np.zeros(n)
        prev_vm = np.zeros(n)
        rounds = 0
        while True:
            vp = cand(XI, ZE, XX, big)
            vm = cand(XI, ZE, XX, -big)
            ok_now = (vp <= v0) & (vm <= v0)
            active = active & ~ok_now
            if rounds > 0:
                flat = active & (vp == prev_vp) & (vm == prev_vm)
                warn[flat] = 1
                active = active & ~flat
            if not active.any():
                break
            if rounds >= kmax:
                warn[active] = 1
                break
            prev_vp = vp
            prev_vm = vm
            big = np.where(active, big * kfac, big)
            nexp = nexp + active
            rounds += 1
        shared = float(big.max())
        m = (n_act - 1) // 2
        best_v = v0.copy()
        best_h = np.zeros(n)
        best_a = np.zeros(n)
        best_s = np.zeros(n, dtype=np.int64)
        for iact in range(n_act):
            h = shared * ((iact - m) / m)
            if iact == m:
                v = v0
            else:
                v = cand(XI, ZE, XX, np.full(n, h))
            a = abs(h)
            s = 1 if h > 0.0 else 0
            eq = v == best_v
            better = (v > best_v) | (eq & ((a < best_a) | ((a == best_a) & (s < best_s))))
            best_v = np.where(better, v, best_v)
            best_h = np.where(better, h, best_h)
            best_a = np.where(better, a, best_a)
            best_s = np.where(better, s, best_s)
    shape = (nx, nz, nxx)
    return (best_v.reshape(shape), best_h.reshape(shape), nexp.reshape(shape), warn.reshape(shape))


def sweep_exact(xg, zg, xxg, decay, cp, cP, cdelta, cdecay, goff, gp, gP, gd, gB, ucode, ua, uxs, uys, z, k0, kfac, kmax, n_act):
    """Sweep a node whose children sit at the last decision date."""

    def cand(XI, ZE, XX, H):
        AH = np.abs(H)
        G = -(XX + H)
        AG = np.abs(G)
        tot = np.zeros(np.broadcast(XI, H).shape)
        for c in range(cp.shape[0]):
            XI1, ZE1 = transition(XI, ZE, H, AH, decay, cP[c], cdelta[c])
            acc = np.zeros_like(tot)
            for q in range(goff[c], goff[c + 1]):
                XI2, _ = transition(XI1, ZE1, G, AG, cdecay[c], gP[q], gd[q])
                acc += gp[q] * evaluate_utility(ucode, ua, uxs, uys, z + XI2 - gB[q], U_FLOOR)
            tot += cp[c] * acc
        return tot

    return _sweep(cand, xg, zg, xxg, k0, kfac, kmax, n_act)


def sweep_grid(xg, zg, xxg, decay, cp, cP, cdelta, grids, gxi, gze, gxx, k0, kfac, kmax, n_act):
    """Sweep a node whose children carry value grids on the g* axes.

    The g* axes match the swept states in the backward pass but not in
    exact-state one-step calls.
    """

    def cand(XI, ZE, XX, H):
        AH = np.abs(H)
        X1 = XX + H
        tot = np.zeros(np.broadcast(XI, H).shape)
        for c in range(cp.shape[0]):
            XI1, ZE1 = transition(XI, ZE, H, AH, decay, cP[c], cdelta[c])
            tot += cp[c] * _interp3(grids[c], gxi, gze, gxx, XI1, ZE1, X1)
        return tot

    return _sweep(cand, xg, zg, xxg, k0, kfac, kmax, n_act)


def forced_layer(xg, zg, xxg, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z):
    """Values and forced policy at a last-decision-date node (no optimization).

    The trade is pinned to -x; the value is the expected utility over the
    node's leaves.
    """
    XI = xg[:, None, None]
    ZE = zg[None, :, None]
    XX = xxg[None, None, :]
    G = -XX
    AG = np.abs(G)
    shape = (xg.shape[0], zg.shape[0], xxg.shape[0])
    values = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for q in range(lp.shape[0]):
            XI2, _ = transition(XI, ZE, G, AG, decay, lP[q], ld[q])
            values = values + lp[q] * evaluate_utility(ucode, ua, uxs, uys, z + XI2 - lB[q], U_FLOOR)
    policy = np.broadcast_to(G, shape).copy()
    return values, policy
