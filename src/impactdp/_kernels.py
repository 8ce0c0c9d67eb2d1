"""Hot numeric paths for the grid solver and the exact DP: vectorized NumPy sweeps.

A sweep optimizes, for every grid state (xi, zeta, x), the one-step objective

    v(h) = sum_c p_c * continuation_c(xi', zeta', x')

where (xi', zeta') is the child's ``dynamics.transition`` after trading h and
x' = x + h.  Both sweeps form this sum in ``_over_children`` and differ in the
continuation only: the closed-form leaf sum ``_leaf_sum`` (close x', sum the
utility over the leaves; ``forced_layer`` is that sum), through ``_leaf_cont``,
for children at the last decision date, and before that a read of the child's
value grid, by clamped multilinear interpolation ``_interp3`` under cap and pwl
utility and by the CARA hook ``_cara_interp`` under exponential utility.  All
states of a node are swept at once as broadcast views of the three axes, xi on
axis 0, zeta on axis 1 and x on axis 2, and the candidate trades of one call
lie on a leading axis of their own.  So each intermediate is computed on the
axes it depends on: zeta' on the trade-by-zeta slab, x' on the trade-by-x slab
and xi' on the trade-by-xi-by-zeta block.  The interpolation follows the same
split in two stages: it blends the child grid's rows over xi' and zeta' once
per xi-by-zeta query, for every grid column, and then picks and blends the two
columns around each x'.  Only the second stage and the utility run over every
state and trade.  ``solver.exact_state_dp`` scores a date-(T-2) node's trades
with the same candidate on the node's exact states as flat arrays, at most
``_BLOCK`` states at a time, through the same block path ``_rows`` and scan
``_scan``, so its memory grows with |A|^(T-2) for an action set A and no
candidate block outgrows ``_BLOCK`` elements.

Under u(w) = -exp(-a*w) cash enters wealth additively, so a value function
factors exactly as V(xi, zeta, x) = exp(-a*xi) * V(0, zeta, x).  Exponential
layers are therefore stored cash-free, on the one-point cash axis xi = 0, and
swept there.  The CARA hook reads a child as exp(-a*xi') * W(zeta', x'): it
interpolates the cash-free layer W over (zeta', x') only (the same two stages
on a single cash row) and applies the cash factor exactly, with no clamp along
xi.  ``cara_scale`` forms that product as -exp(ln(-W) - a*xi'), which never
meets 0 * inf: W = -0.0 gives -0.0 and W = -inf gives -inf whatever xi' is.
Exponential leaf sums are not floored either, so an exponential layer holds
exact values, and -inf where a state's value overflows even at zero cash.  The
hook reads such an entry as ``_BLEND_MIN`` (about -4.5e307), the one bound it
keeps, since a zero blend weight would otherwise form 0 * inf.  ``U_FLOOR`` is
left to the cap and pwl families, whose grids interpolate along cash:
``_leaf_sum`` floors each of their leaf utilities there, while
``utility.evaluate_utility`` itself stays exact for every family.  Their
sweeps run only on the cash rows at and above a layer's affine tail: below
it, every leaf wealth a trade can reach stays under the utility's kink, where
the utility is wealth plus a constant, so ``solver.backward_induce`` fills
those rows with the top row's value plus the cash difference.  The floor,
the bound search and the action scan never see the filled rows, and the
floor could only matter there at wealth near -1e300.

A sweep runs in two phases.  Phase one searches, per state, for a truncation
bound K = K_START * K_FACTOR**n such that the candidates at h = +-K both fall
below the candidate at h = 0; the search stops early (with the failure
warning) when two successive boundary probes return bit-identical values,
which happens when the transitions have saturated the clamped grid box or the
utility floor and further doubling carries no information, and after
K_ROUNDS rounds at most; the solver passes these fixed constants in the
kernels' search slots.  Phase two scans every state over one shared action
set, symmetric around an exact 0.0 on [-K_layer, K_layer] with K_layer the
maximum bound found in phase one.  Sharing the action set across the layer is
what makes the swept values non-decreasing along the cash axis: each
candidate's value is monotone in xi, and a max over a state-independent
candidate set preserves that, whereas per-state action sets can lose it when
neighbouring states truncate at different bounds.  The scan visits the
actions in increasing (|h|, sign) order, 0, -d, +d, -2d, +2d, ..., and takes a
candidate only when it is strictly better, so the first maximum met wins: ties
go to the smallest trade, then to the sale, and a NaN candidate never wins.
Both phases take their trades through one block path, ``_rows``: h = 0 with
round 0's +-K pair, each later round's +-K pair and the scan's actions reach
the candidate in blocks of max(1, _BLOCK // states) trades, on the block's
leading axis.  ``_scan`` then updates the best values once per block: the
first maximum of the block's rows that are not NaN, taken where it is
strictly greater than the best so far, with the bits of the first row that
reaches it.  A block that improves no state costs one reduction and one
comparison, which is what most blocks of large trades come to, and a block of
at most ``_ROW_BY_ROW`` rows is read row by row, with fewer passes over the
states and the same result.  This one scan also keeps the first maximum of
``solver.exact_state_dp`` and of both oracles.  A candidate value is the one
a call with that trade alone gives, so the block size changes the work per
call but not a bit of the result: a one-point sweep makes one call for h = 0
and round 0, one per later round and one for its scan, a cash-free 1x21x21
layer takes 37 trades per call, and a grid of more than 8192 states, such as
a 41x21x21 cap or pwl layer, one.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dynamics import transition
from .utility import evaluate_utility

__all__ = [
    "BACKEND",
    "U_FLOOR",
    "cara_scale",
    "symmetric_grid",
    "sweep_exact",
    "sweep_grid",
    "forced_layer",
]

# the only numeric backend; benchmark reports record it
BACKEND = "numpy"

# cap and pwl utilities are floored here so interpolation never forms 0 * inf
U_FLOOR = -1e300


# elements of one candidate call: a block of trades times the swept states
_BLOCK = 1 << 14

# the most rows of a block that ``_scan`` reads one at a time: on blocks of one
# trade over many states, which grids and exact-DP nodes of more than 8192
# states give, that is three passes over the states against about ten
_ROW_BY_ROW = 3

# the bound search: first half-width, growth per round and most rounds
K_START, K_FACTOR, K_ROUNDS = 1.0, 2.0, 40

# the most negative value that blends of two such values cannot overflow
_BLEND_MIN = -np.finfo(np.float64).max / 4.0


def _axis_lookup(vals, grid):
    # uniform axes for the index, actual node values for the fractions, so a
    # query exactly at a node reproduces the stored value
    n = grid.shape[0]
    t = (vals - grid[0]) / ((grid[n - 1] - grid[0]) / (n - 1))
    idx = np.clip(np.floor(t), 0, n - 2).astype(np.int64)
    f = np.clip((vals - grid[idx]) / (grid[idx + 1] - grid[idx]), 0.0, 1.0)
    return idx, f


def _interp3(grid, xg, zg, xxg, xi, ze, xx):
    """Clamped multilinear interpolation of ``grid`` on the axes xg, zg, xxg.

    The queries broadcast against each other.  Stage one blends whole rows
    of x values: it gathers the four (i or i+1, j or j+1) rows of the
    (nx*nz, nxx) view at the broadcast shape of the xi and zeta queries and
    blends them over xi, then over zeta, for every grid column.  Stage two
    gathers columns k and k+1 of the blended rows with one flat index and
    blends them over x.  These are the blends of the 8-corner formula with
    the same operands in the same order, so the result is the same to the
    bit.  In the sweep layout the xi and zeta queries do not vary along x, so
    stage one blends each (row, column) pair once for every x query that
    reads it.
    """
    i, fi = _axis_lookup(xi, xg)
    j, fj = _axis_lookup(ze, zg)
    k, fk = _axis_lookup(xx, xxg)
    _, nz, nxx = grid.shape
    rows = grid.reshape(-1, nxx)
    r = i * nz + j

    def row(off):
        return rows[off:].take(r, axis=0)

    fi = np.expand_dims(fi, -1)
    fj = np.expand_dims(fj, -1)
    gi = 1.0 - fi
    w0 = _lerp(row(0), row(nz), fi, gi)
    w1 = _lerp(row(1), row(nz + 1), fi, gi)
    return _columns(_lerp(w0, w1, fj, 1.0 - fj), k, fk)


def _columns(w, k, fk):
    """Stage two: blend columns k and k+1 of the blended rows ``w`` over x."""
    nxx = w.shape[-1]
    shape = w.shape[:-1]
    w = w.reshape(-1)
    col = np.arange(0, w.size, nxx).reshape(shape) + k
    return _lerp(w.take(col), w[1:].take(col), fk, 1.0 - fk)


def _cara_interp(grid, zg, xxg, a, xi, ze, xx):
    """exp(-a*xi) * W(ze, xx) for the cash-free exponential layer W = grid[0].

    W is interpolated over zeta and x as ``_interp3`` does on one cash row:
    stage one blends rows j and j+1 over zeta for every grid column, stage two
    blends the columns around each x query.  The cash factor is exact.
    """
    j, fj = _axis_lookup(ze, zg)
    k, fk = _axis_lookup(xx, xxg)
    rows = grid.reshape(-1, grid.shape[-1])
    fj = fj[..., None]
    w = _lerp(rows.take(j, axis=0), rows[1:].take(j, axis=0), fj, 1.0 - fj)
    return cara_scale(_columns(w, k, fk), xi, a)


def cara_scale(w, xi, a):
    """exp(-a*xi) * w for exponential values w <= 0, as -exp(ln(-w) - a*xi).

    The value at cash xi of a state whose cash-free value is w.  No 0 * inf:
    w = -0.0 maps to -0.0 and w = -inf to -inf for every finite xi.
    """
    return -np.exp(np.log(-w) - a * xi)


def _lerp(lo, hi, f, g):
    # lo * g + hi * f with g = 1 - f, computed in place in lo and hi
    lo *= g
    hi *= f
    lo += hi
    return lo


def symmetric_grid(hi, n):
    """n points on [-hi, hi]; odd n puts an exact 0.0 at the centre, also
    when hi is inf."""
    if n % 2 == 0:
        return np.linspace(-hi, hi, n)
    m = (n - 1) // 2
    grid = np.array([hi * ((i - m) / m) for i in range(n)])
    grid[m] = 0.0
    return grid


def _sweep(cand, xg, zg, xxg, k0, kfac, kmax, n_act):
    """Shared state-vectorized optimizer; ``cand`` maps trades to values.

    ``cand`` is called through ``_rows`` on the axes as broadcast views.
    Per-state bound search with the dominance, plateau, and max-expansion
    exits in that order, then one ``_scan`` of all states over the action set
    built from the layer-wide maximum bound.  A state still searching in round
    n probes +-k0 * kfac**n, the same bound for every such state, so each
    round is one pair of trades; the values of states that already stopped
    are not read.
    """
    XI = xg[:, None, None]
    ZE = zg[None, :, None]
    XX = xxg[None, None, :]
    shape = (xg.shape[0], zg.shape[0], xxg.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        big = k0
        # round 0 always runs, so h = 0 and its +-K pair share a call
        v0, vp, vm = itertools.chain.from_iterable(_rows(cand, XI, ZE, XX, [0.0, big, -big]))
        active = np.ones(shape, dtype=bool)
        nexp = np.zeros(shape, dtype=np.int64)
        warn = np.zeros(shape, dtype=np.int64)
        rounds = 0
        while True:
            active &= ~((vp <= v0) & (vm <= v0))
            if rounds > 0:
                flat = active & (vp == prev_vp) & (vm == prev_vm)
                warn[flat] = 1
                active &= ~flat
            if not active.any():
                break
            if rounds >= kmax:
                warn[active] = 1
                break
            prev_vp = vp
            prev_vm = vm
            big = big * kfac
            nexp += active
            rounds += 1
            vp, vm = itertools.chain.from_iterable(_rows(cand, XI, ZE, XX, [big, -big]))
        m = (n_act - 1) // 2
        hs = symmetric_grid(float(big), n_act)
        # 0, -d, +d, -2d, +2d, ...: the h = 0 row is the search's v0
        order = (m + np.arange(1, m + 1)[:, None] * np.array([-1, 1])).ravel()
        best_v, best_i = _scan(_rows(cand, XI, ZE, XX, hs[order]), order, v0, np.full(shape, m))
    return best_v, hs[best_i], nexp, warn


def _rows(cand, XI, ZE, XX, hs):
    """``cand``'s values at the trades ``hs``, a block per call
    ``cand(XI, ZE, XX, H)`` of max(1, _BLOCK // states) trades on the leading
    axis of H and of the block; each block is yielded before the next call."""
    hs = np.asarray(hs, dtype=np.float64)
    states = np.broadcast(XI, ZE, XX)
    size = max(1, _BLOCK // states.size)
    lead = (-1,) + (1,) * states.ndim
    for start in range(0, hs.size, size):
        yield cand(XI, ZE, XX, hs[start : start + size].reshape(lead))


def _scan(blocks, index, best_v=None, best_i=None):
    """Per state, the value and ``index`` entry of the row a scan of the rows
    of ``blocks`` (trades on each block's leading axis) ends on that starts
    from ``best_v`` and ``best_i`` and takes a row only when it is strictly
    greater: ties keep the earlier row, a NaN first row stands and a later NaN
    never wins, and the kept value has the bits of the first row that reaches
    it, so -0.0 stays ahead of a later 0.0.  Without a start the first row is
    the start, and the index of row k is ``index[k]``; with one, row k has
    ``index[k]`` and the start keeps its own.  ``index`` must be an array
    unless each block is one-dimensional.  The start, or the first row where
    it is an array, is updated in place.  A block of more than
    ``_ROW_BY_ROW`` rows is one update: the first maximum of its rows that
    are not NaN, kept where it is greater."""
    row = 0
    for block in blocks:
        if best_v is None:
            # the first row itself where it is an array, so no copy is made
            best_v = block[0] if block.ndim > 1 else np.array(block[0])
            best_i = np.full(best_v.shape, index[0])
            block, row = block[1:], 1
        at, row = row, row + len(block)
        if len(block) <= _ROW_BY_ROW:
            for v, i in zip(block, index[at:]):
                better = v > best_v
                np.copyto(best_v, v, where=better)
                best_i[better] = i
            continue
        top = np.fmax.reduce(block, axis=0)  # NaN only where the whole block is
        better = top > best_v
        if not np.count_nonzero(better):
            continue
        first = (block == top).argmax(axis=0)
        # a value equal to the maximum has its bits, but for the sign of a zero
        if np.count_nonzero(top) < top.size:
            top = np.take_along_axis(block, first[None], 0)[0]
        np.copyto(best_v, top, where=better)
        np.copyto(best_i, index[first + at], where=better)
    return best_v, best_i


def _over_children(decay, cp, cP, cdelta, cont):
    """``_sweep``'s candidate: sum_c p_c * cont(c, XI1, ZE1, X1) after each
    child's transition, with ``cont`` child c's value at its post-trade state.
    The trades H lie on a leading axis.
    """

    def cand(XI, ZE, XX, H):
        AH = abs(H)
        X1 = XX + H
        tot = np.zeros(np.broadcast(XI, ZE, XX, H).shape)
        for c in range(cp.shape[0]):
            XI1, ZE1 = transition(XI, ZE, H, AH, decay, cP[c], cdelta[c])
            tot += cp[c] * cont(c, XI1, ZE1, X1)
        return tot

    return cand


def _leaf_sum(XI, ZE, XX, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z):
    """Closed-form value at the last decision date: close x, sum over leaves."""
    G = -XX
    AG = np.abs(G)
    acc = np.zeros(np.broadcast(XI, ZE, XX).shape)
    for q in range(lp.shape[0]):
        XI2, _ = transition(XI, ZE, G, AG, decay, lP[q], ld[q])
        v = evaluate_utility(ucode, ua, uxs, uys, z + XI2 - lB[q])
        if ucode != 0:
            # exponential layers are cash-free and never interpolated along
            # cash, so only cap and pwl utilities are floored
            v = np.maximum(v, U_FLOOR)
        acc += lp[q] * v
        del v  # kept through the next leaf's transition, it would raise the peak
    return acc


def _leaf_cont(cdecay, goff, gp, gP, gd, gB, ucode, ua, uxs, uys, z):
    """The continuation of children at the last decision date: child c's
    ``_leaf_sum`` over its leaves, entries goff[c]..goff[c+1]-1 of the g*
    arrays, at its resilience decay cdecay[c]."""

    def cont(c, XI1, ZE1, X1):
        q = slice(goff[c], goff[c + 1])
        return _leaf_sum(XI1, ZE1, X1, cdecay[c], gp[q], gP[q], gd[q], gB[q], ucode, ua, uxs, uys, z)

    return cont


def sweep_exact(xg, zg, xxg, decay, cp, cP, cdelta, cdecay, goff, gp, gP, gd, gB, ucode, ua, uxs, uys, z, k0, kfac, kmax, n_act):
    """Sweep a node whose children sit at the last decision date, summing
    their leaves in closed form (``_leaf_cont``)."""
    cont = _leaf_cont(cdecay, goff, gp, gP, gd, gB, ucode, ua, uxs, uys, z)
    return _sweep(_over_children(decay, cp, cP, cdelta, cont), xg, zg, xxg, k0, kfac, kmax, n_act)


def sweep_grid(xg, zg, xxg, decay, cp, cP, cdelta, grids, gxi, gze, gxx, k0, kfac, kmax, n_act, alpha=None):
    """Sweep a node whose children carry value grids on the g* axes.

    The g* axes match the swept states in the backward pass but not in
    exact-state one-step calls.  With ``alpha`` set, the children are
    cash-free exponential layers of that risk aversion and are read through
    the CARA hook; ``gxi`` is then the one-point axis at 0 and is not read.
    """

    if alpha is None:

        def cont(c, XI1, ZE1, X1):
            return _interp3(grids[c], gxi, gze, gxx, XI1, ZE1, X1)

    else:
        # a -inf entry (a state whose value overflows even at zero cash) would
        # make a zero blend weight form 0 * inf, so it is read as _BLEND_MIN
        finite = np.maximum(grids, _BLEND_MIN)

        def cont(c, XI1, ZE1, X1):
            return _cara_interp(finite[c], gze, gxx, alpha, XI1, ZE1, X1)

    return _sweep(_over_children(decay, cp, cP, cdelta, cont), xg, zg, xxg, k0, kfac, kmax, n_act)


def forced_layer(xg, zg, xxg, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z):
    """Values and forced policy at a last-decision-date node (no optimization).

    The trade is pinned to -x; the value is the expected utility over the
    node's leaves.
    """
    XX = xxg[None, None, :]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        values = _leaf_sum(xg[:, None, None], zg[None, :, None], XX, decay, lp, lP, ld, lB, ucode, ua, uxs, uys, z)
    return values, np.broadcast_to(-XX, values.shape).copy()
