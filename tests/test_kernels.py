"""Numeric kernels: floored utility, interpolation, bound search, first-maximum
scan, the bounded action scan of exact sweeps, forced layer."""

import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impactdp._kernels as K
from impactdp.solver import backward_induce, solve
from impactdp.tree import generate, preset
from impactdp.utility import capped_linear, exponential, piecewise_linear


def exp_encoding(alpha=1.0):
    return exponential(alpha).kernel_encoding()


def small_axes():
    xg = np.linspace(-4.0, 4.0, 9)
    zg = np.linspace(0.0, 2.0, 5)
    xxg = np.linspace(-2.0, 2.0, 5)
    return xg, zg, xxg


def grid_problem(rng, monotone=True):
    """Random grid-mode sweep input with child values on the same axes."""
    xg, zg, xxg = small_axes()
    shape = (2, xg.size, zg.size, xxg.size)
    noise = rng.normal(0, 0.5, size=shape)
    if monotone:
        grids = np.cumsum(np.abs(noise), axis=1) - 3.0
    else:
        grids = noise
    decay = math.exp(-0.05)
    cp = np.array([0.3, 0.7])
    cP = np.array([1.0, -0.5])
    cdelta = np.array([1.0, 2.0])
    return xg, zg, xxg, decay, cp, cP, cdelta, np.ascontiguousarray(grids)


# -- kernel signatures -------------------------------------------------------


def test_kernel_parameters_keep_their_positions():
    # perfbench's tracer reads sweep arguments by position (cp at 4 and n_act
    # at 14 of sweep_grid, gp at 9 and n_act at 21 of sweep_exact), and the
    # solver passes every argument by position; the CARA coefficient of
    # sweep_grid comes last, after every pinned position
    def names(f):
        return list(inspect.signature(f).parameters)

    assert names(K.sweep_exact) == [
        "xg", "zg", "xxg", "decay", "cp", "cP", "cdelta", "cdecay", "goff", "gp", "gP", "gd", "gB",
        "ucode", "ua", "uxs", "uys", "z", "k0", "kfac", "kmax", "n_act",
    ]
    assert names(K.sweep_grid) == [
        "xg", "zg", "xxg", "decay", "cp", "cP", "cdelta", "grids", "gxi", "gze", "gxx",
        "k0", "kfac", "kmax", "n_act", "alpha",
    ]
    assert names(K.forced_layer) == [
        "xg", "zg", "xxg", "decay", "lp", "lP", "ld", "lB", "ucode", "ua", "uxs", "uys", "z",
    ]


def test_the_benchmark_tracer_counts_every_sweep(monkeypatch):
    # perfbench/tracing.py wraps the sweeps and forced_layer, reads the
    # arguments pinned above and each sweep's (values, policy, nexp, warn);
    # a traced solve must run and count every state its sweeps ran on
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = (K.sweep_exact, K.sweep_grid, K.forced_layer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for u in (exponential(1.0), capped_linear(1.0)):
            solve(generate(preset("binomial", T=4)), u, 0.0)
    finally:
        tracer.uninstall()
    assert (K.sweep_exact, K.sweep_grid, K.forced_layer) == originals
    calls = tracer.layer_times()["calls"]
    assert calls["_kernels.sweep_exact"] > 0 and calls["_kernels.sweep_grid"] > 0
    counts = tracer.counts
    assert counts["_kernels.states_swept"] >= calls["_kernels.sweep_exact"] + calls["_kernels.sweep_grid"]
    assert counts["_kernels.interp_count"] > 0 and counts["_kernels.utility_evals"] > 0


# -- floored utility ---------------------------------------------------------


def floored(u, w):
    """Utility as the kernels see it: the leaf sum of one leaf at zero price,
    depth 1 and endowment 0, from a flat position at cash w, where the leaf
    wealth is w itself."""
    one, zero = np.ones(1), np.zeros(1)
    return K._leaf_sum(w, 0.0, 0.0, 1.0, one, zero, one, zero, *u.kernel_encoding(), 0.0)


def test_u_scalar_matches_family_formulas():
    u = exponential(2.0)
    assert floored(u, 0.5) == -math.exp(-1.0) == u(0.5)
    u = capped_linear(3.0)
    assert floored(u, 10.0) == 3.0 == u(10.0)
    assert floored(u, -2.0) == -2.0 == u(-2.0)


def test_u_scalar_floors_instead_of_overflowing():
    assert K.U_FLOOR == -1e300
    u = exponential(1.0)
    # exponential leaf sums stay exact: their layers are cash-free
    assert floored(u, -800.0) == -math.inf == u(-800.0)
    # capped utility floors too once wealth is absurd
    u = capped_linear(0.0)
    assert floored(u, -2e300) == K.U_FLOOR
    assert u(-2e300) == -2e300
    u = piecewise_linear([(-1.0, -2.0), (0.0, 0.0)])
    w = np.array([-2e300, -1e301, -3.0])
    assert list(floored(u, w)) == [K.U_FLOOR, K.U_FLOOR, -4.0]
    assert list(u(w)) == [-2e300, -1e301, -4.0]


def test_u_scalar_piecewise_interpolates_between_knots():
    # above the floor the kernel path and UtilitySpec give the same bits, on
    # scalars and on arrays, for every family
    w = np.array([-30.0, -5.0, -1.0, -0.25, 0.0, 0.3, 1.0, 2.0, 9.0])
    for u in (
        piecewise_linear([(-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)]),
        piecewise_linear([(0.5, 0.25)]),
        exponential(1.3),
        capped_linear(0.7),
    ):
        assert floored(u, w).tobytes() == u(w).tobytes()
        for x in w:
            assert floored(u, float(x)) == u(float(x))


# -- interpolation -----------------------------------------------------------


def test_interp_reproduces_grid_nodes_bitwise():
    rng = np.random.default_rng(0)
    xg, zg, xxg = small_axes()
    grid = rng.normal(size=(xg.size, zg.size, xxg.size))
    i, j, k = np.meshgrid([0, 3, 8], [0, 2, 4], [0, 1, 4], indexing="ij")
    got = K._interp3(grid, xg, zg, xxg, xg[i], zg[j], xxg[k])
    assert np.array_equal(got, grid[i, j, k])


def test_interp_clamps_outside_the_box():
    rng = np.random.default_rng(1)
    xg, zg, xxg = small_axes()
    grid = rng.normal(size=(xg.size, zg.size, xxg.size))
    inside = K._interp3(grid, xg, zg, xxg, xg[0], zg[-1], xxg[0])
    outside = K._interp3(grid, xg, zg, xxg, xg[0] - 50.0, zg[-1] + 9.0, xxg[0] - 1.0)
    assert outside == inside


def test_interp_preserves_monotone_data_along_xi():
    rng = np.random.default_rng(2)
    xg, zg, xxg = small_axes()
    grid = np.cumsum(np.abs(rng.normal(size=(xg.size, zg.size, xxg.size))), axis=0)
    queries = np.sort(rng.uniform(xg[0] - 1, xg[-1] + 1, 40))
    for j in (0.3, 1.7):
        for k in (-1.9, 0.4):
            vals = K._interp3(grid, xg, zg, xxg, queries, np.full(40, j), np.full(40, k))
            assert np.all(vals[1:] >= vals[:-1])


def test_interp_linear_inside_a_cell():
    xg, zg, xxg = small_axes()
    grid = np.zeros((xg.size, zg.size, xxg.size))
    grid[4, 2, 2] = 0.0
    grid[5, 2, 2] = 2.0
    mid = K._interp3(grid, xg, zg, xxg, (xg[4] + xg[5]) / 2, zg[2], xxg[2])
    assert mid == pytest.approx(1.0, rel=1e-15)


def interp3_by_index(grid, xg, zg, xxg, xi, ze, xx):
    """The interpolation written with 3-index corner gathers, blends in order."""
    i, fi = K._axis_lookup(xi, xg)
    j, fj = K._axis_lookup(ze, zg)
    k, fk = K._axis_lookup(xx, xxg)
    w00 = grid[i, j, k] * (1.0 - fi) + grid[i + 1, j, k] * fi
    w10 = grid[i, j + 1, k] * (1.0 - fi) + grid[i + 1, j + 1, k] * fi
    w01 = grid[i, j, k + 1] * (1.0 - fi) + grid[i + 1, j, k + 1] * fi
    w11 = grid[i, j + 1, k + 1] * (1.0 - fi) + grid[i + 1, j + 1, k + 1] * fi
    w0 = w00 * (1.0 - fj) + w10 * fj
    w1 = w01 * (1.0 - fj) + w11 * fj
    return w0 * (1.0 - fk) + w1 * fk


def interp3_eight_corners(grid, xg, zg, xxg, xi, ze, xx):
    """The interpolation as 8 corner gathers at one flat base index."""
    i, fi = K._axis_lookup(xi, xg)
    j, fj = K._axis_lookup(ze, zg)
    k, fk = K._axis_lookup(xx, xxg)
    _, nz, nxx = grid.shape
    flat = grid.reshape(-1)
    base = (i * nz + j) * nxx + k
    si = nz * nxx

    def corner(off):
        return flat[off:].take(base)

    gi = 1.0 - fi
    w00 = K._lerp(corner(0), corner(si), fi, gi)
    w10 = K._lerp(corner(nxx), corner(si + nxx), fi, gi)
    w01 = K._lerp(corner(1), corner(si + 1), fi, gi)
    w11 = K._lerp(corner(nxx + 1), corner(si + nxx + 1), fi, gi)
    gj = 1.0 - fj
    w0 = K._lerp(w00, w10, fj, gj)
    w1 = K._lerp(w01, w11, fj, gj)
    return K._lerp(w0, w1, fk, 1.0 - fk)


def test_flat_gather_matches_three_index_gather_bitwise():
    rng = np.random.default_rng(3)
    # unequal axis lengths, so a swapped stride would gather the wrong corner
    xg = np.linspace(-4.0, 4.0, 7)
    zg = np.linspace(0.0, 2.0, 4)
    xxg = np.linspace(-2.0, 2.0, 6)
    grid = rng.normal(size=(xg.size, zg.size, xxg.size))

    def check(xi, ze, xx, shape):
        got = K._interp3(grid, xg, zg, xxg, xi, ze, xx)
        assert np.shape(got) == shape
        for reference in (interp3_by_index, interp3_eight_corners):
            want = reference(grid, xg, zg, xxg, xi, ze, xx)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    # broadcast queries, reaching past every face of the box
    xi = rng.uniform(-6.0, 6.0, size=(9, 1, 1))
    ze = rng.uniform(-0.5, 2.5, size=(1, 5, 1))
    xx = rng.uniform(-3.0, 3.0, size=(1, 1, 8))
    xi[0], ze[0, 0], xx[0, 0, 0] = xg[-1], zg[-1], xxg[-1]
    check(xi, ze, xx, (9, 5, 8))
    # the sweep layout: xi' on the xi-by-zeta slab, zeta' on the zeta axis
    check(xi + ze, ze, xx, (9, 5, 8))
    # xi varying along the last axis and x along the first
    check(xi.reshape(1, 1, 9), ze, xx.reshape(8, 1, 1), (8, 5, 9))
    # generic point queries, each coordinate its own
    pts = [rng.uniform(lo - 2.0, hi + 2.0, size=40) for lo, hi in ((-4.0, 4.0), (0.0, 2.0), (-2.0, 2.0))]
    check(*pts, (40,))
    # single points: 1x1x1 state grids as in one-step calls at an exact state,
    # 0-d arrays and floats, inside and past each face of the box
    for point in ((0.3, 1.1, -0.7), (-9.0, 3.0, 2.5), (9.0, -1.0, -2.5), (-4.0, 2.0, 2.0), (4.0, 0.0, -2.0)):
        check(*[np.array(c).reshape(1, 1, 1) for c in point], (1, 1, 1))
        check(*[np.array(c) for c in point], ())
        check(*point, ())


# -- CARA continuation hook --------------------------------------------------


def test_cara_hook_scales_cash_exactly():
    # a cash-free layer W read at cash xi is exp(-a*xi) * W, with no cash axis
    # to clamp against, and interpolated over zeta and x like _interp3
    rng = np.random.default_rng(4)
    _, zg, xxg = small_axes()
    W = -np.exp(rng.normal(size=(1, zg.size, xxg.size)))
    a = 1.3
    for xi in (-300.0, -5.0, 0.0, 7.5, 300.0):
        for j in range(zg.size):
            for k in range(xxg.size):
                got = K._cara_interp(W, zg, xxg, a, xi, zg[j], xxg[k])
                assert got == pytest.approx(W[0, j, k] * math.exp(-a * xi), rel=1e-13)
    ze = rng.uniform(-0.5, 2.5, size=(1, 7, 1))
    xx = rng.uniform(-3.0, 3.0, size=(1, 1, 6))
    got = K._cara_interp(W, zg, xxg, a, 0.5 * ze, ze, xx)
    two_rows = np.concatenate([W, W])  # the same layer at cash 0 and 1
    want = K._interp3(two_rows, np.array([0.0, 1.0]), zg, xxg, 0.0, ze, xx) * np.exp(-a * 0.5 * ze)
    assert got.shape == (1, 7, 6)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_cara_hook_never_forms_nan():
    w = np.array([-0.0, -np.inf, -2.0])
    with np.errstate(divide="ignore", over="ignore"):
        for xi in (-800.0, 0.0, 800.0):
            got = K.cara_scale(w, xi, 1.0)
            assert not np.isnan(got).any()
            assert got[0] == 0.0 and got[1] == -np.inf
    # a -inf entry next to the queried states: exact queries give zero blend
    # weights, which must not multiply the infinity
    xg, zg, xxg = np.array([0.0]), np.linspace(0.0, 2.0, 3), np.linspace(-2.0, 2.0, 5)
    grids = -np.exp(np.add.outer(zg, np.abs(xxg)))[None, None]
    grids[0, 0, 2, 4] = -np.inf
    values, policy, nexp, warn = K.sweep_grid(
        xg, zg, xxg, 1.0, np.array([1.0]), np.array([0.5]), np.array([1.0]), grids, xg, zg, xxg,
        1.0, 2.0, 40, 21, 1.0,
    )
    assert not np.isnan(values).any()
    assert np.all(values > -np.inf)


# -- sweep semantics ---------------------------------------------------------


def test_swept_values_monotone_in_cash_for_monotone_children():
    # one shared action set per layer makes this structural, whatever the draw
    for seed in range(5):
        rng = np.random.default_rng(seed)
        xg, zg, xxg, decay, cp, cP, cdelta, grids = grid_problem(rng, monotone=True)
        values, policy, nexp, warn = K.sweep_grid(
            xg, zg, xxg, decay, cp, cP, cdelta, grids, xg, zg, xxg, 1.0, 2.0, 40, 21
        )
        assert np.all(values[1:] >= values[:-1])


def test_action_zero_is_exact_and_ties_break_to_no_trade():
    # flat children make every action equally good; the tie must go to h = 0
    xg, zg, xxg = small_axes()
    grids = np.zeros((2, xg.size, zg.size, xxg.size))
    decay = 1.0
    cp = np.array([0.5, 0.5])
    cP = np.zeros(2)
    cdelta = np.ones(2)
    values, policy, nexp, warn = K.sweep_grid(
        xg, zg, xxg, decay, cp, cP, cdelta, grids, xg, zg, xxg, 1.0, 2.0, 40, 21
    )
    assert np.all(values == 0.0)
    assert np.all(policy == 0.0)
    assert np.all(nexp == 0)
    assert np.all(warn == 0)


def sweep_per_action(cand, xg, zg, xxg, k0, kfac, kmax, n_act):
    """Reference sweep over flat state arrays: each state probes its own bound,
    and the scan visits the actions from -K to K, keeping the best (value,
    |h|, sign) per state."""
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


def tied_cand(XI, ZE, XX, H):
    """Candidate values on a few levels, with NaN patches, for flat or broadcast
    states.  Only +, -, * and floor, so each element gets the same bits in
    either layout."""
    slope = XI + ZE - 0.5 * XX
    # even in h where x > 0, so +-h tie there
    trade = np.where(XX > 0.0, np.abs(H), H)
    v = np.floor(2.0 * (slope * trade - 0.25 * H * H)) * 0.5
    # a band of trades, and every trade at one corner state, where v0 is NaN
    # and the bound search runs to its expansion cap
    nan = ((XI * H > 5.0) & (XI * H < 9.0)) | ((XX > 1.5) & (ZE > 1.5) & (XI > 3.5))
    v = np.where(nan, np.nan, v)
    return np.broadcast_to(v, np.broadcast_shapes(XI.shape, ZE.shape, XX.shape, np.shape(H))).copy()


def test_ordered_scan_matches_per_action_scan_bitwise(monkeypatch):
    # on the grid and on one-point states (the first at the NaN corner), with
    # 1 to 200 trades per candidate call
    xg, zg, xxg = small_axes()
    points = [tuple(np.array([v]) for v in s) for s in ((4.0, 2.0, 2.0), (3.0, 1.0, 1.0), (2.0, 0.5, -1.0))]
    for k0, kfac, kmax, n_act in ((1.0, 2.0, 6, 21), (0.5, 1.5, 3, 41), (1.0, 2.0, 0, 7), (2.0, 3.0, 4, 201)):
        values, policy, nexp, warn = sweep_per_action(tied_cand, xg, zg, xxg, k0, kfac, kmax, n_act)
        assert np.isnan(values).sum() == 1
        assert (policy != 0.0).mean() > 0.25
        assert warn.any()
        for axes in [(xg, zg, xxg)] + points:
            want = sweep_per_action(tied_cand, *axes, k0, kfac, kmax, n_act)
            states = axes[0].size * axes[1].size * axes[2].size
            for size in (1, 2, 3, 7, 64, 200):
                monkeypatch.setattr(K, "_BLOCK", size * states)
                got = K._sweep(tied_cand, *axes, k0, kfac, kmax, n_act)
                for g, w in zip(got, want):
                    assert g.shape == w.shape == (axes[0].size, axes[1].size, axes[2].size)
                    assert g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()


def test_ordered_scan_breaks_ties_to_the_smallest_sale():
    # equal maxima at +-d and +-2d (d = 0.25); the scan must return -d
    table = {0.0: 0.0, 0.25: 1.0, 0.5: 1.0, 0.75: -1.0, 1.0: 0.0}

    def cand(XI, ZE, XX, H):
        shape = np.broadcast_shapes(XI.shape, ZE.shape, XX.shape, np.shape(H))
        return np.vectorize(lambda h: table[abs(h)])(np.broadcast_to(H, shape)).astype(np.float64)

    one = np.array([0.0])
    for sweep in (K._sweep, sweep_per_action):
        values, policy, nexp, warn = sweep(cand, one, one, one, 1.0, 2.0, 40, 9)
        assert values[0, 0, 0] == 1.0
        assert policy[0, 0, 0] == -0.25
        assert nexp[0, 0, 0] == 0 and warn[0, 0, 0] == 0


def block_scan_cand(XI, ZE, XX, H):
    """In scan order -d, +d, -2d, +2d, -3d, +3d, -4d, +4d (d = 0.25): values
    1, 1, NaN, 2, 2, 2, NaN, NaN plus a shift per state, 0 at h = 0.  So the
    first maximum sits at +2d, the fourth scanned trade, ties with the next
    two, and NaN comes before and after it."""
    table = {0.0: 0.0, -0.25: 1.0, 0.25: 1.0, -0.5: np.nan, 0.5: 2.0, -0.75: 2.0, 0.75: 2.0, -1.0: np.nan, 1.0: np.nan}
    shape = np.broadcast_shapes(XI.shape, ZE.shape, XX.shape, np.shape(H))
    v = np.vectorize(table.__getitem__)(np.broadcast_to(H, shape)).astype(np.float64)
    return v + (XI + ZE - XX)


def test_block_scan_keeps_ties_and_nans_at_every_block_size(monkeypatch):
    # trades per block 1..8: the maximum at +2d and its ties fall inside a
    # block for some sizes and across a block boundary for others, and so do
    # the NaN candidates; every size must give the per-action scan's bytes
    xg, zg, xxg = small_axes()
    point = (np.array([1.0]), np.array([0.5]), np.array([-2.0]))
    for axes in ((xg, zg, xxg), point):
        states = axes[0].size * axes[1].size * axes[2].size
        want = sweep_per_action(block_scan_cand, *axes, 1.0, 2.0, 0, 9)
        assert np.all(want[1] == 0.5)
        for size in range(1, 9):
            monkeypatch.setattr(K, "_BLOCK", size * states)
            got = K._sweep(block_scan_cand, *axes, 1.0, 2.0, 0, 9)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def scan_row_at_a_time(rows, index, best_v=None, best_i=None):
    """The first-maximum scan written out: start from the first row unless a
    start is given, then take a row only where it is strictly greater."""
    if best_v is None:
        best_v, best_i = rows[0], np.full(rows[0].shape, index[0])
        rows, index = rows[1:], index[1:]
    for v, i in zip(rows, index):
        better = v > best_v
        best_v = np.where(better, v, best_v)
        best_i = np.where(better, i, best_i)
    return best_v, best_i


SCAN_VALUES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16),
    st.sampled_from(((), (1,), (3,), (2, 2), (2, 5))),
    st.data(),
)
def test_scan_over_blocks_is_the_row_at_a_time_scan(rows, states, data):
    # ties, NaN first and later, +-0.0 and +-inf, cut into blocks anywhere,
    # with and without a start; a 0-d state reads its index from a range, as
    # brute force does.  Blocks this wide reach NumPy's vector loops, whose
    # maximum of -0.0 and 0.0 need not have the first one's sign
    size = rows * math.prod(states)
    values = np.array(data.draw(st.lists(SCAN_VALUES, min_size=size, max_size=size))).reshape((rows, *states))
    index = range(10, 10 + rows) if states == () else np.arange(10, 10 + rows)
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=rows - 1)) if rows > 1 else set())
    blocks = np.split(values.copy(), cuts)
    start = None
    if data.draw(st.booleans()):
        v0 = np.array(data.draw(st.lists(SCAN_VALUES, min_size=math.prod(states), max_size=math.prod(states))))
        start = (v0.reshape(states), np.full(states, -1))
    want_v, want_i = scan_row_at_a_time(values, index, *(start or ()))
    got_v, got_i = K._scan(blocks, index, *((a.copy() for a in start) if start else ()))
    assert np.shape(got_v) == np.shape(got_i) == states
    assert np.array(got_v).view(np.int64).tolist() == np.array(want_v).view(np.int64).tolist()
    assert np.array(got_i).tolist() == np.array(want_i).tolist()


def test_scan_keeps_the_sign_of_the_first_zero_in_wide_blocks():
    # NumPy's vector loops may give the maximum of -0.0 and 0.0 the later
    # one's sign; the scan keeps the first row that reaches the maximum
    for first, later in ((-0.0, 0.0), (0.0, -0.0)):
        block = np.full((4, 16), -1.0)
        block[1], block[2] = first, later
        for start in (None, (np.full(16, -np.inf), np.full(16, -1))):
            best_v, best_i = K._scan([block.copy()], np.arange(4), *(start or ()))
            assert np.signbit(best_v).tolist() == [np.signbit(first)] * 16
            assert best_i.tolist() == [1] * 16


def test_one_point_sweep_scans_every_action_in_one_call():
    # one call for h = 0 and the first bound-search round, one per further
    # round (nexp + 1 rounds in all), and one for the whole action scan
    calls = []

    def counted(XI, ZE, XX, H):
        calls.append(np.shape(H))
        return tied_cand(XI, ZE, XX, H)

    for state in ((3.0, 1.0, 1.0), (2.0, 0.5, -1.0), (4.0, 2.0, 2.0)):
        for kmax, n_act in ((6, 21), (4, 201), (0, 7)):
            calls.clear()
            _, _, nexp, _ = K._sweep(counted, *(np.array([v]) for v in state), 1.0, 2.0, kmax, n_act)
            rounds = int(nexp[0, 0, 0]) + 1
            # h = 0 shares the first round's call
            assert calls[0] == (3, 1, 1, 1)
            assert len(calls) == rounds + 1
            assert calls[-1] == (n_act - 1, 1, 1, 1)


def test_bound_search_expands_when_the_optimum_is_far():
    # strong positive child price with deep books: the best sale is about
    # delta*P/2 ~ 5 units, far beyond k0=1, so the bound must expand
    xg = np.array([0.0])
    zg = np.array([0.0])
    xxg = np.array([0.0])
    decay = 1.0
    cp = np.array([1.0])
    cP = np.array([10.0])
    cdelta = np.array([1.0])
    cdecay = np.array([1.0])
    goff = np.array([0, 1], dtype=np.int64)
    gp = np.array([1.0])
    gP = np.array([0.0])
    gd = np.array([1.0])
    gB = np.array([0.0])
    code, a, uxs, uys = capped_linear(1000.0).kernel_encoding()
    values, policy, nexp, warn = K.sweep_exact(
        xg, zg, xxg, decay, cp, cP, cdelta, cdecay, goff, gp, gP, gd, gB,
        code, a, uxs, uys, 0.0, 1.0, 2.0, 40, 201,
    )
    assert warn[0, 0, 0] == 0
    assert nexp[0, 0, 0] >= 2
    assert policy[0, 0, 0] < -1.0  # sells more than the initial half-width
    assert values[0, 0, 0] > 0.0


def test_bound_search_warns_when_capped_by_max_expansions():
    xg = np.array([0.0])
    zg = np.array([0.0])
    xxg = np.array([0.0])
    decay = 1.0
    cp = np.array([1.0])
    cP = np.array([10.0])
    cdelta = np.array([1.0])
    cdecay = np.array([1.0])
    goff = np.array([0, 1], dtype=np.int64)
    gp = np.array([1.0])
    gP = np.array([0.0])
    gd = np.array([1.0])
    gB = np.array([0.0])
    code, a, uxs, uys = capped_linear(1000.0).kernel_encoding()
    values, policy, nexp, warn = K.sweep_exact(
        xg, zg, xxg, decay, cp, cP, cdelta, cdecay, goff, gp, gP, gd, gB,
        code, a, uxs, uys, 0.0, 1.0, 2.0, 0, 21,
    )
    assert warn[0, 0, 0] == 1
    assert nexp[0, 0, 0] == 0


def test_bound_search_stops_on_frozen_boundary_probes():
    # children reward a short position; once the transition saturates the
    # clamped box the boundary probes freeze and the search must stop with a
    # warning instead of doubling to the expansion cap
    xg, zg, xxg = small_axes()
    grids = np.broadcast_to(-xxg[None, None, :], (xg.size, zg.size, xxg.size))
    grids = np.ascontiguousarray(np.stack([grids]))
    decay = 1.0
    cp = np.array([1.0])
    cP = np.array([0.0])
    cdelta = np.array([1.0])
    values, policy, nexp, warn = K.sweep_grid(
        np.array([0.0]), np.array([0.5]), np.array([0.0]),
        decay, cp, cP, cdelta, grids, xg, zg, xxg, 1.0, 2.0, 40, 41,
    )
    assert warn[0, 0, 0] == 1
    assert nexp[0, 0, 0] < 10
    # the scan still finds the genuinely best reachable short position
    assert values[0, 0, 0] > 0.0
    assert policy[0, 0, 0] < 0.0


# -- bounded action scan -----------------------------------------------------


@st.composite
def exact_nodes(draw):
    """A date-(T-2) node as ``sweep_exact`` takes it: the node's decay, its
    children's (p, P, delta, decay) and their leaves' (p, P, delta, B), the
    utility's kernel encoding and the endowment z != 0."""
    unit = st.floats(0.05, 1.0)
    kids = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=kids, max_size=kids))
    leaves = sum(sizes)

    def arr(strategy, n):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)))

    node = (
        math.exp(-draw(st.floats(0.0, 1.0))),
        arr(unit, kids), arr(st.floats(-3.0, 3.0), kids), arr(st.floats(0.05, 20.0), kids),
        np.exp(-arr(st.floats(0.0, 1.0), kids)), np.cumsum([0] + sizes),
        arr(unit, leaves), arr(st.floats(-3.0, 3.0), leaves), arr(st.floats(0.05, 20.0), leaves),
        arr(st.floats(-2.0, 2.0), leaves),
    )
    family = draw(st.sampled_from(("exp", "cap", "pwl", "pwl-shapes")))
    if family == "exp":
        u = exponential(draw(st.floats(0.01, 5.0)))
    elif family == "cap":
        u = capped_linear(draw(st.floats(-5.0, 5.0)))
    elif family == "pwl":
        xs = sorted(draw(st.sets(st.floats(-50.0, 50.0), min_size=1, max_size=5)))
        # few distinct values, so flat and falling segments come up
        ys = draw(st.lists(st.sampled_from((-1.0, 0.0, 0.3, 0.7, 1.0)), min_size=len(xs), max_size=len(xs)))
        u = piecewise_linear(zip(xs, ys))
    else:
        u = piecewise_linear(draw(st.sampled_from((
            [(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)],
            # a falling segment, then a flat one
            [(-2.0, -1.5), (-1.0, 0.7), (0.5, 0.3), (1.0, 0.3), (2.0, 0.9)],
            [(-1.0, -1.0), (0.3, 0.6), (1.2, 0.6)],
        ))))
    z = draw(st.floats(0.01, 5.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return node, u.kernel_encoding(), z


def exact_candidate(node, enc, z):
    decay, cp, cP, cdelta, cdecay, goff, gp, gP, gd, gB = node
    return K._over_children(decay, cp, cP, cdelta, K._leaf_cont(cdecay, goff, gp, gP, gd, gB, *enc, z))


@settings(max_examples=400, deadline=None)
@given(exact_nodes(), st.floats(0.01, 8.0), st.integers(0, 2**32 - 1))
def test_leaf_bound_is_at_or_above_every_candidate_past_r(problem, r, seed):
    # at states with |xi| up to 2000, zeta up to 60 and |x| up to 8, the bound
    # at r is at or above the float candidate of every trade with |h| >= r,
    # at r itself, just past it and far out.  At x = -r and x = r one side
    # closes at g = 0, where the wealth is psi_l itself and only the margin
    # covers the rounding; a negative zeta (no grid has one) makes psi_l
    # convex, and the bound must fall back to the utility's top
    node, enc, z = problem
    rng = np.random.default_rng(seed)
    n = 24
    XI = rng.uniform(-2000.0, 2000.0, n) * rng.choice([1.0, 1e-3, 1e-6], n)
    ZE = rng.uniform(0.0, 60.0, n) * rng.choice([1.0, 1e-3, 0.0, -1.0], n)
    XX = np.concatenate([rng.uniform(-8.0, 8.0, n - 8), np.full(4, -r), np.full(4, r)])
    scale = np.array([1.0, 1.0 + 2.0**-50, 1.0 + 1e-9, 1.001, 1.1, 1.5, 2.0, 3.0, 8.0, 40.0, 1e3])
    H = np.concatenate([r * scale, -r * scale, r + rng.uniform(0.0, 10.0, 8), -r - rng.uniform(0.0, 10.0, 8)])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        values = exact_candidate(node, enc, z)(XI, ZE, XX, H[:, None])
        bound = K._leaf_bound(*node, *enc, z)(XI, ZE, XX, r)
    assert not np.isnan(bound).any()
    assert np.all(values <= bound), (values.max(axis=0) - bound).max()


@settings(max_examples=60, deadline=None)
@given(exact_nodes(), st.sampled_from((9, 41, 201)))
def test_bounded_scan_gives_the_full_scan_bytes(problem, n_act):
    # sweep_exact, with states leaving the scan, against today's scan of the
    # grid and against the flat scan with the bound forced to +inf, with 1 to
    # all trades per block
    node, enc, z = problem
    xg = np.linspace(-6.0, 3.0, 7) + z
    zg = np.linspace(0.0, 3.0, 4)
    xxg = np.linspace(-3.0, 3.0, 5)
    states = xg.size * zg.size * xxg.size
    args = (xg, zg, xxg, *node, *enc, z, 0.5, 2.0, 6, n_act)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        want = K._sweep(exact_candidate(node, enc, z), xg, zg, xxg, 0.5, 2.0, 6, n_act)
    with pytest.MonkeyPatch.context() as mp:
        for size in (1, 3, 17, n_act):
            mp.setattr(K, "_BLOCK", size * states)
            for unbounded in (False, True):
                if unbounded:
                    mp.setattr(K, "_leaf_bound", lambda *a: lambda XI, ZE, XX, r: np.full(XI.shape, np.inf))
                got = K.sweep_exact(*args)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()
            mp.undo()


def test_bounded_scan_skips_most_date_t2_candidates(monkeypatch):
    # binomial T = 4: the backward pass's date-(T-2) sweeps form at most 40 %
    # of the candidate values they form with the bound forced to +inf
    tree = generate(preset("binomial", T=4))
    over, sweep, bound = K._over_children, K.sweep_exact, K._leaf_bound
    formed = [0]
    inside = [False]

    def spy(*args):
        cand = over(*args)

        def counted(XI, ZE, XX, H):
            values = cand(XI, ZE, XX, H)
            formed[0] += values.size * inside[0]
            return values

        return counted

    def flagged(*args):
        inside[0] = True
        try:
            return sweep(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(K, "_over_children", spy)
    monkeypatch.setattr(K, "sweep_exact", flagged)
    for u in (exponential(1.0), capped_linear(1.0)):
        counts = []
        for leaf_bound in (bound, lambda *a: lambda XI, ZE, XX, r: np.full(XI.shape, np.inf)):
            monkeypatch.setattr(K, "_leaf_bound", leaf_bound)
            formed[0] = 0
            backward_induce(tree, u, 0.0)
            counts.append(formed[0])
        assert counts[0] <= 0.4 * counts[1], (u.family, counts)


def test_forced_layer_matches_hand_loop():
    xg, zg, xxg = small_axes()
    decay = math.exp(-0.2)
    lp = np.array([0.25, 0.75])
    lP = np.array([1.5, 0.5])
    ld = np.array([1.0, 2.0])
    lB = np.array([0.2, -0.1])
    u = exponential(1.0)
    code, a, uxs, uys = u.kernel_encoding()
    values, policy = K.forced_layer(xg, zg, xxg, decay, lp, lP, ld, lB, code, a, uxs, uys, 0.4)
    for i in range(xg.size):
        for j in range(zg.size):
            for k in range(xxg.size):
                g = -xxg[k]
                acc = 0.0
                for q in range(2):
                    ze2 = decay * zg[j] + abs(g) / ld[q]
                    xi2 = xg[i] - lP[q] * g - ze2 * abs(g)
                    acc += lp[q] * max(u(0.4 + xi2 - lB[q]), K.U_FLOOR)
                assert policy[i, j, k] == g
                assert values[i, j, k] == pytest.approx(acc, rel=1e-15, abs=1e-300)


def test_forced_layer_values_monotone_in_cash():
    xg, zg, xxg = small_axes()
    values, policy = K.forced_layer(
        xg, zg, xxg, 1.0,
        np.array([1.0]), np.array([2.0]), np.array([1.0]), np.array([0.0]),
        *exp_encoding(1.0), 0.0,
    )
    assert np.all(values[1:] >= values[:-1])

