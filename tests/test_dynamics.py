"""Market dynamics: spread decay, cash innovations, wealth identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impactdp.dynamics import (
    LIQUIDATION_TOL,
    MarketPath,
    cash_innovation,
    closing_trade,
    innovation_envelope,
    terminal_wealth_explicit,
    terminal_wealth_recursive,
    transition,
)
from impactdp.tree import GeneratorSpec, PredictableAssignment, generate


def make_path(T, zeta0, P, r, delta):
    return MarketPath(T=T, zeta0=zeta0, P=np.asarray(P, float), r=np.asarray(r, float), delta=np.asarray(delta, float))


# -- strategies for random market data --------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def paths_and_trades(draw, t_max=6):
    T = draw(st.integers(min_value=2, max_value=t_max))
    P = draw(st.lists(st.floats(-50, 50), min_size=T + 1, max_size=T + 1))
    r = draw(st.lists(st.floats(0, 2), min_size=T, max_size=T))
    delta = draw(st.lists(st.floats(0.05, 20), min_size=T, max_size=T))
    zeta0 = draw(st.floats(0, 5))
    h = draw(st.lists(st.floats(-10, 10), min_size=T, max_size=T))
    return make_path(T, zeta0, P, r, delta), h


# -- worked step values ------------------------------------------------------


def test_decay_factor_worked_value():
    # decay over steps 1..2 of r=(0.1, 0.2, 0.3) is exp(-(0.2 + 0.3))
    path = make_path(3, 0.0, np.zeros(4), (0.1, 0.2, 0.3), np.ones(3))
    assert path.decay(1, 3) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert path.decay(2, 2) == 1.0


def test_decay_factor_rejects_bad_indexing():
    path = make_path(2, 0.0, np.zeros(3), (0.1, 0.2), np.ones(2))
    with pytest.raises(ValueError):
        path.decay(2, 1)
    with pytest.raises(ValueError):
        path.decay(-1, 1)
    with pytest.raises(ValueError):
        path.decay(0, 3)


def test_spread_step_worked_value():
    # zeta' = exp(-r) * zeta + |dx| / depth with r = 0.7, depth = 2
    _, got = transition(0.0, 0.3, 0.5, 0.5, math.exp(-0.7), 0.0, 2.0)
    assert got == math.exp(-0.7) * 0.3 + 0.25


def test_spread_step_uses_magnitude_of_trade():
    buy = transition(1.0, 0.3, 0.5, abs(0.5), math.exp(-0.7), 10.0, 2.0)
    sell = transition(1.0, 0.3, -0.5, abs(-0.5), math.exp(-0.7), 10.0, 2.0)
    assert buy[1] == sell[1]
    # the cash pays the same spread either way and the notional with its sign
    assert (buy[0], sell[0]) == (1.0 - 5.0 - buy[1] * 0.5, 1.0 + 5.0 - buy[1] * 0.5)


def test_cash_step_worked_value():
    # sell 2 at price 10 into an empty book of depth 8: the half-spread
    # becomes 0.25, so receive 20 and pay 0.5 friction
    assert transition(1.0, 0.0, -2.0, 2.0, 1.0, 10.0, 8.0) == (1.0 + 20.0 - 0.5, 0.25)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50), st.floats(0, 5), st.floats(-10, 10), st.floats(0, 1), st.floats(-50, 50), st.floats(0.05, 20)
        ),
        min_size=1,
        max_size=8,
    )
)
def test_transition_same_bits_on_floats_and_arrays(rows):
    # the grid sweeps run it on arrays, the exact-state walks on floats; the
    # walks replay the sweeps only if both give the same bits
    xi, zeta, dx, decay, price, depth = (np.array(col) for col in zip(*rows))
    XI, ZE = transition(xi, zeta, dx, np.abs(dx), decay, price, depth)
    for n, (a, b, h, d, p, q) in enumerate(rows):
        x1, z1 = transition(a, b, h, abs(h), d, p, q)
        assert (x1.hex(), z1.hex()) == (float(XI[n]).hex(), float(ZE[n]).hex())


def test_path_decay_matches_decay_factor():
    r = (0.3, 0.05, 1.2, 0.0)
    path = make_path(4, 0.0, np.zeros(5), r, np.ones(4))
    for j in range(5):
        for t in range(j, 5):
            acc = 0.0
            for i in range(j, t):
                acc = acc + r[i]
            if j == 0:
                # same left-fold sum, so the factors from the root are bit-equal
                assert path.decay(0, t) == math.exp(-acc)
            else:
                # interior factors difference two prefix sums; an ulp apart at most
                assert path.decay(j, t) == pytest.approx(math.exp(-acc), rel=1e-15)


def test_large_horizon_skips_rho_table_same_values():
    T = 70
    rng = np.random.default_rng(3)
    r = rng.uniform(0, 0.3, T)
    path = make_path(T, 0.0, np.zeros(T + 1), r, np.ones(T))
    # no decay table is built at any horizon; decay() reads the prefix sums
    assert not hasattr(path, "_rho_table")
    # and must agree with the prefix-sum expression bit for bit
    rsums = path._rsums
    assert path.decay(3, 60) == math.exp(-(float(rsums[60]) - float(rsums[3])))


# -- construction errors -----------------------------------------------------


def test_path_validation_errors():
    with pytest.raises(ValueError, match="horizon"):
        make_path(1, 0.0, (0.0, 0.0), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="P must have"):
        make_path(2, 0.0, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="r must have"):
        make_path(2, 0.0, (0.0, 0.0, 0.0), (0.0,), (1.0, 1.0))
    with pytest.raises(ValueError, match="delta must have"):
        make_path(2, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0), (1.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        make_path(2, 0.0, (0.0, 0.0, 0.0), (-0.1, 0.0), (1.0, 1.0))
    for depth in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="depth delta must be positive"):
            make_path(2, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0), depth)
    with pytest.raises(ValueError, match="zeta0"):
        make_path(2, -0.5, (0.0, 0.0, 0.0), (0.0, 0.0), (1.0, 1.0))


def test_path_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        make_path(2, 0.0, (0.0, math.nan, 0.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        make_path(2, 0.0, (0.0, 0.0, 0.0), (0.0, math.inf), (1.0, 1.0))
    for depth in ((1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="delta must be finite"):
            make_path(2, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0), depth)


@pytest.mark.parametrize("zeta0", [math.nan, math.inf, -math.inf])
def test_path_rejects_a_non_finite_initial_spread(zeta0):
    # a NaN zeta0 passed the sign check and replayed to a NaN wealth
    with pytest.raises(ValueError, match="zeta0 must be finite and nonnegative"):
        make_path(2, zeta0, (0.0, 1.0, 2.0), (0.1, 0.1), (1.0, 1.0))


# -- cash innovation ---------------------------------------------------------


def test_cash_innovation_hand_computed_case():
    # r = 0 and dyadic inputs: every intermediate value is an exact float
    path = make_path(2, 0.5, (0.0, 10.0, 9.0), (0.0, 0.0), (2.0, 4.0))
    h = (1.5, -0.5)
    # zeta1 = 0.5 + 1.5/2 = 1.25; kappa1 = -10*1.5 - 1.25*1.5
    assert cash_innovation(path, h[:1]) == -15.0 - 1.875
    # zeta2 = 1.25 + 0.5/4 = 1.375; kappa2 = 9*0.5 - 1.375*0.5
    assert cash_innovation(path, h) == 4.5 - 0.6875
    assert terminal_wealth_explicit(path, h) == -16.875 + 3.8125


def test_cash_innovation_rejects_bad_history_length():
    path = make_path(2, 0.0, (0.0, 1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        cash_innovation(path, ())
    with pytest.raises(ValueError):
        cash_innovation(path, (1.0, 1.0, 1.0))


# -- wealth identities -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(paths_and_trades())
def test_explicit_equals_recursive_wealth(pt):
    path, h = pt
    explicit = terminal_wealth_explicit(path, h)
    recursive = terminal_wealth_recursive(path, h)
    assert explicit == pytest.approx(recursive.xi, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(paths_and_trades())
def test_recursive_spread_trace_matches_spread_step_fold(pt):
    path, h = pt
    rec = terminal_wealth_recursive(path, h)
    zeta = path.zeta0
    xi = 0.0
    for t in range(1, path.T + 1):
        # the two formulas of the model, written out by hand
        zeta = math.exp(-float(path.r[t - 1])) * zeta + abs(h[t - 1]) / float(path.delta[t - 1])
        xi = xi - float(path.P[t]) * h[t - 1] - zeta * abs(h[t - 1])
        assert rec.spreads[t - 1] == zeta
        assert zeta >= 0.0
    assert rec.xi == xi


def test_wealth_requires_full_trade_vector():
    path = make_path(2, 0.0, (0.0, 1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        terminal_wealth_explicit(path, (1.0,))
    with pytest.raises(ValueError):
        terminal_wealth_recursive(path, (1.0, 1.0, 1.0))


def test_round_trip_is_never_profitable_without_prices():
    # any schedule on a price-free path can only pay friction
    rng = np.random.default_rng(5)
    for _ in range(50):
        T = int(rng.integers(2, 7))
        path = make_path(T, float(rng.uniform(0, 1)), np.zeros(T + 1), rng.uniform(0, 1, T), rng.uniform(0.2, 5, T))
        h = rng.normal(0, 2, T)
        assert terminal_wealth_explicit(path, h) <= 0.0


# -- innovation envelope -----------------------------------------------------


def test_innovation_envelope_worked_value():
    env = innovation_envelope(3.0, 2.0, -1.0)
    assert env.value == 3.0 - 0.5
    assert env.cap == 9.0 * 2.0 / 4.0


def test_innovation_envelope_rejects_bad_depth():
    with pytest.raises(ValueError):
        innovation_envelope(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        innovation_envelope(1.0, -2.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(paths_and_trades())
def test_innovation_bounded_by_envelope_then_cap(pt):
    path, h = pt
    for t in range(1, path.T + 1):
        kappa = cash_innovation(path, h[:t])
        env = innovation_envelope(float(path.P[t]), float(path.delta[t - 1]), h[t - 1])
        scale = 1.0 + abs(env.value) + abs(env.cap)
        assert kappa <= env.value + 1e-12 * scale
        assert env.value <= env.cap + 1e-12 * scale


# -- liquidation -------------------------------------------------------------


def test_closing_trade_is_exact():
    got = closing_trade((1.0, -1.0))
    assert got == 0.0 and math.copysign(1.0, got) > 0.0
    assert closing_trade((0.5, 0.25)) == -0.75
    assert closing_trade(()) == 0.0
    # exact negation of the left-fold sum, dust and all
    dusty = (0.1, 0.2, -0.3)
    fold = (0.1 + 0.2) + -0.3
    assert closing_trade(dusty) == -fold


def test_trade_sequence_liquidation_flag():
    line = generate(GeneratorSpec(kind="deterministic", T=3, prices=(0.0, 0.0, 0.0, 0.0)))

    def closes(*h):
        return PredictableAssignment(dict(enumerate(h))).is_liquidating(line)

    assert closes(1.0, -0.25, -0.75)
    assert closes(0.1, 0.2, closing_trade((0.1, 0.2)))
    assert not closes(1.0, -0.25, -0.75 + 1e-9)
    assert LIQUIDATION_TOL == 1e-12
    # every path must close, not just the first
    fork = generate(GeneratorSpec(kind="binomial", T=2))
    assert PredictableAssignment({0: 1.0, 1: -1.0, 2: -1.0}).is_liquidating(fork)
    assert not PredictableAssignment({0: 1.0, 1: -1.0, 2: -1.0 + 1e-9}).is_liquidating(fork)


def test_closed_schedule_keeps_wealth_finite_and_exact():
    path = make_path(3, 0.25, (0.0, 1.0, -2.0, 0.5), (0.0, 0.0, 0.0), (1.0, 2.0, 4.0))
    free = (0.5, -0.25)
    h = (*free, closing_trade(free))
    assert sum(h) == 0.0
    explicit = terminal_wealth_explicit(path, h)
    recursive = terminal_wealth_recursive(path, h).xi
    assert explicit == pytest.approx(recursive, rel=1e-12)
