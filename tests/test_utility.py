"""Utility families, the spec-string parser, and assumption probing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impactdp.utility import (
    UtilitySpec,
    capped_linear,
    check_assumptions,
    evaluate_utility,
    exponential,
    parse_utility,
    piecewise_linear,
)


# -- family formulas ---------------------------------------------------------


def test_exponential_values_and_bound():
    u = exponential(2.0)
    assert u(0.0) == -1.0
    assert u(1.0) == -math.exp(-2.0)
    assert u.c_u == 0.0
    # very negative wealth underflows to -inf rather than raising
    assert u(-1e6) == -math.inf


def test_exponential_requires_positive_alpha():
    with pytest.raises(ValueError):
        exponential(0.0)
    with pytest.raises(ValueError):
        exponential(-1.0)


def test_capped_linear_values():
    u = capped_linear(5.0)
    assert u(3.0) == 3.0
    assert u(5.0) == 5.0
    assert u(8.0) == 5.0
    assert u(-100.0) == -100.0
    assert u.c_u == 5.0


def test_piecewise_linear_values():
    u = piecewise_linear([(-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)])
    # unit slope below the first knot
    assert u(-3.0) == -2.0 + (-3.0 - -1.0)
    # linear between knots
    assert u(-0.5) == -1.0
    assert u(1.0) == 0.5
    # flat above the last knot
    assert u(5.0) == 1.0
    assert u.c_u == 1.0


@pytest.mark.parametrize(
    "u, kink",
    [
        (capped_linear(-0.5), -0.5),
        (piecewise_linear([(-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)]), -1.0),
        (piecewise_linear([(0.5, 3.0)]), 0.5),
        (exponential(1.0), None),
    ],
)
def test_kink_ends_the_slope_one_region(u, kink):
    assert u.kink == kink
    if kink is not None:
        # at and below the kink, u(w) = w + u(kink) - kink
        for w in (kink, kink - 1.0, kink - 1e3):
            assert u(w) == pytest.approx(w + u(kink) - kink, abs=1e-12)
        assert u(kink + 0.25) != kink + 0.25 + u(kink) - kink


def test_piecewise_linear_requires_increasing_knots():
    with pytest.raises(ValueError):
        piecewise_linear([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        piecewise_linear([])


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown utility family"):
        UtilitySpec(family="log")


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_array_evaluation_matches_scalar():
    xs = np.array([-5.0, -1.0, 0.0, 1.0, 4.0, -800.0])
    for u in (piecewise_linear([(-1.0, -2.0), (1.0, 2.0)]), exponential(1.5), capped_linear(0.5)):
        out = u(xs)
        assert out.shape == xs.shape
        assert list(out) == [u(float(x)) for x in xs]
        assert [u(np.float64(x)) for x in xs] == [u(np.asarray(x)) for x in xs] == list(out)
        assert u(np.zeros((2, 3))).shape == (2, 3)
    # the pwl float path repeats the array formula bit for bit: knots,
    # midpoints, both tails, the infinities and NaN, also with one knot
    knots = [(-2.0, -3.0), (-0.3, -0.1), (0.7, 0.45), (1.9, 1.3)]
    kx = [x for x, _ in knots]
    probes = kx + [(a + b) / 2 for a, b in zip(kx, kx[1:])] + [0.1, 1.0 / 3.0, -1e9, -2.0 - 1e-12, 1.9 + 1e-12, 7.5]
    probes += [math.inf, -math.inf, math.nan]
    for u in (piecewise_linear(knots), piecewise_linear([(0.5, 0.25)])):
        w = np.array(probes)
        out = evaluate_utility(*u.kernel_encoding(), w)
        assert bits([evaluate_utility(*u.kernel_encoding(), x) for x in probes]) == bits(out)
        assert bits([evaluate_utility(*u.kernel_encoding(), np.float64(x)) for x in probes]) == bits(out)
        assert bits([u(x) for x in probes]) == bits(u(w))


def pwl_by_masks(xs, ys, w):
    """The pwl array formula written with boolean masks and searchsorted."""
    w = np.asarray(w)
    n = xs.shape[0]
    v = np.empty_like(w)
    below = w <= xs[0]
    above = w >= xs[n - 1]
    mid = ~(below | above)
    v[below] = ys[0] + (w[below] - xs[0])
    v[above] = ys[n - 1]
    if np.any(mid):
        lo = np.clip(np.searchsorted(xs, w[mid], side="right") - 1, 0, n - 2)
        f = (w[mid] - xs[lo]) / (xs[lo + 1] - xs[lo])
        v[mid] = ys[lo] * (1.0 - f) + ys[lo + 1] * f
    return v


def test_pwl_segment_passes_match_the_mask_formula_bitwise():
    rng = np.random.default_rng(5)
    for knots in (
        [(0.5, -0.0)],
        [(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5)],
        [(-2.0, -3.0), (-0.3, -0.1), (0.7, 0.45), (1.9, 1.3)],
    ):
        code, a, xs, ys = piecewise_linear(knots).kernel_encoding()
        probes = np.concatenate([
            xs, (xs[1:] + xs[:-1]) / 2, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
            [-1e308, 1e308, -np.inf, np.inf, np.nan, -0.0, 0.0],
            rng.uniform(xs[0] - 2.0, xs[-1] + 2.0, size=200),
        ])
        for w in (probes, probes.reshape(-1, 1) + np.zeros(3)):
            got = evaluate_utility(code, a, xs, ys, w)
            assert got.tobytes() == pwl_by_masks(xs, ys, w).tobytes()
        for x in probes:
            # a 0-d array stays a 0-d array, as the masks keep it
            got = evaluate_utility(code, a, xs, ys, np.array(x))
            want = pwl_by_masks(xs, ys, np.array(x))
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got.tobytes() == want.tobytes()


# -- parser ------------------------------------------------------------------


def test_parse_round_trips_describe():
    for u in (
        exponential(1.5),
        capped_linear(100.0),
        piecewise_linear([(-2.0, -3.0), (0.5, 1.0)]),
    ):
        again = parse_utility(u.describe())
        assert again == u


def test_parse_defaults_and_shorthand():
    assert parse_utility("exp") == exponential(1.0)
    assert parse_utility("exp:alpha=2") == exponential(2.0)
    assert parse_utility("cap:cap=7.5") == capped_linear(7.5)
    assert parse_utility("pwl:knots=-1,-1;1,1") == piecewise_linear([(-1.0, -1.0), (1.0, 1.0)])


def test_parse_rejects_malformed_specs():
    with pytest.raises(ValueError, match="unknown utility family"):
        parse_utility("quadratic")
    with pytest.raises(ValueError, match="cap utility needs"):
        parse_utility("cap")
    with pytest.raises(ValueError, match="malformed utility parameter"):
        parse_utility("exp:alpha")
    with pytest.raises(ValueError, match="unknown utility parameters"):
        parse_utility("exp:alpha=1&beta=2")
    with pytest.raises(ValueError, match="malformed knot"):
        parse_utility("pwl:knots=1")
    with pytest.raises(ValueError, match="pwl utility needs"):
        parse_utility("pwl")


# -- assumption probe --------------------------------------------------------


def test_check_assumptions_pass_for_all_families():
    for u in (exponential(0.5), capped_linear(10.0), piecewise_linear([(-1.0, -1.0), (3.0, 2.0)])):
        rep = check_assumptions(u)
        assert rep.ok
        assert rep.c_u == u.c_u
        assert rep.monotonicity_violations == ()
        assert rep.bound_violations == ()
        assert rep.lower_limit_ok


def test_check_assumptions_flags_decreasing_segment():
    # knot x-coordinates must increase but the values may dip, producing a
    # genuinely non-monotone utility the probe must flag
    dipping = piecewise_linear([(0.0, 0.0), (1.0, -1.0), (2.0, 0.5)])
    rep = check_assumptions(dipping)
    assert not rep.ok
    assert rep.monotonicity_violations
    assert rep.lower_limit_ok  # unit slope below the first knot still diverges


def test_check_assumptions_rejects_short_probe_grid():
    with pytest.raises(ValueError, match="probe grid"):
        check_assumptions(exponential(1.0), probe_grid=[-10.0, 10.0])


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 5.0), st.lists(st.floats(-30, 30), min_size=1, max_size=6))
def test_exponential_monotone_on_random_points(alpha, xs):
    u = exponential(alpha)
    s = sorted(xs)
    vals = [u(x) for x in s]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v <= 0.0 for v in vals)


def test_kernel_encoding_round_trip():
    code, a, xs, ys = exponential(2.0).kernel_encoding()
    assert (code, a) == (0, 2.0)
    code, a, xs, ys = capped_linear(5.0).kernel_encoding()
    assert (code, a) == (1, 5.0)
    code, a, xs, ys = piecewise_linear([(-1.0, -1.0), (2.0, 3.0)]).kernel_encoding()
    assert code == 2
    assert list(xs) == [-1.0, 2.0] and list(ys) == [-1.0, 3.0]
