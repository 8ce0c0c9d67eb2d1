"""Market dynamics for execution under transient price impact.

A block trade walks the quoted price up the book and the book only refills at a
finite resilience rate, so every trade leaves a temporary spread behind it.  The
state carried between trading dates is (cash xi, half-spread zeta, position x):

    zeta_{t+1} = exp(-r_t) * zeta_t + |dx| / delta_{t+1}
    xi_{t+1}   = xi_t - P_{t+1} * dx - zeta_{t+1} * |dx|

with midprice P, resilience r >= 0 and book depth delta > 0.  ``transition``
is the one implementation of this step; the solver's grid sweeps and its walks
over exact states all call it.  Unwinding the
spread recursion gives a closed form for the cash generated by the trade at
date t (``cash_innovation``), and terminal wealth is the sum of those
innovations.  Both routes are implemented and must agree to float precision;
the explicit route is the reference used by the exhaustive oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MarketPath",
    "transition",
    "cash_innovation",
    "innovation_envelope",
    "closing_trade",
    "terminal_wealth_explicit",
    "terminal_wealth_recursive",
    "LIQUIDATION_TOL",
]

# strategies must return the position to zero within this absolute tolerance
LIQUIDATION_TOL = 1e-12


def _as_float_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class MarketPath:
    """One deterministic scenario of the market over T trading dates.

    Fields follow the trading calendar: ``P`` holds midprices at dates 0..T,
    ``r`` holds resilience rates applied over the steps 0..T-1, and ``delta``
    holds the book depth met by the trades at dates 1..T (``delta[0]`` is the
    depth at date 1; there is no depth at date 0 because nothing trades there).
    ``P[0]`` is carried for path fidelity only; no wealth formula reads it.
    Every entry must be finite, ``r`` nonnegative and ``delta`` positive; each
    depth is checked on its own, with no floor below them.
    """

    T: int
    zeta0: float
    P: np.ndarray
    r: np.ndarray
    delta: np.ndarray
    _rsums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.T < 2:
            raise ValueError("horizon T must be at least 2")
        P = _as_float_array(self.P, "P")
        r = _as_float_array(self.r, "r")
        delta = _as_float_array(self.delta, "delta")
        if P.shape[0] != self.T + 1:
            raise ValueError(f"P must have T+1={self.T + 1} entries, got {P.shape[0]}")
        if r.shape[0] != self.T:
            raise ValueError(f"r must have T={self.T} entries, got {r.shape[0]}")
        if delta.shape[0] != self.T:
            raise ValueError(f"delta must have T={self.T} entries, got {delta.shape[0]}")
        if np.any(r < 0.0):
            raise ValueError("resilience r must be nonnegative")
        if np.any(delta <= 0.0):
            raise ValueError("depth delta must be positive")
        if not (math.isfinite(self.zeta0) and self.zeta0 >= 0.0):
            raise ValueError(f"initial half-spread zeta0 must be finite and nonnegative, got {self.zeta0!r}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "delta", delta)
        # prefix sums of r: rsums[k] = r_0 + ... + r_{k-1}, built by left fold
        # so tree walks can reproduce the identical floats incrementally
        rsums = np.empty(self.T + 1, dtype=np.float64)
        acc = 0.0
        rsums[0] = acc
        for k in range(self.T):
            acc = acc + float(r[k])
            rsums[k + 1] = acc
        object.__setattr__(self, "_rsums", rsums)

    def decay(self, j: int, t: int) -> float:
        """Spread decay factor accumulated over the steps j..t-1 (1.0 at j == t)."""
        if not 0 <= j <= t <= self.T:
            raise ValueError(f"need 0 <= j <= t <= T, got j={j}, t={t}")
        return math.exp(-(float(self._rsums[t]) - float(self._rsums[j])))


class InnovationEnvelope(NamedTuple):
    value: float
    cap: float


class RecursiveWealth(NamedTuple):
    xi: float
    spreads: np.ndarray


def transition(xi, zeta, dx, adx, decay, price, depth):
    """One resilience step of the book: (xi', zeta') after trading dx.

    zeta' = decay * zeta + |dx| / depth and xi' = xi - price * dx - zeta' * |dx|,
    with ``adx`` the precomputed |dx|.  Takes Python floats or broadcastable
    arrays and performs the same operations in the same order on both, so the
    grid sweeps and the scalar walks over exact states produce the same bits.
    """
    zeta_next = decay * zeta + adx / depth
    return xi - price * dx - zeta_next * adx, zeta_next


def _kappa_core(
    zeta0: float,
    rsums: Sequence[float],
    deltas: Sequence[float],
    price: float,
    h: Sequence,
):
    """Cash innovation of the last trade in ``h`` given per-path prefix data.

    ``rsums`` are left-fold prefix sums of the resilience rates (rsums[0]=0,
    length >= len(h)+1), ``deltas[j-1]`` is the depth met by trade j, ``price``
    is the midprice at the date of the last trade.  The trades may be floats or
    broadcastable arrays, and both take the same operations in the same order,
    so the evaluation walk, which gives each ancestor's trades an axis of their
    own, reproduces entry by entry the exact floats of the path-based API.
    """
    t = len(h)
    s = float(rsums[t])
    acc = math.exp(-(s - float(rsums[0]))) * zeta0
    for j in range(1, t + 1):
        # not +=: a later trade may carry an axis the sum so far lacks
        acc = acc + math.exp(-(s - float(rsums[j]))) / float(deltas[j - 1]) * abs(h[j - 1])
    last = h[t - 1]
    return -price * last - abs(last) * acc


def cash_innovation(path: MarketPath, h: Sequence[float]) -> float:
    """Cash generated by the trade at date t = len(h), history h = (h_1..h_t).

    Equals minus the trade's notional at midprice minus the spread cost the
    trade pays, where the spread charged is the decayed initial spread plus the
    decayed footprint of every trade up to and including this one.
    """
    t = len(h)
    if not 1 <= t <= path.T:
        raise ValueError(f"history length must be in 1..{path.T}, got {t}")
    return float(_kappa_core(path.zeta0, path._rsums, path.delta, float(path.P[t]), [float(v) for v in h]))


def innovation_envelope(p_t: float, delta_t: float, h_t: float) -> InnovationEnvelope:
    """History-free concave upper envelope of the cash innovation.

    Dropping every nonnegative spread term except the trade's own footprint
    bounds the innovation by -p*h - h^2/delta, which in turn is capped at
    p^2*delta/4.  Returns (value, cap).
    """
    if delta_t <= 0.0:
        raise ValueError("depth delta must be positive")
    value = -p_t * h_t - h_t * h_t / delta_t
    cap = p_t * p_t * delta_t / 4.0
    return InnovationEnvelope(value, cap)


def closing_trade(h: Sequence):
    """Final trade that returns the position to exactly zero after trades h.

    The trades may be floats or broadcastable arrays.  Adding 0.0 to the
    negated sum turns a -0.0 into 0.0, so closing a flat position trades 0.0.
    """
    total = 0.0
    for v in h:
        total = total + v
    return -total + 0.0


def terminal_wealth_explicit(path: MarketPath, trades: Sequence[float]) -> float:
    """Terminal cash as the date-ascending sum of cash innovations."""
    h = _as_float_array(trades, "h")
    if h.shape[0] != path.T:
        raise ValueError(f"need T={path.T} trades, got {h.shape[0]}")
    acc = 0.0
    for t in range(1, path.T + 1):
        acc += cash_innovation(path, h[:t])
    return acc


def terminal_wealth_recursive(path: MarketPath, trades: Sequence[float]) -> RecursiveWealth:
    """Terminal cash via the state recursion; also returns the spread trace.

    Starts from (xi, zeta) = (0, zeta0) and applies ``transition`` date by
    date.  Agrees with ``terminal_wealth_explicit`` to float rounding; the pair
    is the package's first line of defense against index slips in either form.
    """
    h = _as_float_array(trades, "h")
    if h.shape[0] != path.T:
        raise ValueError(f"need T={path.T} trades, got {h.shape[0]}")
    xi = 0.0
    zeta = path.zeta0
    spreads = np.empty(path.T, dtype=np.float64)
    for t in range(path.T):
        dx = float(h[t])
        decay = math.exp(-float(path.r[t]))
        xi, zeta = transition(xi, zeta, dx, abs(dx), decay, float(path.P[t + 1]), float(path.delta[t]))
        spreads[t] = zeta
    return RecursiveWealth(xi, spreads)
