"""Utility functions for the terminal-wealth objective.

Every family is nondecreasing, bounded above by a finite constant ``c_u`` and
unbounded below, which is what the backward induction needs to keep one-step
maximizations well posed (very large trades are always eventually punished).
The piecewise-linear family deliberately admits non-concave members; concavity
is never assumed anywhere in the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "UtilitySpec",
    "evaluate_utility",
    "exponential",
    "capped_linear",
    "piecewise_linear",
    "parse_utility",
    "check_assumptions",
    "AssumptionReport",
]

_FAMILIES = ("exp", "cap", "pwl")


def evaluate_utility(code: int, a: float, xs: np.ndarray, ys: np.ndarray, w):
    """Utility of wealth ``w`` (a float or an array) for an encoded family.

    ``(code, a, xs, ys)`` is the tuple ``UtilitySpec.kernel_encoding`` returns.
    The value is exact, and the exponential family may reach -inf, which the
    oracles need to rank arbitrarily bad strategies.  Any floor is the
    kernels' decision (``_kernels._leaf_sum``).
    """
    if code == 0:
        with np.errstate(over="ignore"):
            v = -np.exp(-a * w)
    elif code == 1:
        v = np.minimum(w, a)
    elif isinstance(w, float):
        v = _pwl_scalar(xs.tolist(), ys.tolist(), w)
    else:
        # the slope-one tail everywhere, then each knot segment and the flat
        # tail written over it where w falls; out= keeps a 0-d input an array.
        # A segment blends only its own entries: in a sweep nearly all wealth
        # lies below the first knot, so most segments are empty
        w = np.asarray(w)
        n = xs.shape[0]
        with np.errstate(over="ignore"):
            v = np.add(ys[0], w - xs[0], out=np.empty(w.shape))
        for s in range(n - 1):
            inside = (w > xs[0] if s == 0 else w >= xs[s]) & (w < xs[s + 1])
            if inside.any():
                f = (w[inside] - xs[s]) / (xs[s + 1] - xs[s])
                v[inside] = ys[s] * (1.0 - f) + ys[s + 1] * f
        np.copyto(v, ys[n - 1], where=w >= xs[n - 1])
    return v


def _pwl_scalar(xs: list, ys: list, w: float) -> float:
    # the array formula of evaluate_utility on one float, operation for operation
    n = len(xs)
    if w <= xs[0]:
        return ys[0] + (w - xs[0])
    if w >= xs[n - 1]:
        return ys[n - 1]
    if w != w:
        # NaN, which the array formula carries through unchanged
        return w
    lo = min(max(bisect_right(xs, w) - 1, 0), n - 2)
    f = (w - xs[lo]) / (xs[lo + 1] - xs[lo])
    return ys[lo] * (1.0 - f) + ys[lo + 1] * f


@dataclass(frozen=True)
class UtilitySpec:
    """One utility function, described by family name plus parameters.

    families:
      exp  u(x) = -exp(-alpha * x), alpha > 0; c_u = 0
      cap  u(x) = min(x, cap); c_u = cap
      pwl  slope one below the first knot, flat above the last, linear
           interpolation between knots; c_u = max knot value
    """

    family: str
    alpha: float = 1.0
    cap: float = 0.0
    knots: tuple[tuple[float, float], ...] = ()
    _encoding: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown utility family {self.family!r}")
        # the standing assumption needs a finite bound c_u, so every
        # parameter must be finite
        if self.family == "exp" and not 0.0 < self.alpha < math.inf:
            raise ValueError("exponential utility needs a finite alpha > 0")
        if self.family == "cap" and not math.isfinite(self.cap):
            raise ValueError("capped linear utility needs a finite cap")
        if self.family == "pwl":
            if len(self.knots) < 1:
                raise ValueError("piecewise linear utility needs at least one knot")
            if not all(math.isfinite(c) for knot in self.knots for c in knot):
                raise ValueError("knot coordinates must be finite")
            xs = [k[0] for k in self.knots]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("knot x-coordinates must be strictly increasing")
        object.__setattr__(self, "_encoding", self._encode())

    @property
    def c_u(self) -> float:
        """Finite upper bound of the utility."""
        if self.family == "exp":
            return 0.0
        if self.family == "cap":
            return float(self.cap)
        return max(k[1] for k in self.knots)

    @property
    def kink(self) -> float | None:
        """Wealth at and below which the utility is w plus a constant: ``cap``
        for cap and the first knot's x for pwl.  None for exp, which has no
        slope-one region."""
        if self.family == "exp":
            return None
        if self.family == "cap":
            return float(self.cap)
        return self.knots[0][0]

    def __call__(self, x):
        """Evaluate the utility; accepts scalars or numpy arrays.

        The exponential family is allowed to underflow wealth to -inf rather
        than raising, so exhaustive oracles can rank arbitrarily bad
        strategies.
        """
        w = x if isinstance(x, float) else np.asarray(x, dtype=np.float64)
        out = evaluate_utility(*self._encoding, w)
        return float(out) if np.ndim(out) == 0 else out

    def _encode(self) -> tuple[int, float, np.ndarray, np.ndarray]:
        if self.family == "exp":
            code, a, xs, ys = 0, float(self.alpha), np.zeros(1), np.zeros(1)
        elif self.family == "cap":
            code, a, xs, ys = 1, float(self.cap), np.zeros(1), np.zeros(1)
        else:
            xs = np.array([k[0] for k in self.knots], dtype=np.float64)
            ys = np.array([k[1] for k in self.knots], dtype=np.float64)
            code, a = 2, 0.0
        # shared by every call, so nobody may write to them
        xs.setflags(write=False)
        ys.setflags(write=False)
        return code, a, xs, ys

    def kernel_encoding(self) -> tuple[int, float, np.ndarray, np.ndarray]:
        """(code, scalar parameter, knot xs, knot ys) for ``evaluate_utility``."""
        return self._encoding

    def describe(self) -> str:
        """Canonical spec string, parseable by ``parse_utility``."""
        if self.family == "exp":
            return f"exp:alpha={self.alpha!r}"
        if self.family == "cap":
            return f"cap:cap={self.cap!r}"
        knots = ";".join(f"{x!r},{y!r}" for x, y in self.knots)
        return f"pwl:knots={knots}"


def exponential(alpha: float = 1.0) -> UtilitySpec:
    return UtilitySpec(family="exp", alpha=alpha)


def capped_linear(cap: float) -> UtilitySpec:
    return UtilitySpec(family="cap", cap=cap)


def piecewise_linear(knots: Iterable[tuple[float, float]]) -> UtilitySpec:
    return UtilitySpec(family="pwl", knots=tuple((float(x), float(y)) for x, y in knots))


def parse_utility(text: str) -> UtilitySpec:
    """Parse a command-line utility spec.

    Formats: ``exp``/``exp:alpha=1.0``, ``cap:cap=5.0`` and
    ``pwl:knots=x0,y0;x1,y1;...``.
    """
    family, _, rest = text.strip().partition(":")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split("&"):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"malformed utility parameter {item!r}")
            params[key.strip()] = value.strip()
    if family == "exp":
        alpha = float(params.pop("alpha", "1.0"))
        _reject_extras(params)
        return exponential(alpha)
    if family == "cap":
        if "cap" not in params:
            raise ValueError("cap utility needs cap=<value>")
        cap = float(params.pop("cap"))
        _reject_extras(params)
        return capped_linear(cap)
    if family == "pwl":
        if "knots" not in params:
            raise ValueError("pwl utility needs knots=x0,y0;x1,y1;...")
        pairs = []
        for chunk in params.pop("knots").split(";"):
            xy = chunk.split(",")
            if len(xy) != 2:
                raise ValueError(f"malformed knot {chunk!r}")
            pairs.append((float(xy[0]), float(xy[1])))
        _reject_extras(params)
        return piecewise_linear(pairs)
    raise ValueError(f"unknown utility family {family!r}")


def _reject_extras(params: dict) -> None:
    if params:
        raise ValueError(f"unknown utility parameters {sorted(params)}")


@dataclass(frozen=True)
class AssumptionReport:
    """Result of probing a utility against the standing assumptions."""

    ok: bool
    c_u: float
    monotonicity_violations: tuple[tuple[float, float], ...]
    bound_violations: tuple[float, ...]
    lower_limit_ok: bool


def check_assumptions(u: UtilitySpec, probe_grid: Sequence[float] | None = None) -> AssumptionReport:
    """Probe nondecreasingness, the upper bound c_u and divergence to -inf.

    The probe grid must span at least [-1e6, 1e6] so the -inf limit check is
    meaningful; by default a mixed coarse/fine grid around zero is used.
    """
    if probe_grid is None:
        grid = np.unique(
            np.concatenate(
                [
                    np.linspace(-1e6, 1e6, 2001),
                    np.linspace(-50.0, 50.0, 4001),
                ]
            )
        )
    else:
        grid = np.unique(np.asarray(probe_grid, dtype=np.float64))
        if grid.shape[0] < 2 or grid[0] > -1e6 or grid[-1] < 1e6:
            raise ValueError("probe grid must span at least [-1e6, 1e6]")
    values = u(grid)
    mono = []
    drops = np.nonzero(values[1:] < values[:-1])[0]
    for i in drops[:16]:
        mono.append((float(grid[i]), float(grid[i + 1])))
    over = values > u.c_u + 1e-9
    bound = tuple(float(g) for g in grid[over][:16])
    # -1e3 at the left end is a pragmatic stand-in for divergence to -inf
    limit_ok = bool(values[0] <= -1e3)
    ok = not mono and not bound and limit_ok
    return AssumptionReport(
        ok=ok,
        c_u=u.c_u,
        monotonicity_violations=tuple(mono),
        bound_violations=bound,
        lower_limit_ok=limit_ok,
    )
