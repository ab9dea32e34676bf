"""Large-transfer-coefficient behaviour of the convective problem.

As the transfer coefficient h0 grows, the convective problem approaches
the temperature-family problem whose face datum equals the bulk
coefficient t_inf: the front coefficient increases monotonically toward
the limit value and the temperature field converges pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .stefan import (
    Convective,
    ProblemSpec,
    Temperature,
    solve_front,
)

__all__ = ["LimitStudy", "limit_problem", "run_limit_study", "field_convergence_gap"]


@dataclass(frozen=True)
class LimitStudy:
    base: ProblemSpec
    h0_grid: tuple[float, ...]
    nu_values: tuple[float, ...]
    nu_infinity: float


def _require_convective(base: ProblemSpec) -> Convective:
    if not isinstance(base.boundary, Convective):
        raise ValueError("limit study requires a convective base problem")
    return base.boundary


def limit_problem(base: ProblemSpec) -> ProblemSpec:
    """Temperature-family problem reached in the h0 -> infinity limit:
    the face datum is the bulk coefficient of the base problem."""
    boundary = _require_convective(base)
    return replace(base, boundary=Temperature(t0=boundary.t_inf))


def run_limit_study(base: ProblemSpec, h0_grid: Sequence[float]) -> LimitStudy:
    """Front coefficients along an ascending h0 grid plus the limit value."""
    boundary = _require_convective(base)
    grid = tuple(float(h) for h in h0_grid)
    if not grid:
        raise ValueError("h0_grid must be nonempty")
    if any(h <= 0.0 for h in grid) or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("h0_grid must be positive and strictly ascending")
    nu_values = tuple(
        solve_front(replace(base, boundary=replace(boundary, h0=h))).nu for h in grid
    )
    nu_infinity = solve_front(limit_problem(base)).nu
    return LimitStudy(
        base=base, h0_grid=grid, nu_values=nu_values, nu_infinity=nu_infinity
    )


def field_convergence_gap(
    base: ProblemSpec,
    h0: float,
    xs: Sequence[float],
    ts: Sequence[float],
) -> float:
    """Largest deviation of the finite-h0 temperature from the limit
    temperature over the sample grid xs x ts."""
    boundary = _require_convective(base)
    if h0 <= 0.0:
        raise ValueError(f"h0 must be positive, got {h0}")
    sol_h = solve_front(replace(base, boundary=replace(boundary, h0=h0)))
    sol_inf = solve_front(limit_problem(base))
    x = np.asarray(xs, dtype=float)
    t = np.asarray(ts, dtype=float)[:, None]
    gap = np.abs(sol_h.temperature(x, t) - sol_inf.temperature(x, t)).max(initial=0.0)
    return float(gap)
