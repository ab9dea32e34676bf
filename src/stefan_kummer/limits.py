"""Large-transfer-coefficient behaviour of the convective problem.

As the transfer coefficient h0 grows, the convective problem approaches
the temperature-family problem whose face datum equals the bulk
coefficient t_inf: the front coefficient increases monotonically toward
the limit value and the temperature field converges pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .stefan import (
    Convective,
    ProblemSpec,
    Temperature,
    _require_family,
    solve_front,
)

__all__ = ["LimitStudy", "limit_problem", "run_limit_study", "field_convergence_gap"]


@dataclass(frozen=True)
class LimitStudy:
    base: ProblemSpec
    h0_grid: tuple[float, ...]
    nu_values: tuple[float, ...]
    nu_infinity: float


def limit_problem(base: ProblemSpec) -> ProblemSpec:
    """Temperature-family problem reached in the h0 -> infinity limit:
    the face datum is the bulk coefficient of the base problem."""
    boundary = _require_family(base, Convective, "limit_problem")
    return replace(base, boundary=Temperature(t0=boundary.t_inf))


def run_limit_study(base: ProblemSpec, h0_grid: Sequence[float]) -> LimitStudy:
    """Front coefficients along an ascending h0 grid plus the limit value.
    An empty grid, or an h0 that ``Convective`` rejects, raises ValueError."""
    boundary = _require_family(base, Convective, "run_limit_study")
    grid = tuple(float(h) for h in h0_grid)
    if not grid:
        raise ValueError("h0_grid must be nonempty")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("h0_grid must be strictly ascending")
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
    temperature over the sample grid xs x ts.  An empty grid, or an h0
    that ``Convective`` rejects, raises ValueError."""
    import numpy as np
    boundary = _require_family(base, Convective, "field_convergence_gap")
    x = np.asarray(xs, dtype=float)
    t = np.asarray(ts, dtype=float)[:, None]
    if not (x.size and t.size):
        raise ValueError(f"the sample grid is empty: {x.size} x values, {t.size} times")
    sol_h = solve_front(replace(base, boundary=replace(boundary, h0=h0)))
    sol_inf = solve_front(limit_problem(base))
    gap = np.abs(sol_h.temperature(x, t) - sol_inf.temperature(x, t)).max()
    return float(gap)
