"""Maps between the convective, temperature and flux boundary families.

The three boundary variants are equivalent in the sense that, given a
solved problem of one family, there is a boundary datum for another family
whose solution has the same front coefficient and the same temperature
field.  Every family is one face relation p A + q J = g between the face
temperature A = coeff_even and the face conduction
J = k coeff_odd / (2 sqrt(d)) (see ``stefan``), so the datum of the target
family is read off the solved source's (A, J): the temperature datum is A,
the flux datum is -J, and the convective datum is h0 = J / (A - t_inf),
the transfer coefficient that makes J = h0 (A - t_inf) hold.

Each map solves its source internally, so a caller cannot pass a stale or
wrong front coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .stefan import (
    Convective,
    Flux,
    ProblemSpec,
    Temperature,
    _require_family,
    solve_front,
)

__all__ = [
    "EquivalenceReport",
    "convective_to_temperature",
    "temperature_to_convective",
    "convective_to_flux",
    "flux_threshold",
    "flux_to_convective",
    "equivalence_report",
]

# The grid of equivalence_report: _NX points at each of _NT times in (lo, hi].
_NX, _NT, _T_SPAN = 20, 20, (0.1, 2.0)


@dataclass(frozen=True)
class EquivalenceReport:
    source_spec: ProblemSpec
    target_spec: ProblemSpec
    nu_source: float
    nu_target: float
    max_temperature_gap: float


def _solved_face(problem: ProblemSpec, family, op: str) -> tuple[float, float]:
    """Face temperature A and face conduction J of the solved source."""
    _require_family(problem, family, op)
    sol = solve_front(problem)
    return sol.coeff_even, problem.k * sol.coeff_odd / (2.0 * math.sqrt(problem.d))


def _convert(problem: ProblemSpec, source: type, target: type,
             t_inf: float | None = None) -> ProblemSpec:
    """The ``target``-family problem with the same solution as ``problem``,
    a ``source``-family one: one of the two families is convective, and a
    convective target has the bulk coefficient t_inf."""
    op = f"{source.__name__.lower()}_to_{target.__name__.lower()}"
    a, j = _solved_face(problem, source, op)
    if target is Temperature:
        data = {"t0": a}
    elif target is Flux:
        data = {"c": -j}
    elif math.isfinite(t_inf) and t_inf > a:
        data = {"h0": j / (a - t_inf), "t_inf": t_inf}
    else:
        raise ValueError(f"bulk coefficient t_inf={t_inf} must exceed the solved face "
                         f"temperature coefficient (threshold {a})")
    try:
        boundary = target(**data)
    except ValueError as exc:  # a datum computed from (A, J), not given
        raise OverflowError(f"{op} computes a datum outside double range: {exc}") from exc
    return replace(problem, boundary=boundary)


def convective_to_temperature(problem: ProblemSpec) -> ProblemSpec:
    """Temperature-family problem with the same solution as the convective one.

    The datum is the solved face temperature coefficient u(0,t)/t^{alpha/2};
    it is always strictly below the bulk coefficient t_inf.
    """
    return _convert(problem, Convective, Temperature)


def convective_to_flux(problem: ProblemSpec) -> ProblemSpec:
    """Flux-family problem with the same solution as the convective one.

    The datum is the solved inward face flux coefficient
    -k u_x(0,t)/t^{(alpha-1)/2}, which is positive for melting data.
    """
    return _convert(problem, Convective, Flux)


def flux_threshold(problem: ProblemSpec) -> float:
    """Smallest bulk coefficient compatible with a convective match of the
    given flux problem (the face temperature coefficient of its solution)."""
    return _solved_face(problem, Flux, "flux_threshold")[0]


def temperature_to_convective(problem: ProblemSpec, t_inf: float) -> ProblemSpec:
    """Convective-family problem with the same solution as the temperature one.

    Needs a bulk coefficient t_inf strictly above the face datum t0; at
    t_inf = t0 the required transfer coefficient diverges.
    """
    return _convert(problem, Temperature, Convective, t_inf)


def flux_to_convective(problem: ProblemSpec, t_inf: float) -> ProblemSpec:
    """Convective-family problem with the same solution as the flux one.

    Needs t_inf strictly above the solved face temperature coefficient
    (see ``flux_threshold``); at the threshold the transfer coefficient
    diverges.
    """
    return _convert(problem, Flux, Convective, t_inf)


def equivalence_report(source: ProblemSpec, target: ProblemSpec) -> EquivalenceReport:
    """Solve both problems and measure the largest temperature mismatch on
    a 20-by-20 grid spanning the melted region of the source over the
    times (0.1, 2]: at t_i = 0.1 + 1.9 i / 20 (i = 1..20) the points
    x_j = s(t_i) (j + 1/2) / 20 (j = 0..19) of the source front s."""
    import numpy as np
    t_lo, t_hi = _T_SPAN
    sol_s = solve_front(source)
    sol_t = solve_front(target)
    t = t_lo + (t_hi - t_lo) * (np.arange(_NT) + 1.0) / _NT
    x = sol_s.front_position(t)[:, None] * (np.arange(_NX) + 0.5) / _NX
    t = t[:, None]
    gap = np.abs(sol_s.temperature(x, t) - sol_t.temperature(x, t)).max()
    return EquivalenceReport(
        source_spec=source,
        target_spec=target,
        nu_source=sol_s.nu,
        nu_target=sol_t.nu,
        max_temperature_gap=float(gap),
    )
