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

import numpy as np

from .stefan import (
    Convective,
    Flux,
    ProblemSpec,
    Temperature,
    solve_front,
)

__all__ = [
    "EquivalenceReport",
    "convective_to_temperature",
    "temperature_to_convective",
    "convective_to_flux",
    "flux_to_convective",
    "equivalence_report",
]


@dataclass(frozen=True)
class EquivalenceReport:
    source_spec: ProblemSpec
    target_spec: ProblemSpec
    nu_source: float
    nu_target: float
    max_temperature_gap: float


def _require_family(problem: ProblemSpec, family, op: str) -> None:
    if not isinstance(problem.boundary, family):
        raise ValueError(f"{op} requires a {family.__name__} source, got "
                         f"{type(problem.boundary).__name__}")


def _solved_face(problem: ProblemSpec, family, op: str) -> tuple[float, float]:
    """Face temperature A and face conduction J of the solved source."""
    _require_family(problem, family, op)
    sol = solve_front(problem)
    return sol.coeff_even, problem.k * sol.coeff_odd / (2.0 * math.sqrt(problem.d))


def convective_to_temperature(problem: ProblemSpec) -> ProblemSpec:
    """Temperature-family problem with the same solution as the convective one.

    The datum is the solved face temperature coefficient u(0,t)/t^{alpha/2};
    it is always strictly below the bulk coefficient t_inf.
    """
    a, _ = _solved_face(problem, Convective, "convective_to_temperature")
    return replace(problem, boundary=Temperature(t0=a))


def convective_to_flux(problem: ProblemSpec) -> ProblemSpec:
    """Flux-family problem with the same solution as the convective one.

    The datum is the solved inward face flux coefficient
    -k u_x(0,t)/t^{(alpha-1)/2}, which is positive for melting data.
    """
    _, j = _solved_face(problem, Convective, "convective_to_flux")
    return replace(problem, boundary=Flux(c=-j))


def flux_threshold(problem: ProblemSpec) -> float:
    """Smallest bulk coefficient compatible with a convective match of the
    given flux problem (the face temperature coefficient of its solution)."""
    return _solved_face(problem, Flux, "flux_threshold")[0]


def _to_convective(problem: ProblemSpec, t_inf: float, family, op: str) -> ProblemSpec:
    a, j = _solved_face(problem, family, op)
    if not (math.isfinite(t_inf) and t_inf > a):
        raise ValueError(
            f"bulk coefficient t_inf={t_inf} must exceed the solved face "
            f"temperature coefficient (threshold {a})"
        )
    return replace(problem, boundary=Convective(h0=j / (a - t_inf), t_inf=t_inf))


def temperature_to_convective(problem: ProblemSpec, t_inf: float) -> ProblemSpec:
    """Convective-family problem with the same solution as the temperature one.

    Needs a bulk coefficient t_inf strictly above the face datum t0; at
    t_inf = t0 the required transfer coefficient diverges.
    """
    return _to_convective(problem, t_inf, Temperature, "temperature_to_convective")


def flux_to_convective(problem: ProblemSpec, t_inf: float) -> ProblemSpec:
    """Convective-family problem with the same solution as the flux one.

    Needs t_inf strictly above the solved face temperature coefficient
    (see ``flux_threshold``); at the threshold the transfer coefficient
    diverges.
    """
    return _to_convective(problem, t_inf, Flux, "flux_to_convective")


def equivalence_report(
    source: ProblemSpec,
    target: ProblemSpec,
    nx: int = 20,
    nt: int = 20,
    t_span: tuple[float, float] = (0.1, 2.0),
) -> EquivalenceReport:
    """Solve both problems and measure the largest temperature mismatch on
    an nx-by-nt grid spanning the melted region of the source."""
    sol_s = solve_front(source)
    sol_t = solve_front(target)
    t_lo, t_hi = t_span
    t = t_lo + (t_hi - t_lo) * (np.arange(nt) + 1.0) / nt
    x = sol_s.front_position(t)[:, None] * (np.arange(nx) + 0.5) / nx
    t = t[:, None]
    gap = np.abs(sol_s.temperature(x, t) - sol_t.temperature(x, t)).max(initial=0.0)
    return EquivalenceReport(
        source_spec=source,
        target_spec=target,
        nu_source=sol_s.nu,
        nu_target=sol_t.nu,
        max_temperature_gap=float(gap),
    )
