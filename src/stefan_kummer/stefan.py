"""One-phase melting with latent heat growing as a power of position.

The liquid occupies 0 < x < s(t) of a semi-infinite slab, the solid sits
at the phase-change temperature 0, and melting material at position x
absorbs latent heat gamma * x**alpha per unit volume.  Heat enters at the
fixed face x = 0 through one of three boundary conditions:

* ``Convective``  k u_x(0,t) = h0 t^{-1/2} (u(0,t) - t_inf t^{alpha/2})
* ``Temperature`` u(0,t) = t0 t^{alpha/2}
* ``Flux``        k u_x(0,t) = -c t^{(alpha-1)/2}

Each variant admits a similarity solution

    u(x, t) = t^{alpha/2} [ A M(-alpha/2, 1/2, -eta^2)
                            + B eta M(-alpha/2 + 1/2, 3/2, -eta^2) ],
    s(t) = 2 nu sqrt(d t),      eta = x / (2 sqrt(d t)).

Every face condition is one linear relation p A + q J = g between the
face temperature A = u(0,t) t^{-alpha/2} and the face conduction
J = k u_x(0,t) t^{(1-alpha)/2} = kappa B, kappa = k / (2 sqrt(d)).  The
triple (p, q, g) is (h0, -1, h0 t_inf) for ``Convective``, (1, 0, t0) for
``Temperature`` (the h0 -> inf limit) and (0, -1, c) for ``Flux`` (what
h0 -> 0 with h0 t_inf fixed leaves).  With g_e = M(alpha/2+1/2, 1/2, x^2),
g_o = x M(alpha/2+1, 3/2, x^2) and D = p g_o - q kappa g_e, the front
condition is A g_e + B g_o = 0 at x = nu, and nu is the unique positive
root of the one front equation

    x^{alpha+1} = C g / D(x),      C = kappa / (gamma 2^alpha d^{(alpha+1)/2}).

``solve_front`` finds nu with a bracketed, bisection-safeguarded Newton
iteration and returns the fully determined closed form.

Only the melting case is modelled (all data positive).  The freezing case
maps onto it by flipping the signs of gamma and of the boundary datum, so
it is rejected at construction rather than duplicated.

All quantities are treated as consistent, nondimensionalized reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kummer import (
    NonConvergenceError,
    e_n,
    f_n,
    float_map,
    gamma_fn,
    kummer_m,
    kummer_m_array,
)

__all__ = [
    "BracketNotFoundError",
    "Convective",
    "Temperature",
    "Flux",
    "ProblemSpec",
    "RootSolverConfig",
    "SolverReport",
    "SimilaritySolution",
    "front_equation_lhs",
    "front_equation_residual",
    "residual_derivative",
    "solve_front",
    "front_equation_integer_alpha",
    "temperature_integer_alpha",
]

# Relative residual accepted at the solved front coefficient.
_RESIDUAL_RTOL = 1e-12


class BracketNotFoundError(RuntimeError):
    """No sign change found for the front equation (invalid problem data)."""


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite real, got {value}")


@dataclass(frozen=True)
class Convective:
    """Heat exchange with a bulk at temperature t_inf * t^{alpha/2},
    transfer coefficient h0 * t^{-1/2}."""

    h0: float
    t_inf: float

    def __post_init__(self):
        _require_positive("h0", self.h0)
        _require_positive("t_inf", self.t_inf)

    def face_relation(self) -> tuple[float, float, float]:
        """(p, q, g) of the face relation p A + q J = g."""
        return self.h0, -1.0, self.h0 * self.t_inf


@dataclass(frozen=True)
class Temperature:
    """Imposed face temperature t0 * t^{alpha/2}."""

    t0: float

    def __post_init__(self):
        _require_positive("t0", self.t0)

    def face_relation(self) -> tuple[float, float, float]:
        """(p, q, g) of the face relation p A + q J = g."""
        return 1.0, 0.0, self.t0


@dataclass(frozen=True)
class Flux:
    """Imposed inward face heat flux c * t^{(alpha-1)/2}."""

    c: float

    def __post_init__(self):
        _require_positive("c", self.c)

    def face_relation(self) -> tuple[float, float, float]:
        """(p, q, g) of the face relation p A + q J = g."""
        return 0.0, -1.0, self.c


Boundary = Convective | Temperature | Flux


@dataclass(frozen=True)
class ProblemSpec:
    """Physical data for one melting problem.

    alpha is the latent-heat exponent (>= 0), gamma the latent-heat
    coefficient, d the diffusivity and k the conductivity.  Negative gamma
    or negative boundary data (the freezing case) are rejected; freezing
    is the mirror image obtained by negating gamma and the boundary datum.
    """

    alpha: float
    boundary: Boundary
    gamma: float = 1.0
    d: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be a finite real >= 0, got {self.alpha}")
        _require_positive("gamma", self.gamma)
        _require_positive("d", self.d)
        _require_positive("k", self.k)
        if not isinstance(self.boundary, (Convective, Temperature, Flux)):
            raise ValueError(f"unsupported boundary condition {self.boundary!r}")


@dataclass(frozen=True)
class RootSolverConfig:
    abs_step_tol: float = 1e-15
    max_newton_iters: int = 100
    bracket_growth: float = 2.0
    max_bracket: float = 1e3

    def __post_init__(self):
        _require_positive("abs_step_tol", self.abs_step_tol)
        if self.max_newton_iters <= 0:
            raise ValueError("max_newton_iters must be positive")
        if self.bracket_growth <= 1.0:
            raise ValueError("bracket_growth must exceed 1")
        _require_positive("max_bracket", self.max_bracket)


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    residual: float
    bracket: tuple[float, float]


def _front_lhs(
    problem: ProblemSpec, x: float, slope: bool = True
) -> tuple[float, float]:
    """Left side C g / D(x) of the front equation and, when ``slope`` is set,
    its x-derivative -lhs D'/D (else 0.0).

    D' = p M(alpha/2+1, 1/2, x^2) - q kappa 2 (alpha+1) x M(alpha/2+3/2, 3/2, x^2)
    follows from d/dz M(a,b,z) = (a/b) M(a+1,b+1,z) and
    d/dx [x M(a, 3/2, x^2)] = M(a, 1/2, x^2).  The series whose coefficient
    is 0 are not summed.  The slope is formed from the ratio D'/D because
    D**2 overflows where D alone does not.
    """
    alpha, gamma, d = problem.alpha, problem.gamma, problem.d
    p, q, g = problem.boundary.face_relation()
    kappa = problem.k / (2.0 * math.sqrt(d))
    a, z = alpha / 2.0, x * x
    denom = ddenom = 0.0
    if p:
        denom += p * x * kummer_m(a + 1.0, 1.5, z)
        if slope:
            ddenom += p * kummer_m(a + 1.0, 0.5, z)
    if q:
        denom -= q * kappa * kummer_m(a + 0.5, 0.5, z)
        if slope:
            ddenom -= q * kappa * 2.0 * (alpha + 1.0) * x * kummer_m(a + 1.5, 1.5, z)
    lhs = kappa / (gamma * 2.0**alpha * d ** ((alpha + 1.0) / 2.0)) * g / denom
    return lhs, (-lhs * (ddenom / denom) if slope else 0.0)


def front_equation_lhs(problem: ProblemSpec, x: float) -> float:
    """Left-hand side C g / D(x) of the front equation, a strictly
    decreasing function of x > 0."""
    _require_positive("x", x)
    return _front_lhs(problem, x, slope=False)[0]


def front_equation_residual(problem: ProblemSpec, x: float) -> float:
    """lhs(x) - x**(alpha+1): positive left of the root, negative right."""
    return front_equation_lhs(problem, x) - x ** (problem.alpha + 1.0)


def residual_derivative(problem: ProblemSpec, x: float) -> float:
    """Derivative of ``front_equation_residual`` in x (negative for x > 0)."""
    _require_positive("x", x)
    return _front_lhs(problem, x)[1] - (problem.alpha + 1.0) * x**problem.alpha


def _find_bracket(
    problem: ProblemSpec, cfg: RootSolverConfig
) -> tuple[float, float, float, float]:
    """Sign-change bracket (lo, hi) of the residual and the residuals there,
    searched geometrically from x = 1 towards the side that holds the root.

    For admissible data lhs(0+) is positive (or infinite) while
    x**(alpha+1) -> 0, so the residual is positive near 0 and a downward
    search can only fail by underflow.
    """
    x, f = 1.0, front_equation_residual(problem, 1.0)
    up = f > 0.0
    while True:
        x_next = x * cfg.bracket_growth if up else x / cfg.bracket_growth
        if up and x_next > cfg.max_bracket:
            raise BracketNotFoundError(
                f"no sign change of the front equation below x={cfg.max_bracket}"
            )
        if x_next ** (problem.alpha + 1.0) == 0.0:
            raise BracketNotFoundError(
                f"front equation underflows: no sign change above x={x}, where "
                "x**(alpha+1) is at the end of the double-precision range"
            )
        f_next = front_equation_residual(problem, x_next)
        if (f_next > 0.0) != up:
            return (x, x_next, f, f_next) if up else (x_next, x, f_next, f)
        x, f = x_next, f_next


def _coefficients(problem: ProblemSpec, nu: float) -> tuple[float, float]:
    """Series coefficients (even A, odd B) from the face relation
    p A + q kappa B = g and zero temperature at the front, A g_e + B g_o = 0.

    g_e and g_o are exp(nu^2) times the basis functions at the front,
    summed at positive argument, so both are sums of positive terms.
    """
    alpha = problem.alpha
    p, q, g = problem.boundary.face_relation()
    kappa = problem.k / (2.0 * math.sqrt(problem.d))
    z = nu * nu
    g_o = nu * kummer_m(alpha / 2.0 + 1.0, 1.5, z)
    r = kummer_m(alpha / 2.0 + 0.5, 0.5, z) / g_o
    if p:
        coeff_even = g / (p - q * kappa * r)
        return coeff_even, -coeff_even * r
    coeff_odd = g / (q * kappa)
    return -coeff_odd / r, coeff_odd


def _power(t, p: float):
    """t**p, through float pow element by element for an array t (see
    ``float_map``)."""
    return float_map(lambda v: v**p, t) if isinstance(t, np.ndarray) else t**p


def _require_all(name: str, values: np.ndarray, ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise ValueError(f"{name} must be {what}, got {values[~ok][0]}")


@dataclass(frozen=True)
class SimilaritySolution:
    """Solved closed form: front coefficient plus field evaluators.

    ``front_position``, ``temperature`` and ``temperature_flux`` take floats
    or numpy arrays.  Floats give a float, summed with ``kummer_m``.  When
    x or t is an array, x and t broadcast against each other, every element
    is checked, and the whole grid costs one ``kummer_m_array`` call per
    basis function; the result is an array of the broadcast shape.

    ``temperature`` evaluates the similarity formula as written, also for
    x > s(t); callers that want the physical field mask those points to 0.
    It raises ValueError where eta**2 = x**2 / (4 d t) exceeds 200 (eta
    about 14.1), the end of the series' range.
    """

    problem: ProblemSpec
    nu: float
    coeff_even: float
    coeff_odd: float
    solver_report: SolverReport

    def front_position(self, t):
        """s(t) = 2 nu sqrt(d t) for finite t >= 0."""
        if isinstance(t, np.ndarray):
            _require_all("t", t, np.isfinite(t) & (t >= 0.0), "a finite real >= 0")
            return 2.0 * self.nu * np.sqrt(self.problem.d * t)
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"t must be a finite real >= 0, got {t}")
        return 2.0 * self.nu * math.sqrt(self.problem.d * t)

    def front_speed(self, t: float) -> float:
        """ds/dt = nu sqrt(d / t)."""
        _require_positive("t", t)
        return self.nu * math.sqrt(self.problem.d / t)

    def _eta(self, x, t):
        """eta = x / (2 sqrt(d t)), t, and the Kummer function for the
        argument kind: ``kummer_m_array`` when x or t is an array."""
        if isinstance(x, np.ndarray) or isinstance(t, np.ndarray):
            x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
            _require_all("t", t, np.isfinite(t) & (t > 0.0), "a positive finite real")
            _require_all("x", x, ~(x < 0.0), ">= 0")
            return x / (2.0 * np.sqrt(self.problem.d * t)), t, kummer_m_array
        _require_positive("t", t)
        if x < 0.0:
            raise ValueError(f"x must be >= 0, got {x}")
        return x / (2.0 * math.sqrt(self.problem.d * t)), t, kummer_m

    def temperature(self, x, t):
        """Similarity temperature at (x, t), t > 0."""
        alpha = self.problem.alpha
        eta, t, m = self._eta(x, t)
        z = -eta * eta
        return _power(t, alpha / 2.0) * (
            self.coeff_even * m(-alpha / 2.0, 0.5, z)
            + self.coeff_odd * eta * m(-alpha / 2.0 + 0.5, 1.5, z)
        )

    def temperature_flux(self, x, t):
        """Spatial derivative of the similarity temperature at (x, t).

        The conductive heat flux is -k times this value."""
        alpha = self.problem.alpha
        eta, t, m = self._eta(x, t)
        z = -eta * eta
        return (
            _power(t, (alpha - 1.0) / 2.0)
            / math.sqrt(self.problem.d)
            * (
                self.coeff_even * alpha * eta * m(-alpha / 2.0 + 1.0, 1.5, z)
                + 0.5 * self.coeff_odd * m(-alpha / 2.0 + 0.5, 0.5, z)
            )
        )


def solve_front(
    problem: ProblemSpec, cfg: RootSolverConfig | None = None
) -> SimilaritySolution:
    """Solve the variant's front equation for nu and assemble the closed form.

    Newton's iteration starts from the false-position point of a
    sign-change bracket, found by growing or shrinking x geometrically from
    1; any step that would leave the current bracket is replaced by
    bisection, so the proven monotonicity of the residual guarantees
    convergence.  Each iterate's residual and slope come from one set of
    series values.  Stops when the step falls below
    ``abs_step_tol * min(1, x)`` or the residual below 1e-12 * |lhs|,
    whichever happens first after at least two iterations.
    Both tests are relative below x = 1: lhs = nu**(alpha+1) can be far
    below 1, where absolute tests accept iterates far from the root.
    """
    if cfg is None:
        cfg = RootSolverConfig()
    lo, hi, f_lo, f_hi = _find_bracket(problem, cfg)
    bracket = (lo, hi)
    alpha = problem.alpha
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for iterations in range(1, cfg.max_newton_iters + 1):
        lhs, slope = _front_lhs(problem, x)
        residual = lhs - x ** (alpha + 1.0)
        slope -= (alpha + 1.0) * x**alpha
        if residual > 0.0:
            lo = x
        elif residual < 0.0:
            hi = x
        small = iterations >= 2 and abs(residual) <= _RESIDUAL_RTOL * abs(lhs)
        trial = x - residual / slope if slope < 0.0 else math.nan
        if not (lo < trial < hi):
            if small:
                break
            trial = 0.5 * (lo + hi)
        step = abs(trial - x)
        x = trial
        # On the residual stop this is a polish with the final Newton
        # correction: the stop alone can leave |F|/|F'| of slack in the root.
        if small or (iterations >= 2 and step < cfg.abs_step_tol * min(1.0, x)):
            residual = front_equation_residual(problem, x)
            break
    else:
        raise NonConvergenceError(
            f"front-coefficient iteration did not converge in "
            f"{cfg.max_newton_iters} iterations (last residual {residual})"
        )
    lhs_scale = abs(residual + x ** (alpha + 1.0))
    if abs(residual) > _RESIDUAL_RTOL * lhs_scale:
        raise NonConvergenceError(
            f"front-coefficient residual {residual} above tolerance at nu={x}"
        )
    coeff_even, coeff_odd = _coefficients(problem, x)
    report = SolverReport(iterations=iterations, residual=residual, bracket=bracket)
    return SimilaritySolution(
        problem=problem,
        nu=x,
        coeff_even=coeff_even,
        coeff_odd=coeff_odd,
        solver_report=report,
    )


def _integer_exponent(problem: ProblemSpec) -> int:
    n = problem.alpha
    if n != math.floor(n):
        raise ValueError(f"alpha={n} is not a non-negative integer")
    return int(n)


def front_equation_integer_alpha(problem: ProblemSpec, x: float) -> float:
    """Residual of the integer-exponent front equation for the convective
    variant, written with the even/odd repeated-erfc combinations.

    Its positive root coincides with ``solve_front``'s nu; the two forms
    are linked by M(-n/2, 1/2, -y^2) = 2^n Gamma(n/2+1) E_n(y) and
    y M(-n/2+1/2, 3/2, -y^2) = 2^{n-1} Gamma(n/2+1/2) F_n(y).
    """
    if not isinstance(problem.boundary, Convective):
        raise ValueError("integer-exponent front equation applies to the convective variant")
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be positive, got {x}")
    n = _integer_exponent(problem)
    b = problem.boundary
    d, k, gamma = problem.d, problem.k, problem.gamma
    denom = (
        gamma
        * d ** ((n + 1.0) / 2.0)
        * 2.0 ** (2 * n)
        * (
            gamma_fn(n / 2.0 + 1.0) * e_n(n, x)
            + math.sqrt(d) * b.h0 / k * gamma_fn(n / 2.0 + 0.5) * f_n(n, x)
        )
    )
    return b.h0 * b.t_inf / denom - x ** (n + 1.0) * math.exp(x * x)


def temperature_integer_alpha(sol: SimilaritySolution, x: float, t: float) -> float:
    """Convective-variant temperature in even/odd repeated-erfc form.

    Valid only for integer alpha; used as an independent cross-check of
    ``SimilaritySolution.temperature``.
    """
    problem = sol.problem
    if not isinstance(problem.boundary, Convective):
        raise ValueError("integer-exponent temperature applies to the convective variant")
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    n = _integer_exponent(problem)
    b = problem.boundary
    d, k = problem.d, problem.k
    eta = x / (2.0 * math.sqrt(d * t))
    nu = sol.nu
    g_half = gamma_fn(n / 2.0 + 0.5)
    g_one = gamma_fn(n / 2.0 + 1.0)
    numerator = (
        -(t ** (n / 2.0))
        * 2.0**n
        * b.h0
        * b.t_inf
        * math.sqrt(d)
        * g_half
        * g_one
        * (f_n(n, eta) * e_n(n, nu) - f_n(n, nu) * e_n(n, eta))
    )
    denominator = k * g_one * e_n(n, nu) + math.sqrt(d) * b.h0 * g_half * f_n(n, nu)
    return numerator / denominator
