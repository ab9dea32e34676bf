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

Every face condition is one linear relation p A + q J = g between the face
temperature A = u(0,t) t^{-alpha/2} and the face conduction
J = k u_x(0,t) t^{(1-alpha)/2} = kappa B, kappa = k / (2 sqrt(d)).  The
triple (p, q, g) is (1, -1/h0, t_inf) for ``Convective`` (its balance
J = h0 (A - t_inf) divided by h0), (1, 0, t0) for ``Temperature`` (the
h0 -> inf limit) and (0, -1, c) for ``Flux`` (h0 times the convective
triple as h0 -> 0 with h0 t_inf = c fixed).  With g_e = M(alpha/2+1/2, 1/2, x^2),
g_o = x M(alpha/2+1, 3/2, x^2) and D = p g_o - q kappa g_e, the front
condition is A g_e + B g_o = 0 at x = nu, and nu is the unique positive
root of the one front equation

    x^{alpha+1} = C g / D(x),      C = kappa / (gamma 2^alpha d^{(alpha+1)/2}).

Both sides are products of powers and exponentials, so ``solve_front``
takes logs: in y = log x it finds the root of

    G(y) = log(C g) - log D(e^y) - (alpha+1) y,

a strictly decreasing function whose value is a relative residual of the
front equation.  log(C g) is a sum of logs of the data and log D is
summed from the logs of its (one or two) positive terms, so no product of
data is formed and nothing under- or overflows before the series
themselves do.  A bracketed, bisection-safeguarded Newton iteration stops
at |G| <= 1e-12 and returns the fully determined closed form.

For integer alpha the same face relation gives repeated-erfc forms of the
front equation and the field for every family (``front_equation_integer_alpha``,
``temperature_integer_alpha``), a cross-check that sums no Kummer series.

Only the melting case is modelled (all data positive).  The freezing case
maps onto it by flipping the signs of gamma and of the boundary datum, so
it is rejected at construction rather than duplicated.

All quantities are treated as consistent, nondimensionalized reals.
"""

from __future__ import annotations

import math
import sys
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
    "SolverReport",
    "SimilaritySolution",
    "front_equation_lhs",
    "front_equation_residual",
    "residual_derivative",
    "solve_front",
    "front_equation_integer_alpha",
    "temperature_integer_alpha",
]

# Settings of solve_front.  |G| accepted at the root (G is a relative
# residual of the front equation), the smallest Newton step in y = log x,
# the iteration cap, and the upper end of the bracket search for nu.
_RESIDUAL_TOL = 1e-12
_STEP_TOL = 1e-15
_MAX_ITERATIONS = 100
_MAX_NU = 1e3
_LOG2 = math.log(2.0)


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
        if math.isinf(1.0 / self.h0):
            raise ValueError(f"h0 must have a finite reciprocal, got {self.h0}")

    def face_relation(self) -> tuple[float, float, float]:
        """(p, q, g) of the face relation p A + q J = g: the balance
        J = h0 (A - t_inf) divided by h0, so that no product of data is
        formed."""
        return 1.0, -1.0 / self.h0, self.t_inf


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
class SolverReport:
    iterations: int
    residual: float
    bracket: tuple[float, float]


def _front_g(problem: ProblemSpec, power: float):
    """The function y -> (log(C g / D(e^y)) - power y, its y-derivative).

    With power = alpha + 1 it is (G, G'), with power = 0 the log of the
    front equation's left side and its slope.  The derivative is 0.0 when
    the call passes ``slope=False``; the series it needs are then not
    summed.  The logs of the data are taken once, here.

    log D is summed from the logs of its positive terms, t_o of p g_o and
    t_e of -q kappa g_e, with log(e^t_o + e^t_e) = t + log1p(e^(t' - t)),
    t the larger.  A series that overflows makes log D = inf.
    x D' = p x M(alpha/2+1, 1/2, x^2) - q kappa 2 (alpha+1) x^2 M(alpha/2+3/2, 3/2, x^2)
    follows from d/dz M(a,b,z) = (a/b) M(a+1,b+1,z) and
    d/dx [x M(a, 3/2, x^2)] = M(a, 1/2, x^2); x D'/D weighs each term's
    ratio by that term's share of D.  The series whose coefficient is 0
    are not summed.
    """
    alpha, d = problem.alpha, problem.d
    a = alpha / 2.0
    p, q, g = problem.boundary.face_relation()
    log_kappa = math.log(problem.k) - _LOG2 - 0.5 * math.log(d)
    log_cg = (
        log_kappa + math.log(g) - math.log(problem.gamma)
        - alpha * _LOG2 - 0.5 * (alpha + 1.0) * math.log(d)
    )
    log_p = math.log(p) if p else None
    log_qk = math.log(-q) + log_kappa if q else None

    def front_g(y: float, slope: bool = True) -> tuple[float, float]:
        x = math.exp(y)
        z = x * x
        t_o = t_e = -math.inf
        if log_p is not None:
            m_o = kummer_m(a + 1.0, 1.5, z)
            t_o = log_p + y + math.log(m_o)
        if log_qk is not None:
            m_e = kummer_m(a + 0.5, 0.5, z)
            t_e = log_qk + math.log(m_e)
        hi, lo = max(t_o, t_e), min(t_o, t_e)
        log_d = hi if hi == math.inf else hi + math.log1p(math.exp(lo - hi))
        value = log_cg - log_d - power * y
        if not slope:
            return value, 0.0
        ratio = 0.0
        if log_p is not None:
            ratio += math.exp(t_o - log_d) * kummer_m(a + 1.0, 0.5, z) / m_o
        if log_qk is not None:
            ratio += (math.exp(t_e - log_d) * 2.0 * (alpha + 1.0) * z
                      * kummer_m(a + 1.5, 1.5, z) / m_e)
        return value, -ratio - power

    return front_g


def front_equation_lhs(problem: ProblemSpec, x: float) -> float:
    """Left-hand side C g / D(x) of the front equation, a strictly
    decreasing function of x > 0."""
    _require_positive("x", x)
    return math.exp(_front_g(problem, 0.0)(math.log(x), slope=False)[0])


def front_equation_residual(problem: ProblemSpec, x: float) -> float:
    """lhs(x) - x**(alpha+1): positive left of the root, negative right."""
    return front_equation_lhs(problem, x) - x ** (problem.alpha + 1.0)


def residual_derivative(problem: ProblemSpec, x: float) -> float:
    """Derivative of ``front_equation_residual`` in x (negative for x > 0)."""
    _require_positive("x", x)
    log_lhs, log_slope = _front_g(problem, 0.0)(math.log(x))
    return math.exp(log_lhs) * log_slope / x - (problem.alpha + 1.0) * x**problem.alpha


def _find_bracket(front_g) -> tuple[float, float, float, float]:
    """Sign-change bracket (lo, hi) of G in y = log x and G there, walked
    in steps of log 2 from y = 0 towards the side that holds the root.

    G -> +inf as y -> -inf (log D tends to a constant, or falls like y
    for ``Temperature``), so a downward walk always ends; an upward
    walk stops at x = ``_MAX_NU``.  Where D overflows, G = -inf: right of
    the root.  The walk sums no slope series.
    """
    y_max = math.log(_MAX_NU)
    y, g = 0.0, front_g(0.0, slope=False)[0]
    up = g > 0.0
    while True:
        y_next = y + _LOG2 if up else y - _LOG2
        if y_next > y_max:
            raise BracketNotFoundError(
                f"no sign change of the front equation below x={_MAX_NU}"
            )
        g_next = front_g(y_next, slope=False)[0]
        if (g_next > 0.0) != up:
            return (y, y_next, g, g_next) if up else (y_next, y, g_next, g)
        y, g = y_next, g_next


def _coefficients(problem: ProblemSpec, nu: float) -> tuple[float, float]:
    """Series coefficients (even A, odd B) from the face relation
    p A + q kappa B = g and zero temperature at the front, A g_e + B g_o = 0.

    g_e and g_o are exp(nu^2) times the basis functions at the front,
    summed at positive argument, so both are sums of positive terms, and
    B = -r A with r = g_e / g_o.  q = 0 fixes A = g / p; otherwise
    B (q kappa - p / r) = g is divided by max(1, kappa), so that neither
    kappa = k / (2 sqrt d) nor 1 / kappa is formed where it overflows, and
    the flux face (p = 0) forms B = g / (q kappa) without kappa where kappa
    is subnormal.  A coefficient beyond double range raises OverflowError.
    """
    alpha = problem.alpha
    p, q, g = problem.boundary.face_relation()
    z = nu * nu
    g_o = nu * kummer_m(alpha / 2.0 + 1.0, 1.5, z)
    r = kummer_m(alpha / 2.0 + 0.5, 0.5, z) / g_o
    k, two_sqrt_d = problem.k, 2.0 * math.sqrt(problem.d)
    if not q:
        coeff_even = g / p
        coeff_odd = -coeff_even * r
    else:
        s, s_kappa = (two_sqrt_d / k, 1.0) if k > two_sqrt_d else (1.0, k / two_sqrt_d)
        if p or s_kappa >= sys.float_info.min:
            coeff_odd = g * s / (q * s_kappa - p * s / r)
        else:  # flux face, kappa subnormal or 0: B = g / (q kappa) without kappa
            coeff_odd = g * two_sqrt_d / (q * k)
        coeff_even = -coeff_odd / r
    if math.isinf(coeff_odd) or math.isinf(coeff_even):
        raise OverflowError(
            f"the series coefficients A = {coeff_even}, B = {coeff_odd} overflow double "
            f"precision (g = {g!r}, k = {k!r}, 2 sqrt d = {two_sqrt_d!r}, g_e / g_o = {r!r})"
        )
    return coeff_even, coeff_odd


def _require_all(name: str, values: np.ndarray, ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise ValueError(f"{name} must be {what}, got {values[~ok][0]}")


def _result(value, *args):
    """value as a Python float when no argument was an ndarray."""
    return value if any(isinstance(a, np.ndarray) for a in args) else float(value)


@dataclass(frozen=True)
class SimilaritySolution:
    """Solved closed form: front coefficient plus field evaluators.

    ``front_position``, ``temperature`` and ``temperature_flux`` take floats
    or numpy arrays and evaluate both the same way: x and t broadcast
    against each other, every element is checked, and each basis function
    costs one ``kummer_m_array`` call over the whole grid (which sums small
    grids with ``kummer_m``).  The result is a Python float when no
    argument is an ndarray, else an array of the broadcast shape.

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
        ts = np.asarray(t, dtype=float)
        _require_all("t", ts, np.isfinite(ts) & (ts >= 0.0), "a finite real >= 0")
        return _result(2.0 * self.nu * np.sqrt(self.problem.d * ts), t)

    def front_speed(self, t: float) -> float:
        """ds/dt = nu sqrt(d / t)."""
        _require_positive("t", t)
        return self.nu * math.sqrt(self.problem.d / t)

    def _eta(self, x, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eta = x / (2 sqrt(d t)), -eta**2 and t as float arrays, every
        element checked."""
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        _require_all("t", t, np.isfinite(t) & (t > 0.0), "a positive finite real")
        _require_all("x", x, ~(x < 0.0), ">= 0")
        eta = x / (2.0 * np.sqrt(self.problem.d * t))
        return eta, -eta * eta, t

    def temperature(self, x, t):
        """Similarity temperature at (x, t), t > 0."""
        alpha = self.problem.alpha
        eta, z, ts = self._eta(x, t)
        # t**p by float pow per element of t, not of the grid (``float_map``)
        return _result(float_map(lambda v: v ** (alpha / 2.0), ts) * (
            self.coeff_even * kummer_m_array(-alpha / 2.0, 0.5, z)
            + self.coeff_odd * eta * kummer_m_array(-alpha / 2.0 + 0.5, 1.5, z)
        ), x, t)

    def temperature_flux(self, x, t):
        """Spatial derivative of the similarity temperature at (x, t).

        The conductive heat flux is -k times this value."""
        alpha = self.problem.alpha
        eta, z, ts = self._eta(x, t)
        scale = float_map(lambda v: v ** ((alpha - 1.0) / 2.0), ts) / math.sqrt(self.problem.d)
        return _result(scale * (
            self.coeff_even * alpha * eta * kummer_m_array(-alpha / 2.0 + 1.0, 1.5, z)
            + 0.5 * self.coeff_odd * kummer_m_array(-alpha / 2.0 + 0.5, 0.5, z)
        ), x, t)


def solve_front(problem: ProblemSpec) -> SimilaritySolution:
    """Solve the variant's front equation for nu and assemble the closed form.

    Newton's iteration on G(y) = log(C g / D(e^y)) - (alpha+1) y starts
    from the false-position point of a sign-change bracket in y = log x
    (``_find_bracket``); any step that would leave the current bracket is
    replaced by bisection, so the proven monotonicity of G guarantees
    convergence.  Each iterate's G and slope come from one set of series
    values.  G is a relative residual, so one stop serves every scale of
    nu: |G| <= 1e-12, followed by one more Newton correction, which the
    returned nu includes.  The iteration also stops when a step in y falls
    to 1e-15, and in either case the final G must meet the residual stop.
    ``SolverReport.residual`` is the relative residual
    lhs / nu**(alpha+1) - 1 = expm1(G) of the returned nu, so it stays
    finite where nu**(alpha+1) overflows.
    """
    front_g = _front_g(problem, problem.alpha + 1.0)
    lo, hi, g_lo, g_hi = _find_bracket(front_g)
    bracket = (math.exp(lo), math.exp(hi))
    y = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    if not lo < y < hi:
        y = 0.5 * (lo + hi)
    for iterations in range(1, _MAX_ITERATIONS + 1):
        g, slope = front_g(y)
        if g > 0.0:
            lo = y
        elif g < 0.0:
            hi, g_hi = y, g
        small = abs(g) <= _RESIDUAL_TOL
        trial = y - g / slope if slope < 0.0 else math.nan
        if not (lo < trial < hi):
            if small:
                break
            trial = 0.5 * (lo + hi)
        step = abs(trial - y)
        y = trial
        if small or step <= _STEP_TOL:
            g = front_g(y, slope=False)[0]
            break
    else:
        raise NonConvergenceError(
            f"front-coefficient iteration did not converge in "
            f"{_MAX_ITERATIONS} iterations (last log residual {g})"
        )
    nu = math.exp(y)
    if not abs(g) <= _RESIDUAL_TOL:
        if g_hi == -math.inf:
            raise BracketNotFoundError(
                f"the front equation's series overflow double precision at "
                f"x={math.exp(hi)}, below its root"
            )
        raise NonConvergenceError(
            f"front-coefficient log residual {g} above tolerance at nu={nu}"
        )
    if nu < sys.float_info.min:
        raise BracketNotFoundError(
            f"the front coefficient exp({y}) underflows double precision"
        )
    coeff_even, coeff_odd = _coefficients(problem, nu)
    report = SolverReport(iterations=iterations, residual=math.expm1(g), bracket=bracket)
    return SimilaritySolution(
        problem=problem,
        nu=nu,
        coeff_even=coeff_even,
        coeff_odd=coeff_odd,
        solver_report=report,
    )


def _integer_basis(problem: ProblemSpec, x: float) -> tuple[float, float, float]:
    """For integer alpha = n, the basis values even = M(-n/2, 1/2, -x^2) =
    2^n Gamma(n/2+1) E_n(x) and odd = x M(-n/2+1/2, 3/2, -x^2) =
    2^(n-1) Gamma(n/2+1/2) F_n(x), and (p odd - q kappa even) / g from the
    face relation p A + q kappa B = g."""
    n = problem.alpha
    if n != math.floor(n):
        raise ValueError(f"alpha={n} is not a non-negative integer")
    n = int(n)
    even = 2.0**n * gamma_fn(n / 2.0 + 1.0) * e_n(n, x)
    odd = 2.0 ** (n - 1) * gamma_fn(n / 2.0 + 0.5) * f_n(n, x)
    p, q, g = problem.boundary.face_relation()
    kappa = problem.k / (2.0 * math.sqrt(problem.d))
    return even, odd, (p * odd - q * kappa * even) / g


def front_equation_integer_alpha(problem: ProblemSpec, x: float) -> float:
    """Residual C g / (p odd(x) - q kappa even(x)) - x^(n+1) exp(x^2) of the
    front equation for integer alpha = n, in repeated-erfc form, for every
    boundary family.

    Kummer's transformation M(a, b, z) = e^z M(b-a, b, -z) makes g_e and
    g_o exp(x^2) times even and odd, so this is the front equation times
    exp(-x^2), and its positive root is ``solve_front``'s nu.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"x must be positive, got {x}")
    n, d = problem.alpha, problem.d
    c_front = problem.k / (2.0 * math.sqrt(d)) / (problem.gamma * 2.0**n * d ** ((n + 1.0) / 2.0))
    return c_front / _integer_basis(problem, x)[2] - x ** (n + 1.0) * math.exp(x * x)


def temperature_integer_alpha(sol: SimilaritySolution, x: float, t: float) -> float:
    """Temperature for integer alpha = n in repeated-erfc form, for every
    boundary family:

        u = t^(n/2) g (odd(nu) even(eta) - even(nu) odd(eta)) / (p odd(nu) - q kappa even(nu)),

    whose coefficients meet the face relation and u(s(t), t) = 0.  An
    independent cross-check of ``SimilaritySolution.temperature``.
    """
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    problem = sol.problem
    even_nu, odd_nu, denominator = _integer_basis(problem, sol.nu)
    even, odd, _ = _integer_basis(problem, x / (2.0 * math.sqrt(problem.d * t)))
    return t ** (problem.alpha / 2.0) * (odd_nu * even - even_nu * odd) / denominator
