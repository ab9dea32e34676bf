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
takes logs: in y = log x, with z = x^2, it finds the root of

    G(y) = log(C g) - z - log D~(e^y) - (alpha+1) y,      D~ = e^-z D,

a relative residual of the front equation.  log(C g) is a sum of logs of
the data and log D~ is summed from ``log_kummer_m_scaled`` (the log of
e^-z M, of size log z) of its (one or two) positive terms, one call for
each series that is needed, so G is finite for every y.  The same sums
give G' and G''.  G is concave and decreasing, so Newton's method
converges monotonically after its first step.  It starts at the root of
a model of G that replaces each log of e^-z M by its leading term for
large z, which sums no series.  Where |G G''| <= G'**2, near the root,
each step is Halley's third-order step, and elsewhere Newton's.  The last
step is the one that the cubic rate predicts to be below eps, or the one
from |G| within its rounding (at least 1e-12).  The evaluation that gives
the coefficients by Cramer's rule, A = g g_o / D and B = -g g_e / D, also
gives G there, and confirms the root.

The field is not summed from that formula, whose two terms grow like
eta^alpha and cancel in the melt: ``SimilaritySolution`` walks the profile
f(eta) = u t^{-alpha/2} in Taylor pieces from the front, where f(nu) = 0 and
the Stefan condition fixes f'(nu), to the face and past the front.

``front_log_residual`` is G.  For integer alpha the face relation gives
repeated-erfc forms of G and the field for every family, a cross-check that
sums no Kummer series (``front_log_residual_integer_alpha``, ``temperature_integer_alpha``).

Only the melting case is modelled (all data positive).  The freezing case
maps onto it by flipping the signs of gamma and of the boundary datum, so
it is rejected at construction rather than duplicated.

All quantities are treated as consistent, nondimensionalized reals.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .kummer import NonConvergenceError, e_n, f_n, gamma_fn, log_kummer_m_scaled

__all__ = [
    "Convective",
    "Temperature",
    "Flux",
    "ProblemSpec",
    "SolverReport",
    "SimilaritySolution",
    "front_log_residual",
    "solve_front",
    "front_log_residual_integer_alpha",
    "temperature_integer_alpha",
]

# Settings of solve_front: the least |G| accepted at the root (G is a
# relative residual of the front equation), the iteration cap, and the
# |G| of the series-free model below which its last Newton step is taken
# (the model lies further than that from G).
_RESIDUAL_TOL = 1e-12
_MAX_ITERATIONS = 100
_MODEL_TOL = 0.1
_EPS = sys.float_info.epsilon
_LOG2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)
# (L, z L', d(z L')/dy) in place of a series whose coefficient in D is 0.
_UNSUMMED = (0.0, 0.0, 0.0)
# Taylor order of the pieces of the field profile.
_PROFILE_ORDER = 30
# The field is continued past the front up to eta = max(nu, _MAX_ETA): the
# walk there takes a number of steps growing like eta**2.
_MAX_ETA = 30.0


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


def _require_family(problem: ProblemSpec, family: type, op: str) -> Boundary:
    """The boundary of ``problem``, which ``op`` needs to be a ``family``."""
    if not isinstance(problem.boundary, family):
        raise ValueError(f"{op} requires a {family.__name__} problem, got "
                         f"{type(problem.boundary).__name__}")
    return problem.boundary


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    residual: float


def _times_exp(g: float, log_g: float, x: float) -> float:
    """g e^x for g > 0, as exp(log g + x) where e^x is not a normal float; inf past range."""
    if not _LOG_MIN < x < _LOG_MAX:
        g, x = 1.0, x + log_g
    return g * math.exp(x) if x < _LOG_MAX else math.inf


def _front_g(problem: ProblemSpec):
    """Closures ``front(y, coefficients=False)`` and ``start()`` of y = log x
    that share the logs of the data, the one place where D is formed.
    ``front`` returns G(y) = log(C g) - z - log D~(e^y) - (alpha+1) y with
    z = x^2, (G'(y), G''(y)) and the rounding of G (4 eps times its terms'
    sizes, at least 1e-12) from the series D needs, and with
    ``coefficients`` also A and B from both series.  ``start`` returns the
    root of a model of G that sums no series.

    D~ = e^-z D = p x M~_o - q kappa M~_e, M~ = e^-z M, with logs L, z L'
    and d(z L')/dy from one ``log_kummer_m_scaled`` call for each series
    with a nonzero coefficient in D, or for both with ``coefficients``
    (``_UNSUMMED`` for the other).  log D~ = t + log1p(w) from the logs
    t_o = log p + y + L_o and t_e = log(|q| kappa) + L_e of its terms, t the
    larger, t' the other and w = e^(t' - t) <= 1.  With pi = 1 / (1 + w),
    G' = -2z - (pi dt/dy + (1 - pi) dt'/dy) - (alpha+1) and
    G'' = -4z - (pi d2t + (1 - pi) d2t' + pi (1 - pi) (dt/dy - dt'/dy)**2),
    where dt_o/dy = 1 + 2 z L_o', dt_e/dy = 2 z L_e' and d2t = 2 d(z L')/dy
    of the term's series.  Cramer's rule on p A + q kappa B = g and
    A g_e + B g_o = 0 gives A = g g_o / D = g e^(y + L_o - log D~) and
    B = -g g_e / D = -g e^(L_e - log D~) (``_times_exp``).  So kappa enters
    through log D~ only, A = g exactly where q = 0, and a coefficient beyond
    double range is inf.

    The model takes L = max(0, lgamma(b) - lgamma(a) + (a-b) log z), the
    leading term of DLMF 13.7.2, where a > b, and L = 0 elsewhere and
    where lgamma(a) overflows: for a >= b, M >= e^z and L >= 0.  Its
    log D~ is a log-sum of convex functions of y, so the model is concave,
    and Newton's method from
    log z = log(max(1, log(C g) - max(log p, log(|q| kappa)))), right of
    its root (there z alone exceeds log(C g) - log D~ - (alpha+1) y),
    descends to the root monotonically.
    """
    alpha, d = problem.alpha, problem.d
    a = alpha / 2.0
    p, q, g = problem.boundary.face_relation()
    log_kappa = math.log(problem.k) - _LOG2 - 0.5 * math.log(d)
    log_g = math.log(g)
    log_cg = (log_kappa + log_g - math.log(problem.gamma)
              - alpha * _LOG2 - 0.5 * (alpha + 1.0) * math.log(d))
    log_p = math.log(p) if p else -math.inf
    log_qk = math.log(-q) + log_kappa if q else -math.inf

    def residual(y, z, lm_o, zm_o, cm_o, lm_e, zm_e, cm_e):
        """G, (G', G'') and log D~ from the scaled logs of both series."""
        hi, lo = log_p + y + lm_o, log_qk + lm_e
        d_hi, d_lo, c_hi, c_lo = 1.0 + 2.0 * zm_o, 2.0 * zm_e, 2.0 * cm_o, 2.0 * cm_e
        if hi < lo:
            hi, lo, d_hi, d_lo, c_hi, c_lo = lo, hi, d_lo, d_hi, c_lo, c_hi
        w = math.exp(lo - hi)
        log_d = hi + math.log1p(w)
        value = log_cg - (log_d + z) - (alpha + 1.0) * y
        slope = -2.0 * z - (d_hi + w * d_lo) / (1.0 + w) - (alpha + 1.0)
        curvature = -4.0 * z - (c_hi + w * (c_lo + (d_hi - d_lo) ** 2 / (1.0 + w))) / (1.0 + w)
        return value, (slope, curvature), log_d

    def front(y: float, coefficients: bool = False):
        z = math.exp(2.0 * y)
        # (L, z L', d(z L')/dy) of the odd series, then of the even one.
        logs = ((log_kummer_m_scaled(a + 1.0, 1.5, z) if p or coefficients else _UNSUMMED)
                + (log_kummer_m_scaled(a + 0.5, 0.5, z) if q or coefficients else _UNSUMMED))
        value, slopes, log_d = residual(y, z, *logs)
        rounding = max(_RESIDUAL_TOL, 4.0 * _EPS
                       * (abs(log_cg) + z + abs(log_d) + (alpha + 1.0) * abs(y)))
        if not coefficients:
            return value, slopes, rounding
        return (value, slopes, rounding,
                _times_exp(g, log_g, y + logs[0] - log_d), -_times_exp(g, log_g, logs[3] - log_d))

    # (lgamma(b) - lgamma(a), a - b) of the odd and the even series, or
    # _UNSUMMED's zeros past a = 2.56e305, where lgamma(a) overflows.
    try:
        leading_o = (math.lgamma(1.5) - math.lgamma(a + 1.0), a - 0.5)
        leading_e = (math.lgamma(0.5) - math.lgamma(a + 0.5), a)
    except OverflowError:
        leading_o = leading_e = (0.0, 0.0)

    def model(leading, y):
        """(L, z L', d(z L')/dy) of the model of one series at log z = 2 y."""
        value = leading[0] + 2.0 * leading[1] * y
        return (value, leading[1], 0.0) if leading[1] > 0.0 and value > 0.0 else _UNSUMMED

    def start() -> float:
        y = 0.5 * math.log(max(1.0, log_cg - max(log_p, log_qk)))
        for _ in range(_MAX_ITERATIONS):
            value, (slope, _), _ = residual(y, math.exp(2.0 * y), *model(leading_o, y),
                                            *model(leading_e, y))
            y -= value / slope
            if abs(value) <= _MODEL_TOL:
                return y
        raise NonConvergenceError(f"the model front equation did not converge in "
                                  f"{_MAX_ITERATIONS} iterations ({problem!r})")

    return front, start


def _front_y(x: float) -> float:
    """y = log x for the domain of both front residuals: x > 0, x**2 finite."""
    if not (x > 0.0 and math.isfinite(x * x)):
        raise ValueError(f"x must be positive with x**2 finite (x < 1.34e154), got {x}")
    return math.log(x)


def front_log_residual(problem: ProblemSpec, x: float) -> float:
    """G(log x) = log(C g / D(x)) - (alpha+1) log x, the log of the front
    equation's two sides' ratio that ``solve_front`` zeroes: finite,
    positive left of nu and negative right of it."""
    return _front_g(problem)[0](_front_y(x))[0]


def _require_all(name: str, values: np.ndarray, ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise ValueError(f"{name} must be {what}, got {values[~ok][0]}")


def _result(value):
    """value as a Python float when its broadcast shape is (), else the array."""
    return value if value.ndim else float(value)


def _profile_walk(alpha: float, nu: float, stop: float):
    """Nodes, Taylor pieces, their shifts and last value of the unit profile
    g, with g'' + 2 eta g' - 2 alpha g = 0, g(nu) = 0 and g'(nu) = -1, walked
    from nu to the face for stop = 0, else outward until a node passes stop.

    The piece from node eta to eta + h holds d_k = c_k h**k, g = sum d_k s**k
    in s = (e - eta) / h, where (k+1)(k+2) d_{k+2} = -2 eta h (k+1) d_{k+1}
    + 2 h**2 (alpha - k) d_k.  h = 2 / (eta + sqrt(eta**2 + 2 alpha) + 4)
    keeps h at most 1/2 and h times the larger local exponent below 2, where
    the remainder of order 30 is below rounding.  g grows in the walk's
    direction (inward like exp(-eta**2), outward like eta**alpha) or stays
    level, so the rounding of one step does not grow in the next.  Past
    |g| = 2**500 (inward g grows like exp(nu**2)) the walk goes on with
    g / 2**500: piece j, and the last value with the last, hold g / 2**shifts[j].
    """
    inward = stop < nu
    nodes, rows, shifts = [nu], [], []
    eta, value, slope, shift = nu, 0.0, -1.0, 0
    while eta > stop if inward else eta < stop:
        if abs(value) > 2.0**500:
            value, slope, shift = value * 2.0**-500, slope * 2.0**-500, shift + 500
        h = 2.0 / (eta + math.sqrt(eta * eta + 2.0 * alpha) + 4.0)
        following = max(eta - h, 0.0) if inward else eta + h
        # The step to the node as rounded: missing it by its rounding at
        # each step cost up to 5e-13 of the field at nu = 21.
        h = following - eta
        a1, a0 = -2.0 * eta * h, 2.0 * h * h
        row = [value, slope * h]
        for k in range(_PROFILE_ORDER - 1):
            row.append((a1 * (k + 1) * row[k + 1] + a0 * (alpha - k) * row[k])
                       / ((k + 1) * (k + 2)))
        rows.append(row)
        shifts.append(shift)
        nodes.append(following)
        value = sum(reversed(row))
        slope = sum(k * row[k] for k in range(_PROFILE_ORDER, 0, -1)) / h
        eta = following
    return nodes, rows, shifts, value


def _pieces(nodes, rows, shifts, exponent: int, scale: float):
    """(lower, center, step, coefficients) of the pieces of 2**exponent
    scale g from one walk, ascending in eta; column j of the coefficients
    holds piece j in s = (eta - center[j]) / step[j], inf past double range."""
    import numpy as np
    nodes = np.array(nodes)
    lower = np.minimum(nodes[:-1], nodes[1:])
    j = np.argsort(lower)
    with np.errstate(over="ignore"):
        coeffs = np.ldexp(np.array(rows).T, exponent + np.array(shifts)) * scale
    return lower[j], nodes[:-1][j], np.diff(nodes)[j], coeffs[:, j]


@dataclass(frozen=True)
class SimilaritySolution:
    """Solved closed form: front coefficient plus field evaluators.

    ``front_position``, ``temperature`` and ``temperature_flux`` take floats,
    sequences or numpy arrays and evaluate all of them the same way: x and t
    broadcast against each other and every element is checked.  The result
    is a Python float when the broadcast shape is () (floats, or 0-d
    arrays), else an array of the broadcast shape: a list or a tuple gives
    an array, as an ndarray does.  These evaluators import numpy on first
    use; solving the front does not.

    The field is u = t**(alpha/2) f(eta) and u_x = t**((alpha-1)/2)
    f'(eta) / (2 sqrt(d)).  The pieces of f over [0, nu] are walked on the
    first field call, each point then costs one Horner sum, and f(0), f'(0)
    reproduce ``coeff_even``, ``coeff_odd``.  ``temperature`` also
    evaluates the continuation past the front (callers that want the
    physical field mask x > s(t) to 0) up to eta = max(nu, 30), and raises
    beyond.  A value above double range raises OverflowError; one below it
    is 0, as near the front, where f(0) / f'(nu) grows like exp(nu**2).
    """

    problem: ProblemSpec
    nu: float
    coeff_even: float
    coeff_odd: float
    solver_report: SolverReport

    def front_position(self, t):
        """s(t) = 2 nu sqrt(d) sqrt(t) for finite t >= 0."""
        import numpy as np
        ts = np.asarray(t, dtype=float)
        _require_all("t", ts, np.isfinite(ts) & (ts >= 0.0), "a finite real >= 0")
        return _result(2.0 * self.nu * math.sqrt(self.problem.d) * np.sqrt(ts))

    def front_speed(self, t: float) -> float:
        """ds/dt = nu sqrt(d) / sqrt(t)."""
        _require_positive("t", t)
        return self.nu * math.sqrt(self.problem.d) / math.sqrt(t)

    def _eta(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        """eta = x / (2 sqrt(d) sqrt(t)) and t as float arrays, every
        element checked.  sqrt(d t) would underflow for d t below 1e-308."""
        import numpy as np
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        _require_all("t", t, np.isfinite(t) & (t > 0.0), "a positive finite real")
        _require_all("x", x, np.isfinite(x) & (x >= 0.0), "a finite real >= 0")
        eta = x / (2.0 * math.sqrt(self.problem.d) * np.sqrt(t))
        top = max(self.nu, _MAX_ETA)
        _require_all("eta = x / (2 sqrt(d t))", eta, eta <= top,
                     f"at most {top}, the end of the field past the front")
        return eta, t

    @cached_property
    def _melt(self):
        """The pieces of f = |f'(nu)| g over [0, nu], with the exponent e
        and the scale 2**-e |f'(nu)| that make them from those of g.  With
        2**e g(0) in [1, 2) no value exceeds f(0) = A.  The Stefan
        condition -k u_x = gamma s**alpha ds/dt gives
        f'(nu) = -(gamma / k) sqrt(d) (2 nu sqrt(d))**(alpha+1), formed in
        34-digit decimal arithmetic, whose exponent range holds every factor."""
        p, dec = self.problem, decimal.Decimal
        nodes, rows, shifts, face = _profile_walk(p.alpha, self.nu, 0.0)
        exponent = 1 - math.frexp(face)[1] - shifts[-1]
        with decimal.localcontext(decimal.Context(prec=34)):
            root_d = dec(p.d).sqrt()
            scale = float(dec(p.gamma) / dec(p.k) * root_d * dec(2) ** -exponent
                          * (2 * dec(self.nu) * root_d) ** (dec(p.alpha) + 1))
        return _pieces(nodes, rows, shifts, exponent, scale), exponent, scale

    def _field(self, x, t, derivative: bool):
        """u = t**(alpha/2) f(eta), or u_x = t**((alpha-1)/2) f'(eta) / (2 sqrt(d))
        with ``derivative``, walking past the front as far as eta needs."""
        import numpy as np
        eta, ts = self._eta(x, t)
        pieces, exponent, scale = self._melt
        top = float(eta.max(initial=0.0))
        if top > self.nu:
            outer = _pieces(*_profile_walk(self.problem.alpha, self.nu, top)[:3],
                            exponent, scale)
            pieces = [np.concatenate(pair, axis=-1) for pair in zip(pieces, outer)]
        lower, center, step, coeffs = pieces
        j = np.searchsorted(lower, eta, side="right") - 1
        s = (eta - center[j]) / step[j]
        with np.errstate(over="ignore", invalid="ignore"):
            if derivative:
                coeffs = coeffs[1:] * np.arange(1.0, _PROFILE_ORDER + 1.0)[:, None] / step
            # take gathers a fresh C-ordered array (coeffs[:, j] would be
            # F-ordered), so each order's row is contiguous and the last one
            # may be summed into.
            coeffs = coeffs.take(j, axis=1)
            total = coeffs[-1]
            for c in coeffs[-2::-1]:
                total *= s
                total += c
            power = np.power(ts, (self.problem.alpha - derivative) / 2.0)
            value = (power / (2.0 * math.sqrt(self.problem.d)) if derivative else power) * total
        finite = np.isfinite(value)
        if not finite.all():
            where = "past the front" if (eta[~finite] > self.nu).any() else "in the melt"
            raise OverflowError(f"the field {where} overflows double precision ({self.problem!r})")
        return _result(value)

    def temperature(self, x, t):
        """Similarity temperature u = t**(alpha/2) f(eta) at (x, t), t > 0."""
        return self._field(x, t, False)

    def temperature_flux(self, x, t):
        """Spatial derivative u_x = t**((alpha-1)/2) f'(eta) / (2 sqrt(d))
        of the similarity temperature at (x, t).

        The conductive heat flux is -k times this value."""
        return self._field(x, t, True)


def solve_front(problem: ProblemSpec) -> SimilaritySolution:
    """Solve the variant's front equation for nu and assemble the closed form.

    D is a power series in x with non-negative coefficients, so log D(e^y)
    is convex and G(y) = log(C g / D(e^y)) - (alpha+1) y concave and
    decreasing in y = log x.  A tangent of G lies above it, so a Newton step
    from left of the root lands right of it, and from there Newton's method
    converges monotonically.  The steps start at the root of a model of G
    that sums no series (``_front_g``), with no search for a point right of
    the root, and use the slope and the curvature that come with the
    series.  Where |G G''| <= G'**2 the step is Halley's (Traub 1964),
    y -= 2 G G' / (2 G'**2 - G G''), of third order and between 2/3 and 2
    Newton steps long; elsewhere, far from the root, it is Newton's.  The
    last step is the one from |G| within its rounding (at least 1e-12: G is
    a relative residual, so one stop serves every scale of nu), or the one
    after which the cubic rate predicts a step below eps: the next |G|,
    G**4 / |G_prev|**3, below eps |G'|.  The coefficients are evaluated
    where it lands, and that evaluation gives G again: the solve ends only
    if this |G| is within its rounding, and steps on otherwise, so the
    returned nu meets the stop.  ``SolverReport.iterations`` counts the
    steps, and ``residual`` is expm1(G) = lhs / nu**(alpha+1) - 1 at nu.
    """
    front, start = _front_g(problem)
    y = start()
    g, (slope, curvature), rounding = front(y)
    previous = 0.0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        bend = g * curvature
        if abs(bend) <= slope * slope:
            y -= 2.0 * g * slope / (2.0 * slope * slope - bend)
        else:
            y -= g / slope
        last = abs(g) <= rounding or g**4 <= -_EPS * slope * abs(previous) ** 3
        previous = g
        if last:
            g, (slope, curvature), rounding, coeff_even, coeff_odd = front(y, coefficients=True)
            if abs(g) <= rounding:
                break
        else:
            g, (slope, curvature), rounding = front(y)
    else:
        raise NonConvergenceError(f"front-coefficient iteration did not converge in "
                                  f"{_MAX_ITERATIONS} iterations (last log residual {g})")
    nu = math.exp(y)
    if nu < sys.float_info.min:
        raise OverflowError(f"the front coefficient exp({y}) underflows double precision")
    if math.isinf(coeff_odd) or math.isinf(coeff_even):
        raise OverflowError(
            f"the series coefficients A = {coeff_even}, B = {coeff_odd} overflow "
            f"double precision ({problem!r})"
        )
    report = SolverReport(iterations=iterations, residual=math.expm1(g))
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
    face relation p A + q kappa B = g; odd, and the last where q = 0, are 0
    at x = 0.  From alpha 268 2^n Gamma(n/2+1) overflows: OverflowError."""
    n = problem.alpha
    if n != math.floor(n):
        raise ValueError(f"alpha={n} is not a non-negative integer")
    n = int(n)
    try:
        even = 2.0**n * gamma_fn(n / 2.0 + 1.0) * e_n(n, x)
        odd = 2.0 ** (n - 1) * gamma_fn(n / 2.0 + 0.5) * f_n(n, x)
    except OverflowError:  # math.gamma's range error, from alpha 342
        even = odd = math.inf
    p, q, g = problem.boundary.face_relation()
    kappa = problem.k / (2.0 * math.sqrt(problem.d))
    scaled = (p * odd - q * kappa * even) / g
    if not (0.0 < even < math.inf and 0.0 <= odd < math.inf and 0.0 <= scaled < math.inf):
        raise OverflowError(f"at alpha={n} the repeated-erfc factors leave double range "
                            f"(x={x}, even={even}, odd={odd}, denominator={scaled})")
    return even, odd, scaled


def front_log_residual_integer_alpha(problem: ProblemSpec, x: float) -> float:
    """log C - log((p odd(x) - q kappa even(x)) / g) - (n+1) log x - x^2,
    ``front_log_residual`` for integer alpha = n in repeated-erfc form, with
    log C summed from logs of the data.  Kummer's transformation
    M(a, b, z) = e^z M(b-a, b, -z) makes g_e and g_o e^(x^2) times even and
    odd, which grow only like x^n.  At small x, F_n is its Taylor series
    (``f_n``), so the twin holds down to the least nu.
    """
    y = _front_y(x)
    n, log_d = problem.alpha, math.log(problem.d)
    log_c = (math.log(problem.k) - _LOG2 - 0.5 * log_d - math.log(problem.gamma)
             - n * _LOG2 - 0.5 * (n + 1.0) * log_d)
    return log_c - math.log(_integer_basis(problem, x)[2]) - (n + 1.0) * y - x * x


def temperature_integer_alpha(sol: SimilaritySolution, x: float, t: float) -> float:
    """Temperature for integer alpha = n in repeated-erfc form, for every
    boundary family:

        u = t^(n/2) g (odd(nu) even(eta) - even(nu) odd(eta)) / (p odd(nu) - q kappa even(nu)),

    whose coefficients meet the face relation and u(s(t), t) = 0.  An
    independent cross-check of ``SimilaritySolution.temperature`` to a few
    eps of u(0, t), not near the front at large nu, where its terms cancel to
    a small u (1e-11 of u at 0.9 s(t) for alpha 2 and t0 1e6, nu 2.64).
    """
    problem = sol.problem
    even_nu, odd_nu, denominator = _integer_basis(problem, sol.nu)
    # The argument checks of SimilaritySolution.temperature.
    eta, _ = sol._eta(x, t)
    even, odd, _ = _integer_basis(problem, float(eta))
    return t ** (problem.alpha / 2.0) * (odd_nu * even - even_nu * odd) / denominator
