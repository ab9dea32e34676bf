"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: the series is
summed directly (no reflection), the front equation is written out from
the boundary's face relation, roots are found by plain bisection, and the
alpha = 0 closed forms are written out with math.erf.  The mpmath
references write the front equation and the closed form out with each
family's own data.
"""

from __future__ import annotations

import math

from stefan_kummer import Convective, ProblemSpec, Temperature


def direct_series_m(a: float, b: float, z: float, terms: int = 400) -> float:
    """M(a, b, z) by direct term-by-term summation (exactly rounded via
    fsum), with no reflection for negative arguments."""
    term = 1.0
    acc = [term]
    for s in range(terms):
        term *= (a + s) / ((b + s) * (s + 1.0)) * z
        acc.append(term)
    return math.fsum(acc)


def direct_front_residual(problem: ProblemSpec, x: float) -> float:
    """C g / (p g_o - q kappa g_e) - x^(alpha+1), the front equation of
    the face relation p A + q J = g, with g_e = M(alpha/2+1/2, 1/2, x^2)
    and g_o = x M(alpha/2+1, 3/2, x^2) summed directly, kappa = k / (2 sqrt d)
    and C = kappa / (gamma 2^alpha d^((alpha+1)/2))."""
    alpha, d = problem.alpha, problem.d
    p, q, g = problem.boundary.face_relation()
    kappa = problem.k / (2.0 * math.sqrt(d))
    c_front = kappa / (problem.gamma * 2.0**alpha * d ** ((alpha + 1.0) / 2.0))
    g_e = direct_series_m(alpha / 2.0 + 0.5, 0.5, x * x)
    g_o = x * direct_series_m(alpha / 2.0 + 1.0, 1.5, x * x)
    return c_front * g / (p * g_o - q * kappa * g_e) - x ** (alpha + 1.0)


def bisect_front(problem: ProblemSpec, iters: int = 200) -> float:
    """Unique positive root of the front equation by bracketed bisection."""
    lo, hi = 1e-8, 1.0
    assert direct_front_residual(problem, lo) > 0.0
    while direct_front_residual(problem, hi) > 0.0:
        lo, hi = hi, hi * 2.0
        assert hi < 1e6
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if direct_front_residual(problem, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Root of a decreasing function by bisection on a given bracket."""
    assert fn(lo) > 0.0 > fn(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---- closed forms for the classical (alpha = 0) convective problem ----


def classical_convective_residual(x: float, h0: float, t_inf: float,
                                  gamma: float = 1.0, d: float = 1.0,
                                  k: float = 1.0) -> float:
    """erf-form residual whose root is the alpha = 0 front coefficient."""
    lhs = h0 * t_inf / (gamma * math.sqrt(d)
                        * (1.0 + math.sqrt(d * math.pi) * h0 / k * math.erf(x)))
    return lhs - x * math.exp(x * x)


def classical_convective_temperature(x: float, t: float, nu: float, h0: float,
                                     t_inf: float, d: float = 1.0,
                                     k: float = 1.0) -> float:
    """erf-form temperature of the alpha = 0 convective problem."""
    eta = x / (2.0 * math.sqrt(d * t))
    root_pi_d = math.sqrt(math.pi * d)
    return (root_pi_d * h0 * t_inf * (math.erf(nu) - math.erf(eta))
            / (k + root_pi_d * h0 * math.erf(nu)))


def classical_stefan_residual(x: float, t0: float, gamma: float = 1.0,
                              d: float = 1.0, k: float = 1.0) -> float:
    """erf-form residual for the alpha = 0 temperature-family problem:
    sqrt(pi) x exp(x^2) erf(x) = k t0 / (gamma d)."""
    return k * t0 / (gamma * d) - math.sqrt(math.pi) * x * math.exp(x * x) * math.erf(x)


# ---- extended-precision references (mpmath is passed in by the caller) ----


def _mp_data(mp, problem: ProblemSpec):
    """alpha, gamma, d, k, kappa = k / (2 sqrt d) and (p, q, g) of the face
    relation p A + q kappa B = g as mpf, from each family's own data."""
    b = problem.boundary
    alpha, gamma, d, k = (mp.mpf(v) for v in (problem.alpha, problem.gamma, problem.d, problem.k))
    if isinstance(b, Convective):
        face = mp.mpf(b.h0), -1, mp.mpf(b.h0) * mp.mpf(b.t_inf)
    elif isinstance(b, Temperature):
        face = 1, 0, mp.mpf(b.t0)
    else:
        face = 0, -1, mp.mpf(b.c)
    return alpha, gamma, d, k, k / (2 * mp.sqrt(d)), face


def mp_front_log_residual(mp, problem: ProblemSpec, y):
    """log(C g) - log D(x) - (alpha+1) y at x = e**y, divided by
    1 + |log(C g)|, in extended precision, written with each family's own
    data: positive left of the front equation's root, negative right."""
    alpha, gamma, d, k, kappa, (p, q, g) = _mp_data(mp, problem)
    log_cg = mp.log(kappa * g / (gamma * 2**alpha * d ** ((alpha + 1) / 2)))
    x = mp.exp(y)
    z = x * x
    denom = p * x * mp.hyp1f1(alpha / 2 + 1, 1.5, z) - q * kappa * mp.hyp1f1(alpha / 2 + 0.5, 0.5, z)
    return (log_cg - mp.log(denom) - (alpha + 1) * y) / (1 + abs(log_cg))


def mp_front_root(mp, problem: ProblemSpec, x0):
    """Root of the front equation x**(alpha+1) D(x) = C g near x0, in
    extended precision.  It is found in y = log x, and the residual is
    divided by the size of its terms, so that findroot's absolute checks
    hold for roots far from 1 and where log(C g) is large."""
    # Secant from two points around x0: a default second point x0 + 1/4
    # lies far from small roots.
    y0 = mp.log(mp.mpf(x0))
    return mp.exp(mp.findroot(lambda y: mp_front_log_residual(mp, problem, y),
                              (y0 - mp.mpf(1e-10), y0 + mp.mpf(1e-10))))


def mp_field(mp, problem: ProblemSpec, nu, x, t, digits: int = 40):
    """u and u_x at (x, t) from the closed form
    u = t**(alpha/2) [A M(-alpha/2, 1/2, -eta**2) + B eta M(1/2 - alpha/2, 3/2, -eta**2)],
    with A and B fixed at the front coefficient nu by the face relation and
    u(s(t), t) = 0.  Near the front the two terms are many orders of
    magnitude above u and cancel, so the working precision is doubled until
    ``digits`` digits survive the cancellation in both sums."""
    alpha, _, d, _, kappa, (p, q, g) = _mp_data(mp, problem)
    nu, x, t = mp.mpf(nu), mp.mpf(x), mp.mpf(t)

    def basis(eta):
        """The two basis functions and their eta-derivatives."""
        z = -eta * eta
        return (mp.hyp1f1(-alpha / 2, 0.5, z), eta * mp.hyp1f1(0.5 - alpha / 2, 1.5, z),
                2 * alpha * eta * mp.hyp1f1(1 - alpha / 2, 1.5, z),
                mp.hyp1f1(0.5 - alpha / 2, 0.5, z))

    dps = mp.mp.dps
    while dps < 20000:
        with mp.workdps(dps):
            even_nu, odd_nu, _, _ = basis(nu)
            denominator = p * odd_nu - q * kappa * even_nu
            a, b = g * odd_nu / denominator, -g * even_nu / denominator
            even, odd, even_slope, odd_slope = basis(x / (2 * mp.sqrt(d * t)))
            sums = [(a * even, b * odd), (a * even_slope, b * odd_slope)]
            if all(abs(u + v) >= (abs(u) + abs(v)) * mp.mpf(10) ** (digits - dps)
                   for u, v in sums):
                f, f_slope = (u + v for u, v in sums)
                return (t ** (alpha / 2) * f,
                        t ** ((alpha - 1) / 2) * f_slope / (2 * mp.sqrt(d)))
        dps *= 2
    raise ArithmeticError(f"the closed form cancels to below {digits} digits at x={x}, t={t}")


def mp_weber_field(mp, problem: ProblemSpec, nu, x, t):
    """u at (x, t) from Weber's equation, at any nu.  Under
    g = e**(-eta**2/2) w(sqrt(2) eta) the profile equation
    g'' + 2 eta g' - 2 alpha g = 0 is DLMF 12.2.2 with a = alpha + 1/2, so
    g = e**(-eta**2/2) [U(a, r eta) U(a, -r nu) - U(a, r nu) U(a, -r eta)],
    r = sqrt(2), vanishes at nu.  U(a, x) decays and U(a, -x) grows, so the
    two terms cancel only within about 1/nu of the front, not by e**(nu**2)
    as the Kummer terms of ``mp_field`` do.  The Wronskian (DLMF 12.2.11)
    gives g'(nu) = -2 sqrt(pi) e**(-nu**2/2) / Gamma(alpha + 1), and f is g
    scaled to the Stefan slope f'(nu) = -(gamma / k) sqrt(d) (2 nu sqrt(d))**(alpha+1).
    The face relation is not used: it holds where nu is the front's root."""
    alpha, gamma, d, k, _, _ = _mp_data(mp, problem)
    nu, x, t = mp.mpf(nu), mp.mpf(x), mp.mpf(t)
    a, r = alpha + mp.mpf(0.5), mp.sqrt(2)
    eta = x / (2 * mp.sqrt(d * t))
    g = mp.exp(-eta**2 / 2) * (mp.pcfu(a, r * eta) * mp.pcfu(a, -r * nu)
                               - mp.pcfu(a, r * nu) * mp.pcfu(a, -r * eta))
    g_slope = -2 * mp.sqrt(mp.pi) * mp.exp(-nu**2 / 2) / mp.gamma(alpha + 1)
    f_slope = -gamma / k * mp.sqrt(d) * (2 * nu * mp.sqrt(d)) ** (alpha + 1)
    return t ** (alpha / 2) * g * f_slope / g_slope
