"""Double-precision special functions used by the melting-front solver.

Provides the confluent hypergeometric function M(a, b, z) of the first
kind, its z-derivative, the logarithm of the scaled function e^-z M
(with its first two log-derivatives) for a, b > 0 and z >= 0, which unlike
M never overflows and whose positive series is summed by a loop of its own,
checked wrappers of ``math.gamma`` and ``math.erfc``, and the repeated
integrals i^n erfc used by the integer-exponent closed forms.

The series loops count their terms in a float rather than in range's int:
CPython specializes float-float arithmetic only, and a float holds every
count exactly, so the sums are the same to the bit and run faster.  Each
series is summed once: a running sum past 2**500 is rescaled in place, and
overflow is read off that sum, not predicted before it.

All functions here take floats and are pure functions of their
arguments with no shared mutable state; they are safe to call from any
number of threads.
"""

from __future__ import annotations

import math

__all__ = [
    "NonConvergenceError",
    "kummer_m",
    "kummer_m_derivative",
    "log_kummer_m_scaled",
    "gamma_fn",
    "erfc",
    "iterated_erfc",
    "e_n",
    "f_n",
]

INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi)

_SERIES_RTOL = 1e-16
# Above z = 30 a series whose first DLMF 13.7.2 ratio is at least 1
# (a**2 >~ z) is summed term by term, and its tail bound needs a term ratio
# of at most 1/2: about 2z + 2a terms, past 10_000 for front roots nu >~ 70.
_SERIES_TERM_CAP = 1_000_000
# Most negative argument accepted by kummer_m: beyond this the reflected
# series exceeds the double-precision dynamic range.
_MIN_ARGUMENT = -200.0
_LOG_2 = math.log(2.0)
# A sum of positive terms past 2**_MAX_EXPONENT is M = inf: no reflection
# factor e^z with z >= _MIN_ARGUMENT brings it back below 2**1024.
_MAX_EXPONENT = 1024.0 - _MIN_ARGUMENT / _LOG_2


class NonConvergenceError(RuntimeError):
    """An iteration failed to meet its stopping criterion."""


def _check_args(a: float, b: float, z: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError("kummer_m arguments must be finite")
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"parameter b={b} must not be a non-positive integer")


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z).

    M(a, b, z) = sum_{s>=0} (a)_s / ((b)_s s!) z^s with (a)_s the rising
    factorial (DLMF 13.2.2).  Negative arguments are routed through the
    reflection M(a, b, z) = exp(z) M(b-a, b, -z) so the series is only
    ever summed at z >= 0, where its terms are eventually single-signed
    and the sum is free of catastrophic cancellation.

    Relative accuracy is ~1e-13 or better for a >= 0 up to |z| = 100 and
    for negative a at z <= 0; for negative a at positive z the series
    alternates and accuracy degrades (a few 1e-12 at a = -10, z = 9).
    Arguments below -200 raise ValueError, and past double range (near
    z = 710 for moderate a and b) the value is +-inf, returned as soon as
    a sum with the sign of its one-signed tail shows it: see
    ``_m_series``.  Takes floats only: an array z of more than one element
    raises TypeError.
    """
    _check_args(a, b, z)
    if z < _MIN_ARGUMENT:
        raise ValueError(f"argument z={z} below supported range ({_MIN_ARGUMENT})")
    if z < 0.0:
        m, e = _m_series(b - a, b, -z)
        m *= math.exp(z)
    else:
        m, e = _m_series(a, b, z)
    return math.ldexp(m, e) if math.frexp(m)[1] + e <= 1024 else math.copysign(math.inf, m)


def log_kummer_m_scaled(a: float, b: float, z: float) -> tuple[float, float, float]:
    """(L, z L', d(z L')/dy) with L = log(e^-z M(a, b, z)) = log M - z and
    y = log(z) / 2, for a, b > 0 and finite z >= 0, where every term of the
    series is positive.

    Above z = 30 the large-argument expansion of e^-z M = M(b-a, b, -z)
    (DLMF 13.2.39, 13.7.2)

        L = lgamma(b) - lgamma(a) + (a-b) log z + log S,
        S = sum_s (1-a)_s (b-a)_s / (s! z**s),

    is summed while its terms fall, and taken where the last of them and a
    bound on the exponentially small part it omits are below 1e-16 of S.
    Elsewhere the series of M, whose terms are all positive, is summed with
    the steps, the stop and the rescale by 2**-500 of ``_m_series``, and z
    subtracted.  L is good to about 1e-16 of max(1, |L|) above z = 30 and
    of max(1, z) below, and z L' + z = z M'/M to about 1e-14 relative.
    d(z L')/dy sums no more terms: see ``_curvature``.

    A sum still inf after its rescale holds a term past double range, and
    OverflowError names the series at once.  Every ratio before the cap is
    at least z min(1, a/b) / cap; where that is clearly above 1/2, no term
    can round to 0 and no tail bound can hold before the cap, so the loop
    is skipped and NonConvergenceError says the series did not settle.
    """
    if not (a > 0.0 and b > 0.0 and 0.0 <= z < math.inf):
        raise ValueError(
            f"log_kummer_m_scaled needs a, b > 0 and finite z >= 0, got {(a, b, z)}")
    terms = _SERIES_TERM_CAP
    if z > 30.0:
        term, total, slope, s = 1.0, 1.0, 0.0, 0.0
        for _ in range(1, _SERIES_TERM_CAP):
            s += 1.0
            ratio = (s - a) * (s - 1.0 + b - a) / (s * z)
            if not abs(ratio) < 1.0:
                break
            term *= ratio
            total += term
            slope += s * term
            if abs(term) <= _SERIES_RTOL * total:
                break
        log_z = math.log(z)
        # The omitted part is at most Gamma(a) Gamma(1+a-b) e**-z z**(b-2a) of
        # the kept one (Gamma(1+a-b) bounds 1/|Gamma(b-a)| for a > b, 1 for
        # a <= b): large near a = 0, and 1e-14 at a = 1, z = 30, where S = 1.
        omitted = (math.lgamma(a) + (math.lgamma(1.0 + a - b) if a > b else 0.0)
                   - z + (b - 2.0 * a) * log_z)
        if abs(term) <= _SERIES_RTOL * total and omitted < math.log(_SERIES_RTOL):
            zl = a - b - slope / total
            return (math.lgamma(b) - math.lgamma(a) + (a - b) * log_z + math.log(total),
                    zl, _curvature(a, b, z, zl))
        least = 0.51 * terms  # ratio 1/2, with room for rounding
        if z >= least and z * min(1.0, a / b) >= least:
            terms = 0
    term = total = 1.0
    slope = s = exponent = 0.0
    for _ in range(terms):
        n = s + 1.0
        term *= (a + s) / ((b + s) * n) * z
        s = n
        total += term
        slope += n * term
        if not total < 2.0**500:
            total, term, slope = total * 2.0**-500, term * 2.0**-500, slope * 2.0**-500
            exponent += 500.0
            if total == math.inf:
                raise OverflowError(
                    f"term {n:.0f} of the series for M({a}, {b}, {z}) leaves double range")
        if term <= _SERIES_RTOL * total and (term == 0.0 or (
                z * (a + n) <= 0.5 * (b + n) * (n + 1.0) if a >= b
                else z <= 0.5 * (n + 1.0))):
            zl = slope / total - z
            return math.log(total) + exponent * _LOG_2 - z, zl, _curvature(a, b, z, zl)
    raise NonConvergenceError(
        f"series for M({a}, {b}, {z}) did not settle within {_SERIES_TERM_CAP} terms")


def _curvature(a: float, b: float, z: float, zl: float) -> float:
    """d(z L')/dy at y = log(z) / 2 from l = z L' alone.  With the moments
    S_k = sum_n n**k t_n of the terms of M, l = S_1/S_0 - z and
    d(z L')/dy = 2 (S_2/S_0 - (S_1/S_0)**2) - 2z, and Kummer's equation
    z M'' + (b - z) M' - a M = 0 (DLMF 13.2.1) gives
    S_2 = a z S_0 + (1 - b + z) S_1.  Written in l, the terms in z**2
    cancel: 2 (z (a - b - l) + (1 - b) l - l**2).  The rounding of l, which
    is O(z) where the expansion is not taken, enters times z."""
    return 2.0 * (z * (a - b - zl) + (1.0 - b) * zl - zl * zl)


def _m_series(a: float, b: float, z: float) -> tuple[float, int]:
    """(m, e) with M(a, b, z) = m 2**e, summed from term_n = term_{n-1} *
    (a+n-1) / ((b+n-1) n) * z for z >= 0.  The sum stops at the first
    term_n that is within 1e-16 of the sum and bounds the tail after it:
    every later term has its sign, because a + n > 0 and b + n > 0 or
    term_n is 0 (integer a <= 0 ends the series), and every later ratio is
    at most 1/2, because it is at most z (a+n) / ((b+n)(n+1)) for a >= b
    and z / (n+1) for a < b.  A small term before the peak (tiny a) or in
    an alternating run (negative a) does not end the sum.  A sum past
    2**500 is divided by 2**500 together with the term, and e counts those
    shifts, so no partial sum overflows; below that e = 0 and m is the
    plain sum.

    Where a + n > 0 and b + n > 0 the tail is one-signed, so a sum with
    the sign of its term is past 2**e for good; once e passes
    _MAX_EXPONENT, M and every M e^z that ``kummer_m`` forms from it are
    infinite, and (m, e) is returned at once.
    """
    term = total = 1.0
    exponent = 0
    s = 0.0
    for _ in range(_SERIES_TERM_CAP):
        n = s + 1.0
        term *= (a + s) / ((b + s) * n) * z
        s = n
        total += term
        if not -2.0**500 < total < 2.0**500:
            total, term = total * 2.0**-500, term * 2.0**-500
            exponent += 500
            if exponent > _MAX_EXPONENT and term * total > 0.0 and a + n > 0.0 and b + n > 0.0:
                return total, exponent
        if abs(term) <= _SERIES_RTOL * abs(total) and (term == 0.0 or (
                a + n > 0.0 and b + n > 0.0 and (
                    z * (a + n) <= 0.5 * (b + n) * (n + 1.0) if a >= b
                    else z <= 0.5 * (n + 1.0)))):
            return total, exponent
    raise NonConvergenceError(
        f"series for M({a}, {b}, {z}) did not settle within {_SERIES_TERM_CAP} terms"
    )


def kummer_m_derivative(a: float, b: float, z: float) -> float:
    """d/dz M(a, b, z) = (a/b) M(a+1, b+1, z)  (DLMF 13.3.15)."""
    _check_args(a, b, z)
    if a == 0.0:
        return 0.0
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)


def gamma_fn(x: float) -> float:
    """Gamma function for finite x > 0 (``math.gamma``).

    Every finite x > 0 is accepted, and other arguments raise ValueError.
    From about x = 171.6, where Gamma passes double range, ``math.gamma``
    raises OverflowError.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def erfc(z: float) -> float:
    """Complementary error function for finite z (``math.erfc``)."""
    if not math.isfinite(z):
        raise ValueError("erfc argument must be finite")
    return math.erfc(z)


def iterated_erfc(n: int, z: float) -> float:
    """n-times repeated integral of the complementary error function.

    i^0 erfc = erfc and i^n erfc(z) = integral_z^inf i^{n-1} erfc(t) dt
    satisfy i^n = -(z/n) i^{n-1} + (1/(2n)) i^{n-2}  (DLMF 7.18).  Run
    forward from i^{-1} erfc(z) = (2/sqrt(pi)) exp(-z^2), this recurrence
    magnifies rounding errors by about exp(2 z sqrt(2n)); past
    z sqrt(2n) = 2 it runs backward instead (Miller's algorithm, Gautschi,
    Math. Comp. 15, 1961), on r_m = i^m / i^{m-1} = 1 / (2z + 2(m+1) r_{m+1})
    from r = 0 at an order top where exp(-2z (sqrt(2 top) - sqrt(2n))) is
    below 1e-16, plus 10 for small n at large z, where that estimate runs
    short.  Then i^n erfc(z) = erfc(z) r_1 ... r_n.
    """
    if n < 0:
        raise ValueError(f"repetition count must be >= 0, got {n}")
    if not math.isfinite(z):
        raise ValueError("iterated_erfc argument must be finite")
    if z * math.sqrt(2.0 * n) > 2.0:
        top = int(0.5 * (math.sqrt(2.0 * n) + 19.0 / z) ** 2) + 10
        r, value = 0.0, erfc(z)
        for m in range(top, 0, -1):
            r = 1.0 / (2.0 * z + 2.0 * (m + 1) * r)
            if m <= n:
                value *= r
        return value
    prev = 2.0 * INV_SQRT_PI * math.exp(-z * z)
    cur = erfc(z)
    for m in range(1, n + 1):
        prev, cur = cur, -(z / m) * cur + prev / (2.0 * m)
    return cur


def e_n(n: int, z: float) -> float:
    """Even combination [i^n erfc(z) + i^n erfc(-z)] / 2."""
    return 0.5 * (iterated_erfc(n, z) + iterated_erfc(n, -z))


def f_n(n: int, z: float) -> float:
    """Odd combination [i^n erfc(-z) - i^n erfc(z)] / 2.

    The difference cancels at small z, to about eps / (z sqrt(2n)) of the
    result, and is 0 below z = 1e-16.  Where z sqrt(2n+1) < 1/2 the odd
    part of the power series of i^n erfc (DLMF 7.18),
    F_n(z) = sum_{k odd} z^k / (2^(n-k) k! Gamma(1 + (n-k)/2)), is summed
    instead, from term_{k+2} = term_k 2 (n-k) z^2 / ((k+1)(k+2)): each term
    is below half the last, and for odd n the series ends at k = n.  Past
    n = 342, where Gamma((n+1)/2) overflows, the result underflows to 0.
    """
    if abs(z) * math.sqrt(2.0 * n + 1.0) < 0.5:
        term = math.ldexp(z, 1 - n) / math.gamma(0.5 * n + 0.5) if n <= 342 else 0.0
        total, k = term, 1
        while abs(term) > _SERIES_RTOL * abs(total):
            term *= 2.0 * (n - k) * z * z / ((k + 1) * (k + 2))
            total += term
            k += 2
        return total
    return 0.5 * (iterated_erfc(n, -z) - iterated_erfc(n, z))
