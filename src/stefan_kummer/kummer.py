"""Double-precision special functions used by the melting-front solver.

Provides the confluent hypergeometric function M(a, b, z) of the first
kind, its z-derivative, the gamma function, the complementary error
function, and the repeated integrals i^n erfc used by the integer-exponent
closed forms.

``kummer_m`` takes floats only.  ``kummer_m_array`` sums the same series
for scalar (a, b) over a numpy array of arguments z, with the same domain
(finite z >= -200), so that a whole grid of field values costs one call;
the solver keeps the float form, which has no per-call array overhead.

All functions here are pure functions of their arguments with no shared
mutable state (the array form allocates its work arrays per call); they
are safe to call from any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonConvergenceError",
    "kummer_m",
    "kummer_m_array",
    "kummer_m_derivative",
    "gamma_fn",
    "erfc",
    "iterated_erfc",
    "e_n",
    "f_n",
]

INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi)

_SERIES_RTOL = 1e-16
_SERIES_QUIET_RUN = 3
_SERIES_TERM_CAP = 10_000
# Most negative argument accepted by kummer_m: beyond this the reflected
# series exceeds the double-precision dynamic range.
_MIN_ARGUMENT = -200.0
# Arrays smaller than this are summed element by element with kummer_m:
# each term of the array series costs about a dozen numpy calls, which
# outweighs the float loop below about 70 elements.
_ARRAY_SERIES_MIN_SIZE = 64


class NonConvergenceError(RuntimeError):
    """An iteration failed to meet its stopping criterion."""


def _check_b(b: float) -> None:
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"parameter b={b} must not be a non-positive integer")


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z).

    M(a, b, z) = sum_{s>=0} (a)_s / ((b)_s s!) z^s with (a)_s the rising
    factorial (DLMF 13.2.2).  Negative arguments are routed through the
    reflection M(a, b, z) = exp(z) M(b-a, b, -z) so the series is only
    ever summed at z >= 0, where its terms are eventually single-signed
    and the sum is free of catastrophic cancellation.

    Relative accuracy is ~1e-13 or better on the ranges this package
    exercises: negative a occurs only together with z <= 0 (handled by the
    reflection), and nonnegative a is accurate up to |z| = 100.  For
    negative a together with positive z the truncating polynomial part
    alternates and accuracy degrades gradually (a few 1e-12 at a = -10,
    z = 9).  Arguments below -200 raise ValueError; very large positive
    arguments overflow to inf.

    Takes floats only: an array z of more than one element raises
    TypeError.  ``kummer_m_array`` evaluates an array of arguments.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError("kummer_m arguments must be finite")
    _check_b(b)
    if z < _MIN_ARGUMENT:
        raise ValueError(f"argument z={z} below supported range ({_MIN_ARGUMENT})")
    if z < 0.0:
        return math.exp(z) * _m_series(b - a, b, -z)
    return _m_series(a, b, z)


def _m_series(a: float, b: float, z: float) -> float:
    # Term recurrence term_{s+1} = term_s * (a+s) / ((b+s)(s+1)) * z.  The
    # relative stop requires three consecutive small terms so an incidental
    # zero term (integer a passing through -s) cannot end the sum early.
    term = 1.0
    total = 1.0
    quiet = 0
    for s in range(_SERIES_TERM_CAP):
        term *= (a + s) / ((b + s) * (s + 1.0)) * z
        total += term
        if math.isinf(total):
            return total
        if abs(term) <= _SERIES_RTOL * abs(total):
            quiet += 1
            if quiet >= _SERIES_QUIET_RUN:
                return total
        else:
            quiet = 0
    raise NonConvergenceError(
        f"series for M({a}, {b}, {z}) did not settle within {_SERIES_TERM_CAP} terms"
    )


def float_map(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each element as a Python float.

    For libm functions in place of their numpy ufuncs: numpy's vectorised
    exp and power differ from libm in the last bit for about one argument
    in twenty, and the array forms here must reproduce the float forms
    exactly.
    """
    mapped = list(map(fn, values.ravel().tolist()))
    return np.array(mapped, dtype=float).reshape(values.shape)


def kummer_m_array(a: float, b: float, z) -> np.ndarray:
    """M(a, b, z) for float a, b over every element of an array z.

    Each element is summed as ``kummer_m`` sums it: the same reflection
    for z < 0, the same term recurrence and the same stop, applied per
    element, so an element leaves the sum as soon as its own last three
    terms are small.  The results agree with ``kummer_m`` bit for bit,
    so the accuracy and the domain are those of ``kummer_m``: any element
    below -200 or not finite raises ValueError, and very large positive
    elements overflow to inf.  Arrays of fewer than 64 elements are
    summed by ``kummer_m`` itself, which is faster at that size.  Returns
    a float array of z's shape (0-d for a 0-d z).
    """
    z = np.asarray(z, dtype=float)
    if not (math.isfinite(a) and math.isfinite(b) and np.isfinite(z).all()):
        raise ValueError("kummer_m arguments must be finite")
    _check_b(b)
    if z.size and z.min() < _MIN_ARGUMENT:
        raise ValueError(f"argument z={z.min()} below supported range ({_MIN_ARGUMENT})")
    flat = z.ravel()
    if flat.size < _ARRAY_SERIES_MIN_SIZE:
        return np.array([kummer_m(a, b, v) for v in flat.tolist()]).reshape(z.shape)
    out = np.empty(flat.shape)
    neg = flat < 0.0
    pos = ~neg
    out[neg] = float_map(math.exp, flat[neg]) * _m_series_array(b - a, b, -flat[neg])
    out[pos] = _m_series_array(a, b, flat[pos])
    return out.reshape(z.shape)


def _m_series_array(a: float, b: float, z: np.ndarray) -> np.ndarray:
    # _m_series over a 1-d array: the live arrays hold the elements still
    # summing, and an element is copied out and dropped once it stops.
    out = np.ones(z.shape)
    if not z.size:
        return out
    live = np.arange(z.size)
    term = np.ones(z.shape)
    total = np.ones(z.shape)
    quiet = np.zeros(z.shape, dtype=np.intp)
    # Overflow to inf is a result, as in float arithmetic, not a fault.
    with np.errstate(over="ignore"):
        for s in range(_SERIES_TERM_CAP):
            term *= (a + s) / ((b + s) * (s + 1.0)) * z
            total += term
            quiet += 1
            quiet *= np.abs(term) <= _SERIES_RTOL * np.abs(total)
            done = (quiet >= _SERIES_QUIET_RUN) | np.isinf(total)
            if done.any():
                out[live[done]] = total[done]
                keep = ~done
                live, z, term, total = live[keep], z[keep], term[keep], total[keep]
                quiet = quiet[keep]
                if not live.size:
                    return out
    raise NonConvergenceError(
        f"series for M({a}, {b}, {z[0]}) did not settle within {_SERIES_TERM_CAP} terms"
    )


def kummer_m_derivative(a: float, b: float, z: float) -> float:
    """d/dz M(a, b, z) = (a/b) M(a+1, b+1, z)  (DLMF 13.3.15)."""
    _check_b(b)
    if a == 0.0:
        return 0.0
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)


# Lanczos approximation, g = 7, nine terms.  Relative error below 1e-13
# for positive real arguments.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments (Lanczos approximation).

    Only x > 0 is supported; the call sites in this package use positive
    integers and half-integers, so the reflection formula is omitted.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x < 0.5:
        # Shift into the Lanczos range via Gamma(x) = Gamma(x+1)/x.
        return gamma_fn(x + 1.0) / x
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


# Rational approximations for erf/erfc after W. J. Cody, Math. Comp. 23
# (1969) 631-637; the same coefficient sets used by the classic netlib
# implementations.  Relative error below 1e-15 in double precision.
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERFC_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERFC_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERFC_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERFC_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)


def _erf_small(y: float) -> float:
    # |y| <= 0.46875
    ysq = y * y
    xnum = _ERF_A[4] * ysq
    xden = ysq
    for i in range(3):
        xnum = (xnum + _ERF_A[i]) * ysq
        xden = (xden + _ERF_B[i]) * ysq
    return y * (xnum + _ERF_A[3]) / (xden + _ERF_B[3])


def _exp_neg_sq(y: float) -> float:
    # exp(-y*y) split so the large cancellation sits in the exactly
    # representable truncated square.
    yt = math.floor(y * 16.0) / 16.0
    return math.exp(-yt * yt) * math.exp(-(y - yt) * (y + yt))


def _erfc_mid(y: float) -> float:
    # 0.46875 <= y <= 4
    xnum = _ERFC_C[8] * y
    xden = y
    for i in range(7):
        xnum = (xnum + _ERFC_C[i]) * y
        xden = (xden + _ERFC_D[i]) * y
    return _exp_neg_sq(y) * (xnum + _ERFC_C[7]) / (xden + _ERFC_D[7])


def _erfc_large(y: float) -> float:
    # y > 4
    ysq = 1.0 / (y * y)
    xnum = _ERFC_P[5] * ysq
    xden = ysq
    for i in range(4):
        xnum = (xnum + _ERFC_P[i]) * ysq
        xden = (xden + _ERFC_Q[i]) * ysq
    result = ysq * (xnum + _ERFC_P[4]) / (xden + _ERFC_Q[4])
    return _exp_neg_sq(y) * (INV_SQRT_PI - result) / y


def erfc(z: float) -> float:
    """Complementary error function."""
    if not math.isfinite(z):
        raise ValueError("erfc argument must be finite")
    if z < 0.0:
        return 2.0 - erfc(-z)
    if z < 0.46875:
        return 1.0 - _erf_small(z)
    if z <= 4.0:
        return _erfc_mid(z)
    if z > 26.6:
        return 0.0  # underflows double precision
    return _erfc_large(z)


def iterated_erfc(n: int, z: float) -> float:
    """n-times repeated integral of the complementary error function.

    i^0 erfc = erfc and i^n erfc(z) = integral_z^inf i^{n-1} erfc(t) dt,
    evaluated with the standard three-term recurrence

        i^n erfc(z) = -(z/n) i^{n-1} erfc(z) + (1/(2n)) i^{n-2} erfc(z)

    seeded by i^{-1} erfc(z) = (2/sqrt(pi)) exp(-z^2)  (DLMF 7.18).
    """
    if n < 0:
        raise ValueError(f"repetition count must be >= 0, got {n}")
    if not math.isfinite(z):
        raise ValueError("iterated_erfc argument must be finite")
    prev = 2.0 * INV_SQRT_PI * _exp_neg_sq(abs(z))
    cur = erfc(z)
    for m in range(1, n + 1):
        prev, cur = cur, -(z / m) * cur + prev / (2.0 * m)
    return cur


def e_n(n: int, z: float) -> float:
    """Even combination [i^n erfc(z) + i^n erfc(-z)] / 2."""
    return 0.5 * (iterated_erfc(n, z) + iterated_erfc(n, -z))


def f_n(n: int, z: float) -> float:
    """Odd combination [i^n erfc(-z) - i^n erfc(z)] / 2."""
    return 0.5 * (iterated_erfc(n, -z) - iterated_erfc(n, z))
