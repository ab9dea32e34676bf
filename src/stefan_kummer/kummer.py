"""Double-precision special functions used by the melting-front solver.

Provides the confluent hypergeometric function M(a, b, z) of the first
kind, its z-derivative, checked wrappers of ``math.gamma`` and
``math.erfc``, and the repeated integrals i^n erfc used by the
integer-exponent closed forms.

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


def gamma_fn(x: float) -> float:
    """Gamma function for finite x > 0 (``math.gamma``).

    The call sites in this package use positive integers and
    half-integers; other arguments raise ValueError.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def _exp_neg_sq(y: float) -> float:
    # exp(-y*y) split so the large cancellation sits in the exactly
    # representable truncated square.
    yt = math.floor(y * 16.0) / 16.0
    return math.exp(-yt * yt) * math.exp(-(y - yt) * (y + yt))


def erfc(z: float) -> float:
    """Complementary error function for finite z (``math.erfc``)."""
    if not math.isfinite(z):
        raise ValueError("erfc argument must be finite")
    return math.erfc(z)


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
