import math
import random
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefan_kummer import (
    NonConvergenceError,
    e_n,
    erfc,
    f_n,
    gamma_fn,
    iterated_erfc,
    kummer_m,
    kummer_m_derivative,
)
from stefan_kummer import kummer as kummer_module
from stefan_kummer.kummer import log_kummer_m_scaled

from _oracles import direct_series_m

A_GRID = (-2.5, -0.2, 0.7, 1.5)
B_GRID = (0.5, 1.5)
Z_GRID = [z * 0.5 for z in range(-18, 19)]  # [-9, 9] in 0.5 steps


def test_value_at_zero_argument():
    assert kummer_m(-0.2, 0.5, 0.0) == 1.0


def test_zero_first_parameter_is_one():
    assert kummer_m(0.0, 0.5, 3.7) == 1.0


def test_equal_parameters_reduce_to_exp():
    # M(a, a, z) = exp(z); checked against both math.exp and a direct
    # 200-term summation of the series.
    val = kummer_m(1.0, 1.0, 2.0)
    assert val == pytest.approx(math.exp(2.0), rel=1e-14)
    assert val == pytest.approx(direct_series_m(1.0, 1.0, 2.0, terms=200), rel=1e-14)
    # Next to overflow M is summed, not taken as inf from its largest term,
    # also where a and b near 1e17 put rounding of some 500 into that
    # term's log (mpmath: M(9.75e16, 9.74e16, 601) = 1.90091214959175561e261).
    assert kummer_m(1.0, 1.0, 709.0) == pytest.approx(math.exp(709.0), rel=1e-13)
    assert kummer_m(9.75e16, 9.74e16, 601.0) == pytest.approx(1.90091214959175561e261, rel=1e-13)
    assert kummer_m(1e16, 1e16, 709.0) == pytest.approx(math.exp(709.0), rel=1e-13)


def test_negative_argument_vs_direct_summation():
    # The production path reflects to a positive argument; the oracle sums
    # the alternating series directly.
    assert kummer_m(-0.2, 0.5, -0.25) == pytest.approx(
        direct_series_m(-0.2, 0.5, -0.25), rel=1e-14
    )


def test_reflection_against_direct_summation_grid():
    for a in A_GRID:
        for b in B_GRID:
            for z in Z_GRID:
                mine = kummer_m(a, b, z)
                ref = direct_series_m(a, b, z)
                assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref)), (a, b, z)


def test_reflection_identity_grid():
    # Consistency of the two evaluation routes on the full grid.
    for a in A_GRID:
        for b in B_GRID:
            for z in Z_GRID:
                lhs = kummer_m(a, b, z)
                rhs = math.exp(z) * kummer_m(b - a, b, -z)
                assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs)), (a, b, z)


def test_accuracy_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a_values = (-10.0, -5.5, -2.5, -0.2, 0.0, 0.7, 1.5, 5.0, 10.0)
    z_values = [z * 1.5 for z in range(-6, 7)]
    for a in a_values:
        for b in B_GRID:
            for z in z_values + ([16.0, 36.0, 64.0, 100.0] if a >= 0.0 else []):
                ref = float(mp.hyp1f1(a, b, z))
                err = abs(kummer_m(a, b, z) - ref) / max(1.0, abs(ref))
                # Negative a with positive z alternates and cancels; that
                # combination never occurs on the solution paths.
                tol = 5e-12 if (a < 0.0 and z > 0.0) else 1e-12
                assert err <= tol, (a, b, z, err)


def test_log_form_against_arbitrary_precision():
    # Log-uniform a and z on both sides of the switch to the large-argument
    # expansion, which runs only where it is accurate.
    mp = pytest.importorskip("mpmath")
    r = random.Random(3)
    above = summed = 0
    with mp.workdps(40):
        for _ in range(400):
            a = math.exp(r.uniform(math.log(1e-3), math.log(26.0)))
            b = r.choice((0.5, 1.5))
            z = math.exp(r.uniform(math.log(1e-6), math.log(1e5)))
            above += z > 30.0
            scaled, zm, curvature = log_kummer_m_scaled(a, b, z)
            summed += z > 30.0 and (scaled, zm, curvature) == _series_branch(a, b, z)[0]
            m = mp.hyp1f1(a, b, z)
            ref_log = float(mp.log(m))
            ref_scaled = float(mp.log(m) - z)
            ref_zm = float(z * mp.mpf(a) / b * mp.hyp1f1(mp.mpf(a) + 1, mp.mpf(b) + 1, z) / m)
            assert abs(scaled + z - ref_log) <= 1e-14 * max(1.0, abs(ref_log)), (a, b, z)
            assert abs(scaled - ref_scaled) <= 1e-14 * max(1.0, abs(ref_scaled)), (a, b, z)
            assert abs(zm + z - ref_zm) <= 1e-13 * ref_zm, (a, b, z)
            # 1e-12 of the front residual's G'', which holds -4z.
            ref_curvature = _mp_curvature(mp, a, b, z)
            assert abs(curvature - ref_curvature) <= 1e-12 * (1.0 + z), (a, b, z)
    assert 0 < summed < above


def _series_branch(a, b, z):
    """(L, z L', d(z L')/dy) of log_kummer_m_scaled summed by the rescaled
    series alone, and that series' count e of shifts by 2**500."""
    m, zm, e = _int_counter_m_series(a, b, z)
    zl = zm / m - z
    return (math.log(m) + e * math.log(2.0) - z, zl, kummer_module._curvature(a, b, z, zl)), e


def _log_uniform(r, lo, hi):
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def _mp_curvature(mp, a, b, z):
    """d(z L')/dy, y = log(z) / 2, of L = log M(a, b, z) - z, from the
    moments z M' and z (z M')' = z M' + z**2 M'' of the series."""
    a, b, z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
    m = mp.hyp1f1(a, b, z)
    zm = z * a / b * mp.hyp1f1(a + 1, b + 1, z)
    z2m = zm + z * z * a * (a + 1) / (b * (b + 1)) * mp.hyp1f1(a + 2, b + 2, z)
    return float(2 * (z2m / m - (zm / m) ** 2) - 2 * z)


def test_series_stop_against_arbitrary_precision():
    # The series stops at the first small term whose tail is below it.  At
    # a, b > 0 every term is positive; at negative a the terms alternate
    # until a + n > 0, and a small term there must not end the sum.
    mp = pytest.importorskip("mpmath")
    r = random.Random(4)
    cases = []
    for _ in range(150):
        b = r.choice(B_GRID)
        cases += [
            # the solve's series: a in [1e-3, 26], z in [0, 30]
            (_log_uniform(r, 1e-3, 26.0), b, _log_uniform(r, 1e-6, 30.0)),
            (b * _log_uniform(r, 1e-3, 1.0), b, _log_uniform(r, 1e-6, 30.0)),  # a < b
            # negative a at z >= 0, as in criterion C3, and integer a <= 0,
            # whose series ends at an exact zero term
            (-_log_uniform(r, 0.05, 10.0), b, _log_uniform(r, 1e-6, 9.0)),
            (-float(r.randint(0, 10)), b, _log_uniform(r, 1e-6, 9.0)),
        ]
    cases += [(a, 0.5, 0.0) for a in (1e-3, 0.7, -2.5, -3.0)]
    with mp.workdps(40):
        for a, b, z in cases:
            ref = mp.hyp1f1(a, b, z)
            if a > 0.0:
                # every term positive: relative to M itself
                assert abs(kummer_m(a, b, z) - ref) <= 1e-14 * ref, (a, b, z)
                scaled, zm, _ = log_kummer_m_scaled(a, b, z)
                ref_log = mp.log(ref)
                assert abs(scaled + z - ref_log) <= 1e-14 * max(1.0, abs(ref_log)), (a, b, z)
                ref_zm = z * mp.mpf(a) / b * mp.hyp1f1(mp.mpf(a) + 1, b + 1, z) / ref
                assert abs(zm + z - ref_zm) <= 1e-13 * max(ref_zm, 1e-300), (a, b, z)
            else:
                # the tolerance of negative a at positive z above
                assert abs(kummer_m(a, b, z) - ref) <= 5e-12 * max(1.0, abs(ref)), (a, b, z)


def test_series_stop_waits_for_the_peak():
    # At tiny a the first terms are below 1e-16 of the sum while they still
    # grow: three such terms in a row ended the sum at 1.0 here.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for a, b, z in ((1e-20, 0.5, 30.0), (1e-18, 1.5, 20.0), (-1e-20, 0.5, 30.0)):
            ref = float(mp.hyp1f1(a, b, z))
            assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-15, abs=0.0), (a, b, z)
    assert kummer_m(1e-20, 0.5, 30.0) > 1.0 + 3e-8


def test_terminating_series_stops_at_its_zero_term(monkeypatch):
    # M(-3, 1/2, z) = 1 - 6z + 4z^2 - 8z^3/15: term 4 is exactly 0, and the
    # sum ends there, within a cap of 5 terms.
    monkeypatch.setattr(kummer_module, "_SERIES_TERM_CAP", 5)
    for z in (0.0, 0.3, 2.0, 7.5):
        poly = 1.0 - 6.0 * z + 4.0 * z * z - 8.0 * z**3 / 15.0
        scale = 1.0 + 6.0 * z + 4.0 * z * z + 8.0 * z**3 / 15.0
        assert abs(kummer_m(-3.0, 0.5, z) - poly) <= 4e-16 * scale, z
    # reflected: M(3/2, 1/2, -z) = e^-z M(-1, 1/2, z) = e^-z (1 - 2z)
    assert kummer_m(1.5, 0.5, -2.0) == pytest.approx(math.exp(-2.0) * -3.0, rel=1e-15)


def test_odd_combination_at_small_argument():
    # The difference of the two repeated erfc values cancelled to 0 below
    # z = 1e-16 and lost digits like eps / z above; the Taylor series in z
    # holds to the last digits.  Reference: the Kummer form
    # z M(1/2 - n/2, 3/2, -z^2) / (2^(n-1) Gamma(n/2 + 1/2)).
    mp = pytest.importorskip("mpmath")
    r = random.Random(8)
    with mp.workdps(40):
        for _ in range(300):
            n = r.randint(0, 50)
            z = _log_uniform(r, 1e-250, 0.5 / math.sqrt(2.0 * n + 1.0))
            zz = mp.mpf(z)
            ref = (zz * mp.hyp1f1(mp.mpf(1 - n) / 2, 1.5, -zz * zz)
                   / (mp.mpf(2) ** (n - 1) * mp.gamma(mp.mpf(n + 1) / 2)))
            assert f_n(n, z) == pytest.approx(float(ref), rel=1e-15, abs=0.0), (n, z)
            assert f_n(n, -z) == -f_n(n, z)
    assert f_n(0, 1e-20) == pytest.approx(2e-20 / math.sqrt(math.pi), rel=1e-15, abs=0.0)


def test_log_form_domain():
    assert log_kummer_m_scaled(0.7, 1.5, 0.0) == (0.0, 0.0, 0.0)
    for args in [(0.0, 0.5, 1.0), (0.7, 0.0, 1.0), (0.7, 0.5, -1.0),
                 (0.7, 0.5, math.inf), (0.7, 0.5, math.nan)]:
        with pytest.raises(ValueError):
            log_kummer_m_scaled(*args)


def test_rescaled_series_past_2_to_500():
    # The series sum passes 2**500 near z = 350 and is rescaled; M itself
    # is inf past double range, where its log is still finite.
    for z in (400.0, 650.0):
        assert kummer_m(1.2, 1.5, z) == pytest.approx(
            math.exp(log_kummer_m_scaled(1.2, 1.5, z)[0] + z), rel=1e-13)
    assert kummer_m(1.2, 1.5, 800.0) == math.inf
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = float(mp.log(mp.hyp1f1(1.2, 1.5, 800)))
    assert log_kummer_m_scaled(1.2, 1.5, 800.0)[0] + 800.0 == pytest.approx(ref, rel=1e-15)
    # A sum of positive terms is inf only past 2**(1024 + 200 / log 2),
    # beyond the reach of the reflection factor e^-200: the reflected series
    # of M(-799.5, 0.5, -200) sums to about 2**1309 and M is finite (mpmath:
    # 1.7010485911091803e307, 1.2291799853917337e308 at a = -803.5, and
    # 3.298e308 at a = -805.5).
    assert kummer_m(-799.5, 0.5, -200.0) == pytest.approx(1.7010485911091803e307, rel=1e-13)
    assert kummer_m(-803.5, 0.5, -200.0) == pytest.approx(1.2291799853917337e308, rel=1e-13)
    assert kummer_m(-805.5, 0.5, -200.0) == math.inf
    assert math.isfinite(kummer_m(1.0, 1.0, 709.7))
    assert kummer_m(1.0, 1.0, 709.9) == math.inf


def test_positive_loop_matches_the_rescaled_series(monkeypatch):
    # The loop over positive terms gives exactly what the rescaled series
    # gives, for both series of the front equation at log-uniform z in
    # [1e-300, 30] and a in (0, 30], then at sums past 2**500 (large a),
    # which it rescales in place, and above z = 30 where a**2 > z skips the
    # expansion: its first ratio (1 - a)(b - a) / z is then above 1.  The
    # log form never calls _m_series.
    r = random.Random(12)
    cases = [(_log_uniform(r, 1e-12, 30.0), _log_uniform(r, 1e-300, 30.0)) for _ in range(400)]
    cases += [(a, z) for a in (1e3, 2e4, 1e5) for z in (1.0, 12.0, 30.0)]
    for _ in range(50):
        z = _log_uniform(r, 30.0, 1e4)
        cases.append((math.sqrt(z) + _log_uniform(r, 1.0, 30.0), z))
    # (a, b, z) of the odd and the even series.
    cases = [(a + shift, b, z) for a, z in cases for b, shift in ((1.5, 1.0), (0.5, 0.5))]
    refs = [_series_branch(*case) for case in cases]

    def unused(a, b, z):
        raise AssertionError(f"_m_series called for {(a, b, z)}")

    monkeypatch.setattr(kummer_module, "_m_series", unused)
    for case, (ref, _) in zip(cases, refs):
        assert log_kummer_m_scaled(*case) == ref, case
    rescaled = [z for (_, _, z), (_, e) in zip(cases, refs) if e > 0]
    assert len(rescaled) >= 10
    assert any(z <= 30.0 for z in rescaled)


# The series loops as they were written with range's int counter, kept as the
# reference for the float counters of kummer.py: each operand is the same
# double either way, so every result must be equal.  The log form also
# returns which branch summed it.
_RTOL = kummer_module._SERIES_RTOL
_CAP = kummer_module._SERIES_TERM_CAP


def _int_counter_log_kummer_m_scaled(a, b, z):
    if z > 30.0:
        term, total, slope = 1.0, 1.0, 0.0
        for s in range(1, _CAP):
            ratio = (s - a) * (s - 1.0 + b - a) / (s * z)
            if not abs(ratio) < 1.0:
                break
            term *= ratio
            total += term
            slope += s * term
            if abs(term) <= _RTOL * total:
                break
        log_z = math.log(z)
        omitted = (math.lgamma(a) + (math.lgamma(1.0 + a - b) if a > b else 0.0)
                   - z + (b - 2.0 * a) * log_z)
        if abs(term) <= _RTOL * total and omitted < math.log(_RTOL):
            zl = a - b - slope / total
            return (math.lgamma(b) - math.lgamma(a) + (a - b) * log_z + math.log(total),
                    zl, kummer_module._curvature(a, b, z, zl)), "expansion"
    term = total = 1.0
    slope = 0.0
    for s in range(_CAP):
        n = s + 1.0
        term *= (a + s) / ((b + s) * n) * z
        total += term
        slope += n * term
        if not total < 2.0**500:
            break
        if term <= _RTOL * total and (term == 0.0 or (
                z * (a + n) <= 0.5 * (b + n) * (n + 1.0) if a >= b
                else z <= 0.5 * (n + 1.0))):
            zl = slope / total - z
            return (math.log(total) - z, zl, kummer_module._curvature(a, b, z, zl)), "series"
    m, zm, e = _int_counter_m_series(a, b, z)
    zl = zm / m - z
    return (math.log(m) + e * math.log(2.0) - z, zl,
            kummer_module._curvature(a, b, z, zl)), "rescaled"


def _int_counter_m_series(a, b, z):
    term = 1.0
    total = 1.0
    slope = 0.0
    exponent = 0
    least = 0.51 * _CAP
    hopeless = z >= least and a > 0.0 and b > 0.0 and z * min(1.0, a / b) >= least
    for s in range(0 if hopeless else _CAP):
        n = s + 1.0
        term *= (a + s) / ((b + s) * n) * z
        total += term
        slope += n * term
        if not -2.0**500 < total < 2.0**500:
            total, term, slope = total * 2.0**-500, term * 2.0**-500, slope * 2.0**-500
            exponent += 500
        if ((term <= _RTOL * total or total < 0.0)
                and abs(term) <= _RTOL * abs(total)
                and (term == 0.0 or (a + n > 0.0 and b + n > 0.0 and (
                    z * (a + n) <= 0.5 * (b + n) * (n + 1.0) if a >= b
                    else z <= 0.5 * (n + 1.0))))):
            return total, slope, exponent
    raise NonConvergenceError


def test_float_counters_match_the_int_counter_loops_in_the_log_form():
    # Every other z is drawn from [1, 1e4] alone, so that enough draws take
    # the expansion or pass 2**500.
    r = random.Random(29)
    branches = []
    for i in range(2000):
        a = _log_uniform(r, 1e-12, 1e5)
        b = r.choice((0.5, 1.5, r.uniform(0.1, 5.0)))
        z = _log_uniform(r, 1e-300 if i % 2 else 1.0, 1e4)
        ref, branch = _int_counter_log_kummer_m_scaled(a, b, z)
        assert log_kummer_m_scaled(a, b, z) == ref, (a, b, z)
        branches.append(branch)
    assert branches.count("expansion") >= 100
    assert branches.count("rescaled") >= 10


def test_float_counter_matches_the_int_counter_loop_in_the_series():
    # Negative a at positive z gives alternating runs before a + n > 0.
    r = random.Random(30)
    alternating = 0
    for _ in range(2000):
        a, b, z = r.uniform(-10.0, 30.0), r.uniform(0.1, 10.0), r.uniform(0.0, 340.0)
        m, _, e = _int_counter_m_series(a, b, z)
        assert kummer_module._m_series(a, b, z) == (m, e), (a, b, z)
        alternating += a < -1.0 and z > 0.0
    assert alternating >= 100


def test_derivative_of_constant_is_zero():
    assert kummer_m_derivative(0.0, 0.5, 1.3) == 0.0


def test_derivative_of_exp():
    # d/dz M(1,1,z) = (1/1) M(2,2,1) = e
    assert kummer_m_derivative(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)


def test_derivative_vs_central_difference():
    h = 1e-6
    z_values = (-2.0, -1.3, -0.6, -0.25, 0.09, 0.7, 1.4, 2.0)
    for a in A_GRID:
        for b in B_GRID:
            for z in z_values:
                fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2.0 * h)
                assert abs(kummer_m_derivative(a, b, z) - fd) <= 1e-7, (a, b, z)


def test_derivative_point_example():
    h = 1e-6
    fd = (kummer_m(-0.2, 0.5, 0.09 + h) - kummer_m(-0.2, 0.5, 0.09 - h)) / (2.0 * h)
    assert kummer_m_derivative(-0.2, 0.5, 0.09) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("b", [0.0, -1.0, -7.0])
def test_nonpositive_integer_b_rejected(b):
    with pytest.raises(ValueError):
        kummer_m(1.0, b, 0.3)
    with pytest.raises(ValueError):
        kummer_m_derivative(1.0, b, 0.3)


def test_nonfinite_arguments_rejected():
    with pytest.raises(ValueError):
        kummer_m(math.nan, 0.5, 1.0)
    with pytest.raises(ValueError):
        kummer_m(1.0, 0.5, math.inf)


@pytest.mark.parametrize("a,b,z", [(0.0, 0.5, math.nan), (0.0, 0.5, math.inf),
                                   (0.0, math.nan, 1.0), (math.nan, 0.5, 1.0)])
def test_derivative_rejects_nonfinite_arguments(a, b, z):
    # a = 0 took the M = 1 shortcut before the arguments were checked.
    with pytest.raises(ValueError, match="finite"):
        kummer_m_derivative(a, b, z)


def test_argument_below_supported_range_rejected():
    with pytest.raises(ValueError):
        kummer_m(-0.2, 0.5, -1e4)


def test_bitwise_determinism():
    pairs = [(kummer_m(-1.7, 1.5, 3.3), kummer_m(-1.7, 1.5, 3.3)) for _ in range(3)]
    for first, second in pairs:
        assert struct.pack("<d", first) == struct.pack("<d", second)


@settings(max_examples=200)
@given(
    a=st.floats(min_value=0.3, max_value=5.0),
    z=st.floats(min_value=-5.0, max_value=5.0),
)
def test_exp_reduction_property(a, z):
    assert kummer_m(a, a, z) == pytest.approx(math.exp(z), rel=1e-12)


# ---- product identity used to collapse the interface condition ----


def test_product_identity_as_printed():
    # exp(-v^2) = -2 a v^2 M(-a/2+1/2,3/2,-v^2) M(-a/2+1,3/2,-v^2)
    #             + M(-a/2+1/2,1/2,-v^2) M(-a/2,1/2,-v^2)
    # The leading minus sign is correct as printed.
    for alpha in (0.0, 0.4, 1.0, 2.0, 5.0):
        for i in range(1, 13):
            v = 0.25 * i
            z = -v * v
            rhs = (
                -2.0 * alpha * v * v
                * kummer_m(-alpha / 2.0 + 0.5, 1.5, z)
                * kummer_m(-alpha / 2.0 + 1.0, 1.5, z)
                + kummer_m(-alpha / 2.0 + 0.5, 0.5, z) * kummer_m(-alpha / 2.0, 0.5, z)
            )
            assert abs(math.exp(z) - rhs) <= 1e-10, (alpha, v)


# ---- gamma ----


def test_gamma_small_integers():
    assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-13)
    assert gamma_fn(2.0) == pytest.approx(1.0, abs=1e-13)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_half_integers():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    # Gamma(3.5) = (5/2)(3/2)(1/2) Gamma(1/2) = 15 sqrt(pi) / 8
    assert gamma_fn(3.5) == pytest.approx(15.0 * math.sqrt(math.pi) / 8.0, rel=1e-13)


def test_gamma_against_stdlib():
    x = 0.05
    while x < 30.0:
        assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-13), x
        x += 0.07


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
def test_gamma_domain_error(x):
    with pytest.raises(ValueError):
        gamma_fn(x)


@settings(max_examples=100)
@given(x=st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence_property(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


# ---- erfc and its repeated integrals ----


def test_erfc_accuracy_against_stdlib():
    z = -6.0
    while z <= 6.0:
        assert abs(erfc(z) - math.erfc(z)) <= 1e-13 * abs(math.erfc(z)), z
        z += 0.013


@settings(max_examples=200)
@given(z=st.floats(min_value=-8.0, max_value=8.0))
def test_erfc_reflection_property(z):
    assert erfc(z) + erfc(-z) == pytest.approx(2.0, rel=1e-14)


def test_iterated_erfc_order_zero():
    assert iterated_erfc(0, 0.0) == 1.0


def test_first_integral_at_zero_vs_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    ref, _ = quad(math.erfc, 0.0, 30.0)
    value = iterated_erfc(1, 0.0)
    assert value == pytest.approx(ref, abs=1e-10)
    assert value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_second_integral_vs_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    ref, _ = quad(lambda t: iterated_erfc(1, t), 0.5, 30.0)
    assert iterated_erfc(2, 0.5) == pytest.approx(ref, abs=1e-10)


def test_iterated_erfc_vs_mpmath_at_positive_argument():
    # The forward recurrence is unstable at z > 0: i^10 erfc(10) came out
    # 3.0x, i^20 erfc(5) 170x and i^30 erfc(10) 1e22x the true value.
    mp = pytest.importorskip("mpmath")
    zs = [1e-9, 1e-3, 0.1, 0.3] + [0.5 * i for i in range(1, 21)]
    with mp.workdps(40):
        for n in range(31):
            assert iterated_erfc(n, 0.0) == pytest.approx(
                float(1 / (2**n * mp.gamma(mp.mpf(n) / 2 + 1))), rel=1e-14, abs=0.0)
            for z in zs:
                # Kummer U form: exp(-z^2) U(n/2 + 1/2, 1/2, z^2) / (2^n sqrt(pi))
                zz = mp.mpf(z) ** 2
                ref = mp.exp(-zz) * mp.hyperu(mp.mpf(n + 1) / 2, 0.5, zz) / (2**n * mp.sqrt(mp.pi))
                assert iterated_erfc(n, z) == pytest.approx(float(ref), rel=1e-14, abs=0.0), (n, z)


@pytest.mark.parametrize("call", [lambda: erfc(math.nan), lambda: iterated_erfc(2, math.inf)],
                         ids=["erfc-nan", "iterated-erfc-inf"])
def test_erfc_rejects_nonfinite_argument(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


def test_iterated_erfc_rejects_negative_order():
    with pytest.raises(ValueError):
        iterated_erfc(-1, 0.3)


def test_even_combination_order_zero_is_one():
    assert e_n(0, 1.234) == pytest.approx(1.0, rel=1e-14)


def test_odd_combination_order_zero_is_erf():
    # [erfc(-z) - erfc(z)] / 2 = erf(z); erf(0.7) = 0.677801193837419...
    assert f_n(0, 0.7) == pytest.approx(math.erf(0.7), rel=1e-13)
    assert f_n(0, 0.7) == pytest.approx(0.6778011938374184, rel=1e-12)


def test_odd_combination_vanishes_at_zero():
    assert f_n(1, 0.0) == 0.0


@settings(max_examples=100)
@given(n=st.integers(min_value=0, max_value=4),
       z=st.floats(min_value=-3.0, max_value=3.0))
def test_parity_properties(n, z):
    assert e_n(n, z) == pytest.approx(e_n(n, -z), rel=1e-12)
    assert f_n(n, z) == pytest.approx(-f_n(n, -z), rel=1e-12)


def test_bridge_identities_to_repeated_erfc():
    # M(-n/2, 1/2, -z^2) = 2^n Gamma(n/2+1) E_n(z)
    # z M(-n/2+1/2, 3/2, -z^2) = 2^(n-1) Gamma(n/2+1/2) F_n(z)
    for n in range(5):
        for i in range(13):
            z = 0.25 * i
            lhs = kummer_m(-n / 2.0, 0.5, -z * z)
            rhs = 2.0**n * gamma_fn(n / 2.0 + 1.0) * e_n(n, z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)), ("even", n, z)
            lhs = z * kummer_m(-n / 2.0 + 0.5, 1.5, -z * z)
            rhs = 2.0 ** (n - 1) * gamma_fn(n / 2.0 + 0.5) * f_n(n, z)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) <= 1e-10 * scale, ("odd", n, z)


def test_term_cap_raises(monkeypatch):
    monkeypatch.setattr(kummer_module, "_SERIES_TERM_CAP", 5)
    with pytest.raises(NonConvergenceError):
        kummer_m(-0.2, 0.5, -30.0)


# One-signed negative tails, from term 1 or after an alternating head
# (mpmath: -5.9e4342933, -1.1e434304, -1.8e86843, -1.9e217088), and two
# whose alternating heads sum past the bound with the other sign, for
# a + n < 0 and for b + n < 0 (-2.0e434, -9.2e1605).
_NEGATIVE_TAILS = [(-0.5, 1.0, 1e7), (1.0, -0.5, 1e6), (-2.5, 0.5, 2e5), (-10.5, 1.0, 5e5),
                   (-1001.5, 0.5, 2000.0), (1.0, -1000.5, 2000.0)]


@pytest.mark.parametrize("a,b,z", [(1.0, 1.0, 1e7), (1.0, 1.0, 6e5), (1.0, 2.0, 2e6),
                                   (2000.0, 1.5, 1e6), (2000.5, 0.5, 6e5), (1e5, 1.5, 2e6),
                                   (1.0, 1.0, 5e5), (1.0, 1.0, 1e300),
                                   (1e300, 1.0, 10.0), (1e200, 1e-100, 1.0),
                                   *_NEGATIVE_TAILS])
def test_series_that_cannot_settle_raises_at_once(a, b, z):
    # M overflows in every row, and kummer_m returns +-inf once a sum with
    # the sign of its one-signed tail passes the reach of any reflection
    # factor, long before the cap.  For a > 0 the log form sums M(1, b, z)
    # by its expansion; where a**2 > z it sums the series, which at
    # z >= 5e5 has every term ratio above 1/2 before the cap and cannot
    # settle, and in the last two rows of positive a has a second term past
    # double range.
    start = time.perf_counter()
    assert kummer_m(a, b, z) == (-math.inf if (a, b, z) in _NEGATIVE_TAILS else math.inf)
    assert time.perf_counter() - start < 0.05
    if a > 0.0 and a * a > z:
        error, match = ((NonConvergenceError, "did not settle") if z >= 5e5
                        else (OverflowError, "leaves double range"))
        start = time.perf_counter()
        with pytest.raises(error, match=match):
            log_kummer_m_scaled(a, b, z)
        assert time.perf_counter() - start < 0.05


def test_series_ended_by_a_vanished_term_still_sums():
    # The tail bound first holds past the cap (z > cap / 2), yet the terms
    # fall so fast that one rounds to 0 and ends the sum.
    assert kummer_m(1.0, 1e9, 6e5) == pytest.approx(1.0 / (1.0 - 6e-4), rel=1e-12)


def test_scalar_form_takes_floats_only():
    # kummer_m stays a float function: the solver calls it once per series
    # value and pays no array overhead.
    with pytest.raises(TypeError):
        kummer_m(-0.2, 0.5, np.array([-1.0, -2.0]))
