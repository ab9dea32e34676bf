import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefan_kummer import (
    BracketNotFoundError,
    Convective,
    Flux,
    ProblemSpec,
    SimilaritySolution,
    SolverReport,
    Temperature,
    front_equation_integer_alpha,
    front_equation_lhs,
    front_equation_residual,
    residual_derivative,
    solve_front,
    temperature_integer_alpha,
)

from _oracles import (
    bisect,
    bisect_front,
    classical_convective_residual,
    classical_convective_temperature,
    direct_series_m,
)

# Parameter set behind the reference temperature-field plots.
FIG9 = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))

SAMPLE_SPECS = [
    FIG9,
    ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0)),
    ProblemSpec(alpha=2.0, boundary=Convective(h0=10.0, t_inf=0.5)),
    ProblemSpec(alpha=5.5, boundary=Convective(h0=0.1, t_inf=1.0)),
    ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0)),
    ProblemSpec(alpha=0.0, boundary=Temperature(t0=2.0)),
    ProblemSpec(alpha=2.0, boundary=Flux(c=1.0)),
    ProblemSpec(alpha=1.0, boundary=Flux(c=0.3)),
]


# ---- problem validation ----


def test_freezing_case_rejected():
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=-1.0))
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0), gamma=-1.0)
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.4, boundary=Temperature(t0=-0.5))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        ProblemSpec(alpha=-0.1, boundary=Temperature(t0=1.0))


def test_nonpositive_material_data_rejected():
    for kwargs in ({"d": 0.0}, {"k": -1.0}, {"gamma": 0.0}):
        with pytest.raises(ValueError):
            ProblemSpec(alpha=1.0, boundary=Flux(c=1.0), **kwargs)


# ---- front equation ----


def test_lhs_limit_at_zero():
    # All series factors are 1 at zero argument, so the lhs tends to the
    # bare prefactor, here 1.
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    assert front_equation_lhs(p, 1e-8) == pytest.approx(1.0, rel=1e-7)


def test_lhs_temperature_variant_value():
    # alpha = 0, t0 = 1 at x = 1: prefactor 1/2 times 1/(1 * M(1, 3/2, 1)),
    # the denominator summed directly as an oracle.
    p = ProblemSpec(alpha=0.0, boundary=Temperature(t0=1.0))
    expected = 0.5 / direct_series_m(1.0, 1.5, 1.0)
    assert front_equation_lhs(p, 1.0) == pytest.approx(expected, rel=1e-13)


def test_lhs_decreasing():
    for p in SAMPLE_SPECS:
        assert front_equation_lhs(p, 0.5) > front_equation_lhs(p, 1.0)


def test_lhs_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        front_equation_lhs(FIG9, 0.0)
    with pytest.raises(ValueError):
        front_equation_lhs(FIG9, -1.0)


def test_residual_positive_near_zero():
    for p in SAMPLE_SPECS:
        r = front_equation_residual(p, 1e-8)
        assert r > 0.0
        assert r == pytest.approx(front_equation_lhs(p, 1e-8), rel=1e-6)


def test_residual_sign_change_bracket():
    p = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
    assert front_equation_residual(p, 1e-6) > 0.0
    assert front_equation_residual(p, 10.0) < 0.0


def test_residual_strictly_decreasing_single_sign_change():
    for p in SAMPLE_SPECS:
        xs = [0.02 * i for i in range(1, 150)]
        values = [front_equation_residual(p, x) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))
        signs = [v > 0.0 for v in values]
        assert signs.count(False) == 0 or signs.index(False) == signs.count(True)


def test_alpha0_residual_matches_erf_form_root():
    # For alpha = 0 the front equation collapses to
    # h0 tinf / (gamma sqrt(d) [1 + sqrt(pi d) h0/k erf(x)]) = x exp(x^2).
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    root = bisect(lambda x: classical_convective_residual(x, 1.0, 1.0), 1e-8, 2.0)
    # 200-step bisection of the erf form gives 0.4462009092593090.
    assert root == pytest.approx(0.44620090925930897772, abs=1e-14)
    assert abs(front_equation_residual(p, root)) <= 1e-13
    assert solve_front(p).nu == pytest.approx(root, abs=1e-12)


# ---- residual derivative ----


def test_residual_derivative_vs_finite_difference():
    h = 1e-6
    for p in SAMPLE_SPECS:
        for x in (0.3, 0.5, 0.9, 1.4):
            fd = (
                front_equation_residual(p, x + h)
                - front_equation_residual(p, x - h)
            ) / (2.0 * h)
            assert residual_derivative(p, x) == pytest.approx(fd, abs=1e-7), (p, x)


def test_residual_derivative_negative():
    for p in SAMPLE_SPECS:
        for x in (0.05, 0.3, 0.8, 1.5, 3.0):
            assert residual_derivative(p, x) < 0.0


def test_residual_derivative_alpha0_closed_form():
    # Independent erf-form derivative for the classical case.
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=0.7, t_inf=1.3))

    def closed(x):
        b = 1.0 + math.sqrt(math.pi) * 0.7 * math.erf(x)
        db = 2.0 * 0.7 * math.exp(-x * x)
        lhs = 0.7 * 1.3 * math.exp(-x * x) / b
        dlhs = lhs * (-2.0 * x) - 0.7 * 1.3 * math.exp(-x * x) * db / (b * b)
        return dlhs - 1.0

    for x in (0.2, 0.5, 1.0, 1.7):
        assert residual_derivative(p, x) == pytest.approx(closed(x), rel=1e-10)


# ---- solver ----


def test_solver_matches_bisection_reference():
    sol = solve_front(FIG9)
    ref = bisect_front(FIG9)
    # 220-step bisection gives nu = 0.35873159693067008692.
    assert abs(sol.nu - ref) <= 1e-12
    assert sol.nu == pytest.approx(0.3587315969306701, abs=1e-13)


def test_solver_iteration_budget():
    for p in SAMPLE_SPECS:
        report = solve_front(p).solver_report
        assert report.iterations <= 25
        assert abs(report.residual) <= 1e-12 * max(
            1.0, front_equation_lhs(p, solve_front(p).nu)
        )


def test_solution_residual_invariant():
    for p in SAMPLE_SPECS:
        sol = solve_front(p)
        lhs = front_equation_lhs(p, sol.nu)
        assert abs(front_equation_residual(p, sol.nu)) <= 1e-12 * max(1.0, abs(lhs))


def test_residual_stop_is_relative_for_small_lhs():
    # nu**(alpha+1) is near 1e-13 here, so a residual test scaled by
    # max(1, lhs) accepts iterates far from the root (it stopped at 0.0676).
    p = ProblemSpec(alpha=10.0, boundary=Convective(h0=1e-3, t_inf=1e-3), gamma=10.0, d=10.0)
    sol = solve_front(p)
    assert sol.nu == pytest.approx(0.0388428558, rel=1e-9)
    assert abs(sol.nu - bisect_front(p)) <= 1e-12
    lhs = front_equation_lhs(p, sol.nu)
    assert abs(front_equation_residual(p, sol.nu)) <= 1e-12 * lhs


def test_large_h0_approaches_imposed_temperature():
    conv = ProblemSpec(alpha=0.0, boundary=Convective(h0=1e8, t_inf=1.0))
    temp = ProblemSpec(alpha=0.0, boundary=Temperature(t0=1.0))
    assert solve_front(conv).nu == pytest.approx(solve_front(temp).nu, abs=1e-6)


def test_front_coefficient_monotone_in_h0():
    nus = [
        solve_front(
            ProblemSpec(alpha=1.0, boundary=Convective(h0=h0, t_inf=1.0))
        ).nu
        for h0 in (0.1, 1.0, 10.0)
    ]
    assert nus[0] < nus[1] < nus[2]


def test_front_coefficient_monotone_in_tinf():
    nus = [
        solve_front(
            ProblemSpec(alpha=1.0, boundary=Convective(h0=1.0, t_inf=t))
        ).nu
        for t in (0.5, 1.0, 2.0)
    ]
    assert nus[0] < nus[1] < nus[2]


def test_bracket_failure_reported(monkeypatch):
    import stefan_kummer.stefan as stefan

    monkeypatch.setattr(stefan, "_MAX_NU", 2.0)
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1e6))
    with pytest.raises(BracketNotFoundError):
        solve_front(p)


# Fixed nu < 1e-8 probes: a lower bracket pinned at 1e-8 rejected each as
# "admits no melting front".
SMALL_NU_SPECS = [
    ProblemSpec(alpha=0.0, boundary=Convective(h0=1e-6, t_inf=1e-6)),
    ProblemSpec(alpha=0.5, boundary=Convective(h0=1e-8, t_inf=1e-8)),
    ProblemSpec(alpha=0.0, boundary=Temperature(t0=1e-18)),
    ProblemSpec(alpha=0.0, boundary=Flux(c=1e-10)),
]


def _mp_condition_residuals(mp, sol):
    """Relative face, front and Stefan residuals of a solution, evaluated
    in extended precision from the family's own boundary condition."""
    p, b = sol.problem, sol.problem.boundary
    alpha, gamma, d, k = (mp.mpf(v) for v in (p.alpha, p.gamma, p.d, p.k))
    nu, a, bb = mp.mpf(sol.nu), mp.mpf(sol.coeff_even), mp.mpf(sol.coeff_odd)
    conduction = k * bb / (2 * mp.sqrt(d))
    if isinstance(b, Convective):
        h0, t_inf = mp.mpf(b.h0), mp.mpf(b.t_inf)
        face = abs(conduction - h0 * (a - t_inf)) / (abs(conduction) + h0 * t_inf)
    elif isinstance(b, Temperature):
        face = abs(a - b.t0) / b.t0
    else:
        face = abs(conduction + b.c) / b.c
    z = -nu * nu
    even = a * mp.hyp1f1(-alpha / 2, 0.5, z)
    odd = bb * nu * mp.hyp1f1(-alpha / 2 + 0.5, 1.5, z)
    front = abs(even + odd) / (abs(even) + abs(odd))
    # Stefan condition at t = 1: -k u_x(s, 1) = gamma s**alpha s'(1).
    u_x = (a * alpha * nu * mp.hyp1f1(1 - alpha / 2, 1.5, z)
           + bb / 2 * mp.hyp1f1(0.5 - alpha / 2, 0.5, z)) / mp.sqrt(d)
    rhs = gamma * (2 * nu * mp.sqrt(d)) ** alpha * nu * mp.sqrt(d)
    stefan = abs(-k * u_x - rhs) / rhs
    return float(face), float(front), float(stefan)


def test_small_front_coefficients_solve():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for p in SMALL_NU_SPECS:
            sol = solve_front(p)
            assert 0.0 < sol.nu < 1e-8, p
            assert max(_mp_condition_residuals(mp, sol)) <= 1e-9, p


def test_small_lhs_case_within_iteration_budget():
    p = ProblemSpec(alpha=10.0, boundary=Convective(h0=1e-3, t_inf=1e-3), gamma=10.0, d=10.0)
    assert solve_front(p).solver_report.iterations <= 25


def test_temperature_family_face_coefficient_exact():
    for t0 in (1.0, 0.3, 7.25, 1e-18):
        for alpha in (0.0, 0.4, 3.0):
            p = ProblemSpec(alpha=alpha, boundary=Temperature(t0=t0))
            assert solve_front(p).coeff_even == t0


def test_face_relation_holds_for_each_family():
    for p in SAMPLE_SPECS:
        sol = solve_front(p)
        pp, q, g = p.boundary.face_relation()
        conduction = p.k * sol.coeff_odd / (2.0 * math.sqrt(p.d))
        assert pp * sol.coeff_even + q * conduction == pytest.approx(g, rel=1e-12)


def test_series_evaluation_budget(monkeypatch):
    import stefan_kummer.stefan as stefan

    calls = []
    real = stefan.kummer_m

    def counting(a, b, z):
        calls.append(z)
        return real(a, b, z)

    monkeypatch.setattr(stefan, "kummer_m", counting)
    cases = [
        (ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0)), 28),
        (ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0)), 14),
        (ProblemSpec(alpha=2.0, boundary=Flux(c=1.0)), 13),
    ]
    for p, budget in cases:
        calls.clear()
        solve_front(p)
        assert len(calls) <= budget, (p, len(calls))


# Wide ranges: alpha in [0, 50], boundary data log-uniform in [1e-9, 1e9],
# gamma, d and k log-uniform in [1e-3, 1e3].  ``u(lo, hi)`` draws one
# log-uniform value.
_WIDE_BOUNDARIES = {
    "convective": lambda u: Convective(h0=u(1e-9, 1e9), t_inf=u(1e-9, 1e9)),
    "temperature": lambda u: Temperature(t0=u(1e-9, 1e9)),
    "flux": lambda u: Flux(c=u(1e-9, 1e9)),
}


def _wide_spec(family, alpha, u):
    return ProblemSpec(alpha=alpha, boundary=_WIDE_BOUNDARIES[family](u),
                       gamma=u(1e-3, 1e3), d=u(1e-3, 1e3), k=u(1e-3, 1e3))


@st.composite
def wide_specs(draw):
    def u(lo, hi):
        return math.exp(draw(st.floats(min_value=math.log(lo), max_value=math.log(hi))))

    family = draw(st.sampled_from(sorted(_WIDE_BOUNDARIES)))
    return _wide_spec(family, draw(st.floats(min_value=0.0, max_value=50.0)), u)


def _mp_front_root(mp, problem, x0):
    """Root of the front equation x**(alpha+1) D(x) = C g near x0, in
    extended precision, written with each family's own data."""
    b = problem.boundary
    alpha, gamma, d, k = (mp.mpf(v) for v in (problem.alpha, problem.gamma, problem.d, problem.k))
    if isinstance(b, Convective):
        p, q, g = mp.mpf(b.h0), -1, mp.mpf(b.h0) * mp.mpf(b.t_inf)
    elif isinstance(b, Temperature):
        p, q, g = 1, 0, mp.mpf(b.t0)
    else:
        p, q, g = 0, -1, mp.mpf(b.c)
    kappa = k / (2 * mp.sqrt(d))
    log_cg = mp.log(kappa * g / (gamma * 2**alpha * d ** ((alpha + 1) / 2)))

    def log_residual(x):
        z = x * x
        denom = p * x * mp.hyp1f1(alpha / 2 + 1, 1.5, z) - q * kappa * mp.hyp1f1(alpha / 2 + 0.5, 0.5, z)
        return log_cg - mp.log(denom) - (alpha + 1) * mp.log(x)

    # Secant from two points around x0: a default second point x0 + 1/4
    # lies far from small roots.
    x0 = mp.mpf(x0)
    return mp.findroot(log_residual, (x0 * (1 - mp.mpf(1e-10)), x0 * (1 + mp.mpf(1e-10))))


def _mp_stefan_scale(mp, sol):
    """1 plus the size of the two conduction terms at the front relative
    to the latent-heat side: the factor by which the even/odd form
    magnifies the rounding of the coefficients in the Stefan residual."""
    p = sol.problem
    alpha, gamma, d, k = (mp.mpf(v) for v in (p.alpha, p.gamma, p.d, p.k))
    nu, a, bb = mp.mpf(sol.nu), mp.mpf(sol.coeff_even), mp.mpf(sol.coeff_odd)
    z = -nu * nu
    terms = (abs(a * alpha * nu * mp.hyp1f1(1 - alpha / 2, 1.5, z))
             + abs(bb / 2 * mp.hyp1f1(0.5 - alpha / 2, 0.5, z))) / mp.sqrt(d)
    rhs = gamma * (2 * nu * mp.sqrt(d)) ** alpha * nu * mp.sqrt(d)
    return float(1 + k * terms / rhs)


@settings(max_examples=40, deadline=None)
@given(p=wide_specs())
def test_wide_domain_root_and_conditions_property(p):
    mp = pytest.importorskip("mpmath")
    sol = solve_front(p)
    assert sol.solver_report.iterations <= 8
    with mp.workdps(50):
        root = _mp_front_root(mp, p, sol.nu)
        assert abs(sol.nu - root) <= 1e-13 * root
        face, front, stefan = _mp_condition_residuals(mp, sol)
        assert face <= 1e-13 and front <= 1e-13
        # The Stefan residual is a difference of two conduction terms that
        # grow like nu**alpha; its size is the coefficients' rounding times
        # that growth.
        assert stefan <= 1e-12 * _mp_stefan_scale(mp, sol)


def test_wide_domain_iteration_ceiling():
    r = random.Random(20)

    def u(lo, hi):
        return math.exp(r.uniform(math.log(lo), math.log(hi)))

    iterations = []
    for _ in range(400):
        family = r.choice(sorted(_WIDE_BOUNDARIES))
        p = _wide_spec(family, r.uniform(0.0, 50.0), u)
        iterations.append(solve_front(p).solver_report.iterations)
    assert max(iterations) <= 8


def test_large_alpha_large_nu_solves():
    # 100 Newton/bisection steps did not converge when the iteration ran
    # in x: the left side decays like exp(-x**2) and x**49 is steep.
    p = ProblemSpec(alpha=48.0, boundary=Flux(c=1e-6), d=1e-9)
    sol = solve_front(p)
    assert sol.nu == pytest.approx(15.6344, rel=1e-5)
    assert sol.solver_report.iterations <= 8
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        assert abs(sol.nu - _mp_front_root(mp, p, sol.nu)) <= 1e-13 * sol.nu


def test_huge_convective_data_solve_to_temperature_limit():
    # h0 * t_inf overflows here; the face relation is divided by h0.
    conv = ProblemSpec(alpha=1.0, boundary=Convective(h0=1e200, t_inf=1e200))
    sol = solve_front(conv)
    assert sol.nu == pytest.approx(21.2124247315329, rel=1e-12)
    assert sol.nu == pytest.approx(
        solve_front(ProblemSpec(alpha=1.0, boundary=Temperature(t0=1e200))).nu, rel=1e-12)
    assert math.isfinite(sol.solver_report.residual)
    assert math.isfinite(sol.coeff_even) and math.isfinite(sol.coeff_odd)
    huge = ProblemSpec(alpha=1.0, boundary=Convective(h0=1e300, t_inf=1e300))
    assert solve_front(huge).nu == pytest.approx(
        solve_front(ProblemSpec(alpha=1.0, boundary=Temperature(t0=1e300))).nu, rel=1e-12)


def test_root_past_series_overflow_reported():
    # C = kappa / (gamma 2**alpha d**((alpha+1)/2)) is about exp(1197): the
    # root lies where the series exceed double precision.
    p = ProblemSpec(alpha=50.0, boundary=Temperature(t0=1.0), d=1e-20)
    with pytest.raises(BracketNotFoundError, match=r"overflow.*x=2\d\.\d+"):
        solve_front(p)


def test_front_coefficient_below_double_range_reported():
    # nu is about h0 * t_inf = 1e-600 here.
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1e-300, t_inf=1e-300))
    with pytest.raises(BracketNotFoundError, match="underflows"):
        solve_front(p)


def test_convective_transfer_coefficient_needs_finite_reciprocal():
    with pytest.raises(ValueError, match="reciprocal"):
        Convective(h0=1e-310, t_inf=1.0)
    assert Convective(h0=1e-300, t_inf=1.0).face_relation() == (1.0, -1.0 / 1e-300, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=5.0),
    h0=st.floats(min_value=0.05, max_value=50.0),
    t_inf=st.floats(min_value=0.1, max_value=5.0),
)
def test_solver_agrees_with_bisection_property(alpha, h0, t_inf):
    p = ProblemSpec(alpha=alpha, boundary=Convective(h0=h0, t_inf=t_inf))
    assert abs(solve_front(p).nu - bisect_front(p)) <= 1e-12


# ---- field evaluators ----


def test_temperature_vanishes_at_front():
    for p in SAMPLE_SPECS:
        sol = solve_front(p)
        for t in (0.25, 1.0, 4.0):
            s = sol.front_position(t)
            assert abs(sol.temperature(s, t)) <= 1e-9 * abs(sol.coeff_even)


def test_face_temperature_is_even_coefficient():
    sol = solve_front(FIG9)
    for t in (0.3, 1.0, 2.5):
        assert sol.temperature(0.0, t) == pytest.approx(
            sol.coeff_even * t ** (FIG9.alpha / 2.0), rel=1e-14
        )


def test_imposed_temperature_datum_recovered():
    p = ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0))
    sol = solve_front(p)
    for t in (0.5, 1.0, 3.0):
        assert sol.temperature(0.0, t) == pytest.approx(t**0.2, rel=1e-14)


def test_imposed_flux_datum_recovered():
    p = ProblemSpec(alpha=2.0, boundary=Flux(c=1.0))
    sol = solve_front(p)
    for t in (0.5, 1.0, 3.0):
        assert p.k * sol.temperature_flux(0.0, t) == pytest.approx(
            -1.0 * t**0.5, rel=1e-13
        )


def test_convective_balance_at_face():
    for p in (FIG9, SAMPLE_SPECS[2]):
        sol = solve_front(p)
        b = p.boundary
        for t in (0.25, 1.0, 4.0):
            balance = p.k * sol.temperature_flux(0.0, t) - b.h0 * t**-0.5 * (
                sol.temperature(0.0, t) - b.t_inf * t ** (p.alpha / 2.0)
            )
            assert abs(balance) <= 1e-9


def test_flux_matches_finite_difference():
    for p in SAMPLE_SPECS[:4]:
        sol = solve_front(p)
        for t in (0.5, 1.0):
            s = sol.front_position(t)
            for frac in (0.2, 0.6, 0.9):
                x = frac * s
                h = 1e-6 * s
                fd = (sol.temperature(x + h, t) - sol.temperature(x - h, t)) / (2.0 * h)
                assert sol.temperature_flux(x, t) == pytest.approx(fd, rel=1e-6)


def test_stefan_balance_at_front():
    for p in SAMPLE_SPECS:
        sol = solve_front(p)
        for t in (0.25, 1.0, 4.0):
            s = sol.front_position(t)
            residual = p.k * sol.temperature_flux(s, t) + p.gamma * s**p.alpha * sol.front_speed(t)
            assert abs(residual) <= 1e-6, (p, t)


def test_heat_equation_residual_by_finite_differences():
    for p in (FIG9, SAMPLE_SPECS[2], SAMPLE_SPECS[4], SAMPLE_SPECS[6]):
        sol = solve_front(p)
        for t in (0.25, 1.0, 4.0):
            s = sol.front_position(t)
            hx = 1e-4 * 2.0 * math.sqrt(p.d * t)
            ht = 1e-5 * t
            for frac in (0.25, 0.5, 0.75):
                x = frac * s
                psi = sol.temperature(x, t)
                psi_t = (sol.temperature(x, t + ht) - sol.temperature(x, t - ht)) / (2.0 * ht)
                psi_xx = (
                    sol.temperature(x + hx, t)
                    - 2.0 * psi
                    + sol.temperature(x - hx, t)
                ) / (hx * hx)
                assert abs(psi_t - p.d * psi_xx) <= 1e-5 * max(1.0, abs(psi))


def test_front_position_examples():
    sol = solve_front(FIG9)
    assert sol.front_position(0.0) == 0.0
    made_up = SimilaritySolution(
        problem=FIG9,
        nu=0.5,
        coeff_even=1.0,
        coeff_odd=-1.0,
        solver_report=SolverReport(iterations=0, residual=0.0, bracket=(0.0, 1.0)),
    )
    assert made_up.front_position(1.0) == 1.0


@settings(max_examples=100)
@given(t=st.floats(min_value=1e-6, max_value=1e6))
def test_front_scaling_property(t):
    sol = solve_front(FIG9)
    assert sol.front_position(4.0 * t) == pytest.approx(2.0 * sol.front_position(t), rel=1e-12)


def test_evaluator_domain_errors():
    sol = solve_front(FIG9)
    with pytest.raises(ValueError):
        sol.temperature(0.1, 0.0)
    with pytest.raises(ValueError):
        sol.temperature(-0.1, 1.0)
    with pytest.raises(ValueError):
        sol.front_position(-1.0)
    with pytest.raises(ValueError):
        sol.front_position(math.nan)
    with pytest.raises(ValueError):
        sol.front_position(math.inf)
    with pytest.raises(ValueError):
        sol.front_speed(0.0)


# ---- classical reduction at alpha = 0 ----


def test_alpha0_temperature_matches_erf_form():
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    sol = solve_front(p)
    for t in (0.2, 1.0, 3.0):
        s = sol.front_position(t)
        for frac in (0.0, 0.3, 0.7, 1.0):
            x = frac * s
            ref = classical_convective_temperature(x, t, sol.nu, 1.0, 1.0)
            assert abs(sol.temperature(x, t) - ref) <= 1e-12 * max(1.0, abs(ref))


# ---- integer exponents ----


def test_integer_alpha_temperature_forms_agree():
    for n in range(4):
        p = ProblemSpec(alpha=float(n), boundary=Convective(h0=1.0, t_inf=1.0))
        sol = solve_front(p)
        for t in (0.5, 1.0):
            s = sol.front_position(t)
            for frac in (0.1, 0.5, 0.9):
                x = frac * s
                a = sol.temperature(x, t)
                b = temperature_integer_alpha(sol, x, t)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (n, x, t)


def test_integer_alpha_example_point():
    p = ProblemSpec(alpha=1.0, boundary=Convective(h0=1.0, t_inf=1.0))
    sol = solve_front(p)
    assert temperature_integer_alpha(sol, 0.2, 1.0) == pytest.approx(
        sol.temperature(0.2, 1.0), rel=1e-10
    )


def test_integer_alpha_temperature_classical_reduction():
    # At n = 0 the even/odd-combination form collapses to the erf form.
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    sol = solve_front(p)
    for t in (0.5, 2.0):
        for x in (0.0, 0.2, 0.5):
            ref = classical_convective_temperature(x, t, sol.nu, 1.0, 1.0)
            got = temperature_integer_alpha(sol, x, t)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_integer_alpha_temperature_vanishes_at_front():
    p = ProblemSpec(alpha=2.0, boundary=Convective(h0=1.0, t_inf=1.0))
    sol = solve_front(p)
    s = sol.front_position(1.0)
    assert abs(temperature_integer_alpha(sol, s, 1.0)) <= 1e-12


def test_integer_alpha_front_equation_roots_coincide():
    p = ProblemSpec(alpha=1.0, boundary=Convective(h0=1.0, t_inf=1.0))
    nu = solve_front(p).nu
    root = bisect(lambda x: front_equation_integer_alpha(p, x), 1e-6, 2.0)
    assert abs(root - nu) <= 1e-10
    # 220-step bisection of the full form gives 0.44425713157295275282.
    assert nu == pytest.approx(0.4442571315729528, abs=1e-13)


def test_integer_alpha_front_equation_classical_reduction():
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    for x in (0.2, 0.5, 1.0):
        assert front_equation_integer_alpha(p, x) == pytest.approx(
            classical_convective_residual(x, 1.0, 1.0) * 1.0, rel=1e-12
        )


def test_integer_alpha_residual_negative_at_large_x():
    for p in SAMPLE_SPECS[:3]:
        if isinstance(p.boundary, Convective) and p.alpha == int(p.alpha):
            assert front_equation_integer_alpha(p, 10.0) < 0.0


def test_integer_alpha_rejects_fractional_exponent():
    with pytest.raises(ValueError):
        front_equation_integer_alpha(FIG9, 0.5)
    with pytest.raises(ValueError):
        temperature_integer_alpha(solve_front(FIG9), 0.1, 1.0)


def test_integer_alpha_rejects_non_convective():
    p = ProblemSpec(alpha=1.0, boundary=Temperature(t0=1.0))
    with pytest.raises(ValueError):
        front_equation_integer_alpha(p, 0.5)


@pytest.mark.parametrize("problem", [
    FIG9,
    ProblemSpec(alpha=2.7, boundary=Temperature(t0=3.3), gamma=0.4, d=2.1, k=0.7),
    ProblemSpec(alpha=0.0, boundary=Flux(c=0.05)),
])
def test_array_evaluators_match_float_evaluators(problem):
    sol = solve_front(problem)
    t = np.array([0.01, 0.3, 1.0, 7.5])[:, None]
    x = np.linspace(0.0, 1.5 * sol.front_position(0.01), 30)
    for method in (sol.temperature, sol.temperature_flux):
        grid = method(x, t)
        assert grid.shape == (4, 30)
        ref = [[method(float(xj), float(ti)) for xj in x] for ti in t[:, 0]]
        assert np.array_equal(grid, ref)
    s = sol.front_position(t[:, 0])
    assert s.tolist() == [sol.front_position(float(ti)) for ti in t[:, 0]]
    # float arguments keep giving Python floats
    assert type(sol.temperature(0.1, 1.0)) is float
    assert type(sol.front_position(1.0)) is float


def test_array_evaluator_domain_errors():
    sol = solve_front(FIG9)
    with pytest.raises(ValueError):
        sol.temperature(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sol.temperature(np.array([0.1, -0.2]), 1.0)
    with pytest.raises(ValueError):
        sol.temperature_flux(0.1, np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        sol.front_position(np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        sol.front_position(np.array([-1.0]))
    # past eta = sqrt(200) the series raises, as for a float argument
    with pytest.raises(ValueError):
        sol.temperature(np.array([0.0, 30.0]), 1.0)
