import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefan_kummer import (
    Convective,
    Flux,
    ProblemSpec,
    SimilaritySolution,
    SolverReport,
    Temperature,
    front_log_residual,
    front_log_residual_integer_alpha,
    solve_front,
    temperature_integer_alpha,
)

from _oracles import (
    bisect,
    bisect_front,
    classical_convective_residual,
    classical_convective_temperature,
    direct_series_m,
    mp_field,
    mp_front_log_residual,
    mp_front_root,
    mp_weber_field,
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


def test_unknown_boundary_rejected():
    with pytest.raises(ValueError, match="unsupported boundary"):
        ProblemSpec(alpha=1.0, boundary=object())


def test_nonpositive_material_data_rejected():
    for kwargs in ({"d": 0.0}, {"k": -1.0}, {"gamma": 0.0}):
        with pytest.raises(ValueError):
            ProblemSpec(alpha=1.0, boundary=Flux(c=1.0), **kwargs)


# ---- value types ----


def test_value_type_contract():
    # The repr is the one error messages embed as {problem!r}.
    assert repr(FIG9) == ("ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0), "
                          "gamma=1.0, d=1.0, k=1.0)")
    assert repr(SolverReport(3, 0.0)) == "SolverReport(iterations=3, residual=0.0)"
    for obj, name in ((FIG9, "alpha"), (FIG9.boundary, "h0"), (Flux(c=1.0), "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 2.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert FIG9.alpha == 0.4 and FIG9.boundary.h0 == 0.5
    # Equal data of different families are different problems.
    assert (ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0))
            != ProblemSpec(alpha=0.4, boundary=Flux(c=1.0)))
    assert Temperature(t0=1.0).__eq__(Flux(c=1.0)) is NotImplemented
    twin = ProblemSpec(0.4, Convective(0.5, 1.0))
    assert twin == FIG9 and twin is not FIG9 and hash(twin) == hash(FIG9)
    assert hash(Flux(c=2.0)) == hash((2.0,))
    match FIG9:
        case ProblemSpec(alpha, Convective(h0, t_inf)):
            assert (alpha, h0, t_inf) == (0.4, 0.5, 1.0)
        case _:
            pytest.fail("ProblemSpec did not match its positional pattern")
    # __replace__ builds through the constructor, so its checks run again.
    assert FIG9.__replace__(gamma=2.0) == ProblemSpec(alpha=0.4, boundary=FIG9.boundary, gamma=2.0)
    with pytest.raises(ValueError, match="h0 must be a positive finite real"):
        FIG9.boundary.__replace__(h0=-1.0)
    with pytest.raises(TypeError):
        FIG9.__replace__(h0=1.0)
    assert pickle.loads(pickle.dumps(FIG9)) == FIG9
    # A solution's cached field pieces take no part in equality, hash or repr,
    # and a replaced solution walks its own.
    sol, fresh = solve_front(FIG9), solve_front(FIG9)
    sol.temperature(0.1, 1.0)
    assert "_melt" in vars(sol) and "_melt" not in vars(fresh)
    assert sol == fresh and hash(sol) == hash(fresh) and repr(sol) == repr(fresh)
    fresh.temperature(0.2, 1.0)
    assert sol == fresh and sol != sol.__replace__(nu=0.5)
    assert "_melt" not in vars(sol.__replace__(nu=sol.nu))
    assert pickle.loads(pickle.dumps(sol)) == fresh


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_on_value_types():
    assert copy.replace(FIG9, k=3.0) == ProblemSpec(alpha=0.4, boundary=FIG9.boundary, k=3.0)
    with pytest.raises(ValueError, match="k must be a positive finite real"):
        copy.replace(FIG9, k=0.0)


# ---- front equation ----


def _lhs(p, x):
    """C g / D(x), the left side of the front equation x**(alpha+1) = C g / D(x),
    as exp of the log form: G(log x) = log(C g / D(x)) - (alpha+1) log x."""
    return math.exp(front_log_residual(p, x) + (p.alpha + 1.0) * math.log(x))


def _residual(p, x):
    """C g / D(x) - x**(alpha+1), the linear residual of the front equation."""
    return _lhs(p, x) - x ** (p.alpha + 1.0)


def test_lhs_limit_at_zero():
    # All series factors are 1 at zero argument, so the lhs tends to the
    # bare prefactor, here 1.
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    assert _lhs(p, 1e-8) == pytest.approx(1.0, rel=1e-7)


def test_lhs_temperature_variant_value():
    # alpha = 0, t0 = 1 at x = 1: prefactor 1/2 times 1/(1 * M(1, 3/2, 1)),
    # the denominator summed directly as an oracle.
    p = ProblemSpec(alpha=0.0, boundary=Temperature(t0=1.0))
    expected = 0.5 / direct_series_m(1.0, 1.5, 1.0)
    assert _lhs(p, 1.0) == pytest.approx(expected, rel=1e-13)


def test_lhs_decreasing():
    for p in SAMPLE_SPECS:
        assert _lhs(p, 0.5) > _lhs(p, 1.0)


def test_lhs_rejects_nonpositive_x():
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^x must be"):
            front_log_residual(FIG9, x)
        with pytest.raises(ValueError, match="^x must be"):
            front_log_residual_integer_alpha(SAMPLE_SPECS[1], x)


def test_lhs_past_double_range_is_inf():
    # C g / D(x) is about 5e309 here: exp of its log raised a bare
    # "math range error".  Its log is finite.
    p = ProblemSpec(alpha=0.0, boundary=Temperature(t0=1e10))
    g = front_log_residual(p, 1e-300)
    assert g == pytest.approx(1403.88, abs=0.01)
    assert g + math.log(1e-300) > math.log(sys.float_info.max)


def test_lhs_and_residual_where_powers_of_x_overflow():
    # z = x**2 overflowed inside the front equation (x above 1.34e154), and
    # x**(alpha+1) in the linear residual: both raised a bare OverflowError.
    # The log form is finite wherever x**2 is, and names x past that.
    p = ProblemSpec(alpha=1.0, boundary=Temperature(t0=1.0))
    with pytest.raises(ValueError, match=r"^x must be positive with x\*\*2 finite"):
        front_log_residual(p, 1e160)
    with pytest.raises(ValueError, match=r"^x must be positive with x\*\*2 finite"):
        front_log_residual_integer_alpha(p, 1e160)
    assert math.isfinite(front_log_residual(p, 1.3e154))
    p5 = ProblemSpec(alpha=5.0, boundary=Temperature(t0=1.0))
    g = front_log_residual(p5, 1e60)
    # the lhs underflows to 0 and x**6 overflows: the residual is -inf
    assert -math.inf < g < 0.0
    assert math.exp(g + 6.0 * math.log(1e60)) == 0.0
    assert 6.0 * math.log(1e60) > math.log(sys.float_info.max)
    # lhs / x**6 - 1 = expm1(G) rounds to -1: the residual is -(1e50**6)
    assert math.expm1(front_log_residual(p5, 1e50)) == -1.0


def test_residual_positive_near_zero():
    for p in SAMPLE_SPECS:
        r = _residual(p, 1e-8)
        assert r > 0.0
        assert r == pytest.approx(_lhs(p, 1e-8), rel=1e-6)


def test_residual_sign_change_bracket():
    p = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
    assert front_log_residual(p, 1e-6) > 0.0
    assert front_log_residual(p, 10.0) < 0.0


def test_residual_strictly_decreasing_single_sign_change():
    for p in SAMPLE_SPECS:
        xs = [0.02 * i for i in range(1, 150)]
        for residual in (_residual, front_log_residual):
            values = [residual(p, x) for x in xs]
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
    # the linear residual x**(alpha+1) expm1(G)
    assert abs(root * math.expm1(front_log_residual(p, root))) <= 1e-13
    assert solve_front(p).nu == pytest.approx(root, abs=1e-12)


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
            1.0, _lhs(p, solve_front(p).nu)
        )


def test_solution_residual_invariant():
    for p in SAMPLE_SPECS:
        sol = solve_front(p)
        lhs = _lhs(p, sol.nu)
        assert abs(_residual(p, sol.nu)) <= 1e-12 * max(1.0, abs(lhs))


def test_residual_stop_is_relative_for_small_lhs():
    # nu**(alpha+1) is near 1e-13 here, so a residual test scaled by
    # max(1, lhs) accepts iterates far from the root (it stopped at 0.0676).
    p = ProblemSpec(alpha=10.0, boundary=Convective(h0=1e-3, t_inf=1e-3), gamma=10.0, d=10.0)
    sol = solve_front(p)
    assert sol.nu == pytest.approx(0.0388428558, rel=1e-9)
    assert abs(sol.nu - bisect_front(p)) <= 1e-12
    lhs = _lhs(p, sol.nu)
    assert abs(_residual(p, sol.nu)) <= 1e-12 * lhs


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


@pytest.mark.parametrize("k, d, boundary", [
    # kappa = k / (2 sqrt d) is 5e309, past the double range: Convective
    # and Flux gave coefficients 0.0 and -0.0, Temperature nan.
    (1e300, 1e-20, Convective(h0=1.0, t_inf=1.0)),
    (1e300, 1e-20, Temperature(t0=1e-100)),
    (1e300, 1e-20, Flux(c=1.0)),
    # and here 1/kappa is 2e310
    (1e-300, 1e20, Convective(h0=1.0, t_inf=1.0)),
    (1e-300, 1e20, Temperature(t0=1.0)),
    # kappa = 5e-331 underflows to 0, yet B = -c / kappa = -2e30 is in
    # range: a ZeroDivisionError before; and a subnormal kappa = 5e-323
    # made B 1.2% off
    (1e-300, 1e60, Flux(c=1e-300)),
    (1e-300, 1e44, Flux(c=1e-300)),
])
def test_face_relation_holds_at_extreme_conductivity(k, d, boundary):
    p = ProblemSpec(alpha=1.0, boundary=boundary, k=k, d=d)
    sol = solve_front(p)
    pp, q, g = boundary.face_relation()
    conduction = p.k * sol.coeff_odd / (2.0 * math.sqrt(p.d))
    assert pp * sol.coeff_even + q * conduction == pytest.approx(g, rel=1e-12, abs=0.0)
    assert sol.coeff_even > 0.0 > sol.coeff_odd


@pytest.mark.parametrize("p", [
    # nu 77.6: A and B were read from the difference of two logs of size
    # nu**2 = 6000, and met the front condition only to 5.4e-13.
    ProblemSpec(alpha=50.0, boundary=Convective(h0=1e50, t_inf=1e100),
                gamma=1e-100, d=1e-100, k=1e10),
    # A = 2.9e-196 from t_inf = 9.8e154 times e**-807, which is below
    # double range on its own.
    ProblemSpec(alpha=7.856529993905436,
                boundary=Convective(h0=3.4373223904194135e-296, t_inf=9.827266518032144e+154),
                gamma=3.7718770678187865e-158, d=2.1552830933501798e+182,
                k=1.0493181657747185e+57),
])
def test_coefficients_meet_both_conditions_at_extremes(p):
    mp = pytest.importorskip("mpmath")
    sol = solve_front(p)
    with mp.workdps(80):
        face, front, _ = _mp_condition_residuals(mp, sol)
    assert front <= 1e-14 and face <= 1e-13, (face, front)


def test_series_evaluation_budget(monkeypatch):
    import stefan_kummer.stefan as stefan

    calls = []
    real = stefan.log_kummer_m_scaled

    def counting(a, b, z):
        calls.append(z)
        return real(a, b, z)

    monkeypatch.setattr(stefan, "log_kummer_m_scaled", counting)
    cases = [
        (ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0)), 6),
        (ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0)), 4),
        (ProblemSpec(alpha=2.0, boundary=Flux(c=1.0)), 5),
    ]
    for p, budget in cases:
        calls.clear()
        solve_front(p)
        assert len(calls) <= budget, (p, len(calls))


def test_returned_root_meets_the_stop_on_wide_sample():
    # The coefficient evaluation at the returned nu repeats G there, and the
    # solve returns only once that |G| is within its rounding.
    import stefan_kummer.stefan as stefan

    for p, _ in _wide_sample(600):
        sol = solve_front(p)
        g, _, rounding = stefan._front_g(p)[0](math.log(sol.nu))
        assert abs(math.log1p(sol.solver_report.residual)) <= rounding, p
        assert abs(g) <= rounding, p


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
        root = mp_front_root(mp, p, sol.nu)
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
        assert abs(sol.nu - mp_front_root(mp, p, sol.nu)) <= 1e-13 * sol.nu


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


def test_converged_solve_reports_finite_relative_residual():
    # nu**401 overflows here: the residual nu**(alpha+1) * expm1(G) raised
    # OverflowError after the iteration had converged.
    p = ProblemSpec(alpha=400.0, boundary=Temperature(t0=1.0), gamma=1e-3, d=1e-3)
    sol = solve_front(p)
    assert sol.nu == pytest.approx(8.302050604888926, rel=1e-12)
    assert math.isfinite(sol.solver_report.residual)
    assert abs(sol.solver_report.residual) <= 1e-12


# C = kappa / (gamma 2**alpha d**((alpha+1)/2)) is about exp(1197): the
# root lies where the series exceed double precision.
PAST_SERIES_OVERFLOW = ProblemSpec(alpha=50.0, boundary=Temperature(t0=1.0), d=1e-20)


def test_root_past_series_overflow_solves():
    # It was reported as an unbracketed root while M was summed before its log.
    mp = pytest.importorskip("mpmath")
    sol = solve_front(PAST_SERIES_OVERFLOW)
    assert sol.nu == pytest.approx(29.6177737759425, rel=1e-13)
    with mp.workdps(50):
        assert abs(sol.nu - mp_front_root(mp, PAST_SERIES_OVERFLOW, sol.nu)) <= 1e-13 * sol.nu


# From a seeded sample of every datum in [1e-300, 1e300] and alpha up to 400:
# above z = 30 these sum series of over 10_000 terms, and raised
# NonConvergenceError at a cap of that size.
LONG_SERIES = [
    ProblemSpec(alpha=172.18560184160822, boundary=Temperature(t0=6.9086042868506345e+289),
                gamma=1.7633550984979427e-284, d=3.938333290852127e-30,
                k=2.066567176843034e-282),
    ProblemSpec(alpha=338.05254700010784,
                boundary=Convective(h0=1.109579332296994e+130, t_inf=1.0606464875233323e+213),
                gamma=4.444593657842956e-245, d=2.0155504150564231e-51,
                k=2.120194328404053e+199),
    ProblemSpec(alpha=259.2484454891788, boundary=Flux(c=2.8575322866633033e-193),
                gamma=1.4514818592050712e-193, d=6.41637276756859e-37,
                k=6.200913134892601e-197),
]


@pytest.mark.parametrize("p", LONG_SERIES, ids=["temperature", "convective", "flux"])
def test_root_needing_long_series_solves(p):
    mp = pytest.importorskip("mpmath")
    sol = solve_front(p)
    assert sol.nu > 70.0
    with mp.workdps(50):
        assert abs(sol.nu - mp_front_root(mp, p, sol.nu)) <= 1e-15 * sol.nu


def test_field_past_series_overflow_against_mpmath():
    # The unit profile grows like exp(nu**2) = 1e381 on its walk to the
    # face: unscaled it overflowed and the field was NaN.  Near the front u
    # lies below double range and is 0.
    mp = pytest.importorskip("mpmath")
    p, t = PAST_SERIES_OVERFLOW, 2.0
    sol = solve_front(p)
    with mp.workdps(60 + int(sol.nu**2 / 2.3)):
        nu = float(mp_front_root(mp, p, sol.nu))
        at = sol.__replace__(nu=nu)
        xs = at.front_position(t) * np.arange(10) / 10
        u, u_x = at.temperature(xs, t), at.temperature_flux(xs, t)
        ref = [mp_field(mp, p, nu, x, t) for x in xs.tolist()]
    u_ref = np.array([float(v) for v, _ in ref])
    u_x_ref = np.array([float(v) for _, v in ref])
    assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert np.abs(u_x - u_x_ref).max() <= 1e-12 * np.abs(u_x_ref).max()
    x = at.front_position(t) * np.linspace(0.0, 1.0, 200, endpoint=False)
    assert (at.temperature(x, t) >= 0.0).all()


def _extreme_spec(r):
    """Every datum log-uniform in [1e-300, 1e300], alpha uniform in [0, 50]."""
    def u():
        return math.exp(r.uniform(math.log(1e-300), math.log(1e300)))

    boundary = r.choice([lambda: Convective(h0=u(), t_inf=u()),
                         lambda: Temperature(t0=u()), lambda: Flux(c=u())])()
    return ProblemSpec(alpha=r.uniform(0.0, 50.0), boundary=boundary,
                       gamma=u(), d=u(), k=u())


def test_extreme_domain_solves_or_raises_true_error():
    # Every spec solves to the mpmath root or raises an error that holds:
    # a coefficient beyond double range, or a root below it.  The bound on
    # nu is 1e-13 plus the rounding of y = log nu and of the logs of the
    # data, 4 eps |log nu|: 1e-13 alone fails for some nu below 1e-250.
    mp = pytest.importorskip("mpmath")
    r = random.Random(5)
    outcomes = {"solved": 0, "overflow": 0, "underflow": 0}
    # About 1 in 1000 of these underflows: one known case is added.
    underflowing = ProblemSpec(alpha=0.0, boundary=Convective(h0=1e-300, t_inf=1e-300))
    for p in [_extreme_spec(r) for _ in range(300)] + [underflowing]:
        try:
            sol = solve_front(p)
        except OverflowError as exc:
            if "underflows" in str(exc):
                with mp.workdps(50):
                    assert mp_front_log_residual(mp, p, math.log(sys.float_info.min)) < 0, p
                outcomes["underflow"] += 1
            else:
                assert "overflow double precision" in str(exc), p
                outcomes["overflow"] += 1
            continue
        assert sol.solver_report.iterations <= 7, p
        with mp.workdps(50):
            root = mp_front_root(mp, p, sol.nu)
        bound = 1e-13 + 4.0 * sys.float_info.epsilon * abs(math.log(sol.nu))
        assert abs(sol.nu - root) <= bound * root, p
        outcomes["solved"] += 1
    assert outcomes["solved"] >= 250 and outcomes["underflow"] >= 1, outcomes


def test_front_coefficient_below_double_range_reported():
    # nu is about h0 * t_inf = 1e-600 here.
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1e-300, t_inf=1e-300))
    with pytest.raises(OverflowError, match="underflows"):
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


def _wide_sample(n, seed=7):
    r = random.Random(seed)

    def u(lo, hi):
        return math.exp(r.uniform(math.log(lo), math.log(hi)))

    return [(_wide_spec(r.choice(sorted(_WIDE_BOUNDARIES)), r.uniform(0.0, 50.0), u), u(0.1, 10.0))
            for _ in range(n)]


def _recording_front_g(monkeypatch, visited, starts=None):
    """Patch ``stefan._front_g`` so that every front evaluation appends its
    (y, G, (G', G'')) to ``visited``; with ``starts``, a map of problems to
    y, the solve starts there instead of at the model's root."""
    import stefan_kummer.stefan as stefan

    real = stefan._front_g

    def recording(problem):
        front, start = real(problem)

        def wrapped(y, coefficients=False):
            result = front(y, coefficients)
            visited.append((y, result[0], result[1]))
            return result

        return wrapped, start if starts is None else lambda: starts[problem]

    monkeypatch.setattr(stefan, "_front_g", recording)


def test_front_evaluations_per_solve_on_wide_sample(monkeypatch):
    # Halley's step ends most solves after two steps: one evaluation at the
    # start, one after the first step and the coefficient evaluation.
    # Newton's method took 4.1 evaluations per solve on this sample.
    visited = []
    _recording_front_g(monkeypatch, visited)
    sample = _wide_sample(600)
    for p, _ in sample:
        solve_front(p)
    assert len(visited) / len(sample) <= 3.4


def test_front_curvature_matches_central_difference():
    # G'' from the log-sum of both series against (G'(y+h) - G'(y-h)) / 2h,
    # at the root and half a unit of y either side of it.
    import stefan_kummer.stefan as stefan

    for p, _ in _wide_sample(80, seed=13):
        front = stefan._front_g(p)[0]
        root = math.log(solve_front(p).nu)
        for y in (root - 0.5, root, root + 0.5):
            h = 1e-4
            _, (slope, curvature), _ = front(y)
            difference = (front(y + h)[1][0] - front(y - h)[1][0]) / (2.0 * h)
            assert abs(curvature - difference) <= 1e-7 * (abs(curvature) + abs(slope)), (p, y)


def test_far_starts_converge_to_the_same_root(monkeypatch):
    # Five units of y left and right of the root: far right |G G''| > G'**2,
    # where the step is Newton's, and Newton's steps descend monotonically.
    # Both roots meet the stop |G| <= rounding, so they agree to within
    # twice the step that the rounding allows.
    import stefan_kummer.stefan as stefan

    sample = [p for p, _ in _wide_sample(60, seed=17)]
    roots = [math.log(solve_front(p).nu) for p in sample]
    stops = []
    for p, y in zip(sample, roots):
        _, (slope, _), rounding = stefan._front_g(p)[0](y)
        stops.append(2.0 * rounding / -slope)
    newton = 0
    for shift in (-5.0, 5.0):
        visited = []
        with monkeypatch.context() as patch:
            _recording_front_g(patch, visited, {p: y + shift for p, y in zip(sample, roots)})
            for p, y, stop in zip(sample, roots, stops):
                assert abs(math.log(solve_front(p).nu) - y) <= stop, p
        newton += sum(abs(g * curvature) > slope * slope for _, g, (slope, curvature) in visited)
    assert newton > 0


def test_field_against_mpmath_on_wide_sample():
    # The even/odd sum cancelled at large alpha * nu: 41 of these 150 specs
    # were off by more than 1e-12 of scale, by up to 9e-3, and 18 had u <= 0
    # in the melt.
    mp = pytest.importorskip("mpmath")
    for p, t in _wide_sample(150):
        sol = solve_front(p)
        with mp.workdps(60 + int(sol.nu**2 / 2.3)):
            nu = float(mp_front_root(mp, p, sol.nu))
            at = sol.__replace__(nu=nu)
            xs = at.front_position(t) * np.arange(20) / 20
            u, u_x = at.temperature(xs, t), at.temperature_flux(xs, t)
            ref = [mp_field(mp, p, nu, x, t) for x in xs.tolist()]
        u_ref = np.array([float(v) for v, _ in ref])
        u_x_ref = np.array([float(v) for _, v in ref])
        assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max(), (p, nu)
        assert np.abs(u_x - u_x_ref).max() <= 1e-12 * np.abs(u_x_ref).max(), (p, nu)
        assert (u > 0.0).all(), (p, nu)
        # zero up to the rounding of eta = s(t) / (2 sqrt(d t)) about nu
        assert abs(at.temperature(at.front_position(t), t)) <= 1e-15 * u[0], (p, nu)


def test_weber_reference_matches_the_kummer_reference():
    # Two closed forms of one field: Weber's from the front and the Stefan
    # slope, and mp_field's from the face relation.  They agree at the
    # front equation's root, held here at the working precision.
    mp = pytest.importorskip("mpmath")
    sample = [(p, t) for p, t in _wide_sample(40) if solve_front(p).nu <= 5.0]
    assert len(sample) >= 8
    for p, t in sample[:8]:
        sol = solve_front(p)
        with mp.workdps(60 + int(sol.nu**2 / 2.3)):
            nu = mp_front_root(mp, p, sol.nu)
            for x in (sol.front_position(t) * np.array([0.0, 0.3, 0.7, 0.99])).tolist():
                weber, kummer = mp_weber_field(mp, p, nu, x, t), mp_field(mp, p, nu, x, t)[0]
                assert abs(weber - kummer) <= mp.mpf(10) ** -35 * abs(kummer), (p, x)


# nu 0.36, 36.9, 63.7 and 225.9: past the reach of mp_field's cancelling
# terms from nu about 5 on.
WEBER_CASES = [FIG9] + [ProblemSpec(alpha=alpha, boundary=Temperature(t0=1.0), d=1e-300)
                        for alpha in (2.0, 10.0, 150.0)]


def _weber_points(sol, t):
    """19 melt points at the time t, up to eta = 24 at large nu: f falls
    like e**(-eta**2), and past eta about 26 it leaves the normal floats."""
    return sol.front_position(t) * min(1.0, 24.0 / sol.nu) * np.arange(1, 20) / 20


@pytest.mark.parametrize("problem", WEBER_CASES)
def test_field_against_weber_reference_up_to_large_nu(problem):
    mp = pytest.importorskip("mpmath")
    sol = solve_front(problem)
    xs = _weber_points(sol, 1.0)
    u = sol.temperature(xs, 1.0)
    with mp.workdps(40):
        ref = [float(mp_weber_field(mp, problem, sol.nu, x, 1.0)) for x in xs.tolist()]
    normal = [(v, r) for v, r in zip(u.tolist(), ref) if abs(r) >= sys.float_info.min]
    assert len(normal) >= 17, sol.nu
    for v, r in normal:
        assert abs(v - r) <= 1e-12 * abs(r), (sol.nu, v, r)


@pytest.mark.xfail(strict=True, reason="f(eta) underflows before t**(alpha/2) scales it up")
def test_field_is_normal_where_only_the_profile_underflows():
    # At t = 2 and alpha 150, u = 2**75 f: the last point's u is 4.9e-304,
    # a normal float, but its f is 1.3e-326, below the subnormals, so
    # temperature returns 0.
    mp = pytest.importorskip("mpmath")
    problem = WEBER_CASES[-1]
    sol = solve_front(problem)
    x = _weber_points(sol, 2.0)[-1]
    with mp.workdps(40):
        ref = float(mp_weber_field(mp, problem, sol.nu, x, 2.0))
    assert ref >= sys.float_info.min
    assert abs(sol.temperature(x, 2.0) - ref) <= 1e-12 * ref


def test_profile_face_values_are_the_series_coefficients():
    # f(0) and f'(0) of the profile walked from the front's Stefan slope
    # meet the face relation only where nu is the root: this checks nu
    # apart from the front equation's series.
    for p, _ in _wide_sample(400, seed=11):
        sol = solve_front(p)
        assert sol.temperature(0.0, 1.0) == pytest.approx(sol.coeff_even, rel=1e-12, abs=0.0), p
        slope = 2.0 * math.sqrt(p.d) * sol.temperature_flux(0.0, 1.0)
        assert slope == pytest.approx(sol.coeff_odd, rel=1e-12, abs=0.0), p


@pytest.mark.parametrize("problem", [
    # (2 nu sqrt(d))**(alpha+1) is about 1e514, the Stefan slope 3.5e14.
    ProblemSpec(alpha=5.0, boundary=Temperature(t0=1.0), gamma=1e-300, d=1e200, k=1e300),
    # nu near the series' overflow: the walk to the face grows by about
    # exp(nu**2) = 1e290.
    ProblemSpec(alpha=1.0, boundary=Convective(h0=1e200, t_inf=1e200)),
])
def test_stefan_slope_formed_without_overflow(problem):
    sol = solve_front(problem)
    assert math.isfinite(sol.coeff_odd)
    assert sol.temperature(0.0, 1.0) == pytest.approx(sol.coeff_even, rel=1e-12, abs=0.0)
    slope = 2.0 * math.sqrt(problem.d) * sol.temperature_flux(0.0, 1.0)
    assert slope == pytest.approx(sol.coeff_odd, rel=1e-12, abs=0.0)
    front_slope = 2.0 * math.sqrt(problem.d) * sol.temperature_flux(sol.front_position(1.0), 1.0)
    # f is convex and decreasing in the melt, so |f'(nu)| <= |f'(0)| = |B|.
    assert 0.0 < -front_slope <= -sol.coeff_odd
    x = sol.front_position(1.0) * np.linspace(0.0, 1.0, 50, endpoint=False)
    assert (sol.temperature(x, 1.0) > 0.0).all()


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
        solver_report=SolverReport(iterations=0, residual=0.0),
    )
    assert made_up.front_position(1.0) == 1.0


def test_front_and_field_where_d_t_underflows():
    # d * t = 1e-330 underflowed: s(t) was 0.0 and eta = 0 / 0 at the face.
    p = ProblemSpec(alpha=0.4, boundary=Temperature(t0=1e-200), d=1e-300)
    sol = solve_front(p)
    assert sol.front_position(1e-30) == pytest.approx(2.0 * sol.nu * 1e-165, rel=1e-15, abs=0.0)
    assert sol.front_speed(1e-30) == pytest.approx(sol.nu * 1e-135, rel=1e-15, abs=0.0)
    assert sol.temperature(0.0, 1e-30) == pytest.approx(1e-200 * 1e-30**0.2, rel=1e-12, abs=0.0)


@settings(max_examples=100)
@given(t=st.floats(min_value=1e-6, max_value=1e6))
def test_front_scaling_property(t):
    sol = solve_front(FIG9)
    assert sol.front_position(4.0 * t) == pytest.approx(2.0 * sol.front_position(t), rel=1e-12)


def _reduced(p):
    """The problem with gamma = d = k = 1 and the same nu: nu depends on
    the data only through alpha and these groups."""
    b, a, gamma, d, k = p.boundary, p.alpha, p.gamma, p.d, p.k
    if isinstance(b, Temperature):
        reduced = Temperature(t0=b.t0 * k / (gamma * d ** (1.0 + a / 2.0)))
    elif isinstance(b, Flux):
        reduced = Flux(c=b.c / (gamma * d ** ((a + 1.0) / 2.0)))
    else:
        reduced = Convective(h0=b.h0 * math.sqrt(d) / k,
                             t_inf=b.t_inf * k / (gamma * d ** (1.0 + a / 2.0)))
    return ProblemSpec(alpha=a, boundary=reduced)


def test_nu_invariant_under_scaling_of_the_data():
    # Each solve lands within its rounding of the root (up to 6.4 eps of
    # max(1, |log nu|) seen against 50-digit mpmath), so the two may differ
    # by the sum.  Worst difference seen: 4.4 over these 3000 and 8.1 over
    # seeds 1 to 8.
    r = random.Random(3)

    def u():
        return 10.0 ** r.uniform(-5.0, 5.0)

    families = [lambda: Convective(h0=u(), t_inf=u()), lambda: Temperature(t0=u()),
                lambda: Flux(c=u())]
    for _ in range(3000):
        p = ProblemSpec(alpha=r.uniform(0.0, 20.0), boundary=r.choice(families)(),
                        gamma=u(), d=u(), k=u())
        nu, nu_reduced = solve_front(p).nu, solve_front(_reduced(p)).nu
        bound = 16.0 * sys.float_info.epsilon * max(1.0, abs(math.log(nu)))
        assert abs(nu_reduced - nu) <= bound * nu, p


@pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.1, math.nan, 0.2]),
                               np.array([0.1, math.inf])], ids=["nan", "inf", "nan-element", "inf-element"])
@pytest.mark.parametrize("method", ["temperature", "temperature_flux"])
def test_nonfinite_x_rejected_naming_x(method, x):
    # Such x passed the x >= 0 check and met an error about the series.
    sol = solve_front(FIG9)
    with pytest.raises(ValueError, match="^x must be"):
        getattr(sol, method)(x, 1.0)


@pytest.mark.parametrize("x,t", [(-0.1, 1.0), (0.1, math.inf), (math.nan, 1.0),
                                 (0.1, 0.0), (61.0, 1.0)])
def test_integer_alpha_temperature_rejects_what_temperature_rejects(x, t):
    # It returned 1.139 for x = -0.1 and inf for t = inf.
    sol = solve_front(ProblemSpec(alpha=1.0, boundary=Temperature(t0=1.0)))
    with pytest.raises(ValueError):
        sol.temperature(x, t)
    with pytest.raises(ValueError):
        temperature_integer_alpha(sol, x, t)


def test_continuation_beyond_double_range_raises():
    # f grows like (eta / nu)**alpha past the front: 1e1780 at eta = 29.5.
    sol = solve_front(ProblemSpec(alpha=1000.0, boundary=Temperature(t0=1.0)))
    assert sol.temperature(0.5 * sol.front_position(1.0), 1.0) > 0.0
    with pytest.raises(OverflowError, match="past the front"):
        sol.temperature(59.0, 1.0)


@pytest.mark.parametrize("method", ["temperature", "temperature_flux"])
def test_field_beyond_double_range_in_the_melt_raises(method):
    # t**(alpha/2) f is about 1e357 at the face: u was inf with a RuntimeWarning.
    problem = ProblemSpec(alpha=33.53732784164825,
                          boundary=Temperature(t0=1.215116349774339e-103),
                          gamma=3.51697125060409e-243, d=1.283686343247775e19,
                          k=1.719652334063203e163)
    sol = solve_front(problem)
    with pytest.raises(OverflowError, match="in the melt"):
        getattr(sol, method)(0.0, 8.098127378786578e+27)


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
# temperature_integer_alpha checks the field to a few eps of u(0, t), not
# near the front at large nu, where its two terms cancel; the bounds below
# are relative to the face temperature (or to 1).


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
    root = bisect(lambda x: front_log_residual_integer_alpha(p, x), 1e-6, 2.0)
    assert abs(root - nu) <= 1e-10
    # 220-step bisection of the full form gives 0.44425713157295275282.
    assert nu == pytest.approx(0.4442571315729528, abs=1e-13)


def test_integer_alpha_front_equation_classical_reduction():
    p = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    for x in (0.2, 0.5, 1.0):
        # the linear residual, times exp(-x**2), is x expm1(G)
        twin = front_log_residual_integer_alpha(p, x)
        assert x * math.exp(x * x) * math.expm1(twin) == pytest.approx(
            classical_convective_residual(x, 1.0, 1.0), rel=1e-12
        )


def test_integer_alpha_residual_negative_at_large_x():
    for p in SAMPLE_SPECS[:3]:
        if isinstance(p.boundary, Convective) and p.alpha == int(p.alpha):
            assert front_log_residual_integer_alpha(p, 10.0) < 0.0


def test_integer_alpha_rejects_fractional_exponent():
    with pytest.raises(ValueError):
        front_log_residual_integer_alpha(FIG9, 0.5)
    with pytest.raises(ValueError):
        temperature_integer_alpha(solve_front(FIG9), 0.1, 1.0)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("boundary", [
    Convective(h0=0.5, t_inf=1.0), Temperature(t0=1.0), Flux(c=1.0),
], ids=["convective", "temperature", "flux"])
def test_integer_alpha_forms_hold_for_every_family(boundary, n):
    # The repeated-erfc forms come from the face relation p A + q kappa B = g,
    # so they hold for all three families.
    for gamma, d, k in ((1.0, 1.0, 1.0), (0.4, 2.1, 0.7), (3.0, 0.5, 2.0)):
        p = ProblemSpec(alpha=float(n), boundary=boundary, gamma=gamma, d=d, k=k)
        sol = solve_front(p)
        root = bisect(lambda x: front_log_residual_integer_alpha(p, x), 1e-6, 10.0)
        assert abs(root - sol.nu) <= 1e-10, (gamma, d, k)
        for t in (0.5, 2.0):
            # at nu below 1.4 here, a bound of 1e-12 of the face holds at 0.99 s(t)
            face = sol.temperature(0.0, t)
            for frac in (0.0, 0.3, 0.7, 0.99):
                x = frac * sol.front_position(t)
                got = temperature_integer_alpha(sol, x, t)
                assert abs(got - sol.temperature(x, t)) <= 1e-12 * face, (gamma, d, k, t, frac)


def test_log_residual_matches_twin_at_every_solver_iterate(monkeypatch):
    # G from scaled Kummer logs against its repeated-erfc twin, which sums
    # no Kummer series, at every y that solve_front visits, up to nu 77.6.
    # The 1/x term is the twin's own cancellation in F_n at small x.
    visited = []
    _recording_front_g(monkeypatch, visited)
    r = random.Random(5)

    def u(lo, hi):
        return math.exp(r.uniform(math.log(lo), math.log(hi)))

    specs = [ProblemSpec(alpha=float(r.randint(0, 50)), boundary=_WIDE_BOUNDARIES[family](u),
                         gamma=u(1e-9, 1e9), d=u(1e-9, 1e9), k=u(1e-9, 1e9))
             for family in sorted(_WIDE_BOUNDARIES) for _ in range(200)]
    specs += [ProblemSpec(alpha=50.0, boundary=Convective(h0=1e50, t_inf=1e100),
                          gamma=1e-100, d=1e-100, k=1e10), PAST_SERIES_OVERFLOW]
    eps, nus = sys.float_info.epsilon, []
    for p in specs:
        visited.clear()
        nus.append(solve_front(p).nu)
        for x in [math.exp(y) for y, _, _ in visited]:
            g, twin = front_log_residual(p, x), front_log_residual_integer_alpha(p, x)
            scale = 1.0 + abs(g) + x * x + (p.alpha + 1.0) * abs(math.log(x)) + 1.0 / x
            assert abs(g - twin) <= 16.0 * eps * scale, (p, x, g, twin)
    assert max(nus) > 77.0 and min(nus) < 1e-6


@pytest.mark.parametrize("p", [
    ProblemSpec(alpha=0.0, boundary=Temperature(t0=1e-34)),
    ProblemSpec(alpha=0.0, boundary=Temperature(t0=1e-30)),
    ProblemSpec(alpha=1.0, boundary=Temperature(t0=1e-40)),
    ProblemSpec(alpha=3.0, boundary=Flux(c=1e-80)),
    ProblemSpec(alpha=0.0, boundary=Convective(h0=1e-20, t_inf=1e-20)),
], ids=["t0-1e-34", "t0-1e-30", "alpha1-t0-1e-40", "alpha3-c-1e-80", "convective-1e-20"])
def test_integer_alpha_twins_at_tiny_front_coefficient(p):
    # F_n cancelled to 0 below x = 1e-16: at t0 1e-34 (nu 7.07e-18) the
    # twin raised a bare "math domain error" and the field ZeroDivisionError,
    # and at t0 1e-30 the twin read -0.043 where G is 0.  The bounds are
    # those of the twin tests above without their 1/x cancellation term.
    sol = solve_front(p)
    x, eps = sol.nu, sys.float_info.epsilon
    assert x < 1e-13
    g, twin = front_log_residual(p, x), front_log_residual_integer_alpha(p, x)
    scale = 1.0 + abs(g) + x * x + (p.alpha + 1.0) * abs(math.log(x))
    assert abs(g - twin) <= 16.0 * eps * scale, (g, twin)
    face = sol.temperature(0.0, 1.0)
    for frac in (0.0, 0.3, 0.7, 0.99):
        x = frac * sol.front_position(1.0)
        assert abs(temperature_integer_alpha(sol, x, 1.0) - sol.temperature(x, 1.0)) <= 1e-12 * face


@pytest.mark.parametrize("n", [268, 342])
@pytest.mark.parametrize("boundary", [
    Convective(h0=0.5, t_inf=1.0), Temperature(t0=1.0), Flux(c=1.0),
], ids=["convective", "temperature", "flux"])
def test_integer_alpha_forms_raise_past_double_range(boundary, n):
    # 2**n Gamma(n/2+1) overflows from alpha 268: the residual was nan or of
    # the wrong sign, the field nan, and from alpha 342 math.gamma raised a
    # bare "math range error".
    sol = solve_front(ProblemSpec(alpha=float(n), boundary=boundary))
    with pytest.raises(OverflowError, match=f"alpha={n} the repeated-erfc factors leave"):
        front_log_residual_integer_alpha(sol.problem, sol.nu)
    with pytest.raises(OverflowError, match=f"alpha={n} the repeated-erfc factors leave"):
        front_log_residual_integer_alpha(sol.problem, 0.3)
    with pytest.raises(OverflowError, match=f"alpha={n} the repeated-erfc factors leave"):
        temperature_integer_alpha(sol, 0.5 * sol.front_position(1.0), 1.0)


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


@pytest.mark.parametrize("box", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
def test_sequence_arguments_give_arrays(box):
    # Lists and tuples were checked and evaluated, then failed to convert
    # to a float.
    sol = solve_front(FIG9)
    xs, ts = [0.1, 0.2], [0.5, 1.0]
    for method in (sol.temperature, sol.temperature_flux):
        by_x, by_t = method(box(xs), 1.0), method(0.1, box(ts))
        assert isinstance(by_x, np.ndarray) and isinstance(by_t, np.ndarray)
        assert by_x.tolist() == [method(x, 1.0) for x in xs]
        assert by_t.tolist() == [method(0.1, t) for t in ts]
    fronts = sol.front_position(box(ts))
    assert isinstance(fronts, np.ndarray)
    assert fronts.tolist() == [sol.front_position(t) for t in ts]
    # A broadcast shape of () gives a float, also from 0-d arrays.
    assert type(sol.temperature(np.array(0.1), np.float64(1.0))) is float


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
    # the continuation past the front ends at eta = x / (2 sqrt(d t)) = 30
    with pytest.raises(ValueError, match="at most 30"):
        sol.temperature(np.array([0.0, 61.0]), 1.0)
