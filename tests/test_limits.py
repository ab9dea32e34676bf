import math
from dataclasses import replace

import pytest

from stefan_kummer import (
    Convective,
    ProblemSpec,
    Temperature,
    field_convergence_gap,
    limit_problem,
    run_limit_study,
    solve_front,
)

from _oracles import bisect, classical_stefan_residual, mp_field, mp_front_root

DECADES = tuple(10.0**i for i in range(7))


def test_limit_problem_is_temperature_family():
    base = ProblemSpec(alpha=2.0, boundary=Convective(h0=1.0, t_inf=0.7))
    limit = limit_problem(base)
    assert isinstance(limit.boundary, Temperature)
    assert limit.boundary.t0 == 0.7
    assert (limit.alpha, limit.gamma, limit.d, limit.k) == (2.0, 1.0, 1.0, 1.0)


def test_study_monotone_and_bounded():
    base = ProblemSpec(alpha=2.0, boundary=Convective(h0=1.0, t_inf=0.7))
    study = run_limit_study(base, DECADES)
    assert all(a < b for a, b in zip(study.nu_values, study.nu_values[1:]))
    assert all(v < study.nu_infinity for v in study.nu_values)
    assert abs(study.nu_values[-1] - study.nu_infinity) <= 1e-3


def test_increments_shrink():
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    study = run_limit_study(base, tuple(2.0**i for i in range(12)))
    steps = [b - a for a, b in zip(study.nu_values, study.nu_values[1:])]
    assert all(s > 0.0 for s in steps)
    assert all(b < a for a, b in zip(steps[2:], steps[3:]))


def test_single_point_grid_delegates():
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    study = run_limit_study(base, (1.0,))
    assert study.nu_values == (solve_front(base).nu,)


def test_alpha0_limit_equals_classical_root():
    # The limit coefficient for alpha = 0 solves the classical erf-form
    # equation sqrt(pi) x exp(x^2) erf(x) = k tinf / (gamma d); for
    # tinf = 1 a 220-step bisection gives 0.62006263331359549548.
    base = ProblemSpec(alpha=0.0, boundary=Convective(h0=1.0, t_inf=1.0))
    study = run_limit_study(base, (1.0,))
    classical = bisect(lambda x: classical_stefan_residual(x, 1.0), 1e-8, 2.0)
    assert classical == pytest.approx(0.62006263331359549548, abs=1e-14)
    assert study.nu_infinity == pytest.approx(classical, abs=1e-12)


def test_field_gap_decreases_with_h0():
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
    sol_inf = solve_front(limit_problem(base))
    ts = (0.2, 0.6, 1.0, 1.5)
    xs = [0.1 * i for i in range(9)]
    gaps = [field_convergence_gap(base, h0, xs, ts) for h0 in (1.0, 1e2, 1e6)]
    assert gaps[2] < gaps[1] < gaps[0]
    assert all(math.isfinite(g) and g >= 0.0 for g in gaps)
    assert gaps[2] <= 1e-5 * max(1.0, sol_inf.temperature(0.0, max(ts)))


def test_face_value_converges_to_bulk():
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    gaps = []
    for h0 in (1.0, 10.0, 100.0, 1e4, 1e6):
        p = ProblemSpec(alpha=0.4, boundary=Convective(h0=h0, t_inf=1.0))
        sol = solve_front(p)
        gaps.append(abs(sol.temperature(0.0, 1.0) - 1.0))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # gap scales like ~1/h0 empirically
    assert gaps[-1] <= 1e-5


def test_coefficient_gaps_decrease():
    base = ProblemSpec(alpha=2.0, boundary=Convective(h0=1.0, t_inf=0.7))
    sol_inf = solve_front(limit_problem(base))
    even_gaps, odd_gaps = [], []
    for h0 in (1.0, 10.0, 100.0, 1e4):
        sol = solve_front(
            ProblemSpec(alpha=2.0, boundary=Convective(h0=h0, t_inf=0.7))
        )
        even_gaps.append(abs(sol.coeff_even - 0.7))
        odd_gaps.append(abs(sol.coeff_odd - sol_inf.coeff_odd))
    assert all(b < a for a, b in zip(even_gaps, even_gaps[1:]))
    assert all(b < a for a, b in zip(odd_gaps, odd_gaps[1:]))


def test_grid_validation():
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    with pytest.raises(ValueError):
        run_limit_study(base, ())
    with pytest.raises(ValueError):
        run_limit_study(base, (1.0, 1.0))
    with pytest.raises(ValueError):
        run_limit_study(base, (2.0, 1.0))
    with pytest.raises(ValueError):
        run_limit_study(base, (-1.0, 1.0))


def test_non_convective_base_rejected():
    temp = ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0))
    with pytest.raises(ValueError, match="run_limit_study requires a Convective"):
        run_limit_study(temp, (1.0,))
    with pytest.raises(ValueError, match="limit_problem requires a Convective"):
        limit_problem(temp)
    with pytest.raises(ValueError, match="field_convergence_gap requires a Convective"):
        field_convergence_gap(temp, 1.0, (0.1,), (1.0,))


def test_field_gap_rejects_nonpositive_h0():
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    with pytest.raises(ValueError):
        field_convergence_gap(base, 0.0, (0.1,), (1.0,))


@pytest.mark.parametrize("xs,ts", [((), (1.0,)), ((0.1,), ()), ([], [])])
def test_field_gap_rejects_empty_grid(xs, ts):
    # An empty grid read as a gap of 0.0.
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    with pytest.raises(ValueError):
        field_convergence_gap(base, 1.0, xs, ts)


def test_field_gap_matches_pointwise_reference():
    # One array call per solution against a loop over the float evaluators.
    base = ProblemSpec(alpha=1.3, boundary=Convective(h0=2.0, t_inf=3.0), d=0.7)
    xs = [0.15 * j for j in range(20)]
    ts = [0.5, 1.0, 2.5, 6.0]
    gap = field_convergence_gap(base, 4.0, xs, ts)
    sol_h = solve_front(ProblemSpec(alpha=1.3, boundary=Convective(h0=4.0, t_inf=3.0), d=0.7))
    sol_inf = solve_front(limit_problem(base))
    ref = max(abs(sol_h.temperature(x, t) - sol_inf.temperature(x, t)) for t in ts for x in xs)
    scale = max(abs(sol_inf.temperature(x, t)) for t in ts for x in xs)
    assert ref > 0.0
    assert abs(gap - ref) <= 1e-13 * scale


def test_field_gap_beyond_series_range_raises():
    # The field is continued past the front up to eta = x / (2 sqrt(d t)) = 30.
    # At eta = 15, past the eta of about 14.1 where the even/odd series
    # ended, both fields match mpmath.
    mp = pytest.importorskip("mpmath")
    base = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    with mp.workdps(60):
        u = [mp_field(mp, p, mp_front_root(mp, p, solve_front(p).nu), 30.0, 1.0)[0]
             for p in (replace(base, boundary=Convective(h0=2.0, t_inf=1.0)), limit_problem(base))]
    gap = field_convergence_gap(base, 2.0, (30.0,), (1.0,))
    assert abs(gap - float(abs(u[0] - u[1]))) <= 1e-14 * float(max(abs(u[0]), abs(u[1])))
    with pytest.raises(ValueError, match="at most 30"):
        field_convergence_gap(base, 2.0, (0.1, 61.0), (1.0,))
