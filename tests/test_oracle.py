import itertools
import math

import numpy as np
import pytest

from stefan_kummer import (
    ComparisonReport,
    Convective,
    Flux,
    OracleConfig,
    OracleResult,
    ProblemSpec,
    Temperature,
    compare_to_closed_form,
    run_oracle,
    solve_front,
)

from _oracles import bisect, classical_stefan_residual

FIG9 = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
FAMILIES = [
    FIG9,
    ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0)),
    ProblemSpec(alpha=2.0, boundary=Flux(c=1.0)),
]


def short_config(problem, t_end=0.25, nx=200, **kwargs):
    sol = solve_front(problem)
    return OracleConfig(
        domain_length=4.0 * sol.front_position(t_end), t_end=t_end, nx=nx, **kwargs
    )


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(domain_length=0.0, t_end=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            OracleConfig(domain_length=bad, t_end=1.0)
        with pytest.raises(ValueError):
            OracleConfig(domain_length=1.0, t_end=bad)
    with pytest.raises(ValueError):
        OracleConfig(domain_length=1.0, t_end=1.0, nx=10)
    # A float nx passed, and run_oracle failed with a bare TypeError.
    with pytest.raises(ValueError, match="nx"):
        OracleConfig(domain_length=1.0, t_end=1.0, nx=100.0)
    with pytest.raises(ValueError):
        OracleConfig(domain_length=1.0, t_end=0.0)
    with pytest.raises(ValueError):
        OracleConfig(domain_length=1.0, t_end=1.0, start_fraction=1.5)
    # A subnormal start time (1e-322) made the first step divide by zero.
    with pytest.raises(ValueError, match="start time"):
        OracleConfig(domain_length=1.0, t_end=1e-320)


def test_front_tracks_closed_form():
    sol = solve_front(FIG9)
    result = run_oracle(FIG9, short_config(FIG9))
    report = compare_to_closed_form(result, sol, t_window=(0.025, 0.25))
    assert report.max_front_err <= 1e-2
    assert report.max_field_err <= 2e-2
    assert result.energy_balance_drift <= 5e-3


def test_front_monotone_nondecreasing():
    result = run_oracle(FIG9, short_config(FIG9))
    fronts = result.front_positions
    assert np.all(np.diff(fronts) >= 0.0)


def test_energy_balance_conservative():
    # nx 2000 is the acceptance gate's grid, where the melted block that
    # the energy sum adds up is longest.
    for p in FAMILIES:
        for nx in (120, 2000):
            result = run_oracle(p, short_config(p, nx=nx))
            assert result.energy_balance_drift <= 1e-10


def test_step_constant_keeps_margin_at_bench_grids():
    # The rule that set the step constant (oracle._DT_SAFETY): on the
    # oracle-verify benchmark's grids, with alpha and each boundary datum
    # scaled by exp(-0.05), 1 or exp(0.05) on a full grid (45 runs), the
    # worst errors over [0.1, 1] stay within 5e-3 (front) and 1.5e-2
    # (field).  They read 4.634e-3 and 1.043e-2.
    cases = [
        (Convective, {"h0": 0.5, "t_inf": 1.0}, 0.4, 160),
        (Temperature, {"t0": 1.0}, 0.4, 250),
        (Flux, {"c": 1.0}, 2.0, 225),
    ]
    factors = (math.exp(-0.05), 1.0, math.exp(0.05))
    worst_front = worst_field = 0.0
    for family, data, alpha, nx in cases:
        for scale in itertools.product(factors, repeat=1 + len(data)):
            boundary = family(**{key: v * f for (key, v), f in zip(data.items(), scale[1:])})
            problem = ProblemSpec(alpha=alpha * scale[0], boundary=boundary)
            sol = solve_front(problem)
            result = run_oracle(problem, short_config(problem, t_end=1.0, nx=nx))
            report = compare_to_closed_form(result, sol)
            worst_front = max(worst_front, report.max_front_err)
            worst_field = max(worst_field, report.max_field_err)
    assert worst_front <= 5e-3
    assert worst_field <= 1.5e-2


@pytest.mark.parametrize("problem, nx, steps, newton", [
    (FAMILIES[0], 160, 186, 221),
    (FAMILIES[1], 250, 287, 343),
    (FAMILIES[2], 225, 260, 311),
], ids=["convective", "temperature", "flux"])
def test_step_counts_pinned_at_bench_grids(problem, nx, steps, newton):
    # Any change to the scheme inside the step loop moves these counts.
    result = run_oracle(problem, short_config(problem, t_end=1.0, nx=nx))
    assert (result.n_steps, result.newton_iterations) == (steps, newton)


def assert_same_run(one, other):
    """Two oracle results agree bit for bit."""
    for name in ("x_centers", "times", "front_positions"):
        assert np.array_equal(getattr(one, name), getattr(other, name))
    assert len(one.temperature_snapshots) == len(other.temperature_snapshots)
    for (t1, u1), (t2, u2) in zip(one.temperature_snapshots, other.temperature_snapshots):
        assert t1 == t2 and np.array_equal(u1, u2)
    assert one.energy_balance_drift == other.energy_balance_drift
    assert (one.n_steps, one.newton_iterations) == (other.n_steps, other.newton_iterations)


@pytest.mark.parametrize("problem", FAMILIES, ids=["convective", "temperature", "flux"])
def test_given_closed_form_changes_nothing(problem):
    cfg = short_config(problem)
    given = run_oracle(problem, cfg, closed_form=solve_front(problem))
    assert_same_run(given, run_oracle(problem, cfg))
    other = ProblemSpec(alpha=problem.alpha + 0.1, boundary=problem.boundary)
    with pytest.raises(ValueError, match="different problems"):
        run_oracle(problem, cfg, closed_form=solve_front(other))


@pytest.mark.parametrize("alpha, nx", [(0.4, 250), (2.0, 200)])
def test_temperature_face_is_convective_face_without_film(alpha, nx):
    # A temperature face is the convective face with h0 = inf: at h0 = 1e300
    # the film resistance sqrt(t) / h0 vanishes beside the half-cell one,
    # so cold starts (which never read the closed form) agree bit for bit.
    temperature = ProblemSpec(alpha=alpha, boundary=Temperature(t0=1.0))
    convective = ProblemSpec(alpha=alpha, boundary=Convective(h0=1e300, t_inf=1.0))
    cfg = short_config(temperature, t_end=1.0, nx=nx, cold_start=True, start_fraction=1e-4)
    assert_same_run(run_oracle(temperature, cfg), run_oracle(convective, cfg))


@pytest.mark.parametrize("problem", FAMILIES, ids=["convective", "temperature", "flux"])
def test_refinement_improves_front(problem):
    sol = solve_front(problem)
    errs = []
    for nx in (100, 200):
        result = run_oracle(problem, short_config(problem, nx=nx))
        errs.append(
            compare_to_closed_form(result, sol, t_window=(0.025, 0.25)).max_front_err
        )
    assert errs[1] < errs[0]


def test_classical_temperature_variant_front():
    # alpha = 0 imposed-temperature melting: the front coefficient solves
    # sqrt(pi) x exp(x^2) erf(x) = 1; 220-step bisection gives
    # 0.62006263331359549548.
    problem = ProblemSpec(alpha=0.0, boundary=Temperature(t0=1.0))
    nu_ref = bisect(lambda x: classical_stefan_residual(x, 1.0), 1e-8, 2.0)
    result = run_oracle(problem, short_config(problem, nx=2000))
    for t, s_fd in zip(result.times, result.front_positions):
        if t < 0.025:
            continue
        s_ref = 2.0 * nu_ref * math.sqrt(t)
        assert abs(s_fd - s_ref) <= 5e-3 * s_ref


def test_zero_elapsed_window_returns_initial_state():
    sol = solve_front(FIG9)
    cfg = OracleConfig(
        domain_length=4.0 * sol.front_position(0.25),
        t_end=0.25,
        nx=100,
        start_fraction=1.0,
    )
    result = run_oracle(FIG9, cfg)
    assert result.times.tolist() == [0.25]
    assert result.front_positions[0] == pytest.approx(sol.front_position(0.25), rel=1e-2)


def test_front_escape_raises():
    cfg = OracleConfig(domain_length=0.05, t_end=0.25, nx=60)
    with pytest.raises(RuntimeError, match="domain"):
        run_oracle(FIG9, cfg)


def test_cold_start_converges_loosely():
    sol = solve_front(FIG9)
    cfg = OracleConfig(
        domain_length=4.0 * sol.front_position(0.25),
        t_end=0.25,
        nx=400,
        cold_start=True,
        start_fraction=0.002,
    )
    result = run_oracle(FIG9, cfg)
    report = compare_to_closed_form(result, sol, t_window=(0.05, 0.25))
    assert report.max_front_err <= 5e-2
    assert report.max_field_err <= 5e-2


def test_self_comparison_is_exact():
    # An oracle result filled from the closed form itself must compare to
    # zero error.
    sol = solve_front(FIG9)
    cfg = OracleConfig(domain_length=1.0, t_end=0.25, nx=100)
    x = (np.arange(cfg.nx) + 0.5) * (cfg.domain_length / cfg.nx)
    times = np.array([0.05, 0.1, 0.25])
    fronts = np.array([sol.front_position(t) for t in times])
    snaps = tuple(
        (float(t), np.array([sol.temperature(float(xi), float(t)) for xi in x]))
        for t in times
    )
    result = OracleResult(
        problem=FIG9,
        config=cfg,
        x_centers=x,
        times=times,
        front_positions=fronts,
        temperature_snapshots=snaps,
        energy_balance_drift=0.0,
    )
    report = compare_to_closed_form(result, sol)
    assert report.max_front_err == 0.0
    assert report.max_field_err == 0.0


def test_window_without_records_rejected():
    # Each window used to report zero errors, a pass.
    result = run_oracle(FIG9, short_config(FIG9, nx=80))
    (t1, _), (t2, _) = result.temperature_snapshots[:2]
    sol = solve_front(FIG9)
    for window in ((2.0, 3.0), (0.25, 0.025), (t1 + 1e-3, t2 - 1e-3)):
        with pytest.raises(ValueError, match="t_window"):
            compare_to_closed_form(result, sol, t_window=window)


def test_mismatched_problems_rejected():
    other = ProblemSpec(alpha=0.4, boundary=Convective(h0=1.0, t_inf=1.0))
    result = run_oracle(FIG9, short_config(FIG9, nx=80))
    with pytest.raises(ValueError):
        compare_to_closed_form(result, solve_front(other))


def test_temperature_nonnegative_and_zero_beyond_front():
    result = run_oracle(FIG9, short_config(FIG9, nx=200))
    dx = result.config.domain_length / result.config.nx
    for t, u in result.temperature_snapshots:
        s_t = np.interp(t, result.times, result.front_positions)
        assert u.min() >= -1e-12
        beyond = result.x_centers > s_t + dx
        assert np.abs(u[beyond]).max() <= 1e-12


def test_comparison_report_fields():
    report = ComparisonReport(max_front_err=0.1, max_field_err=0.2)
    assert report.max_front_err == 0.1 and report.max_field_err == 0.2


def test_cell_melts_fully_within_one_step():
    # A coarse cold start: the first step melts more than one cell from
    # solid, so Newton has to grow the melted block several times within
    # that step.
    sol = solve_front(FIG9)
    cfg = OracleConfig(
        domain_length=4.0 * sol.front_position(0.25),
        t_end=0.25,
        nx=50,
        cold_start=True,
        start_fraction=0.05,
    )
    result = run_oracle(FIG9, cfg)
    dx = cfg.domain_length / cfg.nx
    jumps = np.diff(result.front_positions)
    assert len(result.times) == result.n_steps + 1
    assert jumps.max() > dx
    assert result.newton_iterations > result.n_steps
    assert np.all(jumps >= 0.0)
    for _, u in result.temperature_snapshots:
        assert u.min() >= -1e-12
    assert result.energy_balance_drift <= 1e-10


def test_every_step_recorded_and_snapshots_on_fixed_times():
    cfg = short_config(FIG9)
    result = run_oracle(FIG9, cfg)
    t0 = cfg.start_fraction * cfg.t_end
    assert len(result.times) == len(result.front_positions) == result.n_steps + 1
    assert result.times[0] == t0 and result.times[-1] == cfg.t_end
    assert np.all(np.diff(result.times) > 0.0)
    snap_times = [t for t, _ in result.temperature_snapshots]
    assert snap_times == np.linspace(t0, cfg.t_end, 11)[1:].tolist()


def test_step_count_linear_in_nx():
    # The step follows the front, about 0.2 cells per step, so
    # doubling nx doubles the steps; an nx**2 schedule would quadruple them.
    steps = [run_oracle(FIG9, short_config(FIG9, nx=nx)).n_steps for nx in (200, 400)]
    assert steps[1] <= 2.5 * steps[0]


def test_cold_start_melts_any_number_of_cells_in_one_step():
    # A cold start late in the run on a fine grid: the first step melts
    # hundreds of cells, one Newton iteration each.  A cap of 200
    # iterations stopped it.
    problem = ProblemSpec(alpha=2.0, boundary=Flux(c=1.0))
    cfg = short_config(problem, t_end=1.0, nx=4000, cold_start=True, start_fraction=0.5)
    result = run_oracle(problem, cfg)
    dx = cfg.domain_length / cfg.nx
    jumps = np.diff(result.front_positions)
    assert jumps[0] > 200 * dx
    assert np.all(jumps >= 0.0)
    assert result.energy_balance_drift <= 1e-10
    melted = math.floor(result.front_positions[-1] / dx)
    assert result.newton_iterations - result.n_steps == melted
