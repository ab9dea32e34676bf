import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefan_kummer import (
    Convective,
    Flux,
    ProblemSpec,
    Temperature,
    convective_to_flux,
    convective_to_temperature,
    equivalence_report,
    flux_threshold,
    flux_to_convective,
    solve_front,
    temperature_to_convective,
)

FIG9 = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))


def test_convective_to_temperature_same_front():
    target = convective_to_temperature(FIG9)
    assert isinstance(target.boundary, Temperature)
    rep = equivalence_report(FIG9, target)
    assert abs(rep.nu_source - rep.nu_target) <= 1e-10


def test_convective_to_temperature_field_gap():
    target = convective_to_temperature(FIG9)
    rep = equivalence_report(FIG9, target)
    sol = solve_front(FIG9)
    scale = sol.temperature(0.0, 2.0)
    assert rep.max_temperature_gap <= 1e-8 * max(1.0, scale)


def test_face_datum_below_bulk_coefficient():
    for h0 in (0.1, 0.5, 2.0, 30.0):
        for alpha in (0.0, 1.0, 3.5):
            p = ProblemSpec(alpha=alpha, boundary=Convective(h0=h0, t_inf=1.0))
            assert convective_to_temperature(p).boundary.t0 < 1.0


def test_face_datum_tends_to_bulk_for_large_h0():
    p = ProblemSpec(alpha=0.4, boundary=Convective(h0=1e8, t_inf=1.0))
    assert convective_to_temperature(p).boundary.t0 == pytest.approx(1.0, abs=1e-6)


def test_temperature_round_trip_recovers_h0():
    target = convective_to_temperature(FIG9)
    back = temperature_to_convective(target, FIG9.boundary.t_inf)
    assert isinstance(back.boundary, Convective)
    assert back.boundary.h0 == pytest.approx(0.5, rel=1e-8)


def test_temperature_to_convective_doubled_bulk():
    p = ProblemSpec(alpha=1.0, boundary=Temperature(t0=1.0))
    conv = temperature_to_convective(p, 2.0)
    assert conv.boundary.h0 > 0.0
    rep = equivalence_report(p, conv)
    assert abs(rep.nu_source - rep.nu_target) <= 1e-10


def test_temperature_to_convective_requires_hotter_bulk():
    p = ProblemSpec(alpha=1.0, boundary=Temperature(t0=1.0))
    with pytest.raises(ValueError, match="threshold"):
        temperature_to_convective(p, 1.0)
    with pytest.raises(ValueError):
        temperature_to_convective(p, 0.5)


def test_convective_to_flux_same_front():
    target = convective_to_flux(FIG9)
    assert isinstance(target.boundary, Flux)
    rep = equivalence_report(FIG9, target)
    assert abs(rep.nu_source - rep.nu_target) <= 1e-10
    sol = solve_front(FIG9)
    assert rep.max_temperature_gap <= 1e-8 * max(1.0, sol.temperature(0.0, 2.0))


def test_flux_datum_positive_and_linear_in_small_h0():
    for h0 in (0.1, 1.0, 10.0):
        p = ProblemSpec(alpha=0.4, boundary=Convective(h0=h0, t_inf=1.0))
        assert convective_to_flux(p).boundary.c > 0.0
    tiny = ProblemSpec(alpha=0.4, boundary=Convective(h0=1e-8, t_inf=1.0))
    assert convective_to_flux(tiny).boundary.c < 1e-7


def test_flux_round_trip_recovers_h0():
    target = convective_to_flux(FIG9)
    back = flux_to_convective(target, FIG9.boundary.t_inf)
    assert back.boundary.h0 == pytest.approx(0.5, rel=1e-8)


def test_flux_to_convective_above_threshold():
    p = ProblemSpec(alpha=2.0, boundary=Flux(c=1.0))
    threshold = flux_threshold(p)
    conv = flux_to_convective(p, 2.0 * threshold)
    assert conv.boundary.h0 > 0.0
    rep = equivalence_report(p, conv)
    assert abs(rep.nu_source - rep.nu_target) <= 1e-10


def test_flux_to_convective_threshold_rejected():
    p = ProblemSpec(alpha=2.0, boundary=Flux(c=1.0))
    threshold = flux_threshold(p)
    with pytest.raises(ValueError, match="threshold"):
        flux_to_convective(p, threshold)
    with pytest.raises(ValueError):
        flux_to_convective(p, 0.5 * threshold)


def test_wrong_source_family_rejected():
    temp = ProblemSpec(alpha=1.0, boundary=Temperature(t0=1.0))
    flux = ProblemSpec(alpha=1.0, boundary=Flux(c=1.0))
    with pytest.raises(ValueError):
        convective_to_temperature(temp)
    with pytest.raises(ValueError):
        convective_to_flux(flux)
    with pytest.raises(ValueError):
        temperature_to_convective(flux, 2.0)
    with pytest.raises(ValueError):
        flux_to_convective(temp, 2.0)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=4.0),
    h0=st.floats(min_value=0.1, max_value=20.0),
    t_inf=st.floats(min_value=0.2, max_value=3.0),
)
def test_both_maps_preserve_front_property(alpha, h0, t_inf):
    p = ProblemSpec(alpha=alpha, boundary=Convective(h0=h0, t_inf=t_inf))
    nu = solve_front(p).nu
    assert solve_front(convective_to_temperature(p)).nu == pytest.approx(nu, abs=1e-10)
    assert solve_front(convective_to_flux(p)).nu == pytest.approx(nu, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=4.0),
    h0=st.floats(min_value=0.1, max_value=20.0),
)
def test_round_trips_close_property(alpha, h0):
    p = ProblemSpec(alpha=alpha, boundary=Convective(h0=h0, t_inf=1.0))
    via_temp = temperature_to_convective(convective_to_temperature(p), 1.0)
    via_flux = flux_to_convective(convective_to_flux(p), 1.0)
    assert via_temp.boundary.h0 == pytest.approx(h0, rel=1e-8)
    assert via_flux.boundary.h0 == pytest.approx(h0, rel=1e-8)


def test_maps_read_the_solved_face_values():
    flux = ProblemSpec(alpha=2.0, boundary=Flux(c=1.0), gamma=0.7, d=1.9, k=0.4)
    assert flux_threshold(flux) == solve_front(flux).coeff_even
    conv = ProblemSpec(alpha=1.3, boundary=Convective(h0=2.0, t_inf=1.5), d=0.6, k=3.0)
    sol = solve_front(conv)
    assert convective_to_temperature(conv).boundary.t0 == sol.coeff_even
    conduction = conv.k * sol.coeff_odd / (2.0 * math.sqrt(conv.d))
    assert convective_to_flux(conv).boundary.c == -conduction


def test_equivalence_report_matches_pointwise_reference():
    # The report evaluates its fixed grid (20 points at each of 20 times
    # in (0.1, 2]) in one array call per solution; the reference loops over
    # the points with the float evaluators.
    target = convective_to_flux(FIG9)
    nx, nt, t_lo, t_hi = 20, 20, 0.1, 2.0
    rep = equivalence_report(FIG9, target)
    sol_s, sol_t = solve_front(FIG9), solve_front(target)
    gap = scale = 0.0
    for i in range(nt):
        t = t_lo + (t_hi - t_lo) * (i + 1.0) / nt
        s_t = sol_s.front_position(t)
        for j in range(nx):
            x = s_t * (j + 0.5) / nx
            gap = max(gap, abs(sol_s.temperature(x, t) - sol_t.temperature(x, t)))
            scale = max(scale, abs(sol_s.temperature(x, t)))
    assert abs(rep.max_temperature_gap - gap) <= 1e-13 * scale


def test_package_exports_are_in_their_modules_all():
    # Tools that walk each module's __all__ (the benchmark's tracer) see a
    # package export only if its own module lists it.
    import importlib
    import pkgutil

    import stefan_kummer

    for name in stefan_kummer.__all__:
        module_name = getattr(getattr(stefan_kummer, name), "__module__", None)
        if module_name and module_name.startswith("stefan_kummer."):
            assert name in importlib.import_module(module_name).__all__, name
    # And the package exports every name a module lists, as that same object.
    for info in pkgutil.iter_modules(stefan_kummer.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"stefan_kummer.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert name in stefan_kummer.__all__, name
                assert getattr(stefan_kummer, name) is getattr(module, name), name
