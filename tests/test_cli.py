import contextlib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stefan_kummer import ProblemSpec, Convective, Flux, Temperature, solve_front
from stefan_kummer import cli, oracle, stefan
from stefan_kummer.cli import main

from _oracles import bisect, bisect_front, classical_stefan_residual, mp_field, mp_front_root

FIG9_ARGS = ["--alpha", "0.4", "--h0", "0.5", "--tinf", "1"]


def run(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


# ---- solve ----


def test_solve_fig9(tmp_path):
    out = tmp_path / "solve.json"
    assert run(["solve", *FIG9_ARGS, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"nu", "coeff_even", "coeff_odd", "iterations", "residual"}
    ref = bisect_front(ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0)))
    assert abs(payload["nu"] - ref) <= 1e-12


def test_solve_temperature_variant_classical_root(tmp_path):
    out = tmp_path / "solve.json"
    assert run(["solve", "--alpha", "0", "--t0", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    ref = bisect(lambda x: classical_stefan_residual(x, 1.0), 1e-8, 2.0)
    assert abs(payload["nu"] - ref) <= 1e-12


def test_solve_large_front_coefficient(tmp_path):
    # nu**2 is above 200 here: the coefficients are summed at positive
    # argument, past the range of the negative-argument series.
    out = tmp_path / "solve.json"
    assert run(["solve", "--alpha", "40", "--c", "1", "--d", "1e-9",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # mpmath at 30 digits: 14.75440921673254440.
    assert payload["nu"] == pytest.approx(14.75440921673254440, rel=1e-13)
    assert payload["coeff_odd"] == pytest.approx(-2.0 * math.sqrt(1e-9), rel=1e-14)
    assert payload["coeff_even"] > 0.0


PAST_SERIES_OVERFLOW_ARGS = ["--alpha", "50", "--t0", "1", "--d", "1e-20"]


def test_solve_root_past_series_overflow_exits_0(tmp_path):
    # The root lies where the front equation's series exceed double
    # precision: it exited 3 while M was summed before its log.
    mp = pytest.importorskip("mpmath")
    out = tmp_path / "solve.json"
    assert run(["solve", *PAST_SERIES_OVERFLOW_ARGS, "--out", str(out)]) == 0
    nu = json.loads(out.read_text())["nu"]
    problem = ProblemSpec(alpha=50.0, boundary=Temperature(t0=1.0), d=1e-20)
    with mp.workdps(50):
        assert abs(nu - mp_front_root(mp, problem, nu)) <= 1e-13 * nu


def test_field_root_past_series_overflow_exits_0(tmp_path):
    # The unit profile overflowed on its walk to the face: psi was NaN.
    out = tmp_path / "field.csv"
    assert run(["field", *PAST_SERIES_OVERFLOW_ARGS, "--nx", "8", "--nt", "2",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    psi = [float(row[2]) for row in rows]
    assert all(v >= 0.0 for v in psi) and max(psi) > 0.0


def test_solve_root_needing_long_series_exits_0(tmp_path):
    # Above z = 30 the front equation's series here take over 10_000
    # terms: it exited 3 when the series were capped at that.
    out = tmp_path / "solve.json"
    assert run(["solve", "--alpha", "172.18560184160822", "--t0", "6.9086042868506345e+289",
                "--gamma", "1.7633550984979427e-284", "--d", "3.938333290852127e-30",
                "--k", "2.066567176843034e-282", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["nu"] == pytest.approx(72.58393099897977, rel=1e-14)


def test_solve_residual_finite_where_nu_power_overflows(tmp_path):
    # nu = 8.3 and nu**401 overflows: the solve converged, then exited 3.
    out = tmp_path / "solve.json"
    assert run(["solve", "--alpha", "400", "--t0", "1", "--gamma", "1e-3",
                "--d", "1e-3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["residual"]) <= 1e-12


@pytest.mark.parametrize("d", ["1e60", "1e20"])
def test_solve_coefficient_beyond_double_range_exits_3(capsys, d):
    # B = -c / kappa is beyond double range.  With d = 1e60 kappa
    # underflowed to 0 (a ZeroDivisionError traceback); with d = 1e20 the
    # infinite coefficients were reported as invalid data.
    assert run(["solve", "--alpha", "1", "--c", "1", "--k", "1e-300", "--d", d]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "numerical-failure"
    assert "overflow" in record["detail"]


@pytest.mark.parametrize("alpha", ["6e305", "1e306", "1.7e308"])
@pytest.mark.parametrize("face", [["--t0", "1"], ["--c", "1"], ["--h0", "1", "--tinf", "1"]],
                         ids=["temperature", "flux", "convective"])
def test_solve_at_huge_alpha_names_the_series(capsys, alpha, face):
    # lgamma(alpha / 2) overflows in the start model from alpha 5.12e305:
    # the detail was a bare "math range error".
    assert run(["solve", "--alpha", alpha, *face]) == 3
    assert re.fullmatch(r"term 2 of the series for M\(.*\) leaves double range",
                        numerical_failure(capsys))


def test_solve_missing_boundary_datum_exits_2(capsys):
    assert run(["solve", "--alpha", "0.4"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "usage"


def test_solve_ambiguous_boundary_exits_2():
    assert run(["solve", "--alpha", "0.4", "--h0", "1", "--tinf", "1", "--t0", "1"]) == 2


def test_solve_convective_needs_tinf():
    assert run(["solve", "--alpha", "0.4", "--h0", "1"]) == 2


@pytest.mark.parametrize("args", [
    # --nx is a field option; it ran as --nx-oracle.
    ["verify", "--alpha", "0.4", "--t0", "1", "--nx", "60", "--t-end", "0.25"],
    # --gam ran as --gamma.
    ["solve", "--t0", "1", "--gam", "3"],
])
def test_abbreviated_flag_exits_2(capsys, args):
    assert run(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    # --tinf was silently ignored beside a non-convective family.
    ["solve", "--alpha", "0.4", "--t0", "1", "--tinf", "5"],
    ["field", "--c", "1", "--tinf", "5", "--nx", "3", "--nt", "1"],
    ["sweep", "--vary", "alpha", "--values", "1,2", "--t0", "1", "--tinf", "5"],
    ["verify", "--t0", "1", "--tinf", "5", "--nx-oracle", "20"],
    ["equiv", "--t0", "1", "--tinf", "5", "--to", "temperature"],
])
def test_tinf_without_h0_exits_2(capsys, args):
    assert run(args) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "usage" and "--tinf" in record["detail"]


def test_solve_rejects_csv_format():
    assert run(["solve", *FIG9_ARGS, "--format", "csv"]) == 2


def test_solve_invalid_data_exits_2():
    assert run(["solve", "--alpha", "-1", "--t0", "1"]) == 2


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


# ---- sweep ----


def test_sweep_monotone_in_h0(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--vary", "h0", "--values", "0.1,0.5,1,5,10,50,100",
         "--alpha", "0.4", "--tinf", "1", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["param", "nu"]
    nus = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(nus, nus[1:]))


def test_sweep_include_limit_constant_column(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--vary", "h0", "--values", "1,10,100", "--alpha", "0.4",
         "--tinf", "1", "--include-limit", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["param", "nu", "nu_infinity"]
    limit_col = {r[2] for r in rows}
    assert len(limit_col) == 1
    expected = solve_front(ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0))).nu
    assert float(limit_col.pop()) == pytest.approx(expected, abs=1e-13)
    for r in rows:
        assert float(r[1]) < expected


def test_sweep_vary_alpha(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--vary", "alpha", "--values", "0.5,1,2", "--h0", "1",
         "--tinf", "1", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]


def test_sweep_vary_alpha_from_zero(tmp_path):
    # alpha = 0, the default and the classical case, exited 2 as not positive.
    out, solved = tmp_path / "sweep.csv", tmp_path / "solve.json"
    assert run(["sweep", "--vary", "alpha", "--values", "0,0.5,1", "--t0", "1",
                "--out", str(out)]) == 0
    assert run(["solve", "--alpha", "0", "--t0", "1", "--out", str(solved)]) == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    assert float(rows[0][1]) == json.loads(solved.read_text())["nu"]


def test_sweep_value_the_problem_rejects_exits_2(capsys):
    assert run(["sweep", "--vary", "h0", "--values=-1,1", "--tinf", "1"]) == 2
    assert "h0 must be a positive" in json.loads(capsys.readouterr().err)["detail"]


def test_sweep_empty_values_exits_2():
    assert run(["sweep", "--vary", "h0", "--values", "", "--tinf", "1"]) == 2


def test_sweep_unsorted_values_exits_2():
    assert run(["sweep", "--vary", "h0", "--values", "1,0.5", "--tinf", "1"]) == 2


@pytest.mark.parametrize("args,cause", [
    (["sweep", "--vary", "h0", "--tinf", "1"], "--values"),
    (["sweep", "--vary", "h0", "--values", "1,x", "--tinf", "1"], "bad --values entry"),
    (["sweep", "--values", "1,2", *FIG9_ARGS], "--vary"),
    (["equiv", *FIG9_ARGS, "--to", "convective"], "already convective"),
    (["solve", "--h0", "1", "--c", "2"], "got --h0 --c"),
])
def test_usage_error_names_its_cause(capsys, args, cause):
    assert run(args) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "usage" and cause in record["detail"]


def test_sweep_missing_fixed_datum_exits_2():
    assert run(["sweep", "--vary", "h0", "--values", "1,2"]) == 2


@pytest.mark.parametrize("args", [
    # A second family beside the convective one was silently dropped.
    ["--vary", "h0", "--t0", "1", "--tinf", "1"],
    ["--vary", "tinf", "--h0", "1", "--c", "5"],
    # No convective problem: the varied datum would have no effect.
    ["--vary", "h0", "--t0", "1"],
    ["--vary", "tinf", "--t0", "1"],
    ["--vary", "tinf", "--c", "1"],
])
def test_sweep_over_convective_datum_needs_one_convective_family(capsys, args):
    assert run(["sweep", "--values", "1,2", *args]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_sweep_numbers_round_trip(tmp_path):
    out = tmp_path / "sweep.csv"
    run(["sweep", "--vary", "h0", "--values", "0.3,0.7", "--tinf", "1",
         "--out", str(out)])
    _, rows = read_csv(out)
    for row in rows:
        for cell in row:
            value = float(cell)
            assert repr(value) == cell


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--vary", "h0", "--values", "0.5,1,2", "--alpha", "1",
            "--tinf", "1"]
    run([*args, "--out", str(a)])
    run([*args, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---- field ----


def test_field_grid_structure_and_masking(tmp_path):
    out = tmp_path / "field.csv"
    code = run(["field", *FIG9_ARGS, "--nx", "20", "--nt", "10",
                "--tmax", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "t", "psi", "s_of_t", "melted_flag"]
    assert len(rows) == 20 * 10
    for x, t, psi, s_t, flag in ((float(c) for c in r) for r in rows):
        if x >= s_t:
            assert psi == 0.0 and flag == 0.0
        else:
            assert flag == 1.0 and psi >= 0.0


def test_field_temperature_rises_after_melt(tmp_path):
    out = tmp_path / "field.csv"
    run(["field", *FIG9_ARGS, "--nx", "25", "--nt", "25", "--tmax", "1",
         "--out", str(out)])
    _, rows = read_csv(out)
    by_x = {}
    for x, t, psi, s_t, flag in ((float(c) for c in r) for r in rows):
        by_x.setdefault(x, []).append((t, psi, flag))
    for x, entries in by_x.items():
        entries.sort()
        melted = [(t, psi) for t, psi, flag in entries if flag == 1.0]
        assert all(p1 <= p2 + 1e-12 for (_, p1), (_, p2) in zip(melted, melted[1:]))


def test_field_face_rows_satisfy_convective_balance(tmp_path):
    out = tmp_path / "field.csv"
    run(["field", *FIG9_ARGS, "--nx", "10", "--nt", "10", "--tmax", "1",
         "--out", str(out)])
    _, rows = read_csv(out)
    problem = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
    sol = solve_front(problem)
    for x, t, psi, s_t, flag in ((float(c) for c in r) for r in rows):
        if x != 0.0:
            continue
        balance = problem.k * sol.temperature_flux(0.0, t) - 0.5 * t**-0.5 * (
            psi - 1.0 * t ** (0.4 / 2.0)
        )
        assert abs(balance) <= 1e-9


def test_field_huge_convective_data_is_finite(tmp_path):
    # h0 * t_inf overflows here; the front equation gave nu = 14.0 with an
    # infinite residual, and psi = nan.
    out = tmp_path / "field.csv"
    assert run(["field", "--alpha", "1", "--h0", "1e200", "--tinf", "1e200",
                "--nx", "3", "--nt", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][3]) == pytest.approx(2.0 * 21.2124247315329, rel=1e-12)
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("args,problem", [
    (["--alpha", "40", "--c", "1", "--d", "1e-9", "--nx", "5", "--nt", "3", "--tmax", "1"],
     ProblemSpec(alpha=40.0, boundary=Flux(c=1.0), d=1e-9)),
    (["--alpha", "1", "--h0", "1e200", "--tinf", "1e200", "--nx", "3", "--nt", "1"],
     ProblemSpec(alpha=1.0, boundary=Convective(h0=1e200, t_inf=1e200))),
], ids=["alpha40", "h0-1e200"])
def test_field_melt_matches_mpmath_at_large_alpha_nu(tmp_path, args, problem):
    # The even/odd sum cancelled here: the first wrote psi = -369098752 in
    # the melt, the second 4.6e186 where the field is 1.36e127.
    mp = pytest.importorskip("mpmath")
    out = tmp_path / "field.csv"
    assert run(["field", *args, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    melted = [[float(v) for v in row[:3]] for row in rows if row[4] == "1"]
    assert melted and all(psi > 0.0 for _, _, psi in melted)
    nu = solve_front(problem).nu
    with mp.workdps(60 + int(nu**2 / 2.3)):
        nu = mp_front_root(mp, problem, nu)
        for x, t, psi in melted:
            ref = float(mp_field(mp, problem, nu, x, t)[0])
            assert abs(psi - ref) <= 1e-12 * ref, (x, t, psi, ref)


def numerical_failure(capsys) -> str:
    """The detail of the one numerical-failure record on stderr."""
    records = capsys.readouterr().err.splitlines()
    assert len(records) == 1
    record = json.loads(records[0])
    assert record["error"] == "numerical-failure"
    return record["detail"]


@pytest.mark.parametrize("args,flag", [
    # 1.2 s(tmax) and 4 s(t_end) underflow to 0: the user gave neither flag,
    # yet each exited 2 as a usage error naming it.
    (["field", "--alpha", "0", "--gamma", "2.6043369692917916e+23",
      "--d", "4.448920901523189e-11", "--k", "2.617894658191209e-21",
      "--h0", "8.114254119138512e-77", "--tinf", "2.6409599747429783e-164",
      "--nx", "5", "--nt", "3", "--tmax", "2.461715496391862e-199"], "--xmax"),
    (["verify", "--alpha", "0", "--gamma", "6.429532013622394e+113",
      "--d", "2.0602618417080938e-234", "--k", "3.695370525659115e-243",
      "--c", "2.0055238872895028e-193", "--nx-oracle", "60",
      "--t-end", "2.99533726438594e-70"], "--domain-length"),
])
def test_computed_default_outside_double_range_exits_3(capsys, args, flag):
    assert run(args) == 3
    assert f"the default {flag}" in numerical_failure(capsys)


def test_field_bad_grid_exits_2():
    assert run(["field", *FIG9_ARGS, "--nx", "1"]) == 2
    assert run(["field", *FIG9_ARGS, "--tmax", "-1"]) == 2


FIELD_FAMILIES = [
    (FIG9_ARGS, ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))),
    (["--alpha", "2.7", "--t0", "3.3", "--gamma", "0.4", "--d", "2.1", "--k", "0.7"],
     ProblemSpec(alpha=2.7, boundary=Temperature(t0=3.3), gamma=0.4, d=2.1, k=0.7)),
    (["--alpha", "0", "--c", "0.05"], ProblemSpec(alpha=0.0, boundary=Flux(c=0.05))),
]


@pytest.mark.parametrize("args,problem", FIELD_FAMILIES)
def test_field_matches_pointwise_reference(tmp_path, args, problem):
    # The grid is evaluated in one array call; the reference here goes
    # point by point through the float evaluators.
    out = tmp_path / "field.csv"
    nx, nt, tmax = 40, 30, 3.7
    assert run(["field", *args, "--nx", str(nx), "--nt", str(nt),
                "--tmax", repr(tmax), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    sol = solve_front(problem)
    xmax = 1.2 * sol.front_position(tmax)
    expected = []
    for i in range(1, nt + 1):
        t = tmax * i / nt
        s_t = sol.front_position(t)
        for j in range(nx):
            x = xmax * j / (nx - 1)
            melted = x < s_t
            psi = sol.temperature(x, t) if melted else 0.0
            expected.append((repr(x), repr(t), psi, repr(s_t), str(int(melted))))
    assert len(rows) == len(expected)
    scale = max(abs(row[2]) for row in expected)
    assert 0 < sum(row[4] == "1" for row in expected) < len(expected)
    for (x, t, psi, s_t, flag), (x_ref, t_ref, psi_ref, s_ref, flag_ref) in zip(rows, expected):
        assert (x, t, s_t, flag) == (x_ref, t_ref, s_ref, flag_ref)
        assert abs(float(psi) - psi_ref) <= 1e-12 * scale


def test_field_grid_near_top_of_double_range(tmp_path):
    # t_i = tmax i / nt and x_j = xmax j / (nx - 1) overflowed in the
    # product: the first exited 2 on t = inf, the second wrote x = inf.
    for flags, column, top in ((["--tmax", "1e308", "--nt", "2"], 1, 1e308),
                               (["--xmax", "1e308", "--nt", "1"], 0, 1e308)):
        out = tmp_path / "field.csv"
        assert run(["field", "--t0", "1", "--nx", "3", *flags, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        values = sorted({float(row[column]) for row in rows})
        assert values[-1] == top and all(0.0 <= v <= top for v in values), values
        assert values[-2] == top / 2.0


@pytest.mark.parametrize("args,problem,melted", [
    ([*FIG9_ARGS, "--nx", "7", "--nt", "4"], FIELD_FAMILIES[0][1], "some"),
    ([*FIG9_ARGS, "--xmax", "1e-6", "--nx", "3", "--nt", "2"], FIELD_FAMILIES[0][1], "all"),
    # nu 7.07e-202, so s(t) underflows to 0.0 at every grid time.
    (["--alpha", "0", "--t0", "1e-300", "--gamma", "1e300", "--d", "1e-200", "--k", "1e-2",
      "--tmax", "1e-100", "--xmax", "1", "--nx", "3", "--nt", "2"],
     ProblemSpec(alpha=0.0, boundary=Temperature(t0=1e-300), gamma=1e300, d=1e-200, k=1e-2),
     "none"),
])
def test_field_file_is_its_lines_byte_for_byte(tmp_path, args, problem, melted):
    # The command writes each time row with two joins over pieces of lines;
    # here each line is written out whole, on the arrays the command builds.
    import numpy as np
    out = tmp_path / "field.csv"
    assert run(["field", *args, "--out", str(out)]) == 0
    o = cli._PARSER.parse_args(["field", *args])
    sol = solve_front(problem)
    xmax = 1.2 * sol.front_position(o.tmax) if o.xmax is None else o.xmax
    x, t = np.array(cli._grid(xmax, 0, o.nx - 1)), np.array(cli._grid(o.tmax, 1, o.nt))
    s = sol.front_position(t)
    rows, cols = np.nonzero(x < s[:, None])
    psi = dict(zip(zip(rows.tolist(), cols.tolist()), sol.temperature(x[cols], t[rows]).tolist()))
    lines = ["x,t,psi,s_of_t,melted_flag"]
    for i, (t_i, s_i) in enumerate(zip(t.tolist(), s.tolist())):
        for j, x_j in enumerate(x.tolist()):
            lines.append(f"{x_j!r},{t_i!r},{psi.get((i, j), 0.0)!r},{s_i!r},{int((i, j) in psi)}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert {"some": 0 < len(psi) < o.nx * o.nt, "all": len(psi) == o.nx * o.nt,
            "none": not psi}[melted], len(psi)


@pytest.mark.parametrize("args,flag", [
    (["field", "--tmax", "nan"], "--tmax"),
    (["field", "--tmax", "inf"], "--tmax"),
    (["field", "--xmax", "nan"], "--xmax"),
    (["field", "--xmax", "inf"], "--xmax"),
    (["verify", "--t-end", "nan"], "--t-end"),
    (["verify", "--tol", "nan"], "--tol"),
    (["verify", "--domain-length", "nan"], "--domain-length"),
    (["verify", "--domain-length", "inf"], "--domain-length"),
])
def test_nonfinite_flag_exits_2_naming_it(capsys, args, flag):
    assert run([*args, *FIG9_ARGS]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "usage"
    assert flag in record["detail"]


# ---- equiv ----


def test_equiv_to_temperature(tmp_path):
    out = tmp_path / "equiv.json"
    code = run(["equiv", *FIG9_ARGS, "--to", "temperature", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["source_family"] == "convective"
    assert payload["target_family"] == "temperature"
    assert abs(payload["nu_source"] - payload["nu_target"]) <= 1e-10
    assert payload["max_temperature_gap"] <= 1e-8


def test_equiv_round_trip_through_flux(tmp_path):
    first = tmp_path / "to_flux.json"
    assert run(["equiv", *FIG9_ARGS, "--to", "flux", "--out", str(first)]) == 0
    c = json.loads(first.read_text())["target_c"]
    second = tmp_path / "back.json"
    assert run(["equiv", "--alpha", "0.4", "--c", repr(c), "--to", "convective",
                "--tinf", "1", "--out", str(second)]) == 0
    payload = json.loads(second.read_text())
    assert payload["target_h0"] == pytest.approx(0.5, rel=1e-8)


def test_equiv_threshold_violation_reports_threshold(capsys):
    assert run(["equiv", "--alpha", "1", "--t0", "1", "--to", "convective",
                "--tinf", "0.5"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert "threshold" in record["detail"]


@pytest.mark.parametrize("args,map_name,datum", [
    # The solved face temperature A underflows to 0.
    (["--alpha", "0", "--gamma", "8.616368362190141e+43", "--d", "3.695928514328216e-279",
      "--k", "1.0738239933066773e+218", "--h0", "7589.703272335521",
      "--tinf", "1.2611898901570925e-28", "--to", "temperature"],
     "convective_to_temperature", "t0"),
    # h0 = J / (A - t_inf) overflows.
    (["--alpha", "0.4", "--gamma", "1.937150531184167e-142", "--d", "1.296260634579701e-101",
      "--k", "2.755412181459215e+190", "--t0", "4.0335872296182303e+124",
      "--to", "convective", "--tinf", "1.2907578894309944e+191"],
     "temperature_to_convective", "h0"),
])
def test_equiv_computed_datum_outside_double_range_exits_3(capsys, args, map_name, datum):
    # The user never gave the datum, yet it was reported as invalid data.
    assert run(["equiv", *args]) == 3
    detail = numerical_failure(capsys)
    assert map_name in detail and f"{datum} must be" in detail


def test_equiv_missing_target_datum_exits_2():
    assert run(["equiv", "--alpha", "1", "--t0", "1", "--to", "convective"]) == 2


def test_equiv_requires_target():
    assert run(["equiv", *FIG9_ARGS]) == 2


# ---- verify ----


def test_verify_passes_on_coarse_grid(tmp_path):
    out = tmp_path / "verify.json"
    # At t_end 1e-250 the step's dx * t underflowed to 0: a ZeroDivisionError.
    # The convective inflow dt * t_inf underflowed from 1e-270 down (the
    # front stalled) and overflowed from 1e280 up (exit 3).  Each family
    # takes the same steps to the same front error at every time scale.
    for args in (FIG9_ARGS, ["--alpha", "0.4", "--t0", "1"], ["--alpha", "0.4", "--c", "1"]):
        runs = []
        for t_end in ("0.25", "1e-250", "1e-300", "1e-280", "1e280", "1e300"):
            code = run(["verify", *args, "--nx-oracle", "200", "--t-end", t_end,
                        "--out", str(out)])
            assert code == 0
            payload = json.loads(out.read_text())
            assert payload["passed"] is True
            assert payload["max_front_err"] <= payload["front_tol"]
            assert payload["energy_balance_drift"] <= payload["drift_tol"]
            runs.append((payload["n_steps"], payload["max_front_err"]))
        assert len({steps for steps, _ in runs}) == 1
        assert all(err == pytest.approx(runs[0][1], rel=1e-9) for _, err in runs)


def test_verify_solves_closed_form_once(tmp_path, monkeypatch):
    # run_oracle's warm start solved the problem and walked its profile a
    # second time.
    calls = {"cli": 0, "oracle": 0, "walk": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "solve_front", counted("cli", cli.solve_front))
    monkeypatch.setattr(oracle, "solve_front", counted("oracle", oracle.solve_front))
    monkeypatch.setattr(stefan, "_profile_walk", counted("walk", stefan._profile_walk))
    out = tmp_path / "verify.json"
    assert run(["verify", *FIG9_ARGS, "--nx-oracle", "160", "--out", str(out)]) == 0
    assert calls == {"cli": 1, "oracle": 0, "walk": 1}


def test_verify_failure_exits_1(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", *FIG9_ARGS, "--nx-oracle", "60", "--t-end", "0.25",
                "--tol", "1e-5", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["passed"] is False


def test_verify_small_domain_exits_3(capsys):
    cases = [
        ([*FIG9_ARGS, "--t-end", "0.25", "--domain-length", "0.05"], "domain end"),
        # k * dx / d underflowed to 0: a ZeroDivisionError when a cell melted.
        # In the oracle's units d T / L**2 is exp(843).
        (["--alpha", "0", "--gamma", "6.484635275290033e+131", "--d", "1.6295036599880675e+138",
          "--k", "1.2475351221319354e-197", "--t0", "2.156440632642995e+99",
          "--t-end", "8.407991796155201e+31"], "d T / L**2"),
        # c t**p = 1e312 at t = 1e8 on the first step; the field nears
        # double range, and at nx 60 the front reaches the domain end.
        (["--alpha", "2", "--c", "1e300", "--t-end", "1e10"], "domain end"),
        # Flux: the front stood still at drift 1.0.  The field's unit U is
        # exp(-863), so the closed-form field is subnormal or 0.
        (["--alpha", "0.4", "--gamma", "19635275319750.152", "--d", "7.610546370853697e-157",
          "--k", "2.7620330251098462e+171", "--c", "3.6092845677726654e-121",
          "--t-end", "1.300427538975883e+59"], "unit U"),
    ]
    for args, cause in cases:
        assert run(["verify", *args, "--nx-oracle", "60"]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "numerical-failure"
        assert cause in record["detail"]


@pytest.mark.parametrize("args", [
    # The front cell's latent heat underflowed to 0: a ZeroDivisionError.
    ["--alpha", "2", "--t0", "1", "--t-end", "1e-250"],
    ["--alpha", "2", "--c", "1", "--t-end", "1e-250"],
    # x_centers**alpha overflowed: a RuntimeWarning, then exit 2 for nan in the JSON.
    ["--alpha", "2", "--gamma", "2.384577139409586e-213", "--d", "2.693844104225944e+287",
     "--k", "9.876967585749186e+82", "--t0", "1.7216093109904598e-176",
     "--t-end", "7.570726778746863e+269"],
    # The heat let in overflowed: exit 2 for inf in the JSON.  In the oracle's
    # units h0 L / (k sqrt(T)) is past double range: the temperature face.
    ["--alpha", "1", "--gamma", "2.0362974503410035e+249", "--d", "1.5523094173510963e-127",
     "--k", "5.187027118508832e-249", "--h0", "9.74890713996387e+220",
     "--tinf", "8.080654494046517e+191", "--t-end", "1.059370657381842e+202"],
    # k dt / dx overflowed to inf: every cell melted in one step, and the
    # record read "front reached the domain end" (nu 1.7e-85).
    ["--alpha", "0", "--gamma", "1.4858905820546746e+100", "--d", "7.21833045216101e+20",
     "--k", "1.1968951093145203e+246", "--c", "6.601333133298238e+25",
     "--t-end", "3.773240374458542e+125"],
])
def test_verify_runs_where_raw_oracle_products_left_double_range(tmp_path, args):
    # Each of these exited 3 while the oracle multiplied raw data.
    out = tmp_path / "verify.json"
    assert run(["verify", *args, "--nx-oracle", "400", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_verify_warm_start_independent_of_time_scale(tmp_path):
    # verify's default domain makes s0 / dx exactly nx / 40, and the last bit
    # of the quotient decided whether cell 5 started melted: at 1e280, 1e-30
    # and 7.3 the run took 276 Newton iterations and read front error
    # 2.1494e-3, at 1, 1e-300 and 0.37 275 and 1.5443e-3.
    reports = []
    for t_end in ("1e280", "1e-30", "7.3", "1", "1e-300", "0.37"):
        out = tmp_path / f"verify-{t_end}.json"
        assert run(["verify", *FIG9_ARGS, "--nx-oracle", "200", "--t-end", t_end,
                    "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    for report in reports:
        assert (report["n_steps"], report["newton_iterations"]) == (231, 275), report
        assert report["max_front_err"] == pytest.approx(1.5443e-3, rel=1e-4), report


def test_verify_flux_inflow_where_only_t_power_overflows(tmp_path):
    # t**p = 6e357 raised a bare "(34, 'Numerical result out of range')",
    # yet c t**p = 6e79 lies in double range and the oracle runs through.
    out = tmp_path / "verify.json"
    code = run(["verify", "--alpha", "2", "--gamma", "6.629616070634675e-33",
                "--d", "1.674540584913148e+127", "--k", "6.157872343922865e-59",
                "--c", "9.936638994799988e-278", "--nx-oracle", "60",
                "--t-end", "3.355811545027944e+238", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert code == (0 if payload["passed"] else 1)
    assert payload["max_front_err"] <= payload["front_tol"]
    assert payload["energy_balance_drift"] <= payload["drift_tol"]


@pytest.mark.parametrize("args", [
    # Convective: sqrt(t + dt) / h0 overflowed, so no heat entered.
    ["--alpha", "0.4", "--gamma", "3.853549772814724e+156", "--d", "1.2019237345450407e-174",
     "--k", "1.2299510547994192e-160", "--h0", "6.291723852259702e-266",
     "--tinf", "1.4307381804042074e+202", "--t-end", "1.1557419673364824e+292"],
    # Flux: t**p underflowed to 0 at the start time.
    ["--alpha", "2.0", "--gamma", "8.219104658527416e+96", "--d", "1.6897953978291296e+160",
     "--k", "2.2537580734450055e+90", "--c", "4.8255128623650544e+229",
     "--t-end", "6.18158723387835e-298"],
    ["--alpha", "2.0", "--gamma", "1.0401108748288755e-216", "--d", "6.408880674026249e+231",
     "--k", "4.8518971012034924e+129", "--c", "5.891751553450586e+74",
     "--t-end", "2.617346521902866e-249"],
])
def test_verify_heat_enters_where_the_direct_face_form_reads_0(tmp_path, args):
    # These ran 24 steps at front error 0.9 with the front standing still.
    out = tmp_path / "verify.json"
    assert run(["verify", *args, "--nx-oracle", "400", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]



# The three bench base cases: a family's fixed data, and its face datum.
_BENCH_CASES = {
    "convective": (["--alpha", "0.4", "--h0", "0.5"], "--tinf"),
    "temperature": (["--alpha", "0.4"], "--t0"),
    "flux": (["--alpha", "2"], "--c"),
}


def verify_at_nx_100(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", *argv, "--nx-oracle", "100"])
    return code, out.getvalue(), err.getvalue()


@functools.cache
def unscaled_bench_run(family):
    head, datum = _BENCH_CASES[family]
    code, out, _ = verify_at_nx_100([*head, datum, "1"])
    return code, json.loads(out)


@settings(max_examples=36, deadline=None)
@given(family=st.sampled_from(sorted(_BENCH_CASES)),
       time_exp=st.floats(min_value=-300.0, max_value=300.0),
       data_exp=st.floats(min_value=-250.0, max_value=250.0))
# The oracle's latent heat of the last cell, gamma x**alpha dx, overflowed.
@example(family="flux", time_exp=205.0, data_exp=1.0)
# U is exp(-745): the field was read subnormal, and the run took 118 steps, not 119.
@example(family="flux", time_exp=-74.0, data_exp=-250.0)
def test_verify_invariant_under_time_and_data_scale(family, time_exp, data_exp):
    # t_end times 10**time_exp, and gamma and the face datum together times
    # 10**data_exp, leave nu and the scaled problem as they are.
    head, datum = _BENCH_CASES[family]
    scale, t_end = 10.0**data_exp, 10.0**time_exp
    code, out, err = verify_at_nx_100([*head, "--gamma", repr(scale), datum, repr(scale),
                                       "--t-end", repr(t_end)])
    if code == 3 and "the field in the melt overflows" in err:
        reject()  # the closed form's field leaves double range: a true limit
    base_code, base = unscaled_bench_run(family)
    # U, the oracle's temperature unit, the face datum's temperature at t_end:
    # the unscaled run's times scale * t_end**(alpha/2).
    log_u = math.log(scale) + float(head[1]) / 2.0 * math.log(t_end)
    if family == "flux":
        log_u += math.log(base["domain_length"])
    if log_u < math.log(sys.float_info.min):
        # the closed-form field would be subnormal: a true limit, on record
        assert code == 3 and "unit U" in err, (code, err)
        return
    assert code != 3, err
    payload = json.loads(out)
    assert code == base_code, (payload, base)
    for key in ("n_steps", "newton_iterations"):
        assert payload[key] == base[key], (key, payload, base)
    for key in ("max_front_err", "max_field_err"):
        assert payload[key] == pytest.approx(base[key], rel=1e-9, abs=0.0), (key, payload)


# ---- the wide domain ----


_SWEEP_FAMILIES = {"convective": ("h0", "tinf"), "temperature": ("t0",), "flux": ("c",)}


def wide_domain_runs(n: int = 400, seed: int = 5):
    """Seeded command lines over the closed form's range: alpha in [0, 60],
    and every datum and time 10**U with U uniform in [-300, 300]."""
    rng = random.Random(seed)

    def wide() -> str:
        return repr(10 ** rng.uniform(-300, 300))

    for _ in range(n):
        family = rng.choice(list(_SWEEP_FAMILIES))
        alpha = rng.choice((0.0, 0.4, 1.0, 2.0, rng.uniform(0, 60)))
        data = {name: wide() for name in ("gamma", "d", "k", "h0", "tinf", "t0", "c")}
        args = ["--alpha", repr(alpha)]
        for name in ("gamma", "d", "k", *_SWEEP_FAMILIES[family]):
            args += [f"--{name}", data[name]]
        command = rng.choice(("solve", "field", "equiv", "sweep", "verify"))
        if command == "field":
            args += ["--nx", "5", "--nt", "3", "--tmax", wide()]
        elif command == "equiv" and family == "convective":
            args += ["--to", rng.choice(("temperature", "flux"))]
        elif command == "equiv":
            args += ["--to", "convective", "--tinf", wide()]
        elif command == "sweep":
            args += ["--vary", "alpha", "--values", "0.5,1"]
        elif command == "verify":
            args += ["--nx-oracle", "60", "--t-end", wide()]
        yield [command, *args]


def test_wide_domain_runs_solve_or_fail_with_a_record(capsys):
    # Every admissible problem solves or fails with a true error.  Of these
    # 400 runs, 45 failed here: 13 RuntimeWarnings (inf in the field), 6
    # ZeroDivisionErrors in the oracle, and 26 exit-2 records for valid
    # input (computed equiv data and defaults, and inf in verify's JSON).
    # Exit 2 stays only for a --tinf at or below the equiv threshold.
    for argv in wide_domain_runs():
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code in (2, 3):
            records = err.splitlines()
            assert len(records) == 1, (argv, err)
            record = json.loads(records[0])
            assert code == 3 or "must exceed" in record["detail"], (argv, record)
        if argv[0] == "field":
            assert "inf" not in out and "nan" not in out, argv


# ---- defaults ----


_COMMON_DEFAULTS = {"alpha": 0.0, "gamma": 1.0, "d": 1.0, "k": 1.0}


@pytest.mark.parametrize("argv,defaults", [
    (["solve"], _COMMON_DEFAULTS),
    (["sweep"], {**_COMMON_DEFAULTS, "include_limit": False}),
    (["field"], {**_COMMON_DEFAULTS, "tmax": 1.0, "nx": 50, "nt": 50, "xmax": None}),
    (["verify"], {**_COMMON_DEFAULTS, "t_end": 1.0, "nx_oracle": 2000, "tol": 0.01,
                  "domain_length": None}),
])
def test_flag_left_off_takes_its_default(argv, defaults):
    args = vars(cli._PARSER.parse_args(argv))
    for name, default in defaults.items():
        assert args[name] == default and type(args[name]) is type(default), name


def test_field_grid_defaults_to_50_by_50(tmp_path):
    out = tmp_path / "field.csv"
    assert run(["field", *FIG9_ARGS, "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 50 * 50


@pytest.mark.parametrize("command,defaults", [
    ("solve", {"alpha": "0", "gamma": "1", "d": "1", "k": "1"}),
    ("field", {"tmax": "1", "nx": "50", "nt": "50"}),
    ("verify", {"t-end": "1", "nx-oracle": "2000", "tol": "0.01"}),
])
def test_help_lists_defaults(capsys, command, defaults):
    assert run([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in defaults.items():
        assert re.search(rf"--{flag} [A-Z_]+ (?:(?!--).)*\(default {re.escape(default)}\)",
                         text), flag


def test_parser_built_once_per_process(monkeypatch, capsys):
    import stefan_kummer.cli as cli

    def fail():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "_build_parser", fail)
    for _ in range(2):
        assert run(["solve", *FIG9_ARGS]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["nu"])


def test_stdout_output(capsys):
    assert run(["solve", *FIG9_ARGS]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isfinite(payload["nu"])


# ---- --out files ----


def test_out_over_a_longer_file_is_the_stdout_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["field", *FIG9_ARGS, "--nx", "20", "--nt", "20", "--out", str(out)]) == 0
    longer = out.stat().st_size
    assert run(["solve", *FIG9_ARGS, "--out", str(out)]) == 0
    assert run(["solve", *FIG9_ARGS]) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) < longer
    assert out.read_bytes() == expected


def test_out_to_devnull_exits_0():
    # /dev/null is not cut to length: ftruncate fails on it.
    assert run(["field", *FIG9_ARGS, "--nx", "3", "--nt", "2", "--out", os.devnull]) == 0


def test_new_out_file_has_the_mode_open_gives(tmp_path):
    old = os.umask(0o002)
    try:
        open(tmp_path / "reference", "w").close()
        assert run(["solve", *FIG9_ARGS, "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    assert (tmp_path / "out").stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_out_opens_without_truncating(tmp_path, monkeypatch):
    flags, real_open = [], os.open

    def recording_open(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(os, "open", recording_open)
    assert run(["solve", *FIG9_ARGS, "--out", str(tmp_path / "out")]) == 0
    assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC


# ---- start-up ----


_SCALAR_PATH = """
import os, sys
import stefan_kummer as sk
from stefan_kummer import cli

fig9 = sk.ProblemSpec(alpha=0.4, boundary=sk.Convective(h0=0.5, t_inf=1.0))
sol = sk.solve_front(fig9)
sk.run_limit_study(fig9, [0.5, 5.0, 50.0])
sk.temperature_to_convective(sk.convective_to_temperature(fig9), 1.0)
sk.flux_to_convective(sk.convective_to_flux(fig9), 1.0)
fig9_args = ["--alpha", "0.4", "--h0", "0.5", "--tinf", "1", "--out", os.devnull]
assert cli.main(["solve", *fig9_args]) == 0
assert cli.main(["sweep", "--vary", "h0", "--values", "0.5,5", "--include-limit",
                 *fig9_args]) == 0
assert "numpy" not in sys.modules, "the scalar path imported numpy"
u = sol.temperature(0.1, 1.0)
assert type(u) is float
print(repr(u))
"""


def test_scalar_path_starts_without_numpy():
    # A fresh interpreter: this test process has imported numpy already.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, "-c", _SCALAR_PATH], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    # The first field evaluation imports numpy inside the function.
    fig9 = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
    assert float(child.stdout) == solve_front(fig9).temperature(0.1, 1.0)
