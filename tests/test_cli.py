import json
import math

import pytest

from stefan_kummer import ProblemSpec, Convective, Flux, Temperature, solve_front
from stefan_kummer.cli import main

from _oracles import bisect, bisect_front, classical_stefan_residual

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


def test_solve_root_past_series_overflow_exits_3(capsys):
    # The root lies where the front equation's series exceed double
    # precision; d**((alpha+1)/2) underflowed to 0 in the direct form.
    assert run(["solve", "--alpha", "50", "--t0", "1", "--d", "1e-20"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "numerical-failure"
    assert "overflow" in record["detail"] and "x=" in record["detail"]


def test_solve_missing_boundary_datum_exits_2(capsys):
    assert run(["solve", "--alpha", "0.4"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "usage"


def test_solve_ambiguous_boundary_exits_2():
    assert run(["solve", "--alpha", "0.4", "--h0", "1", "--tinf", "1", "--t0", "1"]) == 2


def test_solve_convective_needs_tinf():
    assert run(["solve", "--alpha", "0.4", "--h0", "1"]) == 2


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


def test_sweep_empty_values_exits_2():
    assert run(["sweep", "--vary", "h0", "--values", "", "--tinf", "1"]) == 2


def test_sweep_unsorted_values_exits_2():
    assert run(["sweep", "--vary", "h0", "--values", "1,0.5", "--tinf", "1"]) == 2


def test_sweep_missing_fixed_datum_exits_2():
    assert run(["sweep", "--vary", "h0", "--values", "1,2"]) == 2


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


def test_equiv_missing_target_datum_exits_2():
    assert run(["equiv", "--alpha", "1", "--t0", "1", "--to", "convective"]) == 2


def test_equiv_requires_target():
    assert run(["equiv", *FIG9_ARGS]) == 2


# ---- verify ----


def test_verify_passes_on_coarse_grid(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", *FIG9_ARGS, "--nx-oracle", "200", "--t-end", "0.25",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_front_err"] <= payload["front_tol"]
    assert payload["energy_balance_drift"] <= payload["drift_tol"]


def test_verify_failure_exits_1(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", *FIG9_ARGS, "--nx-oracle", "60", "--t-end", "0.25",
                "--tol", "1e-5", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["passed"] is False


def test_verify_small_domain_exits_3(capsys):
    assert run(["verify", *FIG9_ARGS, "--nx-oracle", "60", "--t-end", "0.25",
                "--domain-length", "0.05"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "numerical-failure"


# ---- config file and precedence ----


def test_config_file_supplies_defaults(tmp_path, monkeypatch):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("alpha=0.4\nh0=0.5\ntinf=1\n# comment\n")
    monkeypatch.setenv("STEFAN_KUMMER_CONFIG", str(cfg))
    out = tmp_path / "solve.json"
    assert run(["solve", "--out", str(out)]) == 0
    nu_cfg = json.loads(out.read_text())["nu"]
    ref = solve_front(ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))).nu
    assert nu_cfg == ref


def test_flags_override_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("alpha=0.4\nh0=0.5\ntinf=1\n")
    monkeypatch.setenv("STEFAN_KUMMER_CONFIG", str(cfg))
    out = tmp_path / "solve.json"
    assert run(["solve", "--h0", "5", "--out", str(out)]) == 0
    nu = json.loads(out.read_text())["nu"]
    ref = solve_front(ProblemSpec(alpha=0.4, boundary=Convective(h0=5.0, t_inf=1.0))).nu
    assert nu == ref


def test_malformed_config_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("alpha 0.4\n")
    monkeypatch.setenv("STEFAN_KUMMER_CONFIG", str(cfg))
    assert run(["solve", "--t0", "1"]) == 2
    capsys.readouterr()


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
