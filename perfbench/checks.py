"""Checks of the program's outputs, computed apart from the program.

The similarity solution is written here from its definition with
``mpmath.hyp1f1``:

    u(x, t) = t^(alpha/2) F(eta),  eta = x / (2 sqrt(d t)),
    F(eta)  = A M(-alpha/2, 1/2, -eta^2) + B eta M(1/2 - alpha/2, 3/2, -eta^2),
    s(t)    = 2 nu sqrt(d t).

A solved problem (nu, A, B) must satisfy three conditions:

* front:  F(nu) = 0 (the melt is at the phase-change temperature);
* Stefan: -k u_x(s, t) = gamma s^alpha ds/dt, which reduces to
  -k F'(nu) / (2 sqrt d) = gamma 2^alpha nu^(alpha+1) d^((alpha+1)/2);
* face, at x = 0 where u = A t^(alpha/2) and k u_x = k B t^((alpha-1)/2) / (2 sqrt d):
  convective k B / (2 sqrt d) = h0 (A - t_inf), temperature A = t0,
  flux k B / (2 sqrt d) = -c.

The face and front conditions fix A and B for a given nu; the Stefan
condition is then the front equation for nu alone.  A returned nu must lie
within ``RTOL`` (relative) of that equation's root, found by one Newton
step in 30 digits; returned A and B must meet the front and face
conditions to ``RTOL`` relative to the terms they balance.  F' uses
d/dz M(a, b, z) = (a/b) M(a+1, b+1, z) (DLMF 13.3.15).  Nothing here
calls the package.
"""

from __future__ import annotations

import math

import mpmath

from workloads import make_spec

mpmath.mp.dps = 30

# The solver aims at a relative residual of 1e-12 and M is accurate to
# about 1e-13 on the benchmark's ranges; 1e-9 leaves three decades for the
# conditioning of nu and of the coefficients.
RTOL = 1e-9


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def _basis(alpha, eta):
    """F's two basis functions and their eta-derivatives at eta."""
    a1, b1 = -alpha / 2, mpmath.mpf(1) / 2
    a2, b2 = (1 - alpha) / 2, mpmath.mpf(3) / 2
    z = -eta * eta
    m1 = mpmath.hyp1f1(a1, b1, z)
    m2 = mpmath.hyp1f1(a2, b2, z)
    dm1 = (a1 / b1) * mpmath.hyp1f1(a1 + 1, b1 + 1, z) * (-2 * eta)
    dm2 = (a2 / b2) * mpmath.hyp1f1(a2 + 1, b2 + 1, z) * (-2 * eta)
    return m1, eta * m2, dm1, m2 + eta * dm2


def _mp_problem(problem: dict) -> dict:
    return {key: (mpmath.mpf(value) if isinstance(value, float) else value)
            for key, value in problem.items()}


def _rel(value, *scale) -> float:
    total = sum(abs(s) for s in scale)
    return float(abs(value) / total) if total else float(abs(value))


def face_residual(problem: dict, a, b) -> float:
    p = _mp_problem(problem)
    flux_term = p["k"] * b / (2 * mpmath.sqrt(p["d"]))
    family = p["family"]
    if family == "convective":
        return _rel(flux_term - p["h0"] * (a - p["t_inf"]), flux_term, p["h0"] * a,
                    p["h0"] * p["t_inf"])
    if family == "temperature":
        return _rel(a - p["t0"], p["t0"])
    return _rel(flux_term + p["c"], p["c"])


def front_function(problem: dict, nu):
    """Stefan condition with A and B eliminated: lhs / rhs - 1, zero at the root."""
    p = _mp_problem(problem)
    alpha = p["alpha"]
    a, b = coefficients_for(problem, nu)
    _, _, de1, de2 = _basis(alpha, nu)
    lhs = -p["k"] * (a * de1 + b * de2) / (2 * mpmath.sqrt(p["d"]))
    rhs = p["gamma"] * 2 ** alpha * nu ** (alpha + 1) * p["d"] ** ((alpha + 1) / 2)
    return lhs / rhs - 1


def nu_error(problem: dict, nu: float) -> float:
    """Relative distance from nu to the root of the front equation."""
    x = mpmath.mpf(nu)
    h = x * mpmath.mpf(10) ** -12
    f0 = front_function(problem, x)
    slope = (front_function(problem, x + h) - f0) / h
    return float(abs(f0 / slope) / x)


def coefficients_for(problem: dict, nu):
    """(A, B) from the face and front conditions alone, for a given nu."""
    p = _mp_problem(problem)
    e1, e2, _, _ = _basis(p["alpha"], mpmath.mpf(nu))
    g = 2 * mpmath.sqrt(p["d"]) / p["k"]  # B = g * (k B / (2 sqrt d))
    family = p["family"]
    # Front: A e1 + B e2 = 0, so A = -B e2 / e1.
    if family == "temperature":
        a = p["t0"]
        return a, -a * e1 / e2
    if family == "flux":
        b = -g * p["c"]
        return -b * e2 / e1, b
    # Convective: B / g = h0 (A - t_inf) with A = -B e2 / e1.
    b = -p["h0"] * p["t_inf"] / (1 / g + p["h0"] * e2 / e1)
    return -b * e2 / e1, b


def check_nu(problem: dict, nu: float, what: str):
    """Check a front coefficient alone; returns the (A, B) it implies."""
    _require(math.isfinite(nu) and nu > 0.0, f"{what}: nu={nu} not positive")
    error = nu_error(problem, nu)
    _require(error <= RTOL, f"{what}: nu={nu} off the root by {error:.3g} (relative)")
    return coefficients_for(problem, nu)


def check_solution(problem: dict, nu: float, a: float, b: float, what: str) -> None:
    check_nu(problem, nu, what)
    a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
    e1, e2, _, _ = _basis(_mp_problem(problem)["alpha"], mpmath.mpf(nu))
    front = _rel(a_ * e1 + b_ * e2, a_ * e1, b_ * e2)
    face = face_residual(problem, a_, b_)
    _require(max(front, face) <= RTOL,
             f"{what}: (front, face) residuals {(front, face)} above {RTOL}")


def temperature(problem: dict, a, b, x: float, t: float):
    """u(x, t) and the size of the terms it sums."""
    p = _mp_problem(problem)
    alpha = p["alpha"]
    eta = mpmath.mpf(x) / (2 * mpmath.sqrt(p["d"] * t))
    e1, e2, _, _ = _basis(alpha, eta)
    scale = mpmath.mpf(t) ** (alpha / 2)
    return scale * (a * e1 + b * e2), scale * (abs(a * e1) + abs(b * e2))


def spec_dict(spec) -> dict:
    """The plan-style dict of a ProblemSpec returned by the program."""
    problem = {"alpha": spec.alpha, "gamma": spec.gamma, "d": spec.d, "k": spec.k}
    boundary = spec.boundary
    problem["family"] = type(boundary).__name__.lower()
    for key in ("h0", "t_inf", "t0", "c"):
        if hasattr(boundary, key):
            problem[key] = getattr(boundary, key)
    return problem


def same_material(source: dict, target: dict, what: str) -> None:
    for key in ("alpha", "gamma", "d", "k"):
        _require(source[key] == target[key], f"{what}: {key} changed by the map")


def _close(x: float, y: float, rtol: float = RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


# ---------------------------------------------------------------- workloads


def check_front_solve(op: dict, record, sk) -> None:
    """Check one front-solve output.  ``sk`` is the package: where a map
    returns only the target spec, it solves the source again, and that
    solution is itself checked against the source's conditions."""
    kind, problem = op["kind"], op["problem"]
    what = f"{kind} {problem}"
    if kind in ("solve", "fault_probe"):
        nu, a, b, _ = record
        check_solution(problem, nu, a, b, what)
        return
    if kind == "limit_study":
        _require(list(record.h0_grid) == list(op["h0_grid"]), f"{what}: grid changed")
        for h0, nu in zip(record.h0_grid, record.nu_values):
            check_nu(dict(problem, h0=h0), nu, f"{what} h0={h0}")
        check_nu(limit_problem(problem), record.nu_infinity, f"{what} limit")
        nus = list(record.nu_values)
        _require(all(x < y for x, y in zip(nus, nus[1:])), f"{what}: nu not rising in h0")
        _require(nus[-1] < record.nu_infinity, f"{what}: nu not below the limit value")
        return
    check_map(kind, op, record, sk, what)


def limit_problem(problem: dict) -> dict:
    """The temperature problem a convective one tends to as h0 grows."""
    limit = {key: problem[key] for key in ("alpha", "gamma", "d", "k")}
    limit.update(family="temperature", t0=problem["t_inf"])
    return limit


def check_map(kind: str, op: dict, record, sk, what: str) -> None:
    """A family map is right when the source's solution also meets the
    target's face condition (front and Stefan conditions do not depend on
    the family), and the program solves the target to the same nu."""
    problem = op["problem"]
    sol = sk.solve_front(make_spec(sk, problem))
    nu, a, b = sol.nu, sol.coeff_even, sol.coeff_odd
    check_solution(problem, nu, a, b, f"{what} source")
    target_spec = record
    if kind == "flux_to_convective":
        threshold, target_spec = record
        # The threshold is the face temperature coefficient of the flux solution.
        _require(_close(threshold, a), f"{what}: threshold {threshold} is not A={a}")
        _require(target_spec.boundary.t_inf == threshold * op["t_inf_factor"],
                 f"{what}: t_inf not as asked")
    elif kind == "temperature_to_convective":
        _require(target_spec.boundary.t_inf == problem["t0"] * op["t_inf_factor"],
                 f"{what}: t_inf not as asked")
    target = spec_dict(target_spec)
    same_material(problem, target, what)
    residual = face_residual(target, mpmath.mpf(a), mpmath.mpf(b))
    _require(residual <= RTOL, f"{what}: target face residual {residual}")
    target_nu = sk.solve_front(target_spec).nu
    _require(_close(target_nu, nu), f"{what}: target nu {target_nu} != source nu {nu}")


def check_equivalence_report(op: dict, report, sk) -> None:
    kind = op["map"]
    what = f"equivalence_report {kind} {op['problem']}"
    record = report.target_spec
    if kind == "flux_to_convective":
        record = (sk.flux_threshold(make_spec(sk, op["problem"])), report.target_spec)
    check_map(kind, op, record, sk, what)
    _require(_close(report.nu_source, report.nu_target), f"{what}: nu differs")
    sol = sk.solve_front(report.source_spec)
    t_hi = 2.0  # equivalence_report's default time span ends at 2
    scale = (abs(sol.coeff_even) + abs(sol.coeff_odd)) * t_hi ** (op["problem"]["alpha"] / 2)
    _require(0.0 <= report.max_temperature_gap <= RTOL * scale,
             f"{what}: field gap {report.max_temperature_gap} for scale {scale}")


def check_field_gap(op: dict, gap: float, xs, ts, sk) -> None:
    """field_convergence_gap is the largest |u_h0 - u_limit| over the grid.
    Both fields are recomputed here from nu alone: each nu is the program's,
    checked against the Stefan condition, and A, B follow from the front
    and face conditions."""
    what = f"field_gap {op['problem']} h0={op['h0']}"
    fields = []
    for problem in (dict(op["problem"], h0=op["h0"]), limit_problem(op["problem"])):
        nu = sk.solve_front(make_spec(sk, problem)).nu
        fields.append((problem, check_nu(problem, nu, what)))
    worst, scale = mpmath.mpf(0), mpmath.mpf(0)
    for t in ts:
        for x in xs:
            (u1, s1), (u2, s2) = (temperature(p, a, b, x, t) for p, (a, b) in fields)
            worst = max(worst, abs(u1 - u2))
            scale = max(scale, s1, s2)
    _require(abs(gap - float(worst)) <= RTOL * float(scale),
             f"{what}: gap {gap} but recomputed {float(worst)} (scale {float(scale)})")


def check_field_csv(op: dict, text: str, sample_rng) -> None:
    """Every row's melted_flag, the grid, and a seeded sample of the
    temperatures against the closed form with nu read from s_of_t."""
    problem = op["problem"]
    what = f"field {problem}"
    lines = text.split("\n")
    _require(lines[0] == "x,t,psi,s_of_t,melted_flag", f"{what}: header {lines[0]!r}")
    _require(lines[-1] == "", f"{what}: no final newline")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
    nx, nt, tmax = op["nx"], op["nt"], op["tmax"]
    _require(len(rows) == nx * nt, f"{what}: {len(rows)} rows, expected {nx * nt}")
    for x, t, psi, s, flag in rows:
        _require(flag == (1.0 if x < s else 0.0), f"{what}: melted_flag wrong at x={x}, t={t}")
        _require(flag == 1.0 or psi == 0.0, f"{what}: psi={psi} beyond the front")
    ts = sorted({row[1] for row in rows})
    _require(len(ts) == nt and _close(ts[-1], tmax, 1e-15), f"{what}: time grid")
    # One nu for the whole file, read from the front column.
    x, t, _, s, _ = rows[-1]
    nu = s / (2.0 * math.sqrt(problem["d"] * t))
    a, b = check_nu(problem, nu, what)
    for x, t, psi, s, _ in rows:
        _require(_close(s / (2.0 * math.sqrt(problem["d"] * t)), nu, 1e-13),
                 f"{what}: s_of_t not 2 nu sqrt(d t) at t={t}")
    melted = [row for row in rows if row[4] == 1.0]
    for x, t, psi, _, _ in sample_rng.sample(melted, min(12, len(melted))):
        u, scale = temperature(problem, a, b, x, t)
        _require(abs(psi - float(u)) <= RTOL * float(scale),
                 f"{what}: psi={psi} at x={x}, t={t}, closed form {float(u)}")


def check_verify(op: dict, code: int, payload: dict) -> None:
    what = f"verify {op['problem']} t_end={op['t_end']}"
    _require(code == 0 and payload["passed"] is True, f"{what}: not passed: {payload}")
    _require(payload["energy_balance_drift"] <= 0.005, f"{what}: drift {payload}")
    _require(payload["max_front_err"] <= payload["front_tol"], f"{what}: front error")
    _require(payload["max_field_err"] <= payload["field_tol"], f"{what}: field error")
    _require(payload["nx"] == op["nx"] and payload["t_end"] == op["t_end"],
             f"{what}: grid or horizon not as asked")
    check_nu(op["problem"], payload["nu"], what)
