"""Seeded workload plans and the operations that run them.

A plan is pure data (dicts of floats and strings) made from
``random.Random(seed)`` alone, so it can be built before the package is
imported.  ``bind`` turns one plan item into a zero-argument callable
that calls the package; the callable returns a record that the checks in
``checks.py`` read and that repeats exactly from pass to pass.

Every plan keeps a fixed kind of operation first (the set-up probe runs
it, so its cost must not depend on the seed) and shuffles the rest.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("front-solve", "field-eval", "oracle-verify")
# The host kernel (hostref.py) that runs the same kind of code as the layer
# doing most of each workload's work.
HOST_KERNEL = {"front-solve": "python", "field-eval": "python", "oracle-verify": "numpy"}

# Boundary data are log-uniform over four decades, material constants
# (gamma, d, k) over one, and alpha is uniform in [0, 4].  Wider ranges reach
# problems whose nu**(alpha + 1) is below about 1e-8, where solve_front's
# absolute residual stop returns a nu that is off by up to 20% without an
# error (see CHANGES.md); such an op would fail the checks on some seeds
# only.  These ranges keep nu**(alpha + 1) above 1e-7 and nu above 1e-5,
# clear of the fixed 1e-8 lower bracket that the fault probes hit on purpose.
BOUNDARY_RANGE = (1e-2, 1e2)
MATERIAL_RANGE = (1.0 / 3.0, 3.0)
ALPHA_MAX = 4.0
FAMILIES = ("convective", "temperature", "flux")
MAPS = (("convective_to_temperature", "convective"),
        ("convective_to_flux", "convective"),
        ("temperature_to_convective", "temperature"),
        ("flux_to_convective", "flux"))

# front-solve make-up of one pass.
SOLVES_PER_FAMILY = 80
LIMIT_STUDIES = 24
MAPS_EACH = 24
H0_LADDER = tuple(10.0 ** (j / 2.0) for j in range(-4, 5))
# nu < 1e-8 for each of these; the solver's fixed lower bracket rejects them.
FAULT_PROBES = (
    {"family": "convective", "alpha": 0.0, "h0": 1e-6, "t_inf": 1e-6},
    {"family": "convective", "alpha": 0.5, "h0": 1e-8, "t_inf": 1e-8},
    {"family": "temperature", "alpha": 0.0, "t0": 1e-18},
    {"family": "flux", "alpha": 0.0, "c": 1e-10},
)

# field-eval make-up of one pass.
FIELD_PER_FAMILY = 16
FIELD_GRID = 60
REPORTS_EACH = 1
GAPS = 4
GAP_GRID = 16

# oracle-verify: the three cases of scripts/oracle_convergence.py.  The
# explicit oracle takes about nx**2 / nu**2 steps, so each case has its own
# grid, chosen so that the three cost about the same: the latency
# distribution then has one cluster, and its median and tail do not jump
# between cases from run to run.
ORACLE_CASES = (
    ({"family": "convective", "alpha": 0.4, "h0": 0.5, "t_inf": 1.0}, 160),
    ({"family": "temperature", "alpha": 0.4, "t0": 1.0}, 250),
    ({"family": "flux", "alpha": 2.0, "c": 1.0}, 225),
)
ORACLE_VARIANTS = 3

_DATUM_KEYS = {"convective": ("h0", "t_inf"), "temperature": ("t0",), "flux": ("c",)}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal slices, shuffled."""
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _problems(rng: random.Random, family: str, n: int) -> list[dict]:
    """n problems of one family, Latin-hypercube sampled: each coordinate
    covers its range evenly on every seed, so the cost of a pass varies
    little from seed to seed."""
    columns = {"alpha": [ALPHA_MAX * u for u in _stratified(rng, n)]}
    log_ranges = {key: BOUNDARY_RANGE for key in _DATUM_KEYS[family]}
    log_ranges.update(gamma=MATERIAL_RANGE, d=MATERIAL_RANGE, k=MATERIAL_RANGE)
    for key, (lo, hi) in log_ranges.items():
        columns[key] = [lo * (hi / lo) ** u for u in _stratified(rng, n)]
    return [dict(family=family, **{key: col[i] for key, col in columns.items()})
            for i in range(n)]


def _ordered(rng: random.Random, first: dict, rest: list[dict]) -> list[dict]:
    rng.shuffle(rest)
    ops = [first] + rest
    for i, op in enumerate(ops):
        op["out_index"] = i
    return ops


def plan(workload: str, seed: int) -> list[dict]:
    """The operations of one pass, in order."""
    rng = random.Random(seed)
    if workload == "front-solve":
        return _plan_front_solve(rng)
    if workload == "field-eval":
        return _plan_field_eval(rng)
    if workload == "oracle-verify":
        return _plan_oracle_verify(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _plan_front_solve(rng: random.Random) -> list[dict]:
    solves = [{"kind": "solve", "problem": problem}
              for family in FAMILIES
              for problem in _problems(rng, family, SOLVES_PER_FAMILY)]
    studies = [{"kind": "limit_study", "problem": problem, "h0_grid": H0_LADDER}
               for problem in _problems(rng, "convective", LIMIT_STUDIES)]
    # t_inf is a multiple of the datum's threshold (t0 for the temperature
    # family, flux_threshold for the flux family).
    maps = [{"kind": kind, "problem": problem,
             "t_inf_factor": _log_uniform(rng, 1.05, 20.0)}
            for kind, family in MAPS
            for problem in _problems(rng, family, MAPS_EACH)]
    probes = [{"kind": "fault_probe", "problem": dict(p, gamma=1.0, d=1.0, k=1.0)}
              for p in FAULT_PROBES]
    first = solves.pop(0)  # a convective solve
    return _ordered(rng, first, solves + studies + maps + probes)


def _plan_field_eval(rng: random.Random) -> list[dict]:
    fields = [{"kind": "field", "problem": problem, "tmax": _log_uniform(rng, 0.1, 10.0),
               "nx": FIELD_GRID, "nt": FIELD_GRID}
              for family in FAMILIES
              for problem in _problems(rng, family, FIELD_PER_FAMILY)]
    reports = [{"kind": "equivalence_report", "map": kind, "problem": problem,
                "t_inf_factor": _log_uniform(rng, 1.05, 20.0)}
               for kind, family in MAPS
               for problem in _problems(rng, family, REPORTS_EACH)]
    gaps = [{"kind": "field_gap", "problem": problem,
             "h0": _log_uniform(rng, *BOUNDARY_RANGE), "tmax": _log_uniform(rng, 0.1, 10.0)}
            for problem in _problems(rng, "convective", GAPS)]
    first = fields.pop(0)  # a convective field
    return _ordered(rng, first, fields + reports + gaps)


def _plan_oracle_verify(rng: random.Random) -> list[dict]:
    ops = []
    for case, nx in ORACLE_CASES:
        for _ in range(ORACLE_VARIANTS):
            problem = dict(case, gamma=1.0, d=1.0, k=1.0)
            # Small perturbations only: the explicit oracle's step count
            # scales as 1/nu**2, so wide data would make the op cost (and
            # the seed-to-seed spread) follow the data rather than the code.
            for key in ("alpha",) + _DATUM_KEYS[case["family"]]:
                problem[key] = case[key] * math.exp(rng.uniform(-0.05, 0.05))
            ops.append({"kind": "verify", "problem": problem,
                        "t_end": _log_uniform(rng, 0.1, 10.0), "nx": nx})
    first = ops.pop(0)  # a convective case
    return _ordered(rng, first, ops)


def make_spec(sk, problem: dict):
    family = problem["family"]
    if family == "convective":
        boundary = sk.Convective(h0=problem["h0"], t_inf=problem["t_inf"])
    elif family == "temperature":
        boundary = sk.Temperature(t0=problem["t0"])
    else:
        boundary = sk.Flux(c=problem["c"])
    return sk.ProblemSpec(alpha=problem["alpha"], boundary=boundary,
                          gamma=problem["gamma"], d=problem["d"], k=problem["k"])


def _cli_problem_args(problem: dict) -> list[str]:
    args = []
    for key in ("alpha", "gamma", "d", "k"):
        args += [f"--{key}", repr(problem[key])]
    flags = {"h0": "--h0", "t_inf": "--tinf", "t0": "--t0", "c": "--c"}
    for key in _DATUM_KEYS[problem["family"]]:
        args += [flags[key], repr(problem[key])]
    return args


class CliFailure(RuntimeError):
    """The command line tool exited with a usage or numerical error."""


def output_path(out_dir, op: dict):
    suffix = "csv" if op["kind"] == "field" else "json"
    return out_dir / f"{op['kind']}-{op['out_index']:03d}.{suffix}"


def bind(op: dict, sk, cli, out_dir):
    """A zero-argument callable running ``op`` against the package ``sk``.

    ``cli`` is the ``stefan_kummer.cli`` module; its ``main`` is looked up
    at call time so that the traced run sees the wrapped function.
    """
    kind = op["kind"]
    if kind in ("field", "verify"):
        argv = [kind] + _cli_problem_args(op["problem"])
        if kind == "field":
            argv += ["--nx", str(op["nx"]), "--nt", str(op["nt"]),
                     "--tmax", repr(op["tmax"])]
        else:
            argv += ["--nx-oracle", str(op["nx"]), "--t-end", repr(op["t_end"])]
        argv += ["--out", str(output_path(out_dir, op))]

        def run_cli():
            code = cli.main(argv)
            # verify exits 1 when the comparison fails: that is an output,
            # and the checks reject it; 2 and 3 are errors.
            if code not in (0, 1):
                raise CliFailure(f"{kind} exited {code}")
            return code

        return run_cli

    spec = make_spec(sk, op["problem"])
    if kind in ("solve", "fault_probe"):
        def run_solve():
            sol = sk.solve_front(spec)
            return (sol.nu, sol.coeff_even, sol.coeff_odd, sol.solver_report.iterations)
        return run_solve
    if kind == "limit_study":
        grid = op["h0_grid"]
        return lambda: sk.run_limit_study(spec, grid)
    if kind == "field_gap":
        xs, ts = gap_grid(op)
        return lambda: sk.field_convergence_gap(spec, op["h0"], xs, ts)
    if kind == "equivalence_report":
        convert = _map_call(sk, op["map"], spec, op["t_inf_factor"])
        if op["map"] == "flux_to_convective":
            return lambda: sk.equivalence_report(spec, convert()[1])
        return lambda: sk.equivalence_report(spec, convert())
    return _map_call(sk, kind, spec, op["t_inf_factor"])


def gap_grid(op: dict) -> tuple[list[float], list[float]]:
    """The (xs, ts) sample grid of a field_gap op; x reaches eta = 3 at the
    earliest time."""
    tmax = op["tmax"]
    ts = [tmax * (i + 1) / GAP_GRID for i in range(GAP_GRID)]
    x_hi = 6.0 * math.sqrt(op["problem"]["d"] * ts[0])
    return [x_hi * j / (GAP_GRID - 1) for j in range(GAP_GRID)], ts


def _map_call(sk, kind: str, spec, t_inf_factor: float):
    if kind == "convective_to_temperature":
        return lambda: sk.convective_to_temperature(spec)
    if kind == "convective_to_flux":
        return lambda: sk.convective_to_flux(spec)
    if kind == "temperature_to_convective":
        t_inf = spec.boundary.t0 * t_inf_factor
        return lambda: sk.temperature_to_convective(spec, t_inf)
    if kind == "flux_to_convective":
        def flux_round_trip():
            threshold = sk.flux_threshold(spec)
            return threshold, sk.flux_to_convective(spec, threshold * t_inf_factor)
        return flux_round_trip
    raise ValueError(f"unknown map {kind!r}")
