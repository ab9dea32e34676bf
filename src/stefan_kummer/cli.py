"""Command-line front end.

Subcommands: ``solve`` (front coefficient and series coefficients as
JSON), ``sweep`` (front coefficient along a parameter grid as CSV),
``field`` (temperature field grid as CSV), ``equiv`` (boundary-family
conversion report as JSON), ``verify`` (closed form against the
finite-difference oracle, JSON report).

Problem data default to gamma = d = k = 1.  A key=value config file named
by the STEFAN_KUMMER_CONFIG environment variable supplies defaults; flags
given on the command line win.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from itertools import islice, repeat

import numpy as np

from .equivalence import (
    EquivalenceReport,
    convective_to_flux,
    convective_to_temperature,
    equivalence_report,
    flux_to_convective,
    temperature_to_convective,
)
from .limits import limit_problem
from .oracle import OracleConfig, compare_to_closed_form, run_oracle
from .stefan import (
    Convective,
    Flux,
    ProblemSpec,
    Temperature,
    solve_front,
)

_CONFIG_ENV = "STEFAN_KUMMER_CONFIG"
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class UsageError(ValueError):
    pass


def _load_config_file() -> dict[str, str]:
    path = os.environ.get(_CONFIG_ENV)
    if not path:
        return {}
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"malformed config line {line!r} in {path}")
                key, _, value = line.partition("=")
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _cast_bool(raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise UsageError(f"expected a boolean, got {raw!r}")


class _Options:
    """Flag values override config-file values override builtin defaults."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self._args = vars(args)
        self._config = config

    def get(self, name: str, default=None, cast=float):
        value = self._args.get(name)
        if value is not None:
            return value
        if name in self._config:
            raw = self._config[name]
            try:
                return _cast_bool(raw) if cast is bool else cast(raw)
            except UsageError:
                raise
            except ValueError as exc:
                raise UsageError(f"bad config value {name}={raw!r}") from exc
        return default


def _build_boundary(h0, tinf, t0, c):
    families = [name for name, given in
                (("convective", h0), ("temperature", t0), ("flux", c))
                if given is not None]
    if len(families) != 1:
        raise UsageError(
            "exactly one boundary family must be given: --h0 with --tinf "
            "(convective), --t0 (temperature), or --c (flux); got "
            f"{families or 'none'}"
        )
    if h0 is not None:
        if tinf is None:
            raise UsageError("convective boundary needs both --h0 and --tinf")
        return Convective(h0=h0, t_inf=tinf)
    if t0 is not None:
        return Temperature(t0=t0)
    return Flux(c=c)


def _problem_from(opt: _Options, boundary) -> ProblemSpec:
    return ProblemSpec(
        alpha=opt.get("alpha", 0.0),
        boundary=boundary,
        gamma=opt.get("gamma", 1.0),
        d=opt.get("d", 1.0),
        k=opt.get("k", 1.0),
    )


def _resolve_problem(opt: _Options) -> ProblemSpec:
    boundary = _build_boundary(
        opt.get("h0"), opt.get("tinf"), opt.get("t0"), opt.get("c")
    )
    return _problem_from(opt, boundary)


def _check_format(opt: _Options, required: str) -> None:
    fmt = opt.get("format", required, cast=str)
    if fmt != required:
        raise UsageError(f"this command emits {required}, not {fmt}")


def _require_positive_flag(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"{flag} must be a positive finite number, got {value}")


def _csv_text(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, allow_nan=False, indent=2) + "\n"


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _spec_payload(prefix: str, spec: ProblemSpec) -> dict:
    payload = {
        f"{prefix}_alpha": spec.alpha,
        f"{prefix}_gamma": spec.gamma,
        f"{prefix}_d": spec.d,
        f"{prefix}_k": spec.k,
    }
    b = spec.boundary
    payload[f"{prefix}_family"] = type(b).__name__.lower()
    for field in fields(b):
        payload[f"{prefix}_{field.name.replace('_', '')}"] = getattr(b, field.name)
    return payload


def _cmd_solve(opt: _Options) -> int:
    _check_format(opt, "json")
    sol = solve_front(_resolve_problem(opt))
    payload = {
        "nu": sol.nu,
        "coeff_even": sol.coeff_even,
        "coeff_odd": sol.coeff_odd,
        "iterations": sol.solver_report.iterations,
        "residual": sol.solver_report.residual,
    }
    _write_output(_json_text(payload), opt.get("out", cast=str))
    return 0


def _parse_values(opt: _Options) -> list[float]:
    raw = opt.get("values", cast=str)
    if raw is None:
        raise UsageError("sweep needs --values v1,v2,...")
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError("--values must list at least one value")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad --values entry: {exc}") from exc
    if any(v <= 0.0 for v in values):
        raise UsageError("--values must be positive")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise UsageError("--values must be strictly ascending")
    return values


def _cmd_sweep(opt: _Options) -> int:
    _check_format(opt, "csv")
    vary = opt.get("vary", cast=str)
    if vary not in ("h0", "tinf", "alpha"):
        raise UsageError("sweep needs --vary h0|tinf|alpha")
    values = _parse_values(opt)
    include_limit = bool(opt.get("include_limit", False, cast=bool))

    def spec_for(value: float) -> ProblemSpec:
        if vary == "h0":
            tinf = opt.get("tinf")
            if tinf is None:
                raise UsageError("sweep over h0 needs --tinf")
            return _problem_from(opt, Convective(h0=value, t_inf=tinf))
        if vary == "tinf":
            h0 = opt.get("h0")
            if h0 is None:
                raise UsageError("sweep over tinf needs --h0")
            return _problem_from(opt, Convective(h0=h0, t_inf=value))
        return replace(_resolve_problem(opt), alpha=value)

    rows = []
    for value in values:
        spec = spec_for(value)
        if include_limit and not isinstance(spec.boundary, Convective):
            raise UsageError("--include-limit needs a convective problem")
        row = [value, solve_front(spec).nu]
        if include_limit:
            row.append(solve_front(limit_problem(spec)).nu)
        rows.append(",".join(repr(float(v)) for v in row))
    header = "param,nu,nu_infinity" if include_limit else "param,nu"
    _write_output(_csv_text(header, rows), opt.get("out", cast=str))
    return 0


def _cmd_field(opt: _Options) -> int:
    _check_format(opt, "csv")
    sol = solve_front(_resolve_problem(opt))
    tmax = opt.get("tmax", 1.0)
    nx = int(opt.get("nx", 50, cast=int))
    nt = int(opt.get("nt", 50, cast=int))
    _require_positive_flag("--tmax", tmax)
    if nx < 2 or nt < 1:
        raise UsageError("field needs --nx >= 2, --nt >= 1")
    xmax = opt.get("xmax", 1.2 * sol.front_position(tmax))
    _require_positive_flag("--xmax", xmax)
    xs = [xmax * j / (nx - 1) for j in range(nx)]
    ts = [tmax * i / nt for i in range(1, nt + 1)]
    x, t = np.array(xs), np.array(ts)
    s_of_t = sol.front_position(t)
    # x ascends, so the melted points x < s(t) of a time row are a prefix
    # of it; their temperatures come in row order from one evaluation.
    melted = x < s_of_t[:, None]
    rows, cols = np.nonzero(melted)
    psi_text = map(repr, sol.temperature(x[cols], t[rows]).tolist())
    x_text = [repr(v) for v in xs]
    lines: list[str] = []
    for t_i, s_i, n_melted in zip(ts, s_of_t.tolist(), melted.sum(axis=1).tolist()):
        t_text, s_text = f",{t_i!r},", f",{s_i!r},"
        lines.extend(map("".join, zip(x_text[:n_melted], repeat(t_text),
                                      islice(psi_text, n_melted), repeat(s_text + "1"))))
        solid = f"{t_text}0.0{s_text}0"
        lines.extend(x_j + solid for x_j in x_text[n_melted:])
    _write_output(
        _csv_text("x,t,psi,s_of_t,melted_flag", lines), opt.get("out", cast=str)
    )
    return 0


def _cmd_equiv(opt: _Options) -> int:
    _check_format(opt, "json")
    to = opt.get("to", cast=str)
    if to not in ("temperature", "flux", "convective"):
        raise UsageError("equiv needs --to temperature|flux|convective")
    source = _resolve_problem(opt)
    if to == "temperature":
        target = convective_to_temperature(source)
    elif to == "flux":
        target = convective_to_flux(source)
    else:
        tinf = opt.get("tinf")
        if tinf is None:
            raise UsageError("conversion to convective needs --tinf")
        to_convective = {Temperature: temperature_to_convective,
                         Flux: flux_to_convective}.get(type(source.boundary))
        if to_convective is None:
            raise UsageError("source is already convective")
        target = to_convective(source, tinf)
    report: EquivalenceReport = equivalence_report(source, target)
    payload = {
        "nu_source": report.nu_source,
        "nu_target": report.nu_target,
        "max_temperature_gap": report.max_temperature_gap,
    }
    payload.update(_spec_payload("source", report.source_spec))
    payload.update(_spec_payload("target", report.target_spec))
    _write_output(_json_text(payload), opt.get("out", cast=str))
    return 0


def _cmd_verify(opt: _Options) -> int:
    _check_format(opt, "json")
    problem = _resolve_problem(opt)
    t_end = opt.get("t_end", 1.0)
    nx = int(opt.get("nx_oracle", 2000, cast=int))
    tol = opt.get("tol", 1e-2)
    _require_positive_flag("--t-end", t_end)
    _require_positive_flag("--tol", tol)
    sol = solve_front(problem)
    domain_length = opt.get("domain_length", 4.0 * sol.front_position(t_end))
    _require_positive_flag("--domain-length", domain_length)
    cfg = OracleConfig(domain_length=domain_length, t_end=t_end, nx=nx)
    result = run_oracle(problem, cfg)
    # Skip the first decade of the run: the comparison targets propagation
    # accuracy, not the initialization state.
    report = compare_to_closed_form(result, sol, t_window=(0.1 * t_end, t_end))
    front_tol, field_tol, drift_tol = tol, 2.0 * tol, 0.005
    passed = (
        report.max_front_err <= front_tol
        and report.max_field_err <= field_tol
        and result.energy_balance_drift <= drift_tol
    )
    payload = {
        "nu": sol.nu,
        "nx": nx,
        "t_end": t_end,
        "domain_length": domain_length,
        "max_front_err": report.max_front_err,
        "max_field_err": report.max_field_err,
        "energy_balance_drift": result.energy_balance_drift,
        "n_steps": result.n_steps,
        "newton_iterations": result.newton_iterations,
        "front_tol": front_tol,
        "field_tol": field_tol,
        "drift_tol": drift_tol,
        "passed": passed,
    }
    _write_output(_json_text(payload), opt.get("out", cast=str))
    return 0 if passed else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "field": _cmd_field,
    "equiv": _cmd_equiv,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", type=float, help="latent-heat exponent (default 0)")
    shared.add_argument("--gamma", type=float, help="latent-heat coefficient (default 1)")
    shared.add_argument("--d", type=float, help="diffusivity (default 1)")
    shared.add_argument("--k", type=float, help="conductivity (default 1)")
    shared.add_argument("--h0", type=float, help="convective transfer coefficient")
    shared.add_argument("--tinf", type=float, help="bulk temperature coefficient")
    shared.add_argument("--t0", type=float, help="face temperature coefficient")
    shared.add_argument("--c", type=float, help="face flux coefficient")
    shared.add_argument("--out", type=str, help="output path (default stdout)")
    shared.add_argument("--format", type=str, choices=("csv", "json"))

    parser = argparse.ArgumentParser(
        prog="stefan-kummer",
        description="Similarity solutions of one-phase melting with "
        "position-dependent latent heat",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=[shared], help="solve one problem")

    sweep = sub.add_parser("sweep", parents=[shared], help="front coefficient sweep")
    sweep.add_argument("--vary", type=str, choices=("h0", "tinf", "alpha"))
    sweep.add_argument("--values", type=str, help="comma-separated ascending grid")
    sweep.add_argument("--include-limit", dest="include_limit",
                       action="store_true", default=None,
                       help="append the large-h0 limit coefficient column")

    field = sub.add_parser("field", parents=[shared], help="temperature field grid")
    field.add_argument("--xmax", type=float)
    field.add_argument("--tmax", type=float)
    field.add_argument("--nx", type=int)
    field.add_argument("--nt", type=int)

    equiv = sub.add_parser("equiv", parents=[shared],
                           help="boundary-family conversion report")
    equiv.add_argument("--to", type=str, choices=("temperature", "flux", "convective"))

    verify = sub.add_parser("verify", parents=[shared],
                            help="cross-validate against the enthalpy oracle")
    verify.add_argument("--nx-oracle", dest="nx_oracle", type=int)
    verify.add_argument("--t-end", dest="t_end", type=float)
    verify.add_argument("--tol", type=float, help="front error tolerance (default 0.01)")
    verify.add_argument("--domain-length", dest="domain_length", type=float)

    return parser


# Built once per process: the parser holds no per-call state, and building
# it costs as much as a small field grid.
_PARSER = _build_parser()


def _error_record(kind: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config_file()
        opt = _Options(args, config)
        return _COMMANDS[args.command](opt)
    except UsageError as exc:
        _error_record("usage", str(exc))
        return 2
    except ValueError as exc:
        _error_record("invalid-data", str(exc))
        return 2
    except (OverflowError, RuntimeError) as exc:
        _error_record("numerical-failure", str(exc))
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
