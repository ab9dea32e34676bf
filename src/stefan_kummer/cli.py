"""Command-line front end.

Subcommands: ``solve`` (front coefficient and series coefficients as
JSON), ``sweep`` (front coefficient along a parameter grid as CSV),
``field`` (temperature field grid as CSV), ``equiv`` (boundary-family
conversion report as JSON), ``verify`` (closed form against the
finite-difference oracle, JSON report).

Each option's type and default are declared with its flag, and
``stefan-kummer <command> --help`` lists the defaults; a flag left off
the command line takes its default.  Every subcommand, and each row of a
sweep, builds its problem the same way:
exactly one boundary family may have data given, and it must have all of
its data.  So a sweep over h0 or tinf needs a convective problem, and
--tinf without --h0 is a usage error (``equiv --to convective`` passes
its --tinf to the target instead).  Flags are never
abbreviated.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import fields

from .equivalence import EquivalenceReport, _convert, equivalence_report
from .limits import limit_problem
from .oracle import OracleConfig, compare_to_closed_form, run_oracle
from .stefan import (
    Convective,
    Flux,
    ProblemSpec,
    Temperature,
    solve_front,
)

# Each boundary family's data, field name to flag name: the flag is the
# field's name without underscores (t_inf is --tinf).
_FAMILY_FLAGS = {family: {f.name: f.name.replace("_", "") for f in fields(family)}
                 for family in (Convective, Temperature, Flux)}


class UsageError(ValueError):
    pass


def _resolve_problem(args: argparse.Namespace, **varied: float) -> ProblemSpec:
    """The problem the parsed options describe; a datum in ``varied``
    (a sweep row's value) takes the place of its option.  Exactly one
    boundary family may have data given, and it must have all of them."""
    o = {**vars(args), **varied}
    given = {family: [f"--{flag}" for flag in flags.values() if o[flag] is not None]
             for family, flags in _FAMILY_FLAGS.items()}
    families = [family for family, named in given.items() if named]
    if len(families) != 1 or len(given[families[0]]) < len(_FAMILY_FLAGS[families[0]]):
        raise UsageError(
            "exactly one boundary family must be given, with all of its data: "
            "--h0 with --tinf (convective), --t0 (temperature), or --c (flux); "
            f"got {' '.join(flag for named in given.values() for flag in named) or 'none'}"
        )
    flags = _FAMILY_FLAGS[families[0]]
    boundary = families[0](**{name: o[flag] for name, flag in flags.items()})
    return ProblemSpec(alpha=o["alpha"], boundary=boundary, gamma=o["gamma"],
                       d=o["d"], k=o["k"])


def _require_positive_flag(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"{flag} must be a positive finite number, got {value}")


def _flag_or_default(flag: str, given: float | None, default: float, formula: str) -> float:
    """The user's ``given`` value of ``flag``, checked as a flag, else the
    computed ``default`` (``formula``), which raises OverflowError outside
    double range."""
    if given is not None:
        _require_positive_flag(flag, given)
        return given
    if not (math.isfinite(default) and default > 0.0):
        raise OverflowError(f"the default {flag} {formula} = {default} is outside double range")
    return default


def _csv_text(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, allow_nan=False, indent=2) + "\n"


def _open_untruncated(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_output(text: str, out_path):
    """``text`` to stdout, or to the file ``out_path``.  An existing file is
    overwritten in place and then cut to length, not truncated at open: on
    ext4 mounted with ``discard``, truncating a 272 KB field CSV at open
    takes six times as long as writing it over the old bytes.  The write is
    not atomic.  Only a regular file is cut: ``ftruncate`` fails on devices
    (``os.devnull``) and pipes."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n",
                  opener=_open_untruncated) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _spec_payload(prefix: str, spec: ProblemSpec) -> dict:
    payload = {
        f"{prefix}_alpha": spec.alpha,
        f"{prefix}_gamma": spec.gamma,
        f"{prefix}_d": spec.d,
        f"{prefix}_k": spec.k,
    }
    b = spec.boundary
    payload[f"{prefix}_family"] = type(b).__name__.lower()
    for name, flag in _FAMILY_FLAGS[type(b)].items():
        payload[f"{prefix}_{flag}"] = getattr(b, name)
    return payload


def _cmd_solve(args: argparse.Namespace) -> int:
    sol = solve_front(_resolve_problem(args))
    payload = {
        "nu": sol.nu,
        "coeff_even": sol.coeff_even,
        "coeff_odd": sol.coeff_odd,
        "iterations": sol.solver_report.iterations,
        "residual": sol.solver_report.residual,
    }
    _write_output(_json_text(payload), args.out)
    return 0


def _parse_values(raw: str | None) -> list[float]:
    if raw is None:
        raise UsageError("sweep needs --values v1,v2,...")
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError("--values must list at least one value")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad --values entry: {exc}") from exc
    if any(a >= b for a, b in zip(values, values[1:])):
        raise UsageError("--values must be strictly ascending")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    vary = args.vary
    if vary not in ("h0", "tinf", "alpha"):
        raise UsageError("sweep needs --vary h0|tinf|alpha")
    values = _parse_values(args.values)
    rows = []
    for value in values:
        spec = _resolve_problem(args, **{vary: value})
        row = [value, solve_front(spec).nu]
        if args.include_limit:
            row.append(solve_front(limit_problem(spec)).nu)
        rows.append(",".join(repr(float(v)) for v in row))
    header = "param,nu,nu_infinity" if args.include_limit else "param,nu"
    _write_output(_csv_text(header, rows), args.out)
    return 0


def _grid(top: float, first: int, n: int) -> list[float]:
    """top * i / n for i = first, ..., n; top * (i / n), which is at most
    top, where the product top * i leaves double range."""
    return [top * i / n if top * i < math.inf else top * (i / n) for i in range(first, n + 1)]


def _cmd_field(args: argparse.Namespace) -> int:
    import numpy as np
    sol = solve_front(_resolve_problem(args))
    tmax, nx, nt = args.tmax, args.nx, args.nt
    _require_positive_flag("--tmax", tmax)
    if nx < 2 or nt < 1:
        raise UsageError("field needs --nx >= 2, --nt >= 1")
    xmax = _flag_or_default("--xmax", args.xmax, 1.2 * sol.front_position(tmax), "1.2 s(tmax)")
    xs = _grid(xmax, 0, nx - 1)
    ts = _grid(tmax, 1, nt)
    x, t = np.array(xs), np.array(ts)
    s_of_t = sol.front_position(t)
    melted = x < s_of_t[:, None]
    rows, cols = np.nonzero(melted)
    psi_text = list(map(repr, sol.temperature(x[cols], t[rows]).tolist()))
    x_text = [*map(repr, xs), ""]
    parts, k = ["x,t,psi,s_of_t,melted_flag\n"], 0
    # x ascends, so a row's n melted points are its first n.  The row's first
    # join holds their lines, x ",t," psi ",s,1\n" each; its second joins the
    # solid x with ",t,0.0,s,0\n", which x_text's closing "" puts after the last.
    for t_i, s_i, n in zip(ts, s_of_t.tolist(), melted.sum(axis=1).tolist()):
        t_text, s_text = f",{t_i!r},", f",{s_i!r},"
        cells = [t_text] * (4 * n)
        cells[0::4], cells[2::4], cells[3::4] = x_text[:n], psi_text[k:k + n], [s_text + "1\n"] * n
        parts += "".join(cells), f"{t_text}0.0{s_text}0\n".join(x_text[n:])
        k += n
    _write_output("".join(parts), args.out)
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    family = {f.__name__.lower(): f for f in _FAMILY_FLAGS}.get(args.to)
    if family is None:
        raise UsageError("equiv needs --to temperature|flux|convective")
    if family is Convective:
        # --tinf is the target's bulk coefficient, so it bypasses the source.
        if args.h0 is not None:
            raise UsageError("source is already convective")
        if args.tinf is None:
            raise UsageError("conversion to convective needs --tinf")
        source = _resolve_problem(args, tinf=None)
        target = _convert(source, type(source.boundary), family, args.tinf)
    else:
        source = _resolve_problem(args)
        target = _convert(source, Convective, family)
    report: EquivalenceReport = equivalence_report(source, target)
    payload = {
        "nu_source": report.nu_source,
        "nu_target": report.nu_target,
        "max_temperature_gap": report.max_temperature_gap,
    }
    payload.update(_spec_payload("source", report.source_spec))
    payload.update(_spec_payload("target", report.target_spec))
    _write_output(_json_text(payload), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args)
    t_end, nx, tol = args.t_end, args.nx_oracle, args.tol
    _require_positive_flag("--t-end", t_end)
    _require_positive_flag("--tol", tol)
    sol = solve_front(problem)
    domain_length = _flag_or_default("--domain-length", args.domain_length,
                                     4.0 * sol.front_position(t_end), "4 s(t_end)")
    cfg = OracleConfig(domain_length=domain_length, t_end=t_end, nx=nx)
    result = run_oracle(problem, cfg, sol)
    report = compare_to_closed_form(result, sol)
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
    _write_output(_json_text(payload), args.out)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    """The parser; ``option`` declares a flag's type and default in one place."""

    def option(parser, flag, type, default=None, help="", **kwargs):
        if type is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = type
            if default is not None:
                help = f"{help} (default {default:g})"
        parser.add_argument(flag, default=default, help=help, **kwargs)

    # No abbreviations: a prefix of one flag (--nx) must not run as another.
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    option(shared, "--alpha", float, 0.0, "latent-heat exponent")
    option(shared, "--gamma", float, 1.0, "latent-heat coefficient")
    option(shared, "--d", float, 1.0, "diffusivity")
    option(shared, "--k", float, 1.0, "conductivity")
    option(shared, "--h0", float, help="convective transfer coefficient")
    option(shared, "--tinf", float, help="bulk temperature coefficient")
    option(shared, "--t0", float, help="face temperature coefficient")
    option(shared, "--c", float, help="face flux coefficient")
    option(shared, "--out", str, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="stefan-kummer",
        description="Similarity solutions of one-phase melting with "
        "position-dependent latent heat",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        subparser = sub.add_parser(name, parents=[shared], help=help, allow_abbrev=False)
        subparser.set_defaults(run=handler)
        return subparser

    command("solve", _cmd_solve, "solve one problem")

    sweep = command("sweep", _cmd_sweep, "front coefficient sweep")
    option(sweep, "--vary", str, choices=("h0", "tinf", "alpha"))
    option(sweep, "--values", str, help="comma-separated ascending grid")
    option(sweep, "--include-limit", bool, False,
           "append the large-h0 limit coefficient column")

    field = command("field", _cmd_field, "temperature field grid")
    option(field, "--xmax", float, help="largest x of the grid (default 1.2 s(tmax))")
    option(field, "--tmax", float, 1.0, "last time of the grid")
    option(field, "--nx", int, 50, "grid points in x")
    option(field, "--nt", int, 50, "grid times")

    equiv = command("equiv", _cmd_equiv, "boundary-family conversion report")
    option(equiv, "--to", str, choices=("temperature", "flux", "convective"))

    verify = command("verify", _cmd_verify, "cross-validate against the enthalpy oracle")
    option(verify, "--nx-oracle", int, 2000, "oracle grid cells")
    option(verify, "--t-end", float, 1.0, "end time of the oracle run")
    option(verify, "--tol", float, 1e-2,
           "front error tolerance; the field tolerance is twice it")
    option(verify, "--domain-length", float,
           help="oracle domain length (default 4 s(t_end))")

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
        return args.run(args)
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
