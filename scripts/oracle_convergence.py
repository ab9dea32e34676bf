#!/usr/bin/env python3
"""Grid-refinement study of the enthalpy oracle against the closed form.

Prints front and field errors versus grid resolution for the three
boundary families, over compare_to_closed_form's default window
[0.1 t_end, t_end]; this is where the 1% front / 2% field verification
tolerances come from.  The oracle's step follows its front (about 0.2
cells per step), so refining nx refines dx and dt together; the step
count and the total Newton iterations show the cost, and `secs` times the
oracle run and the comparison (the closed form is solved once per case,
and the oracle's warm start reads it).

Usage: python scripts/oracle_convergence.py [t_end]
"""

import sys
import time

from stefan_kummer import (
    Convective,
    Flux,
    OracleConfig,
    ProblemSpec,
    Temperature,
    compare_to_closed_form,
    run_oracle,
    solve_front,
)

CASES = [
    ("convective", ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))),
    ("temperature", ProblemSpec(alpha=0.4, boundary=Temperature(t0=1.0))),
    ("flux", ProblemSpec(alpha=2.0, boundary=Flux(c=1.0))),
]


def main():
    t_end = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    print(f"t_end={t_end}, comparison window [0.1 t_end, t_end]")
    print(f"{'case':>12} {'nx':>6} {'front_err':>10} {'field_err':>10} "
          f"{'drift':>9} {'steps':>6} {'newton':>7} {'secs':>6}")
    for name, problem in CASES:
        sol = solve_front(problem)
        length = 4.0 * sol.front_position(t_end)
        for nx in (125, 250, 500, 1000, 2000):
            cfg = OracleConfig(domain_length=length, t_end=t_end, nx=nx)
            start = time.monotonic()
            result = run_oracle(problem, cfg, sol)
            report = compare_to_closed_form(result, sol)
            print(f"{name:>12} {nx:>6} {report.max_front_err:>10.2e} "
                  f"{report.max_field_err:>10.2e} "
                  f"{result.energy_balance_drift:>9.1e} "
                  f"{result.n_steps:>6} {result.newton_iterations:>7} "
                  f"{time.monotonic() - start:>6.2f}")


if __name__ == "__main__":
    main()
