#!/usr/bin/env python3
"""Reference figures for README.md: single-layer timings on fixed inputs.

Usage (from the repository root): python3 perfbench/reference.py

Prints the median of several timed repeats for kummer_m at z = -1 and
z = -50, solve_front on the FIG9 case (alpha 0.4, h0 0.5, t_inf 1) with its
Newton iterations, one temperature point, and the explicit oracle on the
FIG9 case at nx = 250 and t_end = 0.25, with its front error.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stefan_kummer import (  # noqa: E402
    Convective,
    OracleConfig,
    ProblemSpec,
    compare_to_closed_form,
    kummer_m,
    run_oracle,
    solve_front,
)


def median_us(fn, inner: int, repeats: int = 15) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples) * 1e6


def main() -> None:
    fig9 = ProblemSpec(alpha=0.4, boundary=Convective(h0=0.5, t_inf=1.0))
    sol = solve_front(fig9)
    print(f"kummer_m(-0.2, 0.5, -1)   {median_us(lambda: kummer_m(-0.2, 0.5, -1.0), 2000):8.2f} us")
    print(f"kummer_m(-0.2, 0.5, -50)  {median_us(lambda: kummer_m(-0.2, 0.5, -50.0), 500):8.2f} us")
    print(f"solve_front FIG9          {median_us(lambda: solve_front(fig9), 50):8.1f} us, "
          f"{sol.solver_report.iterations} iterations")
    x = 0.5 * sol.front_position(1.0)
    print(f"temperature point         {median_us(lambda: sol.temperature(x, 1.0), 2000):8.2f} us")
    t_end = 0.25
    cfg = OracleConfig(domain_length=4.0 * sol.front_position(t_end), t_end=t_end, nx=250)
    start = time.perf_counter()
    result = run_oracle(fig9, cfg)
    seconds = time.perf_counter() - start
    report = compare_to_closed_form(result, sol, t_window=(0.1 * t_end, t_end))
    print(f"run_oracle FIG9 nx=250    {seconds:8.3f} s, front error {report.max_front_err:.2g}")


if __name__ == "__main__":
    main()
