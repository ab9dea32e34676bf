"""One set-up sample, in a fresh interpreter.

Prints a JSON line {"import_s": ..., "setup_s": ..., "kernel_s": ...}: the
wall time from just before ``import stefan_kummer`` to the end of the
import, and to the end of the workload's first operation, then the
workload's host kernel time (``hostref.py``) measured right after.  The
plan is built before the clock starts, from the standard library alone.

Usage: python3 perfbench/setup_child.py <workload> <seed> <out_dir>
"""

import json
import sys
import time
from pathlib import Path

import hostref
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    first = workloads.plan(workload, seed)[0]
    sys.path.insert(0, str(SRC))
    early = [m for m in ("numpy", "scipy", "mpmath") if m in sys.modules]
    if early:
        sys.exit(f"imported before stefan_kummer: {early}")
    start = time.perf_counter()
    import stefan_kummer as sk
    from stefan_kummer import cli

    imported = time.perf_counter()
    workloads.bind(first, sk, cli, out_dir)()
    done = time.perf_counter()
    kernel_s = hostref.kernel_seconds(hostref.kernel(workloads.HOST_KERNEL[workload]))
    print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                      "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()
