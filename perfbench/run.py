#!/usr/bin/env python3
"""Benchmark of stefan_kummer: front solve, field evaluation and oracle check.

Usage (from the repository root):

    python3 perfbench/run.py --workload front-solve --seed 1 --seconds 30 --trace 0

One process, one thread.  A run repeats whole passes over the seeded op
list of its workload until ``--seconds`` have gone by, checks every
output against computations made apart from the program (``checks.py``),
and prints one JSON object as its last line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import hostref
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# Each keeps at least ten samples beyond it in a 30 s run at half the host
# speed.  On front-solve, p99 and above fall on the one or two costliest
# limit studies of the seed, and move with it (README.md).
TAIL_PERCENTILE = {"front-solve": 97.5, "field-eval": 97.5, "oracle-verify": 90.0}
# Spans held in memory by a traced run (about 28 bytes each).
MAX_SPANS = 500_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int, out_dir: Path) -> list[dict]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(out_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def import_package():
    sys.path.insert(0, str(SRC))
    early = [m for m in ("numpy", "scipy", "mpmath") if m in sys.modules]
    if early:
        sys.exit(f"imported before stefan_kummer: {early}")
    import stefan_kummer as sk
    from stefan_kummer import cli

    if Path(sk.__file__).resolve().parent != SRC / "stefan_kummer":
        sys.exit(f"stefan_kummer imported from {sk.__file__}, not from {SRC}")
    return sk, cli


class Outputs:
    """What each op returned, kept from its first success; later passes
    must return the same (for command-line ops, the same file bytes)."""

    def __init__(self, ops, out_dir: Path):
        self.paths = [workloads.output_path(out_dir, op) if op["kind"] in ("field", "verify")
                      else None for op in ops]
        self.records: list = [None] * len(ops)
        self.mismatches: list[int] = []
        self.out_bytes = 0
        self.observed = 0

    def observe(self, i: int, result) -> None:
        self.observed += 1
        path = self.paths[i]
        if path is not None:
            data = path.read_bytes()
            self.out_bytes += len(data)
            result = (result, hashlib.blake2b(data).hexdigest())
        if self.records[i] is None:
            self.records[i] = result
        elif self.records[i] != result:
            self.mismatches.append(i)


class Tally:
    """Start and wall time of every op run, and which ones succeeded."""

    def __init__(self):
        self.starts = array("d")
        self.elapsed = array("d")
        self.succeeded = array("b")
        self.passes = 0
        self.failures: Counter = Counter()
        self.failure_text: dict = {}

    @property
    def ok(self) -> int:
        return sum(self.succeeded)

    @property
    def failed(self) -> int:
        return len(self.succeeded) - self.ok

    def latencies(self, scale=None) -> list[float]:
        """Wall times of the ops that succeeded, scaled by ``scale(start)``."""
        return [e * (scale(s) if scale else 1.0)
                for s, e, ok in zip(self.starts, self.elapsed, self.succeeded) if ok]

    def busy_s(self, scale=None) -> float:
        return sum(e * (scale(s) if scale else 1.0) for s, e in zip(self.starts, self.elapsed))


def run_pass(ops, calls, outputs: Outputs, tally: Tally, host, tracer=None) -> None:
    """One pass over ``calls``; with a tracer, each op is a span.  The host
    kernel is sampled between ops, outside their timing."""
    clock = time.perf_counter
    for i, call in enumerate(calls):
        span = tracer.begin_op(i) if tracer else None
        start = clock()
        try:
            result = call()
        except Exception as exc:  # an op that raises counts as failed
            result, ok = exc, False
        else:
            ok = True
        elapsed = clock() - start
        if tracer:
            tracer.close(span)
        tally.starts.append(start)
        tally.elapsed.append(elapsed)
        tally.succeeded.append(ok)
        if ok:
            outputs.observe(i, result)
        else:
            key = (ops[i]["kind"], type(result).__name__)
            tally.failures[key] += 1
            tally.failure_text.setdefault(key, str(result))
        host.maybe_sample()
    tally.passes += 1


def run_untraced(ops, calls, outputs: Outputs, seconds: float, host) -> Tally:
    """Whole passes until ``seconds`` have gone by."""
    tally = Tally()
    began = time.perf_counter()
    while True:
        run_pass(ops, calls, outputs, tally, host)
        if time.perf_counter() - began >= seconds:
            return tally


def run_traced(ops, calls, outputs: Outputs, seconds: float, host, tracer):
    """Untraced and traced passes in turn until ``seconds`` have gone by,
    so both see the same host conditions; traced passes stop once
    MAX_SPANS spans are held."""
    untraced, traced = Tally(), Tally()
    began = time.perf_counter()
    while True:
        run_pass(ops, calls, outputs, untraced, host)
        if len(tracer.start) < MAX_SPANS:
            tracer.install()
            try:
                run_pass(ops, calls, outputs, traced, host, tracer)
            finally:
                tracer.uninstall()
        if time.perf_counter() - began >= seconds:
            return untraced, traced


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def check_outputs(workload: str, seed: int, ops, outputs: Outputs, sk) -> list[str]:
    import random

    import checks

    problems = [f"op {i} ({ops[i]['kind']}) returned different outputs across passes"
                for i in sorted(set(outputs.mismatches))]
    for i, (op, record) in enumerate(zip(ops, outputs.records)):
        if record is None:
            continue  # failed every time: counted in "failed"
        try:
            kind = op["kind"]
            if workload == "front-solve":
                checks.check_front_solve(op, record, sk)
            elif kind == "field":
                checks.check_field_csv(op, outputs.paths[i].read_text(encoding="utf-8"),
                                       random.Random(seed * 1000 + i))
            elif kind == "equivalence_report":
                checks.check_equivalence_report(op, record, sk)
            elif kind == "field_gap":
                xs, ts = workloads.gap_grid(op)
                checks.check_field_gap(op, record, xs, ts, sk)
            else:
                code, _ = record
                payload = json.loads(outputs.paths[i].read_text(encoding="utf-8"))
                checks.check_verify(op, code, payload)
        except checks.CheckFailure as exc:
            problems.append(f"op {i}: {exc}")
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(summary, ops_traced: int, op_ns: float, tally_untraced: Tally,
                  tally_traced: Tally, out_bytes_per_op: float, setup, host_us: float) -> dict:
    import tracing

    s = summary

    def per_call(ns: float, calls: int, scale: float) -> float:
        return ns / calls / scale if calls else 0.0

    def share(layer: str) -> float:
        return s.layer_self_ns(layer) / op_ns

    maps = ("equivalence.convective_to_temperature", "equivalence.convective_to_flux",
            "equivalence.temperature_to_convective", "equivalence.flux_to_convective",
            "equivalence.flux_threshold")
    n_pos, n_neg = s.count(tracing.KUMMER_POS), s.count(tracing.KUMMER_NEG)
    n_solve = s.count(tracing.SOLVE)
    temp = "stefan.SimilaritySolution.temperature"
    return {
        "kummer.m_calls_per_op": metric((n_pos + n_neg) / ops_traced, "count"),
        "kummer.m_pos_us": metric(per_call(s.self_ns(tracing.KUMMER_POS), n_pos, 1e3), "us"),
        "kummer.m_neg_us": metric(per_call(s.self_ns(tracing.KUMMER_NEG), n_neg, 1e3), "us"),
        "kummer.self_share": metric(share("kummer"), "frac"),
        "stefan.solve_us": metric(per_call(s.incl_ns(tracing.SOLVE), n_solve, 1e3), "us"),
        "stefan.newton_iters": metric(statistics.fmean(s.iterations) if s.iterations else 0.0,
                                      "count"),
        "stefan.m_calls_per_solve": metric(s.kummer_under_solve / n_solve if n_solve else 0.0,
                                           "count"),
        "stefan.temperature_us": metric(per_call(s.incl_ns(temp), s.count(temp), 1e3), "us"),
        "stefan.temperature_calls_per_op": metric(s.count(temp) / ops_traced, "count"),
        "stefan.self_share": metric(share("stefan"), "frac"),
        "equivalence.map_us": metric(per_call(s.incl_ns(*maps), s.count(*maps), 1e3), "us"),
        "equivalence.report_ms": metric(per_call(
            s.incl_ns("equivalence.equivalence_report"),
            s.count("equivalence.equivalence_report"), 1e6), "ms"),
        "equivalence.self_share": metric(share("equivalence"), "frac"),
        "limits.study_ms": metric(per_call(s.incl_ns("limits.run_limit_study"),
                                           s.count("limits.run_limit_study"), 1e6), "ms"),
        "limits.gap_ms": metric(per_call(s.incl_ns("limits.field_convergence_gap"),
                                         s.count("limits.field_convergence_gap"), 1e6), "ms"),
        "limits.self_share": metric(share("limits"), "frac"),
        "oracle.run_ms": metric(per_call(s.incl_ns("oracle.run_oracle"),
                                         s.count("oracle.run_oracle"), 1e6), "ms"),
        "oracle.compare_ms": metric(per_call(s.incl_ns("oracle.compare_to_closed_form"),
                                             s.count("oracle.compare_to_closed_form"), 1e6), "ms"),
        "oracle.self_share": metric(share("oracle"), "frac"),
        "cli.self_ms": metric(per_call(s.self_ns("cli.main"), s.count("cli.main"), 1e6), "ms"),
        "cli.out_bytes_per_op": metric(out_bytes_per_op, "count"),
        "cli.import_ms": metric(statistics.median(x["import_s"] for x in setup) * 1e3, "ms"),
        "cli.self_share": metric(share("cli"), "frac"),
        "bench.self_share": metric(share("bench"), "frac"),
        "bench.trace_overhead": metric(statistics.median(tally_traced.latencies())
                                       / statistics.median(tally_untraced.latencies()) - 1.0,
                                       "frac"),
        "bench.host_ref_us": metric(host_us, "us"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stefan_kummer" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'stefan_kummer'}", file=sys.stderr)
        return 2
    ops = workloads.plan(args.workload, args.seed)
    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    kind = workloads.HOST_KERNEL[args.workload]
    nominal_s = hostref.NOMINAL_US[kind] * 1e-6
    python_before = hostref.kernel_seconds(hostref.python_kernel, 15) * 1e6
    setup = measure_setup(args.workload, args.seed, out_dir)
    sk, cli = import_package()
    calls = [workloads.bind(op, sk, cli, out_dir) for op in ops]
    outputs = Outputs(ops, out_dir)
    outputs.observe(0, calls[0]())  # warm-up, untimed, as in the set-up probe

    host = hostref.HostSampler(kind)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced, traced = run_traced(ops, calls, outputs, args.seconds, host, tracer)
        parts = (untraced, traced)
    else:
        parts = (run_untraced(ops, calls, outputs, args.seconds, host),)
    host.sample()  # the last op's "after" sample
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    python_after = hostref.kernel_seconds(hostref.python_kernel, 15) * 1e6

    problems = check_outputs(args.workload, args.seed, ops, outputs, sk)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    failures, failure_text = Counter(), {}
    for part in parts:
        failures.update(part.failures)
        failure_text.update(part.failure_text)
    for (op_kind, error), count in sorted(failures.items()):
        print(f"failed: {count} x {op_kind} with {error}: {failure_text[op_kind, error]}",
              file=sys.stderr)

    ok = sum(part.ok for part in parts)
    failed = sum(part.failed for part in parts)
    print(f"host_ref_us (python kernel) before={python_before:.1f} after={python_after:.1f}; "
          f"{kind} kernel median during the run {host.median_us():.1f} "
          f"(nominal {hostref.NOMINAL_US[kind]:g})")
    print(f"passes={sum(part.passes for part in parts)} ops_per_pass={len(ops)} "
          f"attempted={ok + failed} failed={failed}")
    if args.trace:
        summary = tracer.summary()
        op_ns = summary.incl_ns(tracing.OP)
        metrics = layer_metrics(summary, traced.ok + traced.failed, op_ns, untraced, traced,
                                outputs.out_bytes / outputs.observed, setup,
                                statistics.median([python_before, python_after]))
        spans_path = OUT_ROOT / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        print(f"traced passes={traced.passes} spans={len(tracer.start)} -> {spans_path}")
        for name, (count, incl, own) in sorted(summary.table.items(), key=lambda r: -r[1][2]):
            if count:
                print(f"  {name:45s} calls={count:8d} self_share={own / op_ns:6.3f} "
                      f"incl_us/call={incl / count / 1e3:10.2f}")
    else:
        (tally,) = parts
        q = TAIL_PERCENTILE[args.workload]
        raw = tally.latencies()
        scaled = tally.latencies(host.scale)
        tail, beyond = percentile(scaled, q)
        setup_scaled = [x["setup_s"] * nominal_s / x["kernel_s"] for x in setup]
        print(f"op_tail_ms is p{q:g} of {len(scaled)} samples, {beyond} beyond it")
        print(f"unscaled: ok_ops_per_s={tally.ok / tally.busy_s():.6g} "
              f"op_p50_ms={statistics.median(raw) * 1e3:.6g} "
              f"op_tail_ms={percentile(raw, q)[0] * 1e3:.6g} "
              f"setup_s={statistics.median(x['setup_s'] for x in setup):.6g}")
        metrics = {
            "ok_ops_per_s": metric(tally.ok / tally.busy_s(host.scale), "1/s"),
            "op_p50_ms": metric(statistics.median(scaled) * 1e3, "ms"),
            "op_tail_ms": metric(tail * 1e3, "ms"),
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": ok + failed,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
