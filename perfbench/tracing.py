"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces every function named in a ``stefan_kummer``
module's ``__all__`` (and the public methods of ``SimilaritySolution``, and
``cli.main``, which the benchmark calls) by a wrapper that records one
span per call.  The wrapper goes wherever the function is bound, so a
call through ``from .kummer import kummer_m`` in another module is traced
too, and a function exported later is traced without a change here.
``uninstall`` puts the originals back.

Spans live in flat arrays (name id, parent span, op index, start and end
in ns) and are written out with ``save`` after the run.  Self time is a
span's duration minus its children's: calls are nested in one thread, so
children never overlap.  ``kummer_m`` spans are named by the sign of z.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "stefan_kummer"
OP = "bench.op"
KUMMER_POS = "kummer.kummer_m[z>=0]"
KUMMER_NEG = "kummer.kummer_m[z<0]"
SOLVE = "stefan.solve_front"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = -1
        self.iterations: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self, index: int) -> int:
        self.current_op = index
        return self.open(self._id(OP))

    def _wrap(self, fn, name: str):
        if name == "kummer.kummer_m":
            pos, neg = self._id(KUMMER_POS), self._id(KUMMER_NEG)

            def pick(args, kwargs):
                z = args[2] if len(args) > 2 else kwargs["z"]
                return neg if z < 0.0 else pos
        else:
            nid = self._id(name)

            def pick(args, kwargs):
                return nid

        on_result = self.iterations.append if name == SOLVE else None
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(pick(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if on_result is not None:
                on_result(result.solver_report.iterations)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        cli = sys.modules[PACKAGE + ".cli"]
        wrappers[cli.main] = self._wrap(cli.main, "cli.main")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        solution = sys.modules[PACKAGE + ".stefan"].SimilaritySolution
        for attr, value in list(vars(solution).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self._patch(solution, attr,
                            self._wrap(value, f"stefan.SimilaritySolution.{attr}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start_ns=np.asarray(self.start), end_ns=np.asarray(self.end))

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name call counts, inclusive and self ns, from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        import numpy as np

        names = np.asarray(tracer.name_id, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        dur = np.asarray(tracer.end, dtype=np.int64) - np.asarray(tracer.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        n_names = len(tracer.names)
        self.table = {
            name: (int(count), float(incl), float(own))
            for name, count, incl, own in zip(
                tracer.names,
                np.bincount(names, minlength=n_names),
                np.bincount(names, weights=dur, minlength=n_names),
                np.bincount(names, weights=self_ns, minlength=n_names),
            )
        }
        self.iterations = list(tracer.iterations)
        # kummer_m calls made under a solve_front call, at any depth.
        ids = {name: i for i, name in enumerate(tracer.names)}
        solve = ids.get(SOLVE, -1)
        kummer = np.isin(names, [ids.get(KUMMER_POS, -1), ids.get(KUMMER_NEG, -1)])
        cur = parent[kummer]
        found = np.zeros(cur.size, dtype=bool)
        while True:
            live = (cur >= 0) & ~found
            if not live.any():
                break
            found[live] = names[cur[live]] == solve
            step = live & ~found
            cur[step] = parent[cur[step]]
        self.kummer_under_solve = int(found.sum())

    def count(self, *names: str) -> int:
        return sum(self.table.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl_ns(self, *names: str) -> float:
        return sum(self.table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_ns(self, *names: str) -> float:
        return sum(self.table.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self_ns(self, layer: str) -> float:
        return sum(row[2] for name, row in self.table.items()
                   if name.partition(".")[0] == layer)
