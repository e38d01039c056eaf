"""Span tracer for the traced benchmark run.

The tracer lives outside the package.  It replaces, in the namespaces where
rydqudit's modules look them up, the module-level public functions that
callers reach across a layer boundary, plus ``numpy.linalg.eigh``.  Every
call then records one span: name, parent span, start and end.  Spans stay in
memory and are written out once, when the run ends.

The layer of a span is the module that defines the function.  An ``eigh``
call and a core Hamiltonian build are charged to the layer of their parent
span, which is how the per-layer counts split by calling layer.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("core", "compiler", "propagator", "metrics", "fullspace", "cli")

# Same-module calls stay inside their caller's span, except for these: the
# per-layer metrics count or time them on their own.  metrics.infidelity is
# listed because propagator.extract_gate imports it from the module at call
# time.
OWN_FUNCTIONS = {
    "compiler": ("effective_hamiltonian", "fold_pulse"),
    "propagator": ("schedule_operator",),
    "metrics": ("infidelity",),
    "fullspace": ("build_full_hamiltonian", "dressed_frame"),
    "cli": ("trajectory_to_csv", "write_atomic"),
}

CORE_BUILDS = frozenset({"core.build_total", "core.build_bare", "core.build_control"})

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _propagated(schedule) -> int:
    return sum(1 for p in schedule.pulses if p.T != 0.0)


def _schedule_length(args, kwargs, result):
    pulses = getattr(result, "pulses", None)
    return None if pulses is None else len(pulses)


# What a span records besides its times, by span name.
INSPECTORS = {
    "eigh": lambda a, k, r: np.shape(_arg(a, k, 0, "a"))[-1],
    "compiler.fold_pulse": lambda a, k, r: len(r[0]) > 0,
    "propagator.schedule_operator": lambda a, k, r: _propagated(_arg(a, k, 0, "schedule")),
    "propagator.run_schedule": lambda a, k, r: (_propagated(_arg(a, k, 1, "schedule")),
                                                len(r.times)),
    "propagator.evolve_pulse": lambda a, k, r: int(_arg(a, k, 1, "pulse").T != 0.0),
    "cli.schedule_to_json": lambda a, k, r: len(r.encode()),
    "cli.trajectory_to_csv": lambda a, k, r: len(r.encode()),
    "cli.write_atomic": lambda a, k, r: len(_arg(a, k, 1, "text").encode()),
}


def _layer(name: str) -> str:
    return name.partition(".")[0]


class Tracer:
    """Installs the wrappers for one op at a time and keeps every span."""

    def __init__(self, package) -> None:
        self.spans: list[list] = []     # [op, name, parent index, start ns, end ns, info]
        self._stack: list[int] = []
        self._op = -1
        self._patches = []              # (holder, attribute, original, wrapper)
        for holder, attr, fn, name in self._targets(package):
            self._patches.append((holder, attr, fn, self._wrap(fn, name)))
        self._patches.append((np.linalg, "eigh", np.linalg.eigh,
                              self._wrap(np.linalg.eigh, "eigh")))

    @staticmethod
    def _targets(package):
        prefix = package.__name__ + "."
        holders = [package] + [getattr(package, layer) for layer in LAYERS]
        for holder in holders:
            holder_layer = holder.__name__.rpartition(".")[2]
            for attr, fn in vars(holder).items():
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith(prefix):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if (holder is package or home != holder_layer
                        or attr in OWN_FUNCTIONS.get(home, ())):
                    yield holder, attr, fn, f"{home}.{fn.__name__}"

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        inspect = INSPECTORS.get(name)
        if inspect is None and name.startswith("compiler."):
            inspect = _schedule_length
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self._op, name, stack[-1], clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if inspect is not None:
                rec[5] = inspect(args, kwargs, result)
            return result

        return wrapper

    def begin(self, op: int) -> None:
        """Open the root span of op number ``op`` and install the wrappers."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([op, "bench.op", -1, time.perf_counter_ns(), 0, None])
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def end(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)
        self.spans[self._stack.pop()][4] = time.perf_counter_ns()

    def op_metrics(self) -> list[dict]:
        """Per-layer figures of each traced op, computed from its spans."""
        per_op: dict[int, dict] = {}
        child_ns: dict[int, int] = defaultdict(int)
        for rec in self.spans:
            if rec[2] >= 0:
                child_ns[rec[2]] += rec[4] - rec[3]
        for i, (op, name, parent, start, end, info) in enumerate(self.spans):
            v = per_op.setdefault(op, defaultdict(float))
            dur = (end - start) / 1e9
            own = dur - child_ns[i] / 1e9
            if parent < 0:
                v["trace.op_s"] = dur
                continue
            caller = _layer(self.spans[parent][1])
            v["trace.layer_s"] += own
            if name == "eigh":
                v[f"{caller}.eigh_calls"] += 1
                v[f"{caller}.eigh_s"] += dur
                if caller == "fullspace":
                    v["fullspace.eigh_dim"] = max(v["fullspace.eigh_dim"], info)
                continue
            layer = _layer(name)
            v[f"{layer}.self_s"] += own
            if name in CORE_BUILDS and caller != "core":
                v[f"core.builds.{caller}"] += 1
            if name == "compiler.effective_hamiltonian":
                v["compiler.effective_advances"] += 1
            elif name == "compiler.fold_pulse":
                v["trace.folds"] += 1
                v["trace.folds_emitting"] += info
            elif layer == "compiler" and caller != "compiler" and info is not None:
                v["compiler.pulses_emitted"] += info
            elif name == "propagator.run_schedule":
                v["propagator.pulses_propagated"] += info[0]
                v["propagator.samples"] += info[1]
            elif name in ("propagator.schedule_operator", "propagator.evolve_pulse"):
                v["propagator.pulses_propagated"] += info
            elif name == "cli.schedule_to_json":
                v["cli.schedule_write_s"] += dur
                v["cli.schedule_bytes"] += info
            elif name == "cli.schedule_from_json":
                v["cli.schedule_read_s"] += dur
            elif name in ("cli.trajectory_to_csv", "cli.write_atomic"):
                v["cli.csv_write_s"] += dur
                if name == "cli.trajectory_to_csv":
                    v["cli.csv_bytes"] += info
            elif name == "fullspace.build_full_hamiltonian":
                v["fullspace.hamiltonian_s"] += dur
            elif name == "fullspace.dressed_frame":
                v["fullspace.frame_s"] += dur
        out = []
        for v in per_op.values():
            v["core.build_s"] = v["core.self_s"]
            v["compiler.fold_yield"] = (v["trace.folds_emitting"] / v["trace.folds"]
                                        if v["trace.folds"] else 0.0)
            v["trace.layer_share"] = v["trace.layer_s"] / v["trace.op_s"]
            out.append(v)
        return out

    def summary(self, names) -> dict:
        """Median over traced ops of each named per-layer metric.

        A metric that no traced op recorded reads 0.
        """
        ops = self.op_metrics()
        return {k: statistics.median(float(v.get(k, 0.0)) for v in ops) for k in names}

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tinfo\n")
            for i, (op, name, parent, start, end, info) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{name}\t{start}\t{end}\t"
                         f"{'' if info is None else info}\n")
