"""Spans around calls into the package, recorded from the benchmark's side.

`install` replaces public functions of the package's modules with wrappers
that record a span per call: name, start, end, the enclosing span and the
workload operation it belongs to. The wrappers are set as module attributes,
so calls the package makes inside a module (solver calling `hilbert.apply`,
optics calling its own `apply_element`) are seen too. The package itself is
not changed.

A layer's self time is its spans' duration minus the part covered by spans
nested in them. Totals are kept for every call; full span records are kept in
memory only while `keep` is set (the workload keeps the first round) and are
written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import cheshire
from cheshire import hilbert, optics, solver

TRACED = {
    "hilbert": ("apply", "inner", "make_ket", "superpose", "ket_from_dense"),
    "scenarios": ("build_pair", "expected_pattern"),
    "weakval": ("weak_value_report", "weak_value", "pointer_shift"),
    "solver": ("assemble", "solve_post", "verify"),
    "optics": ("parse_circuit", "propagate", "apply_element", "run_exact",
               "effective_postselection", "calibrate_postselection", "run_monte_carlo"),
}


def _photons_of_system(args, kwargs) -> str:
    return f"n{args[0].pre.convention.n_photons}"


def _photons_of_pair(args, kwargs) -> str:
    return f"n{args[1].n_photons}"


def _shots(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["shots"]


# Calls whose durations are also kept per size, keyed by this tag.
TAGS = {
    "solver.solve_post": _photons_of_system,
    "weakval.pointer_shift": _photons_of_pair,
    "optics.run_monte_carlo": _shots,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [span id, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.tagged: dict[tuple[str, object], list[float]] = defaultdict(list)
        self.spans: list[tuple] = []  # (id, parent id, operation, name, start, end)
        self.keep = True
        self.op = -1
        self._ids = 0

    def wrap(self, name: str, fn, tag=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [self._ids, time.perf_counter(), 0.0]
            self._ids += 1
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][2] += duration
                if tag is not None:
                    self.tagged[(name, tag(args, kwargs))].append(duration)
                if self.keep:
                    self.spans.append((frame[0], parent, self.op, name, frame[1], end))

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Run fn() as one top-level span, e.g. a whole workload operation."""
        return self.wrap(name, fn)()

    def tagged_ms_p50(self, name: str, tag) -> float:
        durations = self.tagged.get((name, tag))
        return statistics.median(durations) * 1e3 if durations else 0.0


def install(tracer: Tracer) -> None:
    for module_name, names in TRACED.items():
        module = getattr(cheshire, module_name)
        for fn_name in names:
            name = f"{module_name}.{fn_name}"
            original = getattr(module, fn_name)
            wrapped = tracer.wrap(name, original, TAGS.get(name))
            setattr(module, fn_name, wrapped)
            if getattr(cheshire, fn_name, None) is original:
                setattr(cheshire, fn_name, wrapped)
    for cls in (hilbert.Ket, hilbert.Operator):
        cls.to_dense = tracer.wrap("hilbert.to_dense", cls.to_dense)
    solver.WeakValueTarget.__init__ = tracer.wrap("solver.WeakValueTarget", solver.WeakValueTarget.__init__)


# ---------------------------------------------------------------------------
# per-layer metrics: name -> unit. A layer the workload does not call reads 0.

SELF_MS = (
    "hilbert.apply", "hilbert.inner", "hilbert.make_ket", "hilbert.superpose",
    "hilbert.ket_from_dense", "hilbert.to_dense",
    "scenarios.build_pair", "scenarios.expected_pattern",
    "weakval.weak_value_report", "weakval.weak_value", "weakval.pointer_shift",
    "solver.WeakValueTarget", "solver.assemble", "solver.solve_post", "solver.verify",
    "optics.parse_circuit", "optics.propagate", "optics.run_exact",
    "optics.effective_postselection", "optics.calibrate_postselection",
)
CALLS = ("hilbert.apply", "weakval.weak_value_report", "optics.apply_element")
SIZED = (
    [("weakval.pointer_shift", f"n{n}") for n in range(2, 6)]
    + [("solver.solve_post", f"n{n}") for n in range(2, 7)]
)
CLI_SUBCOMMANDS = ("scenario", "solve", "circuit", "pointer")

LAYER_UNITS = {f"{name}.self_ms": "ms" for name in SELF_MS}
LAYER_UNITS |= {f"{name}.calls": "count" for name in CALLS}
LAYER_UNITS |= {f"{name}.{tag}.ms_p50": "ms" for name, tag in SIZED}
LAYER_UNITS |= {
    "optics.run_monte_carlo.s1e7.ms_p50": "ms",
    "optics.run_monte_carlo.shots_per_s": "1/s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
}
LAYER_UNITS |= {f"cli.{sub}.ms_p50": "ms" for sub in CLI_SUBCOMMANDS}
LAYER_UNITS |= {"trace.exceptions": "count", "trace.ops_per_s": "1/s", "trace.op_ms_p50": "ms"}


def layer_values(tracer: Tracer, completed: int) -> dict[str, float]:
    """Per-operation self times and call counts, per-size medians and MC throughput."""
    values = {f"{name}.self_ms": tracer.self_s.get(name, 0.0) * 1e3 / completed for name in SELF_MS}
    values |= {f"{name}.calls": tracer.calls.get(name, 0) / completed for name in CALLS}
    values |= {f"{name}.{tag}.ms_p50": tracer.tagged_ms_p50(name, tag) for name, tag in SIZED}
    values["optics.run_monte_carlo.s1e7.ms_p50"] = tracer.tagged_ms_p50("optics.run_monte_carlo", 10_000_000)
    shots = time_s = 0.0
    for (name, tag), durations in tracer.tagged.items():
        if name == "optics.run_monte_carlo":
            shots += tag * len(durations)
            time_s += sum(durations)
    values["optics.run_monte_carlo.shots_per_s"] = shots / time_s if time_s else 0.0
    values["trace.exceptions"] = float(sum(tracer.errors.values()))
    return values
