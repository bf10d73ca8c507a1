"""Spans around the public functions of the qqft layers, recorded from outside.

`Tracer.install()` replaces every public function of the traced modules, under
every name that binds it in a loaded `qqft.*` module (so `from x import f`
bindings are caught too), with a wrapper that records a span; `uninstall()`
puts the originals back.  `NoiseModel.delta` is only counted: it runs once per
gate per realization and a span there would dominate the trace.

A span is [name, start, end, thread, parent, realization id].  Each thread
keeps its own stack; a thread whose stack is empty (a sweep's pool worker)
takes the innermost open sweep span as its parent.  Spans stay in memory
until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

LAYERS = ("circuit", "engine", "protocol", "haldane", "poincare", "cli")
SWEEPS = ("haldane.noise_sweep_gap_width", "haldane.phase_diagram",
          "poincare.noise_sweep_symmetry")
COMPILERS = ("circuit.build_radix2_qqft", "circuit.build_generic_qqft")
STATS = ("poincare.s_lorentz", "poincare.s_total")

NAME, START, END, THREAD, PARENT, RID = range(6)
_MARK = "__perfbench_original__"


def _qqft_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qqft" or name.startswith("qqft."))]


def public_functions(module):
    """Public functions defined in `module` itself (lru_cache wrappers too)."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def leftover_wrappers():
    """(module, name) of every traced wrapper still bound in a qqft module."""
    found = [(m.__name__, name) for m in _qqft_modules()
             for name, obj in vars(m).items() if hasattr(obj, _MARK)]
    engine = sys.modules.get("qqft.engine")
    if engine is not None and hasattr(engine.NoiseModel.delta, _MARK):
        found.append(("qqft.engine", "NoiseModel.delta"))
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.compiled = []          # (span, sequence) of cold compiles
        self.sweep_workers = {}     # id(sweep span) -> workers argument
        self._delta_cells = []      # one [count] per thread, summed on read
        self._local = threading.local()
        self._sweep_root = None
        self._noise_cls = None
        self._patched = []          # (namespace, attribute, original)
        self.sweep_start = 0.0
        self.sweep_delta = 0

    # -- installation -----------------------------------------------------

    def install(self):
        import qqft.cli  # noqa: F401  (loads every traced layer)
        modules = _qqft_modules()
        for layer in LAYERS:
            module = sys.modules[f"qqft.{layer}"]
            for fname, fn in list(public_functions(module)):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, obj in list(vars(m).items()):
                        if obj is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        noise_cls = self._noise_cls = sys.modules["qqft.engine"].NoiseModel
        delta = noise_cls.__dict__["delta"]
        tracer = self

        @functools.wraps(delta)
        def counted(noise, step):
            tracer._delta_cell()[0] += 1
            return delta(noise, step)

        setattr(counted, _MARK, delta)
        self._patched.append((noise_cls, "delta", delta))
        noise_cls.delta = counted

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def delta_calls(self) -> int:
        return sum(cell[0] for cell in self._delta_cells)

    def mark_sweep(self):
        """Start of the timed sweep: later spans and draws are per realization."""
        self.sweep_start = time.perf_counter()
        self.sweep_delta = self.delta_calls()

    def _delta_cell(self):
        cell = getattr(self._local, "delta", None)
        if cell is None:
            cell = self._local.delta = [0]
            self._delta_cells.append(cell)
        return cell

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _realization_id(self, args, kwargs):
        for value in itertools.chain(args, kwargs.values()):
            if isinstance(value, self._noise_cls):
                return value.stream_id
        return None

    def _wrap(self, name, fn):
        tracer = self
        is_sweep = name in SWEEPS
        cold_probe = getattr(fn, "cache_info", None) if name in COMPILERS else None
        signature = inspect.signature(fn) if is_sweep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._sweep_root
            span = [name, 0.0, 0.0, threading.get_ident(), parent,
                    tracer._realization_id(args, kwargs)]
            tracer.spans.append(span)
            stack.append(span)
            outer_root = tracer._sweep_root
            if is_sweep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.sweep_workers[id(span)] = bound.arguments["workers"]
                tracer._sweep_root = span
            misses = cold_probe().misses if cold_probe else 0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if is_sweep:
                    tracer._sweep_root = outer_root
            if cold_probe and cold_probe().misses > misses:
                tracer.compiled.append((span, result))
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        threads = {}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "thread": threads.setdefault(s[THREAD], len(threads)),
                    "parent": None if s[PARENT] is None else ids[id(s[PARENT])],
                    "realization": s[RID],
                }) + "\n")


def _covered(intervals):
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer, realizations, cli_calls, bytes_written):
    """Per-layer metrics of the timed sweep (spans from `tracer.mark_sweep()` on).

    `.calls` and `.self_s` are per realization of the sweep, where self time
    is a span's duration minus the time its children cover; `.s` is the
    median inclusive duration of one call; compile figures come from the
    cold compiles, wherever they happened.
    """
    spans = tracer.spans
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(id(s[PARENT]), []).append(s)
    sweep = [s for s in spans if s[START] >= tracer.sweep_start]

    def duration(s):
        return s[END] - s[START]

    def self_time(s):
        kids = children.get(id(s), ())
        return duration(s) - _covered([(c[START], c[END]) for c in kids])

    def calls(name):
        return sum(1 for s in sweep if s[NAME] == name) / realizations

    def self_s(name):
        return sum(self_time(s) for s in sweep if s[NAME] == name) / realizations

    def median_s(name):
        durations = [duration(s) for s in spans if s[NAME] == name]
        return statistics.median(durations) if durations else 0.0

    # busy: time the sweep's direct children (its pool workers' top spans)
    # ran, against the time `workers` threads had for the whole sweep
    busy = offered = 0.0
    for s in sweep:
        if s[NAME] in SWEEPS:
            busy += sum(duration(c) for c in children.get(id(s), ()))
            offered += tracer.sweep_workers[id(s)] * duration(s)

    metrics = {
        "circuit.compile_s": sum(duration(s) for s, _ in tracer.compiled),
        "circuit.depth": sum(seq.depth for _, seq in tracer.compiled),
        "circuit.gates": sum(len(seq.gates) for _, seq in tracer.compiled),
        "engine.delta.calls":
            (tracer.delta_calls() - tracer.sweep_delta) / realizations,
        "sweep.busy_frac": busy / offered if offered else 0.0,
        "poincare.stats_s": sum(self_s(n) for n in STATS),
        "poincare.build_dispersion.s": median_s("poincare.build_dispersion"),
        "poincare.equivalence_classes.s": median_s("poincare.equivalence_classes"),
        "engine.diagonal_momentum_evolution.s":
            median_s("engine.diagonal_momentum_evolution"),
        "protocol.build_protocol_unitary.s":
            median_s("protocol.build_protocol_unitary"),
        "poincare.greens_function.s": median_s("poincare.greens_function"),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written / cli_calls,
    }
    for name in ("engine.apply_noisy_sequence", "engine.diagonal_momentum_evolution",
                 "engine.tensor_product"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("protocol.build_protocol_unitary", "protocol.extract_spectrum",
                 "haldane.bott_index", "poincare.greens_function"):
        metrics[f"{name}.self_s"] = self_s(name)
    return metrics
