"""Per-layer wall-clock ledger, measured from outside the program.

A *layer* is a named set of public functions of ``repro``.  :class:`Ledger`
replaces each of them with a timing wrapper for the duration of a run and puts
the originals back afterwards; nothing inside ``src/`` knows it is measured.

* A module-level function is patched at every module attribute that binds
  it — the defining module and each module that did ``from ... import name``,
  the benchmark's own included — because that is the attribute its callers
  resolve
  (``repro.runtime.executor.simulate_streams``, not only
  ``repro.hardware.contention.simulate_streams``).
* A method is patched on its class and on every loaded subclass that overrides
  it (``Router.pick`` covers ``EarliestFinishRouter.pick`` and the rest).
* For a generator function each ``next()`` is one timed call.

Each wrapper counts calls and adds up total and *self* time: the wrapped
call's duration minus the time spent in nested wrapped calls.  The simulator
is single-threaded, so a layer's self time is time nothing else was doing, and
its share of a run bounds what speeding that layer up can save on that run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

#: Layer name -> the public functions that make it up, as ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "frontend": ("repro.frontend.loader:load",),
    "engine": ("repro.engine.engine:Engine.compile",),
    "passes": ("repro.engine.stages:apply_passes",),
    "core.dp": ("repro.core.dp_scheduler:IOSScheduler.optimize_block",),
    "core.endings": ("repro.core.endings:enumerate_endings",),
    "core.cost_model": ("repro.core.cost_model:CostModel.stage_latency",),
    "hardware.contention": ("repro.hardware.contention:simulate_streams",),
    "core.lowering": ("repro.core.lowering:lower_schedule",),
    "serve.traffic": ("repro.serve.traffic:TrafficGenerator.generate",),
    "serve.registry": (
        "repro.serve.registry:ScheduleRegistry.warmup",
        "repro.serve.registry:ScheduleRegistry.get_compiled",
    ),
    "serve.loop": ("repro.serve.service:InferenceService.run",),
    "serve.admission": (
        "repro.serve.admission:AdmissionPolicy.admit",
        "repro.serve.admission:AdmissionPolicy.preempts",
        "repro.serve.admission:AdmissionPolicy.order_key",
    ),
    "serve.predict": (
        "repro.serve.loop:LoopState.predicted_completion_ms",
        "repro.serve.loop:LoopState.predicted_execution_ms",
    ),
    "serve.batcher": (
        "repro.serve.batcher:BatchSizeSelector.select",
        "repro.serve.batcher:BatchSizeSelector.predicted_latency",
    ),
    "serve.fleet": ("repro.serve.fleet:Router.pick",),
    "serve.workers": ("repro.serve.workers:WorkerPool.dispatch",),
    "serve.autoscale": (
        "repro.serve.autoscale:Autoscaler.evaluate",
        "repro.serve.autoscale:Autoscaler.on_alert",
    ),
    "serve.report": ("repro.serve.metrics:build_report",),
    "obs.metrics": (
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Gauge.set",
        "repro.obs.metrics:Gauge.add",
        "repro.obs.metrics:Histogram.observe",
    ),
    "obs.timeseries": (
        "repro.obs.timeseries:TimeSeriesRegistry.advance",
        "repro.obs.timeseries:TimeSeriesRegistry.flush",
    ),
    "obs.alerts": ("repro.obs.alerts:AlertManager.evaluate",),
    "obs.trace": (
        "repro.obs.trace:Tracer.add_span",
        "repro.obs.trace:Tracer.instant",
        "repro.obs.trace:Tracer.counter",
        "repro.obs.trace:Tracer.async_begin",
        "repro.obs.trace:Tracer.async_end",
    ),
    "obs.export": ("repro.obs.export:chrome_trace_json",),
    "cluster.partition": ("repro.cluster.partition:partition_graph",),
    "cluster.loop": ("repro.cluster.loop:ClusterLoop.run",),
    "cluster.router": ("repro.cluster.router:ClusterRouter.pick",),
    "cluster.link": (
        "repro.cluster.link:LinkModel.transfer_ms",
        "repro.cluster.link:LinkModel.ingress_ms",
    ),
    "cluster.host": (
        "repro.cluster.host:Host.predicted_completion_ms",
        "repro.cluster.host:Host.remaining_work_ms",
        "repro.cluster.host:Host.ingress_delivery_ms",
        "repro.serve.loop:ServingLoop.inject",
        "repro.serve.loop:ServingLoop.step",
        "repro.serve.loop:ServingLoop.advance_to",
    ),
}

#: Layers called a bounded number of times per run; each call becomes one
#: span of the coarse phase trace.
SPAN_LAYERS = frozenset({
    "frontend", "engine", "passes", "core.dp", "core.lowering", "serve.traffic",
    "serve.loop", "serve.report", "obs.export", "cluster.partition", "cluster.loop",
})


@dataclass
class LayerStats:
    """Calls into one layer and the wall time they took."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Ledger:
    """Installs timing wrappers on the functions of ``layers`` and tallies them.

    Use as a context manager, or call :meth:`install` / :meth:`uninstall`.
    ``clock`` is injectable so tests can check the self-time arithmetic.
    Calls into a layer named in ``keep_results`` also keep what they return,
    so counts the program reports (such as compile statistics) can be read
    afterwards.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]], clock=time.perf_counter,
                 span_layers=SPAN_LAYERS, keep_results: tuple[str, ...] = ()):
        self.layers = layers
        self.stats = {name: LayerStats() for name in self.layers}
        #: ``(layer, start_s, end_s)`` for every call into a span layer.
        self.spans: list[tuple[str, float, float]] = []
        #: Return values of calls into the ``keep_results`` layers.
        self.results: dict[str, list] = {name: [] for name in keep_results}
        self._span_layers = span_layers
        self._clock = clock
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching
    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Wrap every function of every layer."""
        for layer, targets in self.layers.items():
            for target in targets:
                for owner, name, original in _bindings(target):
                    self._patches.append((owner, name, original))
                    setattr(owner, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -------------------------------------------------------------- timing
    def _wrap(self, layer: str, function):
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                generator = function(*args, **kwargs)
                while True:
                    try:
                        item = self._timed(layer, next, (generator,), {})
                    except StopIteration as stop:
                        return stop.value
                    yield item

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return self._timed(layer, function, args, kwargs)

        return wrapper

    def _timed(self, layer: str, function, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        start = self._clock()
        try:
            result = function(*args, **kwargs)
            if layer in self.results:
                self.results[layer].append(result)
            return result
        finally:
            end = self._clock()
            elapsed = end - start
            nested = stack.pop()
            stats = self.stats[layer]
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += elapsed - nested
            if stack:
                stack[-1] += elapsed
            if layer in self._span_layers:
                self.spans.append((layer, start, end))

    # -------------------------------------------------------------- output
    def metrics(self) -> dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer."""
        out: dict[str, float] = {}
        for layer, stats in self.stats.items():
            out[f"{layer}.self_s"] = stats.self_s
            out[f"{layer}.calls"] = stats.calls
        return out


def _bindings(target: str) -> list[tuple[object, str, object]]:
    """Every ``(owner, attribute, original)`` a wrapper must replace for ``target``."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, name = qualname.split(".")
        cls = getattr(module, class_name)
        owners = [cls] + _subclasses(cls)
        return [
            (owner, name, owner.__dict__[name])
            for owner in owners
            if inspect.isfunction(owner.__dict__.get(name))
        ]
    original = getattr(module, qualname)
    return [
        (loaded, attribute, original)
        for loaded in list(sys.modules.values())
        for attribute, value in list(getattr(loaded, "__dict__", {}).items())
        if value is original
    ]


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = cls.__subclasses__()
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def write_chrome_trace(path, spans, pid_name: str) -> None:
    """Write ``(name, start_s, end_s)`` spans as a Chrome-trace JSON file.

    Written by hand rather than through ``repro.obs``, so a change to the
    program's own tracing cannot skew the benchmark's view of it.
    """
    origin = min((start for _, start, _ in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": pid_name}}]
    for name, start, end in spans:
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
        })
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")
