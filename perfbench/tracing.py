"""Layer timing patched in from outside the program.

Two instruments, both installed by replacing attributes on ``repro``
classes and modules for the duration of a ``with`` block and restoring
the originals afterwards:

* :class:`Census` records the :class:`~repro.sim.metrics.EngineMetrics`
  object of every engine built, so a run can sum rounds and exchanges
  over every engine a workload constructed.  It adds one list append per
  engine construction and no clock reads, so the untraced runs use it too.
* :class:`Tracer` wraps the public entry points of each layer (engine
  construction and steps, phases, state calls, graph generators, the
  guessing game, event sinks) in timers.  Spans are aggregated in memory
  per name; a layer's self time is its duration minus the time spent in
  wrapped calls nested inside it (phase ⊃ engine step ⊃ state call).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable, Iterator


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_everywhere(self, original: Callable, value: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it.

        Functions reached through ``from module import name`` are bound in
        the importing module too; patching only the defining module would
        miss those calls.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Census:
    """Every engine's metrics object, collected while installed."""

    def __init__(self) -> None:
        self.scalar: list[Any] = []
        self.vector: list[Any] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator["Census"]:
        from repro.sim.engine import Engine
        from repro.sim.vector import VectorEngine

        patches = _Patches()
        for cls, sink in ((Engine, self.scalar), (VectorEngine, self.vector)):
            patches.set(cls, "__init__", _recording_init(cls.__init__, sink))
        try:
            yield self
        finally:
            patches.undo()

    def harvest(self) -> dict[str, int]:
        """Totals since the last harvest, by engine class."""
        totals = {
            "scalar_engines": len(self.scalar),
            "scalar_rounds": sum(m.rounds for m in self.scalar),
            "scalar_exchanges": sum(m.exchanges for m in self.scalar),
            "vector_engines": len(self.vector),
            "vector_rounds": sum(m.rounds for m in self.vector),
            "vector_exchanges": sum(m.exchanges for m in self.vector),
        }
        self.scalar.clear()
        self.vector.clear()
        return totals


def _recording_init(init: Callable, sink: list) -> Callable:
    @functools.wraps(init)
    def wrapper(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        sink.append(engine.metrics)

    return wrapper


class Tracer:
    """Aggregated wall-clock spans around wrapped calls.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  ``total_s`` counts
    only the outermost call when a wrapped name re-enters itself (a
    generator building on another generator), so totals never double
    count; ``self_s`` excludes every wrapped call nested inside.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._children: list[float] = []
        self._depth: dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        depth = self._depth
        depth.setdefault(name, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                nested = children.pop()
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += elapsed
                stats[2] += elapsed - nested
                if children:
                    children[-1] += elapsed

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        from repro.graphs import gadgets, generators
        from repro.lowerbounds.game import GuessingGame
        from repro.obs import CounterSink, JsonlSink, MemorySink, MetricsSink, RingBufferSink
        from repro.protocols.base import PhaseRunner
        from repro.sim.engine import Engine
        from repro.sim.state import NetworkState
        from repro.sim.vector import VectorEngine

        patches = _Patches()
        methods = [
            (Engine, "__init__", "sim.engine.construct"),
            (Engine, "step", "sim.engine.step"),
            (VectorEngine, "__init__", "sim.vector.construct"),
            (VectorEngine, "step", "sim.vector.step"),
            (PhaseRunner, "run_phase", "protocols.phase"),
            (NetworkState, "rumors", "sim.state.rumors"),
            (NetworkState, "merge", "sim.state.merge"),
            (GuessingGame, "__init__", "lowerbounds.game"),
            (GuessingGame, "guess", "lowerbounds.game"),
        ]
        for sink in (JsonlSink, CounterSink, MemorySink, RingBufferSink, MetricsSink):
            methods.append((sink, "write", "obs.sink"))
        for cls, attr, name in methods:
            patches.set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        builders = [getattr(generators, fn) for fn in generators.__all__]
        builders += [
            gadgets.guessing_gadget,
            gadgets.theorem6_network,
            gadgets.theorem7_network,
            gadgets.theorem8_ring,
        ]
        for fn in builders:
            patches.set_everywhere(fn, self.wrap("graphs.generate", fn))
        try:
            yield self
        finally:
            patches.undo()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]
