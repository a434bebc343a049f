"""The benchmark's workloads: what a user runs, set up from a seed.

Each workload has a per-graph ``prepare`` step (timed as set-up) and a
``run_pass`` step (timed as the workload).  A pass is a whole group of
operations: all seventeen experiment tables, or one simulation.  Outputs
are checked later, outside the pass's clock (see ``PassResult.settle``).
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
import traceback
from typing import Any, Callable, Optional

import checks

#: Where passes write their output (inside the checkout, removed after use).
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_out"
)

EXPERIMENTS = tuple(f"E{i}" for i in range(1, 18))


@dataclasses.dataclass
class PassResult:
    """One pass: its timed wall clock, operations, and checked output."""

    wall: float
    attempted: int
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    engines: dict = dataclasses.field(default_factory=dict)
    events: int = 0
    jsonl_bytes: int = 0
    experiment_s: dict = dataclasses.field(default_factory=dict)
    #: The output check, deferred so that it neither adds to the pass's
    #: time nor to the process's peak memory: returns one problem list
    #: per checked operation.
    pending: Optional[Callable[[], list]] = None

    def settle(self) -> None:
        """Run the deferred check; an operation with problems has failed."""
        if self.pending is None:
            return
        check, self.pending = self.pending, None
        for problems in check():
            if problems:
                self.failed += 1
                self.problems += problems

    @property
    def exchanges(self) -> int:
        return self.engines.get("scalar_exchanges", 0) + self.engines.get(
            "vector_exchanges", 0
        )

    @property
    def rounds(self) -> int:
        return self.engines.get("scalar_rounds", 0) + self.engines.get(
            "vector_rounds", 0
        )


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class ReproduceQuick:
    """``run_experiment`` for E1–E17, quick profile, scalar backend."""

    name = "reproduce-quick"
    imports = "import repro.experiments as m; m.all_experiments()"
    records = False

    def prepare(self, seed: int) -> None:
        # The quick profile fixes its own inputs (each experiment's seed
        # ladder); there is no per-graph set-up to do.
        return None

    def run_pass(self, ctx: Any, seed: int, index: int, census: Any) -> PassResult:
        from repro.experiments import artifacts, run_experiment

        # A user's `repro run-experiment all` starts with a cold cache.
        artifacts.clear()
        census.harvest()
        tables, result = {}, PassResult(wall=0.0, attempted=len(EXPERIMENTS))
        start = time.perf_counter()
        for eid in EXPERIMENTS:
            began = time.perf_counter()
            try:
                tables[eid] = run_experiment(eid, "quick")
            except Exception as exc:  # one failed table must not end the run
                result.failed += 1
                result.errors.append(f"{eid}: {_error(exc)}")
            result.experiment_s[eid] = time.perf_counter() - began
        result.wall = time.perf_counter() - start
        result.engines = census.harvest()

        def check() -> list:
            # A table that raised is already an error; every other one must
            # be the table asked for.
            return [
                checks.check_table(table) if table.experiment_id == eid
                else [f"{eid}: run_experiment returned {table.experiment_id}"]
                for eid, table in tables.items()
            ]

        result.pending = check
        return result


@dataclasses.dataclass
class GraphContext:
    """A prepared graph and what its checks compute from it, once."""

    graph: Any
    n: int
    lower_bound: Optional[int] = None
    latencies: Optional[dict] = None


class VectorPushPull:
    """Push–pull on the vector backend over fast-sampled G(n, degree/n).

    ``prepare`` samples the graph from the seed (latencies uniform in
    1..8) and runs round-robin flooding on it for zero rounds.  That
    fills the per-graph caches (CSR adjacency) the first push–pull run
    would otherwise pay for, without seeding n per-node RNG streams: the
    push–pull engine's own construction is timed in every pass.
    """

    imports = (
        "import repro.graphs.generators, repro.protocols.push_pull, "
        "repro.protocols.flooding, repro.sim.vector, repro.obs"
    )

    def __init__(self, name: str, n: int, degree: float, mode: str, records: bool):
        self.name = name
        self.n = n
        self.degree = degree
        self.mode = mode
        self.records = records

    def prepare(self, seed: int) -> GraphContext:
        from repro.graphs import generators
        from repro.graphs.latency_models import uniform_latency
        from repro.protocols.flooding import run_flooding

        graph = generators.erdos_renyi_fast(
            self.n,
            self.degree / self.n,
            latency_model=uniform_latency(1, 8),
            rng=random.Random(seed),
        )
        run_flooding(graph, backend="vector", max_rounds=0, allow_incomplete=True)
        return GraphContext(graph=graph, n=graph.num_nodes)

    def _lower_bound(self, ctx: GraphContext, seed: int) -> int:
        """Weighted eccentricity every completed run must exceed."""
        if ctx.lower_bound is None:
            graph = ctx.graph
            if self.mode == "broadcast":
                sources = [graph.index_of(graph.nodes()[0])]
            else:
                sources = random.Random(seed).sample(range(ctx.n), 4)
            ctx.lower_bound = max(checks.eccentricities(graph, sources))
        return ctx.lower_bound

    def run_pass(
        self, ctx: GraphContext, seed: int, index: int, census: Any, record: bool = True
    ) -> PassResult:
        from repro.obs import CounterSink, JsonlSink, Recorder
        from repro.protocols.push_pull import run_push_pull

        census.harvest()
        sim_seed = seed * 1000 + index
        path = None
        recorder = None
        if self.records and record:
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"{self.name}-{os.getpid()}-{index}.jsonl")
            recorder = Recorder(JsonlSink(path), CounterSink())
        outcome = PassResult(wall=0.0, attempted=1)
        start = time.perf_counter()
        try:
            if recorder is None:
                run = run_push_pull(
                    ctx.graph, mode=self.mode, seed=sim_seed, backend="vector"
                )
            else:
                with recorder:
                    run = run_push_pull(
                        ctx.graph, mode=self.mode, seed=sim_seed,
                        backend="vector", telemetry=True, recorder=recorder,
                    )
        except Exception as exc:  # a failed simulation must not end the run
            outcome.wall = time.perf_counter() - start
            outcome.failed = 1
            outcome.errors.append(f"seed {sim_seed}: {_error(exc)}")
            outcome.engines = census.harvest()
            if path is not None and os.path.exists(path):
                os.remove(path)
            return outcome
        outcome.wall = time.perf_counter() - start
        outcome.engines = census.harvest()
        if path is not None:
            outcome.events = recorder.events_recorded
            outcome.jsonl_bytes = os.path.getsize(path)

        def check() -> list:
            problems = checks.check_dissemination(
                run, ctx.n, self._lower_bound(ctx, seed)
            )
            if outcome.exchanges != run.exchanges:
                problems.append(
                    f"engines counted {outcome.exchanges} exchanges, result "
                    f"reports {run.exchanges}"
                )
            if path is not None:
                try:
                    problems += self._check_stream(ctx, path, run, recorder)
                finally:
                    os.remove(path)
            return [[f"seed {sim_seed}: {p}" for p in problems]]

        outcome.pending = check
        return outcome

    def _check_stream(self, ctx: GraphContext, path: str, run: Any, recorder: Any) -> list:
        from repro.obs import CounterSink

        graph = ctx.graph
        if ctx.latencies is None:
            ctx.latencies = checks.edge_latencies(graph)
        lines = 0

        def counted(stream):
            nonlocal lines
            for line in stream:
                lines += 1
                yield line

        with open(path, encoding="utf-8") as stream:
            problems = checks.check_trace(
                counted(stream), ctx.latencies, ctx.n, graph.nodes()[0], run.rounds
            )
        if lines != recorder.events_recorded:
            problems.append(
                f"{lines} JSONL lines for {recorder.events_recorded} events"
            )
        counted = recorder.sink(CounterSink).by_kind
        if counted.get("initiate", 0) != run.exchanges:
            problems.append("initiate events differ from the run's exchanges")
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (
        ReproduceQuick(),
        VectorPushPull("broadcast-1e5", 100_000, 8.0, "broadcast", records=False),
        VectorPushPull("all-to-all-1e4", 10_000, 16.0, "all_to_all", records=False),
        VectorPushPull("trace-jsonl-1e4", 10_000, 16.0, "broadcast", records=True),
    )
}
