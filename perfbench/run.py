"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload reproduce-quick --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
measured with no timers inside the program.  ``--trace 1`` measures the
same passes untraced, then runs them again with every layer's entry
points wrapped (see ``tracing.py``) and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated this many times in a run; its median is reported.
SETUP_REPEATS = 3

#: Every run times at least this many passes, so ``wall_s`` is a median
#: of several even where one pass outlasts ``--seconds``.
MIN_PASSES = 2


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _child_env() -> dict:
    """The environment runs are made in: serial, at most nproc threads.

    Every ``REPRO_*`` knob (worker pools, fault injection, state budgets,
    mirror paths) is removed so the program runs with its defaults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not current.isdigit() or int(current) > int(threads) or int(current) < 1:
            env[var] = threads
    env["PYTHONPATH"] = SRC
    return env


def _import_seconds(statement: str, env: dict) -> float:
    """Time ``statement`` in a fresh interpreter, as a user's run pays it."""
    code = (
        "import time\nstart = time.perf_counter()\n"
        f"{statement}\nprint(time.perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing the program failed:\n{done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _pass(workload, ctx, seed: int, index: int, census, **kwargs):
    # Each pass starts as a fresh process would: without the previous
    # pass's cyclic garbage (engines and protocols form cycles).
    gc.collect()
    return workload.run_pass(ctx, seed, index, census, **kwargs)


def _measure(workload, ctx, seed: int, seconds: float, census) -> list:
    """Whole passes until their timed wall clock reaches ``seconds``."""
    passes = []
    timed = 0.0
    while len(passes) < MIN_PASSES or timed < seconds:
        outcome = _pass(workload, ctx, seed, len(passes), census)
        passes.append(outcome)
        timed += outcome.wall
    return passes


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(passes: list, setup_s: float, peak_rss_mb: float) -> dict:
    wall = sum(p.wall for p in passes)
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "exchanges_per_s": (sum(p.exchanges for p in passes) / wall, "1/s"),
        "rounds_per_s": (sum(p.rounds for p in passes) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(untraced, off, traced, tracer, setup_tracer, spans, cells) -> tuple:
    """Layer figures per pass from the traced passes (see README.md).

    ``graphs.generate_s`` adds the generators' time in one traced set-up,
    since the vector workloads build their graph there.
    """
    passes = len(traced)
    per = lambda value: value / passes  # noqa: E731

    def span_total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def span_calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def counter(name: str) -> float:
        return sum(cell["value"] for cell in cells.get(name, {}).get("values", []))

    from repro.sim.vector import BroadcastVectorState, ChunkedVectorState, VectorState
    from workloads import EXPERIMENTS

    vector_layouts = {cls.layout for cls in (VectorState, BroadcastVectorState, ChunkedVectorState)}
    state_cells = [
        cell for cell in cells.get("sim_state_bytes", {}).get("values", [])
        if cell["labels"].get("layout") in vector_layouts
    ]
    hits = counter("artifact_cache_hits_total")
    lookups = hits + counter("artifact_cache_misses_total")
    engines = collections.Counter()
    for p in traced:
        engines.update(p.engines)
    median = statistics.median
    metrics = {
        "graphs.generate_s": (
            per(tracer.total("graphs.generate"))
            + setup_tracer.total("graphs.generate"),
            "s",
        ),
        "graphs.dijkstra_s": (per(span_total("graph.dijkstra")), "s"),
        "graphs.dijkstra_calls": (per(span_calls("graph.dijkstra")), "count"),
        "graphs.diameter_s": (per(span_total("graph.weighted_diameter")), "s"),
        "conductance.profile_s": (per(span_total("conductance.profile")), "s"),
        "conductance.profile_calls": (per(span_calls("conductance.profile")), "count"),
        "conductance.sweep_s": (per(span_total("conductance.sweep")), "s"),
        "conductance.sweep_calls": (per(span_calls("conductance.sweep")), "count"),
        "lowerbounds.game_s": (per(tracer.total("lowerbounds.game")), "s"),
        "protocols.phase_s": (per(tracer.total("protocols.phase")), "s"),
        "protocols.phase_self_s": (per(tracer.self_time("protocols.phase")), "s"),
        "protocols.phases": (per(tracer.calls("protocols.phase")), "count"),
        "protocols.spanner_s": (per(span_total("spanner.baswana_sen")), "s"),
        "sim.engine.construct_s": (per(tracer.total("sim.engine.construct")), "s"),
        "sim.engine.engines": (per(engines["scalar_engines"]), "count"),
        "sim.engine.step_s": (per(tracer.total("sim.engine.step")), "s"),
        "sim.engine.step_self_s": (per(tracer.self_time("sim.engine.step")), "s"),
        "sim.engine.rounds": (per(engines["scalar_rounds"]), "count"),
        "sim.engine.exchanges": (per(engines["scalar_exchanges"]), "count"),
        "sim.state.rumors_s": (per(tracer.total("sim.state.rumors")), "s"),
        "sim.state.rumors_calls": (per(tracer.calls("sim.state.rumors")), "count"),
        "sim.state.merge_s": (per(tracer.total("sim.state.merge")), "s"),
        "sim.state.merges": (per(tracer.calls("sim.state.merge")), "count"),
        "sim.vector.construct_s": (per(tracer.total("sim.vector.construct")), "s"),
        "sim.vector.step_s": (per(tracer.total("sim.vector.step")), "s"),
        "sim.vector.rounds": (per(engines["vector_rounds"]), "count"),
        "sim.vector.state_bytes": (
            max((cell["value"] for cell in state_cells), default=0), "bytes"
        ),
        "obs.events": (per(sum(p.events for p in traced)), "count"),
        "obs.jsonl_bytes": (per(sum(p.jsonl_bytes for p in traced)), "bytes"),
        "obs.sink_s": (per(tracer.total("obs.sink")), "s"),
        "obs.recorder_overhead_s": (
            median(p.wall for p in untraced) - median(p.wall for p in off)
            if off else 0.0,
            "s",
        ),
    }
    for eid in EXPERIMENTS:
        metrics[f"experiments.{eid}_s"] = (
            per(sum(p.experiment_s.get(eid, 0.0) for p in traced)), "s"
        )
    metrics["experiments.trials"] = (per(span_calls("harness.trial")), "count")
    metrics["experiments.cache_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio"
    )
    metrics["trace.overhead_s"] = (
        median(p.wall for p in traced) - median(p.wall for p in untraced), "s"
    )
    layouts = sorted({cell["labels"].get("layout", "?") for cell in state_cells})
    return metrics, layouts


def tally(passes: list) -> tuple:
    """Operations attempted and failed, and every problem found.

    An operation that raised is a problem as much as one whose output
    failed its check: its output was never checked at all.
    """
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [f"operation failed: {msg}" for p in passes for msg in p.errors]
    problems += [f"check failed: {msg}" for p in passes for msg in p.problems]
    return attempted, failed, problems


def _environment() -> str:
    import platform

    import numpy

    from repro.obs import git_revision

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {_nproc()}, revision {git_revision() or 'unknown'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    env = _child_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    imports = [_import_seconds(workload.imports, env) for _ in range(SETUP_REPEATS)]
    # Load the same modules here too, so no pass pays for an import.
    exec(workload.imports, {})
    from tracing import Census, Tracer

    prepared = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        ctx = None  # let the previous graph go before building the next
        gc.collect()
        start = time.perf_counter()
        ctx = workload.prepare(args.seed)
        prepared.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(prepared)

    census = Census()
    with census.installed():
        untraced = _measure(workload, ctx, args.seed, args.seconds, census)
        # Read before any output is checked: the checks' memory is ours.
        peak_rss_mb = _peak_rss_mb()
        for outcome in untraced:
            outcome.settle()
        passes = list(untraced)
        if args.trace:
            from repro.obs import metrics_since, metrics_snapshot, span_snapshot, spans_since
            from repro.obs.metrics import MetricsRegistry

            off = []
            if workload.records:
                off = [
                    _pass(workload, ctx, args.seed, i, census, record=False)
                    for i in range(len(untraced))
                ]
            # One more set-up, traced, for the graph generators' share of it.
            setup_tracer = Tracer()
            gc.collect()
            with setup_tracer.installed():
                workload.prepare(args.seed)
            tracer = Tracer()
            spans_before, metrics_before = span_snapshot(), metrics_snapshot()
            with tracer.installed():
                traced = [
                    _pass(workload, ctx, args.seed, i, census)
                    for i in range(len(untraced))
                ]
            for outcome in off + traced:
                outcome.settle()
            spans = spans_since(spans_before)
            scoped = MetricsRegistry()
            scoped.merge(metrics_since(metrics_before))
            metrics, layouts = _per_layer(
                untraced, off, traced, tracer, setup_tracer, spans, scoped.collect()
            )
            passes += off + traced
        else:
            metrics = _end_to_end(untraced, setup_s, peak_rss_mb)

    attempted, failed, problems = tally(passes)
    print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} timed "
          f"pass(es); {attempted} operations attempted, {failed} failed")
    print(f"environment: {_environment()}")
    for msg in problems:
        print(msg)
    if args.trace:
        print(f"vector state layouts: {', '.join(layouts) or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
