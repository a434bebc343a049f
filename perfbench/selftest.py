"""Self-tests for the benchmark's output checks.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Each check must pass on real output of the program and fail once that
output is corrupted: a table with one property broken (one flipped
``all_to_all_ok``, one stretch above 2k−1, ...), a run whose round count
falls below the eccentricity computed here, a JSONL stream with one
delivery shifted by a round.  A pass in which an operation raises must
count it failed and make the run's result incorrect.  Runs every quick
experiment once (about 20 s) plus small simulations; exits 1 if any
self-test fails.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from workloads import EXPERIMENTS, OUT_DIR  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "ok  " if ok else "FAIL"
    detail = problems[0] if problems else "no problem found"
    print(f"{verdict} {label}: {detail}")
    if not ok:
        FAILURES.append(label)


def _row(table, predicate=lambda row: True) -> dict:
    return next(row for row in table.rows if predicate(row))


def _set(**changes):
    def corrupt(row: dict) -> None:
        row.update(changes)
    return corrupt


#: One corruption per table: (description, row selector, mutation).
TABLE_CORRUPTIONS = {
    "E1": ("sweep beyond ⌈m/2⌉ rounds", None, lambda r: r.update(sweep_rounds=r["m"])),
    "E2": ("adaptive below one round", None, _set(adaptive_rounds=0.5)),
    "E3": ("rounds/delta miscomputed", None, lambda r: r.update({"rounds/delta": 2 * r["rounds/delta"]})),
    "E4": ("ratio miscomputed", None, lambda r: r.update(ratio=1.5 * r["ratio"])),
    "E5": ("envelope is the max", None, lambda r: r.update(min_envelope=max(r["search_term(D+Δ)"], r["pay_term(ℓ/φ)"]) + 1)),
    "E6": ("measured above the bound", None, lambda r: r.update(measured=2 * r["predicted"])),
    "E7": ("stretch above 2k-1", None, lambda r: r.update(stretch=2 * r["k"])),
    "E8": ("one flipped all_to_all_ok", None, _set(all_to_all_ok=False)),
    "E9": ("premature termination", None, lambda r: r.update(complete_at=r["general_rounds"] + 1, detect_lag=-1)),
    "E10": ("T(k) fails to cover", None, _set(**{"T(k)_covers": False})),
    "E11": ("wrong analytic winner", None, lambda r: r.update(analytic_winner="push-pull" if r["analytic_winner"] == "spanner" else "spanner")),
    "E12": ("ring not regular", None, _set(**{"regular(3s-1)": False})),
    "E13": ("local broadcast incomplete", None, _set(complete=False)),
    "E14": ("RR broadcast over budget", lambda r: r["ablation"].startswith("RR"), lambda r: r.update(value=r["reference"] + 1)),
    "E15": ("push-pull coverage below 1", None, _set(pushpull_coverage=0.97)),
    "E16": ("rejections without a cap", lambda r: r["cap"] == "unbounded", _set(rejected_initiations=1.0)),
    "E17": ("DTG payload below n", None, lambda r: r.update(dtg_max_payload=r["n"] - 1)),
}


def table_selftests() -> dict:
    from repro.experiments import run_experiment

    tables = {}
    for eid in EXPERIMENTS:
        table = tables[eid] = run_experiment(eid, "quick")
        expect(f"{eid} as computed", checks.check_table(table), should_fail=False)
        label, select, corrupt = TABLE_CORRUPTIONS[eid]
        bad = copy.deepcopy(table)
        corrupt(_row(bad, select or (lambda row: True)))
        expect(f"{eid} with {label}", checks.check_table(bad), should_fail=True)
    return tables


def _graph(n: int, degree: float, seed: int):
    from repro.graphs import generators
    from repro.graphs.latency_models import uniform_latency

    return generators.erdos_renyi_fast(
        n, degree / n, latency_model=uniform_latency(1, 8), rng=random.Random(seed)
    )


def dissemination_selftests() -> None:
    from repro.protocols.push_pull import run_push_pull

    for mode in ("broadcast", "all_to_all"):
        graph = _graph(1500, 8.0, 3)
        n = graph.num_nodes
        run = run_push_pull(graph, mode=mode, seed=5, backend="vector")
        sources = (
            [graph.index_of(graph.nodes()[0])] if mode == "broadcast"
            else random.Random(3).sample(range(n), 4)
        )
        ecc = max(checks.eccentricities(graph, sources))
        expect(f"{mode} run as computed", checks.check_dissemination(run, n, ecc), False)
        below = dataclasses.replace(run, rounds=ecc)
        expect(f"{mode} rounds at the eccentricity", checks.check_dissemination(below, n, ecc), True)
        over = dataclasses.replace(run, exchanges=n * run.rounds + 1)
        expect(f"{mode} exchanges above n·rounds", checks.check_dissemination(over, n, ecc), True)
        partial = dataclasses.replace(run, complete=False)
        expect(f"{mode} incomplete run", checks.check_dissemination(partial, n, ecc), True)


def _shift_first(lines: list, kind: str, update) -> list:
    import json

    out = list(lines)
    for i, line in enumerate(out):
        event = json.loads(line)
        if event["kind"] == kind and update(event) is not False:
            out[i] = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            return out
    raise AssertionError(f"no {kind} event to corrupt")


def trace_selftests() -> None:
    import json

    from repro.obs import Recorder
    from repro.protocols.push_pull import run_push_pull

    graph = _graph(400, 8.0, 7)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"selftest-{os.getpid()}.jsonl")
    try:
        with Recorder.to_jsonl(path) as recorder:
            run = run_push_pull(graph, seed=9, backend="vector", telemetry=True, recorder=recorder)
        with open(path, encoding="utf-8") as stream:
            lines = list(stream)
    finally:
        if os.path.exists(path):
            os.remove(path)
    lat = checks.edge_latencies(graph)
    n, source = graph.num_nodes, graph.nodes()[0]

    def check(stream, rounds=run.rounds):
        return checks.check_trace(stream, lat, n, source, rounds)

    expect("trace as recorded", check(lines), False)

    def later(event):
        event["round"] += 1

    expect("trace with one delivery a round late",
           check(_shift_first(lines, "deliver", later)), True)

    def wrong_latency(event):
        event["latency"] += 1

    expect("trace with a wrong initiation latency",
           check(_shift_first(lines, "initiate", wrong_latency)), True)
    first_init = next(line for line in lines if json.loads(line)["kind"] == "initiate")
    twice = list(lines)
    twice.insert(lines.index(first_init) + 1, first_init)
    expect("trace with a node initiating twice in a round", check(twice), True)
    informing = next(
        i for i, line in enumerate(lines)
        if json.loads(line)["kind"] == "deliver" and json.loads(line)["learned_by_responder"]
    )
    expect("trace without the first informing delivery",
           check(lines[:informing] + lines[informing + 1:]), True)
    expect("trace against a round count one too low", check(lines, run.rounds - 1), True)


def _expect_verdict(label: str, result, failed: int) -> None:
    """The run's verdict on one pass: ``failed`` operations, not correct."""
    from run import tally

    result.settle()
    attempted, counted, problems = tally([result])
    if counted != failed:
        problems = []  # reported as a failed self-test below
    expect(f"{label} ({counted} of {attempted} operations failed)", problems, True)


def raising_pass_selftests(tables: dict) -> None:
    from unittest import mock

    import repro.experiments
    import repro.protocols.push_pull
    from tracing import Census
    from workloads import WORKLOADS, GraphContext

    def e10_raises(eid, profile):
        if eid == "E10":
            raise RuntimeError("injected fault")
        return tables[eid]

    def e2_is_e1(eid, profile):
        return tables["E1" if eid == "E2" else eid]

    quick = WORKLOADS["reproduce-quick"]
    for label, fake in (("E10 raising", e10_raises), ("E2 returning E1", e2_is_e1)):
        with mock.patch.object(repro.experiments, "run_experiment", fake):
            result = quick.run_pass(None, 1, 0, Census())
        _expect_verdict(f"reproduce-quick pass with {label}", result, failed=1)

    def raises(*args, **kwargs):
        raise RuntimeError("injected fault")

    graph = _graph(400, 8.0, 7)
    ctx = GraphContext(graph=graph, n=graph.num_nodes)
    with mock.patch.object(repro.protocols.push_pull, "run_push_pull", raises):
        for name in ("broadcast-1e5", "trace-jsonl-1e4"):
            result = WORKLOADS[name].run_pass(ctx, 1, 0, Census())
            _expect_verdict(f"{name} pass with the simulation raising", result, failed=1)


def main() -> int:
    tables = table_selftests()
    raising_pass_selftests(tables)
    dissemination_selftests()
    trace_selftests()
    if FAILURES:
        print(f"{len(FAILURES)} self-test(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
