"""Output checks, computed apart from the program under test.

Every check returns a list of problems (empty when the output is
correct).  None compares against a stored copy of earlier output:

* :func:`check_table` tests, row by row, the property the paper states
  for each experiment table (E1–E17), and recomputes every derived
  column from its inputs;
* :func:`check_dissemination` tests a vector-engine run against
  weighted eccentricities computed here with ``scipy.sparse.csgraph``;
* :func:`check_trace` re-parses a JSONL event stream and replays it
  with this module's own model of push–pull under initiation-time
  snapshots.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterator, Sequence

Row = dict[str, Any]
Problems = Iterator[str]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _half(m: int) -> int:
    # 2m distinct guesses a round cover all m² pairs within ⌈m/2⌉ rounds.
    return -(-m // 2)


def _e1(row: Row) -> Problems:
    m = row["m"]
    for col in ("adaptive_rounds", "sweep_rounds"):
        if not 1 <= row[col] <= _half(m):
            yield f"{col}={row[col]} outside [1, ⌈m/2⌉={_half(m)}]"
    if not _close(row["adaptive/m"], row["adaptive_rounds"] / m):
        yield "adaptive/m is not adaptive_rounds/m"
    if not _close(row["sweep/m"], row["sweep_rounds"] / m):
        yield "sweep/m is not sweep_rounds/m"


def _e2(row: Row) -> Problems:
    m, p = row["m"], row["p"]
    adaptive, oblivious = row["adaptive_rounds"], row["oblivious_rounds"]
    if not 1 <= adaptive <= _half(m):
        yield f"adaptive_rounds={adaptive} outside [1, ⌈m/2⌉={_half(m)}]"
    if oblivious < 1:
        yield f"oblivious_rounds={oblivious} < 1"
    if not _close(row["adaptive*p"], adaptive * p):
        yield "adaptive*p is not adaptive_rounds·p"
    if not _close(row["oblivious/adaptive"], oblivious / adaptive):
        yield "oblivious/adaptive is not the ratio of its columns"


def _e3(row: Row) -> Problems:
    if row["rounds_to_hit"] < 1:
        yield f"rounds_to_hit={row['rounds_to_hit']} < 1"
    if not _close(row["rounds/delta"], row["rounds_to_hit"] / row["delta"]):
        yield "rounds/delta is not rounds_to_hit/delta"


def _e4(row: Row) -> Problems:
    predicted = math.log(row["n"]) / row["phi"] + row["ell"]
    if not _close(row["log(n)/phi+ell"], predicted):
        yield f"log(n)/phi+ell={row['log(n)/phi+ell']} but ln(n)/φ+ℓ={predicted}"
    if not _close(row["ratio"], row["pushpull_rounds"] / predicted):
        yield "ratio is not pushpull_rounds / (log(n)/phi+ell)"
    if not 0 < row["measured_phi_ell"] <= 1:
        yield f"measured_phi_ell={row['measured_phi_ell']} is not a conductance"
    if row["pushpull_rounds"] < 1 or row["diameter"] < 1:
        yield "non-positive rounds or diameter"


def _e5(row: Row) -> Problems:
    envelope = min(row["search_term(D+Δ)"], row["pay_term(ℓ/φ)"])
    if row["min_envelope"] != envelope:
        yield f"min_envelope={row['min_envelope']} but min(D+Δ, ℓ/φ)={envelope}"
    if not _close(row["rounds/min"], row["rounds"] / envelope):
        yield "rounds/min is not rounds/min_envelope"


def _e6(row: Row) -> Problems:
    predicted = row["ell*"] / row["phi*"] * math.log2(row["n"])
    if not _close(row["predicted"], predicted):
        yield f"predicted={row['predicted']} but (ℓ*/φ*)·log n={predicted}"
    # Theorem 12: O((ℓ*/φ*) log n); a measured time above the bound with
    # constant 1 would be far outside what the theorem allows here.
    if not 1 <= row["measured"] <= predicted:
        yield f"measured={row['measured']} outside [1, (ℓ*/φ*)·log n={predicted}]"
    if not _close(row["measured/predicted"], row["measured"] / predicted):
        yield "measured/predicted is not the ratio of its columns"


def _e7(row: Row) -> Problems:
    bound = 2 * row["k"] - 1
    if row["2k-1"] != bound:
        yield f"2k-1 column reads {row['2k-1']}, not {bound}"
    if not 1 <= row["stretch"] <= bound:
        yield f"stretch={row['stretch']} outside [1, 2k-1={bound}]"
    if row["stretch_ok"] is not True:
        yield "stretch_ok is not true"


def _e8(row: Row) -> Problems:
    budget = row["D"] * math.log2(row["n"]) ** 3
    if row["all_to_all_ok"] is not True:
        yield "all_to_all_ok is not true"
    if not _close(row["D·log³n"], budget):
        yield f"D·log³n={row['D·log³n']} but D·log2(n)³={budget}"
    if not _close(row["rounds/budget"], row["rounds"] / budget):
        yield "rounds/budget is not rounds / (D·log³n)"
    if row["rounds"] < row["D"]:
        yield f"all-to-all in {row['rounds']} rounds < diameter D={row['D']}"


def _e9(row: Row) -> Problems:
    complete, general = row["complete_at"], row["general_rounds"]
    if complete > general:
        yield f"complete_at={complete} > general_rounds={general} (premature stop)"
    if row["detect_lag"] < 0 or row["detect_lag"] != general - complete:
        yield f"detect_lag={row['detect_lag']} is not general_rounds - complete_at ≥ 0"
    if complete < row["D"]:
        yield f"complete_at={complete} < diameter D={row['D']}"
    if not _close(row["overhead"], general / row["eid(D)_rounds"]):
        yield "overhead is not general_rounds / eid(D)_rounds"


def _e10(row: Row) -> Problems:
    if row["T(k)_covers"] is not True:
        yield "T(k)_covers is not true"
    if row["pathdisc_rounds"] < row["D"] or row["T(k)_rounds"] < row["D"]:
        yield f"all-to-all faster than the diameter D={row['D']}"
    if not _close(row["speedup_vs_naive"], row["naive_rounds"] / row["T(k)_rounds"]):
        yield "speedup_vs_naive is not naive_rounds / T(k)_rounds"
    if not _close(
        row["pathdisc/budget"], row["pathdisc_rounds"] / row["D·log²n·logD"]
    ):
        yield "pathdisc/budget is not pathdisc_rounds / (D·log²n·logD)"


def _winner(spanner: float, pushpull: float) -> set[str]:
    if spanner == pushpull:
        return {"spanner", "push-pull"}
    return {"spanner"} if spanner < pushpull else {"push-pull"}


def _e11(row: Row) -> Problems:
    analytic = _winner(row["bound_spanner"], row["bound_pushpull"])
    if row["analytic_winner"] not in analytic:
        yield f"analytic_winner={row['analytic_winner']} is not the smaller bound"
    if row["analytic_matches"] is not True or row["analytic_winner"] != row["expected"]:
        yield "analytic winner does not match the regime's expected branch"
    measured = _winner(row["measured_spanner"], row["measured_pushpull"])
    if row["measured_winner"] not in measured:
        yield f"measured_winner={row['measured_winner']} is not the faster run"
    if min(row["measured_spanner"], row["measured_pushpull"], row["unified_rounds"]) < 1:
        yield "a measured round count is below 1"


def _e12(row: Row) -> Problems:
    if row["regular(3s-1)"] is not True:
        yield "regular(3s-1) is not true"
    if row["ell*_is_ell"] is not True:
        yield "ell*_is_ell is not true"
    if not row["phi_1(sweep)"] < row["phi_ell(sweep)"] / row["ell"]:
        yield "φ_1 ≥ φ_ℓ/ℓ, so ℓ* would not be ℓ"
    if not _close(row["phi_cut/alpha"], row["phi_ell(C)"] / row["alpha"]):
        yield "phi_cut/alpha is not phi_ell(C)/alpha"


def _e13(row: Row) -> Problems:
    r1, r3 = row["rounds(ℓ=1)"], row["rounds(ℓ=3)"]
    if row["complete"] is not True:
        yield "complete is not true"
    if not 1 <= r1 <= r3:
        yield f"rounds(ℓ=1)={r1}, rounds(ℓ=3)={r3}: latency 3 ran faster than 1"
    if not _close(row["ℓ-scaling"], r3 / r1):
        yield "ℓ-scaling is not rounds(ℓ=3)/rounds(ℓ=1)"
    if not _close(row["iters/log n"], row["iterations"] / math.log2(row["n"])):
        yield "iters/log n is not iterations / log2(n)"


def _e14(row: Row) -> Problems:
    label, value, reference = row["ablation"], row["value"], row["reference"]
    if label.startswith("spanner k="):
        k = int(label.split("=", 1)[1])
        if reference != 2 * k - 1 or not 1 <= value <= reference:
            yield f"{label}: stretch {value} not within 2k-1={2 * k - 1}"
    elif label.startswith("RR broadcast"):
        if not 1 <= value <= reference:
            yield f"{label}: {value} rounds exceed the Lemma 15 budget {reference}"
    elif "push-only" in label:
        if value < reference:
            yield f"{label}: push-only star in {value} < n-1={reference} rounds"
    elif value < 1:
        yield f"{label}: value {value} < 1"


def _e15(row: Row) -> Problems:
    if row["pushpull_coverage"] != 1.0:
        yield f"{row['failure']}: push-pull coverage {row['pushpull_coverage']} ≠ 1"
    if not 0 < row["spanner_coverage"] <= 1:
        yield f"{row['failure']}: spanner coverage {row['spanner_coverage']} not in (0, 1]"


def _e16(row: Row) -> Problems:
    rejected = row["rejected_initiations"]
    if row["cap"] == "unbounded" and rejected != 0:
        yield f"{row['graph']}: {rejected} rejections without a cap"
    if rejected < 0 or row["rounds"] < 1:
        yield f"{row['graph']}: negative rejections or rounds < 1"


def _e17(row: Row) -> Problems:
    if row["pushpull_max_payload"] != 1:
        yield f"push-pull max payload {row['pushpull_max_payload']} ≠ 1"
    if row["dtg_max_payload"] != row["n"]:
        yield f"DTG max payload {row['dtg_max_payload']} ≠ n={row['n']}"
    if not _close(row["dtg_max/n"], row["dtg_max_payload"] / row["n"]):
        yield "dtg_max/n is not dtg_max_payload / n"


TABLE_CHECKS: dict[str, Callable[[Row], Problems]] = {
    f"E{i}": check
    for i, check in enumerate(
        (_e1, _e2, _e3, _e4, _e5, _e6, _e7, _e8, _e9, _e10, _e11, _e12, _e13,
         _e14, _e15, _e16, _e17),
        start=1,
    )
}


def check_table(table: Any) -> list[str]:
    """Problems with one experiment table (``[]`` when every row holds)."""
    eid = table.experiment_id
    check = TABLE_CHECKS.get(eid)
    if check is None:
        return [f"{eid}: no check defined"]
    if not table.rows:
        return [f"{eid}: empty table"]
    problems = []
    for index, row in enumerate(table.rows):
        try:
            problems += [f"{eid} row {index}: {msg}" for msg in check(row)]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{eid} row {index}: unreadable ({exc!r})")
    return problems


# ----------------------------------------------------------------------
# Vector-engine runs
# ----------------------------------------------------------------------

def _latency_matrix(graph: Any):
    """The graph as a symmetric scipy CSR matrix of edge latencies."""
    import numpy as np
    from scipy.sparse import coo_matrix

    us, vs, lats = graph.edge_arrays()
    n = graph.num_nodes
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    data = np.concatenate([lats, lats]).astype(np.float64)
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def eccentricities(graph: Any, sources: Sequence[int]) -> list[int]:
    """Weighted eccentricity of each dense-id source (scipy Dijkstra)."""
    import numpy as np
    from scipy.sparse.csgraph import dijkstra

    dist = dijkstra(_latency_matrix(graph), directed=False, indices=list(sources))
    dist = np.atleast_2d(dist)
    if not np.isfinite(dist).all():
        raise ValueError("graph is disconnected")
    return [int(round(d)) for d in dist.max(axis=1)]


def check_dissemination(result: Any, n: int, eccentricity: int) -> list[str]:
    """A completed push–pull run against lower bounds computed apart.

    Information crosses an edge of latency ℓ in no fewer than ℓ rounds,
    and the source's knowledge is read at round 0, so a run completing
    after ``rounds`` steps must satisfy ``rounds ≥ ecc + 1``.  Every node
    initiates at most once a round: ``exchanges ≤ n · rounds``.
    """
    problems = []
    if not result.complete:
        problems.append("run did not complete")
    if result.rounds < eccentricity + 1:
        problems.append(
            f"completed in {result.rounds} rounds, below eccentricity "
            f"{eccentricity} + 1"
        )
    if not 0 < result.exchanges <= n * result.rounds:
        problems.append(
            f"{result.exchanges} exchanges outside (0, n·rounds={n * result.rounds}]"
        )
    return problems


# ----------------------------------------------------------------------
# JSONL trace replay
# ----------------------------------------------------------------------

def edge_latencies(graph: Any) -> dict[tuple[int, int], int]:
    """``{(u, v): latency}`` over integer node labels with ``u < v``."""
    order = graph.nodes()
    us, vs, lats = graph.edge_arrays()
    out = {}
    for u, v, lat in zip(us.tolist(), vs.tolist(), lats.tolist()):
        a, b = order[u], order[v]
        out[(a, b) if a < b else (b, a)] = lat
    return out


def check_trace(
    lines: Any,
    latencies: dict[tuple[int, int], int],
    n: int,
    source: int,
    rounds: int,
) -> list[str]:
    """Replay a push–pull broadcast JSONL stream over integer-labelled nodes.

    Checks that each node initiates at most once a round over a real
    edge, that every delivery lands at ``initiated_at`` + the edge's
    latency on an exchange that was initiated and not yet delivered, and
    that coverage rebuilt under initiation-time snapshots (a node's
    payload is what it knew when the exchange started, deliveries of a
    round merging before that round's initiations) informs every node —
    the last of them in round ``rounds - 1``, since the run stops as
    soon as coverage is complete.  The stream's ``learned_by_*`` deltas
    must mark exactly the deliveries that inform a node.
    """
    problems: list[str] = []

    def fail(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    informed_at = {source: 0}
    open_exchanges: dict[tuple[int, int], tuple[int, int]] = {}
    initiations_per_round: dict[int, int] = {}
    last_round = -1
    for number, line in enumerate(lines, start=1):
        try:
            event = json.loads(line)
            kind, now = event["kind"], event["round"]
        except (ValueError, KeyError, TypeError) as exc:
            fail(f"line {number}: unreadable event ({exc!r})")
            continue
        if now < last_round:
            fail(f"line {number}: round {now} after round {last_round}")
        last_round = max(last_round, now)
        if kind == "initiate":
            u, v = event["initiator"], event["responder"]
            latency = latencies.get((min(u, v), max(u, v)))
            if latency is None:
                fail(f"line {number}: {u} contacts non-neighbor {v}")
                continue
            if event["latency"] != latency:
                fail(f"line {number}: latency {event['latency']} ≠ edge's {latency}")
            if (u, now) in open_exchanges:
                fail(f"line {number}: node {u} initiates twice in round {now}")
            open_exchanges[(u, now)] = (v, now + latency)
            initiations_per_round[now] = initiations_per_round.get(now, 0) + 1
        elif kind == "deliver":
            u, v, started = event["initiator"], event["responder"], event["initiated_at"]
            expected = open_exchanges.pop((u, started), None)
            if expected is None or expected[0] != v:
                fail(f"line {number}: delivery {u}->{v}@{started} was never initiated")
                continue
            if now != expected[1]:
                fail(
                    f"line {number}: delivered in round {now}, not initiated_at "
                    f"{started} + latency = {expected[1]}"
                )
            u_knew = u in informed_at and informed_at[u] <= started
            v_knew = v in informed_at and informed_at[v] <= started
            learns_v = u_knew and v not in informed_at
            learns_u = v_knew and u not in informed_at
            if learns_v:
                informed_at[v] = now
            if learns_u:
                informed_at[u] = now
            if event["learned_by_responder"] != int(learns_v) or (
                event["learned_by_initiator"] != int(learns_u)
            ):
                fail(f"line {number}: learned deltas disagree with the replay")
        elif kind == "round":
            if event["initiations"] != initiations_per_round.get(now, 0):
                fail(f"line {number}: round {now} summary miscounts initiations")
        else:
            fail(f"line {number}: unexpected event kind {kind!r}")
    if len(informed_at) != n:
        fail(f"replay informs {len(informed_at)} of {n} nodes")
    elif max(informed_at.values()) + 1 != rounds:
        last = max(informed_at.values())
        fail(
            f"replay informs the last node in round {last}, so the run should "
            f"report {last + 1} rounds, not {rounds}"
        )
    return problems
