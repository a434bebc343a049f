"""Steadiness check: run every workload ten times and compare spreads to bounds.

Usage, from the root of the repository::

    python3 perfbench/steady.py
    python3 perfbench/steady.py --baseline .perfbench_out/steady-1.json

Each workload of ``BENCHMARK.json`` runs once per seed 1–10 in its own
process, untraced, for ``run_seconds``.  For every end-to-end metric it
prints the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the quartile spread as a share of the median,
against the metric's bound; a spread under a third of the bound is
steady.  With ``--baseline`` (an earlier output of this command) each
median is also compared with the baseline's median.  The result, with
the Python and numpy versions, ``nproc`` and the git revision, is
written as JSON to ``--out``.  Exits 1 if a spread or a median shift
exceeds its bound, or a failed-operation share changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs import git_revision  # noqa: E402

#: Every workload runs once with each of these seeds.
SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="an earlier JSON output to compare medians with")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "steady.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = json.load(open(args.baseline, encoding="utf-8")) if args.baseline else None
    report = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "revision": git_revision() or "unknown",
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, bench["run_seconds"]) for seed in report["seeds"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: {attempted} operations, {failed} failed, "
              f"correct={entry['correct']}")
        ok &= entry["correct"]
        prior = baseline["workloads"].get(workload) if baseline else None
        if prior is not None and prior["failed_share"] != entry["failed_share"]:
            print(f"  failed share changed: {prior['failed_share']} -> {entry['failed_share']}")
            ok = False
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = stats
            verdict = "steady" if stats["spread"] < bound / 3 else (
                "within bound" if stats["spread"] <= bound else "OUT OF BOUND")
            if stats["spread"] > bound:
                ok = False
            line = (f"  {name:16s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}"
                    f"  q3 {stats['q3']:12.6g}  spread {stats['spread']:7.2%}"
                    f"  bound {bound:.0%}  {verdict}")
            if prior is not None:
                before = prior["metrics"][name]["median"]
                shift = (stats["median"] - before) / before
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = shift if better == "lower" else -shift
                line += f"  vs baseline {shift:+.2%}"
                if worse > bound:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line)
            print("    runs: " + " ".join(f"{v:.4g}" for v in stats["values"]))
        report["workloads"][workload] = entry
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=2)
    print(f"python {report['python']}, numpy {report['numpy']}, nproc {report['nproc']}, "
          f"revision {report['revision']}; written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
