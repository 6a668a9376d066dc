"""Bench-regression gate: fresh smoke numbers vs the committed baselines.

CI runs the suite benchmarks at smoke scale and compares each query's
**speedup ratio** against the corresponding entry in the committed
``BENCH_executor.json`` / ``BENCH_optimizer.json`` /
``BENCH_storage.json`` / ``BENCH_streaming.json``.  Ratios, not absolute milliseconds: the smoke
runs use a much smaller graph (and a different machine class) than the
committed reports, so wall times are incomparable, but "the batch
executor beats the tuple executor by ~2x on PageRank" is a property of
the code, and losing it is a regression worth failing CI over.

The tolerance band is deliberately generous (default: a measured
speedup may fall to ``baseline * 0.5 - 0.15`` before the gate fails)
because small graphs amplify constant overheads; the gate exists to
catch "the optimization stopped working", not 10% noise.  Result
identity (``identical``) is enforced exactly — that one is never noise.

Writes ``bench_regression_diff.json`` (per-query baseline vs measured,
with verdicts) for CI to upload as an artifact; exits 1 on any failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_regression_gate.py
    PYTHONPATH=src python benchmarks/bench_regression_gate.py \
        --scale 0.05 --ratio 0.5 --slack 0.15 --out diff.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: baseline file -> callable(scale) producing a fresh report of the
#: same shape (every results[] entry carries `query`, `speedup`,
#: `identical`).
SUITES = ("executor", "optimizer", "storage", "streaming")


def _run_suite(name: str, scale: float) -> dict[str, Any]:
    if name == "executor":
        from repro.bench.executor_bench import run_executor_bench
        return run_executor_bench(scale=scale, repeats=1)
    if name == "optimizer":
        from repro.bench.optimizer_bench import run_optimizer_bench
        return run_optimizer_bench(scale=scale, repeats=1)
    if name == "streaming":
        from repro.bench.streaming_bench import run_streaming_bench
        return run_streaming_bench(scale=scale, repeats=1)
    from repro.bench.storage_bench import run_storage_bench
    return run_storage_bench(scale=scale, repeats=1)


def _load_baseline(name: str) -> dict[str, Any]:
    path = os.path.join(ROOT, f"BENCH_{name}.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_suite(name: str, baseline: dict[str, Any],
                  fresh: dict[str, Any], ratio: float,
                  slack: float) -> list[dict[str, Any]]:
    """Per-query verdicts for one suite.

    A query passes when its fresh run produced identical results and its
    measured speedup stayed above ``baseline_speedup * ratio - slack``.
    Queries present only on one side are reported (and fail the gate) so
    a renamed workload can't silently drop out of coverage.
    """
    fresh_by_query = {r["query"]: r for r in fresh["results"]}
    rows: list[dict[str, Any]] = []
    for entry in baseline["results"]:
        query = entry["query"]
        measured = fresh_by_query.pop(query, None)
        row: dict[str, Any] = {
            "suite": name,
            "query": query,
            "baseline_speedup": entry["speedup"],
        }
        if measured is None:
            row.update(status="missing",
                       detail="query absent from the fresh run")
            rows.append(row)
            continue
        floor = entry["speedup"] * ratio - slack
        row.update(
            measured_speedup=measured["speedup"],
            floor=round(floor, 3),
            identical=measured["identical"],
        )
        if not measured["identical"]:
            row.update(status="diverged",
                       detail="fresh run results not identical")
        elif measured["speedup"] < floor:
            row.update(
                status="regressed",
                detail=(f"speedup {measured['speedup']:.3f}x fell below"
                        f" floor {floor:.3f}x"
                        f" (baseline {entry['speedup']:.3f}x)"))
        else:
            row.update(status="ok", detail="")
        rows.append(row)
    for query, measured in fresh_by_query.items():
        rows.append({
            "suite": name, "query": query, "status": "new",
            "measured_speedup": measured["speedup"],
            "detail": "query not in the committed baseline"
                      " (refresh BENCH_*.json)",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="smoke dataset scale (default 0.05)")
    parser.add_argument("--ratio", type=float, default=0.5,
                        help="fraction of the baseline speedup the fresh"
                             " run must retain (default 0.5)")
    parser.add_argument("--slack", type=float, default=0.15,
                        help="absolute slack subtracted from the floor"
                             " (default 0.15)")
    parser.add_argument("--out", default="bench_regression_diff.json",
                        help="where to write the diff artifact")
    parser.add_argument("--suites", nargs="*", choices=SUITES,
                        default=list(SUITES))
    args = parser.parse_args(argv)

    all_rows: list[dict[str, Any]] = []
    for name in args.suites:
        baseline = _load_baseline(name)
        print(f"[{name}] running smoke bench (scale={args.scale})...",
              flush=True)
        fresh = _run_suite(name, args.scale)
        all_rows.extend(compare_suite(name, baseline, fresh,
                                      args.ratio, args.slack))

    failures = [row for row in all_rows if row["status"] != "ok"]
    diff = {
        "scale": args.scale,
        "ratio": args.ratio,
        "slack": args.slack,
        "ok": not failures,
        "rows": all_rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(diff, handle, indent=2)
        handle.write("\n")

    width = max(len(f"{row['suite']}/{row['query']}") for row in all_rows)
    for row in all_rows:
        label = f"{row['suite']}/{row['query']}"
        baseline_speedup = row.get("baseline_speedup")
        measured = row.get("measured_speedup")
        print(f"  {label:<{width}}  "
              f"baseline={baseline_speedup if baseline_speedup is not None else '-':>6}"
              f"  measured={measured if measured is not None else '-':>6}"
              f"  {row['status'].upper()}"
              + (f"  {row['detail']}" if row["detail"] else ""))
    print(f"wrote {args.out}")
    if failures:
        print(f"bench regression gate FAILED"
              f" ({len(failures)} of {len(all_rows)} checks)",
              file=sys.stderr)
        return 1
    print(f"bench regression gate passed ({len(all_rows)} checks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
