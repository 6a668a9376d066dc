"""The repo's benchmark: four workloads, two engine profiles, a traced run.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` measures ONE workload in this process and prints one JSON
  object as the last line of stdout (``BENCHMARK.json``'s contract).
  ``--trace 0`` reports the end-to-end metrics with no tracing code even
  imported; ``--trace 1`` repeats the untraced loop as its baseline, then
  installs ``trace.py`` and reports the per-layer metrics.
* ``python3 benchmarks/e2e/run.py [--seed 2026] [--scale S]
  [--workload W] [--smoke] [--record]`` runs both of the above for every
  workload, each in its own child process, prints the report and writes
  ``results/latest.json`` (``--record`` also appends ``trajectory.jsonl``).

Every workload is a closed loop: one client, one thread, in-process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from harness import (MIN_BEST_CYCLES, PROFILES, Samples,  # noqa: E402
                     effective_kwargs, measure, percentile, tail_percentile)
from layers import END_TO_END, PER_LAYER, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
TRAJECTORY = HERE / "trajectory.jsonl"

#: Scale of the gated runs.  ``--scale 1.0`` is the ISSUE's macro tier
#: (10k-node fixpoints, 7 s default cycles); 92 driver runs in 3420 s
#: leave about 35 s per run, which this fits with its set-ups.
DEFAULT_SCALE = 0.2
DEFAULT_SECONDS = 12
SMOKE_SCALE = 0.04
#: Inputs (sub-seeds) per run; each is set up once and measured for its
#: share of ``--seconds``.  ``setup_s`` is the median of the set-ups.
ROUNDS = 5
NOISY_CALIBRATION_SPREAD = 1.25


def timed_setup(workload) -> tuple[dict, float]:
    gc.collect()
    started = time.perf_counter()
    runners = workload.setup()
    return runners, time.perf_counter() - started


class Tally:
    """Operations attempted and failed, over every round of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def close(self, runners: dict) -> None:
        """End-of-round checks.  best and default must return the same
        values, not just both pass their tolerance against the reference."""
        best, default = runners["best"].verified, runners["default"].verified
        for name in best:
            self.attempted += 1
            if name in default and best[name] != default[name]:
                self.failed += 1
                self.failures.append(
                    f"{name}: best and default results differ")
        for runner in runners.values():
            runner.finish()
            self.attempted += runner.attempted
            self.failed += runner.failed
            self.failures.extend(runner.failures)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload, this process (the contract's mode) --------------------------


def run_rounds(args, tally: Tally):
    """The untraced measurement: ``rounds`` times (generate inputs from a
    sub-seed, set up, run the closed loop for its share of ``--seconds``).

    Several inputs per run, because how much work a random graph holds
    (fixpoint depth, triangle count) varies by 7-20 % from seed to seed;
    pooling the cycles of five inputs keeps a run's medians within a few
    percent of the next seed's.  The set-ups double as the repeated
    ``setup_s`` samples.  Returns the last round's workload, runners
    (still open, for the traced run) and samples, and the metrics of the
    pooled loop.
    """
    rounds = 1 if args.smoke else ROUNDS
    pooled = {profile: Samples() for profile in PROFILES}
    calibrations: list[float] = []
    setups: list[float] = []
    loads: list[float] = []
    work = dict.fromkeys(PROFILES, 0.0)
    runners = None
    for index in range(rounds):
        if runners is not None:
            tally.close(runners)
        workload = WORKLOADS[args.workload](
            args.seed * ROUNDS + index, args.scale, index)
        workload.compute_references()
        runners, setup_s = timed_setup(workload)
        setups.append(setup_s)
        loads.append(runners["best"].load_s)
        samples, values = measure(runners, args.seconds / rounds,
                                  min_best=2 if args.smoke else
                                  -(-MIN_BEST_CYCLES // rounds))
        calibrations.extend(values)
        for profile, record in samples.items():
            pooled[profile].extend(record)
            work[profile] += (workload.work_per_cycle(runners[profile])
                              * len(record.cycle_s))
    best, default = pooled["best"], pooled["default"]
    metrics = {
        "setup_s": median(setups),
        "op_s.p50": median(best.cycle_s),
        "op_cal.p50": median(best.cycle_cal),
        "default_op_s.p50": median(default.cycle_s),
        "default_op_cal.p50": median(default.cycle_cal),
        "peak_rss_mb": peak_rss_mb(),
        "op_s.samples": len(best.cycle_s),
        "default_op_s.samples": len(default.cycle_s),
        "work_per_s": work["best"] / sum(best.cycle_s),
        "default_work_per_s": work["default"] / sum(default.cycle_s),
        "algorithms.load_ms": median(loads) * 1000.0,
        "bench.calib_ms.p50": median(calibrations) * 1000.0,
        "bench.calib_spread": (percentile(calibrations, 75)
                               / percentile(calibrations, 25)),
    }
    for profile, record in pooled.items():
        for name, values in record.statement_s.items():
            metrics[f"stmt.{name}.{profile}_ms"] = median(values) * 1000.0
    if args.workload == "adhoc_sql":
        every = [value for values in best.statement_s.values()
                 for value in values]
        if tail_percentile(len(every)) is not None:  # >= 10 samples beyond
            metrics["stmt.adhoc.p90_ms"] = percentile(every, 90) * 1000.0
    print(f"# {workload.name} seed={args.seed} scale={args.scale}"
          f" rounds={rounds} last-round sizes={workload.sizes}"
          f" cycles={len(best.cycle_s)}+{len(default.cycle_s)}"
          f" work unit={workload.work_unit}")
    return workload, runners, samples, metrics


def run_traced(workload, runners, samples, metrics: dict) -> None:
    """The per-layer run: ``traced_cycles`` more ``best`` cycles with the
    span table installed, then the yardsticks that need their own engine.
    Ratios are taken against the untraced medians of the same input (the
    last round's), not the pooled ones."""
    from layers import traced_metrics
    from trace import Recorder

    best = runners["best"]
    cycle_s = median(samples["best"].cycle_s)
    recorder = Recorder()
    missing = recorder.install()
    best.around = lambda name: recorder.open(f"stmt:{name}")
    try:
        for _ in range(workload.traced_cycles):
            gc.collect()
            scope = recorder.open("cycle")
            best.run_cycle()
            scope.close()
            best.check()
    finally:
        best.around = None
        recorder.uninstall()
    metrics.update(traced_metrics(recorder.spans, recorder.kept,
                                  workload.traced_cycles))
    metrics["bench.trace_overhead_x"] = (
        metrics["bench.traced_cycle_ms"] / 1000.0 / cycle_s)
    size, rows = best.resident()
    metrics["columnar.resident_bytes"] = float(size)
    metrics["columnar.bytes_per_row"] = size / rows if rows else 0.0
    metrics["table.resident_bytes.default"] = float(
        runners["default"].resident()[0])

    telemetry = trial_runner(workload, telemetry="on")
    if telemetry is not None:
        metrics["observability.telemetry_on_x"] = (
            median_seconds(telemetry.run_cycle) / cycle_s)
    if workload.name == "fixpoint_agg":
        pagerank_s = median(samples["best"].statement_s["pr"])
        metrics.update(gas_yardstick(workload, pagerank_s))
        metrics.update(parallel_trial(workload, pagerank_s))
    RESULTS.mkdir(exist_ok=True)
    recorder.dump(RESULTS / f"trace-{workload.name}.json")
    if missing:
        print("span table entries no longer found:", ", ".join(missing))


def trial_runner(workload, **extra):
    """A loaded ``best`` runner whose engines also take *extra*, or None
    when ``Engine`` no longer accepts that knob."""
    import inspect

    from repro.relational import Engine

    if not set(extra) <= set(inspect.signature(Engine.__init__).parameters):
        return None
    workload.engine_kwargs = extra
    try:
        return workload.load("best", workload.generate())
    finally:
        workload.engine_kwargs = {}


def median_seconds(fn, repeats: int = 3) -> float:
    """Median wall seconds of *fn* after one warm-up call."""
    fn()
    values = []
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        fn()
        values.append(time.perf_counter() - started)
    return median(values)


def gas_yardstick(workload, pagerank_s: float) -> dict:
    """The paper's Fig 11 yardstick: the in-repo GAS engine on the same
    graph, median of 5."""
    from repro.graphsystems import gas

    graph = workload.generate()
    programs = {
        "pr": lambda: gas.pagerank(graph, 0.85, workload.PR_ITERATIONS),
        "wcc": lambda: gas.wcc(graph),
        "sssp": lambda: gas.sssp(graph, workload.SOURCE),
    }
    out = {}
    for name, program in programs.items():
        values = []
        for _ in range(5):
            gc.collect()
            started = time.perf_counter()
            program()
            values.append(time.perf_counter() - started)
        out[f"graphsystems.gas_{name}_s"] = median(values)
    out["graphsystems.vs_gas_pr_x"] = (
        pagerank_s / out["graphsystems.gas_pr_s"])
    return out


def parallel_trial(workload, pagerank_s: float) -> dict:
    """One PageRank statement on 2 workers over the same serial: the
    number ROADMAP item 2b decides on.  Zeros if the knob is gone."""
    out = {"parallel.pr_x": 0.0, "parallel.shipped_bytes": 0.0}
    runner = trial_runner(workload, parallel=2)
    if runner is None:
        return out
    try:
        out["parallel.pr_x"] = (
            median_seconds(runner.statements[0].run) / pagerank_s)
        out["parallel.shipped_bytes"] = float(runner.engines[0].metrics.gauge(
            "repro_parallel_exchange_bytes", direction="sent").value)
    finally:
        stop_children()
    return out


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended:
    the parallel trial's forked workers, and the resource tracker that
    ``multiprocessing`` spawns beside the first shared-memory shipment.
    The tracker only exits once its parent's pipe closes, so unless it is
    stopped by hand it is still running when this process has gone."""
    parallel = sys.modules.get("repro.relational.parallel")
    if parallel is not None:
        parallel.WorkerPool.close_all()
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for process in multiprocessing.active_children():
            process.kill()
            process.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes the pipe, then waitpid


def run_child(args) -> int:
    tally = Tally()
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = dict.fromkeys((row[0] for row in catalogue), 0.0)
    workload, runners, samples, measured = run_rounds(args, tally)
    metrics.update(measured)
    if args.trace:
        run_traced(workload, runners, samples, metrics)
    tally.close(runners)
    for name, unit, *_ in catalogue:
        print(f"{name:36s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        for name in ("op_s.p50", "default_op_s.p50"):
            print(f"{name:36s} {metrics[name]:.6g} s (not gated)")
    print(f"{'ops_failed':36s} {tally.failed} of {tally.attempted}")
    for line in tally.failures[:20]:
        print("FAILED", line)
    noisy = metrics["bench.calib_spread"] > NOISY_CALIBRATION_SPREAD
    print(f"noisy: {str(noisy).lower()}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in catalogue},
    }))
    return 0 if tally.failed == 0 else 1


# -- all workloads, child processes (the report) -------------------------------


def spawn(args, workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace} printed no result"
                         f" (exit {done.returncode})")
    result["log"] = [line for line in lines[:-1]
                     if line.startswith(("#", "FAILED", "noisy", "span"))]
    return result


def print_report(name: str, untraced: dict, traced: dict) -> None:
    print(f"\n== {name} ==")
    for line in dict.fromkeys(untraced["log"] + traced["log"][1:]):
        print(line)
    print("end to end (tracing off):")
    for metric, entry in untraced["metrics"].items():
        print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'ops_failed':34s} {untraced['failed'] + traced['failed']}"
          f" of {untraced['attempted'] + traced['attempted']}")
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    cycle_ms = values["bench.traced_cycle_ms"]
    print(f"per layer (traced best cycle, {cycle_ms:.1f} ms;"
          f" share = self time / traced cycle):")
    shares: dict[str, float] = {}
    for metric, entry in traced["metrics"].items():
        if entry["unit"] == "ms" and not metric.startswith(("stmt.", "bench.",
                                                            "algorithms.")):
            shares[layer_of(metric)] = shares.get(layer_of(metric), 0.0) \
                + entry["value"]
    for layer, ms in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {layer:14s} {ms:10.2f} ms {ms / cycle_ms:7.1%}")
    print(f"  {'(accounted)':14s} {sum(shares.values()):10.2f} ms"
          f" {values['bench.trace_coverage']:7.1%}")
    print("per-layer metrics:")
    for metric, entry in traced["metrics"].items():
        if entry["value"] or not metric.startswith("stmt."):
            print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")


def orchestrate(args) -> int:
    from repro.relational import Engine

    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {
        "commit": git_commit(), "date": time.strftime("%Y-%m-%d"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "profiles": {p: effective_kwargs(p, Engine) for p in PROFILES},
        "workloads": {},
    }
    failed = 0
    for name in names:
        untraced = spawn(args, name, 0)
        traced = spawn(args, name, 1)
        print_report(name, untraced, traced)
        failed += untraced["failed"] + traced["failed"]
        report["workloads"][name] = {
            "ops": untraced["attempted"] + traced["attempted"],
            "ops_failed": untraced["failed"] + traced["failed"],
            "end_to_end": {k: v["value"]
                           for k, v in untraced["metrics"].items()},
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.record:
        line = {key: report[key] for key in (
            "commit", "date", "nproc", "python", "seed", "scale", "seconds",
            "profiles")}
        line["end_to_end"] = {
            name: dict(entry["end_to_end"], ops_failed=entry["ops_failed"],
                       **{key: entry["per_layer"][key]
                          for key in ("op_s.p50", "default_op_s.p50")})
            for name, entry in report["workloads"].items()}
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    print(f"\nwrote {RESULTS / 'latest.json'}"
          + (f" and appended {TRAJECTORY}" if args.record else ""))
    return 0 if failed == 0 else 1


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload in this process")
    parser.add_argument("--scale", type=float, default=None,
                        help="input size; 1.0 = the ISSUE's macro tier")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.04, 2 cycles, no timing meaning")
    parser.add_argument("--record", action="store_true",
                        help="append this run to trajectory.jsonl")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else DEFAULT_SECONDS
    if args.trace is None:
        return orchestrate(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    try:
        return run_child(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
