"""Tests of the benchmark's own arithmetic and a smoke run of each workload.

Run with ``python -m pytest benchmarks/e2e -q``; tier-1 does not collect
this directory.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import trace  # noqa: E402


def span(name, parent, start, end, size=0):
    return [name, parent, start, end, size]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span("cycle", -1, 0.0, 10.0),
        span("recursive.loop", 0, 1.0, 9.0),
        span("physical.join", 1, 2.0, 5.0, size=7),
        span("columnar.decode", 2, 3.0, 4.0),
        span("physical.join", 1, 6.0, 8.0, size=5),
    ]
    assert trace.self_times(spans) == [2.0, 3.0, 2.0, 1.0, 2.0]
    totals = trace.aggregate(spans)
    assert totals["physical.join"] == {"self_s": 4.0, "calls": 2, "size": 12}
    # every second of the root is attributed exactly once
    assert sum(entry["self_s"] for entry in totals.values()) == 10.0


def test_rows_handed_to_aggregates_skip_non_operator_spans():
    operators = ("physical.join", "physical.aggregate", "physical.other")
    spans = [
        span("physical.aggregate", -1, 0, 9, size=3),
        span("columnar.decode", 0, 1, 2, size=99),
        span("physical.join", 1, 1, 2, size=40),      # via a decode span
        span("physical.join", 2, 1, 2, size=1000),    # the join's own input
        span("physical.other", -1, 9, 10, size=8),    # not under an aggregate
    ]
    assert trace.child_sizes(spans, "physical.aggregate", operators) == 40


def test_recorder_wraps_restores_and_keeps_results():
    class Thing:
        def double(self, x):
            return [x, x]

        @classmethod
        def make(cls):
            return cls()

    module = type(sys)("fake_layer")
    module.Thing = Thing
    sys.modules["fake_layer"] = module
    try:
        recorder = trace.Recorder()
        missing = recorder.install((("fake_layer", "Thing.double", "t.double"),
                                    ("fake_layer", "Thing.make", "t.make"),
                                    ("fake_layer", "Thing.gone", "t.gone")))
        assert missing == ["fake_layer:Thing.gone"]
        scope = recorder.open("cycle")
        assert Thing.make().double(4) == [4, 4]
        scope.close()
        recorder.uninstall()
        Thing().double(1)
    finally:
        del sys.modules["fake_layer"]
    names = [s[trace.NAME] for s in recorder.spans]
    assert names == ["cycle", "t.make", "t.double"]
    assert recorder.spans[2][trace.PARENT] == 0
    assert recorder.spans[2][trace.SIZE] == 2


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(99) is None
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(199) == 90
    assert harness.tail_percentile(200) == 95
    assert harness.tail_percentile(1000) == 99
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert harness.percentile([0.0, 10.0], 90) == 9.0


def test_calibration_normalisation_pairs_each_cycle_with_its_neighbours():
    assert harness.calibrated(1.0, 0.1, 0.3) == pytest.approx(5.0)

    class FakeRunner:
        def __init__(self, seconds):
            self.seconds = seconds

        def run_cycle(self):
            now[0] += self.seconds
            return {"q": self.seconds}

        def check(self):
            pass

    now = [0.0]
    calibrations = iter([0.1, 0.2, 0.4, 0.8, 1.6, 3.2])

    def calibration():
        now[0] += 0.05
        return next(calibrations)

    samples, values = harness.measure(
        {"best": FakeRunner(1.0), "default": FakeRunner(2.0)}, seconds=3.0,
        min_best=2, clock=lambda: now[0], calibration=calibration)
    # one triple (best, best, default); every cycle is older than the
    # calibration age limit, so each gets its own before and after
    assert samples["best"].cycle_s == [1.0, 1.0]
    assert samples["default"].cycle_s == [2.0]
    assert values == [0.1, 0.2, 0.4, 0.8]
    assert samples["best"].cycle_cal == pytest.approx(
        [1.0 / 0.15, 1.0 / 0.3])
    assert samples["default"].cycle_cal == pytest.approx([2.0 / 0.6])


def test_profile_kwargs_follow_the_engine_signature():
    class Today:
        def __init__(self, dialect="oracle", executor="tuple",
                     optimizer="off", storage=None, parallel=None):
            pass

    class AfterItemTwo:  # defaults flipped, executor knob deleted
        def __init__(self, dialect="oracle", storage="columnar"):
            pass

    assert harness.effective_kwargs("best", Today) == {
        "executor": "batch", "optimizer": "cost", "storage": "columnar"}
    assert harness.effective_kwargs("best", AfterItemTwo) == {
        "storage": "columnar"}
    assert harness.effective_kwargs("default", Today) == {}


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [row[:3]
                                            for row in layers.PER_LAYER]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def session_members(session: int) -> list[str]:
    """Command lines of the processes (zombies too) in *session*."""
    found = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == session:  # state ppid pgrp session ...
                found.append((stat.parent / "cmdline").read_text()
                             .replace("\0", " ") or f"[{stat.parent.name}]")
        except (OSError, IndexError, ValueError):
            continue  # gone while we looked
    return found


def run_child(workload: str, trace_flag: int) -> dict:
    """One contract-mode run in a session of its own, so that whatever it
    leaves running (pool workers, a resource tracker) can be found."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace_flag)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, out + err
    assert session_members(child.pid) == [], "run left a process behind"
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["fixpoint_agg", "closure_pattern",
                                      "adhoc_sql", "ingest_refresh"])
def test_smoke_run_reports_every_metric(workload):
    """400-node inputs, 2 cycles, traced run included: correctness and
    metric presence only — no timing gates."""
    for trace_flag, catalogue in ((0, layers.END_TO_END),
                                  (1, layers.PER_LAYER)):
        result = run_child(workload, trace_flag)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [row[0] for row in catalogue]
        for name, unit, *_ in catalogue:
            entry = result["metrics"][name]
            assert entry["unit"] == unit, name
            assert math.isfinite(entry["value"]), name
        if trace_flag == 0:
            assert all(e["value"] > 0 for e in result["metrics"].values())
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["bench.trace_coverage"] >= 0.9
        streaming = [v for k, v in values.items()
                     if k.startswith("streaming.")]
        if workload == "ingest_refresh":
            assert values["streaming.apply_self_ms"] > 0
            assert values["streaming.incremental_share"] > 0
        else:
            assert not any(streaming)
        if workload == "adhoc_sql":
            assert not any(v for k, v in values.items()
                           if k.startswith(("recursive.", "strategies.")))
        owned = [k for k, v in values.items()
                 if k.startswith("stmt.") and v > 0]
        assert owned, "no per-statement medians reported"
