"""Engine profiles, the closed measurement loop and its statistics.

Everything here is workload-agnostic: a workload (see ``workloads.py``)
hands the loop one object per profile whose ``run_cycle`` executes the
fixed statement list once and returns per-statement seconds.
"""

from __future__ import annotations

import gc
import inspect
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from calib import calibrate

#: The two engine profiles.  ``default`` is what ``Engine("oracle")`` gives
#: a user; ``best`` is the fastest identity-verified configuration.
PROFILES: dict[str, dict[str, str]] = {
    "best": {"executor": "batch", "optimizer": "cost",
             "storage": "columnar"},
    "default": {},
}

#: Interleaving of profiles inside the measurement loop: host drift hits
#: both alike, and ``best`` (the gated profile) gets two samples in three.
PATTERN = ("best", "best", "default")

#: A calibration older than this is re-taken before the next cycle, so
#: long cycles are calibrated before and after each one, and sub-100 ms
#: cycles share one calibration between a few neighbours.
CALIBRATION_MAX_AGE_S = 0.2

#: The ISSUE's floor on ``best`` samples, whatever ``--seconds`` says.
MIN_BEST_CYCLES = 10


def effective_kwargs(profile: str, engine_cls) -> dict[str, str]:
    """The profile's keyword arguments that *engine_cls* still accepts.

    A later change may flip a default or delete a knob; the benchmark then
    keeps running unedited and the two profiles simply converge."""
    accepted = inspect.signature(engine_cls.__init__).parameters
    return {key: value for key, value in PROFILES[profile].items()
            if key in accepted}


def make_engine(profile: str, **extra):
    """A fresh engine for *profile*.  *extra* kwargs are passed as they
    are: the telemetry and parallel trials check for the knob themselves,
    because silently dropping it would measure the wrong thing."""
    from repro.relational import Engine

    return Engine("oracle", **effective_kwargs(profile, Engine), **extra)


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0..100), linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> int | None:
    """The highest of p90/p95/p99 with at least ten samples beyond it, or
    None when even p90 has fewer (then only the median is reported)."""
    for q in (99, 95, 90):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return None


def calibrated(seconds: float, before: float, after: float) -> float:
    """Cycle seconds in calibration units: divided by the mean of the
    calibration seconds measured just before and just after it."""
    return seconds / ((before + after) / 2.0)


# -- the measurement loop ------------------------------------------------------


@dataclass
class Samples:
    """What the loop recorded for one profile."""

    cycle_s: list[float] = field(default_factory=list)
    cycle_cal: list[float] = field(default_factory=list)
    #: statement name -> seconds, one entry per cycle
    statement_s: dict[str, list[float]] = field(default_factory=dict)
    # (start, end) wall stamps of each cycle, for calibration pairing
    _stamps: list[tuple[float, float]] = field(default_factory=list)

    def extend(self, other: "Samples") -> None:
        """Pool another round's cycles into this record."""
        self.cycle_s.extend(other.cycle_s)
        self.cycle_cal.extend(other.cycle_cal)
        for name, values in other.statement_s.items():
            self.statement_s.setdefault(name, []).extend(values)


def measure(runners: dict, seconds: float, min_best: int = MIN_BEST_CYCLES,
            clock=time.perf_counter, calibration=calibrate
            ) -> tuple[dict[str, Samples], list[float]]:
    """Run interleaved cycles for *seconds* (and at least *min_best*
    ``best`` cycles); returns per-profile samples and every calibration.

    ``gc.collect()`` runs before each cycle outside the timer; the
    collector stays enabled inside it.  Result checking happens in the
    runner's ``check`` after the clock stopped.
    """
    samples = {profile: Samples() for profile in runners}
    cal_stamps: list[float] = []
    cal_values: list[float] = []

    def take_calibration() -> None:
        cal_values.append(calibration())
        cal_stamps.append(clock())

    started = clock()
    position = 0
    while True:
        profile = PATTERN[position % len(PATTERN)]
        if position % len(PATTERN) == 0 \
                and clock() - started >= seconds \
                and len(samples["best"].cycle_s) >= min_best:
            break
        position += 1
        if profile not in runners:
            continue
        runner = runners[profile]
        gc.collect()
        if not cal_stamps or clock() - cal_stamps[-1] > CALIBRATION_MAX_AGE_S:
            take_calibration()
        begin = clock()
        per_statement = runner.run_cycle()
        end = clock()
        record = samples[profile]
        # A cycle is its statements: the sum leaves out the few
        # microseconds of harness glue between them (and, in the
        # streaming workload, drawing the next batches from the seed).
        record.cycle_s.append(sum(per_statement.values()))
        record._stamps.append((begin, end))
        for name, value in per_statement.items():
            record.statement_s.setdefault(name, []).append(value)
        runner.check()
    take_calibration()
    for record in samples.values():
        for (begin, end), value in zip(record._stamps, record.cycle_s):
            before = cal_values[max(bisect_right(cal_stamps, begin) - 1, 0)]
            after = cal_values[min(bisect_left(cal_stamps, end),
                                   len(cal_values) - 1)]
            record.cycle_cal.append(calibrated(value, before, after))
    return samples, cal_values
