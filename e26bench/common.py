"""Shared pieces of the E26 workloads: timing, statistics, hygiene, results.

Nothing here imports the program under test (helpers take its objects as
arguments); the workloads import it after ``run.py`` has pointed
``sys.path`` at the checkout's ``src``.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Span files of traced runs (listed in the root .gitignore).
TRACE_DIR = HERE / "traces"
#: Parent of every run's scratch directory (result stores); removed per run.
SCRATCH_DIR = HERE / "scratch"

NPROC = os.cpu_count() or 1


#: End-to-end figures outside the bounded metrics: printed for people on
#: every run and reported among the per-layer metrics of traced runs.  All
#: but ``hit_p50_ms`` apply to one workload only (0 on the others);
#: ``hit_p50_ms`` and ``hit_p99_ms`` do not repeat within a bound on a
#: shared host (see README.md).
FIGURES = (
    "points_per_s", "process_batch_s", "exact_p50_ms", "adaptive_p50_ms", "stream_p50_s",
    "hit_p50_ms", "hit_p99_ms",
)


def trace_dir(workload: str, seed: int) -> Path:
    return TRACE_DIR / f"{workload}-seed{seed}-{os.getpid()}"


def finish_figures(outcome: "Outcome", traced: bool) -> None:
    """Copy the figures into the per-layer metrics of a traced run."""
    if traced:
        for name in FIGURES:
            outcome.metrics[f"e2e.{name}"] = outcome.notes.get(name, 0.0)


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def median_of_medians(groups) -> float:
    """Median over groups of each group's median latency.

    Hits on different answers cost different amounts; pooled, an even
    number of equal-sized groups puts the median on the boundary between
    two of them, where it follows their tails rather than their centres.
    """
    return median([median(group) for group in groups])


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def coverage_ok(inside: int, total: int, delta: float) -> bool:
    """The calibration auditor's rule: inside >= (1-δ)n - 3σ.

    σ is the binomial standard deviation of the inside count when every
    estimate independently lands in its band with probability 1-δ, so a
    correct estimator fails this check with probability well under 1%.
    """
    if total == 0:
        return True
    sigma = math.sqrt(total * delta * (1.0 - delta))
    return inside >= (1.0 - delta) * total - 3.0 * sigma


def in_band(value: float, truth: float, epsilon: float, truth_se: float = 0.0) -> bool:
    """Does ``value`` lie in the (1±ε) band around ``truth``?

    ``truth_se`` widens the band by three standard errors of a reference
    that is itself an estimate (the random polytopes' hit-or-miss volumes).
    """
    slack = 3.0 * truth_se
    return (1.0 - epsilon) * (truth - slack) <= value <= (1.0 + epsilon) * (truth + slack)


def share_ok(count: int, total: int, share: float, epsilon: float) -> bool:
    """Uniformity test for an almost uniform generator.

    An ε-uniform generator puts between (1-ε)p and (1+ε)p of its mass in a
    region of true share p.  The observed share passes when it lies within
    four binomial standard errors of that interval: for a generator meeting
    its contract the false-alarm rate is below 4e-5 per test.
    """
    low = share * (1.0 - epsilon)
    high = min(1.0, share * (1.0 + epsilon))
    observed = count / total
    low_bound = low - 4.0 * math.sqrt(max(low * (1.0 - low), 1e-12) / total)
    high_bound = high + 4.0 * math.sqrt(max(high * (1.0 - high), 1e-12) / total)
    return low_bound <= observed <= high_bound


def halfspaces(relation):
    """``(a, b)`` with the single convex disjunct of ``relation`` = {a x <= b}.

    Reads the relation's own float system (its input, not its geometry);
    every reference computation on it happens in :mod:`e26bench.truths`.
    """
    (disjunct,) = relation.disjuncts
    rows, offsets, _ = disjunct.float_system()
    return rows.copy(), -offsets.copy()


def gis_difference_pairs(database, count: int, rng):
    """``count`` distinct (district, feature, district halfspaces, feature halfspaces).

    Each is a district of the GIS map minus a zone or corridor covering less
    than half of it, so the difference stays a large part of the district.
    Pairs where the feature covers at least 5% of the district come first,
    in an order drawn from ``rng``.
    """
    from e26bench import truths

    candidates = []
    names = sorted(database.names())
    for district in (n for n in names if n.startswith("district_")):
        a_d, b_d = halfspaces(database.relation(district))
        area = truths.convex_volume(a_d, b_d)
        for feature in (n for n in names if n.startswith(("zone_", "corridor_"))):
            a_f, b_f = halfspaces(database.relation(feature))
            shared = truths.convex_volume(np.vstack([a_d, a_f]), np.concatenate([b_d, b_f]))
            if shared < 0.5 * area:
                candidates.append((shared >= 0.05 * area, (district, feature, (a_d, b_d), (a_f, b_f))))
    order = rng.permutation(len(candidates))
    ranked = sorted((candidates[i] for i in order), key=lambda item: not item[0])
    if len(ranked) < count:
        raise ValueError(f"the GIS map has only {len(ranked)} usable differences")
    return [pair for _, pair in ranked[:count]]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_resource_tracker() -> None:
    """Stop (and reap) multiprocessing's resource tracker if one was started.

    Publishing shared memory starts the tracker as a child process; left
    alone it outlives the benchmark as a defunct child until the parent's
    exit closes its pipe.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_children() -> None:
    """Wait for any child process that has exited but was not reaped."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class ScratchDir:
    """A fresh temporary directory inside the checkout, deleted on exit."""

    def __enter__(self) -> Path:
        SCRATCH_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_DIR))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Figures printed for people, outside the JSON result line.
    notes: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(passed), detail))
        return passed

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def report_checks(self, stream=sys.stderr) -> None:
        for name, passed, detail in self.checks:
            if not passed:
                print(f"CHECK FAILED: {name}: {detail}", file=stream)
