"""Workload ``telescoping``: cold 5-D and 6-D volume requests, one per batch.

Each round asks, through one ``ServiceSession.submit_batch`` call each, for
the volume of a 5-D unit cube, the standard 5-D simplex, the 5-D
cross-polytope, a random 6-D polytope (the cube [-1, 1]^6 cut by 30 random
tangent halfspaces) and a skewed 0.05 x 1 x 1 x 1 x 20 box, at ε = 0.25 and
δ = 0.15.  All five take the telescoping route, where the hit-and-run walk
does almost all of the work.  Every successful answer is then asked for
again a hundred times (cache hits).

The skewed box is a counted failure: Chebyshev rounding leaves it badly
rounded and the estimate falls far outside the ±ε band (true volume 1).
Its request seed is fixed, so it fails the same way on every run.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from e26bench import common, trace, truths

EPSILON = 0.25
DELTA = 0.15
DIMENSION = 5
RANDOM_DIMENSION = 6
RANDOM_CUTS = 30
SKEW_SIDES = (0.05, 1.0, 1.0, 1.0, 20.0)
SKEW_SEED = 1
HIT_REPEATS = 100
REFERENCE_SAMPLES = 2_000_000

X = [f"x{i + 1}" for i in range(DIMENSION)]
Y = [f"y{i + 1}" for i in range(RANDOM_DIMENSION)]


def _linear(coefficients, names) -> str:
    """The linear form as constraint text, e.g. ``0.5000*x1 - 0.2500*x2``."""
    text = " + ".join(f"{c:.4f}*{name}" for c, name in zip(coefficients, names) if c != 0)
    return text.replace("+ -", "- ")


def random_polytope(rng) -> tuple[np.ndarray, np.ndarray, str]:
    """[-1, 1]^6 cut by random halfspaces tangent to the radius-1/2 sphere."""
    normals = rng.normal(size=(RANDOM_CUTS, RANDOM_DIMENSION))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.round(normals, 4)
    a = np.vstack([np.eye(RANDOM_DIMENSION), -np.eye(RANDOM_DIMENSION), normals])
    b = np.concatenate([np.ones(2 * RANDOM_DIMENSION), np.full(RANDOM_CUTS, 0.5)])
    parts = [f"-1 <= {name} <= 1" for name in Y]
    parts += [f"{_linear(row, Y)} <= 0.5" for row in normals]
    return a, b, " and ".join(parts)


def fixed_bodies() -> list[tuple[str, str, list[str], float]]:
    """(label, formula, variables, true volume) of the seed-independent bodies."""
    cube = " and ".join(f"0 <= {name} <= 1" for name in X)
    simplex = " and ".join(f"{name} >= 0" for name in X) + " and " + " + ".join(X) + " <= 1"
    cross = " and ".join(
        f"{_linear(signs, X)} <= 1"
        for signs in itertools.product((1.0, -1.0), repeat=DIMENSION)
    )
    skew = " and ".join(f"0 <= {name} <= {side:g}" for name, side in zip(X, SKEW_SIDES))
    return [
        ("cube", cube, X, truths.cube_volume([1.0] * DIMENSION)),
        ("simplex", simplex, X, truths.simplex_volume(DIMENSION)),
        ("cross", cross, X, truths.cross_polytope_volume(DIMENSION)),
        ("skew", skew, X, truths.cube_volume(SKEW_SIDES)),
    ]


class Round:
    """The inputs of one round: relation names, formulas, request seeds."""

    def __init__(self, seed: int, index: int, tag: str) -> None:
        rng = np.random.default_rng([seed, index])
        self.a, self.b, random_formula = random_polytope(rng)
        self.requests = []  # (label, relation name, formula, variables, truth, rng)
        for label, formula, variables, truth in fixed_bodies():
            request_seed = SKEW_SEED if label == "skew" else int(rng.integers(2**31))
            self.requests.append(
                (label, f"{label}_{tag}", formula, variables, truth, request_seed)
            )
        self.requests.insert(
            3, ("random", f"random_{tag}", random_formula, Y, None, int(rng.integers(2**31)))
        )
        self.reference_seed = int(rng.integers(2**31))

    def register(self, session) -> None:
        from repro.constraints.parser import parse_relation

        for _, name, formula, variables, _, _ in self.requests:
            session.database.set_relation(name, parse_relation(formula, variables))
        session.refresh_fingerprint()


def _measure_round(session, round_: Round, outcome: common.Outcome, record) -> float:
    """Run one round; returns its wall time.  ``record`` collects latencies."""
    from repro.queries.parser import parse_query
    from repro.service import BatchRequest

    started = time.perf_counter()
    answers = []
    for label, name, _, variables, truth, request_seed in round_.requests:
        query = parse_query(f"{name}({', '.join(variables)})")
        token = trace.REQUEST_ID.set(f"{name}")
        began = time.perf_counter()
        outcome.attempted += 1
        try:
            result = session.submit_batch(
                [BatchRequest(query, epsilon=EPSILON, delta=DELTA)], rng=request_seed
            )[0].result
        finally:
            trace.REQUEST_ID.reset(token)
        latency = time.perf_counter() - began
        print(f"telescoping {label} request: {latency:.3f} s")
        record["cold_seconds"].append(latency)
        if label == "skew":
            if not common.in_band(result.value, truth, EPSILON):
                outcome.failed += 1  # the counted failure (see module doc)
                continue
        record["cold_ok"].append(latency)
        answers.append((label, name, query, result.value, truth))
        record["estimates"].append((label, result.value, truth, round_))
    for label, name, query, value, _ in answers:
        record["hit_seconds"].append([])
        for _ in range(HIT_REPEATS):
            began = time.perf_counter()
            outcome.attempted += 1
            outcome_ = session.submit_batch(
                [BatchRequest(query, epsilon=EPSILON, delta=DELTA)], rng=0
            )[0]
            record["hit_seconds"][-1].append(time.perf_counter() - began)
            outcome.check(
                f"hit {name}",
                outcome_.cached and outcome_.result.value == value,
                f"cached={outcome_.cached} value={outcome_.result.value!r} first={value!r}",
            )
    return time.perf_counter() - started


def run(seed: int, seconds: float, traced: bool, clock) -> common.Outcome:
    from repro.core import GeneratorParams
    from repro.queries.parser import parse_query
    from repro.service import BatchRequest, ServiceSession

    outcome = common.Outcome()
    session = ServiceSession(
        _warm_database(), params=GeneratorParams(gamma=0.25, epsilon=EPSILON, delta=DELTA)
    )
    # Warm-up: one small telescoping request on a body no measured request
    # uses, so lazy imports and first-call set-up are not timed.
    session.submit_batch(
        [BatchRequest(parse_query("WarmA(u, v) and not WarmB(u, v)"), epsilon=EPSILON, delta=DELTA)],
        rng=seed,
    )
    first = Round(seed, 0, "r0")
    first.register(session)
    outcome.metrics["setup_s"] = clock()

    record = _new_record()
    rounds = [first]
    walls = [_measure_round(session, first, outcome, record)]
    elapsed = walls[0]
    while not traced and elapsed < seconds:
        next_round = Round(seed, len(rounds), f"r{len(rounds)}")
        next_round.register(session)
        rounds.append(next_round)
        walls.append(_measure_round(session, next_round, outcome, record))
        elapsed += walls[-1]

    if traced:
        # The same inputs again under new relation names (so every request
        # is cold again), this time with spans around every layer.
        out_dir = common.trace_dir("telescoping", seed)
        trace.install(out_dir)
        again = Round(seed, 0, "t0")
        again.register(session)
        traced_record = _new_record()
        traced_wall = _measure_round(session, again, outcome, traced_record)
        record["estimates"].extend(traced_record["estimates"])
        trace.flush()
        trace.report(out_dir, outcome)
        outcome.metrics["trace.overhead_s"] = traced_wall - walls[0]
        outcome.metrics["serving.overhead_ms"] = 0.0
    session.close()

    _check_estimates(outcome, record["estimates"])
    cold_time = sum(record["cold_seconds"])
    outcome.metrics["request_p50_s"] = common.median(record["cold_ok"])
    outcome.metrics["requests_per_s"] = len(record["cold_ok"]) / cold_time
    outcome.notes["hit_p50_ms"] = 1e3 * common.median_of_medians(record["hit_seconds"])
    outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
    outcome.notes["rounds"] = len(rounds)
    outcome.notes["measured_s"] = sum(walls)
    common.finish_figures(outcome, traced)
    return outcome


def _new_record() -> dict:
    return {"cold_seconds": [], "cold_ok": [], "hit_seconds": [], "estimates": []}


def _warm_database():
    from repro.constraints.database import ConstraintDatabase
    from repro.constraints.parser import parse_relation

    database = ConstraintDatabase()
    database.set_relation("WarmA", parse_relation("0 <= u <= 1 and 0 <= v <= 1", ["u", "v"]))
    database.set_relation(
        "WarmB", parse_relation("0 <= u <= 1/2 and 0 <= v <= 1/2", ["u", "v"])
    )
    return database


def _check_estimates(outcome: common.Outcome, estimates) -> None:
    """Coverage of the ±ε band over the run's estimates (skewed box excluded)."""
    inside = 0
    for label, value, truth, round_ in estimates:
        truth_se = 0.0
        if truth is None:
            truth, truth_se = truths.hit_or_miss_volume(
                round_.a, round_.b, [(-1.0, 1.0)] * RANDOM_DIMENSION,
                REFERENCE_SAMPLES, round_.reference_seed,
            )
        hit = common.in_band(value, truth, EPSILON, truth_se)
        inside += hit
        print(f"telescoping {label}: estimate {value:.6g} truth {truth:.6g} in band {hit}")
    outcome.check(
        "telescoping coverage",
        common.coverage_ok(inside, len(estimates), DELTA),
        f"{inside} of {len(estimates)} estimates inside the band",
    )
