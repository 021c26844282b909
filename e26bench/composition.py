"""Workload ``composition``: the closure operators in one batch, then sampling.

Each round sends one ``ServiceSession.submit_batch`` of five cold volume
requests at ε = 0.75, δ = 0.15 (union members are then estimated at ε/3 =
0.25, the telescoping workload's accuracy) with one worker, on the backend
the planner recommends for it (serial):

* unions: a 5-D dumbbell (two unit cubes joined by a 0.05-wide tube) and
  two overlapping 5-D unit cubes;
* differences: a 5-D cube minus a centred cube, and a 2-D district of the
  seeded GIS map minus a zone;
* an intersection: the overlap of the two cubes.

Every answer is then asked for again a hundred times (cache hits).  Rounds,
each with fresh inputs drawn from the seed, repeat until the run's seconds
have passed and at least three have run; the batch figures are medians over
rounds, so a burst of host load that slows one round does not move them.

One more round then sends its batch with ``workers`` = the core count, where
the planner recommends the process backend (pool, shared-memory state
plane).  Its wall time is a printed figure, not a bounded metric: two pool
workers slow each other down on a two-core guest by 10–40%, varying from
batch to batch, while the serial rounds measure the same requests steadily.

After that the same session draws uniform points with
``ServiceSession.sample`` from the first round's projection ∃x5 over the
5-D simplex and from every batch query but the dumbbell.  Here the walk
runs as many short chains: union member estimates at ε/3, and one fresh
chain per candidate point in the rejection loops.  Sampling a union
recomputes its member volumes (the sampler compiles at another sample budget
than the volume request); on the dumbbell that took 15 s for 50 points after
an ε = 0.4 batch, on the cube pair it takes 5–8 s, so the cube pair carries
the union sampler.

The projection is sampled but its volume is not requested: that request is
one 5-D simplex estimate at ε/3 (over 95% of its 14–18 s, the walk the
telescoping workload times already), and a batch holding it lasts as long as
that one unit, slowed by how much the other pool worker contends with it.
The batch lists its requests longest first.
"""

from __future__ import annotations

import time

import numpy as np

from e26bench import common, trace, truths

EPSILON = 0.75
DELTA = 0.15
MIN_ROUNDS = 3
HIT_REPEATS = 100
POINTS = 50
DIMENSION = 5
TUBE_WIDTH = 0.05
X = [f"x{i + 1}" for i in range(DIMENSION)]
XS = ", ".join(X)


def _box_formula(bounds) -> str:
    return " and ".join(f"{lo:.4f} <= {name} <= {hi:.4f}" for name, (lo, hi) in zip(X, bounds))


def _inside_box(points, bounds, tolerance=1e-7) -> np.ndarray:
    low = np.array([lo for lo, _ in bounds]) - tolerance
    high = np.array([hi for _, hi in bounds]) + tolerance
    return np.all((points >= low) & (points <= high), axis=1)


class Round:
    """Relations, queries, reference volumes and point checks of one round."""

    def __init__(self, seed: int, index: int, tag: str, gis) -> None:
        rng = np.random.default_rng([seed, index])
        overlap = round(float(rng.uniform(0.4, 0.6)), 4)
        inner = round(float(rng.uniform(0.4, 0.6)), 4)
        margin = round((1.0 - inner) / 2.0, 4)
        inner = 1.0 - 2.0 * margin
        unit = [(0.0, 1.0)] * DIMENSION
        shifted = [(1.0 - overlap, 2.0 - overlap)] + unit[1:]
        left = unit
        right = [(2.0, 3.0)] + unit[1:]
        low = (1.0 - TUBE_WIDTH) / 2.0
        tube = [(1.0, 2.0)] + [(low, low + TUBE_WIDTH)] * (DIMENSION - 1)
        overlap_box = [(1.0 - overlap, 1.0)] + unit[1:]
        inner_box = [(margin, 1.0 - margin)] * DIMENSION
        ((district, zone, (a_d, b_d), (a_z, b_z)),) = common.gis_difference_pairs(gis, 1, rng)
        self.gis_names = (district, zone)
        self.tag = tag
        simplex = " and ".join(f"{name} >= 0" for name in X) + " and " + " + ".join(X) + " <= 1"
        self.relations = {
            f"Dumbbell_{tag}": [_box_formula(left), _box_formula(tube), _box_formula(right)],
            f"A_{tag}": [_box_formula(unit)],
            f"B_{tag}": [_box_formula(shifted)],
            f"Outer_{tag}": [_box_formula(unit)],
            f"Inner_{tag}": [_box_formula(inner_box)],
            f"Simplex_{tag}": [simplex],
        }
        tube_volume = truths.cube_volume([hi - lo for lo, hi in tube])
        district_area = truths.convex_volume(a_d, b_d)
        both = (np.vstack([a_d, a_z]), np.concatenate([b_d, b_z]))
        gis_truth = district_area - truths.convex_volume(*both)
        cut_x = float(np.median(truths.convex_vertices(a_d, b_d)[:, 0]))
        half = (np.vstack([a_d, [[1.0, 0.0]]]), np.concatenate([b_d, [cut_x]]))
        half_both = (np.vstack([both[0], [[1.0, 0.0]]]), np.concatenate([both[1], [cut_x]]))
        gis_half = truths.convex_volume(*half) - truths.convex_volume(*half_both)
        # label -> (query text, true volume or None when the volume is not
        #           requested, union members (max, sum) or None, point
        #           membership test or None when not sampled,
        #           (region test, true share) or None)
        self.queries = {
            "projection": (
                f"exists x5. Simplex_{tag}({XS})", None, None,
                lambda p: np.all(p >= -1e-7, axis=1) & (p.sum(axis=1) <= 1.0 + 1e-7),
                (lambda p: p[:, 0] <= 0.2, 1.0 - 0.8**4),
            ),
            "dumbbell": (
                f"Dumbbell_{tag}({XS})", 2.0 + tube_volume, (1.0, 2.0 + tube_volume), None, None,
            ),
            "annulus": (
                f"Outer_{tag}({XS}) and not Inner_{tag}({XS})", 1.0 - inner**DIMENSION, None,
                lambda p: _inside_box(p, unit) & ~_inside_box(p, inner_box, tolerance=-1e-7),
                (lambda p: p[:, 0] <= 0.5, 0.5),
            ),
            "cubepair": (
                f"A_{tag}({XS}) or B_{tag}({XS})", 2.0 - overlap, (1.0, 2.0),
                lambda p: _inside_box(p, unit) | _inside_box(p, shifted),
                (lambda p: p[:, 0] <= 1.0, 1.0 / (2.0 - overlap)),
            ),
            "intersection": (
                f"A_{tag}({XS}) and B_{tag}({XS})", overlap, None,
                lambda p: _inside_box(p, overlap_box),
                (lambda p: p[:, 1] <= 0.5, 0.5),
            ),
            "gis": (
                f"{district}_{tag}(x, y) and not {zone}_{tag}(x, y)", gis_truth, None,
                lambda p: truths.convex_contains(a_d, b_d, p)
                & ~truths.convex_contains(a_z, b_z, p, tolerance=-1e-7),
                (lambda p: p[:, 0] <= cut_x, gis_half / gis_truth),
            ),
        }
        self.seeds = {label: int(rng.integers(2**31)) for label in self.queries}
        self.batch_seed = int(rng.integers(2**31))

    def register(self, session, gis) -> None:
        from repro.constraints.parser import parse_relation
        from repro.constraints.relations import GeneralizedRelation

        for name, formulas in self.relations.items():
            disjuncts = []
            for formula in formulas:
                disjuncts.extend(parse_relation(formula, X).disjuncts)
            session.database.set_relation(name, GeneralizedRelation(tuple(disjuncts), X))
        for feature in self.gis_names:
            session.database.set_relation(f"{feature}_{self.tag}", gis.relation(feature))
        session.refresh_fingerprint()


def _batch_round(session, round_: Round, outcome: common.Outcome, record, workers: int, timings) -> float:
    """The round's batch on ``workers`` workers and its cache hits.

    Appends (batch wall time, request count) to ``timings`` and returns the
    round's wall time.
    """
    from repro.queries.parser import parse_query
    from repro.service import BatchRequest

    started = time.perf_counter()
    batch = {label: spec for label, spec in round_.queries.items() if spec[1] is not None}
    queries = {label: parse_query(spec[0]) for label, spec in batch.items()}
    requests = [BatchRequest(query, epsilon=EPSILON, delta=DELTA) for query in queries.values()]
    token = trace.REQUEST_ID.set(f"batch-{round_.tag}")
    began = time.perf_counter()
    outcome.attempted += len(requests)
    try:
        outcomes = session.submit_batch(requests, workers=workers, rng=round_.batch_seed)
    finally:
        trace.REQUEST_ID.reset(token)
    batch_seconds = time.perf_counter() - began
    print(f"composition batch {round_.tag} ({workers} workers): {batch_seconds:.3f} s")
    timings.append((batch_seconds, len(requests)))
    record["backends"].update(o.backend for o in outcomes if o.backend)
    values = {}
    for (label, spec), served in zip(batch.items(), outcomes):
        value = served.result.value
        values[label] = value
        record["estimates"].append((label, value, spec[1]))
        if spec[2] is not None:
            largest, total = spec[2]
            outcome.check(
                f"union bounds {label}",
                largest / (1.0 + EPSILON) <= value <= total * (1.0 + EPSILON),
                f"estimate {value} outside [{largest}, {total}] widened by ε",
            )

    for label, query in queries.items():
        record["hit_seconds"].append([])
        for _ in range(HIT_REPEATS):
            began = time.perf_counter()
            outcome.attempted += 1
            hit = session.submit_batch([BatchRequest(query, epsilon=EPSILON, delta=DELTA)], rng=0)[0]
            record["hit_seconds"][-1].append(time.perf_counter() - began)
            outcome.check(
                f"hit {label}",
                hit.cached and hit.result.value == values[label],
                f"cached={hit.cached} value={hit.result.value!r} first={values[label]!r}",
            )
    return time.perf_counter() - started


def _sample_round(session, round_: Round, outcome: common.Outcome, record) -> float:
    """Points from every sampled query of the round; returns the wall time."""
    from repro.queries.parser import parse_query

    started = time.perf_counter()
    for label, spec in round_.queries.items():
        if spec[3] is None:
            continue
        token = trace.REQUEST_ID.set(f"sample-{label}-{round_.tag}")
        began = time.perf_counter()
        outcome.attempted += 1
        try:
            points = session.sample(parse_query(spec[0]), POINTS, rng=round_.seeds[label])
        finally:
            trace.REQUEST_ID.reset(token)
        seconds = time.perf_counter() - began
        print(f"composition sample {label}: {seconds:.3f} s")
        record["sample_seconds"] += seconds
        record["points"] += len(points)
        inside = spec[3](points)
        outcome.check(
            f"points inside {label}",
            len(points) == POINTS and bool(np.all(inside)),
            f"{int(np.count_nonzero(~inside))} of {len(points)} points outside",
        )
        region, share = spec[4]
        count = int(np.count_nonzero(region(points)))
        outcome.check(
            f"uniformity {label}",
            common.share_ok(count, len(points), share, EPSILON),
            f"{count} of {len(points)} points in a region of share {share:.4f}",
        )
    return time.perf_counter() - started


def run(seed: int, seconds: float, traced: bool, clock) -> common.Outcome:
    from repro.core import GeneratorParams
    from repro.queries.parser import parse_query
    from repro.service import BatchRequest, ServiceSession
    from repro.workloads.gis import synthetic_map

    outcome = common.Outcome()
    gis = synthetic_map(rng=seed).database
    session = ServiceSession(gis, params=GeneratorParams(gamma=0.25, epsilon=EPSILON, delta=DELTA))
    # Warm-up on features no measured request uses: a two-request batch and
    # a few points, so first-call set-up is not timed.
    warm = [
        BatchRequest(parse_query(text), epsilon=EPSILON, delta=DELTA)
        for text in ("zone_1(x, y) and not corridor_1(x, y)", "zone_2(x, y) and not corridor_2(x, y)")
    ]
    session.submit_batch(warm, workers=1, rng=seed)
    session.sample(warm[0].query, 5, rng=seed)
    first = _next_round(session, seed, 0, "r", gis)
    outcome.metrics["setup_s"] = clock()

    record = _new_record()
    rounds = [first]
    walls = [_batch_round(session, first, outcome, record, 1, record["serial"])]
    while not traced and (sum(walls) < seconds or len(walls) < MIN_ROUNDS):
        rounds.append(_next_round(session, seed, len(rounds), "r", gis))
        walls.append(_batch_round(session, rounds[-1], outcome, record, 1, record["serial"]))
    parallel = _next_round(session, seed, len(rounds), "p", gis)
    untraced_wall = walls[0] + _batch_round(
        session, parallel, outcome, record, common.NPROC, record["parallel"]
    )
    untraced_wall += _sample_round(session, first, outcome, record)

    if traced:
        out_dir = common.trace_dir("composition", seed)
        trace.install(out_dir)
        traced_record = _new_record()
        again = _next_round(session, seed, 0, "t", gis)
        traced_wall = _batch_round(session, again, outcome, traced_record, 1, traced_record["serial"])
        traced_parallel = _next_round(session, seed, len(rounds), "tp", gis)
        traced_wall += _batch_round(
            session, traced_parallel, outcome, traced_record, common.NPROC, traced_record["parallel"]
        )
        traced_wall += _sample_round(session, again, outcome, traced_record)
        record["estimates"].extend(traced_record["estimates"])
        trace.flush()
        trace.report(out_dir, outcome)
        outcome.metrics["trace.overhead_s"] = traced_wall - untraced_wall
        outcome.metrics["serving.overhead_ms"] = 0.0
    session.close()

    inside = 0
    for label, value, truth in record["estimates"]:
        hit = common.in_band(value, truth, EPSILON)
        inside += hit
        print(f"composition {label}: estimate {value:.6g} truth {truth:.6g} in band {hit}")
    outcome.check(
        "composition coverage",
        common.coverage_ok(inside, len(record["estimates"]), DELTA),
        f"{inside} of {len(record['estimates'])} estimates inside the band",
    )
    # Every request of a batch is answered when the batch returns, and every
    # batch holds the same number of requests: the median cold latency is
    # the median batch wall time.
    serial = record["serial"]
    outcome.metrics["request_p50_s"] = common.median([wall for wall, _ in serial])
    outcome.metrics["requests_per_s"] = common.median([count / wall for wall, count in serial])
    ((outcome.notes["process_batch_s"], _),) = record["parallel"]
    outcome.notes["hit_p50_ms"] = 1e3 * common.median_of_medians(record["hit_seconds"])
    outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
    outcome.notes["points_per_s"] = record["points"] / record["sample_seconds"]
    outcome.notes["rounds"] = len(rounds)
    outcome.notes["measured_s"] = sum(walls)
    print(f"composition backends: {sorted(record['backends'])}")
    common.finish_figures(outcome, traced)
    return outcome


def _next_round(session, seed: int, index: int, prefix: str, gis) -> Round:
    """Round ``index`` of the seed, registered under fresh relation names."""
    round_ = Round(seed, index, f"{prefix}{index}", gis)
    round_.register(session, gis)
    return round_


def _new_record() -> dict:
    return {
        "serial": [], "parallel": [], "hit_seconds": [], "estimates": [], "backends": set(),
        "sample_seconds": 0.0, "points": 0,
    }
