"""Workload ``serving``: the HTTP front end under a closed-loop client.

The server runs in its own process (``server_main.py``) over the seeded GIS
preset plus two inline relations: ``Poly3``, a 3-D polytope with 24 facets
(the hull of 14 random points on the unit sphere), and ``Hyper``, the unit
4-cube.  Its result store lives in a
fresh directory that is deleted after the run; every other server setting
except the port (ephemeral), the worker count (the core count) and the
admission capacity keeps its default, so the calibration auditor is off.

This process is the only client.  It holds one keep-alive connection per
core and runs a seeded script in rounds, closed loop.  Each connection's
part of a round sends ten cold queries, each followed by eight repeats of
its own earlier queries (cache hits served beside the other connection's
misses):

* 2-D exact route (4): a district of the map cut by a random half-plane;
* 3-D exact route (2): ``Poly3`` cut by a random half-space;
* 4-D adaptive route (4): ``Hyper`` and x + y + z + w <= c, one c in each
  quarter of [1.6, 2.4]; the box fraction is at least 0.17, far above the
  route's 0.05 floor.

Rounds repeat until the closed loop has run for ``--seconds``.  The run
ends with two ``/v1/stream`` requests for 2-D district-minus-zone
differences, one at a time.
"""

from __future__ import annotations

import http.client
import json
import math
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from e26bench import common, trace, truths

#: The cold queries of one connection's part of a round, in order.  The
#: order is fixed (each further connection starts two queries later), so
#: how hits overlap the other connection's cold work is the same in every
#: round and run; only the constants in the queries vary with the seed.
COLD_PATTERN = (
    "exact3", "exact2", "adaptive", "exact2", "adaptive",
    "exact3", "exact2", "adaptive", "exact2", "adaptive",
)
HITS_AFTER_COLD = 8
STREAMS = 2
STREAM_EPSILON = 0.25
ADMISSION_CAPACITY_SECONDS = 60.0
POLY3_POINTS = 14  # a simplicial hull of 14 points has 24 facets
HYPER = "0 <= x <= 1 and 0 <= y <= 1 and 0 <= z <= 1 and 0 <= w <= 1"


def _number(value: float) -> str:
    return f"{value:.4f}"


class Inputs:
    """Everything the script sends, and the reference answers, from the seed."""

    def __init__(self, seed: int) -> None:
        from repro.workloads.gis import synthetic_map

        self.seed = seed
        rng = np.random.default_rng([seed, 10**6])
        self.gis = synthetic_map(rng=seed).database
        self.districts = {}
        for name in sorted(n for n in self.gis.names() if n.startswith("district_")):
            a, b = common.halfspaces(self.gis.relation(name))
            self.districts[name] = (a, b, truths.interior_point(a, b))
        # Poly3: the hull of random points on the unit sphere, as rounded facets.
        from scipy.spatial import ConvexHull

        points = rng.normal(size=(POLY3_POINTS, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        equations = np.round(ConvexHull(points).equations, 4)
        self.poly3 = (equations[:, :3], -equations[:, 3])
        self.poly3_formula = " and ".join(
            f"{_number(r[0])}*x + {_number(r[1])}*y + {_number(r[2])}*z <= {_number(c)}"
            for r, c in zip(*self.poly3)
        ).replace("+ -", "- ")
        self.config = {
            "server": {
                "port": 0,
                "workers": common.NPROC,
                "capacity_seconds": ADMISSION_CAPACITY_SECONDS,
            },
            "database": {
                "preset": "gis",
                "seed": seed,
                "relations": {"Poly3": self.poly3_formula, "Hyper": HYPER},
                "variables": {"Poly3": ["x", "y", "z"], "Hyper": ["x", "y", "z", "w"]},
            },
        }
        self.streams = []
        for district, zone, (a_d, b_d), (a_z, b_z) in common.gis_difference_pairs(
            self.gis, STREAMS, rng
        ):
            truth = truths.convex_volume(a_d, b_d) - truths.convex_volume(
                np.vstack([a_d, a_z]), np.concatenate([b_d, b_z])
            )
            self.streams.append((f"{district}(x, y) and not {zone}(x, y)", truth))

    def cold_query(self, kind: str, rng, stratum: float) -> tuple[str, float]:
        """(query text, true volume) of one cold query of the given kind.

        ``stratum`` in [0, 1) places the adaptive query's bound c within
        [1.6, 2.4], so every round spans the same range of box fractions.
        """
        if kind == "exact2":
            name = sorted(self.districts)[int(rng.integers(len(self.districts)))]
            a, b, centre = self.districts[name]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            normal = np.round([math.cos(angle), math.sin(angle)], 4)
            offset = round(float(normal @ centre + rng.uniform(-0.5, 0.5)), 4)
            text = f"{name}(x, y) and {_number(normal[0])}*x + {_number(normal[1])}*y <= {_number(offset)}"
            truth = truths.convex_volume(np.vstack([a, normal]), np.append(b, offset))
        elif kind == "exact3":
            normal = rng.normal(size=3)
            normal = np.round(normal / np.linalg.norm(normal), 4)
            offset = round(float(rng.uniform(-0.3, 0.3)), 4)
            a, b = self.poly3
            text = (
                f"Poly3(x, y, z) and {_number(normal[0])}*x + {_number(normal[1])}*y"
                f" + {_number(normal[2])}*z <= {_number(offset)}"
            )
            truth = truths.convex_volume(np.vstack([a, normal]), np.append(b, offset))
        else:
            total = round(1.6 + 0.8 * stratum, 4)
            text = f"Hyper(x, y, z, w) and x + y + z + w <= {_number(total)}"
            truth = truths.irwin_hall_cdf(4, total)
        return text.replace("+ -", "- "), truth

    def round_scripts(self, index: int) -> list[list[tuple]]:
        """Per-connection scripts of one round: ("cold", kind, text, truth) or ("hit", j)."""
        rng = np.random.default_rng([self.seed, index])
        adaptive = COLD_PATTERN.count("adaptive")
        scripts = []
        for connection in range(common.NPROC):
            shift = (2 * connection) % len(COLD_PATTERN)
            kinds = COLD_PATTERN[shift:] + COLD_PATTERN[:shift]
            strata = iter((k + rng.random()) / adaptive for k in rng.permutation(adaptive))
            script = []
            for position, kind in enumerate(kinds):
                text, truth = self.cold_query(kind, rng, next(strata) if kind == "adaptive" else 0.0)
                script.append(("cold", kind, text, truth))
                for _ in range(HITS_AFTER_COLD):
                    script.append(("hit", int(rng.integers(position + 1))))
            scripts.append(script)
        return scripts


class Server:
    """The server process: started on an ephemeral port, stopped on request."""

    def __init__(self, inputs: Inputs, directory: Path, trace_dir: Path | None) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        config = json.loads(json.dumps(inputs.config))
        config["server"]["store"] = str(directory / "results.db")
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(config))
        command = [sys.executable, str(common.HERE / "server_main.py"), str(config_path)]
        if trace_dir is not None:
            command.append(str(trace_dir))
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=common.ROOT
        )
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> None:
        """Close the server's stdin (its stop signal) and wait for it to exit."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Client:
    """One keep-alive connection; ``post`` returns (status, payload, seconds)."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, body: dict):
        data = json.dumps(body).encode()
        began = time.perf_counter()
        self.connection.request("POST", path, body=data, headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        raw = response.read()
        seconds = time.perf_counter() - began
        if path == "/v1/stream":
            events = [json.loads(line) for line in raw.decode().splitlines() if line.strip()]
            return response.status, events, seconds
        return response.status, json.loads(raw), seconds

    def close(self) -> None:
        self.connection.close()


def _run_script(client: Client, script, seeds, results) -> None:
    """Send one connection's part of a round.

    Appends (kind, text, reference, status, payload, seconds, seed): the
    reference is the true volume for a cold query and the connection's
    first answer to the same query for a hit.
    """
    answered = []  # (text, first value) of this connection's cold queries
    for step in script:
        if step[0] == "cold":
            _, kind, text, reference = step
        else:
            kind, (text, reference) = "hit", answered[step[1]]
        seed = next(seeds)
        status, payload, seconds = client.post("/v1/query", {"query": text, "seed": seed})
        results.append((kind, text, reference, status, payload, seconds, seed))
        if step[0] == "cold":
            answered.append((text, payload.get("value") if status == 200 else None))


def _closed_loop(port: int, inputs: Inputs, seconds: float, rounds: int | None, seed_base: int):
    """Run whole rounds; returns (results, wall seconds, per-round throughputs).

    Without ``rounds`` the loop stops after the first round that ends at
    least ``seconds`` after the start.  A round's throughput is its
    completed requests over its wall time.
    """
    import itertools

    clients = [Client(port) for _ in range(common.NPROC)]
    # Each request's seed is unique, and the same in every run: connection
    # c counts up from seed_base + c * 10**7.
    seeds = [itertools.count(seed_base + c * 10**7) for c in range(len(clients))]
    results: list[tuple] = []
    rates: list[float] = []
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=common.NPROC) as pool:
        while True:
            began = time.perf_counter()
            buckets = [[] for _ in clients]
            futures = [
                pool.submit(_run_script, client, script, counter, bucket)
                for client, script, counter, bucket in zip(
                    clients, inputs.round_scripts(len(rates)), seeds, buckets
                )
            ]
            for future in futures:
                future.result()
            ended = time.perf_counter()
            completed = 0
            for bucket in buckets:
                results.extend(bucket)
                completed += sum(1 for item in bucket if item[3] == 200)
            rates.append(completed / (ended - began))
            if len(rates) == rounds or (rounds is None and ended - started >= seconds):
                break
    for client in clients:
        client.close()
    return results, ended - started, rates


def _streams(port: int, inputs: Inputs, seed_base: int, outcome: common.Outcome, record) -> None:
    for index, (text, truth) in enumerate(inputs.streams):
        client = Client(port)
        outcome.attempted += 1
        status, events, seconds = client.post(
            "/v1/stream", {"query": text, "epsilon": STREAM_EPSILON, "seed": seed_base + index}
        )
        client.close()
        final = events[-1] if events else {}
        if status != 200 or final.get("event") != "final":
            outcome.failed += 1
            outcome.check(f"stream {text}", False, f"status {status}, last event {final}")
            continue
        record["stream_seconds"].append(seconds)
        record["cold_seconds"].append(seconds)
        certified = [event["eps"] for event in events if event.get("event") == "checkpoint"]
        certified.append(final["certified_epsilon"])
        outcome.check(
            f"stream certified epsilon never increases ({text})",
            all(later <= earlier for earlier, later in zip(certified, certified[1:])),
            f"certified epsilons {certified}",
        )
        record["stream_estimates"].append((final["value"], truth, final["delta"]))


def _warm_up(port: int, inputs: Inputs) -> None:
    """Requests no measured request repeats: every route once, a hit, a stream."""
    client = Client(port)
    name = sorted(inputs.districts)[0]
    warm = [
        f"{name}(x, y) and x <= 100",
        "Poly3(x, y, z) and z <= 0.95",
        "Hyper(x, y, z, w) and x + y + z + w <= 2.5",
    ]
    for text in warm + warm[-1:]:
        client.post("/v1/query", {"query": text, "seed": 1})
    client.close()
    client = Client(port)
    client.post("/v1/stream", {"query": "Hyper(x, y, z, w) and x + y + z + w <= 2.45", "seed": 1})
    client.close()


def _account(results, outcome: common.Outcome, record) -> None:
    for kind, text, reference, status, payload, seconds, seed in results:
        outcome.attempted += 1
        if status != 200:
            outcome.failed += 1
            outcome.check(f"request {text}", False, f"status {status}: {payload}")
            continue
        record["latency"].setdefault(kind, []).append(seconds)
        record["by_seed"][seed] = seconds
        if kind == "hit":
            outcome.check(
                f"hit {text}",
                payload.get("cached") is True and payload["value"] == reference,
                f"cached={payload.get('cached')} value={payload['value']!r} first={reference!r}",
            )
            continue
        record["cold_seconds"].append(seconds)
        truth = reference
        if kind.startswith("exact"):
            value = payload["value"]
            outcome.check(
                f"exact {text}",
                payload.get("exact") is True
                and abs(value - truth) <= 1e-9 * max(abs(truth), 1e-12),
                f"value {value!r} truth {truth!r} exact={payload.get('exact')}",
            )
        else:
            if not str(payload.get("method", "")).startswith("adaptive"):
                record["fallbacks"] += 1
            record["adaptive_estimates"].append((payload["value"], truth, payload["delta"]))


def _coverage(outcome: common.Outcome, name: str, estimates, epsilon: float) -> None:
    if not estimates:
        return
    delta = estimates[0][2]
    inside = sum(common.in_band(value, truth, epsilon) for value, truth, _ in estimates)
    outcome.check(
        f"{name} coverage",
        common.coverage_ok(inside, len(estimates), delta),
        f"{inside} of {len(estimates)} estimates inside the band",
    )


def _new_record() -> dict:
    return {
        "latency": {}, "by_seed": {}, "cold_seconds": [], "stream_seconds": [],
        "adaptive_estimates": [], "stream_estimates": [], "fallbacks": 0,
    }


def _pass(inputs, directory, trace_dir, seconds, rounds, outcome, clock=None):
    """One server lifetime: start, warm up, closed loop, streams, stop."""
    record = _new_record()
    server = Server(inputs, directory, trace_dir)
    try:
        _warm_up(server.port, inputs)
        if clock is not None:
            outcome.metrics["setup_s"] = clock()
        # Each closed-loop request's seed identifies it in server spans.
        results, wall, rates = _closed_loop(server.port, inputs, seconds, rounds, 10**6)
        _account(results, outcome, record)
        _streams(server.port, inputs, 10**5, outcome, record)
    finally:
        server.stop()
    record["wall"] = wall
    record["rates"] = rates
    return record


def run(seed: int, seconds: float, traced: bool, clock) -> common.Outcome:
    outcome = common.Outcome()
    inputs = Inputs(seed)
    with common.ScratchDir() as scratch:
        record = _pass(inputs, scratch / "untraced", None, seconds, None, outcome, clock)
        if traced:
            trace_dir = common.trace_dir("serving", seed)
            traced_record = _pass(
                inputs, scratch / "traced", trace_dir, seconds, len(record["rates"]), outcome
            )
            spans = trace.report(trace_dir, outcome)
            outcome.metrics["trace.overhead_s"] = traced_record["wall"] - record["wall"]
            server_seconds = trace.server_session_seconds(spans)
            overheads = [
                latency - server_seconds[request]
                for request, latency in traced_record["by_seed"].items()
                if request in server_seconds
            ]
            outcome.metrics["serving.overhead_ms"] = 1e3 * common.median(overheads)
            _coverage(outcome, "adaptive", traced_record["adaptive_estimates"], 0.1)
            _coverage(outcome, "stream", traced_record["stream_estimates"], STREAM_EPSILON)

    _coverage(outcome, "adaptive", record["adaptive_estimates"], 0.1)
    _coverage(outcome, "stream", record["stream_estimates"], STREAM_EPSILON)
    latency = record["latency"]
    hits = latency.get("hit", [])
    outcome.metrics["requests_per_s"] = common.median(record["rates"])
    outcome.metrics["request_p50_s"] = common.median(record["cold_seconds"])
    outcome.notes["hit_p50_ms"] = 1e3 * common.median(hits)
    outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
    outcome.notes["exact_p50_ms"] = 1e3 * common.median(
        latency.get("exact2", []) + latency.get("exact3", [])
    )
    outcome.notes["adaptive_p50_ms"] = 1e3 * common.median(latency.get("adaptive", []))
    outcome.notes["stream_p50_s"] = common.median(record["stream_seconds"])
    outcome.notes["hit_p99_ms"] = 1e3 * common.percentile(hits, 0.99)
    outcome.notes["hits"] = len(hits)
    outcome.notes["rounds"] = len(record["rates"])
    outcome.notes["adaptive_fallbacks"] = record["fallbacks"]
    common.finish_figures(outcome, traced)
    return outcome
