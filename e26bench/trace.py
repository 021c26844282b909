"""Traced mode: spans around calls into each layer's public functions.

:func:`install` wraps the functions and methods listed in :data:`TARGETS`
at the names their callers bind: a method is replaced on its class, a
function in its defining module and in every loaded ``repro`` module that
imported it by name.  A wrapper records one span per call (name, start,
end, parent span, request identifier, process) plus a few counts read off
the arguments and the result.  Spans stay in memory and are written out
when the process ends (:func:`flush`), one JSON-lines file per process;
pool workers forked while tracing is on write their own file when they
exit.  A target that no longer exists is reported absent rather than
failing the run.

Nothing here changes arguments or results, and no wrapper draws random
numbers, so traced and untraced runs compute the same values.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

#: Identifier of the request the current code works for (set by the workload
#: module, or, in the server, from the request's seed).
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar("e26_request", default=None)
_PARENT: contextvars.ContextVar = contextvars.ContextVar("e26_parent", default=None)


def _walk(wrapped, args, kwargs, result):
    sampler = args[0]
    count = kwargs.get("count", args[2] if len(args) > 2 else 1)
    return {
        "steps": sampler.burn_in + count * sampler.thinning,
        "starts": 1,
        "rows": int(result.shape[0]),
    }


def _walk_chains(wrapped, args, kwargs, result):
    sampler = args[0]
    count = kwargs.get("count", args[2] if len(args) > 2 else None)
    chains = kwargs.get("chains", args[3] if len(args) > 3 else None)
    if chains is None or chains <= 1:
        return None  # delegates to ``sample``, which records the walk itself
    return {
        "steps": chains * (sampler.burn_in + count * sampler.thinning),
        "starts": chains,
        "rows": int(result.shape[0] * result.shape[1]),
    }


def _box(wrapped, args, kwargs, result):
    total = kwargs.get("total", args[2] if len(args) > 2 else 0)
    return {"proposals": int(total), "hits": int(result)}


def _telescoping(wrapped, args, kwargs, result):
    return {
        "phases": int(result.details.get("phases", 0)),
        "samples": int(result.samples_used),
    }


def _vertices(wrapped, args, kwargs, result):
    polytope = args[0]
    return {"subsets": math.comb(polytope.num_constraints, polytope.dimension)}


def _acceptance(wrapped, args, kwargs, result):
    details = result.details or {}
    trials = int(details.get("trials", 0) or 0)
    accepted = int(round(float(details.get("acceptance", 0.0) or 0.0) * trials))
    return {"trials": trials, "accepted": accepted}


def _adaptive(wrapped, args, kwargs, result):
    details = result.details or {}
    return {"samples": int(details.get("new_samples", result.samples_used))}


def _lookup(wrapped, args, kwargs, result):
    return {"hit": int(result[0] is not None)}


def _backend(wrapped, args, kwargs, result):
    payload = getattr(args[0], "last_payload_bytes", None) or 0
    return {
        "units": len(result),
        "unit_s": float(sum(work.elapsed for work in result)),
        "payload_bytes": int(payload) if args[0].name == "process" else 0,
    }


def _request_from_body(wrapped, args, kwargs, result):
    # The server parses every request body here, inside the connection's
    # task: the request's seed becomes the identifier of its spans.
    if result.seed is not None:
        REQUEST_ID.set(result.seed)
    return None


#: (span name, "module:qualified name", annotator).  The layer of a span is
#: the part of its name before the first dot.
TARGETS = [
    ("sampling.walk", "repro.sampling.hit_and_run:HitAndRunSampler.sample", _walk),
    ("sampling.walk", "repro.sampling.hit_and_run:HitAndRunSampler.sample_chains", _walk_chains),
    ("sampling.box", "repro.sampling.rejection:count_box_hits", _box),
    ("kernels.chord", "repro.kernels:chord_bounds", None),
    ("kernels.membership", "repro.kernels:membership_mask", None),
    ("kernels.membership", "repro.kernels:system_membership_mask", None),
    ("volume.telescoping", "repro.volume.telescoping:TelescopingVolumeEstimator.estimate", _telescoping),
    ("geometry.rounding", "repro.geometry.rounding:round_by_chebyshev", None),
    ("geometry.rounding", "repro.geometry.rounding:round_by_covariance", None),
    ("geometry.lp", "repro.geometry.linprog:solve_lp", None),
    ("geometry.vertices", "repro.geometry.vertices:enumerate_vertices", _vertices),
    ("core.member_volume", "repro.core.union:UnionObservable.member_volumes", None),
    ("core.estimate", "repro.core.union:UnionObservable.estimate_volume", _acceptance),
    ("core.estimate", "repro.core.difference:DifferenceObservable.estimate_volume", _acceptance),
    ("core.estimate", "repro.core.intersection:IntersectionObservable.estimate_volume", _acceptance),
    ("core.estimate", "repro.core.projection:ProjectionObservable.estimate_volume", _acceptance),
    ("core.generate_one", "repro.core.convex:ConvexObservable.generate", None),
    ("core.compose_one", "repro.core.union:UnionObservable.generate", None),
    ("core.compose_one", "repro.core.difference:DifferenceObservable.generate", None),
    ("core.compose_one", "repro.core.intersection:IntersectionObservable.generate", None),
    ("core.compose_one", "repro.core.projection:ProjectionObservable.generate", None),
    ("core.generate", "repro.core.observable:ObservableRelation.generate_many", None),
    ("core.generate", "repro.core.convex:ConvexObservable.generate_many", None),
    ("inference.adaptive", "repro.inference.adaptive:AdaptiveMonteCarlo.run", _adaptive),
    ("inference.refine", "repro.inference.refine:RefinableEstimate.refine", None),
    ("queries.exact", "repro.queries.aggregates:exact_volume", None),
    ("constraints.symbolic", "repro.constraints.relations:GeneralizedRelation.intersection", None),
    ("constraints.symbolic", "repro.constraints.relations:GeneralizedRelation.difference", None),
    ("constraints.symbolic", "repro.constraints.relations:GeneralizedRelation.complement", None),
    ("constraints.symbolic", "repro.constraints.relations:GeneralizedRelation.project", None),
    ("constraints.symbolic", "repro.constraints.relations:GeneralizedRelation.union", None),
    ("plan.rewrite", "repro.plan.rewrite:rewrite_plan", None),
    ("plan.lower", "repro.plan.lowering:lower_plan", None),
    ("service.resolve", "repro.service.session:ServiceSession.resolve_request", None),
    ("service.lookup", "repro.service.cache:ResultCache.lookup", _lookup),
    ("service.lookup", "repro.service.cache:ResultCache.lookup_with_source", _lookup),
    ("service.plan", "repro.service.planner:Planner.plan", None),
    ("service.batch", "repro.service.session:ServiceSession.submit_batch", None),
    ("service.volume", "repro.service.session:ServiceSession.volume", None),
    ("service.shared_members", "repro.service.sharing:prepare_shared_members", None),
    ("service.backend", "repro.service.backends:SerialBackend.execute", _backend),
    ("service.backend", "repro.service.backends:ThreadBackend.execute", _backend),
    ("service.backend", "repro.service.backends:ProcessBackend.execute", _backend),
    ("store.put", "repro.store.result_store:ResultStore.put", None),
    ("serving.parse", "repro.serving.protocol:QueryRequest.from_body", _request_from_body),
]

#: Layers in report order (one ``self.<layer>_s`` metric each).
LAYERS = (
    "sampling", "kernels", "volume", "geometry", "core", "inference",
    "queries", "constraints", "plan", "service", "store", "serving",
)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.out_dir: Path | None = None
        self.label = "main"
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"{os.getpid()}:{next(self._ids)}"

    def after_fork(self) -> None:
        """In a forked pool worker: keep only this process's spans, flush at exit."""
        import multiprocessing.util

        self.spans = []
        self.label = "worker"
        multiprocessing.util.Finalize(None, flush, exitpriority=100)


RECORDER = Recorder()


def _make_wrapper(func, name: str, annotate):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        parent = _PARENT.get()
        span_id = RECORDER.new_id()
        token = _PARENT.set(span_id)
        request = REQUEST_ID.get()
        request_token = None
        if request is None and name == "service.batch":
            # A server computes misses on pool threads, outside the
            # request's context; the batch's integer seed is the request's.
            seed = kwargs.get("rng")
            if isinstance(seed, int):
                request = seed
                request_token = REQUEST_ID.set(seed)
        start = time.perf_counter()
        result = None
        ok = False
        try:
            result = func(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            _PARENT.reset(token)
            if request_token is not None:
                REQUEST_ID.reset(request_token)
            attrs = annotate(func, args, kwargs, result) if ok and annotate else None
            RECORDER.spans.append(
                (span_id, parent, name, start, end, request, ok, attrs)
            )

    wrapper.__e26_original__ = func
    return wrapper


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(out_dir: Path, label: str = "main") -> list[str]:
    """Wrap every target; returns the names of the targets that are absent."""
    import multiprocessing.util

    RECORDER.out_dir = Path(out_dir)
    RECORDER.label = label
    originals = {}
    for name, target, annotate in TARGETS:
        try:
            module, owner, attribute = _resolve(target)
            raw = owner.__dict__[attribute]
        except (ImportError, AttributeError, KeyError):
            RECORDER.absent.append(target)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(_make_wrapper(raw.__func__, name, annotate)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attribute, staticmethod(_make_wrapper(raw.__func__, name, annotate)))
        elif isinstance(owner, type):
            setattr(owner, attribute, _make_wrapper(raw, name, annotate))
        else:
            wrapper = _make_wrapper(raw, name, annotate)
            setattr(owner, attribute, wrapper)
            originals[id(raw)] = (raw, wrapper)
    # Functions imported by name elsewhere: replace those bindings too.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attribute, entry[1])
    multiprocessing.util.register_after_fork(RECORDER, Recorder.after_fork)
    return list(RECORDER.absent)


def flush() -> Path | None:
    """Write this process's spans to its own file in the output directory."""
    if RECORDER.out_dir is None:
        return None
    RECORDER.out_dir.mkdir(parents=True, exist_ok=True)
    path = RECORDER.out_dir / f"spans-{RECORDER.label}-{os.getpid()}.jsonl"
    with open(path, "w") as handle:
        for span_id, parent, name, start, end, request, ok, attrs in RECORDER.spans:
            handle.write(
                json.dumps(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "request": request,
                        "ok": ok,
                        "attrs": attrs,
                        "pid": os.getpid(),
                    }
                )
                + "\n"
            )
        if RECORDER.absent:
            handle.write(json.dumps({"absent": RECORDER.absent}) + "\n")
    return path


def load(out_dir: Path) -> tuple[list[dict], list[str]]:
    """All spans written to ``out_dir`` (every process), plus absent targets."""
    spans: list[dict] = []
    absent: set[str] = set()
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if "absent" in record:
                    absent.update(record["absent"])
                else:
                    spans.append(record)
    return spans, sorted(absent)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def analyze(spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a run's spans, plus the cross-check failures.

    ``*_s`` sums count only spans without an ancestor of the same name, so
    nested calls (a chain delegating to the scalar walk, a union member's
    generator inside the union's) are not counted twice.  Self time of a
    span is its duration minus the part its child spans cover.
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def ancestors(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent"])

    def outermost(span) -> bool:
        prefix = span["name"]
        return not any(other["name"] == prefix for other in ancestors(span))

    def duration(span) -> float:
        return span["end"] - span["start"]

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    attrs: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        name = span["name"]
        outer = outermost(span)
        # ``lookup`` delegates to ``lookup_with_source``: count the call once.
        if outer or name != "service.lookup":
            counts[name] = counts.get(name, 0) + 1
            for key, value in (span["attrs"] or {}).items():
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0.0) + value
        if outer:
            totals[name] = totals.get(name, 0.0) + duration(span)
        covered = [
            (max(child["start"], span["start"]), min(child["end"], span["end"]))
            for child in children.get(span["id"], [])
            if child["end"] > span["start"] and child["start"] < span["end"]
        ]
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += max(0.0, duration(span) - _union_length(covered))

    # Acceptance trials of the composite generators: every member draw made
    # directly under a composite ``generate`` is one trial; the composite
    # call accepted once when it returned.  Estimators report theirs.
    trials = attrs.get("core.estimate.trials", 0.0)
    accepted = attrs.get("core.estimate.accepted", 0.0)
    for span in spans:
        if span["name"] != "core.compose_one":
            continue
        trials += sum(
            1 for child in children.get(span["id"], [])
            if child["name"] in ("core.generate_one", "core.compose_one")
        )
        accepted += 1 if span["ok"] else 0

    walk_s = totals.get("sampling.walk", 0.0)
    walk_steps = attrs.get("sampling.walk.steps", 0.0)
    metrics = {
        "sampling.walk_s": walk_s,
        "sampling.walk_steps": walk_steps,
        "sampling.walk_starts": attrs.get("sampling.walk.starts", 0.0),
        "sampling.step_us": 1e6 * walk_s / walk_steps if walk_steps else 0.0,
        "sampling.box_proposals": attrs.get("sampling.box.proposals", 0.0),
        "sampling.box_hits": attrs.get("sampling.box.hits", 0.0),
        "kernels.chord_calls": counts.get("kernels.chord", 0),
        "kernels.membership_calls": counts.get("kernels.membership", 0),
        "volume.telescoping_s": totals.get("volume.telescoping", 0.0),
        "volume.phases": attrs.get("volume.telescoping.phases", 0.0),
        "volume.samples": attrs.get("volume.telescoping.samples", 0.0),
        "geometry.rounding_s": totals.get("geometry.rounding", 0.0),
        "geometry.lp_s": totals.get("geometry.lp", 0.0),
        "geometry.lp_calls": counts.get("geometry.lp", 0),
        "geometry.vertices_s": totals.get("geometry.vertices", 0.0),
        "geometry.vertex_subsets": attrs.get("geometry.vertices.subsets", 0.0),
        "core.member_volume_s": totals.get("core.member_volume", 0.0),
        "core.acceptance_trials": trials,
        "core.acceptance_rate": accepted / trials if trials else 0.0,
        "core.generate_s": totals.get("core.generate", 0.0),
        "inference.adaptive_s": totals.get("inference.adaptive", 0.0),
        "inference.adaptive_samples": attrs.get("inference.adaptive.samples", 0.0),
        "inference.refine_s": totals.get("inference.refine", 0.0),
        "queries.exact_s": totals.get("queries.exact", 0.0),
        "queries.exact_calls": counts.get("queries.exact", 0),
        "constraints.symbolic_s": totals.get("constraints.symbolic", 0.0),
        "plan.compile_s": sum(
            duration(span) for span in spans
            if span["name"].startswith("plan.")
            and not any(other["name"].startswith("plan.") for other in ancestors(span))
        ),
        "plan.compiles": counts.get("plan.lower", 0),
        "service.resolve_s": totals.get("service.resolve", 0.0),
        "service.lookup_s": totals.get("service.lookup", 0.0),
        "service.cache_hits": attrs.get("service.lookup.hit", 0.0),
        "service.cache_misses": counts.get("service.lookup", 0) - attrs.get("service.lookup.hit", 0.0),
        "service.plan_s": totals.get("service.plan", 0.0),
        "service.batch_s": totals.get("service.batch", 0.0),
        "service.shared_members_s": totals.get("service.shared_members", 0.0),
        "service.backend_s": totals.get("service.backend", 0.0),
        "service.unit_s": attrs.get("service.backend.unit_s", 0.0),
        "service.payload_bytes": attrs.get("service.backend.payload_bytes", 0.0),
        "store.puts": counts.get("store.put", 0),
        "store.put_s": totals.get("store.put", 0.0),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = self_time[layer]

    # Cross-check by independent paths: the rows the sampler calls return
    # under each telescoping estimate cover the samples the estimate reports,
    # exactly when every walk under it is a single chain.
    problems = []
    for span in spans:
        if span["name"] != "volume.telescoping" or not span["attrs"]:
            continue
        rows = 0
        single_chain = True
        stack = list(children.get(span["id"], []))
        while stack:
            child = stack.pop()
            if child["name"] == "sampling.walk" and child["attrs"]:
                rows += child["attrs"]["rows"]
                single_chain &= child["attrs"]["starts"] == 1
            stack.extend(children.get(child["id"], []))
        reported = span["attrs"]["samples"]
        if rows < reported or (single_chain and rows != reported):
            problems.append(
                f"telescoping estimate {span['id']} reports {reported} samples "
                f"but its walks returned {rows} rows"
            )
    return metrics, problems


def report(out_dir: Path, outcome) -> list[dict]:
    """Add the per-layer metrics of the spans in ``out_dir`` to ``outcome``.

    Records a failed check per cross-check problem, prints the absent
    targets, and returns the spans.
    """
    spans, absent = load(out_dir)
    metrics, problems = analyze(spans)
    for problem in problems:
        outcome.check("samples_used cross-check", False, problem)
    outcome.metrics.update(metrics)
    for target in absent:
        print(f"layer target absent: {target}")
    return spans


def server_session_seconds(spans: list[dict]) -> dict[int, float]:
    """Server-side session time per request identifier.

    Sums the outermost session-layer spans (key resolution, cache lookup,
    planning, batch execution) recorded for each request.
    """
    by_id = {span["id"]: span for span in spans}
    seconds: dict[int, float] = {}
    for span in spans:
        if not span["name"].startswith("service.") or span["request"] is None:
            continue
        parent = by_id.get(span["parent"])
        nested = False
        while parent is not None:
            if parent["name"].startswith("service."):
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if nested:
            continue
        request = span["request"]
        seconds[request] = seconds.get(request, 0.0) + span["end"] - span["start"]
    return seconds
