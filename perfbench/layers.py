"""Traced-run instrumentation: benchmark-side spans around each layer.

``SpanLog.install()`` wraps the public entry points of the program's modules
(and the two module-level functions the router and the wave engine call by
name) in benchmark-side spans, and collects the program's own trace trees
as they finish.  ``uninstall()`` restores every original, so untraced phases
of a traced run execute exactly the code an end-to-end run does.  Spans stay
in memory until ``write()`` dumps them as JSON lines; ``layer_metrics()``
reads such a file back and derives the per-layer numbers.

A span record is ``{"id", "name", "start", "end", "parent", "req", "src",
"attrs"}``: ``req`` lists the request (or wave) ids it worked for, ``src`` is
``bench`` for benchmark spans and ``program``/``remote`` for spans the
program's tracer recorded in this process or in a worker process.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.monotonic  # the program's tracer clock: one epoch for all spans


class SpanLog:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: program trace id -> benchmark request id that started it
        self.owner: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: Entry points a refactored program no longer has (their layers read 0).
        self.missing: set[str] = set()

    @property
    def active(self) -> bool:
        """True while the layer wrappers are installed (a traced phase)."""
        return bool(self._patches)

    # -- span primitives -------------------------------------------------------
    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, req: tuple | None = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None:
            req = parent["req"] if parent is not None else ()
        record = {"id": f"b{next(self._ids)}", "name": name, "start": clock(),
                  "end": None, "parent": parent["id"] if parent is not None else None,
                  "req": req, "src": "bench", "attrs": {}}
        stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["end"] = clock()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self.records.append(record)

    @contextmanager
    def request(self, request_id: int):
        """The root span of one benchmark request or wave."""
        record = self.open("request", (request_id,))
        self._local.request = request_id
        try:
            yield record
        finally:
            self._local.request = None
            self.close(record)

    def _requests_of(self, contexts) -> tuple | None:
        if not contexts:
            return None
        owners = {self.owner.get(getattr(context, "trace_id", None))
                  for context in contexts if context is not None}
        owners.discard(None)
        return tuple(sorted(owners)) if owners else None

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attribute: str, make_wrapper) -> None:
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        self._patches.append((owner, attribute, owner.__dict__[attribute]
                              if isinstance(owner, type) else original))
        setattr(owner, attribute, functools.wraps(original)(make_wrapper(original)))

    def _timed(self, owner, attribute: str, name: str, requests=None, after=None) -> None:
        log = self

        def make(original):
            def wrapper(*args, **kwargs):
                record = log.open(name, requests(args, kwargs) if requests else None)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    record["attrs"]["error"] = True
                    raise
                finally:
                    log.close(record)
                if after is not None:
                    after(record, args, kwargs, result)
                return result
            return wrapper

        self._patch(owner, attribute, make)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per install/uninstall)."""
        if self._patches:
            return
        from repro.cluster import dispatcher, procworker, wave
        from repro.core import router
        from repro.llm.client import SimulatedLLM
        from repro.nn.seq2seq import Seq2SeqModel
        from repro.obs.trace import TraceContext, Tracer
        from repro.serving.cache import RouteCache
        from repro.sql.executor import SqlExecutor

        log = self

        def trace_start(original):
            def wrapper(*args, **kwargs):
                context = original(*args, **kwargs)
                request = getattr(log._local, "request", None)
                if context is not None and request is not None:
                    log.owner[context.trace_id] = request
                return context
            return wrapper

        def trace_finish(original):
            def wrapper(context, *args, **kwargs):
                original(context, *args, **kwargs)
                log.add_program_trace(context)
            return wrapper

        self._patch(Tracer, "start_trace", trace_start)
        self._patch(TraceContext, "finish", trace_finish)

        self._timed(RouteCache, "get", "cache.get")
        self._timed(RouteCache, "get_many", "cache.get")
        self._timed(router.SchemaRouter, "route_batch", "router.route_batch",
                    requests=lambda args, kwargs: log._requests_of(kwargs.get("traces")))
        self._timed(router.SchemaRouter, "_combine_hypotheses", "parse")
        self._timed(Seq2SeqModel, "encode_numpy_batch", "encode",
                    after=lambda record, args, kwargs, result:
                    record["attrs"].update(rows=len(result)))
        for module in (router, wave):
            self._patch(module, "diverse_beam_search_batch", self._decode_wrapper)
        self._timed(SimulatedLLM, "generate_sql", "llm.generate_sql",
                    after=lambda record, args, kwargs, result:
                    record["attrs"].update(prompt_tokens=result[1].prompt_tokens))
        self._timed(SqlExecutor, "execute_sql", "sql.execute")
        self._timed(dispatcher.ClusterDispatcher, "route_batch", "dispatcher.route_batch")
        self._timed(dispatcher, "merge_route_lists", "merge")
        self._timed(procworker.ProcShardWorker, "route_batch", "wire.route_batch",
                    requests=lambda args, kwargs: log._requests_of([kwargs.get("trace")]))
        self._timed(procworker, "route_lists_from_binary", "wire.payload_decode")
        self._timed(procworker, "route_lists_from_payload", "wire.payload_decode")
        self._timed(wave.ClusterWaveEngine, "route_wave", "wave.route_wave")

    def _decode_wrapper(self, original):
        log = self

        def wrapper(model, encoded_batch, *args, **kwargs):
            caller_stats = kwargs.get("stats")
            stats = kwargs["stats"] = {} if caller_stats is None else caller_stats
            before = (stats.get("steps", 0), stats.get("beam_rows", 0))
            record = log.open("decode")
            try:
                return original(model, encoded_batch, *args, **kwargs)
            finally:
                log.close(record)
                steps = stats.get("steps", 0) - before[0]
                rows = stats.get("beam_rows", 0) - before[1]
                length = max((encoded.memory.shape[0] for encoded in encoded_batch),
                             default=0)
                record["attrs"].update(steps=steps, beam_rows=rows,
                                       **decode_cost(model.config, length, steps, rows))
        return wrapper

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- program traces ------------------------------------------------------------
    def add_program_trace(self, context) -> None:
        request = self.owner.get(context.trace_id)
        req = (request,) if request is not None else ()
        for span in context.span_dicts():
            self.records.append({
                "id": span["span_id"], "name": span["name"], "start": span["started"],
                "end": span["ended"], "parent": span["parent_id"], "req": req,
                "src": "remote" if span["remote"] else "program",
                "attrs": span["attributes"]})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.records:
                if record["end"] is not None:
                    handle.write(json.dumps(record, default=str) + "\n")


def decode_cost(config, length: int, steps: int, rows: int) -> dict:
    """Estimated FLOPs and bytes moved by a decode, from tensor sizes.

    Per beam row and step: input and recurrent projections, attention over
    ``length`` source positions, the combine projection and the output
    head; weights are read once per step, activations once per row."""
    d, h, v = config.embedding_dim, config.hidden_dim, config.target_vocab_size
    row_flops = 2 * (d * h + h * h + 2 * length * h + 2 * h * h + h * v) + 5 * v
    weight_bytes = 8 * (d * h + h * h + 2 * h * h + h * v)
    row_bytes = 8 * (length * h + 3 * h + 2 * v)
    return {"flops": rows * row_flops, "bytes": steps * weight_bytes + rows * row_bytes}


def read_spans(path: Path) -> list[dict]:
    with path.open() as handle:
        return [json.loads(line) for line in handle]


# -- derived metrics -------------------------------------------------------------------
def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = [(max(start, span["start"]), min(end, span["end"]))
                   for start, end in children.get(span["id"], [])]
        covered = [(start, end) for start, end in covered if end > start]
        result[span["id"]] = span["end"] - span["start"] - union_length(covered)
    return result


def unattributed(spans: list[dict]) -> list[float]:
    """Per request: latency minus the part any layer span of it covers."""
    roots = {span["req"][0]: span for span in spans
             if span["src"] == "bench" and span["name"] == "request"}
    covered: dict[int, list[tuple[float, float]]] = {request: [] for request in roots}
    for span in spans:
        if span["name"] == "request" or (span["src"] != "bench" and span["parent"] is None):
            continue  # the request itself, or a program trace's root span
        for request in span["req"]:
            root = roots.get(request)
            if root is None:
                continue
            start, end = max(span["start"], root["start"]), min(span["end"], root["end"])
            if end > start:
                covered[request].append((start, end))
    return [root["end"] - root["start"] - union_length(covered[request])
            for request, root in roots.items()]


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics from span records plus traced-phase counter deltas.

    Layers a workload never crosses report 0."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        if span["src"] == "bench":
            by_name.setdefault(span["name"], []).append(span)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def durations(chosen: list[dict], scale: float = 1e3) -> list[float]:
        return [(span["end"] - span["start"]) * scale for span in chosen]

    def attr_sum(name: str, key: str) -> float:
        return float(sum(span["attrs"].get(key, 0) for span in named(name)))

    selfs = self_times([span for span in spans if span["src"] == "bench"])
    queue_wait = durations([span for span in spans
                            if span["src"] == "program" and span["name"] == "queue_wait"])
    remote_decode = [span for span in spans
                     if span["src"] == "remote" and span["name"] == "decode"]
    mask_hits = counters.get("mask_hits", 0) + sum(
        span["attrs"].get("mask_cache_hits", 0) for span in remote_decode)
    mask_misses = counters.get("mask_misses", 0) + sum(
        span["attrs"].get("mask_cache_misses", 0) for span in remote_decode)
    cache_lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    batches = counters.get("batches", 0)
    routed = counters.get("routed", 0)
    sql_spans = named("sql.execute")
    llm_spans = named("llm.generate_sql")
    return {
        "batcher.queue_wait_ms.p50": percentile(queue_wait, 0.5),
        "batcher.queue_wait_ms.p99": percentile(queue_wait, 0.99),
        "batcher.batch_size.mean": (counters.get("batched_requests", 0) / batches
                                    if batches else 0.0),
        "batcher.batches": float(batches),
        "cache.hit_ratio": (counters.get("cache_hits", 0) / cache_lookups
                            if cache_lookups else 0.0),
        "cache.evictions": float(counters.get("cache_evictions", 0)),
        "cache.invalidations": float(counters.get("cache_invalidations", 0)),
        "cache.get_us.p50": percentile(durations(named("cache.get"), 1e6), 0.5),
        "router.route_batch_ms.p50": percentile(durations(named("router.route_batch")), 0.5),
        "router.self_ms.total": 1e3 * sum(selfs[span["id"]]
                                          for span in named("router.route_batch")),
        "parse.ms.total": math.fsum(durations(named("parse"))),
        "encode.ms.total": math.fsum(durations(named("encode"))),
        "encode.rows": attr_sum("encode", "rows"),
        "decode.ms.total": math.fsum(durations(named("decode"))),
        "decode.steps": attr_sum("decode", "steps"),
        "decode.beam_rows": attr_sum("decode", "beam_rows"),
        "decode.flops_est": attr_sum("decode", "flops"),
        "decode.bytes_est": attr_sum("decode", "bytes"),
        "constraint.mask_hit_ratio": (mask_hits / (mask_hits + mask_misses)
                                      if mask_hits + mask_misses else 0.0),
        "constraint.mask_misses": float(mask_misses),
        "llm.generate_ms.p50": percentile(durations(llm_spans), 0.5),
        "llm.prompt_tokens.mean": (statistics.fmean(span["attrs"]["prompt_tokens"]
                                                    for span in llm_spans)
                                   if llm_spans else 0.0),
        "sql.execute_ms.p50": percentile(durations(sql_spans), 0.5),
        "sql.execute_failed_share": (sum(1 for span in sql_spans if span["attrs"].get("error"))
                                     / len(sql_spans) if sql_spans else 0.0),
        "dispatcher.route_batch_ms.p50": percentile(durations(named("dispatcher.route_batch")), 0.5),
        "dispatcher.escalation_share": (counters.get("escalations", 0) / routed
                                        if routed and named("dispatcher.route_batch")
                                        else 0.0),
        "dispatcher.shard_failures": float(counters.get("shard_failures", 0)),
        "merge.ms.total": math.fsum(durations(named("merge"))),
        "wire.roundtrip_ms.p50": percentile(durations(named("wire.route_batch")), 0.5),
        "wire.child_decode_ms.p50": percentile(durations(remote_decode), 0.5),
        "wire.payload_decode_us.p50": percentile(durations(named("wire.payload_decode"), 1e6), 0.5),
        "wire.bytes_per_route": (counters.get("wire_bytes", 0) / routed
                                 if routed and counters.get("wire_bytes") else 0.0),
        "wire.max_in_flight": float(counters.get("max_in_flight", 0)),
        "wire.pipelined_frames": float(counters.get("pipelined_frames", 0)),
        "wave.route_wave_ms.p50": percentile(durations(named("wave.route_wave")), 0.5),
        "wave.steps": float(counters.get("wave_steps", 0)),
        "wave.beam_rows": float(counters.get("wave_beam_rows", 0)),
        "request.unattributed_ms.p50": 1e3 * percentile(unattributed(spans), 0.5),
    }
