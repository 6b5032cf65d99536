"""The repository benchmark: four seeded workloads against cold deployments.

Run from the root of a checkout::

    python3 perfbench/run.py --workload route_cold --seed 1 --seconds 10 --trace 0

Workloads (all over the spider_like collection under ``default_config()``):

* ``route_cold``   -- monolith ``RoutingService`` from ``save_router`` /
  ``from_checkpoint``, cache off, micro-batcher at 8; closed loop of 2
  clients sending ``submit_many`` waves of 8;
* ``nl2sql_open``  -- the same monolith with a 256-entry route cache; open
  loop at 100 req/s from 2 senders over a Zipf(1.0) draw of the pool; each
  request is ``submit`` -> ``SimulatedLLM.generate_sql`` on the top route ->
  ``SqlExecutor.execute_sql``; every 1000th request is followed by
  ``notify_catalog_changed()``; 1000 untimed draws fill the cache first;
* ``cluster_wire`` -- 2-shard subprocess ``ClusterRoutingService`` booted
  through ``save_cluster`` / ``load_cluster``, cache off, escalation on;
  closed loop of 2 clients sending waves of 16;
* ``cluster_wave`` -- 4-shard inproc cluster with wave decode and sliced
  vocabularies, cache off, escalation on; the same closed loop.

``--trace 0`` measures the end-to-end metrics with all program tracing off.
``--trace 1`` measures the per-layer metrics: it times a fresh build, then
alternates plain and traced phases (benchmark-side spans around every layer
plus the program's own tracing), writes every span to
``.bench_build/perfbench/spans-<workload>-<seed>.jsonl`` and derives the
layer numbers from that file.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the command exits
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import deploy
import drive
import layers

CLIENTS = 2                 # closed-loop clients / open-loop senders (= nproc)
OPEN_RATE = 100.0           # nl2sql_open requests per second
CATALOG_CHANGE_EVERY = 1000
SETUP_PROBES = 3            # cold boots per run; setup_s is their median
WARMUP_SECONDS = 1.0
#: nl2sql_open routes this many Zipf draws before timing, so the window
#: starts from a filled route cache rather than an empty one.
CACHE_FILL_REQUESTS = 1000
BLOCK_SECONDS = 2.0         # end-to-end medians are taken over blocks this long
P99_SAMPLES = 1000          # a p99 needs ten samples beyond it
TRACE_PAIRS = 4             # plain/traced phase pairs in a traced run
#: An open-loop run whose sender ran later than this (p99) fell behind.
LATE_LIMIT_MS = 250.0

#: The gated end-to-end metrics.  latency_p99_ms is measured and reported but
#: not gated: its run-to-run spread on a shared 2-core box exceeds any bound
#: the benchmark may set.
UNITS = {
    "setup_s": "s", "routes_per_s": "1/s", "latency_p50_ms": "ms",
    "db_recall_at_1": "share", "execution_accuracy": "share", "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=deploy.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up -----------------------------------------------------------------------------
def probe_setup(workload: str, checkpoint: Path, question: str) -> list[float]:
    """Cold boots in fresh processes, timed from spawn to the first answer.

    The probe reports when its first answer arrived on the system-wide
    monotonic clock, so its own shutdown stays outside the sample."""
    samples = []
    for attempt in range(SETUP_PROBES):
        command = [sys.executable, str(Path(deploy.__file__)), "probe", "--workload", workload,
                   "--checkpoint", str(checkpoint), "--scratch", str(deploy.WORK / "probe"),
                   "--question", question]
        spawned = time.monotonic()
        child = subprocess.run(command, capture_output=True, text=True, timeout=120)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe {attempt} for {workload} failed "
                               f"(exit {child.returncode}): {child.stderr[-2000:]}")
        samples.append(json.loads(lines[-1])["answered_at"] - spawned)
    return samples


def worker_pids(service) -> list[int]:
    pids = []
    for replica_set in getattr(service, "shards", []):
        for worker in replica_set.workers:
            pid = getattr(worker, "pid", None)
            if pid is not None:
                pids.append(pid)
    return pids


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident memory of this process plus ``pids`` (VmHWM), in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def src_ledger() -> dict[str, int]:
    """Source line count per top-level module of ``src/repro``."""
    ledger: dict[str, int] = {}
    package = deploy.SRC / "repro"
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).parts
        module = parts[0] if len(parts) > 1 else "repro"
        ledger[module] = ledger.get(module, 0) + len(path.read_text().splitlines())
    return ledger


# -- request paths --------------------------------------------------------------------
class Workload:
    """Binds a booted service to the load shape of one workload."""

    def __init__(self, name: str, service, context, pool, seed: int, log=None) -> None:
        self.name = name
        self.service = service
        self.pool = pool
        self.catalog = context.dataset.catalog
        self.instances = context.dataset.instances
        self.seed = seed
        self.log = log
        self._ids = itertools.count(1)
        self._llms = threading.local()

    def _request_scope(self):
        if self.log is None or not self.log.active:
            return contextlib.nullcontext()
        return self.log.request(next(self._ids))

    def send_wave(self, indices: list[int]) -> list:
        with self._request_scope():
            return self.service.submit_many([self.pool[index].question
                                             for index in indices])

    def send_nl2sql(self, request: int, index: int) -> drive.Op:
        from repro.llm import SimulatedLLM
        from repro.sql.errors import SqlError
        from repro.sql.executor import SqlExecutor

        llm = getattr(self._llms, "llm", None)
        if llm is None:
            llm = self._llms.llm = SimulatedLLM(catalog=self.catalog)
        question = self.pool[index].question
        answers, error, sql = None, None, None
        with self._request_scope():
            try:
                routes = self.service.submit(question)
                answers = [routes]
                if routes:
                    top = routes[0]
                    text, _ = llm.generate_sql(question, self.catalog.database(top.database),
                                               list(top.tables))
                    sql = text
                    try:
                        SqlExecutor(self.instances.instance(top.database)).execute_sql(text)
                    except SqlError:
                        pass  # a wrong answer, judged by execution_accuracy
            except Exception as failure:  # counted by type, never fatal
                error = drive.failure_kind(failure)
        done = time.monotonic()
        if request % CATALOG_CHANGE_EVERY == CATALOG_CHANGE_EVERY - 1:
            self.service.notify_catalog_changed()
        return drive.Op(0.0, 0.0, done, [index], answers, error, sql)

    def prepare(self, warmup: float, seconds: float, check: drive.Checker) -> None:
        """Untimed set-up of the load: nl2sql_open draws its seeded Zipf
        stream and routes its first CACHE_FILL_REQUESTS draws back to back."""
        if self.name != "nl2sql_open":
            return
        count = CACHE_FILL_REQUESTS + int(OPEN_RATE * (warmup + seconds)) + 1
        self.draws = deploy.zipf_draws(len(self.pool), count, self.seed)
        for index in self.draws[:CACHE_FILL_REQUESTS]:
            sent = time.monotonic()
            routes = self.service.submit(self.pool[index].question)
            check(drive.Op(sent, sent, time.monotonic(), [index], [routes]), counted=False)

    def run(self, warmup: float, seconds: float, check: drive.Checker) -> drive.Window:
        if self.name == "nl2sql_open":
            return drive.open_loop(self.send_nl2sql, self.draws[CACHE_FILL_REQUESTS:],
                                   OPEN_RATE, CLIENTS, warmup, seconds, check)
        order = deploy.seeded_order(len(self.pool), self.seed)
        return drive.closed_loop(self.send_wave, order, deploy.WAVE_SIZE[self.name],
                                 CLIENTS, warmup, seconds, check)


# -- end-to-end metrics -----------------------------------------------------------------
def judge(workload: Workload, check: drive.Checker) -> tuple[float, float]:
    """(db recall@1, execution accuracy) over the questions answered in the
    window, each counted as often as it was answered; judged outside the
    timed path.  A question's top route is deterministic, so each distinct
    question is judged once, on the SQL its request generated (NL2SQL) or on
    best-schema SQL generated for its top route here."""
    from repro.engine.comparison import results_equivalent
    from repro.llm import SimulatedLLM
    from repro.sql.errors import SqlError
    from repro.sql.executor import SqlExecutor
    from repro.sql.parser import parse_sql

    def execute(database: str, sql: str):
        try:
            return SqlExecutor(workload.instances.instance(database)).execute_sql(sql)
        except SqlError:
            return None

    llm = SimulatedLLM(catalog=workload.catalog)
    hits = correct = 0
    for index, (route, sql) in check.top.items():
        entry = workload.pool[index]
        if route.database != entry.database:
            continue
        hits += check.answered[index]
        if sql is None:
            sql, _ = llm.generate_sql(entry.question, workload.catalog.database(route.database),
                                      list(route.tables))
        predicted, gold = execute(route.database, sql), execute(entry.database, entry.sql)
        if results_equivalent(predicted, gold, order_sensitive=parse_sql(entry.sql).is_ordered()):
            correct += check.answered[index]
    count = sum(check.answered.values())
    return (hits / count if count else 0.0), (correct / count if count else 0.0)


def routed_in(ops: list[drive.Op], start: float, end: float) -> float:
    """Questions answered inside [start, end): each operation counts in
    proportion to the part of its flight inside the interval."""
    routed = 0.0
    for op in ops:
        if op.error is None:
            overlap = min(op.done, end) - max(op.sent, start)
            if overlap > 0:
                routed += len(op.indices) * overlap / max(op.done - op.sent, 1e-9)
    return routed


def blocks(start: float, end: float) -> list[tuple[float, float]]:
    """The window cut into blocks of about BLOCK_SECONDS (at least one)."""
    count = max(1, int((end - start) / BLOCK_SECONDS))
    width = (end - start) / count
    return [(start + k * width, start + (k + 1) * width) for k in range(count)]


def end_to_end(workload: Workload, window: drive.Window, ops: list[drive.Op],
               check: drive.Checker) -> dict:
    """Closed-loop throughput and latency p50 are medians over the window's
    blocks, so a burst of interference from outside the program moves them
    less.  p99
    is the median over blocks of at least P99_SAMPLES operations (one block,
    every sample, when the window holds fewer than twice that)."""
    block_p50, block_rates = [], []
    for low, high in blocks(window.start, window.end):
        inside = [op for op in ops if low <= op.due < high]
        if inside:
            block_p50.append(layers.percentile([op.latency * 1e3 for op in inside], 0.5))
        block_rates.append(routed_in(window.ops, low, high) / (high - low))
    ordered = sorted(ops, key=lambda op: op.due)
    groups = max(1, len(ordered) // P99_SAMPLES)
    block_p99 = [layers.percentile([op.latency * 1e3
                                    for op in ordered[k * len(ordered) // groups:
                                                      (k + 1) * len(ordered) // groups]],
                                   0.99)
                 for k in range(groups)]
    recall, accuracy = judge(workload, check)
    if workload.name == "nl2sql_open":
        # The offered rate is fixed: the loop's throughput is the rate its
        # requests completed at, which falls short only when the program
        # cannot keep up.
        answered = [op.done for op in ops if op.error is None]
        routes_per_s = ((len(answered) - 1) / (max(answered) - min(answered))
                        if len(answered) > 1 else 0.0)
    else:
        routes_per_s = statistics.median(block_rates)
    return {
        "routes_per_s": routes_per_s,
        "latency_p50_ms": statistics.median(block_p50) if block_p50 else drive.FAILED * 1e3,
        "latency_p99_ms": statistics.median(block_p99),
        "db_recall_at_1": recall,
        "execution_accuracy": accuracy,
        "samples": len(ops),
        "distinct_questions": len(check.top),
    }


# -- traced runs ------------------------------------------------------------------------
def counter_snapshot(service) -> dict[str, float]:
    """Cumulative work counters of every layer the service exposes."""
    stats = service.stats()
    snapshot: dict[str, float] = {}
    cache = stats.get("cache") or {}
    snapshot["cache_hits"] = cache.get("hits", 0)
    snapshot["cache_misses"] = cache.get("misses", 0)
    snapshot["cache_evictions"] = cache.get("evictions", 0)
    snapshot["cache_invalidations"] = cache.get("invalidations", 0)
    batcher = stats.get("batcher") or {}
    snapshot["batches"] = batcher.get("batches_dispatched", 0)
    snapshot["batched_requests"] = batcher.get("requests_dispatched", 0)
    dispatcher = stats.get("dispatcher") or {}
    snapshot["escalations"] = dispatcher.get("escalations", 0)
    snapshot["shard_failures"] = dispatcher.get("shard_failures", 0)
    transport = stats.get("transport") or {}
    snapshot["wire_bytes"] = transport.get("bytes_sent", 0) + transport.get("bytes_received", 0)
    snapshot["pipelined_frames"] = transport.get("pipelined_frames", 0)
    snapshot["max_in_flight"] = transport.get("max_in_flight", 0)
    wave = stats.get("wave") or {}
    snapshot["wave_steps"] = wave.get("steps", 0)
    snapshot["wave_beam_rows"] = wave.get("beam_rows", 0)
    constraints = {}
    routers = [service.router] if hasattr(service, "router") else []
    for replica_set in getattr(service, "shards", []):
        for worker in replica_set.workers:
            for tier in (getattr(worker, "service", None),
                         getattr(worker, "careful_service", None)):
                if tier is not None:
                    routers.append(tier.router)
    for router in routers:
        constraint = router.constraint
        if constraint is not None:
            constraints[id(constraint)] = constraint
    snapshot["mask_hits"] = sum(c.mask_cache_hits for c in constraints.values())
    snapshot["mask_misses"] = sum(c.mask_cache_misses for c in constraints.values())
    return snapshot


class PhaseSwitch:
    """Alternates plain and traced phases on a timer thread.

    Traced phases install the benchmark spans and enable the program's
    tracer; every switch snapshots the layer counters, so counts can be
    attributed to traced phases only."""

    def __init__(self, service, log: layers.SpanLog) -> None:
        self.service = service
        self.log = log
        self.switches: list[tuple[float, bool, dict]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _set(self, traced: bool) -> None:
        if traced:
            self.log.install()
        self.service.tracer.enabled = traced
        if not traced:
            self.log.uninstall()
        self.switches.append((time.monotonic(), traced, counter_snapshot(self.service)))

    def start(self, begin: float, phase: float, count: int) -> None:
        def run() -> None:
            for index in range(count + 1):
                delay = begin + index * phase - time.monotonic()
                if delay > 0 and self._stop.wait(delay):
                    break
                self._set(index % 2 == 1 and index < count)

        self._set(False)
        self._thread = threading.Thread(target=run, name="perfbench-phases")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        if self.switches and self.switches[-1][1]:
            self._set(False)

    def phases(self) -> list[tuple[float, float, bool, dict]]:
        """(start, end, traced, counter deltas) per completed phase."""
        result = []
        for (start, traced, before), (end, _, after) in zip(self.switches,
                                                             self.switches[1:]):
            deltas = {key: after[key] - before[key] for key in after}
            deltas["max_in_flight"] = after["max_in_flight"]
            result.append((start, end, traced, deltas))
        return result


def phase_rate(workload: str, ops: list[drive.Op], start: float, end: float) -> float:
    if workload != "nl2sql_open":
        return routed_in(ops, start, end) / (end - start)
    # The open loop's arrival rate is fixed: compare requests per busy
    # sender-second instead.
    done = [op for op in ops if start <= op.sent < end and op.error is None]
    busy = sum(op.done - op.sent for op in done)
    return len(done) / busy if busy else 0.0


def traced_metrics(workload: Workload, window: drive.Window, switch: PhaseSwitch,
                   log: layers.SpanLog, spans_path: Path) -> tuple[dict, dict]:
    phases = [phase for phase in switch.phases() if phase[0] >= window.start - 0.5]
    plain = [phase for phase in phases if not phase[2]]
    traced = [phase for phase in phases if phase[2]]
    ratios = []
    for (p_start, p_end, _, _), (t_start, t_end, _, _) in zip(plain, traced):
        untraced_rate = phase_rate(workload.name, window.ops, p_start, p_end)
        traced_rate = phase_rate(workload.name, window.ops, t_start, t_end)
        if untraced_rate:
            ratios.append(traced_rate / untraced_rate)
    counters: dict[str, float] = {}
    for _, _, _, deltas in traced:
        for key, value in deltas.items():
            counters[key] = (max(counters.get(key, 0), value) if key == "max_in_flight"
                             else counters.get(key, 0) + value)
    traced_ops = [op for op in window.ops
                  if any(start <= op.sent < end for start, end, _, _ in traced)]
    counters["routed"] = sum(len(op.indices) for op in traced_ops if op.error is None)
    log.write(spans_path)
    metrics = layers.layer_metrics(layers.read_spans(spans_path), counters)
    metrics["trace.overhead_share"] = 1.0 - statistics.median(ratios) if ratios else 0.0
    plain_ops = [op for op in window.measured()
                 if any(start <= op.sent < end for start, end, _, _ in plain)]
    plain_rate = statistics.fmean(phase_rate(workload.name, window.ops, start, end)
                                  for start, end, _, _ in plain) if plain else 0.0
    return metrics, {"plain_ops": plain_ops, "phase_ratios": ratios,
                     "plain_rate": plain_rate}


# -- main -------------------------------------------------------------------------------
def main(argv: list[str]) -> int:
    args = parse_args(argv)
    deploy.require_source()
    context, pool = deploy.load_pool()
    checkpoint = deploy.cached_checkpoint()
    first = pool[deploy.seeded_order(len(pool), args.seed)[0]].question
    scratch = deploy.WORK / f"run-{args.workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "wave_size": deploy.WAVE_SIZE.get(args.workload, 1),
                    "src_lines": src_ledger()}
    log = layers.SpanLog() if args.trace else None
    if args.trace:
        checkpoint = scratch / "router"
        report["setup.build_s"] = deploy.build_checkpoint(checkpoint)
    else:
        report["setup_samples_s"] = probe_setup(args.workload, checkpoint, first)
    started = time.perf_counter()
    service = deploy.boot(args.workload, checkpoint, traced=bool(args.trace),
                          scratch=scratch)
    report["setup.boot_s"] = time.perf_counter() - started
    try:
        if args.workload == "cluster_wave":
            wave = service.stats().get("wave") or {}
            if not wave.get("enabled"):
                raise RuntimeError(f"cluster_wave: wave engine did not engage: {wave}")
        workload = Workload(args.workload, service, context, pool, args.seed, log)
        check = drive.Checker(workload.catalog)
        seconds = args.seconds
        switch = None
        if args.trace:
            service.tracer.enabled = False
            switch = PhaseSwitch(service, log)
        workload.prepare(WARMUP_SECONDS, seconds, check)
        if switch is not None:
            phase = seconds / (2 * TRACE_PAIRS)
            switch.start(time.monotonic() + WARMUP_SECONDS, phase, 2 * TRACE_PAIRS)
        try:
            window = workload.run(WARMUP_SECONDS, seconds, check)
        finally:
            if switch is not None:
                switch.stop()
        report["peak_rss_mb"] = peak_rss_mb(worker_pids(service))
    finally:
        service.close()
        shutil.rmtree(scratch, ignore_errors=True)

    ops = window.measured()
    violations = check.finish()
    failures = drive.failure_counts(ops)
    report["attempted"] = len(ops)
    report["failed"] = sum(failures.values())
    report["succeeded"] = len(ops) - report["failed"]
    report["failures_by_type"] = failures
    report["failed_share"] = report["failed"] / len(ops) if ops else 1.0
    if not ops:
        violations.append("no operation completed in the measured window")
    late = [(op.sent - op.due) * 1e3 for op in ops]
    report["loadgen.late_ms.p99"] = layers.percentile(late, 0.99)
    if args.workload == "nl2sql_open" and report["loadgen.late_ms.p99"] > LATE_LIMIT_MS:
        violations.append(f"invalid run: the sender ran {report['loadgen.late_ms.p99']:.0f} ms "
                          f"late (p99), over the {LATE_LIMIT_MS:.0f} ms limit")

    if args.trace:
        spans_path = deploy.WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        layer, extra = traced_metrics(workload, window, switch, log, spans_path)
        layer["setup.build_s"] = report["setup.build_s"]
        layer["setup.boot_s"] = report["setup.boot_s"]
        layer["loadgen.late_ms.p99"] = report["loadgen.late_ms.p99"]
        report["untraced"] = end_to_end(workload, window, extra["plain_ops"], check)
        if args.workload != "nl2sql_open":
            report["untraced"]["routes_per_s"] = extra["plain_rate"]
        report["trace_phase_ratios"] = extra["phase_ratios"]
        report["spans_file"] = str(spans_path.relative_to(deploy.ROOT))
        report["uninstrumented"] = sorted(log.missing)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
    else:
        e2e = end_to_end(workload, window, ops, check)
        e2e["setup_s"] = statistics.median(report["setup_samples_s"])
        e2e["peak_rss_mb"] = report["peak_rss_mb"]
        report.update(e2e)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS.items()}
    report["metrics"] = metrics
    report["violations"] = violations[:20]
    print_report(report)
    record = deploy.WORK / "runs" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(report, indent=1, default=str))
    correct = not violations
    for violation in violations[:20]:
        print(f"CHECK FAILED: {violation}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    for suffix, unit in ((".build_s", "s"), (".boot_s", "s"), ("_ms.p50", "ms"),
                         ("_ms.p99", "ms"), ("_us.p50", "us"), (".ms.total", "ms"),
                         ("_ms.total", "ms"), ("_share", "share"), ("_ratio", "share"),
                         (".mean", "count"), ("flops_est", "flop"), ("bytes_est", "B"),
                         ("bytes_per_route", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} "
          f"wave_size={report['wave_size']}")
    print(f"  operations: attempted={report['attempted']} succeeded={report['succeeded']} "
          f"failed={report['failed']} failed_share={report['failed_share']:.4f} "
          f"by_type={report['failures_by_type']}")
    if not report["trace"]:
        print(f"  latency samples={report['samples']} "
              f"distinct_questions={report['distinct_questions']}")
        print(f"  latency_p99_ms = {report['latency_p99_ms']:.6g} ms (reported, not gated)")
    else:
        untraced = report["untraced"]
        print(f"  untraced phases: routes_per_s={untraced['routes_per_s']:.2f} "
              f"latency_p50_ms={untraced['latency_p50_ms']:.3f} "
              f"latency_p99_ms={untraced['latency_p99_ms']:.3f} "
              f"(samples={untraced['samples']}) "
              f"db_recall_at_1={untraced['db_recall_at_1']:.4f}")
        print(f"  spans: {report['spans_file']}")
        if report["uninstrumented"]:
            print(f"  entry points not found: {report['uninstrumented']}")
    for name, metric in report["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  src_lines {json.dumps(report['src_lines'], sort_keys=True)}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
