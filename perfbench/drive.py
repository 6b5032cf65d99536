"""Load generators, output checks and failure accounting.

Two loop shapes drive a booted service from this process:

* ``closed_loop``: ``clients`` threads, each sending ``submit_many`` waves
  taken in turn from a seeded pool order, the next wave only after the
  previous one returned;
* ``open_loop``: requests due on a fixed schedule (``rate`` per second),
  picked up by ``senders`` threads as each becomes free.  Latency runs from
  a request's due time, so a stall is charged to the requests it delays.

Both record one ``Op`` per wave or request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: The latency, in seconds, of a failed or refused operation: it misses
#: every latency limit (finite, so that percentiles stay valid JSON).
FAILED = 1e6


@dataclass
class Op:
    """One wave (closed loop) or request (open loop)."""

    due: float          # when it was due (open loop) or sent (closed loop)
    sent: float
    done: float
    indices: list[int]  # pool indices of its questions
    answers: list | None = None     # one route list per question
    error: str | None = None        # failure kind, None on success
    #: Open loop only: the SQL generated on the top route.
    sql: str | None = None

    @property
    def latency(self) -> float:
        return FAILED if self.error is not None else self.done - self.due


def failure_kind(error: BaseException) -> str:
    """The typed-error bucket an operation failure is counted under."""
    from repro.cluster.dispatcher import ClusterError, ShardTimeoutError
    from repro.cluster.procworker import WorkerCrashedError
    from repro.control.admission import AdmissionRejected

    for kind in (AdmissionRejected, WorkerCrashedError, ShardTimeoutError,
                 ClusterError):
        if isinstance(error, kind):
            return kind.__name__
    return f"other:{type(error).__name__}"


@dataclass
class Window:
    """The measured interval and the ops that fall in it."""

    start: float
    end: float
    ops: list[Op] = field(default_factory=list)

    def measured(self) -> list[Op]:
        return [op for op in self.ops if self.start <= op.due < self.end]


def closed_loop(send_wave: Callable[[list[int]], list], order: list[int],
                wave_size: int, clients: int, warmup: float, seconds: float,
                check: "Checker") -> Window:
    """Run ``clients`` closed-loop senders; ops started in the window count."""
    lock = threading.Lock()
    cursor = [0]
    ops: list[Op] = []
    started = time.monotonic()
    window = Window(started + warmup, started + warmup + seconds, ops)

    def next_wave() -> list[int]:
        with lock:
            position = cursor[0]
            cursor[0] += wave_size
        return [order[(position + offset) % len(order)] for offset in range(wave_size)]

    def client() -> None:
        while True:
            now = time.monotonic()
            if now >= window.end:
                return
            indices = next_wave()
            sent = time.monotonic()
            try:
                answers, error = send_wave(indices), None
            except Exception as failure:  # counted by type, never fatal
                answers, error = None, failure_kind(failure)
            op = Op(sent, sent, time.monotonic(), indices, answers, error)
            check(op, counted=sent >= window.start)
            with lock:
                ops.append(op)

    run_threads(client, clients)
    return window


def open_loop(send: Callable[[int, int], Op], draws: list[int], rate: float,
              senders: int, warmup: float, seconds: float, check: "Checker") -> Window:
    """Send ``draws`` at ``rate`` per second; request ``i`` is due at i/rate.

    ``send(i, pool_index)`` performs request ``i`` and returns its ``Op``
    (with ``done`` set); this loop fills in ``due`` and ``sent``."""
    total = min(len(draws), int(rate * (warmup + seconds)))
    lock = threading.Lock()
    cursor = [0]
    ops: list[Op] = []
    started = time.monotonic() + 0.05
    window = Window(started + warmup, started + warmup + seconds, ops)

    def sender() -> None:
        while True:
            with lock:
                request = cursor[0]
                cursor[0] += 1
            if request >= total:
                return
            due = started + request / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            op = send(request, draws[request])
            op.due, op.sent = due, sent
            check(op, counted=window.start <= due < window.end)
            with lock:
                ops.append(op)

    run_threads(sender, senders)
    return window


def run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, name=f"perfbench-sender-{index}")
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- output checks -------------------------------------------------------------------
class Checker:
    """Checks each answer as it arrives, outside the timed region.

    Records violations (empty answers, unknown databases or tables, lost
    questions, empty SQL) and the first top route of every pool question
    answered in the window, then drops the answers so the run does not
    hold every result in memory."""

    def __init__(self, catalog) -> None:
        self.tables_of = {database.name: frozenset(database.table_names)
                          for database in catalog.databases}
        self.violations: list[str] = []
        self.top: dict[int, tuple] = {}   # pool index -> (top route, op.sql)
        self.answered: dict[int, int] = {}  # pool index -> times answered
        self.sent = 0
        self.routed = 0
        self._lock = threading.Lock()

    def __call__(self, op: Op, counted: bool) -> None:
        with self._lock:
            self._check(op, counted)

    def _check(self, op: Op, counted: bool) -> None:
        answers, op.answers = op.answers, None
        if op.error is not None:
            return
        if counted:
            self.sent += len(op.indices)
        if answers is None or len(answers) != len(op.indices):
            self.violations.append(f"{len(op.indices)} questions sent, "
                                   f"{0 if answers is None else len(answers)} answered")
            return
        for index, routes in zip(op.indices, answers):
            if not routes:
                self.violations.append(f"empty answer for pool question {index}")
                continue
            if counted:
                self.routed += 1
                self.top.setdefault(index, (routes[0], op.sql))
                self.answered[index] = self.answered.get(index, 0) + 1
            for route in routes:
                known = self.tables_of.get(route.database)
                if known is None:
                    self.violations.append(f"unknown database {route.database!r}")
                elif not route.tables or not set(route.tables) <= known:
                    self.violations.append(f"tables {route.tables!r} not all in "
                                           f"{route.database!r}")
        if op.sql is not None and not op.sql:
            self.violations.append(f"empty SQL for pool question {op.indices[0]}")

    def finish(self) -> list[str]:
        """Every violation, including questions sent but never routed."""
        if self.routed != self.sent:
            self.violations.append(f"{self.sent} questions sent in the window, "
                                   f"{self.routed} routed")
        return self.violations


def failure_counts(ops: list[Op]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in ops:
        if op.error is not None:
            counts[op.error] = counts.get(op.error, 0) + 1
    return counts
