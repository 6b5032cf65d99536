"""Decode throughput: the decode engine vs. the loop oracle on the routing hot path.

Routes the same seeded workload through the same trained router in
micro-batches of ``DECODE_BATCH`` questions, once per decoder: ``engine``
(``SchemaRouter.route_batch`` on the batch-invariant slot-dense engine) and
``loop`` (the same encode and parse around the per-beam loop oracle,
:func:`repro.nn.decoding.diverse_beam_search_loop`).
``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke lanes.  Each
decoder is timed as the best of ``ROUNDS`` full passes, with rounds
*interleaved* across decoders so noisy-neighbour windows on a shared runner
bias every decoder equally instead of whichever was on the clock.

Besides the result table it prints a one-line ``DECODE_SUMMARY`` JSON
(questions/sec, speedup over loop, top-1 agreement, batch-size bit-identity)
for the CI bench-smoke lane to scrape, and asserts the engine's contract:

* >= 3.0x the loop oracle's questions/sec at batch 8 (the product of the two
  bars it replaces: the old exact tier at >= 2x loop and the old flat-GEMM
  tier at >= 1.5x the exact one);
* seeded top-1 agreement with the loop oracle >= 0.99;
* bit-identical routes (hex-float score keys) whether the workload is routed
  in micro-batches of 1, 8, 32 or 96.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.router import SchemaRouter
from repro.nn.decoding import diverse_beam_search_loop
from repro.nn.tokenizer import WordTokenizer
from repro.utils.tables import ResultTable

#: Micro-batch size under test (the acceptance bars are pinned at batch 8).
DECODE_BATCH = 8
#: Batch sizes the engine's routes must be bit-identical across.
INVARIANCE_BATCHES = (1, 8, 32, 96)
#: Timed passes per decoder; speedup gates use the median of the per-round
#: paired ratios and the table reports each decoder's best pass.
ROUNDS = 5
#: ``REPRO_BENCH_REQUESTS`` shrinks the seeded workload for smoke lanes.
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "200"))


def _route_key(routes) -> list[tuple]:
    return [(route.database, route.tables, route.score.hex()) for route in routes]


def _top1(routes) -> str | None:
    return routes[0].database if routes else None


def _loop_route_batch(router: SchemaRouter, questions: list[str]) -> list:
    """``route_batch`` with each question decoded by the loop oracle."""
    config = router.config
    tokenizer = WordTokenizer(router.source_vocabulary)
    encoded_batch = router.model.encode_numpy_batch(
        [tokenizer.encode_text(question, max_length=config.max_source_length)
         for question in questions],
        pad_id=router.source_vocabulary.pad_id)
    num_groups, penalty = ((config.beam_groups, config.diversity_penalty)
                           if config.diverse_beam else (1, 0.0))
    routed = []
    for encoded in encoded_batch:
        hypotheses = diverse_beam_search_loop(
            router.model, (), router.target_vocabulary.bos_id,
            router.target_vocabulary.eos_id, num_beams=config.num_beams,
            num_groups=num_groups, diversity_penalty=penalty,
            max_length=config.max_decode_length, constraint=router.constraint,
            encoded=encoded)
        routed.append(router.combine_hypotheses(
            hypotheses or router.decode_fallback(encoded)))
    return routed


def _batched(workload: list[str], size: int) -> list[list[str]]:
    return [workload[start:start + size] for start in range(0, len(workload), size)]


def _one_pass(route_batch, batches: list[list[str]]) -> tuple[float, list]:
    routed: list = []
    started = time.perf_counter()
    for batch in batches:
        routed.extend(route_batch(batch))
    return max(time.perf_counter() - started, 1e-9), routed


def test_decode_throughput(benchmark, spider_context):
    questions = [example.question for example in spider_context.test_examples()[:40]]
    workload = [questions[index % len(questions)] for index in range(NUM_REQUESTS)]
    batches = _batched(workload, DECODE_BATCH)

    router = spider_context.copilot.router
    decoders = {"loop": lambda batch: _loop_route_batch(router, batch),
                "engine": router.route_batch}
    # Warm the router (constraint tries, mask caches, parse memos) so the
    # timed passes compare the decoders, not first-touch setup.
    for route_batch in decoders.values():
        route_batch(batches[0])

    # Rounds are interleaved -- every decoder runs once per round, so a noisy
    # neighbour or a thermal dip hits all decoders in the same window instead
    # of skewing whichever happened to be on the clock.  Speedups are judged
    # on the *median of the per-round paired ratios* (each ratio compares
    # passes taken back to back), which survives individual polluted rounds;
    # the table reports each decoder's best pass.
    elapsed: dict[str, float] = {name: float("inf") for name in decoders}
    routes: dict[str, list] = {}
    round_times: list[dict[str, float]] = []

    def sweep_round() -> None:
        # The slow loop oracle runs only in the first and last rounds (cheap,
        # but not hostage to a single noisy window); ``median_speedup`` pairs
        # the other rounds against its best pass -- the conservative
        # direction for the >= 3x engine gate.
        this_round: dict[str, float] = {}
        loop_round = not round_times or len(round_times) == ROUNDS - 1
        for name, route_batch in decoders.items():
            if name == "loop" and not loop_round:
                continue
            seconds, routed = _one_pass(route_batch, batches)
            this_round[name] = seconds
            if seconds < elapsed[name]:
                elapsed[name] = seconds
                routes[name] = routed
        round_times.append(this_round)

    benchmark.pedantic(sweep_round, rounds=ROUNDS, iterations=1)

    def median_speedup(name: str, against: str) -> float:
        ratios = sorted(
            times.get(against, elapsed[against]) / times[name]
            for times in round_times if name in times)
        return ratios[len(ratios) // 2]

    def top1_agreement(name: str, against: str) -> float:
        return sum(
            _top1(ours) == _top1(theirs)
            for ours, theirs in zip(routes[name], routes[against])
        ) / max(len(workload), 1)

    qps = {name: len(workload) / seconds for name, seconds in elapsed.items()}
    table = ResultTable(
        title=f"Decode throughput by decoder (batch {DECODE_BATCH})",
        columns=["decoder", "questions_per_sec", "ms_per_question",
                 "speedup_vs_loop", "top1_vs_loop"],
    )
    summary_decoders = {}
    for name in decoders:
        agreement = top1_agreement(name, "loop")
        speedup = median_speedup(name, "loop")
        table.add_row(name, round(qps[name], 1), round(1000.0 / qps[name], 3),
                      round(speedup, 2), round(agreement, 4))
        summary_decoders[name] = {
            "questions_per_sec": round(qps[name], 1),
            "speedup_vs_loop": round(speedup, 2),
            "top1_agreement_vs_loop": round(agreement, 4),
        }
    print()
    print(table.render())

    # Untimed: the engine's routes at every batch size, compared to the bit
    # against its batch-of-8 timed pass.
    reference = [_route_key(routed) for routed in routes["engine"]]
    by_batch = {
        str(size): [_route_key(routed)
                    for batch in _batched(workload, size)
                    for routed in router.route_batch(batch)] == reference
        for size in INVARIANCE_BATCHES}
    summary = {
        "workload_questions": len(workload),
        "decode_batch": DECODE_BATCH,
        "rounds": ROUNDS,
        "num_beams": router.config.num_beams,
        "backends": summary_decoders,
        # Top-level scalars feed the CI trajectory; the rest is detail.
        "engine_bit_identical_by_batch": by_batch,
        "engine_bit_identical_across_batches": all(by_batch.values()),
        "engine_speedup_vs_loop": summary_decoders["engine"]["speedup_vs_loop"],
        "engine_top1_agreement_vs_loop":
            summary_decoders["engine"]["top1_agreement_vs_loop"],
    }
    print("DECODE_SUMMARY " + json.dumps(summary, sort_keys=True))

    # The engine's contract (see the module docstring), gated on the
    # *unrounded* values (the summary values are rounded for display only).
    assert summary["engine_bit_identical_across_batches"], summary
    assert top1_agreement("engine", "loop") >= 0.99, summary
    assert median_speedup("engine", "loop") >= 3.0, summary
