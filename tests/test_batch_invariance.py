"""Batch invariance of the decode engine, to the bit.

A route is a function of the checkpoint and the question only: the same
tokens and the same score bits whether the question is decoded alone or in
a micro-batch of 8, 32 or 96, at any position, before or after the batch's
finished questions are compacted out of the beam grid.  The workload mixes
96 seeded questions with empty, whitespace-only, over-length and
out-of-vocabulary ones and one long straggler.  The same bits must come back
from a route-cache hit and across the subprocess wire, and from the cluster
paths that decode sliced shard vocabularies: the pool path's calibration
replay and the wave engine's stacked decode.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRoutingService,
    ProcShardWorker,
    ShardWorker,
    save_cluster,
)
from repro.core.graph import SchemaGraph
from repro.core.questioner import TemplateQuestioner
from repro.core.router import RouterConfig, SchemaRouter
from repro.core.sampling import SchemaSampler
from repro.core.synthesis import SynthesisConfig, synthesize_training_data
from repro.datasets import CollectionConfig, build_collection
from repro.nn.decoding import diverse_beam_search_batch
from repro.nn.tokenizer import WordTokenizer
from repro.serving import RoutingService, ServingConfig

SEED = 41
NUM_QUESTIONS = 96
CHUNK_SIZES = (8, 32, 96)
WAVE_SIZE = 16
SLICED_CLUSTER = ClusterConfig(num_shards=4, strategy="round_robin",
                               sliced_vocabulary=True, enable_cache=False)


def _route_keys(route_lists):
    return [[(route.database, route.tables, route.score.hex()) for route in routes]
            for routes in route_lists]


def _hypothesis_keys(hypotheses_batch):
    return [[(tuple(h.tokens), h.score.hex(), h.finished) for h in hypotheses]
            for hypotheses in hypotheses_batch]


def _decode(router: SchemaRouter, questions: list[str], stats: dict | None = None):
    """The engine call ``route_batch`` makes, returning raw hypotheses."""
    tokenizer = WordTokenizer(router.source_vocabulary)
    config = router.config
    encoded = router.model.encode_numpy_batch(
        [tokenizer.encode_text(question, max_length=config.max_source_length)
         for question in questions],
        pad_id=router.source_vocabulary.pad_id)
    return diverse_beam_search_batch(
        router.model, encoded, router.target_vocabulary.bos_id,
        router.target_vocabulary.eos_id, num_beams=config.num_beams,
        num_groups=config.beam_groups, diversity_penalty=config.diversity_penalty,
        max_length=config.max_decode_length, constraint=router.constraint,
        stats=stats, memory_length=config.max_source_length)


def _chunked(items: list, size: int) -> list[list]:
    return [items[start:start + size] for start in range(0, len(items), size)]


@pytest.fixture(scope="module")
def workload():
    dataset = build_collection(CollectionConfig(
        name="invariance", num_databases=8, rows_per_table=8,
        examples_per_database=6, seed=SEED))
    graph = SchemaGraph.from_catalog(dataset.catalog)
    report = synthesize_training_data(
        SchemaSampler(graph, seed=SEED),
        TemplateQuestioner(catalog=dataset.catalog, seed=SEED),
        SynthesisConfig(num_samples=240))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=6, embedding_dim=20, hidden_dim=32, num_beams=10, beam_groups=10,
        seed=SEED))
    router.fit(report.examples)

    pool = sorted({example.question for example in report.examples})
    rng = random.Random(SEED)
    rng.shuffle(pool)
    # The straggler: the seeded question whose decode runs the most steps.
    # The junk questions finish a step or more earlier, so batches mixing
    # them with it compact finished questions out of the grid mid-decode.
    steps_alone = []
    for question in pool[:120]:
        stats: dict = {}
        _decode(router, [question], stats)
        steps_alone.append((stats["steps"], question))
    straggler_steps, straggler = max(steps_alone)
    seeded = [question for question in pool if question != straggler]
    over_length = seeded[0].split() * 6
    specials = [
        "",
        "   \t\n ",
        " ".join(over_length),                       # > max_source_length tokens
        "zyzzyva quokka xylograph",                  # out of vocabulary
        "how many qwertyuiop are in " + seeded[1],   # partly out of vocabulary
    ]
    assert len(over_length) > router.config.max_source_length
    questions = seeded[:NUM_QUESTIONS - len(specials) - 1] + specials
    questions.insert(NUM_QUESTIONS // 2, straggler)
    assert len(questions) == NUM_QUESTIONS
    return router, questions, straggler_steps


def test_hypotheses_bit_identical_across_chunk_sizes(workload):
    router, questions, straggler_steps = workload
    alone = [_hypothesis_keys(_decode(router, [question]))[0]
             for question in questions]
    for size in CHUNK_SIZES:
        stats: dict = {}
        chunked = [key for chunk in _chunked(questions, size)
                   for key in _hypothesis_keys(_decode(router, chunk, stats))]
        mismatched = [index for index, (ours, theirs) in enumerate(zip(chunked, alone))
                      if ours != theirs]
        assert not mismatched, (size, mismatched)
        assert stats["questions_compacted"] > 0
    # The whole-batch decode ran as long as its straggler did.
    assert stats["steps"] == straggler_steps


def test_single_slot_grid_bit_identical_across_chunk_sizes(workload):
    """One beam per question: alone, every projection is a 1-row GEMM --
    the shape BLAS is most tempted to route through a different kernel than
    the batch's many-row GEMM."""
    router, questions, _ = workload
    greedy = SchemaRouter(graph=router.graph,
                          config=router.config.ablated(num_beams=1, beam_groups=1))
    greedy.restore(router.model, router.source_vocabulary, router.target_vocabulary)
    alone = [_hypothesis_keys(_decode(greedy, [question]))[0] for question in questions]
    for size in CHUNK_SIZES:
        chunked = [key for chunk in _chunked(questions, size)
                   for key in _hypothesis_keys(_decode(greedy, chunk))]
        assert chunked == alone, size


def test_routes_bit_identical_across_chunk_sizes(workload):
    router, questions, _ = workload
    alone = [_route_keys(router.route_batch([question]))[0] for question in questions]
    assert all(alone), "every question, junk included, routes somewhere"
    for size in CHUNK_SIZES:
        chunked = [key for chunk in _chunked(questions, size)
                   for key in _route_keys(router.route_batch(chunk))]
        assert chunked == alone, size


def test_cache_hit_returns_fresh_decode_bits(workload):
    router, questions, _ = workload
    picked = questions[40:56]
    fresh = _route_keys(router.route_batch(list(reversed(picked))))[::-1]
    with RoutingService(router, ServingConfig(max_batch_size=8)) as service:
        missed = service.submit_many(picked)
        hit = service.submit_many(picked)
        assert service.stats()["counters"]["cache_hits"] >= len(picked)
    assert _route_keys(missed) == fresh
    assert _route_keys(hit) == fresh


def test_subprocess_worker_matches_inproc_bits(workload, tmp_path):
    router, questions, _ = workload
    built = ClusterRoutingService.from_router(
        router, ClusterConfig(num_shards=2, strategy="size_balanced"))
    checkpoint = save_cluster(built, tmp_path / "cluster")
    built.close()
    shard_dir = checkpoint / "shard-00"
    local = ShardWorker.from_checkpoint(
        0, shard_dir, serving_config=ServingConfig(enable_batching=False,
                                                   enable_cache=False))
    try:
        picked = questions[:24]
        alone = [_route_keys(local.route_batch([question]))[0] for question in picked]
        with ProcShardWorker(0, shard_dir) as worker:
            over_wire = [key for chunk in _chunked(picked, 8)
                         for key in _route_keys(worker.route_batch(chunk))]
    finally:
        local.close()
    assert over_wire == alone


def test_sliced_pool_cluster_merges_bit_identically_in_waves(workload):
    """Sliced shards calibrate by replaying hypotheses through the master
    head; that replay must not couple a question to its wave either."""
    router, questions, _ = workload
    with ClusterRoutingService.from_router(router, SLICED_CLUSTER) as cluster:
        assert cluster.wave_engine is None
        alone = [_route_keys(cluster.submit_many([question]))[0]
                 for question in questions]
        waved = [key for chunk in _chunked(questions, WAVE_SIZE)
                 for key in _route_keys(cluster.submit_many(chunk))]
    assert all(alone)
    assert waved == alone


@pytest.mark.parametrize("careful", [False, True], ids=["fast", "careful"])
def test_sliced_wave_engine_rows_bit_identical_in_waves(workload, careful):
    """Every (shard, question) row of the stacked wave decode comes back with
    the bits it has when the question is routed alone."""
    router, questions, _ = workload
    config = replace(SLICED_CLUSTER, wave_decode=True)
    with ClusterRoutingService.from_router(router, config) as cluster:
        engine = cluster.wave_engine
        assert engine is not None, cluster._wave_disabled_reason
        assert engine.has_careful_tier
        assert engine._tier(careful=careful).kernel.calibrated_head

        def rows(per_shard):
            return [_route_keys(routes) for routes in zip(*per_shard)]

        alone = [rows(engine.route_wave([question], careful=careful))[0]
                 for question in questions]
        waved = [key for chunk in _chunked(questions, WAVE_SIZE)
                 for key in rows(engine.route_wave(chunk, careful=careful))]
    assert any(route_list for shards in alone for route_list in shards)
    assert waved == alone
