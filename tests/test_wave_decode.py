"""Tests for cluster-native dense wave decode.

With ``ClusterConfig(wave_decode=True)`` an unreplicated inproc fleet decodes
whole scatter waves through one stacked kernel stream
(:class:`repro.cluster.wave.ClusterWaveEngine`) instead of one thread-pool
call per shard.  These tests pin the differential against the pool path, the
per-shard decode counters, the transparent fallbacks (replication,
checkpoint-booted weight copies), and the direct-submit fast path the
dispatcher takes when no shard timeout is configured.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterDispatcher,
    ClusterRoutingService,
    load_cluster,
    project_router,
    save_cluster,
)
from repro.core import (
    RouterConfig,
    SchemaGraph,
    SchemaRouter,
    SchemaSampler,
    SynthesisConfig,
    TemplateQuestioner,
    synthesize_training_data,
)
from repro.nn.seq2seq import WaveDecodeKernel
from test_cluster import QUESTIONS, _cluster_catalog


@pytest.fixture(scope="module")
def master_router() -> SchemaRouter:
    catalog = _cluster_catalog()
    graph = SchemaGraph.from_catalog(catalog)
    questioner = TemplateQuestioner(catalog=catalog, seed=23)
    sampler = SchemaSampler(graph, seed=23)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=300))
    router = SchemaRouter(graph=graph, config=RouterConfig(
        epochs=10, embedding_dim=24, hidden_dim=40, num_beams=8, beam_groups=4,
        seed=23))
    router.fit(report.examples)
    return router


@pytest.fixture(scope="module")
def workload(master_router) -> list[str]:
    catalog = master_router.graph.catalog
    questioner = TemplateQuestioner(catalog=catalog, seed=41)
    sampler = SchemaSampler(master_router.graph, seed=41)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=200))
    return [example.question for example in report.examples]


class TestWaveDecode:
    def test_wave_routes_agree_with_pool_routes(self, master_router, workload):
        pool_config = ClusterConfig(num_shards=2, strategy="round_robin",
                                    enable_cache=False)
        wave_config = ClusterConfig(num_shards=2, strategy="round_robin",
                                    enable_cache=False, wave_decode=True)
        with ClusterRoutingService.from_router(master_router,
                                               pool_config) as cluster:
            pool = cluster.submit_many(workload)
        with ClusterRoutingService.from_router(master_router,
                                               wave_config) as cluster:
            assert cluster.wave_engine is not None, cluster._wave_disabled_reason
            wave = cluster.submit_many(workload)
        agree = sum(1 for a, b in zip(pool, wave)
                    if a and b and a[0].database == b[0].database)
        assert agree >= round(0.99 * len(workload))

    def test_wave_with_sliced_vocabulary(self, master_router, workload):
        """The tentpole pairing: dense wave decode over shard-sliced vocabs
        still agrees with plain pool routing after calibration."""
        pool_config = ClusterConfig(num_shards=2, strategy="round_robin",
                                    enable_cache=False)
        wave_config = ClusterConfig(num_shards=2, strategy="round_robin",
                                    enable_cache=False, wave_decode=True,
                                    sliced_vocabulary=True)
        with ClusterRoutingService.from_router(master_router,
                                               pool_config) as cluster:
            pool = cluster.submit_many(workload)
        with ClusterRoutingService.from_router(master_router,
                                               wave_config) as cluster:
            assert cluster.wave_engine is not None
            sliced = cluster.shards[0].workers[0].router
            assert sliced.vocabulary_slice is not None
            # Sliced fleets decode in calibrated-head mode: the kernel
            # normalizes over the master vocabulary per step, so scores come
            # out of the wave already calibrated (no post-hoc rescoring).
            tier = cluster.wave_engine._tier(careful=False)
            assert tier.kernel.calibrated_head
            wave = cluster.submit_many(workload)
        agree = sum(1 for a, b in zip(pool, wave)
                    if a and b and a[0].database == b[0].database)
        assert agree >= round(0.99 * len(workload))

    def test_wave_counters_roll_up_into_stats_and_traces(self, master_router):
        config = ClusterConfig(num_shards=2, strategy="round_robin",
                               wave_decode=True)
        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            cluster.submit_many(QUESTIONS)
            stats = cluster.stats()
        wave = stats["wave"]
        assert wave["enabled"] is True
        assert wave["waves"] >= 1
        assert wave["questions"] == len(QUESTIONS)
        assert wave["steps"] > 0
        assert wave["beam_rows"] > 0
        assert len(wave["shards"]) == 2
        for shard_id, entry in enumerate(wave["shards"]):
            assert entry["shard_id"] == shard_id
            assert entry["steps"] > 0
            assert entry["beam_rows"] > 0
            assert entry["questions_compacted"] >= 0
        # The decode rode the single-stream span, not per-shard scatters.
        assert "wave_decode" in stats["stages"]
        assert "scatter" not in stats["stages"]
        assert json.loads(json.dumps(stats)) == stats

    def test_escalation_rides_the_careful_wave_tier(self, master_router, workload):
        config = ClusterConfig(num_shards=2, strategy="round_robin",
                               wave_decode=True, enable_cache=False)
        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            assert cluster.wave_engine is not None
            assert cluster.wave_engine.has_careful_tier
            cluster.submit_many(workload[:60])
            stats = cluster.stats()
        # The seeded workload reliably produces some low-confidence merges.
        assert stats["dispatcher"]["escalations"] > 0
        assert stats["wave"]["careful_waves"] > 0

    def test_wave_deduplicates_and_caches_within_the_fleet(self, master_router):
        config = ClusterConfig(num_shards=2, strategy="round_robin",
                               wave_decode=True, escalation_threshold=None)
        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            first = cluster.submit_many([QUESTIONS[0], QUESTIONS[0], QUESTIONS[1]])
            assert [(r.database, r.tables, r.score) for r in first[0]] == \
                [(r.database, r.tables, r.score) for r in first[1]]
            repeat = cluster.submit_many([QUESTIONS[0]])
            assert [(r.database, r.tables, r.score) for r in repeat[0]] == \
                [(r.database, r.tables, r.score) for r in first[0]]
            stats = cluster.stats()
        # Each shard decoded 2 unique questions once; the repeat was a hit.
        for shard in stats["shards"]:
            counters = shard["workers"][0]["counters"]
            assert counters["routed"] == 2
            assert counters["cache_hits"] >= 1
        assert stats["cache_hit_rate"] > 0.0


class TestWaveFallbacks:
    def test_replicated_clusters_fall_back_to_the_pool_path(self, master_router):
        config = ClusterConfig(num_shards=2, strategy="round_robin",
                               replicas=2, wave_decode=True)
        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            assert cluster.wave_engine is None
            assert "replication" in cluster._wave_disabled_reason
            routes = cluster.submit(QUESTIONS[0])
            assert routes
            stats = cluster.stats()
        assert stats["wave"] == {"enabled": False,
                                 "reason": cluster._wave_disabled_reason}

    def test_checkpoint_booted_weight_copies_fall_back(self, master_router,
                                                       tmp_path):
        """A reloaded cluster's shard models are independent weight copies
        (no shared trunk), so the wave engine declines and the pool path
        serves -- transparently."""
        config = ClusterConfig(num_shards=2, strategy="round_robin")
        with ClusterRoutingService.from_router(master_router,
                                               config) as original:
            save_cluster(original, tmp_path / "ckpt")
            expected = [[(r.database, r.tables) for r in routes]
                        for routes in original.submit_many(QUESTIONS[:4])]
        wave_config = ClusterConfig(num_shards=2, wave_decode=True)
        with load_cluster(tmp_path / "ckpt", config=wave_config) as restored:
            assert restored.config.wave_decode is True
            assert restored.wave_engine is None
            assert restored._wave_disabled_reason
            assert [[(r.database, r.tables) for r in routes]
                    for routes in restored.submit_many(QUESTIONS[:4])] == expected

    def test_wave_decode_off_means_no_wave_key(self, master_router):
        config = ClusterConfig(num_shards=2, strategy="round_robin")
        with ClusterRoutingService.from_router(master_router,
                                               config) as cluster:
            cluster.submit(QUESTIONS[0])
            assert "wave" not in cluster.stats()


class TestDirectSubmitWithoutTimeout:
    """Satellite: with no shard timeout the dispatcher submits the target
    itself to the pool -- no call_with_timeout wrapper, no watchdog thread."""

    @staticmethod
    def _record_thread(seen: list):
        def target(questions, max_candidates, trace=None):
            seen.append(threading.current_thread().name)
            return [[] for _ in questions]
        return target

    def test_no_timeout_runs_on_the_dispatch_pool_thread(self):
        seen: list[str] = []
        with ClusterDispatcher([self._record_thread(seen)],
                               shard_timeout_seconds=None) as dispatcher:
            dispatcher.route_batch(["q"])
        assert len(seen) == 1
        assert seen[0].startswith("repro-cluster-dispatch")

    def test_timeout_still_uses_the_watchdog_thread(self):
        seen: list[str] = []
        with ClusterDispatcher([self._record_thread(seen)],
                               shard_timeout_seconds=5.0) as dispatcher:
            dispatcher.route_batch(["q"])
        assert len(seen) == 1
        assert seen[0].startswith("repro-cluster-shard")


class TestWaveKernelChecks:
    """The adapter decodes only the two fleets projection builds (one shared
    unsliced model, or slices of one master head) and only shard-major
    stacked waves; anything else is a typed error, never a wrong decode."""

    @staticmethod
    def _sliced(master_router):
        names = master_router.graph.catalog.database_names
        return [project_router(master_router, names[shard::2],
                               sliced_vocabulary=True) for shard in range(2)]

    def test_unsorted_tags_raise(self, master_router):
        routers = self._sliced(master_router)
        kernel = WaveDecodeKernel([router.model for router in routers],
                                  [router.vocabulary_slice for router in routers])
        hidden = kernel.config.hidden_dim
        with pytest.raises(ValueError, match="shard-major"):
            kernel.decode_step(np.zeros((2, 3, hidden)), np.ones((2, 3), dtype=bool),
                               np.zeros((2, 1, hidden)),
                               np.zeros((2, 1), dtype=np.int64),
                               tags=np.asarray([1, 0]))

    def test_slices_of_different_master_heads_raise(self, master_router):
        routers = self._sliced(master_router)
        first = routers[0].vocabulary_slice
        copied = replace(first, output_weight=first.output_weight.copy())
        with pytest.raises(ValueError, match="master head"):
            WaveDecodeKernel([router.model for router in routers],
                             [first, copied])

    def test_partly_sliced_or_uncalibrated_fleets_raise(self, master_router):
        routers = self._sliced(master_router)
        models = [router.model for router in routers]
        with pytest.raises(ValueError, match="master head"):
            WaveDecodeKernel(models, [routers[0].vocabulary_slice, None])
        # Sliced twins without their slices would need per-shard heads.
        with pytest.raises(ValueError, match="unsliced model"):
            WaveDecodeKernel(models, [None, None])
