"""Cluster-native dense wave decode: one kernel stream for the whole fleet.

The pool-based scatter path hands each shard its own ``submit_many`` call, so
an inproc fleet of K shards pays K separate decode loops (and K thread hops)
per wave.  :class:`ClusterWaveEngine` instead stacks every shard's beams into
*one* slot-dense decode: each (shard, pending-question) pair becomes a virtual
question of a single :func:`repro.nn.decoding.diverse_beam_search_batch` call
over a :class:`repro.nn.seq2seq.WaveDecodeKernel`, tagged with its shard index
so per-shard constraint masks and vocabulary slices stay exactly as they are
on the pool path.  The adapter runs the model's own per-question decode
kernel against memory padded to ``max_source_length``, exactly like
:meth:`SchemaRouter.route_batch`, so a question's routes are bit-identical
alone or in any wave.  With sliced vocabularies each step runs the master
head: log-softmax over the *master* vocabulary, each shard's kept columns
gathered into its grid slots -- so search prunes exactly as a master-head
decode restricted to the slice would, and finished hypotheses already carry
exact master-vocabulary scores (the pool path gets them by post-hoc replay
through :meth:`SchemaRouter.rescore_hypotheses`).

The engine deliberately mirrors the per-shard ``RoutingService`` request
path around the stacked decode: the same cache consult (``variant`` keying
included), the same ``requests`` / ``cache_hits`` / ``routed`` counters, the
same within-wave dedup.  Shard services therefore report identical stats
whether a wave went through the pool or the wave engine, and a cache warmed
by one path is hit by the other.

Only homogeneous inproc fleets qualify: every shard must share the master
trunk by reference (projection guarantees this; checkpoint-booted workers
load independent weight copies and fall back to the pool path) and decode
with one beam budget.  :class:`ClusterRoutingService` builds the engine
opportunistically and keeps the pool dispatcher as the fallback.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.core.router import SchemaRoute
from repro.nn.decoding import diverse_beam_search_batch
from repro.nn.seq2seq import WaveDecodeKernel
from repro.nn.tokenizer import WordTokenizer
from repro.obs import maybe_span

#: Decode knobs that must agree across every shard of a wave: the stacked
#: grid has one (groups, slots) shape and one step budget for all rows.
_UNIFORM_FIELDS = ("num_beams", "beam_groups", "diverse_beam",
                   "diversity_penalty", "max_source_length",
                   "max_decode_length", "constrained_decoding")


class _WaveTier:
    """One decode tier (fast or careful) of every shard, stacked.

    Holds the per-shard serving objects (for caches and counters), the
    routers (for constraints, calibration, and parsing), and the
    :class:`WaveDecodeKernel` that decodes all of them at once.  Built
    against a snapshot of each service's current router; the engine rebuilds
    a tier whenever a rebalance swapped a router out from under it.
    """

    def __init__(self, services: Sequence) -> None:
        self.services = list(services)
        self.routers = [service.router for service in self.services]
        base = self.routers[0]
        for router in self.routers[1:]:
            for field in _UNIFORM_FIELDS:
                if getattr(router.config, field) != getattr(base.config, field):
                    raise ValueError(
                        f"wave decode requires uniform shard decode configs: "
                        f"{field} differs ({getattr(router.config, field)!r} "
                        f"vs {getattr(base.config, field)!r})")
            if router.source_vocabulary is not base.source_vocabulary and \
                    router.source_vocabulary.tokens() \
                    != base.source_vocabulary.tokens():
                raise ValueError("wave decode requires one shared source "
                                 "vocabulary across shards")
            if (router.target_vocabulary.bos_id != base.target_vocabulary.bos_id
                    or router.target_vocabulary.eos_id
                    != base.target_vocabulary.eos_id):
                raise ValueError("wave decode requires matching special "
                                 "token ids across shards")
        # Validates that every shard model shares the master trunk by
        # reference (raises ValueError for checkpoint-booted weight copies)
        # and that the fleet is either unsliced or sliced from one master
        # head -- in which case the kernel emits exact master-vocabulary
        # scores with no post-hoc rescoring.
        self.kernel = WaveDecodeKernel(
            [router.model for router in self.routers],
            [router.vocabulary_slice for router in self.routers])
        config = base.config
        self.num_beams = config.num_beams
        if config.diverse_beam:
            self.num_groups = config.beam_groups
            self.diversity_penalty = config.diversity_penalty
        else:
            self.num_groups, self.diversity_penalty = 1, 0.0
        self.max_length = config.max_decode_length
        self.max_source_length = config.max_source_length
        self.bos_id = base.target_vocabulary.bos_id
        self.eos_id = base.target_vocabulary.eos_id
        self.pad_id = base.source_vocabulary.pad_id
        self.source_tokenizer = WordTokenizer(base.source_vocabulary)


class ClusterWaveEngine:
    """Decodes whole scatter waves through one stacked kernel stream."""

    def __init__(self, workers: Sequence) -> None:
        if not workers:
            raise ValueError("a wave engine needs at least one shard worker")
        self.workers = list(workers)
        self.has_careful_tier = all(worker.careful_service is not None
                                    for worker in self.workers)
        self._tier_lock = threading.Lock()
        self._fast: _WaveTier | None = None
        self._careful: _WaveTier | None = None
        self._stats_lock = threading.Lock()
        self._waves = 0
        self._careful_waves = 0
        self._questions = 0
        self._shard_counters = [
            {"shard_id": worker.shard_id, "steps": 0, "beam_rows": 0,
             "questions_compacted": 0}
            for worker in self.workers
        ]
        # Build tiers eagerly so an incompatible fleet (unshared trunk,
        # mismatched beam budgets) fails at construction time, where the
        # cluster service can fall back to the pool dispatcher.
        self._tier(careful=False)
        if self.has_careful_tier:
            self._tier(careful=True)

    def _tier(self, careful: bool) -> _WaveTier:
        """The requested tier, rebuilt if a rebalance swapped any router."""
        services = [(worker.careful_service if careful else worker.service)
                    for worker in self.workers]
        with self._tier_lock:
            tier = self._careful if careful else self._fast
            if tier is None or any(
                    cached is not service.router
                    for cached, service in zip(tier.routers, services)):
                tier = _WaveTier(services)
                if careful:
                    self._careful = tier
                else:
                    self._fast = tier
            return tier

    # -- request path --------------------------------------------------------
    def route_wave(self, questions: Sequence[str],
                   max_candidates: int | None = None, careful: bool = False,
                   trace=None) -> list[list[list[SchemaRoute]]]:
        """Route one wave across every shard; returns ``[shard][question]``.

        ``careful=True`` decodes through the escalation tier when every
        worker carries one (falling back to the fast tier otherwise, like
        :meth:`ShardWorker.route_batch`).  The per-shard route caches and
        metrics are consulted and updated exactly as the pool path would.
        """
        questions = list(questions)
        use_careful = careful and self.has_careful_tier
        tier = self._tier(careful=use_careful)
        started = time.monotonic()
        num_shards = len(self.workers)
        results: list[list[list[SchemaRoute] | None]] = [
            [None] * len(questions) for _ in range(num_shards)]
        # Within one wave, identical questions decode once (per shard).
        first_index: dict[str, int] = {}
        duplicate_of: list[int | None] = [None] * len(questions)
        for index, question in enumerate(questions):
            if question in first_index:
                duplicate_of[index] = first_index[question]
            else:
                first_index[question] = index
        # Per-shard cache consult, mirroring RoutingService.submit_many
        # (same counters, same cache variant keying).
        variants: list[int | None] = []
        pending_per_shard: list[list[int]] = []
        for shard, service in enumerate(tier.services):
            service.metrics.increment("requests", len(questions))
            variant = max_candidates or service.config.max_candidates
            variants.append(variant)
            pending: list[int] = []
            for index, question in enumerate(questions):
                if duplicate_of[index] is not None:
                    continue
                cached = (service.cache.get(question, variant=variant)
                          if service.cache is not None else None)
                if cached is not None:
                    service.metrics.increment("cache_hits")
                    results[shard][index] = cached
                else:
                    pending.append(index)
            pending_per_shard.append(pending)
        needed = sorted({index for pending in pending_per_shard
                         for index in pending})
        stats: dict = {}
        with maybe_span(trace, "wave_decode", shards=num_shards,
                        questions=len(questions), careful=use_careful,
                        pending=len(needed)) as span:
            # Encode each missing question once for the whole fleet: every
            # shard model shares the master encoder trunk by reference, so
            # shard 0's encoding is every shard's encoding.
            encoded_of: dict[int, object] = {}
            if needed:
                encoded_list = tier.routers[0].model.encode_numpy_batch(
                    [tier.source_tokenizer.encode_text(
                        questions[index], max_length=tier.max_source_length)
                     for index in needed],
                    pad_id=tier.pad_id)
                encoded_of = dict(zip(needed, encoded_list))
            # Stack (shard, question) pairs shard-major as virtual questions.
            virtual_encoded = []
            tags: list[int] = []
            constraints: list = []
            for shard, pending in enumerate(pending_per_shard):
                constraint = tier.routers[shard].constraint
                for index in pending:
                    virtual_encoded.append(encoded_of[index])
                    tags.append(shard)
                    constraints.append(constraint)
            hypotheses_batch: list = []
            if virtual_encoded:
                try:
                    hypotheses_batch = diverse_beam_search_batch(
                        tier.kernel, virtual_encoded, tier.bos_id, tier.eos_id,
                        num_beams=tier.num_beams, num_groups=tier.num_groups,
                        diversity_penalty=tier.diversity_penalty,
                        max_length=tier.max_length, constraint=constraints,
                        memory_length=max(tier.max_source_length, 1),
                        stats=stats, question_tags=tags)
                except BaseException:
                    for shard, service in enumerate(tier.services):
                        service.metrics.increment(
                            "errors", len(pending_per_shard[shard]))
                    raise
            # Fallback, calibration, and parsing run per shard.  Sliced
            # shards come out of the kernel's calibrated-head decode with
            # exact master-vocabulary scores already, so rescore_hypotheses
            # only replays the (rare) greedy fallbacks; each shard's local
            # token ids are then parsed with its own sliced vocabulary.
            offset = 0
            for shard, pending in enumerate(pending_per_shard):
                rows = range(offset, offset + len(pending))
                offset += len(pending)
                router = tier.routers[shard]
                service = tier.services[shard]
                fallback_rows = [row for row in rows
                                 if not hypotheses_batch[row]]
                for row in fallback_rows:
                    hypotheses_batch[row] = router.decode_fallback(
                        virtual_encoded[row])
                if fallback_rows:
                    router.rescore_hypotheses(
                        [virtual_encoded[row] for row in fallback_rows],
                        [hypotheses_batch[row] for row in fallback_rows])
                for row, index in zip(rows, pending):
                    routes = router.combine_hypotheses(
                        hypotheses_batch[row], max_candidates=variants[shard])
                    results[shard][index] = routes
                    if service.cache is not None:
                        service.cache.put(questions[index], routes,
                                          variant=variants[shard])
                    service.metrics.increment("routed")
            if span is not None and stats:
                span.annotate(
                    steps=stats.get("steps", 0),
                    beam_rows=stats.get("beam_rows", 0),
                    questions_compacted=stats.get("questions_compacted", 0))
        for shard_results in results:
            for index, source in enumerate(duplicate_of):
                if source is not None:
                    shard_results[index] = shard_results[source]
        elapsed = time.monotonic() - started
        for service in tier.services:
            for _ in questions:
                service.metrics.observe_latency(elapsed / max(len(questions), 1))
        self._note_wave(stats, len(questions), use_careful)
        return results  # type: ignore[return-value]

    # -- introspection -------------------------------------------------------
    def _note_wave(self, stats: dict, num_questions: int, careful: bool) -> None:
        per_tag = stats.get("per_tag", {})
        with self._stats_lock:
            self._waves += 1
            if careful:
                self._careful_waves += 1
            self._questions += num_questions
            for tag, counters in per_tag.items():
                entry = self._shard_counters[tag]
                entry["steps"] += counters.get("steps", 0)
                entry["beam_rows"] += counters.get("beam_rows", 0)
                entry["questions_compacted"] += counters.get(
                    "questions_compacted", 0)

    def stats(self) -> dict:
        """Decode-volume rollup: per-shard steps / beam rows / compactions."""
        with self._stats_lock:
            shards = [dict(entry) for entry in self._shard_counters]
            return {
                "waves": self._waves,
                "careful_waves": self._careful_waves,
                "questions": self._questions,
                "steps": sum(entry["steps"] for entry in shards),
                "beam_rows": sum(entry["beam_rows"] for entry in shards),
                "questions_compacted": sum(entry["questions_compacted"]
                                           for entry in shards),
                "shards": shards,
            }
