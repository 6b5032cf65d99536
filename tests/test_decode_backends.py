"""Differential tests: the slot-dense decode engine vs. the loop oracle.

The engine (:func:`repro.nn.decoding.diverse_beam_search_batch`) and the
per-beam loop (:func:`repro.nn.decoding.diverse_beam_search_loop`) run the
same search over GEMMs of different shapes, so the contract under test is
*agreement*: the same hypotheses token for token, scores equal to a tight
tolerance, and seeded top-1 route agreement >= 0.99 at the router level.
The engine's own contract is stricter and is checked to the bit here and in
``tests/test_batch_invariance.py``: a question decodes to the same tokens and
score bits alone or in any batch.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.graph import SchemaGraph
from repro.core.questioner import TemplateQuestioner
from repro.core.router import RouterConfig, SchemaRouter
from repro.core.sampling import SchemaSampler
from repro.core.synthesis import SynthesisConfig, synthesize_training_data
from repro.datasets import CollectionConfig, build_collection
from repro.nn.decoding import (
    diverse_beam_search,
    diverse_beam_search_batch,
    diverse_beam_search_loop,
)
from repro.nn.seq2seq import Seq2SeqConfig, Seq2SeqModel
from repro.nn.tokenizer import WordTokenizer, build_vocabulary
from repro.nn.trainer import Seq2SeqTrainer, TrainerConfig
from repro.serving.checkpoint import CheckpointError, load_router, save_router


def _hypothesis_key(hypothesis):
    return (tuple(hypothesis.tokens), hypothesis.score.hex(), hypothesis.finished)


def _route_key(routes):
    return [(route.database, route.tables, route.score.hex()) for route in routes]


def _assert_agree(engine_hypotheses, oracle_hypotheses):
    """Same hypotheses, same order, scores equal to tolerance."""
    assert [h.tokens for h in engine_hypotheses] == [h.tokens for h in oracle_hypotheses]
    for ours, theirs in zip(engine_hypotheses, oracle_hypotheses):
        assert ours.score == pytest.approx(theirs.score, rel=1e-9, abs=1e-12)
        assert ours.finished == theirs.finished


# ---------------------------------------------------------------------------
# Raw engine level: a toy Seq2Seq model, no router on top.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def toy_model():
    source_vocab = build_vocabulary(
        ["alpha beta", "gamma delta", "epsilon zeta", "eta theta kappa"])
    target_vocab = build_vocabulary(
        [], extra_tokens=["one", "two", "three", "four", "five", "six"])
    source_tokenizer = WordTokenizer(source_vocab)
    target_tokenizer = WordTokenizer(target_vocab)
    data = [("alpha beta", ["one", "two"]),
            ("gamma delta", ["three"]),
            ("epsilon zeta", ["four", "one"]),
            ("eta theta kappa", ["five", "two", "one"])]
    pairs = [(source_tokenizer.encode_text(question),
              target_tokenizer.encode_tokens(target))
             for question, target in data]
    model = Seq2SeqModel(Seq2SeqConfig(len(source_vocab), len(target_vocab),
                                       embedding_dim=16, hidden_dim=24, seed=3))
    Seq2SeqTrainer(model, TrainerConfig(epochs=30, batch_size=4,
                                        learning_rate=0.02, seed=3)).train(pairs)
    questions = [question for question, _ in data] + ["alpha delta", "zeta beta theta"]
    encoded = model.encode_numpy_batch(
        [source_tokenizer.encode_text(question) for question in questions])
    return model, target_vocab, encoded


BUDGETS = [(1, 1, 0.0), (4, 1, 0.0), (4, 2, 2.0), (6, 3, 1.5), (6, 6, 2.0)]
#: The engine's fixed attention length for the toy questions (<= 3 tokens).
MEMORY_LENGTH = 6


class TestEngineVsOracle:
    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_engine_agrees_with_oracle_unconstrained(self, toy_model, num_beams,
                                                     num_groups, penalty):
        model, vocabulary, encoded = toy_model
        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=num_groups,
            diversity_penalty=penalty, max_length=8, memory_length=MEMORY_LENGTH)
        for item, one in zip(encoded, batched):
            looped = diverse_beam_search_loop(
                model, (), vocabulary.bos_id, vocabulary.eos_id,
                num_beams=num_beams, num_groups=num_groups,
                diversity_penalty=penalty, max_length=8, encoded=item)
            _assert_agree(one, looped)

    @pytest.mark.parametrize("num_beams,num_groups,penalty", BUDGETS)
    def test_engine_agrees_with_oracle_constrained(self, toy_model, num_beams,
                                                   num_groups, penalty):
        """A synthetic prefix-walk constraint (even ids after even-length
        prefixes): the engine's fallback path for non-incremental constraints."""
        model, vocabulary, encoded = toy_model
        size = model.config.target_vocab_size

        def constraint(prefix):
            parity = len(prefix) % 2
            return {token for token in range(size) if token % 2 == parity} \
                | {vocabulary.eos_id}

        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=num_groups,
            diversity_penalty=penalty, max_length=8, constraint=constraint,
            memory_length=MEMORY_LENGTH)
        for item, one in zip(encoded, batched):
            looped = diverse_beam_search_loop(
                model, (), vocabulary.bos_id, vocabulary.eos_id,
                num_beams=num_beams, num_groups=num_groups,
                diversity_penalty=penalty, max_length=8,
                constraint=constraint, encoded=item)
            _assert_agree(one, looped)

    def test_engine_honors_none_unconstrained_steps(self, toy_model):
        """A constraint that only restricts early steps (returning None --
        "unconstrained" -- afterwards) must not leave stale restrictive masks
        in the engine's resident grid."""
        model, vocabulary, encoded = toy_model

        def constraint(prefix):
            if len(prefix) == 0:
                return {3, 5, vocabulary.eos_id}
            return None

        batched = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=4, num_groups=2, max_length=8, constraint=constraint,
            memory_length=MEMORY_LENGTH)
        for item, one in zip(encoded, batched):
            looped = diverse_beam_search_loop(
                model, (), vocabulary.bos_id, vocabulary.eos_id,
                num_beams=4, num_groups=2, max_length=8,
                constraint=constraint, encoded=item)
            _assert_agree(one, looped)

    def test_wrapper_routes_through_engine(self, toy_model):
        model, vocabulary, encoded = toy_model
        direct = diverse_beam_search(model, (), vocabulary.bos_id, vocabulary.eos_id,
                                     num_beams=4, num_groups=2, max_length=8,
                                     encoded=encoded[0])
        batched = diverse_beam_search_batch(model, [encoded[0]], vocabulary.bos_id,
                                            vocabulary.eos_id, num_beams=4,
                                            num_groups=2, max_length=8,
                                            memory_length=encoded[0].memory.shape[0])[0]
        assert [_hypothesis_key(h) for h in direct] == \
            [_hypothesis_key(h) for h in batched]

    def test_empty_batch(self, toy_model):
        model, vocabulary, _ = toy_model
        assert diverse_beam_search_batch(model, [], vocabulary.bos_id,
                                         vocabulary.eos_id,
                                         memory_length=MEMORY_LENGTH) == []

    def test_invalid_budget_rejected(self, toy_model):
        model, vocabulary, encoded = toy_model
        with pytest.raises(ValueError):
            diverse_beam_search_batch(model, encoded, vocabulary.bos_id,
                                      vocabulary.eos_id, num_beams=5, num_groups=3,
                                      memory_length=MEMORY_LENGTH)

    def test_beam_budget_wider_than_vocabulary(self, toy_model):
        """top_n clamps at V: a beam budget wider than the target vocabulary
        must decode (matching the loop oracle's slice-truncation), not
        overrun the candidate rows."""
        model, vocabulary, encoded = toy_model
        vocab_size = model.config.target_vocab_size
        num_beams = vocab_size + 4  # top_n would exceed V unclamped
        batched = diverse_beam_search_batch(
            model, encoded[:2], vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=1, max_length=6,
            memory_length=MEMORY_LENGTH)
        looped = [diverse_beam_search_loop(
            model, (), vocabulary.bos_id, vocabulary.eos_id,
            num_beams=num_beams, num_groups=1, max_length=6, encoded=item)
            for item in encoded[:2]]
        for one, reference in zip(batched, looped):
            assert [h.tokens for h in one] == [h.tokens for h in reference]

    def test_batch_composition_invariance(self, toy_model):
        """At a fixed attention length a question decodes to the same bits
        alone, in pairs, and in the full batch -- the property route caches
        and shard merges rely on."""
        model, vocabulary, encoded = toy_model
        kwargs = dict(num_beams=4, num_groups=2, max_length=8,
                      memory_length=MEMORY_LENGTH)
        full = diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id, **kwargs)
        for index, item in enumerate(encoded):
            alone = diverse_beam_search_batch(
                model, [item], vocabulary.bos_id, vocabulary.eos_id, **kwargs)[0]
            assert [_hypothesis_key(h) for h in alone] == \
                [_hypothesis_key(h) for h in full[index]]
        pair = diverse_beam_search_batch(
            model, [encoded[-1], encoded[0]], vocabulary.bos_id, vocabulary.eos_id,
            **kwargs)
        assert [_hypothesis_key(h) for h in pair[0]] == \
            [_hypothesis_key(h) for h in full[-1]]
        assert [_hypothesis_key(h) for h in pair[1]] == \
            [_hypothesis_key(h) for h in full[0]]

    def test_memory_longer_than_fixed_length_raises(self, toy_model):
        """The engine never pads past its fixed attention length: a longer
        memory is a typed error, not a silently different shape."""
        model, vocabulary, encoded = toy_model
        longest = max(item.memory.shape[0] for item in encoded)
        with pytest.raises(ValueError, match="fixed attention length"):
            diverse_beam_search_batch(
                model, encoded, vocabulary.bos_id, vocabulary.eos_id,
                num_beams=4, num_groups=2, max_length=8,
                memory_length=longest - 1)
        # Exactly the fixed length is fine.
        diverse_beam_search_batch(
            model, encoded, vocabulary.bos_id, vocabulary.eos_id,
            num_beams=4, num_groups=2, max_length=8, memory_length=longest)


# ---------------------------------------------------------------------------
# Router level: trained routers over synthetic catalogs, graph constraints on.
# ---------------------------------------------------------------------------
def _train_router(seed: int, num_databases: int, **config_changes) -> tuple:
    dataset = build_collection(CollectionConfig(
        name=f"diff-{seed}", num_databases=num_databases, rows_per_table=8,
        examples_per_database=6, seed=seed))
    graph = SchemaGraph.from_catalog(dataset.catalog)
    questioner = TemplateQuestioner(catalog=dataset.catalog, seed=seed)
    sampler = SchemaSampler(graph, seed=seed)
    report = synthesize_training_data(sampler, questioner,
                                      SynthesisConfig(num_samples=150))
    config = RouterConfig(epochs=6, embedding_dim=20, hidden_dim=32,
                          num_beams=6, beam_groups=6, seed=seed, **config_changes)
    router = SchemaRouter(graph=graph, config=config)
    router.fit(report.examples)
    questions = [example.question for example in report.examples]
    return router, questions


def oracle_route_batch(router: SchemaRouter, questions: list[str]) -> list:
    """``router.route_batch`` with every question decoded by the loop oracle."""
    source_tokenizer = WordTokenizer(router.source_vocabulary)
    encoded_batch = router.model.encode_numpy_batch(
        [source_tokenizer.encode_text(question,
                                      max_length=router.config.max_source_length)
         for question in questions],
        pad_id=router.source_vocabulary.pad_id)
    config = router.config
    num_groups, penalty = ((config.beam_groups, config.diversity_penalty)
                           if config.diverse_beam else (1, 0.0))
    results = []
    for encoded in encoded_batch:
        hypotheses = diverse_beam_search_loop(
            router.model, (), router.target_vocabulary.bos_id,
            router.target_vocabulary.eos_id, num_beams=config.num_beams,
            num_groups=num_groups, diversity_penalty=penalty,
            max_length=config.max_decode_length, constraint=router.constraint,
            encoded=encoded)
        results.append(router.combine_hypotheses(
            hypotheses or router.decode_fallback(encoded)))
    return results


def _top1_key(routes):
    return (routes[0].database, routes[0].tables) if routes else None


def _top1_agreement(ours, theirs) -> float:
    return sum(_top1_key(a) == _top1_key(b) for a, b in zip(ours, theirs)) / len(ours)


def _rebudgeted(router: SchemaRouter, **changes) -> SchemaRouter:
    twin = SchemaRouter(graph=router.graph, config=router.config.ablated(**changes))
    twin.restore(router.model, router.source_vocabulary, router.target_vocabulary)
    return twin


@pytest.fixture(scope="module", params=[(11, 5), (29, 8)],
                ids=["catalog-small", "catalog-wide"])
def trained_router(request):
    seed, num_databases = request.param
    return _train_router(seed, num_databases)


class TestRouterVsOracle:
    @pytest.mark.parametrize("batch_size", [1, 3, 8, 13])
    def test_routes_agree_with_oracle(self, trained_router, batch_size):
        router, questions = trained_router
        rng = np.random.default_rng(100 + batch_size)
        picked = [questions[int(i)] for i in
                  rng.integers(0, len(questions), size=batch_size)]
        assert _top1_agreement(router.route_batch(picked),
                               oracle_route_batch(router, picked)) >= 0.99

    @pytest.mark.parametrize("num_beams,beam_groups", [(1, 1), (6, 3), (8, 1),
                                                       (10, 5), (10, 10)])
    def test_agrees_across_beam_budgets(self, trained_router, num_beams, beam_groups):
        """Both the one-beam-per-group and general selection shapes, and the
        question-compaction tail, reproduce the oracle's decisions."""
        router, questions = trained_router
        twin = _rebudgeted(router, num_beams=num_beams, beam_groups=beam_groups)
        picked = questions[:10]
        assert _top1_agreement(twin.route_batch(picked),
                               oracle_route_batch(twin, picked)) >= 0.9

    def test_unconstrained_and_plain_beam(self):
        router, questions = _train_router(23, 4, constrained_decoding=False,
                                          diverse_beam=False)
        picked = questions[:8]
        assert _top1_agreement(router.route_batch(picked),
                               oracle_route_batch(router, picked)) >= 7 / 8

    def test_route_matches_route_batch(self, trained_router):
        router, questions = trained_router
        picked = questions[:5]
        batched = router.route_batch(picked)
        for question, expected in zip(picked, batched):
            assert _route_key(router.route(question)) == _route_key(expected)

    def test_routes_independent_of_batch_composition(self, trained_router):
        """End to end (encode + decode), a question's routes are bit-identical
        no matter which micro-batch it rides in."""
        router, questions = trained_router
        target = questions[0]
        alone = router.route_batch([target])[0]
        shuffled = router.route_batch(questions[3:8] + [target, questions[1]])[5]
        assert _route_key(alone) == _route_key(shuffled)

    def test_empty_and_whitespace_questions_route(self, trained_router):
        """Empty input takes the defined pad path in the engine and the oracle."""
        router, questions = trained_router
        batch = ["", "   ", questions[0], "\t\n"]
        routed = router.route_batch(batch)
        assert _top1_agreement(routed, oracle_route_batch(router, batch)) == 1.0
        # Blank questions all reduce to the same pad-token encoding.
        assert _route_key(routed[0]) == _route_key(routed[1])
        assert _route_key(routed[0]) == _route_key(routed[3])

    def test_refit_clears_stale_parse_cache(self):
        """fit() must drop parse entries cached under the previous target
        vocabulary (restore() already does)."""
        router, questions = _train_router(31, 3)
        router.route_batch(questions[:2])
        assert router._parse_cache
        questioner = TemplateQuestioner(catalog=router.graph.catalog, seed=5)
        sampler = SchemaSampler(router.graph, seed=5)
        report = synthesize_training_data(sampler, questioner,
                                          SynthesisConfig(num_samples=60))
        router.fit(report.examples)
        assert not router._parse_cache


class TestEngineBitIdentity:
    """Where the oracle only agrees to tolerance, the engine agrees with
    itself to the bit: a question's routes do not depend on its batch."""

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 9])
    def test_bit_identical_across_batch_sizes(self, trained_router, batch_size):
        router, questions = trained_router
        rng = np.random.default_rng(batch_size)
        picked = [questions[int(i)] for i in
                  rng.integers(0, len(questions), size=batch_size)]
        batched = router.route_batch(picked)
        alone = [router.route_batch([question])[0] for question in picked]
        assert [_route_key(r) for r in batched] == [_route_key(r) for r in alone]

    @pytest.mark.parametrize("num_beams,beam_groups", [(1, 1), (4, 2), (6, 6), (8, 1)])
    def test_bit_identical_across_beam_budgets(self, trained_router, num_beams,
                                               beam_groups):
        """Every selection shape -- one beam per group, several, a single
        group -- keeps a question's bits independent of batch order and
        size."""
        router, questions = trained_router
        twin = _rebudgeted(router, num_beams=num_beams, beam_groups=beam_groups)
        picked = questions[:6]
        forward = twin.route_batch(picked)
        backward = twin.route_batch(list(reversed(picked)))[::-1]
        alone = [twin.route_batch([question])[0] for question in picked]
        expected = [_route_key(r) for r in alone]
        assert [_route_key(r) for r in forward] == expected
        assert [_route_key(r) for r in backward] == expected


# ---------------------------------------------------------------------------
# Checkpoints written before the decode tiers were retired.
# ---------------------------------------------------------------------------
def _rewrite_router_config(checkpoint, **fields) -> None:
    """Edit a saved router manifest in place (simulates an older build)."""
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["router_config"].update(fields)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


class TestLegacyCheckpoints:
    @pytest.mark.parametrize("backend", ["vectorized", "loop", "fast"])
    def test_manifest_with_decode_backend_loads(self, trained_router, tmp_path,
                                                backend):
        router, questions = trained_router
        checkpoint = save_router(router, tmp_path / "legacy")
        _rewrite_router_config(checkpoint, decode_backend=backend)
        restored = load_router(checkpoint)
        assert not hasattr(restored.config, "decode_backend")
        assert restored.config == router.config
        picked = questions[:4]
        assert [_route_key(r) for r in restored.route_batch(picked)] == \
            [_route_key(r) for r in router.route_batch(picked)]

    def test_unknown_config_key_still_raises(self, trained_router, tmp_path):
        router, _ = trained_router
        checkpoint = save_router(router, tmp_path / "unknown")
        _rewrite_router_config(checkpoint, turbo_mode=True)
        with pytest.raises(CheckpointError, match="turbo_mode"):
            load_router(checkpoint)

    def test_retired_key_with_impossible_value_raises(self, trained_router,
                                                      tmp_path):
        router, _ = trained_router
        checkpoint = save_router(router, tmp_path / "bogus")
        _rewrite_router_config(checkpoint, decode_backend="turbo")
        with pytest.raises(CheckpointError, match="decode_backend"):
            load_router(checkpoint)

    def test_cluster_checkpoint_with_decode_backend_boots(self, trained_router,
                                                          tmp_path):
        """A cluster saved by an older build (every master and shard manifest
        carrying ``decode_backend``) boots and routes like a fresh save."""
        from repro.cluster import (
            ClusterConfig,
            ClusterRoutingService,
            load_cluster,
            save_cluster,
        )

        router, questions = trained_router
        built = ClusterRoutingService.from_router(
            router, ClusterConfig(num_shards=2, replicas=1))
        try:
            checkpoint = save_cluster(built, tmp_path / "legacy-cluster")
            expected = built.submit_many(questions[:4])
        finally:
            built.close()
        manifests = sorted(checkpoint.glob("*/manifest.json"))
        assert len(manifests) >= 3  # the master plus one per shard
        for manifest in manifests:
            _rewrite_router_config(manifest.parent, decode_backend="fast")
        restored = load_cluster(checkpoint)
        try:
            routes = restored.submit_many(questions[:4])
        finally:
            restored.close()
        assert [_route_key(r) for r in routes] == [_route_key(r) for r in expected]
