"""Attention-based encoder-decoder used as the DSI schema router backbone.

Architecture (a compact stand-in for the paper's T5-base):

* Encoder: word embeddings projected through a tanh layer form a memory of
  per-token states; a masked mean of the memory initialises the decoder state.
* Decoder: a simple recurrent cell ``s_t = tanh(W_in e(y_{t-1}) + W_hh s_{t-1})``
  with dot-product attention over the encoder memory; the attended context and
  state are combined and projected to target-vocabulary logits.

Training uses the autograd engine; inference (:meth:`Seq2SeqModel.encode_numpy`
and :meth:`Seq2SeqModel.decode_step`) runs on raw numpy so that beam search
and constrained decoding stay fast and allocation-free.

:meth:`Seq2SeqModel.decode_step` is the one implementation of the decoder
trunk at inference: it advances ``S`` beam slots of each of ``Q`` questions
in one step with one fixed-shape GEMM per question and projection, so a
question's doubles never depend on the other questions in the batch.
:meth:`Seq2SeqModel.decode_step_numpy` is its single-row wrapper, used by
greedy decoding and the loop test oracle; the sliced-vocabulary rescore
(:func:`rescore_token_sequences`) and the cluster wave adapter
(:class:`WaveDecodeKernel`) run through it with a master output head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.nn.autograd import Tensor, stack_rows
from repro.nn.modules import Embedding, Linear, Module
from repro.utils.rng import SeededRng


@dataclass(frozen=True)
class Seq2SeqConfig:
    """Hyper-parameters of the Seq2Seq model."""

    source_vocab_size: int
    target_vocab_size: int
    embedding_dim: int = 48
    hidden_dim: int = 96
    seed: int = 0


@dataclass
class EncodedSource:
    """Numpy-side encoder outputs used during inference."""

    memory: np.ndarray  # (T_src, hidden)
    mask: np.ndarray    # (T_src,)
    state: np.ndarray   # (hidden,)


class Seq2SeqModel(Module):
    """Encoder-decoder with attention; see the module docstring."""

    def __init__(self, config: Seq2SeqConfig) -> None:
        self.config = config
        rng = SeededRng(config.seed)
        dim, hidden = config.embedding_dim, config.hidden_dim
        self.source_embedding = Embedding(config.source_vocab_size, dim, rng.child("src_emb"),
                                          name="source_embedding")
        self.encoder_projection = Linear(dim, hidden, rng.child("enc_proj"), name="encoder_projection")
        self.state_init = Linear(hidden, hidden, rng.child("state_init"), name="state_init")
        self.target_embedding = Embedding(config.target_vocab_size, dim, rng.child("tgt_emb"),
                                          name="target_embedding")
        self.input_projection = Linear(dim, hidden, rng.child("w_in"), bias=False,
                                       name="input_projection")
        self.recurrent_projection = Linear(hidden, hidden, rng.child("w_hh"),
                                           name="recurrent_projection")
        self.combine_projection = Linear(2 * hidden, hidden, rng.child("combine"),
                                         name="combine_projection")
        self.output_projection = Linear(hidden, config.target_vocab_size, rng.child("out"),
                                        name="output_projection")

    # ------------------------------------------------------------------
    # Training path (autograd)
    # ------------------------------------------------------------------
    def encode(self, source_ids: np.ndarray, source_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Encode a batch; returns (memory ``(B,T,h)``, initial state ``(B,h)``)."""
        embedded = self.source_embedding(source_ids)                    # (B, T, d)
        memory = self.encoder_projection(embedded).tanh()               # (B, T, h)
        mask3 = np.asarray(source_mask, dtype=np.float64)[:, :, None]
        masked = memory * Tensor(mask3)
        pooled = masked.mean_over_axis(axis=1)                          # (B, h) == sum / T
        lengths = np.clip(mask3.sum(axis=1), 1.0, None)                 # (B, 1)
        scale = mask3.shape[1] / lengths                                # rescale mean -> masked mean
        pooled = pooled * Tensor(scale)
        state = self.state_init(pooled).tanh()                          # (B, h)
        return memory, state

    def decoder_step(self, previous_ids: np.ndarray, state: Tensor, memory: Tensor,
                     source_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """One decoder step; returns (logits ``(B,V)``, new state ``(B,h)``)."""
        batch_size = memory.shape[0]
        hidden = self.config.hidden_dim
        previous_embedded = self.target_embedding(previous_ids)         # (B, d)
        state = (self.input_projection(previous_embedded)
                 + self.recurrent_projection(state)).tanh()             # (B, h)
        # Dot-product attention over the encoder memory.
        scores = memory.bmm(state.reshape(batch_size, hidden, 1))       # (B, T, 1)
        mask3 = np.asarray(source_mask, dtype=np.float64)[:, :, None]
        scores = scores + Tensor((1.0 - mask3) * -1e9)
        attention = scores.softmax(axis=1)                              # (B, T, 1)
        context = attention.transpose_last_two().bmm(memory)            # (B, 1, h)
        context = context.reshape(batch_size, hidden)
        combined = self.combine_projection(Tensor.concat([state, context], axis=-1)).tanh()
        logits = self.output_projection(combined)                       # (B, V)
        return logits, state

    def forward_loss(self, source_ids: np.ndarray, source_mask: np.ndarray,
                     target_ids: np.ndarray, target_mask: np.ndarray) -> Tensor:
        """Teacher-forced sequence cross-entropy for one batch.

        ``target_ids`` must start with BOS and end with EOS (plus padding);
        the loss is computed over the shifted targets.
        """
        decoder_inputs = target_ids[:, :-1]
        decoder_targets = target_ids[:, 1:]
        decoder_mask = target_mask[:, 1:]
        memory, state = self.encode(source_ids, source_mask)
        step_logits: list[Tensor] = []
        for step in range(decoder_inputs.shape[1]):
            logits, state = self.decoder_step(decoder_inputs[:, step], state, memory, source_mask)
            step_logits.append(logits)
        logits_over_time = stack_rows(step_logits)                      # (T, B, V)
        targets_over_time = decoder_targets.T                           # (T, B)
        mask_over_time = decoder_mask.T
        return logits_over_time.cross_entropy(targets_over_time, mask_over_time)

    # ------------------------------------------------------------------
    # Inference path (plain numpy, no autograd overhead)
    # ------------------------------------------------------------------
    def encode_numpy(self, source_ids: list[int] | np.ndarray,
                     pad_id: int = 0) -> EncodedSource:
        """Encode one source sequence for decoding.

        An empty sequence (an empty or all-whitespace question) encodes as a
        single ``pad_id`` token, so "no input" flows through the same defined
        path instead of borrowing whatever word happens to sit at id 0.
        """
        ids = np.asarray(source_ids, dtype=np.int64)
        if ids.size == 0:
            ids = np.asarray([pad_id], dtype=np.int64)
        embedded = self.source_embedding.weight.data[ids]               # (T, d)
        # One (1, d) matmul slice per token: per-token results are then
        # independent of the sequence's length and of any batching, so
        # :meth:`encode_numpy_batch` can reproduce them bit-for-bit.
        memory = np.tanh(
            np.matmul(embedded[:, None, :],
                      self.encoder_projection.weight.data)[:, 0, :]
            + self.encoder_projection.bias.data)                        # (T, h)
        pooled = memory.mean(axis=0)
        state = np.tanh(pooled @ self.state_init.weight.data + self.state_init.bias.data)
        return EncodedSource(memory=memory, mask=np.ones(len(ids)), state=state)

    def encode_numpy_batch(self, source_ids_batch: list[list[int]],
                           pad_id: int = 0) -> list[EncodedSource]:
        """Encode several source sequences at once for decoding.

        The embedding lookup and encoder projection run as one stacked matmul
        over every token of the padded batch (the expensive part), then each
        item's memory is sliced back to its true length.  The stack presents
        one ``(1, d)`` slice per token to BLAS -- the same shape
        :meth:`encode_numpy` uses -- so each question encodes to *bit-identical*
        doubles no matter which micro-batch it arrives in: routes, and
        therefore caches and cross-shard merges, never depend on batch
        composition.  Empty sequences encode as a single ``pad_id`` token,
        exactly as in :meth:`encode_numpy`.
        """
        if not source_ids_batch:
            return []
        sequences = [np.asarray(ids if len(ids) else [pad_id], dtype=np.int64)
                     for ids in source_ids_batch]
        max_length = max(len(sequence) for sequence in sequences)
        padded = np.zeros((len(sequences), max_length), dtype=np.int64)
        for row, sequence in enumerate(sequences):
            padded[row, : len(sequence)] = sequence
        embedded = self.source_embedding.weight.data[padded]            # (B, T, d)
        batch_size, length, dim = embedded.shape
        projected = np.matmul(embedded.reshape(batch_size * length, 1, dim),
                              self.encoder_projection.weight.data)
        memory = np.tanh(
            projected.reshape(batch_size, length, -1)
            + self.encoder_projection.bias.data)                        # (B, T, h)
        encoded: list[EncodedSource] = []
        for row, sequence in enumerate(sequences):
            item_memory = memory[row, : len(sequence)]
            pooled = item_memory.mean(axis=0)
            state = np.tanh(pooled @ self.state_init.weight.data + self.state_init.bias.data)
            encoded.append(EncodedSource(memory=item_memory,
                                         mask=np.ones(len(sequence)), state=state))
        return encoded

    def decode_step_numpy(self, encoded: EncodedSource, state: np.ndarray,
                          previous_id: int, input_table: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
        """One inference decoder step for one beam (a thin wrapper).

        Runs :meth:`decode_step` on a single ``(1, 1)`` slot against the
        unpadded memory; ``input_table`` is the optional
        :meth:`fast_input_table` a per-step caller computes once.  Returns
        (log-probabilities ``(V,)``, new state ``(h,)``).
        """
        log_probabilities, new_states = self.decode_step(
            encoded.memory[None, :, :],
            (np.asarray(encoded.mask) != 0.0)[None, :],
            np.asarray(state, dtype=np.float64)[None, None, :],
            np.asarray([[previous_id]], dtype=np.int64),
            input_table=input_table)
        return log_probabilities[0, 0], new_states[0, 0]

    def fast_input_table(self) -> np.ndarray:
        """The fused ``(V, h)`` previous-token table for :meth:`decode_step`.

        ``embedding @ W_in + b_hh`` precomputed for every vocabulary entry,
        so each step replaces an embedding gather, a GEMM, and two bias adds
        with a single table gather.  Computed fresh on each call (one small
        ``(V, d) @ (d, h)`` GEMM) -- hot callers grab it once per decode and
        pass it to every step, which keeps it trivially coherent with the
        live weights.
        """
        return (self.target_embedding.weight.data
                @ self.input_projection.weight.data
                + self.recurrent_projection.bias.data)

    def decode_step(self, memory: np.ndarray, memory_mask: np.ndarray,
                    states: np.ndarray, previous_ids: np.ndarray,
                    input_table: np.ndarray | None = None,
                    memory_t: np.ndarray | None = None,
                    head: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``S`` beam slots of each of ``Q`` questions by one step.

        ``memory`` is ``(Q, T, h)`` (zero-padded along ``T``), ``memory_mask``
        ``(Q, T)`` bool (True at real source positions), ``states`` ``(Q, S,
        h)``, ``previous_ids`` ``(Q, S)``.  Returns (log-probabilities ``(Q,
        S, V)``, new states ``(Q, S, h)``).  Callers keep their slot grid
        resident and hand the kernel whole-array views, so a step performs
        no row gathers.

        Batch invariance: every projection runs as a stacked ``(Q, S, k) @
        (k, n)`` matmul, for which numpy issues one ``(S, k) @ (k, n)`` GEMM
        per question, and attention contracts per question as ``(S, h) @ (h,
        T)`` / ``(S, T) @ (T, h)``; the softmax reductions run along rows of
        fixed length.  A question's rows therefore never share a GEMM or a
        reduction with another question's, and its outputs depend only on
        its own inputs and on the shapes ``S`` and ``T`` -- which the decode
        engine fixes (``T`` by padding every memory to one length).  A flat
        ``(Q*S, k) @ (k, n)`` GEMM would not have that property: OpenBLAS
        blocks rows differently for different row counts, so a beam's last
        ulps would depend on its batch.  Changing ``T`` (how far memory is
        padded) may still move the last ulps of the attention sums.

        ``input_table`` is the :meth:`fast_input_table` fusion of the
        previous-token embedding and input projection (``previous_ids``
        index its rows), and ``memory_t`` a C-contiguous ``(Q, h, T)``
        transpose of ``memory``; hot callers compute both once per decode,
        and they are rebuilt here when absent.  ``head`` overrides the
        output projection with a ``(weight (h, V'), bias (V',))`` pair: the
        cluster's sliced shards decode and rescore through the master head
        this way, normalizing over the master vocabulary.
        """
        hidden = states.shape[2]
        if input_table is None:
            input_table = self.fast_input_table()
        if memory_t is None:
            memory_t = np.ascontiguousarray(memory.transpose(0, 2, 1))
        if head is None:
            head = (self.output_projection.weight.data, self.output_projection.bias.data)
        new_states = np.tanh(
            input_table[previous_ids]
            + np.matmul(states, self.recurrent_projection.weight.data))        # (Q, S, h)

        scores = np.matmul(new_states, memory_t)                                # (Q, S, T)
        if not memory_mask.all():
            scores = np.where(memory_mask[:, None, :], scores, -np.inf)
        # Both attention operands are tanh outputs, so |score| <= hidden and
        # the exp cannot overflow at ordinary widths -- the max-subtraction
        # is only needed (and only paid) when hidden approaches the float64
        # exp limit of ~709.
        if hidden > 512:
            scores = scores - scores.max(axis=2, keepdims=True)
        attention = np.exp(scores)                                              # pads -> 0.0
        attention /= attention.sum(axis=2, keepdims=True)
        context = np.matmul(attention, memory)                                  # (Q, S, h)

        combined = np.tanh(
            np.matmul(np.concatenate([new_states, context], axis=2),
                      self.combine_projection.weight.data)
            + self.combine_projection.bias.data)                                # (Q, S, h)
        logits = np.matmul(combined, head[0]) + head[1]                         # (Q, S, V)
        logits = logits - logits.max(axis=2, keepdims=True)
        log_probabilities = logits - np.log(np.exp(logits).sum(axis=2, keepdims=True))
        return log_probabilities, new_states


@dataclass(frozen=True)
class VocabularySlice:
    """Mapping from a sliced target vocabulary back to the master output head.

    A sliced shard model keeps only its sub-catalog's rows of the target
    embedding and output projection, so its per-step log-softmax normalizes
    over the *slice* -- scores inflate by exactly ``-log(slice probability
    mass)`` per step relative to the master vocabulary, and the inflation is
    largest precisely on shards the question does *not* belong to.  No
    per-shard constant can undo that, so calibration is exact instead:
    finished hypotheses are replayed teacher-forced through the shared trunk
    with the full master head (:func:`rescore_token_sequences`), which
    reproduces the global-vocabulary score.  This record carries what the
    replay needs: the kept master row ids (ascending; the special tokens'
    head is always kept, so special ids coincide between slice and master)
    and the master head parameters.
    """

    kept_ids: np.ndarray       # (V_slice,) int64, ascending master row ids
    output_weight: np.ndarray  # (h, V_master) master output projection weight
    output_bias: np.ndarray    # (V_master,) master output projection bias


def rescore_token_sequences(model: "Seq2SeqModel",
                            encoded_list: list[EncodedSource],
                            sequences: list[list[int]],
                            vocabulary_slice: VocabularySlice,
                            memory_length: int,
                            bos_id: int = 1) -> np.ndarray:
    """Exact master-vocabulary log-probabilities of sliced decodes.

    Replays each token sequence (sliced-vocabulary ids, *including* the
    trailing EOS for finished hypotheses) teacher-forced through ``model``'s
    :meth:`~Seq2SeqModel.decode_step`, scoring every step against the full
    master head carried by ``vocabulary_slice``.  The decoder state
    recursion never touches the output head and the sliced embedding rows
    are the master's kept rows, so the replayed trunk states match a
    master-vocabulary decode of the same path -- the returned score is the
    global score the master model would have assigned, up to GEMM
    regrouping noise.

    Each sequence is its own ``(1, k)`` question row against memory padded
    to ``memory_length``, so its score bits do not depend on which other
    sequences share the call.  Returns ``(R,)`` summed log-probabilities
    (zeros for empty sequences).
    """
    lengths = np.asarray([len(sequence) for sequence in sequences], dtype=np.int64)
    scores = np.zeros(len(sequences))
    if not sequences or lengths.max() == 0:
        return scores
    # Longest sequence first: the rows still inside their sequence at any
    # step are then a prefix, so each step advances views, never gathers.
    order = np.argsort(-lengths, kind="stable")
    rows, max_length = len(sequences), int(lengths[order[0]])
    hidden = model.config.hidden_dim
    memory = np.zeros((rows, memory_length, hidden))
    memory_mask = np.zeros((rows, memory_length), dtype=bool)
    states = np.empty((rows, 1, hidden))
    targets = np.zeros((rows, max_length), dtype=np.int64)
    for row, index in enumerate(order.tolist()):
        encoded = encoded_list[index]
        true_length = encoded.memory.shape[0]
        memory[row, :true_length] = encoded.memory
        memory_mask[row, :true_length] = np.asarray(encoded.mask) != 0.0
        states[row, 0] = encoded.state
        targets[row, : lengths[index]] = sequences[index]
    memory_t = np.ascontiguousarray(memory.transpose(0, 2, 1))
    master_targets = vocabulary_slice.kept_ids[targets]
    active_rows = (lengths[order][None, :] > np.arange(max_length)[:, None]).sum(axis=1)
    input_table = model.fast_input_table()
    head = (vocabulary_slice.output_weight, vocabulary_slice.output_bias)
    previous = np.full((rows, 1), bos_id, dtype=np.int64)
    replayed = np.zeros(rows)
    for step, active in enumerate(active_rows.tolist()):
        log_probabilities, states = model.decode_step(
            memory[:active], memory_mask[:active], states[:active],
            previous[:active], input_table=input_table,
            memory_t=memory_t[:active], head=head)
        replayed[:active] += log_probabilities[
            np.arange(active), 0, master_targets[:active, step]]
        previous = targets[:active, step : step + 1]
    scores[order] = replayed
    return scores


class WaveDecodeKernel:
    """Shard-tag adapter: one decode stream over several shard models.

    Duck-types what the decode engine touches of a model (``config``,
    :meth:`fast_input_table`, :meth:`decode_step`) and runs every step
    through the master trunk's :meth:`Seq2SeqModel.decode_step`, so a wave
    row decodes to the same bits alone or in any wave.  Two fleets qualify,
    the two :func:`repro.cluster.shard.project_router` builds:

    * unsliced -- every shard decodes the master model itself, so steps
      forward to its kernel unchanged;
    * sliced -- every shard is a twin sharing the master trunk by reference,
      with a :class:`VocabularySlice` of one master head.  Each question row
      carries a shard ``tag``; the previous-token gather indexes a stacked
      per-shard input table, the step runs the master head (log-softmax over
      the *master* vocabulary, so search prunes as a master-head decode
      restricted to the slice would and scores come out calibrated), and
      each shard's kept columns are gathered into a ``-inf``-padded
      common-width grid so the engine's top-k machinery is untouched.
    """

    _TRUNK_MODULES = ("source_embedding", "encoder_projection", "state_init",
                      "input_projection", "recurrent_projection",
                      "combine_projection")

    def __init__(self, models: list[Seq2SeqModel] | tuple[Seq2SeqModel, ...],
                 vocabulary_slices: Sequence[VocabularySlice | None] | None = None
                 ) -> None:
        if not models:
            raise ValueError("a wave kernel needs at least one shard model")
        self.models = list(models)
        base = self.models[0]
        for model in self.models[1:]:
            for attribute in self._TRUNK_MODULES:
                if getattr(model, attribute) is not getattr(base, attribute):
                    raise ValueError(
                        f"wave decode requires shard models sharing one trunk; "
                        f"{attribute!r} differs")
        if vocabulary_slices is None:
            vocabulary_slices = [None] * len(self.models)
        if len(vocabulary_slices) != len(self.models):
            raise ValueError("one vocabulary slice (or None) per shard model")
        self.vocabulary_slices = list(vocabulary_slices)
        head = self.vocabulary_slices[0]
        self.calibrated_head = head is not None and all(
            vocabulary_slice is not None
            and vocabulary_slice.output_weight is head.output_weight
            and vocabulary_slice.output_bias is head.output_bias
            for vocabulary_slice in self.vocabulary_slices)
        if not self.calibrated_head and not all(
                vocabulary_slice is None and model is base
                for model, vocabulary_slice in zip(self.models,
                                                   self.vocabulary_slices)):
            raise ValueError(
                "wave decode requires either one unsliced model shared by "
                "every shard or one shared master head across every shard's "
                "slice")
        self.vocab_width = max(model.config.target_vocab_size for model in self.models)
        self.config = replace(base.config, target_vocab_size=self.vocab_width)

    def fast_input_table(self) -> np.ndarray:
        """Per-shard fused previous-token tables, stacked ``(K * Vmax, h)``.

        Shard ``k``'s table occupies rows ``[k * Vmax, k * Vmax + V_k)``;
        the gather offset is ``tag * Vmax + previous_id``.  Pad rows stay
        zero and are never gathered (a shard's previous ids are < ``V_k``).
        An unsliced fleet has one model, hence one table.
        """
        if not self.calibrated_head:
            return self.models[0].fast_input_table()
        table = np.zeros((len(self.models) * self.vocab_width, self.config.hidden_dim))
        for shard, model in enumerate(self.models):
            shard_table = model.fast_input_table()
            start = shard * self.vocab_width
            table[start : start + shard_table.shape[0]] = shard_table
        return table

    def decode_step(self, memory: np.ndarray, memory_mask: np.ndarray,
                    states: np.ndarray, previous_ids: np.ndarray,
                    input_table: np.ndarray | None = None,
                    memory_t: np.ndarray | None = None, *,
                    tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step for a shard-tagged wave: the shapes of
        :meth:`Seq2SeqModel.decode_step` plus ``tags`` ``(Q,)``, the shard
        index of each question row, stacked shard-major (sorted).  Columns
        ``>= V_k`` of shard ``k``'s rows come back ``-inf``, so padded
        vocabulary slots can never win a top-k."""
        base = self.models[0]
        if not self.calibrated_head:
            return base.decode_step(memory, memory_mask, states, previous_ids,
                                    input_table=input_table, memory_t=memory_t)
        tags = np.asarray(tags, dtype=np.int64)
        if np.any(tags[1:] < tags[:-1]):
            raise ValueError("wave rows must be stacked shard-major (sorted tags)")
        if input_table is None:
            input_table = self.fast_input_table()
        head = self.vocabulary_slices[0]
        master_log_probabilities, new_states = base.decode_step(
            memory, memory_mask, states,
            previous_ids + tags[:, None] * self.vocab_width,
            input_table=input_table, memory_t=memory_t,
            head=(head.output_weight, head.output_bias))                    # (Q, S, V_master)
        log_probabilities = np.full(previous_ids.shape + (self.vocab_width,), -np.inf)
        bounds = np.searchsorted(tags, np.arange(len(self.models) + 1)).tolist()
        for shard, vocabulary_slice in enumerate(self.vocabulary_slices):
            start, stop = bounds[shard], bounds[shard + 1]
            if start < stop:
                kept_ids = vocabulary_slice.kept_ids
                log_probabilities[start:stop, :, : len(kept_ids)] = \
                    master_log_probabilities[start:stop][:, :, kept_ids]
        return log_probabilities, new_states
