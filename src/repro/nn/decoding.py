"""Decoding strategies: greedy, beam search, and diverse beam search.

All strategies accept an optional *constraint* callback mapping the decoded
prefix (token ids, excluding BOS) to the set of token ids allowed next.  The
DBCopilot router plugs its graph-based prefix-trie constraint in here
(paper §3.5); passing ``None`` decodes unconstrained.  Constraints may
additionally expose an ``allowed_mask(prefix)`` method returning a boolean
ndarray over the vocabulary (see
:class:`repro.core.constrained.GraphConstrainedDecoding`); both decoders
prefer it, applying the constraint as one vectorized ``np.where``.

Diverse beam search follows Vijayakumar et al. (2016), the algorithm the paper
uses to obtain varied candidate schemata: beams are split into groups, groups
are expanded sequentially at each step, and a token already chosen by an
earlier group at the same step is penalised for later groups.

One production engine implements those semantics:

* :func:`diverse_beam_search_batch` -- the slot-dense decode engine.  It
  advances every beam slot of every question in a micro-batch through one
  :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step` call per step, with
  bookkeeping (tokens, lengths, scores, states, finished flags, constraint
  masks) resident in preallocated numpy grids.  It is
  *batch-invariant* by construction: the kernel runs one fixed-shape GEMM
  per question and projection, and the router pads every attention memory
  to one fixed length, so a question decodes to the same tokens and the
  same score bits alone or in any micro-batch.

:func:`diverse_beam_search_loop` is the per-beam Python loop over the
single-row :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy`, kept
only as the oracle the tests compare the engine against.  The two agree on
hypotheses and on scores to tolerance (a 1-row and an S-row GEMM round
differently in the last ulps), not to the bit.  On the search side both
break score ties identically -- stable, lowest-token-id-first
(``np.argsort(-scores, kind="stable")``), never the platform-dependent order
an unstable descending sort would give -- so candidate selection, and
therefore every downstream ranking and cross-process merge, is
deterministic.

Constraints exposing the incremental-state protocol (``initial_state`` /
``advance`` / ``allowed_mask_for_state``) are threaded through the engine:
each surviving beam carries an O(1)-updatable interpreter state (gathered
from its parent on selection), so per-step constraint resolution never
re-walks a beam's prefix.  The loop oracle keeps the prefix-walk path, which
is exactly what makes it the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import AbstractSet, Callable, Sequence

import numpy as np

from repro.nn.seq2seq import EncodedSource, Seq2SeqModel

#: A constraint maps the decoded prefix to the allowed next token ids -- any
#: set-like collection, shared and possibly immutable, so callers must not
#: mutate it (an empty collection means "only EOS is allowed"; None means
#: "unconstrained at this prefix").
Constraint = Callable[[Sequence[int]], AbstractSet[int] | None]

#: Candidate tuples rank by their first field (the accumulated score); the
#: C-implemented getter keeps the hot selection sorts free of Python frames.
_candidate_score = itemgetter(0)


@dataclass
class BeamHypothesis:
    """A finished (or in-progress) decoded sequence."""

    tokens: list[int]
    score: float
    finished: bool = False

    def normalized_score(self, length_penalty: float = 0.0) -> float:
        """Length-normalised score; ``length_penalty=0`` returns the raw sum."""
        if length_penalty <= 0.0:
            return self.score
        length = max(len(self.tokens), 1)
        return self.score / (length ** length_penalty)


@dataclass
class _Beam:
    tokens: list[int] = field(default_factory=list)
    score: float = 0.0
    state: np.ndarray | None = None
    finished: bool = False


def _incremental_constraint(constraint: Constraint | None):
    """The constraint's incremental-state protocol, or ``None``.

    Constraints exposing ``initial_state()`` / ``advance(state, token)`` /
    ``allowed_mask_for_state(state)`` (see
    :class:`repro.core.constrained.GraphConstrainedDecoding`) let the batched
    engines thread an O(1)-updatable interpreter state through every
    surviving beam instead of re-walking its prefix per step.  Returns the
    bound ``(initial_state, advance, allowed_mask_for_state)`` triple.
    """
    if (constraint is not None
            and hasattr(constraint, "initial_state")
            and hasattr(constraint, "advance")
            and hasattr(constraint, "allowed_mask_for_state")):
        return (constraint.initial_state, constraint.advance,
                constraint.allowed_mask_for_state)
    return None


def _constraint_mask(constraint: Constraint | None, prefix: Sequence[int],
                     vocab_size: int, eos_id: int) -> np.ndarray | None:
    """The allowed-token boolean mask for ``prefix`` (None = unconstrained).

    Uses the constraint's cached ``allowed_mask`` when it has one; otherwise
    falls back to calling it as a set-returning callable and building the mask
    (an empty set means "only EOS").
    """
    if constraint is None:
        return None
    mask_fn = getattr(constraint, "allowed_mask", None)
    if mask_fn is not None:
        return mask_fn(prefix)
    allowed = constraint(prefix)
    if allowed is None:
        return None
    allowed_ids = {int(token) for token in allowed}
    if not allowed_ids:
        allowed_ids = {eos_id}
    mask = np.zeros(vocab_size, dtype=bool)
    mask[[token for token in allowed_ids if 0 <= token < vocab_size]] = True
    return mask


def _assign_state_mask(target: np.ndarray, mask: np.ndarray) -> None:
    """Write a constraint mask into a resident mask row, padding-aware.

    Wave decodes mix shards of different vocabulary widths into one grid
    whose mask rows span the widest slice; a narrower shard's mask fills its
    own columns and closes the pad columns (the kernel emits ``-inf`` there
    anyway -- this keeps the mask grid self-consistent)."""
    width = mask.shape[-1]
    if width == target.shape[-1]:
        target[...] = mask
    else:
        target[..., :width] = mask
        target[..., width:] = False


def _masked_log_probabilities(log_probabilities: np.ndarray, prefix: Sequence[int],
                              constraint: Constraint | None, eos_id: int) -> np.ndarray:
    """Apply the constraint by setting disallowed token log-probs to -inf."""
    mask = _constraint_mask(constraint, prefix, log_probabilities.shape[0], eos_id)
    if mask is None:
        return log_probabilities
    return np.where(mask, log_probabilities, -np.inf)


def _finalize_groups(groups: "list[list[_Beam]]", eos_id: int,
                     length_penalty: float, num_beams: int) -> list[BeamHypothesis]:
    """Strip EOS, rank, and deduplicate the surviving beams of one question."""
    finished: list[BeamHypothesis] = []
    for group in groups:
        for beam in group:
            tokens = beam.tokens
            if tokens and tokens[-1] == eos_id:
                tokens = tokens[:-1]
            finished.append(BeamHypothesis(tokens=tokens, score=beam.score,
                                           finished=beam.finished))
    finished.sort(key=lambda hypothesis: hypothesis.normalized_score(length_penalty),
                  reverse=True)
    # Deduplicate identical token sequences, keeping the best-scored copy.
    unique: list[BeamHypothesis] = []
    seen: set[tuple[int, ...]] = set()
    for hypothesis in finished:
        key = tuple(hypothesis.tokens)
        if key in seen:
            continue
        seen.add(key)
        unique.append(hypothesis)
    return unique[:num_beams]


def greedy_decode(model: Seq2SeqModel, source_ids: Sequence[int], bos_id: int, eos_id: int,
                  max_length: int = 48, constraint: Constraint | None = None,
                  encoded: EncodedSource | None = None) -> BeamHypothesis:
    """Greedy decoding; returns a single hypothesis (without BOS/EOS tokens).

    ``encoded`` lets callers reuse a precomputed encoder output (batched
    serving encodes many questions in one matmul and decodes each separately).
    """
    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    state = encoded.state
    previous = bos_id
    tokens: list[int] = []
    score = 0.0
    input_table = model.fast_input_table()
    for _ in range(max_length):
        log_probabilities, state = model.decode_step_numpy(
            encoded, state, previous, input_table=input_table)
        log_probabilities = _masked_log_probabilities(log_probabilities, tokens, constraint, eos_id)
        previous = int(np.argmax(log_probabilities))
        score += float(log_probabilities[previous])
        if previous == eos_id:
            return BeamHypothesis(tokens=tokens, score=score, finished=True)
        tokens.append(previous)
    return BeamHypothesis(tokens=tokens, score=score, finished=False)


def beam_search(model: Seq2SeqModel, source_ids: Sequence[int], bos_id: int, eos_id: int,
                beam_size: int = 5, max_length: int = 48,
                constraint: Constraint | None = None,
                length_penalty: float = 0.0) -> list[BeamHypothesis]:
    """Standard beam search; returns up to ``beam_size`` finished hypotheses."""
    return diverse_beam_search(
        model, source_ids, bos_id, eos_id,
        num_beams=beam_size, num_groups=1, diversity_penalty=0.0,
        max_length=max_length, constraint=constraint, length_penalty=length_penalty,
    )


def _validate_beam_budget(num_beams: int, num_groups: int) -> int:
    if num_beams <= 0:
        raise ValueError("num_beams must be positive")
    if num_groups <= 0 or num_beams % num_groups != 0:
        raise ValueError("num_beams must be a positive multiple of num_groups")
    return num_beams // num_groups


def diverse_beam_search(model: Seq2SeqModel, source_ids: Sequence[int], bos_id: int, eos_id: int,
                        num_beams: int = 10, num_groups: int = 10,
                        diversity_penalty: float = 2.0, max_length: int = 48,
                        constraint: Constraint | None = None,
                        length_penalty: float = 0.0,
                        encoded: EncodedSource | None = None) -> list[BeamHypothesis]:
    """Diverse (group) beam search for one question (a thin wrapper).

    ``num_beams`` must be divisible by ``num_groups``; the paper uses 10 beams
    in 10 groups with a diversity penalty of 2.0 (§4.1.5).  ``encoded`` lets
    callers reuse a precomputed encoder output instead of re-encoding
    ``source_ids``.  Runs the single question through the decode engine
    (:func:`diverse_beam_search_batch`); the per-beam test oracle is
    :func:`diverse_beam_search_loop`.
    """
    _validate_beam_budget(num_beams, num_groups)
    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    return diverse_beam_search_batch(
        model, [encoded], bos_id, eos_id,
        num_beams=num_beams, num_groups=num_groups,
        diversity_penalty=diversity_penalty, max_length=max_length,
        constraint=constraint, length_penalty=length_penalty,
        memory_length=encoded.memory.shape[0],
    )[0]


def _note_decode_stats(stats: dict | None, **counts: int) -> None:
    """Accumulate observability counters into a caller-provided dict.

    Pure bookkeeping on plain ints, written once per engine call after the
    search completes -- it cannot perturb the decode numerics."""
    if stats is None:
        return
    for key, value in counts.items():
        stats[key] = stats.get(key, 0) + value


def diverse_beam_search_loop(model: Seq2SeqModel, source_ids: Sequence[int],
                             bos_id: int, eos_id: int,
                             num_beams: int = 10, num_groups: int = 10,
                             diversity_penalty: float = 2.0, max_length: int = 48,
                             constraint: Constraint | None = None,
                             length_penalty: float = 0.0,
                             encoded: EncodedSource | None = None,
                             stats: dict | None = None) -> list[BeamHypothesis]:
    """Per-beam diverse beam search: the test oracle for the decode engine.

    The same search as :func:`diverse_beam_search_batch`, written as the
    plain per-beam Python loop: one single-row
    :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step_numpy` call per beam
    and step, constraints resolved by prefix walks.  It returns the engine's
    hypotheses with scores equal to tolerance (the engine's ``S``-row GEMMs
    round differently from these 1-row ones).  ``stats``, when given,
    accumulates ``steps`` (decode steps with at least one active beam) and
    ``beam_rows`` (kernel calls).
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)

    if encoded is None:
        encoded = model.encode_numpy(list(source_ids))
    groups: list[list[_Beam]] = [
        [_Beam(state=encoded.state.copy())] for _ in range(num_groups)
    ]
    input_table = model.fast_input_table()

    steps = 0
    beam_rows = 0
    for _ in range(max_length):
        tokens_chosen_this_step: dict[int, int] = {}
        any_active = False
        for group_index, group in enumerate(groups):
            candidates: list[_Beam] = []
            for beam in group:
                if beam.finished:
                    candidates.append(beam)
                    continue
                any_active = True
                beam_rows += 1
                previous = beam.tokens[-1] if beam.tokens else bos_id
                log_probabilities, new_state = model.decode_step_numpy(
                    encoded, beam.state, previous, input_table=input_table)
                log_probabilities = _masked_log_probabilities(
                    log_probabilities, beam.tokens, constraint, eos_id)
                # Hamming diversity: penalise tokens already emitted by earlier
                # groups at this time step.
                if diversity_penalty > 0.0 and tokens_chosen_this_step:
                    penalised = log_probabilities.copy()
                    for token, count in tokens_chosen_this_step.items():
                        penalised[token] -= diversity_penalty * count
                    scored = penalised
                else:
                    scored = log_probabilities
                # Stable descending sort: ties resolve lowest-token-id-first,
                # identically to the engine.
                top = np.argsort(-scored, kind="stable")[: max(beams_per_group * 2, 2)]
                for token in top:
                    token = int(token)
                    if not np.isfinite(log_probabilities[token]):
                        continue
                    candidate = _Beam(
                        tokens=beam.tokens + [token],
                        # Score with the *unpenalised* log-probability: the
                        # penalty only shapes the search, not the ranking.
                        score=beam.score + float(log_probabilities[token]),
                        state=new_state,
                        finished=(token == eos_id),
                    )
                    candidates.append(candidate)
            if not candidates:
                continue
            candidates.sort(key=lambda beam: beam.score, reverse=True)
            selected: list[_Beam] = []
            for candidate in candidates:
                if len(selected) >= beams_per_group:
                    break
                selected.append(candidate)
                if not candidate.finished and candidate.tokens:
                    token = candidate.tokens[-1]
                    tokens_chosen_this_step[token] = tokens_chosen_this_step.get(token, 0) + 1
            groups[group_index] = selected
        if not any_active:
            break
        steps += 1

    _note_decode_stats(stats, steps=steps, beam_rows=beam_rows)
    return _finalize_groups(groups, eos_id, length_penalty, num_beams)


def diverse_beam_search_batch(model: Seq2SeqModel, encoded_batch: "list[EncodedSource]",
                              bos_id: int, eos_id: int,
                              num_beams: int = 10, num_groups: int = 10,
                              diversity_penalty: float = 2.0, max_length: int = 48,
                              constraint: "Constraint | Sequence[Constraint | None] | None" = None,
                              length_penalty: float = 0.0, *,
                              memory_length: int,
                              stats: dict | None = None,
                              question_tags: Sequence[int] | None = None
                              ) -> list[list[BeamHypothesis]]:
    """Diverse beam search over a whole micro-batch: the decode engine.

    Search semantics match :func:`diverse_beam_search_loop` exactly (group-
    sequential Hamming diversity, unpenalised candidate ranking, stable
    lowest-token-id-first tie-breaking, finished-beam pass-through); the
    layout is organised for throughput:

    * every ``(question, group, slot)`` of the beam grid advances through
      :meth:`~repro.nn.seq2seq.Seq2SeqModel.decode_step` each step -- one
      fixed-shape ``(S, k) @ (k, n)`` GEMM per question and projection,
      batched per-question attention -- with states, previous
      tokens, and constraint masks kept *resident* in preallocated arrays,
      so steps perform no row gathers and no stacking; finished or unused
      slots ride along (their outputs are simply never read) rather than
      being compacted away;
    * groups still *select* sequentially within a step (Hamming diversity
      demands it; tallies live in one ``(Q, V)`` count array), but their
      selections are only recorded -- parent index, appended token, new
      score per slot -- and the grid is committed once per step with one set
      of whole-``(G, Q, B)`` gather/scatter ops instead of per-group writes;
    * once every group of a question has finished, the question is banked
      out of the grid, so a batch's stragglers stop paying for done rows.

    Batch invariance: every encoder memory is zero-padded to the fixed
    attention length ``memory_length`` (a longer memory raises
    :class:`ValueError` rather than silently padding further), so each
    question's kernel inputs have the same shapes whatever it is batched
    with, and the kernel never shares a GEMM between questions.  A
    question's hypotheses -- tokens and every bit of their scores -- are
    then a function of the model and the question alone: identical alone,
    in any micro-batch, at any position, before or after compaction.

    Against the loop oracle the engine agrees to tolerance, not to the bit:
    the oracle advances one ``(1, k)`` row per kernel call against the
    unpadded memory, and BLAS may round a 1-row GEMM, or a shorter
    attention sum, differently in the last ulps.

    Constraints exposing the incremental-state protocol (``initial_state`` /
    ``advance`` / ``allowed_mask_for_state``, see
    :class:`repro.core.constrained.GraphConstrainedDecoding`) are threaded
    through the search: each surviving beam carries an O(1)-updatable
    interpreter state (gathered from its parent on selection), so per-step
    constraint resolution never re-walks a beam's prefix.  Other constraints
    fall back to the prefix-walk path with a per-step prefix->mask memo.

    Two wave-decode extensions (the inproc cluster batching every shard's
    beams into one grid): ``constraint`` may be a sequence with exactly one
    entry per question -- each ``None`` or incremental-protocol (the prefix-
    walk fallback stays scalar-only) -- and ``question_tags`` labels each
    question with an integer shard tag.  Tags ride through compaction (which
    keeps their order, so shard-major stacking stays sorted), are handed to
    the ``tags`` parameter of the
    :class:`~repro.nn.seq2seq.WaveDecodeKernel` adapter each step, and split
    the decode counters into ``stats["per_tag"]``.  The adapter runs the
    same per-question kernel, so wave rows are batch-invariant too.

    Returns one hypothesis list per question.  ``stats``, when given,
    accumulates ``steps`` (kernel calls), ``beam_rows`` (grid slots advanced,
    dead slots included) and ``questions_compacted``.
    """
    beams_per_group = _validate_beam_budget(num_beams, num_groups)
    num_questions = len(encoded_batch)
    if num_questions == 0:
        return []
    hidden = encoded_batch[0].state.shape[0]
    vocab_size = model.config.target_vocab_size
    longest = max(encoded.memory.shape[0] for encoded in encoded_batch)
    if longest > memory_length:
        raise ValueError(
            f"a source memory of length {longest} exceeds the fixed attention "
            f"length {memory_length}")
    memory = np.zeros((num_questions, memory_length, hidden))
    memory_mask = np.zeros((num_questions, memory_length), dtype=bool)
    for question, encoded in enumerate(encoded_batch):
        true_length = encoded.memory.shape[0]
        memory[question, :true_length] = encoded.memory
        memory_mask[question, :true_length] = np.asarray(encoded.mask) != 0.0

    # The resident beam grid.  *Every* slot is initialised (not just slot
    # 0): dead slots keep flowing finite values through the dense kernel,
    # and ``alive``/``finished`` decide what is actually read.
    shape = (num_questions, num_groups, beams_per_group)
    slots = num_groups * beams_per_group
    tokens = np.zeros(shape + (max_length,), dtype=np.int64)
    lengths = np.zeros(shape, dtype=np.int64)
    scores = np.zeros(shape, dtype=np.float64)
    states = np.zeros(shape + (hidden,), dtype=np.float64)
    finished = np.zeros(shape, dtype=bool)
    alive = np.ones((num_questions, num_groups), dtype=np.int64)
    for question, encoded in enumerate(encoded_batch):
        states[question] = encoded.state
    # Flat (Q, S, ...) views over the same buffers for the kernel call and
    # the per-step previous-token derivation.
    flat_tokens = tokens.reshape(num_questions, slots, max_length)
    flat_lengths = lengths.reshape(num_questions, slots)
    flat_states = states.reshape(num_questions, slots, hidden)
    # Per-step Hamming tallies: counts[q, v] = how many earlier groups chose
    # token v for question q this step.  dp * count reproduces the loop
    # oracle's penalty doubles bit-for-bit (both compute dp * n once).  A
    # question with no tally subtracts exact zeros, so the penalty never
    # couples questions.
    counts = np.zeros((num_questions, vocab_size), dtype=np.float64)
    beam_arange = np.arange(beams_per_group)
    question_arange = np.arange(num_questions)[:, None]
    slot_arange = np.arange(slots)[None, :]
    # Broadcast index helpers for the whole-grid (G, Q, B) commit: direct
    # fancy indexing beats the functional take/put_along_axis wrappers at
    # these shapes.
    question_index3 = np.arange(num_questions)[:, None, None]   # (Q, 1, 1)
    beam_index3 = beam_arange[None, :, None]                    # (1, B, 1)
    group_index3 = np.arange(num_groups)[:, None, None]         # (G, 1, 1)
    question_index_mid = np.arange(num_questions)[None, :, None]  # (1, Q, 1)
    beam_index_last = beam_arange[None, None, :]                  # (1, 1, B)
    input_table = model.fast_input_table()
    memory_t = np.ascontiguousarray(memory.transpose(0, 2, 1))    # (Q, h, T)

    # Constraint plumbing.  The scalar form keeps both paths (incremental
    # protocol or prefix-walk fallback); the per-question sequence form (the
    # wave path, each shard's own graph constraint) requires the incremental
    # protocol.  Everything below works off per-question ``advance_fns`` /
    # ``mask_fns`` lists (``None`` entries = unconstrained question), so the
    # selection loop is shard-agnostic.
    prefix_constraint: Constraint | None = None
    if isinstance(constraint, (list, tuple)):
        if len(constraint) != num_questions:
            raise ValueError(
                f"per-question constraints need exactly one entry per question "
                f"({len(constraint)} != {num_questions})")
        advance_fns: list = []
        mask_fns: list = []
        start_states: list = []
        for entry in constraint:
            if entry is None:
                advance_fns.append(None)
                mask_fns.append(None)
                start_states.append(None)
                continue
            protocol = _incremental_constraint(entry)
            if protocol is None:
                raise ValueError(
                    "per-question constraints must expose the incremental-state "
                    "protocol (initial_state/advance/allowed_mask_for_state)")
            entry_initial, entry_advance, entry_mask = protocol
            advance_fns.append(entry_advance)
            mask_fns.append(entry_mask)
            start_states.append(entry_initial())
    else:
        protocol = _incremental_constraint(constraint)
        if protocol is not None:
            shared_initial, shared_advance, shared_mask = protocol
            shared_start = shared_initial()
            advance_fns = [shared_advance] * num_questions
            mask_fns = [shared_mask] * num_questions
            start_states = [shared_start] * num_questions
        else:
            prefix_constraint = constraint
            advance_fns = [None] * num_questions
            mask_fns = [None] * num_questions
            start_states = [None] * num_questions
    incremental = any(fn is not None for fn in mask_fns)
    masked = incremental or prefix_constraint is not None
    if masked:
        # Resident dense mask grid; stale rows belong to dead slots and are
        # never read.  With an incremental constraint the grid is maintained
        # at selection time (a beam's mask only changes when its state
        # does), folded into the same loop that advances interpreter states;
        # prefix-walk constraints refill active rows before each step.
        row_masks = np.ones(shape + (vocab_size,), dtype=bool)
    if incremental:
        constraint_states: list[list[list]] = [
            [[start_states[question]] * beams_per_group for _ in range(num_groups)]
            for question in range(num_questions)
        ]
        for question in range(num_questions):
            if mask_fns[question] is not None:
                _assign_state_mask(row_masks[question],
                                   mask_fns[question](start_states[question]))

    # Shard tags (the wave path): resident per-question, compacted alongside
    # the grid, handed to the kernel each step, and split out per tag in the
    # final stats.
    tag_array: np.ndarray | None = None
    if question_tags is not None:
        tag_array = np.asarray(list(question_tags), dtype=np.int64)
        if tag_array.shape != (num_questions,):
            raise ValueError("question_tags needs exactly one tag per question")
        num_tags = int(tag_array.max()) + 1 if num_questions else 0
        tag_steps = np.zeros(num_tags, dtype=np.int64)
        tag_beam_rows = np.zeros(num_tags, dtype=np.int64)
        tag_compacted = np.zeros(num_tags, dtype=np.int64)

    # Clamped to the vocabulary: argsort slices truncate at V anyway (the
    # loop oracle's behavior), and the candidate loops must not read
    # positions that do not exist when V < 2 * beams_per_group.
    top_n = min(max(beams_per_group * 2, 2), vocab_size)
    # Shared "keep this slot untouched" selection rows (read-only): parent =
    # own index, token marker -2.  Markers: >= 0 appends that token to the
    # parent, -1 passes a finished parent through, -2 keeps the slot as-is.
    keep_parents = list(range(beams_per_group))
    keep_tokens = [-2] * beams_per_group
    keep_scores = [0.0] * beams_per_group
    keep_parents_block = [keep_parents] * num_questions
    keep_tokens_block = [keep_tokens] * num_questions
    keep_scores_block = [keep_scores] * num_questions

    # Question-level compaction: once every group of a question has finished,
    # its beams are final -- bank them and shrink every per-question buffer,
    # so the tail of a decode (a few stragglers of a large batch) stops
    # paying dense-kernel flops for questions that are already done.
    question_ids = list(range(num_questions))
    banked: dict[int, tuple] = {}

    steps = 0
    beam_rows = 0
    questions_compacted = 0
    for _ in range(max_length):
        active = ~finished & (beam_arange < alive[:, :, None])   # (Q, G, B)
        if not active.any():
            break
        live = active.any(axis=(1, 2))                           # (Q,)
        if not live.all():
            questions_compacted += int((~live).sum())
            for question in np.nonzero(~live)[0].tolist():
                banked[question_ids[question]] = (
                    tokens[question].copy(), lengths[question].copy(),
                    scores[question].copy(), finished[question].copy(),
                    alive[question].copy())
            kept = np.nonzero(live)[0]
            kept_list = kept.tolist()
            question_ids = [question_ids[question] for question in kept_list]
            if incremental:
                constraint_states = [constraint_states[question]
                                     for question in kept_list]
            advance_fns = [advance_fns[question] for question in kept_list]
            mask_fns = [mask_fns[question] for question in kept_list]
            if tag_array is not None:
                tag_compacted += np.bincount(tag_array[~live], minlength=num_tags)
                tag_array = tag_array[kept]
            memory = memory[kept]
            memory_mask = memory_mask[kept]
            memory_t = np.ascontiguousarray(memory_t[kept])
            tokens = tokens[kept]
            lengths = lengths[kept]
            scores = scores[kept]
            states = states[kept]
            finished = finished[kept]
            alive = alive[kept]
            active = active[kept]
            counts = counts[kept]
            if masked:
                row_masks = row_masks[kept]
            num_questions = len(kept_list)
            shape = (num_questions, num_groups, beams_per_group)
            flat_tokens = tokens.reshape(num_questions, slots, max_length)
            flat_lengths = lengths.reshape(num_questions, slots)
            flat_states = states.reshape(num_questions, slots, hidden)
            question_arange = np.arange(num_questions)[:, None]
            question_index3 = question_arange[:, :, None]
            question_index_mid = np.arange(num_questions)[None, :, None]
            keep_parents_block = [keep_parents] * num_questions
            keep_tokens_block = [keep_tokens] * num_questions
            keep_scores_block = [keep_scores] * num_questions
        # Python-list snapshots of the step-start bookkeeping: selection only
        # ever reads pre-step values (the whole-grid commit below is the sole
        # writer, and it runs after all groups have selected), and plain
        # lists are an order of magnitude faster than numpy scalar indexing
        # in the per-beam loops.
        alive_list = alive.tolist()
        finished_list = finished.tolist()
        scores_list = scores.tolist()

        if prefix_constraint is not None:
            lengths_list = lengths.tolist()
            mask_memo: dict[tuple[int, ...], np.ndarray | None] = {}
            for question in range(num_questions):
                for group in range(num_groups):
                    group_finished = finished_list[question][group]
                    for beam in range(alive_list[question][group]):
                        if group_finished[beam]:
                            continue
                        key = tuple(tokens[
                            question, group, beam,
                            :lengths_list[question][group][beam]].tolist())
                        mask = mask_memo.get(key)
                        if key not in mask_memo:
                            mask = _constraint_mask(prefix_constraint, key,
                                                    vocab_size, eos_id)
                            mask_memo[key] = mask
                        if mask is not None:
                            row_masks[question, group, beam] = mask
                        else:
                            # None means "unconstrained at this prefix": the
                            # resident row may hold a stale restrictive mask
                            # (an earlier step, or another beam after a slot
                            # permutation) and must be reopened.
                            row_masks[question, group, beam] = True

        # One dense kernel call: all slots of all groups of all questions.
        # Previous tokens are derived in place from the resident grid (each
        # slot's last recorded token, BOS before any) -- no per-group upkeep.
        previous = np.where(
            flat_lengths > 0,
            flat_tokens[question_arange, slot_arange,
                        np.maximum(flat_lengths - 1, 0)],
            bos_id)
        steps += 1
        beam_rows += num_questions * slots
        if tag_array is None:
            log_probabilities, step_states = model.decode_step(
                memory, memory_mask, flat_states, previous,
                input_table=input_table, memory_t=memory_t)
        else:
            resident = np.bincount(tag_array, minlength=num_tags)
            tag_beam_rows += resident * slots
            tag_steps += resident > 0
            log_probabilities, step_states = model.decode_step(
                memory, memory_mask, flat_states, previous,
                input_table=input_table, memory_t=memory_t, tags=tag_array)
        log_probabilities = log_probabilities.reshape(shape + (vocab_size,))
        if masked:
            log_probabilities = np.where(row_masks, log_probabilities, -np.inf)

        # Group-sequential selection.  Each group contributes one (Q, B) row
        # set of (parent, token, score) decisions; groups that select nothing
        # keep the shared keep-blocks (read-only, so aliasing is safe).
        counts[:] = 0.0
        any_chosen = False
        step_parents = [keep_parents_block] * num_groups
        step_tokens = [keep_tokens_block] * num_groups
        step_scores = [keep_scores_block] * num_groups
        step_alive = [[alive_list[question][group]
                       for question in range(num_questions)]
                      for group in range(num_groups)]
        group_has_active = active.any(axis=(0, 2)).tolist()       # (G,)
        for group in range(num_groups):
            if not group_has_active[group]:
                continue
            block = log_probabilities[:, group]                    # (Q, B, V)
            if diversity_penalty > 0.0 and any_chosen:
                scored = block - (diversity_penalty * counts)[:, None, :]
            else:
                scored = block
            # One stable descending argsort over the group's dense block:
            # ties resolve lowest-token-id-first, identically to the loop
            # oracle (dead rows are sorted too, and ignored below).
            order = np.argsort(-scored, axis=2, kind="stable")[:, :, :top_n]
            values = block[question_index3, beam_index3, order]
            order_list = order.tolist()
            values_list = values.tolist()
            finite_list = np.isfinite(values).tolist()

            group_parents = None
            for question in range(num_questions):
                candidates: list[tuple[float, int, int, int]] = []
                has_active = False
                question_scores = scores_list[question][group]
                question_finished = finished_list[question][group]
                question_values = values_list[question]
                question_order = order_list[question]
                question_finite = finite_list[question]
                for beam in range(alive_list[question][group]):
                    if question_finished[beam]:
                        candidates.append((question_scores[beam], -1, beam, -1))
                        continue
                    has_active = True
                    parent_score = question_scores[beam]
                    row_values = question_values[beam]
                    row_order = question_order[beam]
                    row_finite = question_finite[beam]
                    for position in range(top_n):
                        if not row_finite[position]:
                            continue
                        candidates.append((parent_score + row_values[position],
                                           row_order[position], beam, beam))
                if not candidates or not has_active:
                    continue
                if group_parents is None:
                    group_parents = list(keep_parents_block)
                    group_tokens = list(keep_tokens_block)
                    group_scores = list(keep_scores_block)
                    step_parents[group] = group_parents
                    step_tokens[group] = group_tokens
                    step_scores[group] = group_scores
                candidates.sort(key=_candidate_score, reverse=True)
                selected = candidates[:beams_per_group]
                parents_row = list(keep_parents)
                tokens_row = list(keep_tokens)
                scores_row = list(keep_scores)
                group_parents[question] = parents_row
                group_tokens[question] = tokens_row
                group_scores[question] = scores_row
                step_alive[group][question] = len(selected)
                mask_for_state = mask_fns[question]
                advance_state = advance_fns[question]
                group_states = constraint_states[question][group] \
                    if incremental and mask_for_state is not None else None
                new_cstates = [None] * len(selected) if group_states is not None \
                    else None
                for slot, (score, token, parent, _) in enumerate(selected):
                    parents_row[slot] = parent
                    if token < 0:
                        # A finished beam passing through unchanged.
                        tokens_row[slot] = -1
                        if group_states is not None:
                            new_cstates[slot] = group_states[parent]
                        continue
                    tokens_row[slot] = token
                    scores_row[slot] = score
                    if group_states is not None:
                        if token == eos_id:
                            new_cstates[slot] = group_states[parent]
                        else:
                            new_state = advance_state(group_states[parent], token)
                            new_cstates[slot] = new_state
                            _assign_state_mask(row_masks[question, group, slot],
                                               mask_for_state(new_state))
                    if token != eos_id:
                        counts[question, token] += 1.0
                        any_chosen = True
                if group_states is not None:
                    constraint_states[question][group] = new_cstates

        # Whole-grid commit: one set of (G, Q, B) gathers/scatters applies
        # every group's recorded selection at once.  Keep-slots gather
        # themselves (their append mask is off, so the token write below is
        # a clamped self-overwrite); slots past ``alive`` hold gathered
        # leftovers no reader ever looks at.
        parents = np.asarray(step_parents, dtype=np.int64)        # (G, Q, B)
        chosen_tokens = np.asarray(step_tokens, dtype=np.int64)   # (G, Q, B)
        chosen_scores = np.asarray(step_scores, dtype=np.float64)
        append = chosen_tokens >= 0
        tokens_t = tokens.transpose(1, 0, 2, 3)                   # (G, Q, B, L) view
        lengths_t = lengths.transpose(1, 0, 2)
        scores_t = scores.transpose(1, 0, 2)
        states_t = states.transpose(1, 0, 2, 3)
        finished_t = finished.transpose(1, 0, 2)
        step_states_t = step_states.reshape(shape + (hidden,)).transpose(1, 0, 2, 3)
        gathered_tokens = tokens_t[group_index3, question_index_mid, parents]
        parent_lengths = lengths_t[group_index3, question_index_mid, parents]
        write_at = np.minimum(parent_lengths, max_length - 1)
        write_values = np.where(
            append, chosen_tokens,
            gathered_tokens[group_index3, question_index_mid,
                            beam_index_last, write_at])
        gathered_tokens[group_index3, question_index_mid,
                        beam_index_last, write_at] = write_values
        tokens_t[:] = gathered_tokens
        lengths_t[:] = parent_lengths + append
        scores_t[:] = np.where(
            append, chosen_scores,
            scores_t[group_index3, question_index_mid, parents])
        states_t[:] = np.where(
            append[:, :, :, None],
            step_states_t[group_index3, question_index_mid, parents],
            states_t[group_index3, question_index_mid, parents])
        finished_t[:] = np.where(
            append, chosen_tokens == eos_id,
            finished_t[group_index3, question_index_mid, parents])
        alive[:] = np.asarray(step_alive, dtype=np.int64).T

    _note_decode_stats(stats, steps=steps, beam_rows=beam_rows,
                       questions_compacted=questions_compacted)
    if stats is not None and tag_array is not None:
        per_tag = stats.setdefault("per_tag", {})
        for tag in range(num_tags):
            entry = per_tag.setdefault(int(tag), {})
            entry["steps"] = entry.get("steps", 0) + int(tag_steps[tag])
            entry["beam_rows"] = entry.get("beam_rows", 0) + int(tag_beam_rows[tag])
            entry["questions_compacted"] = (entry.get("questions_compacted", 0)
                                            + int(tag_compacted[tag]))
    # Bank whatever is still resident, then emit every question's beams in
    # the original batch order (compaction may have reordered the grid).
    for question, original in enumerate(question_ids):
        banked[original] = (tokens[question], lengths[question],
                            scores[question], finished[question],
                            alive[question])
    results: list[list[BeamHypothesis]] = []
    for original in range(len(encoded_batch)):
        q_tokens, q_lengths, q_scores, q_finished, q_alive = banked[original]
        groups_out: list[list[_Beam]] = []
        for group in range(num_groups):
            group_beams: list[_Beam] = []
            for beam in range(q_alive[group]):
                length = int(q_lengths[group, beam])
                group_beams.append(_Beam(
                    tokens=q_tokens[group, beam, :length].tolist(),
                    score=float(q_scores[group, beam]),
                    finished=bool(q_finished[group, beam])))
            groups_out.append(group_beams)
        results.append(_finalize_groups(groups_out, eos_id, length_penalty, num_beams))
    return results
