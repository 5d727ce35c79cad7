"""Losses, truncated-BPTT batching with gold-distance alignment, and the
SGD training loop with its ablation switches.

Supervision slots: the distance a model emits at step t describes the
boundary between inputs t-1 and t.  Each slot carries the id of the
sentence whose tree covers it, or -1 for window row 0 and any slot no
single sentence's tree covers; -1 means unsupervised.  Ranking pairs are
drawn only within one sentence.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .corpus import Corpus, Vocab
from .distance import tree_to_distances
from .models import ForwardOut, affine
from .trees import random_binary_tree


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

# The logits of one block of rows of the LM loss take at most this many
# bytes (at least one row): 157 rows at a vocabulary of 5000.
LOSS_BLOCK_BYTES = 6 * 2**20


def lm_loss(out: ForwardOut, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean cross entropy per predicted token, in nats, of a
    forward's output `out`.  Its rows are decoded and scored in blocks of
    LOSS_BLOCK_BYTES of logits: each block is the projection, the cross
    entropy and the sum of its weighted rows, and the blocks' sums are
    added, so a step never holds every row's logits at once.  One block is
    `out.tops` itself, unsliced."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("lm_loss: no weighted targets")
    n = out.tops.shape[0]
    rows = max(1, LOSS_BLOCK_BYTES // (8 * out.decoder[1].shape[0]))  # the bias is (V,)
    loss = None
    for lo in range(0, n, rows):
        block = out.tops if rows >= n else out.tops[lo : lo + rows]
        ce = ad.cross_entropy_logits(affine(block, *out.decoder), targets[lo : lo + rows])
        part = ad.tsum(ce * Tensor(w[lo : lo + rows]))
        loss = part if loss is None else loss + part
    return loss * (1.0 / total)


@functools.cache
def _upper_pairs(n: int) -> np.ndarray:
    """np.triu_indices(n, k=1) as rows of one array, read-only: callers share it."""
    pairs = np.array(np.triu_indices(n, k=1))
    pairs.flags.writeable = False
    return pairs


def pair_indices(groups: np.ndarray):
    """Index pairs (i, j), i < j, of slots in the same group (sentence id);
    a slot of group -1 is in no pair."""
    groups = np.asarray(groups)
    if groups.dtype.kind not in "iu":
        raise TypeError("pair groups must be integer sentence ids, got dtype %s" % groups.dtype)
    ii_parts, jj_parts = [], []
    for g in np.unique(groups[groups >= 0]):
        idx = np.flatnonzero(groups == g)
        if idx.size < 2:
            continue
        iu, ju = _upper_pairs(idx.size)
        ii_parts.append(idx[iu])
        jj_parts.append(idx[ju])
    if not ii_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(ii_parts), np.concatenate(jj_parts)


def ranking_loss(d_w, d_g: np.ndarray, groups: np.ndarray, pair_mode: str = "symmetric") -> Tensor:
    """Pairwise hinge on predicted distances vs the gold ranking over the
    pairs of pair_indices(groups): sum over pairs of
    max(0, (1 - sign(g_i - g_j)) (w_i - w_j)); the symmetric mode adds the
    mirrored pairs.  Mean is over unordered pairs."""
    if pair_mode not in ("as-written", "symmetric"):
        raise ValueError("pair_mode must be as-written or symmetric")
    d_w = ad.as_tensor(d_w)
    d_g = np.asarray(d_g, dtype=np.float64)
    ii, jj = pair_indices(groups)
    if ii.size == 0:
        return Tensor(0.0)
    sign = np.sign(d_g[ii] - d_g[jj])
    w_i = ad.take(d_w, ii)
    w_j = ad.take(d_w, jj)
    loss = ad.tsum(Tensor(1.0 - sign) * ad.relu(w_i - w_j))
    if pair_mode == "symmetric":
        loss = loss + ad.tsum(Tensor(1.0 + sign) * ad.relu(w_j - w_i))
    return loss * (1.0 / ii.size)


def _pair_agreement(d_w, d_g, groups) -> tuple[int, int]:
    """(agree, strict): of the strict pairs, those whose gold distances
    differ, how many the predicted distances order the same way
    (strictly), and how many strict pairs there are."""
    d_w = np.asarray(d_w, dtype=np.float64)
    d_g = np.asarray(d_g)
    ii, jj = pair_indices(groups)
    sign_g = np.sign(d_g[ii] - d_g[jj])
    strict = sign_g != 0
    agree = np.sign(d_w[ii] - d_w[jj])[strict] == sign_g[strict]
    return int(agree.sum()), int(strict.sum())


def joint_loss(l_lm: Tensor, l_syd: Optional[Tensor], alpha: float) -> Tensor:
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if l_syd is None:
        return l_lm
    return l_lm + alpha * l_syd


def supervised_pair_accuracy(model, corpus, batch_size: int, bptt_length: int) -> Optional[float]:
    """Gold-pair ranking accuracy (percent) of the supervised distance stream
    over exactly the pair set the ranking loss trains: within-sentence,
    within-window slots, dropout off."""
    return validation_pass(model, corpus, batch_size, bptt_length, "gold")[1]


def validation_pass(model, corpus: Corpus, batch_size: int, bptt_length: int,
                    tree_source: str) -> tuple[float, Optional[float]]:
    """(perplexity, gold-pair ranking accuracy in percent) from one forward
    per batch of bptt_batches, dropout off.  Inputs, targets and weights do
    not depend on tree_source; the accuracy is None unless tree_source is
    "gold" and the model's supervised stream meets a strict gold pair.
    Raises NumericError when the perplexity is not finite."""
    nll, weight = 0.0, 0.0
    agree, strict = 0, 0
    state = None
    for batch in bptt_batches(corpus, batch_size, bptt_length, tree_source=tree_source):
        if not batch.carry_state:
            state = None
        out = model.forward(batch.inputs, state)
        state = out.state
        ce = ad.cross_entropy_logits(out.logits, batch.targets.reshape(-1)).data
        w = batch.target_weight.reshape(-1)
        nll += float(ce @ w)
        weight += float(w.sum())
        if out.d_syd is not None and (batch.sent_id >= 0).any():
            a, s = _pair_agreement(out.d_syd.data, batch.gold_d.reshape(-1),
                                   batch.sent_id.reshape(-1))
            agree += a
            strict += s
    if weight == 0:
        raise ValueError("perplexity: corpus has no targets")
    ppl = float(np.exp(nll / weight))
    if not np.isfinite(ppl):
        raise ad.NumericError("non-finite perplexity (%s)" % ppl)
    return ppl, (100.0 * agree / strict if strict else None)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    inputs: np.ndarray        # (T, B) input token ids
    targets: np.ndarray       # (T, B) next-token ids
    target_weight: np.ndarray  # (T, B) 1.0 where the target is scored
    gold_d: np.ndarray        # (T, B) gold distance of the slot before input t
    sent_id: np.ndarray       # (T, B) sentence index, -1 on unsupervised slots
    carry_state: bool         # False when hidden state must reset first


def _mixed_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index) % (2**31 - 1)


def _gold_slot_streams(corpus: Corpus, tree_source: str, seed: int):
    """(d, sent): the gold distance and sentence id of each slot of the
    token stream, sentence -1 where no tree covers it, then one pad entry
    (distance 0, sentence -1) that slot -1, none, reads."""
    n_slots = max(len(corpus.tokens) - 1, 0)
    d = np.zeros(n_slots + 1)
    sent = np.full(n_slots + 1, -1, dtype=np.int64)
    if tree_source == "none":
        return d, sent
    for i, (s, e) in enumerate(corpus.sentence_spans):
        n = e - s
        if n < 2:
            continue
        if tree_source == "gold":
            gold = corpus.gold_distances(i)
            if gold is None:
                continue
        elif tree_source == "random":
            gold = tree_to_distances(random_binary_tree(n, _mixed_seed(seed, i)))
        else:
            raise ValueError("unknown tree_source %r" % tree_source)
        d[s : e - 1] = gold
        sent[s : e - 1] = i
    return d, sent


def bptt_batches(
    corpus: Corpus,
    batch_size: int,
    bptt_length: int,
    tree_source: str = "gold",
    seed: int = 0,
) -> Iterator[Batch]:
    """Concatenated mode folds the stream into batch_size columns and slices
    bptt windows (state carried across windows); separate-sentence mode
    yields length-bucketed sentence batches framed as
    input [eos]+words -> target words+[eos], state reset per batch."""
    if corpus.mode == "concat":
        yield from _concat_batches(corpus, batch_size, bptt_length, tree_source, seed)
    else:
        yield from _sepsent_batches(corpus, batch_size, tree_source, seed)


def _concat_batches(corpus, batch_size, bptt_length, tree_source, seed):
    stream = corpus.tokens
    m = len(stream)
    if batch_size > m:
        raise ValueError("batch_size %d exceeds token count %d" % (batch_size, m))
    seg = m // batch_size
    if seg < 2:
        raise ValueError("stream too short for batch_size %d" % batch_size)
    cols = stream[: seg * batch_size].reshape(batch_size, seg).T  # (seg, B)
    d_stream, sent_stream = _gold_slot_streams(corpus, tree_source, seed)
    col_base = np.arange(batch_size) * seg
    for start in range(0, seg - 1, bptt_length):
        t_len = min(bptt_length, seg - 1 - start)
        inputs = cols[start : start + t_len]
        targets = cols[start + 1 : start + 1 + t_len]
        slot = col_base[None, :] + start + np.arange(t_len)[:, None] - 1  # slot before input row
        slot[0] = -1                                     # row 0's slot lies before the window
        yield Batch(
            inputs=inputs.copy(),
            targets=targets.copy(),
            target_weight=np.ones_like(inputs, dtype=np.float64),
            gold_d=d_stream[slot],
            sent_id=sent_stream[slot],
            carry_state=start > 0,
        )


def sentence_batches(corpus: Corpus, batch_size: int):
    """Whole sentences in length order (ties by index), batch_size at a
    time, each framed as input [eos] + words and padded with eos below:
    yields (sentence indices, lengths, (longest + 1, B) inputs)."""
    spans = corpus.sentence_spans
    order = sorted(range(corpus.n_sentences), key=lambda i: (spans[i][1] - spans[i][0], i))
    for lo in range(0, len(order), batch_size):
        group = order[lo : lo + batch_size]
        lens = [spans[i][1] - spans[i][0] for i in group]
        inputs = np.full((max(lens) + 1, len(group)), Vocab.eos_id, dtype=np.int64)
        for j, (i, n) in enumerate(zip(group, lens)):
            inputs[1 : n + 1, j] = corpus.sentence_ids(i)
        yield group, lens, inputs


def _sepsent_batches(corpus, batch_size, tree_source, seed):
    d_stream, sent_stream = _gold_slot_streams(corpus, tree_source, seed)
    for group, lens, inputs in sentence_batches(corpus, batch_size):
        targets = np.full(inputs.shape, Vocab.eos_id, dtype=np.int64)
        weight = np.zeros(inputs.shape)
        slot = np.full(inputs.shape, -1, dtype=np.int64)
        for j, (i, n) in enumerate(zip(group, lens)):
            s, e = corpus.sentence_spans[i]
            targets[0:n, j] = inputs[1 : n + 1, j]
            weight[: n + 1, j] = 1.0
            slot[2 : n + 1, j] = np.arange(s, e - 1)  # slot k of the sentence sits before input row k+2
        yield Batch(inputs, targets, weight, d_stream[slot], sent_stream[slot], carry_state=False)


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

def _global_clip(params, clip_norm: float) -> float:
    """The factor that scales the gradients to a global norm of at most
    clip_norm (no clipping when clip_norm <= 0).  Raises NumericError when
    the squared norm is not finite, so that no parameter takes the step."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    if not np.isfinite(total):
        raise ad.NumericError("non-finite gradient")
    norm = np.sqrt(total)
    if clip_norm <= 0 or norm <= clip_norm:
        return 1.0
    return clip_norm / (norm + 1e-12)


def train(model, corpus: Corpus, config: TrainConfig, valid_corpus: Optional[Corpus] = None):
    """SGD with gradient clipping, LR decay on validation plateau, and
    optional tail iterate averaging.  Returns (per-epoch log, best params).
    The params are the average of the iterates of the last log entry's
    ``averaged`` epochs when that count is nonzero, else those of its
    ``best_epoch`` (0: the initial params).  When averaging, the last
    entry's ``averaged_valid_ppl`` is the averaged params' validation
    perplexity.  ``valid_corpus`` (default:
    ``corpus``) must share the training vocabulary.

    Fully deterministic for a fixed config: one RNG owned by the trainer
    drives every dropout mask, and the data order is fixed.
    """
    config.validate()
    if valid_corpus is None:
        valid_corpus = corpus
    elif valid_corpus.vocab.words != corpus.vocab.words:
        raise ValueError("the validation corpus's vocabulary differs from the training corpus's (%d vs %d words)"
                         % (len(valid_corpus.vocab), len(corpus.vocab)))
    rng = np.random.default_rng(config.seed)
    params = list(model.params.values())
    lr = config.lr
    best_val = float("inf")
    best_params = {name: p.data.copy() for name, p in model.params.items()}
    best_epoch = 0
    patience_left = config.lr_patience
    avg_from = config.average_from_epoch
    if config.averaging and avg_from is None:
        avg_from = max(1, (2 * config.epochs) // 3)
    avg_store = None
    avg_count = 0
    log: list[dict] = []
    supervised = config.alpha > 0 and model.config.supervision_mode != "none"
    val_source = "none" if model.config.supervision_mode == "none" else "gold"

    for epoch in range(1, config.epochs + 1):
        t0 = time.time()
        state = None
        lm_sum, lm_n = 0.0, 0
        syd_sum, syd_n = 0.0, 0
        for step, batch in enumerate(
            bptt_batches(corpus, config.batch_size, config.bptt_length,
                         config.tree_source, config.seed)
        ):
            if not batch.carry_state:
                state = None
            with ad.Tape():
                try:
                    out = model.forward(batch.inputs, state, rng=rng, train_cfg=config)
                except ad.NumericError as exc:
                    raise ad.NumericError("epoch %d step %d: %s" % (epoch, step, exc))
                l_lm = lm_loss(out, batch.targets.reshape(-1), batch.target_weight.reshape(-1))
                l_syd = None
                if supervised and (batch.sent_id >= 0).any():
                    l_syd = ranking_loss(out.d_syd, batch.gold_d.reshape(-1),
                                         batch.sent_id.reshape(-1), config.pair_mode)
                loss = joint_loss(l_lm, l_syd, config.alpha)
                if not np.isfinite(loss.data):
                    raise ad.NumericError("non-finite loss at epoch %d step %d" % (epoch, step))
                state = out.state
                del out  # so the output rows die once the loss's blocks are swept
                ad.backward(loss)
            lm_sum += float(l_lm.data)
            lm_n += 1
            if l_syd is not None:
                syd_sum += float(l_syd.data)
                syd_n += 1
            # the step's graph must not stay reachable during the next forward
            del l_lm, l_syd, loss
            try:
                coef = _global_clip(params, config.clip_norm)
            except ad.NumericError as exc:
                raise ad.NumericError("%s at epoch %d step %d" % (exc, epoch, step))
            scale = lr * coef
            for p in params:
                if p.grad is not None:
                    p.data -= scale * p.grad
            model.zero_grad()

        if config.averaging and epoch >= avg_from:
            if avg_store is None:
                avg_store = {name: p.data.copy() for name, p in model.params.items()}
                avg_count = 1
            else:
                avg_count += 1
                for name, p in model.params.items():
                    avg_store[name] += (p.data - avg_store[name]) / avg_count

        val_ppl, rank_acc = validation_pass(model, valid_corpus, config.batch_size,
                                            config.bptt_length, val_source)
        val_loss = float(np.log(val_ppl))
        if val_loss < best_val - 1e-5:
            best_val = val_loss
            best_params = {name: p.data.copy() for name, p in model.params.items()}
            best_epoch = epoch
            patience_left = config.lr_patience
        else:
            patience_left -= 1
            if patience_left < 0:
                lr *= config.lr_decay
                patience_left = config.lr_patience
        log.append({
            "epoch": epoch,
            "lm_loss": lm_sum / max(lm_n, 1),
            "syd_loss": (syd_sum / syd_n) if syd_n else None,
            "valid_ppl": val_ppl,
            "ranking_accuracy": rank_acc,
            "lr": lr,
            "best_epoch": best_epoch,
            "averaged": avg_count,
            "seconds": time.time() - t0,
        })

    if avg_store is not None:
        for name, p in model.params.items():
            p.data = avg_store[name]
        best_params = {name: data.copy() for name, data in avg_store.items()}
        log[-1]["averaged_valid_ppl"] = validation_pass(
            model, valid_corpus, config.batch_size, config.bptt_length, val_source)[0]
    return log, best_params
