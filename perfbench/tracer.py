"""Outside-in tracer: spans and counts around the public functions of each
sydlm layer, installed by patching module attributes and restored after.

Nothing here changes what the program computes.  A span records
(name, start, end, parent span, run id); spans stay in memory until the
benchmark writes them out.  A layer's self time is its spans' duration
minus the part covered by their child spans.

Backward is split by primitive: before ``autodiff.backward`` sweeps, every
node on the active tape gets its ``bwd`` closure replaced by a timed call
keyed by the primitive that made it (``matmul.<locals>.bwd`` -> matmul).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# primitives of sydlm.autodiff that create tape nodes; backward time is
# reported for each of them, and for any other kind (a primitive added
# later) as "other"
PRIMITIVES = (
    "add", "sub", "neg", "mul", "div", "matmul", "concat", "getitem", "reshape",
    "broadcast_to", "repeat_last", "take", "sigmoid", "tanh", "relu", "hardtanh",
    "softmax", "cumsum", "tsum", "tmean", "embedding", "dropout", "causal_conv1d",
    "cross_entropy_logits",
)

# (module, attribute, span name): functions spanned wherever they are bound
FUNCTIONS = (
    ("sydlm.autodiff", "backward", "autodiff.backward"),
    ("sydlm.autodiff", "load_checkpoint", "autodiff.load_checkpoint"),
    ("sydlm.onlstm", "onlstm_step", "onlstm.step"),
    ("sydlm.prpn", "parsing_gates", "prpn.parsing_gates"),
    ("sydlm.prpn", "gated_attention", "prpn.gated_attention"),
    ("sydlm.training", "train", "training.train"),
    ("sydlm.training", "lm_loss", "training.lm_loss"),
    ("sydlm.training", "ranking_loss", "training.ranking_loss"),
    ("sydlm.training", "pair_indices", "training.pair_indices"),
    ("sydlm.training", "supervised_pair_accuracy", "training.supervised_pair_accuracy"),
    ("sydlm.training", "_global_clip", "training.clip"),
    ("sydlm.evaluation", "perplexity", "evaluation.perplexity"),
    ("sydlm.evaluation", "induce_trees", "evaluation.induce_trees"),
    ("sydlm.evaluation", "sentence_distances", "evaluation.sentence_distances"),
    ("sydlm.evaluation", "structure_report", "evaluation.structure_report"),
    ("sydlm.distance", "tree_to_distances", "distance.tree_to_distances"),
    ("sydlm.distance", "distances_to_tree_unbiased", "distance.recover"),
    ("sydlm.distance", "distances_to_tree_biased", "distance.recover"),
    ("sydlm.trees", "parse_bracketed", "trees.parse"),
    ("sydlm.corpus", "preprocess_corpus", "corpus.preprocess"),
    ("sydlm.cli", "main", "cli.main"),
    ("sydlm.cli", "_load_model", "cli.load_checkpoint"),
)

# (module, class, method, span name)
METHODS = (
    ("sydlm.onlstm", "OnLstmLM", "forward", "onlstm.forward"),
    ("sydlm.onlstm", "OnLstmLM", "zero_grad", "training.zero_grad"),
    ("sydlm.prpn", "PrpnLM", "forward", "prpn.forward"),
    ("sydlm.prpn", "PrpnLM", "encoder_distances", "prpn.encoder"),
    ("sydlm.prpn", "PrpnLM", "zero_grad", "training.zero_grad"),
)

LAYERS = ("autodiff", "onlstm", "prpn", "training", "evaluation", "distance",
          "trees", "corpus", "cli")

NAME, START, END, PARENT, RUN = range(5)


def _kind(bwd) -> str:
    return bwd.__qualname__.split(".", 1)[0]


class Tracer:
    """Patches sydlm on install(), restores it on uninstall()."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run = None
        self.counts: Counter = Counter()
        self.bwd_time: Counter = Counter()
        self.bwd_calls: Counter = Counter()
        self.tapes: list = []
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn):
        tracer = self

        def spanned(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return spanned

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace every module-level binding of original in sydlm."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "sydlm" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        import sydlm.autodiff as ad
        import sydlm.cli  # noqa: F401  (binds the names rebound below)
        import sydlm.training as training

        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._special(attr, span, original)
            self._rebind(original, wrapper)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, method, self._span(span, cls.__dict__[method]))
        corpus_cls = sys.modules["sydlm.corpus"].Corpus
        load = corpus_cls.__dict__["load"].__func__
        self._set(corpus_cls, "load", classmethod(self._span("corpus.load", load)))
        self._rebind(training.bptt_batches, self._batches(training.bptt_batches))
        for name in PRIMITIVES:
            self._rebind(getattr(ad, name), self._counted(name, getattr(ad, name)))
        enter, exit_ = ad.Tape.__enter__, ad.Tape.__exit__
        tapes = self.tapes

        def tape_enter(tape):
            tapes.append(tape)
            return enter(tape)

        def tape_exit(tape, *exc):
            tapes.pop()
            return exit_(tape, *exc)

        self._set(ad.Tape, "__enter__", tape_enter)
        self._set(ad.Tape, "__exit__", tape_exit)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers with counts -------------------------------------------------

    def _special(self, attr, span, fn):
        tracer = self
        if attr == "backward":
            def backward(loss):
                tape = tracer.tapes[-1] if tracer.tapes else None
                if tape is not None:
                    tracer.counts["tape_nodes"] += len(tape.nodes)
                    for node in tape.nodes:
                        node.bwd = tracer._timed_bwd(node.bwd)
                idx = tracer.open(span)
                try:
                    return fn(loss)
                finally:
                    tracer.close(idx)
            return backward
        if attr == "parsing_gates":
            def parsing_gates(alphas):
                before = len(tracer.tapes[-1].nodes) if tracer.tapes else 0
                idx = tracer.open(span)
                try:
                    return fn(alphas)
                finally:
                    tracer.close(idx)
                    if tracer.tapes:
                        tracer.counts["parsing_gates_nodes"] += len(tracer.tapes[-1].nodes) - before
            return parsing_gates
        if attr == "pair_indices":
            def pair_indices(*args, **kwargs):
                idx = tracer.open(span)
                try:
                    ii, jj = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                parent = tracer.spans[idx][PARENT]
                if parent >= 0 and tracer.spans[parent][NAME] == "training.ranking_loss":
                    tracer.counts["ranking_pairs"] += int(ii.size)
                return ii, jj
            return pair_indices
        return self._span(span, fn)

    def _timed_bwd(self, bwd):
        kind = _kind(bwd)
        if kind not in PRIMITIVES:
            kind = "other"
        bwd_time, bwd_calls = self.bwd_time, self.bwd_calls
        clock = time.perf_counter

        def timed(dy):
            t0 = clock()
            try:
                return bwd(dy)
            finally:
                bwd_time[kind] += clock() - t0
                bwd_calls[kind] += 1

        return timed

    def _counted(self, name, fn):
        counts, tapes = self.counts, self.tapes
        if name != "matmul":
            def counted(*args, **kwargs):
                counts["prim_taped" if tapes else "prim_untaped"] += 1
                return fn(*args, **kwargs)
            return counted

        def matmul(a, b, transpose_b=False):
            if tapes:
                counts["prim_taped"] += 1
                sa, sb = np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))
                n = sb[0] if transpose_b else sb[-1]
                counts["matmul_flops"] += 2 * int(np.prod(sa)) * int(n)
            else:
                counts["prim_untaped"] += 1
            return fn(a, b, transpose_b)
        return matmul

    def _batches(self, fn):
        tracer = self

        def bptt_batches(*args, **kwargs):
            tracer.counts["bptt_batches_calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open("training.batch_wait")
                try:
                    batch = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield batch

        return bptt_batches

    # -- output ---------------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "run": s[RUN], "self": self_s}) + "\n")


def layer_metrics(tracer: Tracer, n_runs: int, steps: int, tokens: int, epochs: int) -> dict:
    """Per-layer metrics over everything the tracer recorded.

    n_runs: timed operations traced; steps: training steps in them (0 for
    evaluation); tokens: tokens they processed; epochs: training epochs in
    them (0 for evaluation).  Times are per training step (``_per_step``),
    per token (``_per_tok``) or per operation (plain ``_s``).
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    total = defaultdict(float)
    calls = Counter()
    under = defaultdict(float)      # (name, parent name) -> seconds
    under_calls = Counter()
    layer_self = defaultdict(float)
    root_time = 0.0
    for s, self_s in zip(spans, selfs):
        dur = s[END] - s[START]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        total[s[NAME]] += dur
        calls[s[NAME]] += 1
        under[s[NAME], parent] += dur
        under_calls[s[NAME], parent] += 1
        layer = s[NAME].split(".", 1)[0]
        if parent is None:
            root_time += dur
        if layer in LAYERS:
            layer_self[layer] += self_s
        else:
            layer_self["bench"] += self_s

    optimizer = 0.0
    clip_start = None
    for s in spans:
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "training.train":
            continue
        if s[NAME] == "training.clip":
            clip_start = s[START]
        elif s[NAME] == "training.zero_grad" and clip_start is not None:
            optimizer += s[END] - clip_start
            clip_start = None

    per_step = 1.0 / steps if steps else 0.0
    per_run = 1.0 / n_runs
    c = tracer.counts
    backward = total["autodiff.backward"]
    bwd_total = sum(tracer.bwd_time.values())
    train_time = total["training.train"]
    valid_time = (under["evaluation.perplexity", "training.train"]
                  + under["training.supervised_pair_accuracy", "training.train"])
    m = {
        "autodiff.tape_nodes_per_tok": c["tape_nodes"] / tokens,
        "autodiff.backward_s_per_step": backward * per_step,
        "autodiff.bwd_sweep_s_per_step": (backward - bwd_total) * per_step,
        "autodiff.untaped_calls_per_tok": c["prim_untaped"] / tokens,
        "autodiff.matmul_flops_per_tok": c["matmul_flops"] / tokens,
    }
    for kind in PRIMITIVES + ("other",):
        m["autodiff.bwd.%s_s_per_step" % kind] = tracer.bwd_time[kind] * per_step
        m["autodiff.bwd.%s_calls_per_step" % kind] = tracer.bwd_calls[kind] * per_step
    m.update({
        "onlstm.forward_s_per_step": under["onlstm.forward", "training.train"] * per_step,
        "onlstm.step_calls_per_step": _grand_calls(tracer, "onlstm.step",
                                                   "onlstm.forward", "training.train") * per_step,
        "onlstm.eval_forward_s": (total["onlstm.forward"]
                                  - under["onlstm.forward", "training.train"]) * per_run,
        "prpn.forward_s_per_step": under["prpn.forward", "training.train"] * per_step,
        "prpn.encoder_s_per_step": _grand_time(tracer, "prpn.encoder",
                                               "prpn.forward", "training.train") * per_step,
        "prpn.parsing_gates_s_per_step": _grand_time(tracer, "prpn.parsing_gates",
                                                     "prpn.forward", "training.train") * per_step,
        "prpn.parsing_gates_nodes_per_step": c["parsing_gates_nodes"] * per_step,
        "prpn.gated_attention_s_per_step": _grand_time(tracer, "prpn.gated_attention",
                                                       "prpn.forward", "training.train") * per_step,
        "training.batch_wait_s_per_step": under["training.batch_wait", "training.train"] * per_step,
        "training.lm_loss_s_per_step": under["training.lm_loss", "training.train"] * per_step,
        "training.ranking_loss_s_per_step": under["training.ranking_loss", "training.train"] * per_step,
        "training.ranking_pairs_per_step": c["ranking_pairs"] * per_step,
        "training.optimizer_s_per_step": optimizer * per_step,
        "training.valid_share": valid_time / train_time if train_time else 0.0,
        "training.valid_forward_passes_per_epoch":
            (c["bptt_batches_calls"] / epochs - 1.0) if epochs else 0.0,
        "evaluation.perplexity_s": total["evaluation.perplexity"] * per_run,
        "evaluation.perplexity_forward_calls":
            (under_calls["onlstm.forward", "evaluation.perplexity"]
             + under_calls["prpn.forward", "evaluation.perplexity"]) * per_run,
        "evaluation.induce_trees_calls": calls["evaluation.induce_trees"] * per_run,
        "evaluation.sentence_distances_s": total["evaluation.sentence_distances"] * per_run,
        "evaluation.structure_report_s": total["evaluation.structure_report"] * per_run,
        "distance.recover_s": total["distance.recover"] * per_run,
        "distance.recover_calls": calls["distance.recover"] * per_run,
        "distance.tree_to_distances_s": total["distance.tree_to_distances"] * per_run,
        "trees.parse_s": total["trees.parse"] * per_run,
        "corpus.load_s": total["corpus.load"] * per_run,
        "cli.load_checkpoint_s": total["cli.load_checkpoint"] * per_run,
    })
    for layer in LAYERS:
        m["%s.self_share" % layer] = layer_self[layer] / root_time if root_time else 0.0
    return m


def training_steps(tracer: Tracer) -> int:
    """SGD steps: backward calls made directly by training.train."""
    spans = tracer.spans
    return sum(1 for s in spans if s[NAME] == "autodiff.backward" and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == "training.train")


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for suffix, u in (("_calls_per_step", "calls/step"), ("_nodes_per_step", "nodes/step"),
                      ("_pairs_per_step", "pairs/step"), ("_s_per_step", "s/step"),
                      ("_per_epoch", "passes/epoch"), ("tape_nodes_per_tok", "nodes/tok"),
                      ("calls_per_tok", "calls/tok"), ("flops_per_tok", "flop/tok"),
                      ("_share", "fraction"), ("_calls", "calls"), ("_s", "s")):
        if name.endswith(suffix):
            return u
    raise ValueError("no unit for metric %r" % name)


def _grand(tracer, name, parent, grandparent):
    spans = tracer.spans
    for s in spans:
        if s[NAME] == name and s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if p[NAME] == parent and p[PARENT] >= 0 and spans[p[PARENT]][NAME] == grandparent:
                yield s


def _grand_time(tracer, name, parent, grandparent) -> float:
    return sum(s[END] - s[START] for s in _grand(tracer, name, parent, grandparent))


def _grand_calls(tracer, name, parent, grandparent) -> int:
    return sum(1 for _ in _grand(tracer, name, parent, grandparent))
