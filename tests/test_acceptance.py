"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success)."""

import contextlib
import json
import os
import subprocess
import sys
import time

import numpy as np

import sydlm
from sydlm import autodiff as ad
from sydlm.autodiff import Tape, Tensor, backward, grad_check
from sydlm.config import ModelConfig, TrainConfig
from sydlm.distance import distances_to_tree_unbiased, tree_to_distances
from sydlm.evaluation import induce_trees, per_tag_accuracy, unlabeled_f1
from sydlm.onlstm import OnLstmLM, extract_distance, onlstm_step, syd_head
from sydlm.prpn import PrpnLM
from sydlm.training import ranking_loss, train
from sydlm.trees import enumerate_binary_shapes, left_chain, random_binary_tree, render_bracketed, right_chain

from conftest import pcfg_corpus, pcfg_treebank, repeated_corpus
from gradcases import primitive_cases
from test_evaluation import oracle_f1


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %02d FAIL: %s" % (num, desc))
        raise
    print("ACCEPTANCE %02d PASS: %s" % (num, desc))


def test_01_round_trip_exhaustive():
    with criterion(1, "tree->distance->tree round trip, all shapes 2-8 leaves"):
        t0 = time.time()
        total = 0
        for n in range(2, 9):
            for shape in enumerate_binary_shapes(n):
                rebuilt = distances_to_tree_unbiased(tree_to_distances(shape), shape.tokens())
                assert rebuilt.shape() == shape.shape()
                total += 1
        assert total == 1 + 2 + 5 + 14 + 42 + 132 + 429
        assert time.time() - t0 < 5.0


def test_02_gradient_suite():
    with criterion(2, "grad checks < 1e-4: primitives, ON-LSTM step, syd head, PRPN-SYD encoder"):
        seeds = range(10)
        for seed in seeds:
            for name, f, x in primitive_cases(seed):
                err = grad_check(f, x, eps=1e-5)
                assert err < 1e-4, (name, seed, err)

        # full ON-LSTM step at hidden 8, both chunkings
        for seed in seeds:
            rng = np.random.default_rng(1000 + seed)
            for chunk in (1, 2):
                hidden, in_dim, batch = 8, 5, 2
                d_m = hidden // chunk
                width = 4 * hidden + 2 * d_m
                tensors = {
                    "x": Tensor(rng.normal(size=(batch, in_dim))),
                    "h": Tensor(rng.normal(size=(batch, hidden)) * 0.3),
                    "c": Tensor(rng.normal(size=(batch, hidden)) * 0.3),
                    "weight": Tensor(rng.uniform(-0.4, 0.4, size=(in_dim + hidden, width))),
                    "bias": Tensor(rng.uniform(-0.2, 0.2, size=width)),
                    "w_s": Tensor(rng.uniform(-0.5, 0.5, size=(d_m, d_m))),
                    "b_s": Tensor(rng.uniform(-0.1, 0.1, size=d_m)),
                }
                mix_h = Tensor(rng.normal(size=(batch, hidden)))
                mix_d = Tensor(rng.normal(size=(batch,)))

                def step_loss(t, _name, _chunk=chunk, _dm=d_m):
                    args = dict(tensors)
                    args[_name] = t
                    out = onlstm_step(args["x"], args["h"], args["c"], args["weight"],
                                      args["bias"], hidden, _chunk)
                    d_lm = extract_distance(out.master_forget)
                    d_syd = syd_head(out.hf_pre, args["w_s"], args["b_s"])
                    return (ad.tsum(out.h * mix_h) + ad.tsum(out.c * mix_h)
                            + ad.tsum(d_lm * mix_d) + ad.tsum(d_syd * mix_d))

                for name, tensor in tensors.items():
                    err = grad_check(lambda t, _n=name: step_loss(t, _n), tensor, eps=1e-5)
                    assert err < 1e-4, ("onlstm_step", chunk, name, seed, err)

        # split head on its own
        for seed in seeds:
            rng = np.random.default_rng(2000 + seed)
            pre = Tensor(rng.normal(size=(2, 6)))
            mix = Tensor(rng.normal(size=(2,)))
            w_s = Tensor(rng.uniform(-0.5, 0.5, size=(6, 6)))
            b_s = Tensor(rng.uniform(-0.1, 0.1, size=6))
            for name, tensor in (("pre", pre), ("w_s", w_s), ("b_s", b_s)):
                def head_loss(t, _n=name):
                    args = {"pre": pre, "w_s": w_s, "b_s": b_s}
                    args[_n] = t
                    return ad.tsum(syd_head(args["pre"], args["w_s"], args["b_s"]) * mix)
                err = grad_check(head_loss, tensor, eps=1e-5)
                assert err < 1e-4, ("syd_head", name, seed, err)

        # PRPN-SYD encoder end to end; the checked tensor is the model's own
        # parameter object, so the loss closure just reruns the encoder
        for seed in seeds:
            cfg = ModelConfig(vocab_size=9, model="prpn-syd", embedding_size=4, hidden_size=4,
                              supervision_mode="split-head", prpn_ff_hidden=3,
                              prpn_conv_window=2, n_layers=1, supervision_layer=1)
            model = PrpnLM(cfg, seed=3000 + seed)
            rng = np.random.default_rng(4000 + seed)
            emb = Tensor(rng.normal(size=(4, 1, 4)))
            mix = Tensor(rng.normal(size=(4, 1)))

            def encoder_loss(_t):
                d_lm, d_syd, _ = model.encoder_distances(emb)
                return ad.tsum(d_lm * mix) + ad.tsum(d_syd * mix)

            for name in ("enc.W_word", "enc.W_conv", "enc.W_dist", "enc.W_lm1",
                         "enc.W_lm2", "enc.W_syd1", "enc.W_syd2", "enc.b_word"):
                err = grad_check(encoder_loss, model.params[name], eps=1e-5)
                assert err < 1e-4, ("prpn_syd_encoder", name, seed, err)


def test_03_ranking_loss_zero_set():
    with criterion(3, "GD drives symmetric ranking loss < 1e-6 and recovers the gold tree"):
        rng = np.random.default_rng(7)
        for case in range(100):
            n_tokens = int(rng.integers(3, 13))
            n = n_tokens - 1
            gold = rng.permutation(np.arange(1.0, n + 1))
            d_w = Tensor(rng.uniform(0.0, 1.0, size=n), requires_grad=True)
            groups = np.zeros(n, dtype=np.int64)
            final = None
            for step in range(500):
                d_w.grad = None
                with Tape():
                    loss = ranking_loss(d_w, gold, groups, "symmetric")
                    final = float(loss.data)
                    if final < 1e-6:
                        break
                    backward(loss)
                d_w.data -= 1.0 * d_w.grad
            assert final is not None and final < 1e-6, (case, final)
            words = ["w%d" % k for k in range(n_tokens)]
            got = distances_to_tree_unbiased(d_w.data, words)
            want = distances_to_tree_unbiased(gold, words)
            assert got.shape() == want.shape(), case


def test_04_overfit_two_layer():
    with criterion(4, "2-layer ONLSTM-SYD (hidden 64) overfit: PPL < 1.5, gold-pair accuracy > 99%"):
        t0 = time.time()
        corpus = repeated_corpus(12, 500, seed=41)
        cfg = TrainConfig(
            model=ModelConfig(vocab_size=len(corpus.vocab), model="onlstm-syd", n_layers=2,
                              embedding_size=64, hidden_size=64, supervision_layer=2),
            alpha=2.0, epochs=60, batch_size=4, bptt_length=20, lr=3.0, lr_patience=3,
            dropout_words=0.0, dropout_recurrent=0.0, dropout_layers=0.0,
            dropout_output=0.0, dropout_embedding=0.0, seed=17)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        full_log = []
        hit = None
        for _ in range(5):  # up to 300 epochs in blocks of 60
            log, _ = train(model, corpus, cfg)
            full_log.extend(log)
            hit = next((e for e in full_log
                        if e["valid_ppl"] < 1.5 and (e["ranking_accuracy"] or 0) > 99.0), None)
            if hit is not None:
                break
        elapsed = time.time() - t0
        assert hit is not None, "criteria never met within %d epochs" % len(full_log)
        assert len(full_log) <= 300
        assert elapsed < 600, elapsed


def test_05_supervision_direction():
    with criterion(5, "gold-tree supervision beats random trees by >= 20 F1; no-tree stream absent"):
        corpus = pcfg_corpus(700, seed=43)
        assert 4500 <= len(corpus.tokens) <= 5500
        means = {}
        for source in ("gold", "random"):
            scores = []
            for seed in (1, 2, 3):
                cfg = TrainConfig(
                    model=ModelConfig(vocab_size=len(corpus.vocab), model="onlstm-syd",
                                      n_layers=1, embedding_size=48, hidden_size=48,
                                      supervision_layer=1),
                    alpha=2.0, tree_source=source, epochs=15, batch_size=16, bptt_length=25,
                    lr=1.0, lr_patience=2, lr_decay=0.5,
                    dropout_words=0.0, dropout_recurrent=0.0, dropout_layers=0.0,
                    dropout_output=0.0, dropout_embedding=0.0, seed=seed)
                model = OnLstmLM(cfg.model, seed=seed)
                train(model, corpus, cfg)
                pred = induce_trees(model, corpus, stream="syd", algo="unbiased")
                _, macro = unlabeled_f1(pred, corpus.gold_trees_nary)
                scores.append(macro)
            means[source] = float(np.mean(scores))
        assert means["gold"] - means["random"] >= 20.0, means

        no_tree = ModelConfig(vocab_size=len(corpus.vocab), model="onlstm-syd", n_layers=1,
                              embedding_size=16, hidden_size=16, supervision_layer=1,
                              supervision_mode="none")
        out = OnLstmLM(no_tree, seed=1).forward(np.array([[2, 3], [4, 5]]))
        assert out.d_syd is None


def test_06_metric_oracle():
    with criterion(6, "unlabeled F1 equals brute force on 200 pairs; gold-vs-gold all 100"):
        rng = np.random.default_rng(9)
        pred, gold = [], []
        for i in range(200):
            n = int(rng.integers(2, 13))
            pred.append(random_binary_tree(n, 10_000 + i))
            gold.append(random_binary_tree(n, 20_000 + i))
        assert unlabeled_f1(pred, gold) == oracle_f1(pred, gold)

        golds = pcfg_treebank(60, seed=45)
        micro, macro = unlabeled_f1(golds, golds)
        assert micro == 100.0 and macro == 100.0
        rates = per_tag_accuracy(golds, golds, tags=("S", "NP", "VP", "PP"))
        for tag, rate in rates.items():
            assert rate == 100.0, (tag, rate)


def test_07_branching_direction():
    with criterion(7, "right-branching F1 > left-branching on right-skewed gold; chain ratio (N-1)/1"):
        corpus = pcfg_corpus(150, seed=47)
        words = [corpus.sentence_words(i) for i in range(corpus.n_sentences)]
        rb = [right_chain(w) for w in words]
        lb = [left_chain(w) for w in words]
        f1_rb = unlabeled_f1(rb, corpus.gold_trees_nary)
        f1_lb = unlabeled_f1(lb, corpus.gold_trees_nary)
        assert f1_rb[0] > f1_lb[0] and f1_rb[1] > f1_lb[1], (f1_rb, f1_lb)

        from sydlm.evaluation import depth_and_ratio

        for n in (2, 5, 11):
            _, ratio = depth_and_ratio([right_chain(["w%d" % i for i in range(n)])])
            assert ratio == float(n - 1)


def test_08_degeneracy_equalities(tiny_corpus):
    with criterion(8, "mode=none == plain ON-LSTM; W_s=I makes d^w == d; alpha=0 trajectory matches"):
        base = dict(vocab_size=len(tiny_corpus.vocab), model="onlstm-syd", n_layers=2,
                    embedding_size=10, hidden_size=10, supervision_layer=2)
        inputs = np.array([[2, 3], [4, 5], [6, 7], [1, 2]])

        split = OnLstmLM(ModelConfig(**base), seed=31)
        plain = OnLstmLM(ModelConfig(**dict(base, supervision_mode="none")), seed=31)
        out_split = split.forward(inputs)
        out_plain = plain.forward(inputs)
        assert np.array_equal(out_split.logits.data, out_plain.logits.data)
        for a, b in zip(out_split.d_lm, out_plain.d_lm):
            assert np.array_equal(a.data, b.data)
        assert out_plain.d_syd is None

        ident = OnLstmLM(ModelConfig(**base), seed=33)
        ident.set_identity_split_head()
        out = ident.forward(inputs)
        assert np.array_equal(out.d_syd.data, out.d_lm[1].data)

        def run(mode, alpha, tree_source):
            cfg = TrainConfig(
                model=ModelConfig(**dict(base, supervision_mode=mode)),
                alpha=alpha, tree_source=tree_source, epochs=3, batch_size=4,
                bptt_length=10, lr=1.0, seed=35,
                dropout_words=0.1, dropout_recurrent=0.0, dropout_layers=0.1,
                dropout_output=0.1, dropout_embedding=0.0)
            model = OnLstmLM(cfg.model, seed=cfg.seed)
            log, _ = train(model, tiny_corpus, cfg)
            return model, log

        sup_model, sup_log = run("split-head", 0.0, "gold")
        none_model, none_log = run("none", 0.0, "none")
        for ea, eb in zip(sup_log, none_log):
            assert ea["lm_loss"] == eb["lm_loss"]
            assert ea["valid_ppl"] == eb["valid_ppl"]
        for name, param in none_model.params.items():
            assert np.array_equal(sup_model.params[name].data, param.data), name


def test_09_cumax_contract_fuzz():
    with criterion(9, "cumax fuzz 10^4: positive, nondecreasing, final entry == 1 +- 1e-12"):
        rng = np.random.default_rng(13)
        x = rng.uniform(-20.0, 20.0, size=(10_000, 8))
        out = ad.cumax(Tensor(x)).data
        assert (out > 0.0).all()
        assert (out <= 1.0 + 1e-12).all()
        assert (np.diff(out, axis=-1) >= 0.0).all()
        assert np.abs(out[:, -1] - 1.0).max() < 1e-12


def test_10_pipeline_determinism(tmp_path):
    with criterion(10, "preprocess -> train 5 epochs -> eval twice: byte-identical metrics"):
        trees = pcfg_treebank(15, seed=49)
        # The children run with cwd in tmp_path, where a relative PYTHONPATH
        # (say `src`) does not resolve: put the directory that holds the
        # imported package first, as an absolute path.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(sydlm.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        results = []
        for run in ("one", "two"):
            workdir = tmp_path / run
            workdir.mkdir()
            (workdir / "toy.mrg").write_text(
                "\n".join(render_bracketed(t) for t in trees) + "\n")
            script = [
                ["preprocess", "toy.mrg", "--out", "corpus.json"],
                ["train", "--corpus", "corpus.json", "--out", "run",
                 "--set", "epochs=5", "--set", "batch_size=2", "--set", "bptt_length=8",
                 "--set", "n_layers=1", "--set", "hidden_size=10", "--set", "embedding_size=10",
                 "--set", "supervision_layer=1", "--set", "lr=1.0", "--set", "seed=51"],
                ["eval", "--checkpoint", "run/checkpoint.bin", "--corpus", "corpus.json",
                 "--out", "metrics.json", "--wsj10-maxlen", "10"],
            ]
            for args in script:
                proc = subprocess.run([sys.executable, "-m", "sydlm.cli"] + args,
                                      cwd=workdir, env=env, capture_output=True, text=True)
                assert proc.returncode == 0, (args, proc.stderr)
            results.append({
                "metrics": (workdir / "metrics.json").read_bytes(),
                "checkpoint": (workdir / "run" / "checkpoint.bin").read_bytes(),
                "corpus": (workdir / "corpus.json").read_bytes(),
            })
        assert results[0]["metrics"] == results[1]["metrics"]
        assert results[0]["checkpoint"] == results[1]["checkpoint"]
        assert results[0]["corpus"] == results[1]["corpus"]
        payload = json.loads(results[0]["metrics"])
        assert payload["manifest"] == json.loads(results[1]["metrics"])["manifest"]
