import json

import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm import build_model
from sydlm.cli import main
from sydlm.config import ModelConfig, TrainConfig
from sydlm.corpus import Corpus
from sydlm.onlstm import OnLstmLM
from sydlm.trees import parse_bracketed, render_bracketed

from conftest import binarize_right_recursive, pcfg_treebank, recursion_limit, tree_to_distances_recursive

TRAIN_OVERRIDES = [
    "--set", "epochs=2", "--set", "batch_size=2", "--set", "bptt_length=8",
    "--set", "n_layers=1", "--set", "hidden_size=10", "--set", "embedding_size=10",
    "--set", "supervision_layer=1", "--set", "lr=1.0",
    "--set", "dropout_words=0", "--set", "dropout_recurrent=0", "--set", "dropout_layers=0",
    "--set", "dropout_output=0", "--set", "dropout_embedding=0",
]


@pytest.fixture
def treebank_file(tmp_path):
    trees = pcfg_treebank(12, seed=31)
    path = tmp_path / "toy.mrg"
    path.write_text("\n".join(render_bracketed(t) for t in trees) + "\n")
    return path


class TestPreprocessCommand:
    def test_writes_corpus_and_reports_counts(self, tmp_path, treebank_file, capsys):
        out = tmp_path / "corpus.json"
        assert main(["preprocess", str(treebank_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "12 sentences" in stdout
        corpus = Corpus.load(str(out))
        assert corpus.n_sentences == 12
        assert corpus.manifest["toolkit_version"]
        lines = (tmp_path / "corpus.json.dist").read_text().splitlines()
        assert len(lines) == 12
        n, *values = lines[0].split()
        assert len(values) == int(n) - 1
        assert np.array_equal(np.array(values, dtype=float), corpus.gold_distances(0))

    def test_rerun_byte_identical(self, tmp_path, treebank_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["preprocess", str(treebank_file), "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        raw_a = a.read_bytes()
        raw_b = b.read_bytes().replace(str(b).encode(), str(a).encode())
        assert raw_a == raw_b

    def test_vocab_truncation_observable(self, tmp_path):
        tree = "(S (NN the) (NN the) (NN cat) (NN cat) (NN cat) (NN sat))"
        src = tmp_path / "freq.mrg"
        src.write_text(tree)
        rules = tmp_path / "rules.txt"
        rules.write_text("vocab_max_size = 4\n")
        out = tmp_path / "c.json"
        assert main(["preprocess", str(src), "--out", str(out), "--rules", str(rules)]) == 0
        corpus = Corpus.load(str(out))
        assert corpus.vocab.words == ["<unk>", "<eos>", "cat", "the"]
        assert corpus.tokens[5] == 0  # 'sat' ranked below max_size

    def test_rules_file_is_read_with_config_coercion(self, tmp_path, capsys):
        src = tmp_path / "case.mrg"
        src.write_text("(S (DT The) (NN Cat) (, ,))")
        rules = tmp_path / "rules.txt"
        out = tmp_path / "c.json"
        argv = ["preprocess", str(src), "--out", str(out), "--rules", str(rules)]
        rules.write_text("lowercase = off  # keep case\ndrop_tags = ,  NN\n")
        assert main(argv) == 0
        assert Corpus.load(str(out)).vocab.words == ["<unk>", "<eos>", "The"]
        out.unlink()
        rules.write_text("lowercase = flase\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(rules) in err and "flase" in err
        assert not out.exists()

    @pytest.mark.parametrize("rule", ["number_pattern = [0-9", "vocab_max_size = -5", "vocab_max_size = 1"])
    def test_invalid_rule_is_data_error_naming_it(self, tmp_path, treebank_file, capsys, rule):
        rules, out = tmp_path / "rules.txt", tmp_path / "c.json"
        rules.write_text(rule + "\n")
        assert main(["preprocess", str(treebank_file), "--out", str(out), "--rules", str(rules)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s: %s " % (rules, rule.split()[0])) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,expected", [([], "sepsent"), (["--mode", "concat"], "concat")])
    def test_mode_flag_wins_over_the_rules_file(self, tmp_path, treebank_file, capsys, flag, expected):
        rules, out = tmp_path / "rules.txt", tmp_path / "c.json"
        rules.write_text("mode = sepsent\n")
        assert main(["preprocess", str(treebank_file), "--out", str(out), "--rules", str(rules)] + flag) == 0
        assert capsys.readouterr().out.endswith("(%s mode)\n" % expected)
        corpus = Corpus.load(str(out))
        assert corpus.mode == expected and corpus.manifest["config"]["rules"]["mode"] == expected

    def test_vocab_reuse_across_splits(self, tmp_path, treebank_file):
        train_c = tmp_path / "train.json"
        other_c = tmp_path / "other.json"
        assert main(["preprocess", str(treebank_file), "--out", str(train_c)]) == 0
        assert main(["preprocess", str(treebank_file), "--out", str(other_c),
                     "--vocab-from", str(train_c)]) == 0
        assert Corpus.load(str(other_c)).vocab.words == Corpus.load(str(train_c)).vocab.words


class TestTrainEvalCommands:
    def test_full_round_trip(self, tmp_path, treebank_file):
        corpus = tmp_path / "corpus.json"
        assert main(["preprocess", str(treebank_file), "--out", str(corpus)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES) == 0
        assert (run / "checkpoint.bin").exists()
        log_lines = (run / "log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        entry = json.loads(log_lines[0])
        assert {"epoch", "lm_loss", "syd_loss", "valid_ppl", "ranking_accuracy"} <= set(entry)

        metrics = tmp_path / "metrics.json"
        csv_path = tmp_path / "heights.csv"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--corpus", str(corpus), "--out", str(metrics),
                     "--wsj10-maxlen", "10", "--plot-csv", str(csv_path)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["perplexity"] > 1.0
        assert 0 <= payload["structure"]["f1_macro"] <= 100
        assert payload["structure_short"]["max_len"] == 10
        header, *rows = csv_path.read_text().splitlines()
        assert header == "height,accuracy,count"
        cells = payload["structure"]["height_accuracy"]
        assert [row.split(",")[0] for row in rows] == sorted(cells, key=int)
        for row in rows:
            height, accuracy, count = row.split(",")
            assert float(accuracy) == cells[height]["accuracy"]
            assert int(count) == cells[height]["total"]

    def test_render_prints_stacked_trees(self, tmp_path, treebank_file, capsys):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        run = tmp_path / "run"
        main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES)
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
                     "--render", "0,1"]) == 0
        out = capsys.readouterr().out
        assert out.count("sentence:") == 2
        for tag in ("syd:", "lm:", "gold:"):
            assert tag in out

    def test_config_file_with_flag_overrides(self, tmp_path, treebank_file):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("""
# toy config
epochs = 5
batch_size = 2
bptt_length = 8
n_layers = 1
hidden_size = 10
embedding_size = 10
supervision_layer = 1
dropout_words = 0
dropout_recurrent = 0
dropout_layers = 0
dropout_output = 0
dropout_embedding = 0
""")
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--config", str(cfg),
                     "--out", str(run), "--set", "epochs=1"]) == 0
        lines = (run / "log.jsonl").read_text().splitlines()
        assert len(lines) == 1  # --set wins over the file

    def test_set_seed_is_recorded(self, tmp_path, treebank_file):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)]
                    + TRAIN_OVERRIDES + ["--set", "seed=777"]) == 0
        header, _ = ad.load_checkpoint(str(run / "checkpoint.bin"))
        assert header["config"]["seed"] == 777
        assert header["manifest"]["seed"] == 777

    @pytest.mark.parametrize("extra,saved", [
        ([], "holds epoch 2, valid ppl 4.000"),
        (["--set", "averaging=true", "--set", "average_from_epoch=2"],
         "holds the averaged iterate of the last 2 epochs, valid ppl 5.000"),
    ], ids=["best-epoch", "averaged"])
    def test_summary_describes_the_saved_parameters(self, tmp_path, treebank_file, monkeypatch,
                                                     capsys, extra, saved):
        import sydlm.training as training

        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        ppls = iter([9.0, 4.0, 6.0, 5.0])  # the last epoch is not the best; 5.0 is the average's
        monkeypatch.setattr(training, "validation_pass", lambda *args: (next(ppls), None))
        capsys.readouterr()
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run")]
                    + TRAIN_OVERRIDES + ["--set", "epochs=3"] + extra) == 0
        out = capsys.readouterr().out
        assert saved in out and "6.000" not in out


class TestUniformModelEval:
    def test_zeroed_checkpoint_gives_uniform_ppl(self, tmp_path):
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        corpus = Corpus.load(str(corpus_path))
        v = len(corpus.vocab)
        cfg = TrainConfig(model=ModelConfig(vocab_size=v, model="onlstm-syd", n_layers=1,
                                            embedding_size=4, hidden_size=4,
                                            supervision_layer=1))
        model = OnLstmLM(cfg.model, seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        ckpt = tmp_path / "zero.bin"
        ad.save_checkpoint(str(ckpt), model.params, header={"config": cfg.to_dict()})
        metrics = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert np.isclose(payload["perplexity"], v)

    def test_biased_vs_unbiased_differ_on_flat_distances(self, tmp_path):
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN cc) (NN dd) (NN ee))\n" * 3)
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        corpus = Corpus.load(str(corpus_path))
        cfg = TrainConfig(model=ModelConfig(vocab_size=len(corpus.vocab), model="onlstm-syd",
                                            n_layers=1, embedding_size=4, hidden_size=4,
                                            supervision_layer=1))
        model = OnLstmLM(cfg.model, seed=0)
        # zero split head -> d_syd constant within each sentence (flat)
        model.w_s.data[:] = 0.0
        model.b_s.data[:] = 0.0
        ckpt = tmp_path / "flat.bin"
        ad.save_checkpoint(str(ckpt), model.params, header={"config": cfg.to_dict()})
        reports = {}
        for algo in ("biased", "unbiased"):
            out = tmp_path / ("m_%s.json" % algo)
            assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                         "--out", str(out), "--trees", "syd", "--algo", algo]) == 0
            reports[algo] = json.loads(out.read_text())["structure"]
        assert reports["biased"]["left_right_ratio"] > 1.0
        assert reports["unbiased"]["left_right_ratio"] < 1.0


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main(["train"]) == 1          # missing required args
        assert main(["unknown-cmd"]) == 1
        capsys.readouterr()

    def test_data_errors(self, tmp_path, capsys):
        assert main(["preprocess", str(tmp_path / "missing.mrg"),
                     "--out", str(tmp_path / "c.json")]) == 2
        bad = tmp_path / "bad.mrg"
        bad.write_text("((S (NN x))")
        assert main(["preprocess", str(bad), "--out", str(tmp_path / "c.json")]) == 2
        capsys.readouterr()

    def test_unknown_config_key_is_data_error(self, tmp_path, treebank_file, capsys):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r"),
                     "--set", "bogus_key=1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("setting,expects", [
        ("n_layers=abc", "an integer, got 'abc'"), ("lr=fast", "a number, got 'fast'"),
    ], ids=["int", "float"])
    @pytest.mark.parametrize("where", ["--set", "--config"])
    def test_unparsable_number_names_its_key(self, tmp_path, treebank_file, capsys, setting, expects, where):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        config = tmp_path / "train.cfg"
        config.write_text(setting.replace("=", " = ") + "\n")
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES
                    + [where, setting if where == "--set" else str(config)]) == 2
        place = "" if where == "--set" else "%s: line 1: " % config
        assert capsys.readouterr().err == "data error: %s%s expects %s\n" % (place, setting.split("=")[0], expects)
        assert not (run / "checkpoint.bin").exists()

    @pytest.mark.parametrize("line,message", [
        ("bogus = 1", "unknown config key 'bogus'"), ("epochs = x", "epochs expects an integer, got 'x'"),
        ("epochs", "expected key = value, got 'epochs'"),
    ], ids=["unknown-key", "bad-value", "no-equals"])
    def test_config_file_errors_name_the_file_and_line(self, tmp_path, treebank_file, capsys, line, message):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        config = tmp_path / "c.txt"
        config.write_text("# a comment line\n\nseed = 3\n%s\n" % line)
        capsys.readouterr()
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"), "--config", str(config)]) == 2
        assert capsys.readouterr().err == "data error: %s: line 4: %s\n" % (config, message)

    @pytest.mark.parametrize("line,message", [
        ("lowercase = maybe", "lowercase expects a boolean, got 'maybe'"), ("bogus = 1", "unknown rule 'bogus'"),
    ], ids=["bad-value", "unknown-key"])
    def test_rules_file_errors_name_the_file_and_line(self, tmp_path, treebank_file, capsys, line, message):
        rules = tmp_path / "r.txt"
        rules.write_text("mode = concat\n%s\n" % line)
        assert main(["preprocess", str(treebank_file), "--out", str(tmp_path / "c.json"), "--rules", str(rules)]) == 2
        assert capsys.readouterr().err == "data error: %s: line 2: %s\n" % (rules, message)

    NOT_UTF8 = b"\xff\xfe mode = concat\n"

    def test_config_file_not_utf8_names_the_file(self, tmp_path, treebank_file, capsys):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        config = tmp_path / "c.txt"
        config.write_bytes(self.NOT_UTF8)
        capsys.readouterr()
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run"), "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("data error: %s: 'utf-8' codec can't decode byte 0xff" % config)

    def test_rules_file_not_utf8_names_the_file(self, tmp_path, treebank_file, capsys):
        rules = tmp_path / "r.txt"
        rules.write_bytes(self.NOT_UTF8)
        assert main(["preprocess", str(treebank_file), "--out", str(tmp_path / "c.json"), "--rules", str(rules)]) == 2
        assert capsys.readouterr().err.startswith("data error: %s: 'utf-8' codec can't decode byte 0xff" % rules)

    def test_treebank_not_utf8_names_the_file(self, tmp_path, treebank_file, capsys):
        bad = tmp_path / "bad.mrg"
        bad.write_bytes(b"(S (NN \xff))\n")
        out = tmp_path / "c.json"
        assert main(["preprocess", str(treebank_file), str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: %s: 'utf-8' codec can't decode byte 0xff" % bad)
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_numeric_failure_exit_code(self, tmp_path, treebank_file, capsys):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "r")]
                    + TRAIN_OVERRIDES + ["--set", "lr=1e200", "--set", "clip_norm=0"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("sets", [
        ["chunk_factor=0"], ["hidden_size=0"], ["embedding_size=0"], ["n_layers=0"],
        ["model=prpn-syd", "prpn_ff_hidden=0"], ["model=prpn-syd", "prpn_conv_window=0"],
    ], ids=lambda sets: sets[-1])
    def test_size_below_one_is_data_error(self, tmp_path, treebank_file, capsys, sets):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES
                    + [a for kv in sets for a in ("--set", kv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s must be >= 1" % sets[-1].split("=")[0])
        assert err.count("\n") == 1
        assert not (run / "checkpoint.bin").exists()

    @pytest.mark.parametrize("sets", [
        ["clip_norm=nan"], ["model=prpn-syd", "prpn_temperature=nan"], ["seed=-1"],
        ["model=onlstm-syd", "prpn_temperature=NaN"],  # read by no ON-LSTM, yet held in its header
    ], ids=lambda sets: sets[-1])
    def test_bad_setting_is_data_error_naming_the_field(self, tmp_path, treebank_file, capsys, sets):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES
                    + [a for kv in sets for a in ("--set", kv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s must" % sets[-1].split("=")[0])
        assert err.count("\n") == 1
        assert not (run / "checkpoint.bin").exists()

    @pytest.mark.parametrize("sets", [
        ["lr=inf"], ["alpha=inf"], ["clip_norm=inf"], ["model=prpn-syd", "prpn_temperature=inf"],
        ["model=onlstm-syd", "prpn_temperature=-inf"],
    ], ids=lambda sets: sets[-1])
    def test_infinite_setting_is_data_error_naming_the_field(self, tmp_path, treebank_file,
                                                             capsys, sets):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        capsys.readouterr()
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES
                    + [a for kv in sets for a in ("--set", kv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s must" % sets[-1].split("=")[0]) and "finite" in err
        assert err.count("\n") == 1
        assert not (run / "checkpoint.bin").exists()

    def test_nan_weight_eval_is_numeric_failure(self, tmp_path, treebank_file, capsys):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        cfg = TrainConfig(model=ModelConfig(vocab_size=len(Corpus.load(str(corpus)).vocab),
                                            n_layers=2, embedding_size=16, hidden_size=24,
                                            supervision_layer=2))
        model = OnLstmLM(cfg.model, seed=0)
        model.params["layer1.W"].data[0, 0] = np.nan
        ckpt = tmp_path / "nan.bin"
        ad.save_checkpoint(str(ckpt), model.params, header={"config": cfg.to_dict()})
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(metrics)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: non-finite hidden state at step 0, layer 2\n")
        assert not metrics.exists()

    @pytest.mark.parametrize("fields,name,err", [
        ({}, "b_out", "non-finite perplexity (nan)"),
        ({}, "W_s", "non-finite syd distances in sentence 0"),
        ({"model": "prpn-syd"}, "enc.W_syd2", "non-finite syd distances in sentence 0"),
    ], ids=["decoder", "onlstm-split-head", "prpn-syd-head"])
    def test_nan_weight_past_the_hidden_state_is_numeric_failure(self, tmp_path, treebank_file,
                                                                 capsys, fields, name, err):
        # the forward's hidden-state check cannot see these weights: the
        # perplexity and the distance streams must be checked themselves
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        model, cfg = _small_model(corpus, **fields)
        model.params[name].data[0] = np.nan
        ckpt = tmp_path / "nan.bin"
        ad.save_checkpoint(str(ckpt), model.params, header={"config": cfg.to_dict()})
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(metrics)]) == 3
        assert capsys.readouterr().err == "numeric failure: %s\n" % err
        assert not metrics.exists()

    def test_vocab_mismatch_is_data_error(self, tmp_path, treebank_file, capsys):
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        run = tmp_path / "run"
        main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES)
        other_src = tmp_path / "other.mrg"
        other_src.write_text("(S (NN zz) (NN qq))")
        other = tmp_path / "other.json"
        main(["preprocess", str(other_src), "--out", str(other)])
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--corpus", str(other)]) == 2
        capsys.readouterr()


def _small_model(corpus_path, **model_kw):
    """A seeded one-layer model sized to the corpus vocabulary, and its config."""
    cfg = TrainConfig(model=ModelConfig(vocab_size=len(Corpus.load(str(corpus_path)).vocab),
                                        n_layers=1, embedding_size=8, hidden_size=8,
                                        supervision_layer=1, **model_kw))
    return build_model(cfg.model, seed=0), cfg


def _zero_checkpoint(tmp_path, corpus_path, tree_source="gold", **model_kw):
    """Checkpoint of an all-zero ON-LSTM sized to the corpus vocabulary."""
    corpus = Corpus.load(str(corpus_path))
    fields = dict(vocab_size=len(corpus.vocab), model="onlstm-syd", n_layers=1,
                  embedding_size=4, hidden_size=4, supervision_layer=1)
    fields.update(model_kw)
    cfg = TrainConfig(model=ModelConfig(**fields), tree_source=tree_source)
    model = OnLstmLM(cfg.model, seed=0)
    for p in model.params.values():
        p.data[:] = 0.0
    ckpt = tmp_path / "zero.bin"
    ad.save_checkpoint(str(ckpt), model.params, header={"config": cfg.to_dict()})
    return ckpt


def _header_only(ckpt, blob: bytes):
    """A checkpoint at `ckpt` whose header bytes are `blob`, with no parameter."""
    ckpt.write_bytes(ad.CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob + bytes(4))
    return ckpt


@pytest.fixture
def trained(tmp_path, treebank_file):
    corpus = tmp_path / "corpus.json"
    assert main(["preprocess", str(treebank_file), "--out", str(corpus)]) == 0
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES) == 0
    return corpus, run / "checkpoint.bin"


class TestEvalSinglePass:
    def test_one_forward_per_perplexity_batch_and_sentence_group(self, tmp_path, trained,
                                                                 monkeypatch, capsys):
        from sydlm.training import bptt_batches

        corpus_path, ckpt = trained
        corpus = Corpus.load(str(corpus_path))
        assert corpus.n_sentences <= 64  # one sentence group at the default batch size
        calls = []
        forward = OnLstmLM.forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(OnLstmLM, "forward", counted)
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(tmp_path / "m.json"), "--wsj10-maxlen", "6",
                     "--render", "0,1"]) == 0
        n_ppl = len(list(bptt_batches(corpus, 1, 70, tree_source="none")))
        assert len(calls) == n_ppl + 1
        capsys.readouterr()

    def test_short_report_is_the_short_subset_of_the_full_prediction(self, tmp_path, trained):
        from sydlm.cli import _load_model
        from sydlm.evaluation import induce_trees, report_to_json, structure_report

        corpus_path, ckpt = trained
        metrics = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(metrics), "--wsj10-maxlen", "6"]) == 0
        corpus = Corpus.load(str(corpus_path))
        model, _, _ = _load_model(str(ckpt))
        pred = induce_trees(model, corpus, stream="syd", algo="unbiased")
        short = [i for i, (s, e) in enumerate(corpus.sentence_spans) if e - s <= 6]
        assert 0 < len(short) < corpus.n_sentences
        want = structure_report([pred[i] for i in short],
                                [corpus.gold_trees_nary[i] for i in short])
        got = json.loads(metrics.read_text())["structure_short"]
        assert got == dict(json.loads(report_to_json(want)), max_len=6)


class TestEvalOptions:
    @pytest.mark.parametrize("option", ["--layer", "--wsj10-maxlen", "--bptt", "--batch-size"])
    def test_integer_option_below_one_is_usage_error(self, tmp_path, option, capsys):
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        ckpt = _zero_checkpoint(tmp_path, corpus_path)
        metrics = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(metrics), option, "0"]) == 1
        assert not metrics.exists()
        assert "must be >= 1" in capsys.readouterr().err

    def test_layer_beyond_distance_layers_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        ckpt = _zero_checkpoint(tmp_path, corpus_path, n_layers=3, supervision_layer=3)
        capsys.readouterr()
        metrics = tmp_path / "m.json"
        args = ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                "--out", str(metrics), "--trees", "lm"]
        assert main(args + ["--layer", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert not metrics.exists()
        assert main(args + ["--layer", "3"]) == 0

    def test_trees_syd_without_a_supervised_stream_fails_before_any_work(self, tmp_path, capsys):
        # a corpus with no gold tree and no --render used to pass silently
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        payload = json.loads(corpus_path.read_text())
        payload["gold_trees_nary"] = [None]
        corpus_path.write_text(json.dumps(payload))
        ckpt = _zero_checkpoint(tmp_path, corpus_path, tree_source="none", supervision_mode="none")
        capsys.readouterr()
        metrics = tmp_path / "m.json"
        args = ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path), "--out", str(metrics)]
        assert main(args) == 2  # --trees defaults to syd
        out, err = capsys.readouterr()
        assert err.startswith("data error: --trees syd") and err.count("\n") == 1
        assert out == "" and not metrics.exists()
        assert main(args + ["--trees", "lm"]) == 0

    @pytest.mark.parametrize("option, value", [("--wsj10-maxlen", "10"), ("--plot-csv", "heights.csv")])
    def test_gold_tree_option_without_gold_trees_fails_before_any_work(self, tmp_path, capsys,
                                                                        option, value):
        # both options used to pass silently: no CSV written, no short report
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        payload = json.loads(corpus_path.read_text())
        payload["gold_trees_nary"] = [None]
        corpus_path.write_text(json.dumps(payload))
        ckpt = _zero_checkpoint(tmp_path, corpus_path)
        capsys.readouterr()
        metrics = tmp_path / "m.json"
        args = ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path), "--out", str(metrics)]
        if option == "--plot-csv":
            value = str(tmp_path / value)
        assert main(args + [option, value]) == 2
        out, err = capsys.readouterr()
        assert err == "data error: %s needs gold trees, and %s has none\n" % (option, corpus_path)
        assert out == "" and not metrics.exists() and not (tmp_path / "heights.csv").exists()
        assert main(args) == 0

    def test_prpn_trained_with_supervision_layer_zero_evaluates(self, tmp_path, treebank_file):
        corpus = tmp_path / "corpus.json"
        assert main(["preprocess", str(treebank_file), "--out", str(corpus)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES
                    + ["--set", "epochs=1", "--set", "model=prpn-syd", "--set", "prpn_ff_hidden=4",
                       "--set", "supervision_layer=0"]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.json")]) == 0

    @pytest.mark.parametrize("render", ["0,9999", "a"], ids=["index-out-of-range", "not-an-integer"])
    def test_bad_render_fails_before_any_output(self, tmp_path, capsys, render):
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        ckpt = _zero_checkpoint(tmp_path, corpus_path)
        capsys.readouterr()
        metrics, csv_path = tmp_path / "m.json", tmp_path / "heights.csv"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(metrics), "--plot-csv", str(csv_path), "--render", render]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("data error:") and err.count("\n") == 1 and "--render" in err
        assert out == ""
        assert not metrics.exists() and not csv_path.exists()


class TestOldCheckpoints:
    @pytest.mark.parametrize("fields,dropped", [
        ({"model": "prpn-syd"}, ["enc.b_lm2", "enc.b_syd2"]),
        ({"supervision_mode": "vanilla-multitask"}, ["b_v2"]),
    ], ids=["prpn-syd", "vanilla-multitask"])
    def test_deleted_head_biases_are_ignored(self, tmp_path, treebank_file, fields, dropped):
        # checkpoints written before the distance heads lost their output
        # biases still hold them; eval reads only the model's own names
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        model, cfg = _small_model(corpus, **fields)
        params = {name: p.data for name, p in model.params.items()}
        results = []
        for extra in ({}, {name: np.array([0.5]) for name in dropped}):
            ckpt, metrics = tmp_path / "ckpt.bin", tmp_path / "metrics.json"
            ad.save_checkpoint(str(ckpt), dict(params, **extra), header={"config": cfg.to_dict()})
            assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                         "--out", str(metrics)]) == 0
            results.append({k: v for k, v in json.loads(metrics.read_text()).items() if k != "manifest"})
        assert results[0] == results[1]


    def test_per_gate_onlstm_layout_is_rejected(self, tmp_path, treebank_file, capsys):
        # ON-LSTM checkpoints from before the fused gate matrix hold six
        # weights and six biases per layer, and none of the fused names
        corpus = tmp_path / "corpus.json"
        main(["preprocess", str(treebank_file), "--out", str(corpus)])
        model, cfg = _small_model(corpus)
        params = {name: p.data for name, p in model.params.items() if not name.startswith("layer0.")}
        widths = [8, 8, 8, 8, 8, 8]
        for gate, block, bias in zip(("f", "i", "o", "c", "mf", "mi"),
                                     np.split(model.params["layer0.W"].data, np.cumsum(widths)[:-1], axis=1),
                                     np.split(model.params["layer0.b"].data, np.cumsum(widths)[:-1])):
            params["layer0.W_" + gate], params["layer0.b_" + gate] = block, bias
        ckpt = tmp_path / "ckpt.bin"
        ad.save_checkpoint(str(ckpt), params, header={"config": cfg.to_dict()})
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(tmp_path / "metrics.json")]) == 2
        assert capsys.readouterr().err == "data error: %s: checkpoint is missing parameter 'layer0.W'\n" % ckpt
        assert not (tmp_path / "metrics.json").exists()


class TestMalformedInputs:
    @pytest.fixture
    def zero_eval(self, tmp_path):
        src = tmp_path / "tiny.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        return corpus_path, _zero_checkpoint(tmp_path, corpus_path)

    def _data_error(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert needle in err

    def test_truncated_checkpoint(self, tmp_path, zero_eval, capsys):
        corpus_path, ckpt = zero_eval
        cut = tmp_path / "cut.bin"
        cut.write_bytes(ckpt.read_bytes()[:-12])
        self._data_error(["eval", "--checkpoint", str(cut), "--corpus", str(corpus_path)],
                         capsys, "truncated")

    def test_trailing_bytes_after_the_last_parameter(self, tmp_path, zero_eval, capsys):
        corpus_path, ckpt = zero_eval
        padded = tmp_path / "padded.bin"
        padded.write_bytes(ckpt.read_bytes() + b"\0")
        self._data_error(["eval", "--checkpoint", str(padded), "--corpus", str(corpus_path)],
                         capsys, "%s: trailing bytes" % padded)

    def test_directory_as_checkpoint(self, tmp_path, zero_eval, capsys):
        corpus_path, _ = zero_eval
        self._data_error(["eval", "--checkpoint", str(tmp_path), "--corpus", str(corpus_path)],
                         capsys, str(tmp_path))

    def test_checkpoint_with_a_parameter_the_model_lacks(self, tmp_path, zero_eval, capsys):
        corpus_path, ckpt = zero_eval
        header, params = ad.load_checkpoint(str(ckpt))
        extra = tmp_path / "extra.bin"
        ad.save_checkpoint(str(extra), dict(params, bogus=np.zeros(2)), header=header)
        self._data_error(["eval", "--checkpoint", str(extra), "--corpus", str(corpus_path)],
                         capsys, "%s: checkpoint holds parameter 'bogus'" % extra)

    def test_checkpoint_recording_a_parameter_twice(self, tmp_path, zero_eval, capsys):
        corpus_path, ckpt = zero_eval
        header, params = ad.load_checkpoint(str(ckpt))

        class Records(dict):  # save_checkpoint writes len() and items(): b_out twice
            def __len__(self):
                return super().__len__() + 1

            def items(self):
                return list(super().items()) + [("b_out", params["b_out"] + 1.0)]

        twice = tmp_path / "twice.bin"
        ad.save_checkpoint(str(twice), Records(params), header=header)
        self._data_error(["eval", "--checkpoint", str(twice), "--corpus", str(corpus_path)],
                         capsys, "%s: checkpoint records parameter 'b_out' twice" % twice)

    @pytest.mark.parametrize("header", [{}, {"config": 3}, {"config": {"model": [1]}}, [1, 2]],
                             ids=["no-config", "config-not-object", "model-not-object",
                                  "header-not-object"])
    def test_checkpoint_header_without_config_object(self, tmp_path, zero_eval, capsys, header):
        corpus_path, _ = zero_eval
        ckpt = tmp_path / "bare.bin"
        ad.save_checkpoint(str(ckpt), {}, header=header)
        self._data_error(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)],
                         capsys, "object")

    # a petabyte first gate matrix, refused at once; the embedding before it
    # is small (the top layer's width is the embedding size)
    HUGE = {"n_layers": 2, "supervision_layer": 1, "hidden_size": 10**7, "embedding_size": 1}

    def test_checkpoint_of_a_model_too_large_to_allocate(self, tmp_path, zero_eval, capsys):
        corpus_path, _ = zero_eval
        ckpt = tmp_path / "huge.bin"
        ad.save_checkpoint(str(ckpt), {}, header={"config": {"model": dict(self.HUGE, vocab_size=4)}})
        self._data_error(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)],
                         capsys, "%s: model too large to allocate" % ckpt)

    def test_training_a_model_too_large_to_allocate(self, tmp_path, zero_eval, capsys):
        corpus_path, _ = zero_eval
        run = tmp_path / "run"
        sizes = [arg for kv in self.HUGE.items() for arg in ("--set", "%s=%d" % kv)]
        self._data_error(["train", "--corpus", str(corpus_path), "--out", str(run)]
                         + TRAIN_OVERRIDES + sizes,
                         capsys, "data error: model too large to allocate")
        assert not run.exists()

    def test_one_layer_tied_onlstm_with_an_unused_hidden_size(self, tmp_path, zero_eval, capsys):
        # the only layer would get embedding_size units, so hidden_size would go unused
        corpus_path, _ = zero_eval
        run = tmp_path / "run"
        self._data_error(["train", "--corpus", str(corpus_path), "--out", str(run)] + TRAIN_OVERRIDES
                         + ["--set", "hidden_size=10000000", "--set", "embedding_size=1"],
                         capsys, "hidden_size 10000000 is unused")
        assert not run.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_corpus_dump_that_is_not_an_object(self, tmp_path, zero_eval, capsys, command):
        _, ckpt = zero_eval
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        argv = {"train": ["train", "--corpus", str(listed), "--out", str(tmp_path / "run")],
                "eval": ["eval", "--checkpoint", str(ckpt), "--corpus", str(listed)]}[command]
        self._data_error(argv, capsys, "not a corpus dump")

    def test_corpus_dump_without_tokens(self, tmp_path, zero_eval, capsys):
        corpus_path, ckpt = zero_eval
        payload = json.loads(corpus_path.read_text())
        del payload["tokens"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        self._data_error(["eval", "--checkpoint", str(ckpt), "--corpus", str(broken)],
                         capsys, "'tokens'")


    @pytest.mark.parametrize("config,needle", [
        ({"model": {"n_layers": "3", "vocab_size": 4}}, "n_layers"),
        ({"seed": "x", "model": {"vocab_size": 4}}, "seed"),
    ], ids=["model-field", "train-field"])
    def test_checkpoint_config_with_wrong_json_type(self, tmp_path, zero_eval, capsys,
                                                    config, needle):
        corpus_path, _ = zero_eval
        ckpt = tmp_path / "typed.bin"
        ad.save_checkpoint(str(ckpt), {}, header={"config": config})
        self._data_error(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)],
                         capsys, needle)

    @pytest.mark.parametrize("key,value,needle", [
        ("sentence_spans", [1], "typed.json"), ("vocab", 5, "typed.json"),
        ("gold_trees_nary", [7, 7, 7], "typed.json"),
        ("gold_trees_nary", [None, None], "gold tree list does not match the 1 sentence spans"),
        ("gold_trees_nary", ["(S (NN aa) (NN bb))"], "gold tree 0 has 2 leaves for a 3-token span"),
        ("gold_trees_nary", [""], "typed.json: corpus dump field 'gold_trees_nary' entry 0 holds 0 trees"),
        ("gold_trees_nary", ["(S (NN aa) (NN bb) (NN aa)) (S (NN aa))"], "'gold_trees_nary' entry 0 holds 2 trees"),
        ("gold_trees_nary", ["(S (NN aa) (NN bb) (NN aa)"], "'gold_trees_nary' entry 0: unbalanced '('"),
        ("tokens", [2, 999, 2, 1], "typed.json: tokens[1] = 999 is outside the vocabulary's ids [0, 4)"),
        ("tokens", [2, -1, 2, 1], "typed.json: tokens[1] = -1 is outside the vocabulary's ids [0, 4)"),
        ("tokens", [2, 2**70, 2, 1], "typed.json: "),
    ], ids=["spans", "vocab", "trees", "tree-count", "leaf-count", "empty-tree", "two-trees", "unbalanced",
            "id-past-vocab", "negative-id", "id-past-int64"])
    def test_corpus_dump_with_wrong_value(self, tmp_path, zero_eval, capsys, key, value, needle):
        corpus_path, _ = zero_eval
        payload = dict(json.loads(corpus_path.read_text()), **{key: value})
        broken = tmp_path / "typed.json"
        broken.write_text(json.dumps(payload))
        self._data_error(["train", "--corpus", str(broken), "--out", str(tmp_path / "run")]
                         + TRAIN_OVERRIDES, capsys, needle)

    @pytest.mark.parametrize("shape", [(2**32 - 1, 2**32 - 1), (2**31, 2**20)],
                             ids=["overflows-int64", "needs-16-PB"])
    def test_parameter_record_larger_than_the_file(self, tmp_path, zero_eval, capsys, shape):
        corpus_path, _ = zero_eval
        ckpt = tmp_path / "huge.bin"
        ad.save_checkpoint(str(ckpt), {"embedding": np.zeros((1, 1))}, header={"config": {}})
        raw = ckpt.read_bytes()
        dims = raw.index(b"embedding") + len("embedding") + 1  # after the ndim byte
        ckpt.write_bytes(raw[:dims] + b"".join(d.to_bytes(4, "little") for d in shape) + raw[dims + 8:])
        self._data_error(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)],
                         capsys, "%s: checkpoint truncated: parameter 'embedding'" % ckpt)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_corpus_dump_nested_too_deeply(self, tmp_path, zero_eval, capsys, command):
        _, ckpt = zero_eval
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        argv = {"train": ["train", "--corpus", str(deep), "--out", str(tmp_path / "run")],
                "eval": ["eval", "--checkpoint", str(ckpt), "--corpus", str(deep)]}[command]
        self._data_error(argv, capsys, "%s: maximum recursion depth" % deep)

    @pytest.mark.parametrize("shape", ["(S %s)", "(S (NN a) %s)"])
    def test_treebank_nested_too_deeply(self, tmp_path, capsys, shape):
        # no tree walk recurses, so nesting is not an error at any depth
        text = "(NN x)"
        for _ in range(600):
            text = shape % text
        src, out = tmp_path / "deep.mrg", tmp_path / "deep.json"
        src.write_text(text)
        assert main(["preprocess", str(src), "--out", str(out)]) == 0
        n, *values = (tmp_path / "deep.json.dist").read_text().split()
        with recursion_limit(10_000):
            expected = tree_to_distances_recursive(binarize_right_recursive(parse_bracketed(text)[0]))
        assert int(n) == expected.size + 1 and np.array_equal(np.array(values, dtype=float), expected)

    @pytest.mark.parametrize("text", [
        "(S %s)" % " ".join("(NN w%d)" % i for i in range(5000)),
        "(S (NN w) " * 5000 + "(NN x)" + ")" * 5000,
        "(S " * 5000 + "(NN x)" + ")" * 5000,
    ], ids=["flat-5000", "nested-5000", "unary-5000"])
    def test_five_thousand_deep_treebank_preprocesses_and_evaluates(self, tmp_path, capsys, text):
        src, corpus_path = tmp_path / "deep.mrg", tmp_path / "deep.json"
        src.write_text(text)
        assert main(["preprocess", str(src), "--out", str(corpus_path)]) == 0
        ckpt = _zero_checkpoint(tmp_path, corpus_path)
        for algo in ("unbiased", "biased"):
            metrics = tmp_path / ("m_%s.json" % algo)
            assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                         "--out", str(metrics), "--algo", algo, "--render", "0"]) == 0
            assert json.loads(metrics.read_text())["structure"]["n_sentences"] == 1
        assert capsys.readouterr().err == ""

    def test_treebank_word_before_a_child_bracket(self, tmp_path, capsys):
        src, out = tmp_path / "mixed.mrg", tmp_path / "mixed.json"
        src.write_text("(S (NN a (X b)) (VB c))\n")
        self._data_error(["preprocess", str(src), "--out", str(out)], capsys,
                         "word 'a' before a child bracket at offset 9")
        assert not out.exists()

    def test_checkpoint_header_nested_too_deeply(self, tmp_path, zero_eval, capsys):
        corpus_path, _ = zero_eval
        ckpt = _header_only(tmp_path / "deep.bin", b"[" * 100000 + b"]" * 100000)
        self._data_error(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)],
                         capsys, "%s: checkpoint header is nested too deeply" % ckpt)

    def _checkpoint_error(self, ckpt, corpus_path, capsys) -> str:
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s: " % ckpt) and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("blob,needle", [
        (b'{"config": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b'{"config": {"model": ', "Expecting value"),
    ], ids=["not-utf8", "truncated-json"])
    def test_malformed_header_names_the_checkpoint(self, tmp_path, zero_eval, capsys, blob, needle):
        corpus_path, _ = zero_eval
        ckpt = _header_only(tmp_path / "header.bin", blob)
        assert needle in self._checkpoint_error(ckpt, corpus_path, capsys)

    def test_parameter_name_not_utf8_names_the_checkpoint(self, tmp_path, zero_eval, capsys):
        corpus_path, ckpt = zero_eval
        raw = ckpt.read_bytes()
        assert raw.count(b"b_out") == 1
        bad = tmp_path / "name.bin"
        bad.write_bytes(raw.replace(b"b_out", b"\xff\xfeout"))
        assert "'utf-8' codec can't decode byte 0xff" in self._checkpoint_error(bad, corpus_path, capsys)

    @pytest.mark.parametrize("section,changes,needle", [
        ("model", {"n_layers": "1"}, 'n_layers expects an integer, got "1"'),
        ("model", {"hidden_size": 8, "embedding_size": 8, "chunk_factor": 3},
         "hidden size 8 of layer 1 not divisible by chunk_factor 3"),
        ("config", {"bogus": 1}, "unknown config key 'bogus'"),
        ("model", {"bogus": 1}, "unknown config key 'bogus'"),
        ("config", {"n_layers": 1}, "unknown config key 'n_layers'"),
        ("model", {"prpn_temperature": 10**400}, "prpn_temperature must be finite"),
        ("config", {"clip_norm": float("inf")}, "clip_norm must be finite, got inf"),
    ], ids=["wrong-json-type", "fails-validate", "unknown-key", "unknown-model-key", "model-key-outside-model",
            "int-beyond-float-range", "infinite-train-float"])
    def test_bad_header_config_names_the_checkpoint(self, tmp_path, zero_eval, capsys, section, changes, needle):
        corpus_path, ckpt = zero_eval
        header, _ = ad.load_checkpoint(str(ckpt))
        (header["config"] if section == "config" else header["config"]["model"]).update(changes)
        # json.dumps writes inf as Infinity, as headers written before strict JSON hold it
        bad = _header_only(tmp_path / "config.bin", json.dumps(header).encode())
        assert needle in self._checkpoint_error(bad, corpus_path, capsys)

    @pytest.mark.parametrize("section,changes,needle", [
        ("config", {"lr": 0}, "lr must be positive, got 0"),
        ("config", {"dropout_output": 1e9}, "dropout_output must be in [0, 1)"),
        ("model", {"supervision_mode": "none"},
         "supervision_mode none requires tree_source none and vice versa"),
    ], ids=["zero-lr", "huge-dropout", "unsupervised-with-gold-trees"])
    def test_header_train_would_reject_names_the_checkpoint(self, tmp_path, zero_eval, capsys,
                                                            section, changes, needle):
        # a complete checkpoint, whose model eval could build and score
        corpus_path, ckpt = zero_eval
        header, params = ad.load_checkpoint(str(ckpt))
        (header["config"] if section == "config" else header["config"]["model"]).update(changes)
        if changes.get("supervision_mode") == "none":
            del params["W_s"], params["b_s"]
        bad = tmp_path / "rejected.bin"
        ad.save_checkpoint(str(bad), params, header=header)
        metrics = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(bad), "--corpus", str(corpus_path), "--trees", "lm",
                     "--out", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s: " % bad) and err.count("\n") == 1
        assert needle in err and not metrics.exists()

    def test_eval_corpus_with_other_vocab_of_the_same_size(self, tmp_path, capsys):
        paths = {}
        for name, text in (("train", "(S (NN aa) (NN bb) (NN aa))"), ("test", "(S (NN cc) (NN dd) (NN cc))")):
            src = tmp_path / (name + ".mrg")
            src.write_text(text)
            paths[name] = tmp_path / (name + ".json")
            assert main(["preprocess", str(src), "--out", str(paths[name])]) == 0
        assert Corpus.load(str(paths["test"])).vocab.words == ["<unk>", "<eos>", "cc", "dd"]
        run, metrics = tmp_path / "run", tmp_path / "metrics.json"
        assert main(["train", "--corpus", str(paths["train"]), "--out", str(run)] + TRAIN_OVERRIDES) == 0
        capsys.readouterr()
        self._data_error(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(paths["test"]),
                          "--out", str(metrics)], capsys, "not the same words")
        assert not metrics.exists()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--corpus", str(paths["train"]),
                     "--out", str(metrics)]) == 0

    def test_valid_dump_with_other_vocab(self, tmp_path, treebank_file, capsys):
        corpus, other, shared = (tmp_path / name for name in ("corpus.json", "other.json", "shared.json"))
        src = tmp_path / "valid.mrg"
        src.write_text("(S (NN aa) (NN bb) (NN aa))")
        assert main(["preprocess", str(treebank_file), "--out", str(corpus)]) == 0
        assert main(["preprocess", str(src), "--out", str(other)]) == 0
        assert main(["preprocess", str(src), "--out", str(shared), "--vocab-from", str(corpus)]) == 0
        capsys.readouterr()
        run = tmp_path / "run"
        self._data_error(["train", "--corpus", str(corpus), "--valid", str(other), "--out", str(run)]
                         + TRAIN_OVERRIDES, capsys, "validation corpus's vocabulary differs")
        assert not run.exists()
        assert main(["train", "--corpus", str(corpus), "--valid", str(shared), "--out", str(run)]
                    + TRAIN_OVERRIDES) == 0


class TestStrictJson:
    @staticmethod
    def reject(name):
        raise ValueError("non-standard JSON constant %s" % name)

    def test_one_word_sentences_write_null_ratio(self, tmp_path, capsys):
        src = tmp_path / "words.mrg"
        src.write_text("(S (NN aa))\n(S (NN bb))\n(S (NN aa))\n")
        corpus_path = tmp_path / "c.json"
        main(["preprocess", str(src), "--out", str(corpus_path)])
        ckpt = _zero_checkpoint(tmp_path, corpus_path)
        metrics = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(metrics)]) == 0

        payload = json.loads(metrics.read_text(), parse_constant=self.reject)
        assert payload["structure"]["left_right_ratio"] is None
        capsys.readouterr()

    def test_checkpoint_header_and_log_of_a_run(self, tmp_path, treebank_file):
        corpus, run = tmp_path / "corpus.json", tmp_path / "run"
        assert main(["preprocess", str(treebank_file), "--out", str(corpus)]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(run)] + TRAIN_OVERRIDES) == 0
        raw = (run / "checkpoint.bin").read_bytes()
        size = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + size].decode("utf-8"), parse_constant=self.reject)
        assert header == ad.load_checkpoint(str(run / "checkpoint.bin"))[0]
        assert header["config"]["clip_norm"] == 0.25
        log = [json.loads(line, parse_constant=self.reject)
               for line in (run / "log.jsonl").read_text().splitlines()]
        assert [entry["epoch"] for entry in log] == [1, 2]

    def test_non_finite_header_writes_no_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        with pytest.raises(ValueError, match="not JSON compliant"):
            ad.save_checkpoint(str(ckpt), {"w": np.zeros(2)}, header={"config": {"clip_norm": float("inf")}})
        assert list(tmp_path.iterdir()) == []
