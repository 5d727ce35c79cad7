import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    backward,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)

from conftest import bwd_arrays
from gradcases import primitive_cases


class TestForwardValues:
    def test_softmax_and_cumsum_symmetry(self):
        out = ad.softmax(Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.25)
        assert np.allclose(ad.cumsum(out).data, [0.25, 0.5, 0.75, 1.0])

    def test_cumax_equal_logits(self):
        assert np.allclose(ad.cumax(Tensor(np.zeros(4))).data, [0.25, 0.5, 0.75, 1.0])

    def test_cumax_saturated_first_logit(self):
        out = ad.cumax(Tensor(np.array([60.0, 0.0, 0.0, 0.0])))
        assert np.allclose(out.data, 1.0)

    def test_sigmoid_at_zero(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        with Tape():
            backward(ad.tsum(ad.sigmoid(x)))
        assert np.isclose(ad.sigmoid(Tensor(0.0)).data, 0.5)
        assert np.isclose(x.grad[0], 0.25)

    def test_hardtanh_clamps(self):
        out = ad.hardtanh(Tensor(np.array([2.0, -2.0, 0.3])))
        assert np.allclose(out.data, [1.0, -1.0, 0.3])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            backward(ad.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with Tape():
            backward(ad.tsum(x * x))
        assert np.allclose(x.grad, 2 * x.data)

    def test_fan_out_sums_adjoints(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape():
            y = x * 3.0 + x * 5.0 + ad.tsum(x)
            backward(ad.tsum(y))
        assert np.allclose(x.grad, 9.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            with pytest.raises(ShapeError):
                backward(x * 2.0)

    def test_backward_needs_tape(self):
        with pytest.raises(RuntimeError):
            backward(Tensor(1.0))

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(2), requires_grad=True)
        for _ in range(2):
            with Tape():
                backward(ad.tsum(x * 2.0))
        assert np.allclose(x.grad, 4.0)

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2.0
        assert x.tracked is x and x.requires_grad
        assert y.tracked is None and not y.requires_grad

    def test_getitem_views_a_basic_key_and_copies_an_index_array(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape():
            row, cols, picked = x[1], x[:, 1:3], x[np.array([0, 2, 0])]
        assert np.shares_memory(row.data, x.data) and np.shares_memory(cols.data, x.data)
        assert not np.shares_memory(picked.data, x.data)
        assert np.array_equal(picked.data, x.data[[0, 2, 0]])

    def test_concat_into_a_buffer_that_holds_its_first_piece(self):
        # as PRPN's read loop: each memory is a leading view of one buffer,
        # and the last memory already lies in place there
        rng = np.random.default_rng(3)
        rows = [rng.normal(size=(2, 1, 3)) for _ in range(5)]
        mix = rng.normal(size=(2, 5, 3))
        runs = []
        for into in (False, True):
            xs = [Tensor(r.copy(), requires_grad=True) for r in rows]
            buf = np.empty((2, 5, 3))
            with Tape():
                pasts, past = [], xs[0]
                for t in range(1, 5):
                    view = buf[:, : t + 1] if into else None
                    past = ad.concat([past, xs[t]], axis=1, out=view)
                    if into:
                        assert past.data is view
                    pasts.append(past)
                backward(sum((ad.tsum(p * mix[:, : p.shape[1]]) for p in pasts), Tensor(0.0)))
            runs.append(([p.data.tobytes() for p in pasts], [x.grad.tobytes() for x in xs]))
        assert runs[0] == runs[1]

    def test_dropped_graph_is_freed_without_the_cycle_collector(self):
        from sydlm.config import ModelConfig
        from sydlm.onlstm import OnLstmLM
        from sydlm.training import lm_loss, ranking_loss

        def live_nodes():
            return sum(isinstance(o, ad._Node) for o in gc.get_objects())

        model = OnLstmLM(ModelConfig(vocab_size=50, n_layers=3, embedding_size=16,
                                     hidden_size=24, supervision_layer=3), seed=0)
        ids = np.random.default_rng(0).integers(0, 50, size=(36, 20))
        gold = np.random.default_rng(1).normal(size=35 * 20)
        gc.collect()
        gc.disable()
        try:
            before = live_nodes()
            with Tape() as tape:
                out = model.forward(ids[:-1])
                loss = (lm_loss(out.logits, ids[1:].reshape(-1), np.ones(35 * 20))
                        + ranking_loss(out.d_syd, gold, np.arange(35 * 20) % 20))
                backward(loss)
            recorded = len(tape)
            del tape, out, loss
            after = live_nodes()
        finally:
            gc.enable()
        assert recorded > 3000
        assert after == before


def dense_backward(tape, loss):
    """Reference sweep: every adjoint is a full array summed out of place,
    a getitem's (key, dy) becomes a zero array of its parent's shape, and
    matmul's weight factors are multiplied out at once, one product per
    read.  Returns {leaf: gradient} without touching .grad."""
    grads = {loss.tracked: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        dy = grads.pop(node, None)
        if dy is None:
            continue
        for parent, dp in zip(node.parents, node.bwd(dy)):
            if dp is None or parent is None:
                continue
            if type(dp) is ad._Factors:
                dp = dp.left.T @ dp.right
            elif type(dp) is tuple:
                key, d = dp
                dp = np.zeros(parent.shape)
                np.add.at(dp, key, d)
            acc = grads.get(parent)
            grads[parent] = dp if acc is None else acc + dp
    return {t: g for t, g in grads.items() if type(t) is Tensor}


# taped steps of the models, as in tests/test_perfbench_tracer.py
MODEL_KINDS = [
    dict(model="onlstm-syd", n_layers=2, hidden_size=8, chunk_factor=2, supervision_layer=2),
    dict(model="prpn-syd", n_layers=1, hidden_size=8, supervision_layer=1, prpn_ff_hidden=8),
    dict(model="prpn", n_layers=1, hidden_size=8, supervision_layer=1, prpn_ff_hidden=8,
         supervision_mode="none"),
]


def matmul_reads(tape) -> dict:
    """{tensor: number of matmul nodes that read it as their weight}."""
    reads: dict = {}
    for n in tape.nodes:
        if n.bwd.__qualname__.startswith("matmul."):
            reads[n.parents[1]] = reads.get(n.parents[1], 0) + 1
    return reads


def assert_matches_dense(model, reads, ref):
    """A weight that several matmuls read (``reads``, from ``matmul_reads``
    before the sweep) sums their products in one stacked GEMM, in another
    order than the reference: within 1e-12 norm-relative.  Every other
    gradient is the reference's (np.array_equal: only the sign of a zero
    may differ).  Returns the names compared within tolerance."""
    reordered = []
    for name, p in model.params.items():
        if p not in ref:
            assert p.grad is None, name
        elif reads.get(p, 0) > 1:
            reordered.append(name)
            assert np.linalg.norm(p.grad - ref[p]) <= 1e-12 * np.linalg.norm(ref[p]), name
        else:
            assert np.array_equal(p.grad, ref[p]), name
    return reordered


class TestOwnedSweep:
    """backward sums into buffers it owns and forms weight gradients from
    factor lists; its gradients must match the dense reference's."""

    @staticmethod
    def _model_step(kind, steps, monkeypatch):
        from sydlm.config import ModelConfig, TrainConfig
        from sydlm.models import build_model
        from sydlm.training import lm_loss, ranking_loss

        # every weight of these small models has at least 4 rows, so each
        # takes the factor path; a list flushes every 2 steps at B2
        monkeypatch.setattr(ad, "FLUSH_ROWS", 4)
        cfg = ModelConfig(vocab_size=12, embedding_size=8, **kind)
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, size=(steps + 1, 2))
        with Tape() as tape:
            out = model.forward(ids[:-1], None, rng=rng, train_cfg=TrainConfig(model=cfg))
            d_w = out.d_syd if out.d_syd is not None else out.d_lm[0]
            n = 2 * steps
            loss = (lm_loss(out.logits, ids[1:].reshape(-1), np.ones(n))
                    + ranking_loss(d_w, rng.normal(size=n), np.zeros(n, dtype=np.int64)))
            ref = dense_backward(tape, loss)
            reads = matmul_reads(tape)
            backward(loss)
        return model, reads, ref

    @pytest.mark.parametrize("kind", MODEL_KINDS, ids=lambda k: k["model"])
    def test_model_step_matches_dense_reference(self, kind, monkeypatch):
        model, reads, ref = self._model_step(kind, 6, monkeypatch)
        assert all(p.grad is not None for p in model.params.values())
        reordered = assert_matches_dense(model, reads, ref)  # the recurrent weights
        assert any(not np.array_equal(model.params[name].grad, ref[model.params[name]])
                   for name in reordered)

    @pytest.mark.parametrize("kind", MODEL_KINDS, ids=lambda k: k["model"])
    def test_weights_read_once_are_bitwise(self, kind, monkeypatch):
        # one step: every weight is read by one matmul, whose single factor
        # flushes as exactly the reference's product
        model, reads, ref = self._model_step(kind, 1, monkeypatch)
        assert max(reads.values()) == 1
        assert assert_matches_dense(model, reads, ref) == []

    @pytest.mark.parametrize("slice_first", [True, False], ids=["slice-dense", "dense-slice"])
    def test_adjoint_shared_by_add_is_not_written(self, slice_first):
        # add hands one dy array to both parents; a's later adjoints must
        # not be summed into it, or b's gradient changes
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w_s, w_d, w_y = (Tensor(rng.normal(size=s)) for s in [(2, 4), (3, 4), (3, 4)])
        with Tape() as tape:
            if slice_first:
                s = a[1:] * w_s
                d = a * w_d
            else:
                d = a * w_d
                s = a[1:] * w_s
            y = a + b
            loss = ad.tsum(s) + ad.tsum(d) + ad.tsum(y * w_y)
            ref = dense_backward(tape, loss)
            backward(loss)
        assert np.array_equal(b.grad, w_y.data)
        assert np.array_equal(a.grad, ref[a])
        expected = w_y.data + w_d.data
        expected[1:] += w_s.data
        assert np.allclose(a.grad, expected)

    @pytest.mark.parametrize("kind", MODEL_KINDS, ids=lambda k: k["model"])
    def test_tied_step_without_embedding_dropout_matches_dense_reference(self, kind, monkeypatch):
        # with no row dropout the gather reads the embedding parameter
        # itself, which the tied decoder also reads
        from sydlm.config import ModelConfig, TrainConfig
        from sydlm.models import build_model
        from sydlm.training import lm_loss, ranking_loss

        monkeypatch.setattr(ad, "FLUSH_ROWS", 4)
        cfg = ModelConfig(vocab_size=12, embedding_size=8, tie_embeddings=True, **kind)
        model = build_model(cfg, seed=2)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 12, size=(7, 2))
        with Tape() as tape:
            out = model.forward(ids[:-1], None, rng=rng,
                                train_cfg=TrainConfig(model=cfg, dropout_embedding=0.0))
            d_w = out.d_syd if out.d_syd is not None else out.d_lm[0]
            loss = (lm_loss(out.logits, ids[1:].reshape(-1), np.ones(12))
                    + ranking_loss(d_w, rng.normal(size=12), np.zeros(12, dtype=np.int64)))
            assert any(n.parents[0] is model.embedding and n.bwd.__qualname__.startswith("getitem.")
                       for n in tape.nodes)
            ref = dense_backward(tape, loss)
            reads = matmul_reads(tape)
            backward(loss)
        assert "embedding" not in assert_matches_dense(model, reads, ref)

    def test_index_array_adjoint_is_summed_after_its_scatter(self):
        # x already holds a dense adjoint of 1.0 when the gather's two 1e-16
        # terms arrive: scattered first they make 2e-16, which survives the
        # sum; added one by one into 1.0 each would be lost
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            gathered = x[np.array([0, 0])]
            loss = ad.tsum(gathered * 1e-16) + ad.tsum(x)
            ref = dense_backward(tape, loss)
            backward(loss)
        assert x.grad[0] == 1.0 + 2e-16 == ref[x][0]
        assert x.grad.tobytes() == ref[x].tobytes()

    def test_grad_sums_over_two_backward_calls(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        refs = []
        for scale in (1.0, -3.0):
            with Tape() as tape:
                loss = ad.tsum(x[1:3] * x[0]) + ad.tsum(x * scale) + ad.tsum(x[np.array([2, 2])])
                refs.append(dense_backward(tape, loss)[x])
                backward(loss)
            if scale == 1.0:
                first = x.grad
                first_copy = first.copy()
        assert np.array_equal(x.grad, refs[0] + refs[1])
        assert np.array_equal(first, first_copy)


class TestTapeKeepsWhatBackwardReads:
    def test_forward_frees_an_array_no_bwd_reads(self, monkeypatch):
        # each step's gate preactivation (an affine result) is only sliced
        # for sigmoid and tanh, which read their own outputs, so it dies
        # inside the forward; the forget gate, which sigmoid's bwd reads,
        # lives until the tape goes
        from sydlm import onlstm
        from sydlm.config import ModelConfig, TrainConfig
        from sydlm.models import build_model
        from sydlm.training import lm_loss, ranking_loss

        made = []  # per layer and step: (preactivation, forget gate)
        gates = onlstm.lstm_gates

        def recording(*args):
            f, i, o, c_hat, pre = gates(*args)
            made.append((weakref.ref(pre.data), weakref.ref(f.data)))
            return f, i, o, c_hat, pre

        monkeypatch.setattr(onlstm, "lstm_gates", recording)
        cfg = ModelConfig(vocab_size=12, embedding_size=8, **MODEL_KINDS[0])
        assert cfg.supervision_mode == "split-head" and cfg.chunk_factor == 2
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(0)
        steps = 6
        ids = rng.integers(0, 12, size=(steps + 1, 2))
        with Tape() as tape:
            out = model.forward(ids[:-1], None, rng=rng, train_cfg=TrainConfig(model=cfg))
            assert len(made) == cfg.n_layers * steps
            assert all(pre() is None for pre, _ in made)
            assert all(f() is not None for _, f in made)
            n = 2 * steps
            loss = (lm_loss(out.logits, ids[1:].reshape(-1), np.ones(n))
                    + ranking_loss(out.d_syd, rng.normal(size=n), np.zeros(n, dtype=np.int64)))
            ref = dense_backward(tape, loss)
            backward(loss)
        assert ref.keys() == set(model.params.values())
        for name, p in model.params.items():
            assert p.grad.tobytes() == ref[p].tobytes(), name


def closure_value(fn, name: str):
    """The value fn's closure holds under the free variable name."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


class TestSweepReleasesClosures:
    """backward lets go of each node's bwd once it has swept the node, so the
    arrays a closure holds are freed during the sweep, and a tape is swept
    once."""

    def test_swept_tape_holds_no_closure(self):
        from sydlm.config import ModelConfig, TrainConfig
        from sydlm.models import build_model
        from sydlm.training import lm_loss, ranking_loss

        cfg = ModelConfig(vocab_size=12, embedding_size=8, **MODEL_KINDS[0])
        model = build_model(cfg, seed=1)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, size=(7, 2))
        with Tape() as tape:
            out = model.forward(ids[:-1], None, rng=rng, train_cfg=TrainConfig(model=cfg))
            loss = (lm_loss(out.logits, ids[1:].reshape(-1), np.ones(12))
                    + ranking_loss(out.d_syd, rng.normal(size=12), np.zeros(12, dtype=np.int64)))
            (ce,) = [n for n in tape.nodes if n.bwd.__qualname__.startswith("cross_entropy_logits.")]
            z = weakref.ref(closure_value(ce.bwd, "z"))
            assert z().shape == out.logits.shape
            backward(loss)
            assert z() is None  # freed by the sweep, not by closing the tape
            assert all(n.bwd is None for n in tape.nodes)
        assert len(tape) > 100

    def test_second_sweep_raises_and_adds_nothing(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with Tape():
            loss = ad.tsum(x * x)
            backward(loss)
            first = x.grad.copy()
            with pytest.raises(RuntimeError, match="already swept"):
                backward(loss)
        assert np.array_equal(x.grad, first)

    def test_cross_entropy_makes_one_vocabulary_sized_array(self):
        # the exponent is taken in place: above its output, the forward
        # allocates one (N, V) array (the one bwd keeps) and O(N) vectors
        n, v = 700, 5000
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(scale=3.0, size=(n, v)), requires_grad=True)
        tgt = rng.integers(0, v, size=n)
        dy = rng.normal(size=n)
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                y = ad.cross_entropy_logits(logits, tgt)
                made = tracemalloc.get_traced_memory()[1] - before
                (grad,) = y.tracked.bwd(dy)
        finally:
            tracemalloc.stop()
        assert made <= logits.data.nbytes + 16 * y.data.nbytes
        # the two-array formula the in-place one replaced gives the same bits
        ld, rows = logits.data, np.arange(n)
        m = ld.max(axis=-1, keepdims=True)
        z = np.exp(ld - m)
        zsum = z.sum(axis=-1)
        ref_grad = z / zsum[:, None]
        ref_grad[rows, tgt] -= 1.0
        ref_grad *= dy[:, None]
        assert y.data.tobytes() == (m[:, 0] + np.log(zsum) - ld[rows, tgt]).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


class TestClosuresHoldOnlyWhatTheyRead:
    @staticmethod
    def held(f, *tensors):
        with Tape() as tape:
            out = f(*tensors)
        return out, [a for _, a in bwd_arrays(tape)]

    def test_a_product_keeps_only_the_tracked_operands_partner(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        mask = Tensor(np.array([[0.0, 2.0, 2.0]]))
        _, held = self.held(lambda a, b: a * b, x, mask)
        assert len(held) == 1 and held[0] is mask.data
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        _, held = self.held(lambda a, b: a * b, x, y)
        assert {id(a) for a in held} == {id(x.data), id(y.data)}

    @pytest.mark.parametrize("f", [lambda a: ad.tsum(a, axis=1), lambda a: ad.repeat_last(a, 2),
                                   lambda a: ad.reshape(a, (3, 2))],
                             ids=["tsum", "repeat_last", "reshape"])
    def test_shape_only_adjoints_keep_no_array(self, f):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert self.held(f, x)[1] == []

    def test_relu_and_div_keep_their_outputs_not_their_inputs(self):
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        y = Tensor(np.full(6, 2.0), requires_grad=True)
        out, held = self.held(ad.relu, x)
        assert len(held) == 1 and held[0] is out.data
        out, held = self.held(ad.div, x, y)
        assert {id(a) for a in held} == {id(out.data), id(y.data)}


class TestWeightFactors:
    """matmul's adjoint of a leaf weight with at least FLUSH_ROWS rows
    reaches the sweep as factors; the sweep forms their product when a list
    is full and at the end of the sweep."""

    @pytest.fixture(autouse=True)
    def _three_rows(self, monkeypatch):
        monkeypatch.setattr(ad, "FLUSH_ROWS", 3)

    def test_only_a_weight_with_flush_rows_rows_is_factored(self):
        rng = np.random.default_rng(12)
        with Tape() as tape:
            for rows in (2, 3):
                w = Tensor(rng.normal(size=(rows, 4)), requires_grad=True)
                ad.matmul(Tensor(rng.normal(size=(5, rows))), w)
        small, large = (n.bwd(np.ones((5, 4)))[1] for n in tape.nodes)
        assert type(small) is np.ndarray and type(large) is ad._Factors

    @pytest.mark.parametrize("factors_first", [True, False], ids=["factors-dense", "dense-factors"])
    def test_mixed_with_a_dense_adjoint(self, factors_first):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x, c, d = (Tensor(rng.normal(size=s)) for s in [(2, 3), (2, 4), (3, 4)])
        with Tape() as tape:
            if factors_first:  # the sweep meets the later term first
                loss = ad.tsum(w * d) + ad.tsum(ad.matmul(x, w) * c)
            else:
                loss = ad.tsum(ad.matmul(x, w) * c) + ad.tsum(w * d)
            ref = dense_backward(tape, loss)
            backward(loss)
        assert np.array_equal(w.grad, ref[w])
        assert np.array_equal(w.grad, x.data.T @ c.data + d.data)

    def test_flush_leaves_an_adjoint_shared_by_add(self):
        # add hands one dy array to w and b; w's product must not be summed into it
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x, c = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(3, 4)))
        with Tape() as tape:
            loss = ad.tsum(ad.matmul(x, w)) + ad.tsum((w + b) * c)
            ref = dense_backward(tape, loss)
            backward(loss)
        assert np.array_equal(b.grad, c.data)
        assert np.array_equal(w.grad, ref[w])

    def test_list_flushed_part_way(self, monkeypatch):
        flushed = []
        stacked_rows = ad._stacked_rows
        monkeypatch.setattr(ad, "_stacked_rows", lambda f: flushed.append(f[2]) or stacked_rows(f))
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(3, 3)) * 0.5, requires_grad=True)
        h = Tensor(rng.normal(size=(1, 3)))  # one row a step
        with Tape() as tape:
            for _ in range(7):
                h = ad.tanh(ad.matmul(h, w))
            loss = ad.tsum(h)
            ref = dense_backward(tape, loss)
            backward(loss)
        assert flushed == [3, 3, 1]
        assert np.linalg.norm(w.grad - ref[w]) <= 1e-12 * np.linalg.norm(ref[w])

    def test_non_leaf_weight_keeps_its_product(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x, y, c = (Tensor(rng.normal(size=s)) for s in [(1, 3), (1, 3), (1, 4)])
        with Tape() as tape:
            v = w * 2.0  # both matmuls read v, a non-leaf with FLUSH_ROWS rows
            loss = ad.tsum(ad.matmul(x, v)) + ad.tsum(ad.matmul(y, v) * c)
            products = [n.bwd(np.ones((1, 4)))[1] for n in tape.nodes
                        if n.bwd.__qualname__.startswith("matmul.")]
            ref = dense_backward(tape, loss)
            backward(loss)
        assert len(products) == 2 and all(type(p) is np.ndarray for p in products)
        assert np.array_equal(w.grad, ref[w])
        assert np.allclose(w.grad, 2.0 * (x.data.T @ np.ones((1, 4)) + y.data.T @ c.data))

    def test_grad_sums_over_two_backward_calls(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)))
        refs = []
        for scale in (1.0, -3.0):
            with Tape() as tape:
                loss = ad.tsum(ad.matmul(x, w) * scale)
                refs.append(dense_backward(tape, loss)[w])
                backward(loss)
            if scale == 1.0:
                first, first_copy = w.grad, w.grad.copy()
        assert np.array_equal(refs[0], x.data.T @ np.ones((2, 4)))
        assert np.array_equal(w.grad, refs[0] + refs[1])
        assert np.array_equal(first, first_copy)


class TestUntrackedParents:
    """A binary primitive returns no adjoint for an untracked parent."""

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tracked_side", [0, 1])
    def test_bwd_skips_untracked_side(self, op, tracked_side):
        x = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        const = Tensor(np.full((1, 3), 4.0))
        with Tape() as tape:
            op(*((x, const) if tracked_side == 0 else (const, x)))
        adjoints = tape.nodes[-1].bwd(np.ones((2, 3)))
        assert adjoints[1 - tracked_side] is None
        assert adjoints[tracked_side].shape == (2, 3)


class TestSharedAdjoints:
    """The gathers share getitem's adjoint and the compositions their
    parts'; 18 primitives keep an adjoint of their own."""

    OWN_ADJOINT = {"add", "sub", "mul", "div", "matmul", "concat", "getitem", "reshape",
                   "broadcast_to", "repeat_last", "sigmoid", "tanh", "relu", "hardtanh",
                   "softmax", "cumsum", "tsum", "cross_entropy_logits"}

    @staticmethod
    def kinds(tape):
        return {n.bwd.__qualname__.split(".", 1)[0] for n in tape.nodes}

    COMPOSITES = {
        "take": lambda x: ad.take(x, np.array([2, 0, 2])),
        "embedding": lambda x: ad.embedding(x, np.array([[1, 1], [0, 2]])),
        "neg": lambda x: -x,
        "tmean": lambda x: ad.tmean(x, axis=1),
        "dropout": lambda x: ad.dropout(x, 0.5, np.random.default_rng(0)),
        "causal_conv1d": lambda x: ad.causal_conv1d(x, Tensor(np.ones((8, 2))), Tensor(np.zeros(2)), 2),
    }

    @pytest.mark.parametrize("name", list(COMPOSITES))
    def test_composite_records_no_node_of_its_own(self, name):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            self.COMPOSITES[name](x)
        assert len(tape) >= 1 and name not in self.kinds(tape)

    def test_grad_cases_record_exactly_the_own_adjoint_kinds(self):
        seen = set()
        for _name, f, x in primitive_cases(0):
            x.tracked = x
            with Tape() as tape:
                f(x)
            seen |= self.kinds(tape)
        assert seen == self.OWN_ADJOINT and len(seen) == 18


class TestCollectorPause:
    """An open tape pauses the cyclic collector and its close restores the
    state the tape found."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    def test_paused_inside_and_restored_after(self):
        gc.enable()
        with Tape():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_tape_opened_with_collector_off_leaves_it_off(self):
        gc.disable()
        with Tape():
            assert not gc.isenabled()
        assert not gc.isenabled()
        # the next tape, opened with the collector on, still pauses it
        gc.enable()
        with Tape():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_tapes_restore_in_order(self):
        gc.enable()
        with Tape():
            with Tape():
                assert not gc.isenabled()
            assert not gc.isenabled()
            with Tape():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_inside_tape_restores(self):
        gc.enable()
        with pytest.raises(ValueError, match="inside"):
            with Tape():
                assert not gc.isenabled()
                raise ValueError("raised inside the tape")
        assert gc.isenabled()

    def test_grad_check_leaves_state(self):
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen = []

            def f(t):
                seen.append(gc.isenabled())
                return ad.tsum(t * t)

            assert grad_check(f, Tensor(np.array([0.5, -1.5]))) < 1e-8
            assert seen[0] is False  # the taped pass
            assert gc.isenabled() is enabled


class TestRewrittenBackward:
    """Backward formulas rewritten for speed give bitwise the values of the
    formulas they replace."""

    @pytest.mark.parametrize("shape, key", [
        ((7,), ...),
        ((4, 9), ...),
        ((3, 5, 6), ...),
        ((3, 5, 12), (slice(None), slice(None, None, -1), slice(1, None, 2))),
    ], ids=["1d", "2d", "3d", "3d-strided"])
    def test_cumsum_matches_flip_formula(self, shape, key):
        rng = np.random.default_rng(7)
        dy = rng.normal(size=shape)[key]
        x = Tensor(rng.normal(size=dy.shape), requires_grad=True)
        with Tape() as tape:
            ad.cumsum(x)
        (dx,) = tape.nodes[-1].bwd(dy)
        assert dx.shape == dy.shape
        assert np.array_equal(dx, np.flip(np.cumsum(np.flip(dy, axis=-1), axis=-1), axis=-1))

    @pytest.mark.parametrize("t", [1, 2, 17, 139])
    def test_unit_contraction_matches_matmul_on_prpn_shapes(self, t):
        # PRPN's read loop at B20, rh 16: scores = h_past @ query (the
        # adjoint of h_past contracts an axis of length 1) and the gated
        # read s @ h_past (the adjoint of h_past contracts one too)
        rng = np.random.default_rng(t)
        h_past = Tensor(rng.normal(size=(20, t, 16)), requires_grad=True)
        query = Tensor(rng.normal(size=(20, 16, 1)), requires_grad=True)
        gates = Tensor(rng.uniform(size=(20, 1, t)), requires_grad=True)
        with Tape() as tape:
            ad.matmul(h_past, query)
            ad.matmul(gates, h_past)
        score_node, read_node = tape.nodes
        dy = rng.normal(size=(20, t, 1))
        d_h, d_q = score_node.bwd(dy)
        assert np.array_equal(d_h, np.matmul(dy, np.swapaxes(query.data, -1, -2)))
        assert np.array_equal(d_q, np.matmul(np.swapaxes(h_past.data, -1, -2), dy))
        dy = rng.normal(size=(20, 1, 16))
        d_s, d_h = read_node.bwd(dy)
        assert np.array_equal(d_s, np.matmul(dy, np.swapaxes(h_past.data, -1, -2)))
        assert np.array_equal(d_h, np.matmul(np.swapaxes(gates.data, -1, -2), dy))


def loop_conv(xd, wd, bd, window, dy):
    """causal_conv1d as one primitive with a loop adjoint, the formula the
    composition replaced: (out, dx, dw, db) for output adjoint dy."""
    e, h = xd.shape[-1], wd.shape[1]
    t_out = xd.shape[0] - window + 1
    out = np.broadcast_to(bd, (t_out,) + xd.shape[1:-1] + (h,)).copy()
    for k in range(window):
        out += xd[k : k + t_out] @ wd[k * e : (k + 1) * e]
    dx, dw = np.zeros_like(xd), np.zeros_like(wd)
    dy_flat = dy.reshape(-1, h)
    for k in range(window):
        dx[k : k + t_out] += dy @ wd[k * e : (k + 1) * e].T
        dw[k * e : (k + 1) * e] = xd[k : k + t_out].reshape(-1, e).T @ dy_flat
    return out, dx, dw, dy_flat.sum(axis=0)


class TestComposedConv:
    """causal_conv1d, built from getitem, matmul and add, gives bitwise the
    output and gradients of the loop formula it replaced."""

    @pytest.mark.parametrize("window, t, b, e, h", [
        (3, 35, 20, 24, 24),  # PRPN-SYD's encoder
        (6, 35, 20, 16, 24),  # PRPN's parsing network
        (2, 5, 3, ad.FLUSH_ROWS, 4),  # row blocks as tall as a factored weight
    ], ids=["window3", "window6", "flush-rows"])
    def test_matches_the_loop_formula(self, window, t, b, e, h):
        rng = np.random.default_rng(window)
        x = Tensor(rng.normal(size=(t + window - 1, b, e)), requires_grad=True)
        w = Tensor(rng.normal(size=(window * e, h)) / np.sqrt(e), requires_grad=True)
        bias = Tensor(rng.normal(size=(h,)), requires_grad=True)
        dy = Tensor(rng.normal(size=(t, b, h)))
        with Tape():
            out = ad.causal_conv1d(x, w, bias, window)
            backward(ad.tsum(out * dy))
        ref = loop_conv(x.data, w.data, bias.data, window, dy.data)
        for got, want in zip((out.data, x.grad, w.grad, bias.grad), ref):
            assert np.array_equal(got, want)


class TestShapeErrors:
    def test_matmul_names_shapes(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_matmul_rejects_1d_b(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_matmul_stack_inner_dims(self):
        with pytest.raises(ShapeError, match="inner dims"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 5))))
        with pytest.raises(ShapeError, match="inner dims"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))), transpose_b=True)

    def test_matmul_stack_leading_axes(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((3, 2, 4))), Tensor(np.ones((2, 4, 5))))

    def test_add_incompatible(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))

    def test_concat_out_of_the_wrong_shape(self):
        pieces = [Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1)))]
        for out in (np.empty((2, 3)), np.empty((2, 4, 1))):
            with pytest.raises(ShapeError, match=r"concat: .* into out \(2, "):
                ad.concat(pieces, axis=1, out=out)

    def test_embedding_id_range(self):
        with pytest.raises(ShapeError, match="embedding"):
            ad.embedding(Tensor(np.ones((3, 2))), np.array([0, 3]))

    def test_conv_window_too_long(self):
        with pytest.raises(ShapeError, match="causal_conv1d"):
            ad.causal_conv1d(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((9, 2))),
                             Tensor(np.zeros(2)), 3)

    def test_conv_window_below_one(self):
        # a window of 0 with a (0, H) weight matches every other shape check
        for window in (0, -1):
            with pytest.raises(ShapeError, match="causal_conv1d: window"):
                ad.causal_conv1d(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((0, 2))),
                                 Tensor(np.zeros(2)), window)


class TestGradChecks:
    @pytest.mark.parametrize("case", primitive_cases(seed=0), ids=lambda c: c[0])
    def test_primitive(self, case):
        name, f, x = case
        assert grad_check(f, x) < 1e-4, name

    def test_linear_function_near_machine_eps(self):
        w = Tensor(np.array([1.5, -2.0, 0.5]))
        err = grad_check(lambda t: ad.tsum(t * w), Tensor(np.array([0.3, 0.7, -0.2])))
        assert err < 1e-9

    def test_sigmoid_sum_tight(self):
        rng = np.random.default_rng(1)
        err = grad_check(lambda t: ad.tsum(ad.sigmoid(t)), Tensor(rng.normal(size=8)), eps=1e-5)
        assert err < 1e-7

    def test_hardtanh_away_from_kinks(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2.0, 2.0, size=16)
        delta = 0.01
        for kink in (-1.0, 1.0):
            close = np.abs(x - kink) < 10 * delta
            x[close] = kink + 0.2 * np.sign(x[close] - kink + 1e-9)
        err = grad_check(lambda t: ad.tsum(ad.hardtanh(t)), Tensor(x), eps=1e-5)
        assert err < 1e-6


class TestCumaxContract:
    def test_fuzz_monotone_positive_ends_at_one(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-20, 20, size=(1000, 8))
        out = ad.cumax(Tensor(x)).data
        assert (out > 0).all()
        assert (out <= 1 + 1e-12).all()
        assert (np.diff(out, axis=-1) >= 0).all()
        assert np.abs(out[:, -1] - 1.0).max() < 1e-12


class TestDeterminism:
    def test_identical_seeds_bitwise(self):
        def run():
            rng = np.random.default_rng(9)
            x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
            with Tape():
                y = ad.tsum(ad.softmax(ad.matmul(ad.dropout(x, 0.3, rng), w)))
                backward(y)
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        for left, right in zip(a, b):
            assert np.array_equal(left, right)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        params = {
            "embedding": Tensor(rng.normal(size=(7, 3))),
            "layer0.W_f": Tensor(rng.normal(size=(5, 4))),
            "b": Tensor(np.array(2.5)),
        }
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, params, header={"config": {"hidden_size": 4}})
        header, loaded = load_checkpoint(path)
        assert header == {"config": {"hidden_size": 4}}
        assert set(loaded) == set(params)
        for name, tensor in params.items():
            assert np.array_equal(loaded[name], tensor.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))
