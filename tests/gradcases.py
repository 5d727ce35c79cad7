"""One grad-check case per autodiff primitive, shared by the unit tests and
the acceptance gradient suite.  Constants are frozen per seed so finite
differences see a fixed function; relu/hardtanh inputs keep clear of the
kinks."""

import math

import numpy as np

from sydlm import autodiff as ad
from sydlm.autodiff import Tensor


def _away_from(values, points, margin=0.05):
    out = values.copy()
    for p in points:
        close = np.abs(out - p) < margin
        out[close] = p + margin * np.sign(out[close] - p + 1e-3)
    return out


def primitive_cases(seed: int):
    """[(name, f, x)] covering every primitive with exact-adjoint claims."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(2, 3)) + 2.5)  # away from 0 for div
    w = Tensor(rng.normal(size=(3, 4)))
    wt = Tensor(rng.normal(size=(4, 3)))
    c23 = Tensor(rng.normal(size=(2, 3)))
    c26 = Tensor(rng.normal(size=(2, 6)))
    c24 = Tensor(rng.normal(size=(2, 4)))
    c231 = Tensor(rng.normal(size=(4, 2, 2)))
    # stacked matmul: a (2, 3, 4) stack against b (2, 4, 5), a 2-D (3, 4) against the same b
    s234 = Tensor(rng.normal(size=(2, 3, 4)))
    s245 = Tensor(rng.normal(size=(2, 4, 5)))
    s254 = Tensor(rng.normal(size=(2, 5, 4)))
    c34 = Tensor(rng.normal(size=(3, 4)))
    c235 = Tensor(rng.normal(size=(2, 3, 5)))
    ids = rng.integers(0, 5, size=(3, 2))
    targets = rng.integers(0, 4, size=6)
    conv_w = Tensor(rng.normal(size=(6, 2)))
    conv_b = Tensor(rng.normal(size=(2,)))
    conv_x = Tensor(rng.normal(size=(5, 2, 3)))
    take_idx = rng.integers(0, 6, size=5)
    drop_seed = int(rng.integers(0, 2**31))
    repeated = np.array([1, 1, 2])
    # matmul hands the adjoint of a weight with at least FLUSH_ROWS rows to
    # the sweep as factors (a2, dy2); drawn from their own generator, so the
    # other cases' inputs stay as they were
    frng = np.random.default_rng(seed + 1000)
    k = ad.FLUSH_ROWS
    m3k, m2k = (Tensor(frng.normal(size=(r, k)) / math.sqrt(k)) for r in (3, 2))
    dk2, c32 = Tensor(frng.normal(size=(k, 2))), Tensor(frng.normal(size=(3, 2)))
    steps = k // 40 + 2  # 40 rows a read: one flush part-way, then a remainder
    xs = [Tensor(frng.normal(size=(40, k)) / math.sqrt(k)) for _ in range(steps)]
    cs = [Tensor(frng.normal(size=(40, 2))) for _ in range(steps)]

    def read_per_step(t):
        return sum((ad.tsum(ad.tanh(ad.matmul(x, t)) * c) for x, c in zip(xs, cs)), Tensor(0.0))

    def nonleaf_weight(t):
        w = t * dk2  # two matmuls read w, a non-leaf: each keeps its product
        return ad.tsum(ad.matmul(m3k, w) * c32) + ad.tsum(ad.matmul(m2k, w) * t[:2])

    def concat_into_buffer(t):
        # as PRPN's read loop: the second concat's first piece already lies
        # in place in its out buffer, and is read again after the rewrite
        buf = np.empty((2, 6))
        head = ad.concat([t, c23[:, :1]], axis=1, out=buf[:, :4])
        full = ad.concat([head, c23[:, 1:]], axis=1, out=buf)
        return ad.tsum(full * c26) + ad.tsum(head * c24)

    x23 = rng.normal(size=(2, 3))
    x_relu = _away_from(rng.normal(size=(2, 3)), [0.0], margin=0.1)
    x_ht = _away_from(rng.normal(size=(2, 3)) * 1.5, [-1.0, 1.0], margin=0.1)

    def dropped(t):
        return ad.dropout(t, 0.4, np.random.default_rng(drop_seed))

    return [
        ("add", lambda t: ad.tsum((t + c23) * a), Tensor(x23.copy())),
        ("sub", lambda t: ad.tsum((t - c23) * a), Tensor(x23.copy())),
        ("neg", lambda t: ad.tsum(-t * a), Tensor(x23.copy())),
        ("mul", lambda t: ad.tsum(t * b), Tensor(x23.copy())),
        ("div", lambda t: ad.tsum(t / b), Tensor(x23.copy())),
        ("div_denominator", lambda t: ad.tsum(a / t), Tensor(x23.copy() + 3.0)),
        ("matmul", lambda t: ad.tsum(ad.matmul(t, w) * c24), Tensor(x23.copy())),
        # the weight's adjoint mixes factors with a dense one, in both sweep orders
        ("matmul_factors_then_dense", lambda t: ad.tsum(t * dk2) + ad.tsum(ad.matmul(m3k, t) * c32),
         Tensor(frng.normal(size=(k, 2)))),
        ("matmul_dense_then_factors", lambda t: ad.tsum(ad.matmul(m3k, t) * c32) + ad.tsum(t * dk2),
         Tensor(frng.normal(size=(k, 2)))),
        # a weight read once per step, more rows than one flush holds
        ("matmul_flushed_part_way", read_per_step, Tensor(frng.normal(size=(k, 2)))),
        ("matmul_nonleaf_weight", nonleaf_weight, Tensor(frng.normal(size=(k, 2)))),
        ("matmul_tb", lambda t: ad.tsum(ad.matmul(t, wt, transpose_b=True) * c24), Tensor(x23.copy())),
        ("matmul_stack_a", lambda t: ad.tsum(ad.matmul(t, s245) * c235), Tensor(s234.data.copy())),
        ("matmul_stack_b", lambda t: ad.tsum(ad.matmul(s234, t) * c235), Tensor(s245.data.copy())),
        # a 2-D a is used against every matrix of the stack: its adjoint sums over the stack
        ("matmul_stack_2d_a", lambda t: ad.tsum(ad.matmul(t, s245) * c235), Tensor(c34.data.copy())),
        ("matmul_stack_tb", lambda t: ad.tsum(ad.matmul(s234, t, transpose_b=True) * c235),
         Tensor(s254.data.copy())),
        ("concat", lambda t: ad.tsum(ad.concat([t, c23], axis=1) * c26), Tensor(x23.copy())),
        ("concat_into_buffer", concat_into_buffer, Tensor(x23.copy())),
        ("slice", lambda t: ad.tsum(t[:, 1:3] * Tensor(np.ones((2, 2)))), Tensor(x23.copy())),
        ("reshape", lambda t: ad.tsum(ad.reshape(t, (3, 2)) * Tensor(np.arange(6.0).reshape(3, 2))),
         Tensor(x23.copy())),
        ("broadcast_to", lambda t: ad.tsum(ad.broadcast_to(t, (4, 2, 3)) * Tensor(np.ones((4, 2, 3)))),
         Tensor(x23.copy())),
        ("repeat_last", lambda t: ad.tsum(ad.repeat_last(t, 2) * c26), Tensor(x23.copy())),
        ("take", lambda t: ad.tsum(ad.take(t, take_idx) * Tensor(np.arange(5.0))),
         Tensor(rng.normal(size=6))),
        ("sigmoid", lambda t: ad.tsum(ad.sigmoid(t) * a), Tensor(x23.copy())),
        ("tanh", lambda t: ad.tsum(ad.tanh(t) * a), Tensor(x23.copy())),
        ("relu", lambda t: ad.tsum(ad.relu(t) * a), Tensor(x_relu.copy())),
        ("hardtanh", lambda t: ad.tsum(ad.hardtanh(t) * a), Tensor(x_ht.copy())),
        ("softmax", lambda t: ad.tsum(ad.softmax(t) * a), Tensor(x23.copy())),
        ("cumsum", lambda t: ad.tsum(ad.cumsum(t) * a), Tensor(x23.copy())),
        ("cumax", lambda t: ad.tsum(ad.cumax(t) * a), Tensor(x23.copy())),
        ("sum_all", lambda t: ad.tsum(t) * 1.5, Tensor(x23.copy())),
        ("sum_axis", lambda t: ad.tsum(ad.tsum(t, axis=0) * Tensor(np.arange(3.0))), Tensor(x23.copy())),
        ("sum_keepdims", lambda t: ad.tsum(ad.tsum(t, axis=-1, keepdims=True) * Tensor(np.ones((2, 1)))),
         Tensor(x23.copy())),
        ("mean_all", lambda t: ad.tmean(t) * 2.0, Tensor(x23.copy())),
        ("mean_axis", lambda t: ad.tsum(ad.tmean(t, axis=1) * Tensor(np.arange(2.0))), Tensor(x23.copy())),
        ("embedding", lambda t: ad.tsum(ad.embedding(t, ids) * Tensor(np.ones((3, 2, 4)))),
         Tensor(rng.normal(size=(5, 4)))),
        ("dropout", lambda t: ad.tsum(dropped(t) * a), Tensor(x23.copy())),
        ("causal_conv1d_x", lambda t: ad.tsum(ad.causal_conv1d(t, conv_w, conv_b, 2) * c231),
         Tensor(rng.normal(size=(5, 2, 3)))),
        ("causal_conv1d_w", lambda t: ad.tsum(ad.causal_conv1d(conv_x, t, conv_b, 2) * c231),
         Tensor(conv_w.data.copy())),
        ("causal_conv1d_b", lambda t: ad.tsum(ad.causal_conv1d(conv_x, conv_w, t, 2) * c231),
         Tensor(conv_b.data.copy())),
        ("cross_entropy", lambda t: ad.tmean(ad.cross_entropy_logits(t, targets)),
         Tensor(rng.normal(size=(6, 4)))),
        # an index array that repeats a position: its adjoints must sum there
        ("slice_repeated", lambda t: ad.tsum(t[:, repeated] * t[:, repeated]),
         Tensor(rng.normal(size=(2, 4)))),
        # embedding's gather as a getitem: a 2-D id array whose ids repeat
        ("gather_2d", lambda t: ad.tsum(t[ids] * Tensor(np.arange(24.0).reshape(3, 2, 4))),
         Tensor(rng.normal(size=(5, 4)))),
        # window_gates' transpose: two broadcast index arrays, (3, 2) -> (1, 2, 2)
        ("gather_transpose", lambda t: ad.tsum(t[np.arange(1, 3)[None, None, :], np.arange(2)[None, :, None]]
                                               * Tensor(np.arange(4.0).reshape(1, 2, 2))),
         Tensor(rng.normal(size=(3, 2)))),
    ]
